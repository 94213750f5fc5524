//! The correctness check every run makes: each spec's journal line
//! must equal the line of the single-stepped reference for the same
//! spec and seed.

use mlpwin_sim::journal::encode_line;
use mlpwin_sim::runner::{run, RunResult, RunSpec};
use mlpwin_sim::SimError;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The switch that makes `runner::run` single-step every cycle.
pub const NO_FAST_FORWARD: &str = "MLPWIN_NO_FAST_FORWARD";

/// The reference journal line of every spec, computed with the stall
/// fast-forward off on up to `threads` threads.
///
/// Call it while the process runs no other thread: it sets and clears
/// [`NO_FAST_FORWARD`] in this process's environment.
///
/// # Errors
///
/// The first spec whose reference run fails.
pub fn reference_lines(specs: &[RunSpec], threads: usize) -> Result<Vec<String>, SimError> {
    std::env::set_var(NO_FAST_FORWARD, "1");
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<String, SimError>>>> =
        specs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, specs.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(spec) = specs.get(i) else { break };
                let line = run(spec).map(|r| encode_line(spec, &r));
                *slots[i].lock().expect("slot poisoned") = Some(line);
            });
        }
    });
    std::env::remove_var(NO_FAST_FORWARD);
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot poisoned")
                .expect("every spec ran")
        })
        .collect()
}

/// Changes one field of a reference line (`dram_lines` goes up by one),
/// so a run can show that the check catches a one-field difference.
pub fn plant_difference(line: &str) -> String {
    const KEY: &str = "\"dram_lines\":";
    let Some(at) = line.find(KEY).map(|i| i + KEY.len()) else {
        return format!("{line} ");
    };
    let digits = line[at..].bytes().take_while(u8::is_ascii_digit).count();
    let value: u64 = line[at..at + digits].parse().unwrap_or(0);
    format!("{}{}{}", &line[..at], value + 1, &line[at + digits..])
}

/// Specs attempted and specs failed over a whole run.
#[derive(Debug, Default)]
pub struct Tally {
    /// Spec executions checked.
    pub attempted: u64,
    /// Executions that errored, were quarantined, or whose line differs
    /// from the reference.
    pub failed: u64,
}

impl Tally {
    /// Checks one execution's line against its reference.
    pub fn line(&mut self, what: &str, got: Option<&str>, reference: &str) {
        self.attempted += 1;
        match got {
            Some(line) if line == reference => {}
            Some(_) => self.fail(
                what,
                "journal line differs from the single-stepped reference",
            ),
            None => self.fail(what, "no result"),
        }
    }

    /// Checks one in-process result against its reference.
    pub fn result(&mut self, spec: &RunSpec, got: &Result<RunResult, SimError>, reference: &str) {
        let what = format!("{}/{}/seed {}", spec.profile, spec.model.tag(), spec.seed);
        match got {
            Ok(r) => self.line(&what, Some(&encode_line(spec, r)), reference),
            Err(e) => {
                self.attempted += 1;
                self.fail(&what, &e.to_string());
            }
        }
    }

    /// Counts a failure that has no line to compare.
    pub fn fail(&mut self, what: &str, why: &str) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("simbench: FAILED {what}: {why}");
        }
    }

    /// Share of executions that failed.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpwin_sim::SimModel;

    #[test]
    fn fast_forward_matches_the_stepped_reference() {
        let _sim = crate::sim_lock();
        let specs = vec![
            RunSpec::new("mcf", SimModel::Dynamic).with_budget(5_000, 5_000),
            RunSpec::new("gcc", SimModel::Base).with_budget(5_000, 5_000),
        ];
        let reference = reference_lines(&specs, 2).expect("reference");
        let mut tally = Tally::default();
        for (spec, want) in specs.iter().zip(&reference) {
            tally.result(spec, &run(spec), want);
        }
        assert_eq!((tally.attempted, tally.failed), (2, 0));
    }

    #[test]
    fn a_planted_one_field_difference_fails_the_check() {
        let _sim = crate::sim_lock();
        let spec = RunSpec::new("gcc", SimModel::Base).with_budget(2_000, 2_000);
        let reference = reference_lines(std::slice::from_ref(&spec), 1).expect("reference");
        let planted = plant_difference(&reference[0]);
        assert_ne!(planted, reference[0]);
        let mut tally = Tally::default();
        tally.result(&spec, &run(&spec), &planted);
        assert_eq!(tally.failed, 1);
        assert!(tally.failed_frac() > 0.0);
    }
}
