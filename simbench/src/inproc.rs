//! The in-process path (`ilp`, `mlp`): specs run serially through
//! `runner::run`, and the cached re-run through the matrix journal.

use crate::check::Tally;
use crate::stats::secs_since;
use crate::suite::spec_insts;
use crate::wrap;
use mlpwin_ooo::Core;
use mlpwin_sim::journal::encode_line;
use mlpwin_sim::runner::{run, run_matrix_with, MatrixConfig, RunSpec};
use mlpwin_workloads::profiles;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// One serial pass over every spec.
#[derive(Debug, Clone)]
pub struct Round {
    /// Host seconds of the pass's runs (the checks are not timed).
    pub wall_s: f64,
    /// Host seconds of each spec's run.
    pub spec_s: Vec<f64>,
    /// Committed correct-path instructions simulated.
    pub insts: u64,
}

impl Round {
    /// Simulated MIPS of the pass.
    pub fn mips(&self) -> f64 {
        self.insts as f64 / 1e6 / self.wall_s
    }
}

/// Runs every spec once through `runner::run` — or, with a positive
/// `slow_ns`, through the same calls with the generator slowed by that
/// many nanoseconds per instruction — checking each result. After the
/// spec at index `i` it calls `between(i, tally)`, outside the timed
/// region.
pub fn round(
    specs: &[RunSpec],
    refs: &[String],
    slow_ns: u64,
    tally: &mut Tally,
    between: &mut dyn FnMut(usize, &mut Tally),
) -> Round {
    let mut spec_s = Vec::with_capacity(specs.len());
    for (i, (spec, reference)) in specs.iter().zip(refs).enumerate() {
        let t = Instant::now();
        let result = if slow_ns > 0 {
            wrap::run_slowed(spec, slow_ns)
        } else {
            run(spec)
        };
        spec_s.push(secs_since(t));
        tally.result(spec, &result, reference);
        between(i, tally);
    }
    Round {
        wall_s: spec_s.iter().sum(),
        spec_s,
        insts: specs.iter().map(spec_insts).sum(),
    }
}

/// Host seconds to set up every spec once: profile compile, model build
/// and `Core::try_new`, the work `runner::run` does before simulating.
pub fn setup_once(specs: &[RunSpec]) -> f64 {
    let start = Instant::now();
    for spec in specs {
        let (config, policy) = spec.model.build();
        let workload = profiles::by_name(&spec.profile, spec.seed).expect("checked profile");
        black_box(Core::try_new(config, workload, policy).expect("valid model"));
    }
    secs_since(start)
}

/// Writes the journal a serial pass over the specs leaves behind: the
/// reference lines, which every timed execution is checked to equal.
pub fn write_journal(refs: &[String], path: &Path) {
    std::fs::write(path, refs.join("\n") + "\n").expect("journal written");
}

/// Host seconds of one cached re-run: `run_matrix_with` over `specs`
/// against the journal at `path`, so every spec is served from it and
/// nothing simulates. Every served line is checked.
pub fn rerun_once(specs: &[RunSpec], refs: &[String], path: &Path, tally: &mut Tally) -> f64 {
    let config = MatrixConfig {
        threads: 1,
        max_attempts: 1,
        journal: Some(path.to_path_buf()),
        progress: false,
        snapshots: None,
    };
    let start = Instant::now();
    let outcomes = run_matrix_with(specs, &config).expect("journal readable");
    let wall = secs_since(start);
    for ((spec, outcome), reference) in specs.iter().zip(&outcomes).zip(refs) {
        let line = outcome.result().map(|r| encode_line(spec, r));
        tally.line(&spec.profile, line.as_deref(), reference);
    }
    wall
}
