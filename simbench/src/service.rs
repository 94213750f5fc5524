//! The service paths: campaigns through `serve::run_campaign` with
//! local worker processes, and interval-parallel runs through
//! `split::run_split`.

use crate::check::Tally;
use crate::stats::secs_since;
use crate::suite::WORKERS;
use mlpwin_sim::journal::encode_line;
use mlpwin_sim::runner::RunSpec;
use mlpwin_sim::split::discard_store;
use mlpwin_sim::{run_campaign, run_split, CampaignConfig, CampaignOutcome, Lane, SplitConfig};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// The `mlpwin-sim` worker executable, built next to this binary.
pub fn worker_exe() -> PathBuf {
    let me = std::env::current_exe().expect("own executable path");
    me.with_file_name(format!("mlpwin-sim{}", std::env::consts::EXE_SUFFIX))
}

/// Runs `specs` as a campaign in the fresh directory `dir`, writing its
/// Chrome trace to `trace_out`, then checks the finalized journal line
/// by line. Returns the wall seconds of `run_campaign`.
pub fn campaign_pass(
    specs: &[RunSpec],
    refs: &[String],
    dir: &Path,
    trace_out: &Path,
    tally: &mut Tally,
) -> f64 {
    let mut cfg = CampaignConfig::new(dir, worker_exe());
    cfg.workers = WORKERS;
    cfg.trace_out = Some(trace_out.to_path_buf());
    let jobs: Vec<(RunSpec, Lane)> = specs.iter().map(|s| (s.clone(), Lane::Normal)).collect();
    let start = Instant::now();
    let outcome = run_campaign(&jobs, &cfg);
    let wall_s = secs_since(start);
    match outcome {
        Ok(CampaignOutcome::Complete(report)) => {
            let journal = std::fs::read_to_string(cfg.journal_path()).unwrap_or_default();
            let mut lines = journal.lines();
            for (spec, reference) in specs.iter().zip(refs) {
                tally.line(&spec.profile, lines.next(), reference);
            }
            if report.failed + report.quarantined > 0 {
                eprintln!("simbench: campaign {}", report.render());
            }
        }
        Ok(CampaignOutcome::Interrupted(_)) => fail_all(specs, "campaign interrupted", tally),
        Err(e) => fail_all(specs, &e.to_string(), tally),
    }
    wall_s
}

fn fail_all(specs: &[RunSpec], why: &str, tally: &mut Tally) {
    for spec in specs {
        tally.attempted += 1;
        tally.fail(&spec.profile, why);
    }
}

/// Starts the worker with no arguments: it fails argument parsing and
/// exits at once, so spawn-to-exit is the process start cost.
fn spawn_worker() -> std::process::Child {
    Command::new(worker_exe())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("worker executable starts")
}

/// Host milliseconds from spawning one worker process to reaping it.
pub fn spawn_ms() -> f64 {
    let start = Instant::now();
    let _ = spawn_worker().wait();
    secs_since(start) * 1e3
}

/// One interval-parallel run.
#[derive(Debug, Clone, Copy)]
pub struct SplitPass {
    /// Wall time of `run_split` on a fresh store.
    pub wall_s: f64,
    /// Its serial sweep.
    pub sweep_s: f64,
    /// Intervals the run was cut into.
    pub intervals: u64,
}

/// Runs `spec` interval-parallel in exact mode with [`WORKERS`]
/// threads under the fresh store `dir`, checking the stitched result.
pub fn split_pass(
    spec: &RunSpec,
    reference: &str,
    interval_cycles: u64,
    dir: &Path,
    tally: &mut Tally,
) -> SplitPass {
    let cfg = SplitConfig::new(interval_cycles).with_workers(WORKERS);
    let start = Instant::now();
    let out = run_split(spec, &cfg, dir);
    let wall_s = secs_since(start);
    let line = match &out {
        Ok(o) => o.result.as_ref().map(|r| encode_line(spec, r)),
        Err(e) => {
            eprintln!("simbench: split failed: {e}");
            None
        }
    };
    tally.line(&spec.profile, line.as_deref(), reference);
    discard_store(spec, interval_cycles, dir);
    let _ = std::fs::remove_dir_all(dir);
    let (sweep_s, intervals) = out.map_or((0.0, 0), |o| (o.sweep_secs, o.n_intervals));
    SplitPass {
        wall_s,
        sweep_s,
        intervals,
    }
}
