//! `mlpwin-simbench --workload <ilp|mlp> --seed N
//! --seconds S --trace <0|1> [--slow-next-inst-ns N] [--plant-reference-diff]`
//!
//! Computes the single-stepped reference of the workload's specs, then
//! measures for about `S` seconds and prints the provenance, one line
//! per metric and, last, the JSON result line. `--trace 0` reports the
//! end-to-end metrics, `--trace 1` the per-layer breakdown.
//! `--slow-next-inst-ns` slows the generator by a fixed time per
//! instruction (the sensitivity check);
//! `--plant-reference-diff` changes one field of one reference line, so
//! the run must report a failure.
//!
//! The reference is computed by a child process (this binary with
//! `--reference`), so neither its memory nor its threads show in the
//! measured process.

use mlpwin_sim::runner::RunSpec;
use mlpwin_simbench::check::{plant_difference, reference_lines, Tally};
use mlpwin_simbench::inproc;
use mlpwin_simbench::layers;
use mlpwin_simbench::stats::{mean, median, peak_rss_mb, secs_since, Metrics};
use mlpwin_simbench::suite::{Kind, WORKERS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    slow_ns: u64,
    plant: bool,
    reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut slow_ns, mut plant, mut reference) = (0, false, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| v.parse::<u64>().map_err(|_| format!("bad number `{v}`"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                kind =
                    Some(Kind::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?);
            }
            "--seed" => seed = Some(number(value()?)?),
            "--seconds" => seconds = Some(number(value()?)? as f64),
            "--trace" => trace = Some(number(value()?)? != 0),
            "--slow-next-inst-ns" => slow_ns = number(value()?)?,
            "--plant-reference-diff" => plant = true,
            "--reference" => reference = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: if reference {
            0.0
        } else {
            seconds.ok_or("--seconds is required")?
        },
        trace: trace.unwrap_or(false),
        slow_ns,
        plant,
        reference,
    })
}

/// The run's scratch directory under the current directory, removed on
/// drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent); // only once empty
        }
    }
}

/// The reference journal lines of the workload's specs, one per spec,
/// from a child process running this binary in `--reference` mode.
fn reference_from_child(args: &Args, n_specs: usize) -> Result<Vec<String>, String> {
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let seed = args.seed.to_string();
    let out = Command::new(me)
        .args([
            "--reference",
            "--workload",
            args.kind.name(),
            "--seed",
            &seed,
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    if !out.status.success() {
        return Err(format!("reference process exited with {}", out.status));
    }
    let lines: Vec<String> = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(str::to_string)
        .collect();
    if lines.len() != n_specs {
        return Err(format!(
            "{} reference lines for {n_specs} specs",
            lines.len()
        ));
    }
    Ok(lines)
}

fn provenance(args: &Args) -> String {
    // Only a checkout that is itself a git repository names its commit:
    // git would otherwise report whatever repository encloses it.
    let commit = Path::new(".git")
        .exists()
        .then(|| {
            Command::new("git")
                .args(["rev-parse", "HEAD"])
                .stderr(Stdio::null())
                .output()
                .ok()
        })
        .flatten()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| {
            l.strip_prefix("model name")
                .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "provenance: workload={} seed={} trace={} commit={commit} cpu=\"{cpu}\" nproc={nproc} rustc=\"{}\"",
        args.kind.name(),
        args.seed,
        u8::from(args.trace),
        env!("SIMBENCH_RUSTC"),
    )
}

/// The end-to-end measurement: rounds of the workload for about
/// `seconds`, with a set-up and a cached re-run sample taken between
/// spec runs at a fixed stride, so all three figures average over the
/// same stretch of host time.
///
/// `sim_mips` is the run's total instructions over its total round time
/// and `rerun_s` the mean re-run time. On a host whose speed flips
/// between a contended and a free state, these time averages move
/// smoothly with the share of time spent in each. A median of a few
/// rounds would jump between the two states. `setup_s` is the median of
/// its samples, which are many and spread evenly over the run.
fn end_to_end(
    args: &Args,
    specs: &[RunSpec],
    refs: &[String],
    work: &Path,
    tally: &mut Tally,
) -> Metrics {
    let (mut mips, mut setups, mut reruns) = (Vec::new(), Vec::new(), Vec::new());
    let (mut insts, mut wall_s) = (0u64, 0.0);
    let stride = args.kind.sample_stride();
    let start = Instant::now();
    let journal = work.join("journal.jsonl");
    inproc::write_journal(refs, &journal);
    while mips.is_empty() || secs_since(start) < args.seconds {
        let round = inproc::round(specs, refs, args.slow_ns, tally, &mut |i, tally| {
            if (i + 1) % stride == 0 {
                setups.push(inproc::setup_once(specs));
                reruns.push(inproc::rerun_once(specs, refs, &journal, tally));
            }
        });
        mips.push(round.mips());
        (insts, wall_s) = (insts + round.insts, wall_s + round.wall_s);
    }
    let mut m = Metrics::default();
    m.put("sim_mips", insts as f64 / 1e6 / wall_s, "MIPS");
    m.put("setup_s", median(&setups), "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    m.put("ok_frac", 1.0 - tally.failed_frac(), "frac");
    m.put("rerun_s", mean(&reruns), "s");
    println!(
        "rounds {} (sim_mips median {:.4} min {:.4} max {:.4}), set-up and re-run samples {}",
        mips.len(),
        median(&mips),
        mips.iter().copied().fold(f64::INFINITY, f64::min),
        mips.iter().copied().fold(0.0, f64::max),
        reruns.len(),
    );
    m
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("mlpwin-simbench: {e}");
            return ExitCode::from(2);
        }
    };
    let specs = args.kind.specs(args.seed);
    if args.reference {
        return match reference_lines(&specs, WORKERS) {
            Ok(lines) => {
                for line in lines {
                    println!("{line}");
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("mlpwin-simbench: reference run failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let work = WorkDir(PathBuf::from(".simbench-work").join(format!(
        "{}-{}",
        args.kind.name(),
        std::process::id()
    )));
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("mlpwin-simbench: {}: {e}", work.0.display());
        return ExitCode::FAILURE;
    }

    let start = Instant::now();
    let mut refs = match reference_from_child(&args, specs.len()) {
        Ok(refs) => refs,
        Err(e) => {
            eprintln!("mlpwin-simbench: reference run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "simbench: single-stepped reference of {} specs in {:.2}s",
        specs.len(),
        secs_since(start)
    );
    if args.plant {
        refs[0] = plant_difference(&refs[0]);
    }

    println!("{}", provenance(&args));
    let mut tally = Tally::default();
    let metrics = if args.trace {
        layers::traced_run(
            &specs,
            &refs,
            args.seconds,
            args.slow_ns,
            &work.0,
            &mut tally,
        )
    } else {
        end_to_end(&args, &specs, &refs, &work.0, &mut tally)
    };
    drop(work);
    println!(
        "failed_frac {} ({} of {} spec executions)",
        tally.failed_frac(),
        tally.failed,
        tally.attempted
    );
    for (name, value, unit) in metrics.entries() {
        println!("{name} {value} {unit}");
    }
    println!("{}", metrics.result_line(tally.attempted, tally.failed));
    ExitCode::SUCCESS
}
