//! The paper's reports as one table: every table, figure, ablation and
//! study is a [`Report`] entry that declares the matrix runs it reads
//! and renders its text to a writer. The `mlpwin-figs` binary selects
//! reports by name, runs the deduplicated union of their specs in one
//! matrix, and either prints the reports or (`--check`) compares each
//! with its golden copy under `results/`.
//!
//! ```text
//! mlpwin-figs [NAME...] [--insts N --warmup N --threads N --seed N]
//! mlpwin-figs --check [NAME...] [--threads N]
//! ```
//!
//! With no names every report is selected. `--insts`/`--warmup`
//! replace every selected report's default budget; `--seed` applies to
//! every simulated run.

mod figures;
mod studies;
mod tables;

use figures::*;
use studies::*;
use tables::*;

use mlpwin_ooo::{Core, CoreConfig, WindowPolicy};
use mlpwin_sim::report::geomean;
use mlpwin_sim::runner::{run_matrix, RunOutcome, RunResult, RunSpec};
use mlpwin_sim::{SimError, SimModel};
use mlpwin_workloads::{profiles, ProfileWorkload};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The `(warmup, insts)` most matrix reports default to.
const MATRIX: (u64, u64) = (250_000, 60_000);
/// The `(warmup, insts)` every ablation defaults to.
const ABLATION: (u64, u64) = (150_000, 40_000);

/// One table, figure, ablation or study.
#[derive(Debug)]
pub struct Report {
    /// The name it is selected by, and its golden file's stem.
    pub name: &'static str,
    /// Default `(warmup, insts)` per run.
    pub budget: (u64, u64),
    /// The matrix runs it reads. Reports that simulate nothing, or that
    /// build their own cores, ask for none.
    pub specs: fn(&Budget) -> Vec<RunSpec>,
    /// Writes the report's text.
    pub render: fn(&Ctx, &mut dyn Write) -> Result<(), FigsError>,
}

impl Report {
    const fn new(
        name: &'static str,
        budget: (u64, u64),
        specs: fn(&Budget) -> Vec<RunSpec>,
        render: fn(&Ctx, &mut dyn Write) -> Result<(), FigsError>,
    ) -> Report {
        Report {
            name,
            budget,
            specs,
            render,
        }
    }
}

/// Every report, in `--check` order.
pub const REPORTS: &[Report] = &[
    Report::new("table1", MATRIX, no_runs, table1),
    Report::new("table2", MATRIX, no_runs, table2),
    Report::new("table3", MATRIX, table3_specs, table3),
    Report::new("table4", MATRIX, base_and_dynamic, table4),
    Report::new("table5", (250_000, 100_000), table5_specs, table5),
    Report::new("fig2", MATRIX, fig2_specs, fig2),
    Report::new("fig4", (250_000, 120_000), no_runs, fig4),
    Report::new("fig6", (100_000, 20_000), no_runs, fig6),
    Report::new("fig7", MATRIX, fig7_specs, fig7),
    Report::new("fig8", MATRIX, fig8_specs, fig8),
    Report::new("fig9", MATRIX, base_and_dynamic, fig9),
    Report::new("fig10", MATRIX, fig10_specs, fig10),
    Report::new("fig11", MATRIX, fig11_specs, fig11),
    Report::new("fig12", MATRIX, fig12_specs, fig12),
    Report::new("swmlp", (100_000, 40_000), swmlp_specs, swmlp),
    Report::new("ablate_maxlevel", ABLATION, no_runs, ablate_maxlevel),
    Report::new("ablate_penalty", ABLATION, no_runs, ablate_penalty),
    Report::new("ablate_policy", ABLATION, no_runs, ablate_policy),
    Report::new("ablate_prefetcher", ABLATION, no_runs, ablate_prefetcher),
];

/// The report called `name`.
///
/// # Errors
///
/// [`FigsError::UnknownReport`], listing the valid names.
pub fn report(name: &str) -> Result<&'static Report, FigsError> {
    REPORTS
        .iter()
        .find(|r| r.name == name)
        .ok_or_else(|| FigsError::UnknownReport {
            name: name.to_string(),
            valid: REPORTS.iter().map(|r| r.name).collect(),
        })
}

/// What one report's runs simulate: instruction budgets and seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Warm-up instructions per run.
    pub warmup: u64,
    /// Measured instructions per run.
    pub insts: u64,
    /// Workload seed.
    pub seed: u64,
}

impl Budget {
    /// The one spec builder every report uses.
    pub fn spec(&self, profile: &str, model: SimModel) -> RunSpec {
        RunSpec {
            seed: self.seed,
            ..RunSpec::new(profile, model).with_budget(self.warmup, self.insts)
        }
    }

    /// A core of `config` and `policy` running `profile` at this seed,
    /// warmed up, for reports that build their own cores.
    ///
    /// # Errors
    ///
    /// [`SimError`] on an unknown profile, an invalid configuration or
    /// a warm-up stall.
    pub fn warm_core(
        &self,
        profile: &str,
        (config, policy): (CoreConfig, Box<dyn WindowPolicy>),
    ) -> Result<Core<ProfileWorkload>, SimError> {
        let workload = profiles::by_name(profile, self.seed)?;
        let mut core = Core::try_new(config, workload, policy)?;
        core.run_warmup(self.warmup)?;
        Ok(core)
    }
}

/// Reports that simulate nothing, or that build their own cores, ask
/// for no matrix runs.
fn no_runs(_: &Budget) -> Vec<RunSpec> {
    Vec::new()
}

/// `models` on each of `programs`, program-major.
fn grid(b: &Budget, programs: &[&str], models: &[SimModel]) -> Vec<RunSpec> {
    programs
        .iter()
        .flat_map(|p| models.iter().map(move |&m| b.spec(p, m)))
        .collect()
}

/// What a report renders from: its budget, the thread count for runs
/// it makes itself, and the shared matrix results.
pub struct Ctx<'a> {
    /// The report's budget.
    pub budget: Budget,
    /// Worker threads for [`par_map`].
    pub threads: usize,
    results: &'a HashMap<RunSpec, RunResult>,
}

impl Ctx<'_> {
    /// The matrix result of `profile` under `model` at this budget.
    ///
    /// # Panics
    ///
    /// Panics when the report did not declare that run in its specs —
    /// a bug in the report, which the crate's tests rule out.
    pub fn run(&self, profile: &str, model: SimModel) -> &RunResult {
        let spec = self.budget.spec(profile, model);
        self.results
            .get(&spec)
            .unwrap_or_else(|| panic!("report read an undeclared run: {profile} {model:?}"))
    }

    /// Geometric mean over `programs` of `model`'s IPC relative to
    /// `base`'s.
    pub fn speedup(&self, programs: &[&str], model: SimModel, base: SimModel) -> f64 {
        let ratios: Vec<f64> = programs
            .iter()
            .map(|p| self.run(p, model).ipc() / self.run(p, base).ipc())
            .collect();
        geomean(&ratios)
    }
}

/// Parsed `mlpwin-figs` command line.
#[derive(Debug)]
pub struct FigsArgs {
    /// Selected reports, in order; every report when none is named.
    pub reports: Vec<&'static Report>,
    /// Measured-instruction override for every selected report.
    pub insts: Option<u64>,
    /// Warm-up override for every selected report.
    pub warmup: Option<u64>,
    /// Worker threads for matrices and [`par_map`].
    pub threads: usize,
    /// Workload seed.
    pub seed: u64,
    /// Compare each rendered report with `results/<name>.txt`.
    pub check: bool,
}

impl FigsArgs {
    /// Parses the arguments after the program name.
    ///
    /// # Errors
    ///
    /// [`FigsError::Usage`] on a malformed flag, and
    /// [`FigsError::UnknownReport`] on a name no report has.
    pub fn parse_from<I: IntoIterator<Item = String>>(args: I) -> Result<FigsArgs, FigsError> {
        let mut out = FigsArgs {
            reports: Vec::new(),
            insts: None,
            warmup: None,
            threads: RunSpec::threads_from_env(),
            seed: 1,
            check: false,
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut take = |name: &str| -> Result<u64, FigsError> {
                let value = it
                    .next()
                    .ok_or_else(|| FigsError::Usage(format!("{name} requires a value")))?;
                value
                    .parse()
                    .map_err(|e| FigsError::Usage(format!("{name} {value}: {e}")))
            };
            match arg.as_str() {
                "--insts" => out.insts = Some(take("--insts")?),
                "--warmup" => out.warmup = Some(take("--warmup")?),
                "--threads" => out.threads = take("--threads")? as usize,
                "--seed" => out.seed = take("--seed")?,
                "--check" => out.check = true,
                flag if flag.starts_with('-') => {
                    return Err(FigsError::Usage(format!(
                        "unknown flag {flag}; expected --insts/--warmup/--threads/--seed/--check"
                    )))
                }
                name => out.reports.push(report(name)?),
            }
        }
        if out.reports.is_empty() {
            out.reports = REPORTS.iter().collect();
        }
        if out.insts == Some(0) {
            return Err(FigsError::Usage("--insts must be positive".into()));
        }
        if out.threads == 0 {
            return Err(FigsError::Usage("--threads must be positive".into()));
        }
        if out.check && (out.insts.is_some() || out.warmup.is_some() || out.seed != 1) {
            return Err(FigsError::Usage(
                "--check compares default-budget output; drop --insts/--warmup/--seed".into(),
            ));
        }
        Ok(out)
    }

    /// `report`'s budget under these arguments.
    pub fn budget(&self, report: &Report) -> Budget {
        Budget {
            warmup: self.warmup.unwrap_or(report.budget.0),
            insts: self.insts.unwrap_or(report.budget.1),
            seed: self.seed,
        }
    }

    /// The union of the reports' specs, first occurrence first, each
    /// spec once.
    pub fn matrix(&self, reports: &[&Report]) -> Vec<RunSpec> {
        let mut seen = HashSet::new();
        reports
            .iter()
            .flat_map(|r| (r.specs)(&self.budget(r)))
            .filter(|spec| seen.insert(spec.clone()))
            .collect()
    }
}

/// Why `mlpwin-figs` could not produce its reports.
#[derive(Debug)]
pub enum FigsError {
    /// A malformed command line.
    Usage(String),
    /// A report name that no report has.
    UnknownReport {
        /// The name asked for.
        name: String,
        /// Every valid name.
        valid: Vec<&'static str>,
    },
    /// Runs failed, as `(attempts, error)`; no report renders from
    /// incomplete data.
    Runs(Vec<(u32, SimError)>),
    /// Writing a report or reading a golden file failed.
    Io(io::Error),
}

impl fmt::Display for FigsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FigsError::Usage(msg) => write!(f, "{msg}"),
            FigsError::UnknownReport { name, valid } => {
                write!(f, "unknown report {name}; valid: {}", valid.join(" "))
            }
            FigsError::Runs(failures) => {
                for (attempts, error) in failures {
                    writeln!(f, "run failed after {attempts} attempt(s): {error}")?;
                }
                write!(f, "{} run(s) failed; aborting report", failures.len())
            }
            FigsError::Io(e) => write!(f, "i/o: {e}"),
        }
    }
}

impl std::error::Error for FigsError {}

impl From<SimError> for FigsError {
    fn from(e: SimError) -> Self {
        FigsError::Runs(vec![(1, e)])
    }
}

impl From<io::Error> for FigsError {
    fn from(e: io::Error) -> Self {
        FigsError::Io(e)
    }
}

/// Maps `f` over `items` on up to `threads` scoped threads, keeping
/// input order. Returns the first error in input order.
pub fn par_map<T, R, E, F>(items: &[T], threads: usize, f: F) -> Result<Vec<R>, E>
where
    T: Sync,
    R: Send + Sync,
    E: Send + Sync,
    F: Fn(&T) -> Result<R, E> + Sync,
{
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<Result<R, E>>> = items.iter().map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.min(items.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let _ = slots[i].set(f(item));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every item ran"))
        .collect()
}

/// Runs the selected reports: prints them to `out`, or with `--check`
/// writes one verdict line per report. Returns whether every check
/// passed (always true without `--check`).
///
/// # Errors
///
/// Any [`FigsError`] a run or a write raised.
pub fn run(args: &FigsArgs, golden_dir: &Path, out: &mut dyn Write) -> Result<bool, FigsError> {
    let reports = &args.reports;
    let mut results = HashMap::new();
    let mut failures = Vec::new();
    for outcome in run_matrix(&args.matrix(reports), args.threads) {
        match outcome {
            RunOutcome::Ok(r) => {
                results.insert(r.spec.clone(), r);
            }
            RunOutcome::Failed { error, attempts } => failures.push((attempts, error)),
        }
    }
    if !failures.is_empty() {
        return Err(FigsError::Runs(failures));
    }
    let mut passed = true;
    for &report in reports {
        let ctx = Ctx {
            budget: args.budget(report),
            threads: args.threads,
            results: &results,
        };
        if args.check {
            let mut text = Vec::new();
            (report.render)(&ctx, &mut text)?;
            let golden = golden_dir.join(format!("{}.txt", report.name));
            let verdict = match std::fs::read(&golden) {
                Ok(want) => first_difference(&want, &text).map(|diff| format!("MISMATCH {diff}")),
                Err(e) => Some(format!("MISSING golden {}: {e}", golden.display())),
            };
            passed &= verdict.is_none();
            let verdict = verdict.unwrap_or_else(|| "ok".into());
            writeln!(out, "{}: {verdict}", report.name)?;
        } else {
            (report.render)(&ctx, out)?;
        }
        out.flush()?;
    }
    Ok(passed)
}

/// The first line where `got` departs from `want`, described, or
/// `None` when they are byte-identical.
fn first_difference(want: &[u8], got: &[u8]) -> Option<String> {
    if want == got {
        return None;
    }
    let (mut w, mut g) = (want.split(|&b| b == b'\n'), got.split(|&b| b == b'\n'));
    let show = |line: Option<&[u8]>| {
        line.map_or("<end of file>".to_string(), |l| {
            format!("{:?}", String::from_utf8_lossy(l))
        })
    };
    let mut line = 1;
    loop {
        match (w.next(), g.next()) {
            (Some(a), Some(b)) if a == b => line += 1,
            (a, b) => {
                return Some(format!(
                    "at line {line}\n  golden: {}\n  output: {}",
                    show(a),
                    show(b)
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn parse(s: &str) -> Result<FigsArgs, FigsError> {
        FigsArgs::parse_from(argv(s))
    }

    #[test]
    fn defaults_apply() {
        let a = parse("").expect("empty command line");
        assert!(!a.check);
        assert_eq!((a.insts, a.warmup, a.seed), (None, None, 1));
        assert!(a.threads >= 1);
        assert_eq!(a.reports.len(), REPORTS.len());
        let fig7 = report("fig7").expect("fig7");
        assert_eq!(
            a.budget(fig7),
            Budget {
                warmup: 250_000,
                insts: 60_000,
                seed: 1
            }
        );
    }

    #[test]
    fn names_and_flags_override() {
        let a = parse("fig9 table5 --insts 5 --warmup 7 --threads 2 --seed 9").expect("valid");
        assert_eq!(
            (a.insts, a.warmup, a.threads, a.seed),
            (Some(5), Some(7), 2, 9)
        );
        let names: Vec<_> = a.reports.iter().map(|r| r.name).collect();
        assert_eq!(names, ["fig9", "table5"]);
        let b = a.budget(report("table5").expect("table5"));
        assert_eq!((b.warmup, b.insts, b.seed), (7, 5, 9));
        assert!(parse("--check fig4").expect("check one report").check);
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            "--bogus 1",
            "--insts",
            "--insts x",
            "--insts 0",
            "--threads 0",
            "--check --insts 5",
            "--check --seed 7",
        ] {
            assert!(
                matches!(parse(bad), Err(FigsError::Usage(_))),
                "{bad} must be a usage error"
            );
        }
    }

    #[test]
    fn unknown_report_lists_the_valid_names() {
        let err = parse("fig7 fig99").expect_err("no report is called fig99");
        let FigsError::UnknownReport { name, valid } = &err else {
            panic!("expected UnknownReport, got {err:?}");
        };
        assert_eq!(name, "fig99");
        assert_eq!(valid.len(), REPORTS.len());
        let msg = err.to_string();
        for r in REPORTS {
            assert!(msg.contains(r.name), "{msg} must list {}", r.name);
        }
    }

    #[test]
    fn report_names_are_unique_and_each_has_a_golden() {
        let names: HashSet<_> = REPORTS.iter().map(|r| r.name).collect();
        assert_eq!(names.len(), REPORTS.len(), "duplicate report name");
        let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        for r in REPORTS {
            let golden = results.join(format!("{}.txt", r.name));
            assert!(golden.is_file(), "{} has no golden", golden.display());
        }
    }

    #[test]
    fn every_simulating_report_honours_the_seed() {
        // Reports that build their own cores read `Budget::seed`
        // directly; every other simulating report goes through the spec
        // builder.
        let own_cores = [
            "fig4",
            "fig6",
            "ablate_maxlevel",
            "ablate_penalty",
            "ablate_policy",
            "ablate_prefetcher",
        ];
        let defaults = parse("").expect("defaults");
        let seeded = parse("--seed 7").expect("seeded");
        for r in REPORTS {
            let specs = (r.specs)(&seeded.budget(r));
            if specs.is_empty() {
                assert!(
                    own_cores.contains(&r.name) || ["table1", "table2"].contains(&r.name),
                    "{} declares no runs",
                    r.name
                );
                continue;
            }
            assert!(
                specs.iter().all(|s| s.seed == 7),
                "{} ignores --seed",
                r.name
            );
            let plain = (r.specs)(&defaults.budget(r));
            assert!(plain.iter().all(|s| s.seed == 1), "{} default seed", r.name);
        }
    }

    #[test]
    fn matrix_is_deduplicated_and_covers_every_report() {
        let args = parse("").expect("defaults");
        let matrix = args.matrix(&args.reports);
        let distinct: HashSet<&RunSpec> = matrix.iter().collect();
        assert_eq!(distinct.len(), matrix.len(), "duplicate spec in the matrix");
        let mut asked = 0;
        for r in &args.reports {
            for spec in (r.specs)(&args.budget(r)) {
                asked += 1;
                assert!(distinct.contains(&spec), "{} lost {spec:?}", r.name);
            }
        }
        // The 250k/60k reports share most of their runs with Fig. 7.
        let paper = parse("table3 table4 fig2 fig7 fig8 fig9 fig10 fig11 fig12").expect("names");
        let union = paper.matrix(&paper.reports);
        let total: usize = paper
            .reports
            .iter()
            .map(|r| (r.specs)(&paper.budget(r)).len())
            .sum();
        assert_eq!((total, union.len()), (558, 280));
        assert!(matrix.len() < asked);
    }

    #[test]
    fn every_report_renders_from_the_runs_it_declared() {
        // Each report runs alone, so `Ctx::run` panics on any run it
        // reads without declaring it; a tiny budget keeps this fast.
        for r in REPORTS {
            let args = parse(&format!("{} --warmup 0 --insts 200", r.name)).expect("valid");
            let mut text = Vec::new();
            assert!(run(&args, Path::new("results"), &mut text).expect("renders"));
            assert!(!text.is_empty(), "{} rendered nothing", r.name);
        }
    }

    #[test]
    fn par_map_keeps_order_and_returns_the_first_error() {
        let items: Vec<u32> = (0..50).collect();
        let doubled: Result<Vec<u32>, String> = par_map(&items, 4, |&x| Ok(x * 2));
        assert_eq!(doubled, Ok(items.iter().map(|x| x * 2).collect()));
        let failed: Result<Vec<u32>, u32> =
            par_map(&items, 3, |&x| if x % 7 == 6 { Err(x) } else { Ok(x) });
        assert_eq!(failed, Err(6));
        let none: Result<Vec<u32>, ()> = par_map(&[], 4, |&x: &u32| Ok(x));
        assert_eq!(none, Ok(vec![]));
    }

    #[test]
    fn first_difference_names_the_line() {
        assert_eq!(first_difference(b"a\nb\n", b"a\nb\n"), None);
        let d = first_difference(b"a\nb\nc\n", b"a\nx\nc\n").expect("differs");
        assert!(d.starts_with("at line 2\n"), "{d}");
        assert!(d.contains("\"b\"") && d.contains("\"x\""), "{d}");
        let short = first_difference(b"a\nb\n", b"a\n").expect("differs");
        assert!(short.starts_with("at line 2\n"), "{short}");
    }
}
