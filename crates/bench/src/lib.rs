//! # mlpwin-bench
//!
//! The benchmark harness. Every table and figure of the paper, plus the
//! ablations and the software-MLP study, is one entry of the report
//! table in [`figs`], printed by one binary:
//!
//! ```text
//! cargo run --release -p mlpwin-bench --bin mlpwin-figs -- fig7
//! cargo run --release -p mlpwin-bench --bin mlpwin-figs -- --check
//! ```
//!
//! Reports accept `--insts N --warmup N --threads N --seed N` (threads
//! default to `MLPWIN_THREADS` when set, otherwise the available
//! cores); `--check` compares each report with `results/<name>.txt`.
//! The `mlpwin-bench` binary times the simulator itself (see
//! [`benchfile`]), and `cargo bench -p mlpwin-bench` times the stride
//! prefetcher and the other hot structures.
//!
//! Budgets are scaled-down stand-ins for the paper's 16G-skip +
//! 100M-measure sampling; raising `--insts` tightens every number at
//! linear cost.

pub mod benchfile;
pub mod figs;

use mlpwin_sim::report::{pct, try_geomean, ReportError};
use mlpwin_workloads::{profiles, Category};
use std::io::{self, Write};

/// The paper's selected programs, memory-intensive first — the row set
/// every figure report prints.
pub fn selected_profiles() -> Vec<&'static str> {
    profiles::SELECTED_MEM
        .iter()
        .chain(profiles::SELECTED_COMP.iter())
        .copied()
        .collect()
}

/// The three geometric-mean groups every figure summarizes: memory-
/// intensive, compute-intensive, and everything.
pub const GM_GROUPS: [(&str, Option<Category>); 3] = [
    ("GM mem", Some(Category::MemoryIntensive)),
    ("GM comp", Some(Category::ComputeIntensive)),
    ("GM all", None),
];

/// Geometric mean of the values whose category matches `cat` (all of
/// them for `None`), over `(category, value)` pairs.
///
/// # Errors
///
/// [`ReportError`] when the filtered set is empty or contains a
/// non-positive value.
pub fn try_category_geomean(
    per_cat: &[(Category, f64)],
    cat: Option<Category>,
) -> Result<f64, ReportError> {
    let values: Vec<f64> = per_cat
        .iter()
        .filter(|(c, _)| cat.is_none_or(|want| *c == want))
        .map(|(_, v)| *v)
        .collect();
    try_geomean(&values)
}

/// Writes one `GM mem / GM comp / GM all` summary line per group from
/// `(category, ratio)` pairs, skipping (with a stderr note) any group
/// whose inputs are degenerate.
pub fn write_geomean_summary(out: &mut dyn Write, per_cat: &[(Category, f64)]) -> io::Result<()> {
    for (label, cat) in GM_GROUPS {
        match try_category_geomean(per_cat, cat) {
            Ok(gm) => writeln!(out, "{label}: {gm:.3} ({})", pct(gm - 1.0))?,
            Err(e) => eprintln!("{label}: skipped ({e})"),
        }
    }
    Ok(())
}

/// Whether profile `name` belongs to GM group `cat` (`None` = all).
///
/// # Panics
///
/// Panics on a name no profile has.
pub fn in_group(name: &str, cat: Option<Category>) -> bool {
    let params = profiles::params_by_name(name).expect("known profile");
    cat.is_none_or(|c| params.category == c)
}

/// Unwraps a single run for a binary: prints the typed error to stderr
/// and exits non-zero on failure.
pub fn expect_run<T>(outcome: Result<T, mlpwin_sim::SimError>) -> T {
    outcome.unwrap_or_else(|error| {
        eprintln!("run failed: {error}");
        std::process::exit(1);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selected_profiles_cover_both_categories() {
        let sel = selected_profiles();
        assert!(!sel.is_empty());
        assert!(sel.starts_with(&profiles::SELECTED_MEM));
        assert!(sel.ends_with(&profiles::SELECTED_COMP));
    }

    #[test]
    fn category_geomean_filters_before_aggregating() {
        let per_cat = [
            (Category::MemoryIntensive, 2.0),
            (Category::MemoryIntensive, 8.0),
            (Category::ComputeIntensive, 1.0),
        ];
        let mem =
            try_category_geomean(&per_cat, Some(Category::MemoryIntensive)).expect("mem group");
        assert!((mem - 4.0).abs() < 1e-12);
        let comp =
            try_category_geomean(&per_cat, Some(Category::ComputeIntensive)).expect("comp group");
        assert!((comp - 1.0).abs() < 1e-12);
        let all = try_category_geomean(&per_cat, None).expect("all");
        assert!((all - (2.0f64 * 8.0 * 1.0).powf(1.0 / 3.0)).abs() < 1e-9);
        // An empty group is a typed error, not a NaN.
        let only_comp = [(Category::ComputeIntensive, 1.0)];
        assert_eq!(
            try_category_geomean(&only_comp, Some(Category::MemoryIntensive)),
            Err(ReportError::EmptyInput)
        );
    }
}
