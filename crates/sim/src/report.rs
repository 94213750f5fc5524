//! Report helpers shared by every table/figure report: geometric means,
//! aligned text tables, histograms and series normalization.

use mlpwin_isa::Cycle;
use mlpwin_ooo::{CoreStats, CpiBucket};
use std::fmt;

/// Why a report helper could not produce a value. The figure reports
/// use the `try_*` variants so a degenerate input (every spec of a
/// profile failed, say) prints a diagnostic instead of panicking
/// mid-report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportError {
    /// An aggregate over zero values.
    EmptyInput,
    /// A geometric mean over a non-positive value.
    NonPositive,
    /// A table row whose width differs from its header.
    RowWidthMismatch {
        /// Columns the table has.
        expected: usize,
        /// Cells the row supplied.
        got: usize,
    },
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::EmptyInput => write!(f, "aggregate over an empty input"),
            ReportError::NonPositive => {
                write!(f, "geometric mean requires positive values")
            }
            ReportError::RowWidthMismatch { expected, got } => {
                write!(
                    f,
                    "row width mismatch: expected {expected} cells, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for ReportError {}

/// Geometric mean of a slice of positive values.
///
/// # Panics
///
/// Panics if the slice is empty or contains non-positive values; use
/// [`try_geomean`] to handle degenerate inputs instead.
pub fn geomean(values: &[f64]) -> f64 {
    match try_geomean(values) {
        Ok(g) => g,
        Err(ReportError::EmptyInput) => panic!("geometric mean of nothing"),
        Err(e) => panic!("{e}"),
    }
}

/// [`geomean`] with degenerate inputs as typed errors instead of panics.
///
/// # Errors
///
/// [`ReportError::EmptyInput`] for an empty slice,
/// [`ReportError::NonPositive`] when any value is zero or negative.
pub fn try_geomean(values: &[f64]) -> Result<f64, ReportError> {
    if values.is_empty() {
        return Err(ReportError::EmptyInput);
    }
    if !values.iter().all(|&v| v > 0.0) {
        return Err(ReportError::NonPositive);
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Ok((log_sum / values.len() as f64).exp())
}

/// A simple aligned text table, printed by every experiment binary.
#[derive(Debug, Clone)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> TextTable {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width; use
    /// [`try_row`](TextTable::try_row) to handle it instead.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut TextTable {
        self.try_row(cells).expect("row width mismatch");
        self
    }

    /// Appends a row, rejecting a width mismatch as a typed error
    /// instead of panicking (the table is left unchanged).
    ///
    /// # Errors
    ///
    /// [`ReportError::RowWidthMismatch`] when the cell count differs
    /// from the header count.
    pub fn try_row<S: Into<String>>(
        &mut self,
        cells: Vec<S>,
    ) -> Result<&mut TextTable, ReportError> {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        if cells.len() != self.headers.len() {
            return Err(ReportError::RowWidthMismatch {
                expected: self.headers.len(),
                got: cells.len(),
            });
        }
        self.rows.push(cells);
        Ok(self)
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                let pad = widths[i] - cells[i].len();
                if i == 0 {
                    // Left-align the label column.
                    line.push_str(&cells[i]);
                    line.push_str(&" ".repeat(pad));
                } else {
                    line.push_str(&" ".repeat(pad));
                    line.push_str(&cells[i]);
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Histogram of `values` with fixed-width bins (Fig. 4).
///
/// Returns `(bin_start, count)` pairs covering `0..=max(values)`.
/// Empty input yields an empty histogram.
///
/// # Panics
///
/// Panics if `bin_width` is zero.
pub fn histogram(values: &[u64], bin_width: u64) -> Vec<(u64, u64)> {
    assert!(bin_width > 0, "bin width must be positive");
    let Some(&max) = values.iter().max() else {
        return Vec::new();
    };
    let bins = (max / bin_width + 1) as usize;
    let mut counts = vec![0u64; bins];
    for &v in values {
        counts[(v / bin_width) as usize] += 1;
    }
    counts
        .into_iter()
        .enumerate()
        .map(|(i, c)| (i as u64 * bin_width, c))
        .collect()
}

/// Consecutive differences of a sorted event-cycle list — the Fig. 4
/// miss-interval series.
pub fn intervals(cycles: &[Cycle]) -> Vec<u64> {
    cycles
        .windows(2)
        .map(|w| w[1].saturating_sub(w[0]))
        .collect()
}

/// Formats a ratio as a percentage string with one decimal ("+21.3%").
pub fn pct(ratio: f64) -> String {
    format!("{:+.1}%", ratio * 100.0)
}

/// Normalizes each value by `base`, the Fig. 7/9/10/12 convention.
///
/// # Panics
///
/// Panics if `base` is not positive.
pub fn normalize(values: &[f64], base: f64) -> Vec<f64> {
    assert!(base > 0.0, "normalization base must be positive");
    values.iter().map(|v| v / base).collect()
}

/// Renders a run's per-level CPI-stack attribution: one row per level
/// the run actually visited (each bucket as a percentage of that
/// level's cycles) plus an `all` row over the whole run. The figure
/// reports print this under their headline tables.
pub fn cpi_stack_table(stats: &CoreStats) -> String {
    let mut headers = vec!["level".to_string(), "cycles".to_string()];
    headers.extend(CpiBucket::ALL.iter().map(|b| b.label().to_string()));
    let mut t = TextTable::new(headers);
    let visited = stats
        .cpi_stack
        .iter()
        .enumerate()
        .filter(|&(level, _)| stats.level_cycles.get(level).copied().unwrap_or(0) > 0);
    for (level, row) in visited {
        let cycles = stats.level_cycles[level];
        let mut cells = vec![format!("L{}", level + 1), cycles.to_string()];
        cells.extend(
            row.iter()
                .map(|&c| format!("{:.1}%", 100.0 * c as f64 / cycles as f64)),
        );
        t.row(cells);
    }
    if stats.cycles > 0 {
        let mut cells = vec!["all".to_string(), stats.cycles.to_string()];
        cells.extend(
            CpiBucket::ALL
                .iter()
                .map(|&b| format!("{:.1}%", 100.0 * stats.cpi_fraction(b))),
        );
        t.row(cells);
    }
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        let _ = geomean(&[1.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "nothing")]
    fn geomean_rejects_empty() {
        let _ = geomean(&[]);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["prog", "IPC"]);
        t.row(vec!["libquantum", "0.41"]);
        t.row(vec!["gcc", "1.20"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("prog"));
        assert!(lines[2].contains("libquantum"));
        // Right-aligned numeric column: both rows end at the same width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = TextTable::new(vec!["a", "b"]);
        t.row(vec!["only one"]);
    }

    #[test]
    fn histogram_bins_correctly() {
        let h = histogram(&[0, 3, 8, 9, 17], 8);
        assert_eq!(h, vec![(0, 2), (8, 2), (16, 1)]);
        assert!(histogram(&[], 8).is_empty());
    }

    #[test]
    fn intervals_are_pairwise_diffs() {
        assert_eq!(intervals(&[10, 15, 35]), vec![5, 20]);
        assert!(intervals(&[42]).is_empty());
    }

    #[test]
    fn normalize_and_pct() {
        assert_eq!(normalize(&[2.0, 3.0], 2.0), vec![1.0, 1.5]);
        assert_eq!(pct(0.213), "+21.3%");
        assert_eq!(pct(-0.08), "-8.0%");
    }

    #[test]
    fn try_geomean_reports_degenerate_inputs() {
        assert_eq!(try_geomean(&[]), Err(ReportError::EmptyInput));
        assert_eq!(try_geomean(&[1.0, 0.0]), Err(ReportError::NonPositive));
        assert_eq!(try_geomean(&[2.0, -1.0]), Err(ReportError::NonPositive));
        assert!((try_geomean(&[1.0, 4.0]).expect("valid") - 2.0).abs() < 1e-12);
        assert!(ReportError::EmptyInput.to_string().contains("empty"));
    }

    #[test]
    fn try_geomean_edge_cases() {
        // A lone value is its own geomean.
        assert!((try_geomean(&[7.5]).expect("singleton") - 7.5).abs() < 1e-12);
        // All-negative and mixed-sign inputs are NonPositive, not NaN.
        assert_eq!(try_geomean(&[-1.0, -2.0]), Err(ReportError::NonPositive));
        assert_eq!(try_geomean(&[-0.0]), Err(ReportError::NonPositive));
        // NaN fails the positivity check rather than poisoning the mean.
        assert_eq!(try_geomean(&[1.0, f64::NAN]), Err(ReportError::NonPositive));
        // Tiny and huge magnitudes: the log-domain sum stays finite.
        let g = try_geomean(&[1e-300, 1e300]).expect("extreme magnitudes");
        assert!((g - 1.0).abs() < 1e-9, "geomean = {g}");
        // Scale invariance: geomean(k*x) == k * geomean(x).
        let base = try_geomean(&[2.0, 8.0]).expect("base");
        let scaled = try_geomean(&[6.0, 24.0]).expect("scaled");
        assert!((scaled - 3.0 * base).abs() < 1e-9);
    }

    #[test]
    fn try_row_rejects_ragged_rows_without_panicking() {
        let mut t = TextTable::new(vec!["a", "b"]);
        let err = t.try_row(vec!["only one"]).expect_err("ragged");
        assert_eq!(
            err,
            ReportError::RowWidthMismatch {
                expected: 2,
                got: 1
            }
        );
        // The failed row must not have been recorded.
        t.try_row(vec!["x", "y"]).expect("valid row");
        assert_eq!(t.render().lines().count(), 3);
    }

    #[test]
    fn cpi_stack_table_lists_visited_levels_and_total() {
        use mlpwin_ooo::CPI_BUCKETS;
        let mut row0 = [0u64; CPI_BUCKETS];
        row0[CpiBucket::Base as usize] = 75;
        row0[CpiBucket::MemoryStall as usize] = 25;
        let row1 = [0u64; CPI_BUCKETS]; // never visited
        let stats = CoreStats {
            cycles: 100,
            level_cycles: vec![100, 0],
            cpi_stack: vec![row0, row1],
            ..CoreStats::default()
        };
        let s = cpi_stack_table(&stats);
        assert!(s.contains("L1"), "{s}");
        assert!(!s.contains("L2"), "unvisited level must be omitted: {s}");
        assert!(s.contains("75.0%"), "{s}");
        assert!(s.contains("all"), "{s}");
        assert!(s.lines().next().expect("header").contains("mem"));
    }
}
