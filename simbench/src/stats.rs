//! Small numeric and host helpers: means, medians, peak RSS, the result
//! line.

use std::fmt::Write as _;
use std::time::Instant;

/// The median of `values` (mean of the middle two for even counts);
/// 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The mean of `values`; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Peak resident set size of this process (`VmHWM`), in MB; 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Named metrics with units, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Records `name = value unit`; a later put of the same name wins.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        self.entries.retain(|(n, _, _)| *n != name);
        self.entries.push((name, value, unit));
    }

    /// Every entry, in insertion order.
    pub fn entries(&self) -> &[(String, f64, &'static str)] {
        &self.entries
    }

    /// The benchmark's result line: one JSON object with `correct`,
    /// `attempted`, `failed` and every metric as `{value, unit}`.
    pub fn result_line(&self, attempted: u64, failed: u64) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
            failed == 0
        );
        for (i, (name, value, unit)) in self.entries.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_median_handle_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn result_line_is_json_with_units() {
        let mut m = Metrics::default();
        m.put("sim_mips", 1.25, "MIPS");
        m.put("setup_s", 0.5, "s");
        let line = m.result_line(12, 0);
        let v = mlpwin_sim::json::Json::parse(&line).expect("valid json");
        assert_eq!(v.get("correct").and_then(|j| j.as_bool()), Some(true));
        assert_eq!(v.get("attempted").and_then(|j| j.as_u64()), Some(12));
        let mips = v
            .get("metrics")
            .and_then(|m| m.get("sim_mips"))
            .expect("metric");
        assert_eq!(mips.get("value").and_then(|j| j.as_f64()), Some(1.25));
        assert_eq!(mips.get("unit").and_then(|j| j.as_str()), Some("MIPS"));
    }
}
