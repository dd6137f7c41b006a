//! Aggregation and report formatting for the experiment harness.
//!
//! Every benchmark binary in `clusterkv-bench` prints the rows/series the
//! corresponding paper table or figure reports. This crate provides the small
//! shared pieces: summary statistics, a markdown table builder and a named
//! data series that serialises to JSON for plotting.

#![warn(missing_docs)]

use serde::{Deserialize, Serialize};

/// Mean of a slice; `0.0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Nearest-rank percentile (`p` in `[0, 100]`); `0.0` for an empty slice.
/// NaN values sort last (total order), so degenerate inputs cannot panic.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    percentile_of_sorted(&sorted, p)
}

/// Nearest-rank percentile of an already ascending-sorted slice.
fn percentile_of_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Mean / p50 / p95 / p99 of one latency distribution (seconds, or any
/// consistent unit) — the summary every serving experiment reports.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencySummary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (nearest rank).
    pub p50: f64,
    /// 95th percentile (nearest rank).
    pub p95: f64,
    /// 99th percentile (nearest rank).
    pub p99: f64,
}

impl LatencySummary {
    /// Summarise a set of values (all zeros for an empty slice).
    pub fn from_values(values: &[f64]) -> Self {
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        Self {
            mean: mean(values),
            p50: percentile_of_sorted(&sorted, 50.0),
            p95: percentile_of_sorted(&sorted, 95.0),
            p99: percentile_of_sorted(&sorted, 99.0),
        }
    }

    /// The summary as table cells `[mean, p50, p95, p99]`, each formatted in
    /// milliseconds with the given number of decimals (inputs are seconds).
    pub fn millis_cells(&self, decimals: usize) -> Vec<String> {
        [self.mean, self.p50, self.p95, self.p99]
            .iter()
            .map(|v| fmt(v * 1e3, decimals))
            .collect()
    }
}

/// One served request's end-to-end measurements, the row format every
/// serving experiment shares (emitted by `clusterkv-sched` from its
/// per-request metrics) so bench binaries stop hand-formatting report
/// fields. Times are in seconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestRow {
    /// Request id (submission order).
    pub id: u64,
    /// Time to first token: arrival → first generated token.
    pub ttft: f64,
    /// Mean time between output tokens (0 for single-token requests).
    pub tbt: f64,
    /// End-to-end latency: arrival → last token.
    pub e2e: f64,
    /// Token-level hit rate of the session's GPU cluster cache in `[0, 1]`.
    pub hit_rate: f64,
    /// Number of generated tokens.
    pub generated: usize,
}

/// Render per-request rows as a markdown table (TTFT/TBT/E2E in ms).
pub fn request_table(rows: &[RequestRow]) -> Table {
    let mut t = Table::new(vec![
        "Request",
        "TTFT (ms)",
        "TBT (ms)",
        "E2E (ms)",
        "Hit rate",
        "Tokens",
    ]);
    for r in rows {
        t.row(vec![
            format!("r{}", r.id),
            fmt(r.ttft * 1e3, 2),
            fmt(r.tbt * 1e3, 3),
            fmt(r.e2e * 1e3, 2),
            format!("{}%", fmt(r.hit_rate * 100.0, 1)),
            r.generated.to_string(),
        ]);
    }
    t
}

/// A named series of `(x, y)` points — one line in a figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Legend label (method name).
    pub label: String,
    /// X/Y points in plotting order.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Create an empty series.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }

    /// Serialise to a compact JSON string (for plotting outside Rust).
    ///
    /// The format matches what `serde_json` would produce for this struct:
    /// `{"label":"...","points":[[x,y],...]}`. JSON is emitted by hand so the
    /// crate works without registry access (see `crates/shims/README.md`).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"label\":\"");
        for ch in self.label.chars() {
            match ch {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push_str("\",\"points\":[");
        for (i, (x, y)) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{},{}]", fmt_json_f64(*x), fmt_json_f64(*y)));
        }
        out.push_str("]}");
        out
    }
}

/// Render an `f64` so it round-trips through [`str::parse`] (shortest
/// representation; JSON has no non-finite literals, which the series never
/// contains in practice — non-finite values are emitted as `null`).
fn fmt_json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Markdown table builder used by the experiment binaries to print rows the
/// same way the paper's tables lay them out.
///
/// # Examples
///
/// ```
/// use clusterkv_metrics::Table;
///
/// let mut t = Table::new(vec!["Method", "256", "512"]);
/// t.row(vec!["Quest".into(), "35.6".into(), "40.8".into()]);
/// let text = t.render();
/// assert!(text.contains("| Method | 256 | 512 |"));
/// assert!(text.contains("Quest"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with the given column headers.
    pub fn new(headers: Vec<&str>) -> Self {
        Self {
            headers: headers.into_iter().map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row. Rows shorter than the header are padded with blanks;
    /// longer rows are truncated.
    pub fn row(&mut self, cells: Vec<String>) {
        let mut cells = cells;
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as GitHub-flavoured markdown.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("| ");
        out.push_str(&self.headers.join(" | "));
        out.push_str(" |\n|");
        for _ in &self.headers {
            out.push_str("---|");
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str("| ");
            out.push_str(&row.join(" | "));
            out.push_str(" |\n");
        }
        out
    }
}

/// Format a float with a fixed number of decimals (helper for table cells).
pub fn fmt(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_and_std_of_known_values() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn series_round_trips_through_json() {
        let mut s = Series::new("ClusterKV");
        s.push(256.0, 46.7);
        s.push(512.0, 48.0);
        let json = s.to_json();
        assert_eq!(
            json,
            r#"{"label":"ClusterKV","points":[[256,46.7],[512,48]]}"#
        );
    }

    #[test]
    fn empty_series_and_escaped_labels_round_trip() {
        let empty = Series::new("quote \" backslash \\ newline \n");
        assert_eq!(
            empty.to_json(),
            r#"{"label":"quote \" backslash \\ newline \n","points":[]}"#
        );
    }

    #[test]
    fn non_finite_points_round_trip_as_null() {
        let mut s = Series::new("degenerate");
        s.push(f64::NAN, 1.0);
        s.push(2.0, f64::INFINITY);
        let json = s.to_json();
        assert_eq!(
            json,
            r#"{"label":"degenerate","points":[[null,1],[2,null]]}"#
        );
    }

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new(vec!["a", "b"]);
        assert!(t.is_empty());
        t.row(vec!["1".into()]);
        t.row(vec!["2".into(), "3".into(), "4".into()]);
        assert_eq!(t.len(), 2);
        let md = t.render();
        assert!(md.starts_with("| a | b |"));
        assert!(md.contains("| 1 |  |"));
        assert!(md.contains("| 2 | 3 |"));
        assert!(!md.contains('4'));
    }

    #[test]
    fn fmt_controls_decimals() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        assert_eq!(fmt(2.0, 0), "2");
    }

    #[test]
    fn percentile_nearest_rank_on_known_values() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn latency_summary_from_values() {
        let s = LatencySummary::from_values(&[0.001, 0.002, 0.003, 0.004]);
        assert!((s.mean - 0.0025).abs() < 1e-12);
        assert_eq!(s.p50, 0.002);
        assert_eq!(s.p99, 0.004);
        let cells = s.millis_cells(1);
        assert_eq!(cells, vec!["2.5", "2.0", "4.0", "4.0"]);
        let empty = LatencySummary::from_values(&[]);
        assert_eq!(empty.mean, 0.0);
        assert_eq!(empty.p99, 0.0);
    }

    #[test]
    fn request_rows_render_as_table_and_series() {
        let rows = vec![
            RequestRow {
                id: 0,
                ttft: 0.010,
                tbt: 0.002,
                e2e: 0.050,
                hit_rate: 0.75,
                generated: 20,
            },
            RequestRow {
                id: 1,
                ttft: 0.020,
                tbt: 0.003,
                e2e: 0.080,
                hit_rate: 0.5,
                generated: 21,
            },
        ];
        let table = request_table(&rows).render();
        assert!(table.contains("| Request | TTFT (ms) |"));
        assert!(table.contains("| r0 | 10.00 | 2.000 | 50.00 | 75.0% | 20 |"));
    }

    proptest! {
        #[test]
        fn percentile_is_within_min_max(v in proptest::collection::vec(-100.0f64..100.0, 1..50)) {
            let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
                let x = percentile(&v, p);
                prop_assert!(x >= lo && x <= hi);
            }
        }

        #[test]
        fn mean_is_within_min_max(v in proptest::collection::vec(-100.0f64..100.0, 1..50)) {
            let m = mean(&v);
            let lo = v.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = v.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
        }
    }
}
