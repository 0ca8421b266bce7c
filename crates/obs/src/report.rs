//! The JSON run-report sink: a [`RunReport`] snapshots a registry and
//! serializes it in the same hand-rolled, dependency-free artifact style
//! as `BENCH_ptq.json`.
//!
//! Schema (stable; the snapshot test in `tests/report_schema.rs` pins it):
//!
//! ```json
//! {
//!   "version": 1,
//!   "bin": "perf_ptq",
//!   "spans": [
//!     {"name": "...", "count": 2, "total_ns": 4000,
//!      "min_ns": 1500, "max_ns": 2500, "mean_ns": 2000.0}
//!   ],
//!   "counters": [{"name": "...", "value": 4096}],
//!   "histograms": [
//!     {"name": "...", "count": 1, "sum": 1024.0, "min": 1024.0,
//!      "max": 1024.0, "buckets": [{"le": 2048.0, "count": 1}]}
//!   ]
//! }
//! ```

use crate::registry::{Registry, Snapshot, HIST_BIAS, N_HIST_BUCKETS};
use std::fmt::Write as _;
use std::path::Path;

/// Schema version stamped into every report.
pub const REPORT_VERSION: u32 = 1;

/// A serializable snapshot of a registry, labelled with the binary (or
/// phase) that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Name of the producing binary / run.
    pub bin: String,
    /// The captured metrics.
    pub snapshot: Snapshot,
}

impl RunReport {
    /// Snapshots an explicit registry.
    pub fn of(bin: &str, registry: &Registry) -> Self {
        Self {
            bin: bin.to_owned(),
            snapshot: registry.snapshot(),
        }
    }

    /// Snapshots the process-global registry (see [`crate::global`]).
    pub fn capture(bin: &str) -> Self {
        Self::of(bin, crate::global())
    }

    /// Renders the report as a JSON string (schema above).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"version\": {REPORT_VERSION},");
        let _ = writeln!(out, "  \"bin\": {},", json_string(&self.bin));

        out.push_str("  \"spans\": [");
        for (i, s) in self.snapshot.spans.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let mean = s.stats.total_ns as f64 / s.stats.count.max(1) as f64;
            let _ = write!(
                out,
                "    {{\"name\": {}, \"count\": {}, \"total_ns\": {}, \
                 \"min_ns\": {}, \"max_ns\": {}, \"mean_ns\": {}}}",
                json_string(&s.name),
                s.stats.count,
                s.stats.total_ns,
                s.stats.min_ns,
                s.stats.max_ns,
                json_f64(mean)
            );
        }
        out.push_str("\n  ],\n");

        out.push_str("  \"counters\": [");
        for (i, c) in self.snapshot.counters.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{\"name\": {}, \"value\": {}}}",
                json_string(&c.name),
                c.value
            );
        }
        out.push_str("\n  ],\n");

        out.push_str("  \"histograms\": [");
        for (i, h) in self.snapshot.histograms.iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "    {{\"name\": {}, \"count\": {}, \"sum\": {}, \
                 \"min\": {}, \"max\": {}, \"buckets\": [",
                json_string(&h.name),
                h.stats.count,
                json_f64(h.stats.sum),
                json_f64(h.stats.min),
                json_f64(h.stats.max)
            );
            let mut first = true;
            for (b, &count) in h.stats.buckets.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                if !first {
                    out.push_str(", ");
                }
                first = false;
                let _ = write!(
                    out,
                    "{{\"le\": {}, \"count\": {count}}}",
                    json_f64(bucket_upper_bound(b))
                );
            }
            out.push_str("]}");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Writes the JSON report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_json(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// Captures the global registry and writes `OBS_<bin>.json` **iff** the
/// `MERSIT_OBS` toggle is on. Returns the path written, if any. This is
/// the one-liner the bench binaries end with.
///
/// # Errors
///
/// Propagates the underlying filesystem error from writing the file.
pub fn write_global_report(bin: &str) -> std::io::Result<Option<String>> {
    if !crate::enabled() {
        return Ok(None);
    }
    let path = format!("OBS_{bin}.json");
    RunReport::capture(bin).write_json(&path)?;
    Ok(Some(path))
}

/// Upper bound (exclusive) of histogram bucket `i`.
fn bucket_upper_bound(i: usize) -> f64 {
    debug_assert!(i < N_HIST_BUCKETS);
    let i = i32::try_from(i).expect("bucket index is small");
    2f64.powi(i + 1 - HIST_BIAS)
}

/// JSON-legal rendering of an f64 (non-finite values become `null`).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // Ensure a numeric token that JSON parsers keep as a float.
        if s.contains('.') || s.contains('e') || s.contains('E') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_owned()
    }
}

/// `s` as a JSON string literal: quoted, with `"`, `\` and control
/// characters escaped. The run report and the bench, pareto and
/// co-verification writers pass every string value through this.
#[must_use]
pub fn json_string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Escapes text for embedding in a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // exact powers of two, exact comparisons
mod tests {
    use super::*;

    #[test]
    fn json_f64_always_emits_a_float_token() {
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(1.5), "1.5");
        // Rust's f64 Display never uses exponent notation; the integer
        // rendering still gets a ".0" so parsers keep it a float.
        assert!(json_f64(1e30).ends_with(".0"));
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(escape("x\ny"), "x\\ny");
        assert_eq!(escape("\u{1b}[0m"), "\\u001b[0m");
        assert_eq!(escape("\0\u{1f}\u{7f}"), "\\u0000\\u001f\u{7f}");
        assert_eq!(json_string("t\tr\r"), "\"t\\tr\\r\"");
    }

    #[test]
    fn empty_report_is_valid_shape() {
        let reg = Registry::new();
        let json = RunReport::of("empty", &reg).to_json();
        assert!(json.contains("\"spans\": [\n  ]"));
        assert!(json.contains("\"counters\": [\n  ]"));
        assert!(json.contains("\"bin\": \"empty\""));
    }

    #[test]
    fn bucket_bounds_are_powers_of_two() {
        assert_eq!(bucket_upper_bound(16), 2.0);
        assert_eq!(bucket_upper_bound(15), 1.0);
        assert_eq!(bucket_upper_bound(0), 2f64.powi(-15));
    }
}
