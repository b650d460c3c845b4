//! Exporters: Prometheus text exposition, JSON-lines event dumps, and
//! the human [`report`] table.
//!
//! Everything here renders to a `String` — this crate never touches
//! the filesystem. Persisting an exposition goes through a [`Storage`]
//! backend (the figure CSVs, for one, are written by
//! `eblcio_bench::TextTable::write_csv` on a `FilesystemStorage`), which
//! keeps the storage-boundary lints clean with the telemetry layer in
//! the tree.

use crate::hist::HistogramSnapshot;
use crate::metrics::{MetricSnapshot, MetricValue, MetricsRegistry};
use crate::recorder::FlightRecorder;
use std::fmt::Write as _;

/// Renders a registry snapshot in the Prometheus text exposition
/// format (version 0.0.4): counters as `counter`, gauges as `gauge`,
/// histograms as `histogram` with cumulative `_bucket{le="…"}` series
/// over the non-empty buckets plus `+Inf`, `_sum`, and `_count`.
pub fn prometheus(registry: &MetricsRegistry) -> String {
    let mut out = String::new();
    for MetricSnapshot { name, value } in registry.snapshot() {
        match value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "# TYPE {name} counter");
                let _ = writeln!(out, "{name} {v}");
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name} {v}");
            }
            MetricValue::Histogram(h) => {
                let _ = writeln!(out, "# TYPE {name} histogram");
                for (le, cum) in h.cumulative_buckets() {
                    let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cum}");
                }
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
                let _ = writeln!(out, "{name}_sum {}", h.sum);
                let _ = writeln!(out, "{name}_count {}", h.count);
            }
        }
    }
    out
}

/// Renders the flight recorder's retained events as JSON lines, oldest
/// first: one `{"span":…,"request":…,"start_ns":…,"dur_ns":…}` object
/// per line.
pub fn events_jsonl(recorder: &FlightRecorder) -> String {
    let mut out = String::new();
    for e in recorder.events() {
        let _ = writeln!(
            out,
            "{{\"span\":\"{}\",\"request\":{},\"start_ns\":{},\"dur_ns\":{}}}",
            escape_json(&e.span),
            e.request,
            e.start_ns,
            e.duration_ns,
        );
    }
    out
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Scales a nanosecond value to a human unit.
fn human_ns(ns: u64) -> String {
    let v = ns as f64;
    if v >= 1e9 {
        format!("{:.2}s", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}ms", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2}µs", v / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// The percentile row every human-facing surface prints: count, p50,
/// p90, p99, max, mean — formatted as latencies when the metric name
/// ends in `_ns`, raw integers otherwise.
fn hist_row(name: &str, h: &HistogramSnapshot) -> [String; 6] {
    let fmt = |v: u64| {
        if name.ends_with("_ns") {
            human_ns(v)
        } else {
            v.to_string()
        }
    };
    [
        h.count.to_string(),
        fmt(h.value_at_quantile(0.5)),
        fmt(h.value_at_quantile(0.9)),
        fmt(h.value_at_quantile(0.99)),
        fmt(h.max()),
        if name.ends_with("_ns") {
            human_ns(h.mean() as u64)
        } else {
            format!("{:.1}", h.mean())
        },
    ]
}

/// Renders a registry as an aligned human-readable table: one line per
/// counter/gauge, one percentile row per histogram.
pub fn report(registry: &MetricsRegistry) -> String {
    let snap = registry.snapshot();
    let mut rows: Vec<Vec<String>> = vec![vec![
        "metric".into(),
        "count".into(),
        "p50".into(),
        "p90".into(),
        "p99".into(),
        "max".into(),
        "mean".into(),
    ]];
    for MetricSnapshot { name, value } in snap {
        match value {
            MetricValue::Counter(v) => {
                rows.push(vec![name, v.to_string(), String::new(), String::new(), String::new(), String::new(), String::new()]);
            }
            MetricValue::Gauge(v) => {
                rows.push(vec![name, format!("{v:.6}"), String::new(), String::new(), String::new(), String::new(), String::new()]);
            }
            MetricValue::Histogram(h) => {
                let [count, p50, p90, p99, max, mean] = hist_row(&name, &h);
                rows.push(vec![name, count, p50, p90, p99, max, mean]);
            }
        }
    }
    let cols = rows[0].len();
    let mut widths = vec![0usize; cols];
    for row in &rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.chars().count());
        }
    }
    let mut out = String::new();
    for row in &rows {
        let mut line = String::new();
        for (i, (cell, w)) in row.iter().zip(&widths).enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            let pad = w.saturating_sub(cell.chars().count());
            if i == 0 {
                line.push_str(cell);
                line.extend(std::iter::repeat_n(' ', pad));
            } else {
                line.extend(std::iter::repeat_n(' ', pad));
                line.push_str(cell);
            }
        }
        let _ = writeln!(out, "{}", line.trim_end());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::FlightRecorder;
    use crate::span::intern;
    use std::time::Instant;

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let r = MetricsRegistry::new();
        r.counter("eblcio_test_requests_total").add(3);
        r.gauge("eblcio_test_cost_usd").set(0.125);
        let h = r.histogram("eblcio_test_latency_ns");
        h.record(500);
        h.record(1500);
        let text = prometheus(&r);
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut parts = rest.split(' ');
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("");
                assert!(
                    name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'),
                    "bad metric name {name:?}"
                );
                assert!(matches!(kind, "counter" | "gauge" | "histogram"), "{kind}");
                assert!(parts.next().is_none());
            }
        }
        assert!(text.contains("eblcio_test_requests_total 3"));
        assert!(text.contains("eblcio_test_cost_usd 0.125"));
        assert!(text.contains("eblcio_test_latency_ns_count 2"));
        assert!(text.contains("eblcio_test_latency_ns_sum 2000"));
        assert!(text.contains("_bucket{le=\"+Inf\"} 2"));
    }

    #[test]
    fn jsonl_escapes_and_lines_up() {
        let rec = FlightRecorder::with_capacity(4);
        rec.record(intern("a\"b"), 7, Instant::now(), 42);
        let text = events_jsonl(&rec);
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("\"span\":\"a\\\"b\""));
        assert!(text.contains("\"request\":7"));
        assert!(text.contains("\"dur_ns\":42"));
    }

    #[test]
    fn report_renders_all_kinds() {
        let r = MetricsRegistry::new();
        r.counter("eblcio_test_ops_total").add(9);
        r.histogram("eblcio_test_wait_ns").record(2_000_000);
        let table = report(&r);
        assert!(table.contains("eblcio_test_ops_total"));
        assert!(table.contains("9"));
        assert!(table.contains("ms"), "{table}");
    }
}
