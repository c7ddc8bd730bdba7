//! Snapshot exporters: NDJSON (machines) and a summary table (humans).
//!
//! NDJSON lines are flat objects of strings and numbers, appended field
//! by field with the [`crate::json`] string escaper. Non-finite floats
//! serialize as `null` per JSON rules.

use crate::histogram::LogBinHistogram;
use crate::json;
use crate::registry::{Key, Snapshot};
use crate::ticker::Ticker;
use std::io::{self, Write};

fn push_str_field(line: &mut String, key: &str, value: &str) {
    line.push('"');
    line.push_str(key);
    line.push_str("\":");
    json::push_str(line, value);
}

fn push_f64_field(line: &mut String, key: &str, value: f64) {
    line.push('"');
    line.push_str(key);
    line.push_str("\":");
    if value.is_finite() {
        // `{:?}` prints shortest-roundtrip f64, always with a decimal
        // point or exponent — valid JSON numbers.
        line.push_str(&format!("{value:?}"));
    } else {
        line.push_str("null");
    }
}

fn push_u64_field(line: &mut String, key: &str, value: u64) {
    line.push('"');
    line.push_str(key);
    line.push_str("\":");
    line.push_str(&value.to_string());
}

fn push_label_field(line: &mut String, key: &Key) {
    match &key.label {
        None => line.push_str("\"label\":null"),
        Some(l) => push_str_field(line, "label", l),
    }
}

fn histogram_fields(line: &mut String, h: &LogBinHistogram) {
    push_u64_field(line, "count", h.count());
    line.push(',');
    push_f64_field(line, "sum", h.sum());
    line.push(',');
    push_f64_field(line, "min", h.min());
    line.push(',');
    push_f64_field(line, "max", h.max());
    line.push(',');
    push_f64_field(line, "mean", h.mean());
    line.push(',');
    push_f64_field(line, "p50", h.quantile(0.5));
    line.push(',');
    push_f64_field(line, "p90", h.quantile(0.9));
    line.push(',');
    push_f64_field(line, "p99", h.quantile(0.99));
    line.push(',');
    push_u64_field(line, "zeros", h.zero_count());
    line.push_str(",\"bins\":[");
    let mut first = true;
    for (idx, n) in h.bins() {
        if !first {
            line.push(',');
        }
        first = false;
        line.push_str("{\"lo\":");
        line.push_str(&format!("{:?}", LogBinHistogram::bin_lo(idx)));
        line.push_str(",\"hi\":");
        line.push_str(&format!("{:?}", LogBinHistogram::bin_hi(idx)));
        line.push_str(",\"count\":");
        line.push_str(&n.to_string());
        line.push('}');
    }
    line.push(']');
}

/// Writes the snapshot as NDJSON: one JSON object per line.
///
/// Schema (one `type` per line kind):
///
/// ```text
/// {"type":"meta","schema":1}
/// {"type":"span","path":"fit/service","count":31,"total_s":1.2,
///  "mean_s":0.04,"p50_s":...,"p90_s":...,"p99_s":...,"max_s":...}
/// {"type":"counter","name":"fit.powerlaw.fallback","label":null,"value":3}
/// {"type":"gauge","name":"...","label":...,"value":1.5}
/// {"type":"histogram","name":"fit.volume.emd","label":null,"count":31,
///  "sum":...,"min":...,"max":...,"mean":...,"p50":...,"p90":...,
///  "p99":...,"zeros":0,"bins":[{"lo":...,"hi":...,"count":...},...]}
/// ```
pub fn write_ndjson<W: Write>(snapshot: &Snapshot, mut out: W) -> io::Result<()> {
    writeln!(out, "{{\"type\":\"meta\",\"schema\":1}}")?;
    for (path, s) in &snapshot.spans {
        let mut line = String::from("{\"type\":\"span\",");
        push_str_field(&mut line, "path", path);
        line.push(',');
        push_u64_field(&mut line, "count", s.count);
        line.push(',');
        push_f64_field(&mut line, "total_s", s.total_s);
        line.push(',');
        push_f64_field(
            &mut line,
            "mean_s",
            if s.count == 0 {
                f64::NAN
            } else {
                s.total_s / s.count as f64
            },
        );
        line.push(',');
        push_f64_field(&mut line, "p50_s", s.durations.quantile(0.5));
        line.push(',');
        push_f64_field(&mut line, "p90_s", s.durations.quantile(0.9));
        line.push(',');
        push_f64_field(&mut line, "p99_s", s.durations.quantile(0.99));
        line.push(',');
        push_f64_field(&mut line, "max_s", s.durations.max());
        line.push('}');
        writeln!(out, "{line}")?;
    }
    for (key, value) in &snapshot.counters {
        let mut line = String::from("{\"type\":\"counter\",");
        push_str_field(&mut line, "name", key.name);
        line.push(',');
        push_label_field(&mut line, key);
        line.push(',');
        push_u64_field(&mut line, "value", *value);
        line.push('}');
        writeln!(out, "{line}")?;
    }
    for (key, value) in &snapshot.gauges {
        let mut line = String::from("{\"type\":\"gauge\",");
        push_str_field(&mut line, "name", key.name);
        line.push(',');
        push_label_field(&mut line, key);
        line.push(',');
        push_f64_field(&mut line, "value", *value);
        line.push('}');
        writeln!(out, "{line}")?;
    }
    for (key, h) in &snapshot.histograms {
        let mut line = String::from("{\"type\":\"histogram\",");
        push_str_field(&mut line, "name", key.name);
        line.push(',');
        push_label_field(&mut line, key);
        line.push(',');
        histogram_fields(&mut line, h);
        line.push('}');
        writeln!(out, "{line}")?;
    }
    Ok(())
}

/// Writes the snapshot as NDJSON to a file path.
pub fn dump_to_path(snapshot: &Snapshot, path: &str) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut writer = io::BufWriter::new(file);
    write_ndjson(snapshot, &mut writer)?;
    writer.flush()
}

/// Periodically rewrites a file with the current snapshot as NDJSON, so
/// a long run that is killed still leaves a telemetry trail on disk.
///
/// Each tick sets the `metrics.tick` / `metrics.elapsed_s` gauges (so a
/// reader can tell a live trail from a final dump), flushes, snapshots,
/// and atomically-enough rewrites `path` (`File::create` + full write).
/// Started by the CLI's `--metrics-interval <secs>` flag.
pub struct MetricsStream(Ticker);

impl MetricsStream {
    /// Spawns the streamer; `interval_s` is clamped to at least 0.1s.
    /// The first failed write stops it.
    #[must_use]
    pub fn start(path: &str, interval_s: f64) -> MetricsStream {
        let path = path.to_string();
        let mut tick: u64 = 0;
        MetricsStream(Ticker::start(
            "mtd-metrics-stream",
            interval_s,
            move |now| {
                tick += 1;
                crate::gauge_set("metrics.tick", tick as f64);
                crate::gauge_set("metrics.elapsed_s", now);
                let snap = crate::snapshot();
                match dump_to_path(&snap, &path) {
                    Ok(()) => true,
                    Err(e) => {
                        eprintln!("[telemetry] metrics stream write failed: {e}");
                        false
                    }
                }
            },
        ))
    }

    /// Stops the streamer thread and waits for it to exit. The final
    /// snapshot dump (if any) is the caller's responsibility — the CLI
    /// always writes one on clean exit.
    pub fn finish(self) {
        drop(self.0);
    }
}

fn format_seconds(s: f64) -> String {
    if !s.is_finite() {
        "-".to_string()
    } else if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.2}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

/// Renders a human-readable summary table of the snapshot.
#[must_use]
pub fn summary(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    if !snapshot.spans.is_empty() {
        out.push_str(&format!(
            "{:48} {:>8} {:>10} {:>10} {:>10}\n",
            "span", "count", "total", "mean", "p90"
        ));
        for (path, s) in &snapshot.spans {
            let mean = if s.count == 0 {
                f64::NAN
            } else {
                s.total_s / s.count as f64
            };
            out.push_str(&format!(
                "{:48} {:>8} {:>10} {:>10} {:>10}\n",
                path,
                s.count,
                format_seconds(s.total_s),
                format_seconds(mean),
                format_seconds(s.durations.quantile(0.9)),
            ));
        }
    }
    if !snapshot.counters.is_empty() {
        out.push_str(&format!("\n{:48} {:>12}\n", "counter", "value"));
        for (key, value) in &snapshot.counters {
            out.push_str(&format!("{:48} {:>12}\n", key.render(), value));
        }
    }
    if !snapshot.gauges.is_empty() {
        out.push_str(&format!("\n{:48} {:>12}\n", "gauge", "value"));
        for (key, value) in &snapshot.gauges {
            out.push_str(&format!("{:48} {:>12.4}\n", key.render(), value));
        }
    }
    if !snapshot.histograms.is_empty() {
        out.push_str(&format!(
            "\n{:48} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
            "histogram", "count", "mean", "p50", "p90", "max"
        ));
        for (key, h) in &snapshot.histograms {
            out.push_str(&format!(
                "{:48} {:>8} {:>10.4} {:>10.4} {:>10.4} {:>10.4}\n",
                key.render(),
                h.count(),
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.9),
                h.max(),
            ));
        }
    }
    if out.is_empty() {
        out.push_str("telemetry: nothing recorded\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::SpanValue;

    fn sample_snapshot() -> Snapshot {
        let mut snap = Snapshot::default();
        snap.counters.insert(
            Key {
                name: "a.counter",
                label: None,
            },
            7,
        );
        snap.counters.insert(
            Key {
                name: "a.counter",
                label: Some("w0".into()),
            },
            3,
        );
        snap.gauges.insert(
            Key {
                name: "a.gauge",
                label: None,
            },
            0.5,
        );
        let mut h = LogBinHistogram::new();
        h.record(1.5);
        h.record(15.0);
        snap.histograms.insert(
            Key {
                name: "a.hist",
                label: None,
            },
            h.clone(),
        );
        let mut durations = LogBinHistogram::new();
        durations.record(0.01);
        snap.spans.insert(
            "stage/sub".into(),
            SpanValue {
                count: 1,
                total_s: 0.01,
                durations,
            },
        );
        snap
    }

    #[test]
    fn ndjson_lines_have_expected_shapes() {
        let mut buf = Vec::new();
        write_ndjson(&sample_snapshot(), &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "{\"type\":\"meta\",\"schema\":1}");
        // meta + 1 span + 2 counters + 1 gauge + 1 histogram.
        assert_eq!(lines.len(), 6);
        assert!(lines
            .iter()
            .any(|l| l.contains("\"type\":\"span\"") && l.contains("\"path\":\"stage/sub\"")));
        assert!(lines.iter().any(|l| l.contains("\"type\":\"counter\"")
            && l.contains("\"label\":\"w0\"")
            && l.contains("\"value\":3")));
        assert!(lines
            .iter()
            .any(|l| l.contains("\"type\":\"histogram\"") && l.contains("\"bins\":[")));
        // Every line is brace-balanced (cheap well-formedness check
        // without a JSON parser).
        for line in &lines {
            assert_eq!(
                line.matches('{').count(),
                line.matches('}').count(),
                "unbalanced: {line}"
            );
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn escaping_handles_quotes_and_control_chars() {
        let mut s = String::new();
        push_str_field(&mut s, "k", "a\"b\\c\nd\te\u{1}");
        assert_eq!(s, "\"k\":\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let mut line = String::new();
        push_f64_field(&mut line, "x", f64::NAN);
        assert_eq!(line, "\"x\":null");
    }

    #[test]
    fn summary_mentions_every_section() {
        let text = summary(&sample_snapshot());
        assert!(text.contains("span"));
        assert!(text.contains("stage/sub"));
        assert!(text.contains("a.counter{w0}"));
        assert!(text.contains("a.gauge"));
        assert!(text.contains("a.hist"));
    }

    #[test]
    fn empty_snapshot_summary_says_so() {
        assert!(summary(&Snapshot::default()).contains("nothing recorded"));
    }
}
