//! `mtd-traffic query` — dsq-style streaming statistics over an exported
//! binary dataset.
//!
//! A single pass over [`DatasetStream`] computes sum / mean / min / max /
//! percentiles / histograms of a selected metric, optionally grouped by a
//! key, without materializing the dataset. Streaming aggregations
//! (count/sum/mean/min/max) hold one accumulator per group; percentiles
//! and histograms additionally buffer the selected values in memory.
//!
//! Because it drives the same chunk decoder as the streamed fit, the
//! command doubles as a profiling surface: run it under
//! `mtd-traffic profile -- query ...` to sample the decode + aggregate
//! hot path in isolation.

use mtd_dataset::store::{MetaSection, StreamedChunk};
use mtd_dataset::DatasetStream;
use mtd_telemetry::progress;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

/// What one value in the stream is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Metric {
    /// Per-cell session count — one value per stored (service, group, day).
    Sessions,
    /// Per-cell traffic volume in MB.
    Volume,
    /// Per-minute session count — one value per (BS, minute).
    MinuteSessions,
    /// Per-minute traffic volume in MB.
    MinuteVolume,
}

impl Metric {
    fn parse(s: &str) -> Result<Metric, String> {
        match s {
            "sessions" => Ok(Metric::Sessions),
            "volume" => Ok(Metric::Volume),
            "minute-sessions" => Ok(Metric::MinuteSessions),
            "minute-volume" => Ok(Metric::MinuteVolume),
            other => Err(format!(
                "unknown metric: {other} (expected sessions, volume, \
                 minute-sessions or minute-volume)"
            )),
        }
    }

    fn is_cell_level(self) -> bool {
        matches!(self, Metric::Sessions | Metric::Volume)
    }
}

/// How values are bucketed into output rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GroupBy {
    None,
    Service,
    Group,
    Day,
    Region,
    Rat,
    Decile,
    Bs,
}

impl GroupBy {
    fn parse(s: &str, metric: Metric) -> Result<GroupBy, String> {
        let key = match s {
            "none" => GroupBy::None,
            "service" => GroupBy::Service,
            "group" => GroupBy::Group,
            "day" => GroupBy::Day,
            "region" => GroupBy::Region,
            "rat" => GroupBy::Rat,
            "decile" => GroupBy::Decile,
            "bs" => GroupBy::Bs,
            other => {
                return Err(format!(
                    "unknown group-by key: {other} (expected none, service, group, \
                     day, region, rat, decile or bs)"
                ))
            }
        };
        let ok = match key {
            GroupBy::None | GroupBy::Day => true,
            GroupBy::Bs => !metric.is_cell_level(),
            _ => metric.is_cell_level(),
        };
        if ok {
            Ok(key)
        } else {
            Err(format!(
                "--group-by {s} does not apply to the {} metric \
                 (cell metrics group by service/group/day/region/rat/decile, \
                 minute metrics by bs/day)",
                match metric {
                    Metric::Sessions => "sessions",
                    Metric::Volume => "volume",
                    Metric::MinuteSessions => "minute-sessions",
                    Metric::MinuteVolume => "minute-volume",
                }
            ))
        }
    }
}

/// One requested output column.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Agg {
    Count,
    Sum,
    Mean,
    Min,
    Max,
    /// Percentile in (0, 100], e.g. `p50`, `p99.9`.
    Pct(f64),
}

impl Agg {
    fn parse(s: &str) -> Result<Agg, String> {
        match s {
            "count" => Ok(Agg::Count),
            "sum" => Ok(Agg::Sum),
            "mean" | "avg" => Ok(Agg::Mean),
            "min" => Ok(Agg::Min),
            "max" => Ok(Agg::Max),
            _ => {
                let p: f64 = s
                    .strip_prefix('p')
                    .and_then(|p| p.parse().ok())
                    .ok_or_else(|| {
                        format!(
                            "unknown aggregation: {s} (expected count, sum, mean, \
                             min, max or pN with 0 < N <= 100)"
                        )
                    })?;
                if p > 0.0 && p <= 100.0 {
                    Ok(Agg::Pct(p))
                } else {
                    Err(format!("percentile out of range (0, 100]: {s}"))
                }
            }
        }
    }

    fn header(self) -> String {
        match self {
            Agg::Count => "count".into(),
            Agg::Sum => "sum".into(),
            Agg::Mean => "mean".into(),
            Agg::Min => "min".into(),
            Agg::Max => "max".into(),
            Agg::Pct(p) => format!("p{p}"),
        }
    }
}

/// Streaming accumulator for one group.
#[derive(Debug, Default)]
struct Acc {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Buffered values — filled only when a percentile or histogram was
    /// requested (the one non-streaming cost, called out in USAGE).
    values: Vec<f64>,
}

impl Acc {
    fn push(&mut self, v: f64, keep: bool) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        if keep {
            self.values.push(v);
        }
    }

    fn eval(&mut self, agg: Agg) -> f64 {
        match agg {
            Agg::Count => self.count as f64,
            Agg::Sum => self.sum,
            Agg::Mean => {
                if self.count == 0 {
                    f64::NAN
                } else {
                    self.sum / self.count as f64
                }
            }
            Agg::Min => self.min,
            Agg::Max => self.max,
            Agg::Pct(p) => {
                self.sort_values();
                percentile(&self.values, p)
            }
        }
    }

    fn sort_values(&mut self) {
        if !self.values.is_sorted() {
            self.values.sort_unstable_by(f64::total_cmp);
        }
    }
}

/// Linear-interpolation percentile (the numpy/dsq convention) over a
/// sorted slice, `p` in (0, 100]. Delegates to the workspace-wide
/// [`mtd_math::stats::percentile_sorted`] (which takes a fraction), so
/// query output matches every other percentile in the repo; empty
/// groups render as NaN rather than erroring the whole table, p→0⁺
/// converges on the group minimum, and single-element groups return
/// that element for every p.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let frac = (p / 100.0).clamp(0.0, 1.0);
    mtd_math::stats::percentile_sorted(sorted, frac).unwrap_or(f64::NAN)
}

/// Labels sort lexicographically, so numeric keys are zero-padded to keep
/// the output table in natural order.
fn group_label(key: GroupBy, meta: &MetaSection, service: u16, group: u16, day: u32) -> String {
    match key {
        GroupBy::None => "all".into(),
        GroupBy::Service => meta
            .service_names
            .get(service as usize)
            .cloned()
            .unwrap_or_else(|| format!("service {service:03}")),
        GroupBy::Day => format!("day {day:04}"),
        GroupBy::Group | GroupBy::Region | GroupBy::Rat | GroupBy::Decile => {
            let Some(g) = meta.groups.get(group as usize) else {
                return format!("group {group:03}");
            };
            match key {
                GroupBy::Region => g.region.label().into(),
                GroupBy::Rat => g.rat.label().into(),
                GroupBy::Decile => format!("decile {}", g.decile),
                _ => match g.city {
                    Some(c) => format!(
                        "decile{}/{}/city{c:02}/{}",
                        g.decile,
                        g.region.label(),
                        g.rat.label()
                    ),
                    None => format!("decile{}/{}/{}", g.decile, g.region.label(), g.rat.label()),
                },
            }
        }
        GroupBy::Bs => unreachable!("bs labels come from minute rows"),
    }
}

/// Default cap on buffered values across all groups: 16 Mi f64 values
/// (128 MiB). Percentile/histogram aggregates are the one non-streaming
/// path in `query`; without a bound, a paper-scale store exhausts
/// memory before the first row prints.
const DEFAULT_MAX_BUFFERED: u64 = 16_777_216;

/// The parsed query: what to select, how to bucket it, what to print.
struct Query {
    metric: Metric,
    group_by: GroupBy,
    aggs: Vec<Agg>,
    histogram: Option<usize>,
    /// Cap on total buffered values across all groups; 0 = unlimited.
    max_buffered: u64,
}

impl Query {
    fn keep_values(&self) -> bool {
        self.histogram.is_some() || self.aggs.iter().any(|a| matches!(a, Agg::Pct(_)))
    }
}

/// Pushes one selected value, enforcing the buffering cap when the query
/// needs values kept (percentiles/histograms).
fn push_value(
    groups: &mut BTreeMap<String, Acc>,
    label: String,
    v: f64,
    keep: bool,
    buffered: &mut u64,
    max_buffered: u64,
) -> Result<(), String> {
    if keep {
        *buffered += 1;
        if max_buffered > 0 && *buffered > max_buffered {
            return Err(format!(
                "percentile/histogram aggregates would buffer more than {max_buffered} values; \
                 raise the cap with --max-buffered N, pass --max-buffered 0 to lift it, \
                 or use only streaming aggregates (count/sum/mean/min/max)"
            ));
        }
    }
    groups.entry(label).or_default().push(v, keep);
    Ok(())
}

/// Runs the streaming pass: one accumulator per group label.
fn aggregate(
    path: &Path,
    query: &Query,
) -> Result<(BTreeMap<String, Acc>, mtd_dataset::StoreReport), String> {
    let _span = mtd_telemetry::span!("cli.query.scan");
    let mut stream =
        DatasetStream::open(path).map_err(|e| format!("cannot open {}: {e}", path.display()))?;
    let meta = stream.meta().clone();
    let minutes_per_day = 1440u32;
    let keep = query.keep_values();
    let mut groups: BTreeMap<String, Acc> = BTreeMap::new();
    let mut buffered = 0u64;
    while let Some(chunk) = stream.next_chunk() {
        let chunk = chunk.map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        match chunk {
            StreamedChunk::Cells(cells) if query.metric.is_cell_level() => {
                for ((service, group, day), stats) in &cells {
                    let v = match query.metric {
                        Metric::Sessions => stats.sessions,
                        Metric::Volume => stats.traffic_mb,
                        _ => unreachable!("cell-level metrics only"),
                    };
                    let label = group_label(query.group_by, &meta, *service, *group, *day);
                    push_value(
                        &mut groups,
                        label,
                        v,
                        keep,
                        &mut buffered,
                        query.max_buffered,
                    )?;
                }
            }
            StreamedChunk::Minutes(block) if !query.metric.is_cell_level() => {
                for (row, counts) in block.counts.iter().enumerate() {
                    let bs = block.first_bs + row as u32;
                    let volumes = &block.volumes[row];
                    for m in 0..counts.len() {
                        let v = match query.metric {
                            Metric::MinuteSessions => f64::from(counts[m]),
                            Metric::MinuteVolume => f64::from(volumes[m]),
                            _ => unreachable!("minute-level metrics only"),
                        };
                        let label = match query.group_by {
                            GroupBy::None => "all".to_string(),
                            GroupBy::Bs => format!("bs {bs:06}"),
                            GroupBy::Day => format!("day {:04}", m as u32 / minutes_per_day),
                            _ => unreachable!("rejected at parse time"),
                        };
                        push_value(
                            &mut groups,
                            label,
                            v,
                            keep,
                            &mut buffered,
                            query.max_buffered,
                        )?;
                    }
                }
            }
            _ => {} // sections the selected metric does not read
        }
    }
    Ok((groups, stream.report().clone()))
}

/// Renders the aggregate table.
fn print_table(
    out: &mut dyn Write,
    groups: &mut BTreeMap<String, Acc>,
    aggs: &[Agg],
) -> std::io::Result<()> {
    let label_width = groups
        .keys()
        .map(String::len)
        .chain(std::iter::once("group".len()))
        .max()
        .unwrap_or(5);
    write!(out, "{:label_width$}", "group")?;
    for agg in aggs {
        write!(out, " {:>14}", agg.header())?;
    }
    writeln!(out)?;
    for (label, acc) in groups.iter_mut() {
        write!(out, "{label:label_width$}")?;
        for &agg in aggs {
            let v = acc.eval(agg);
            if agg == Agg::Count {
                write!(out, " {:>14}", v as u64)?;
            } else {
                write!(out, " {v:>14.6}")?;
            }
        }
        writeln!(out)?;
    }
    Ok(())
}

/// Renders one `[lo, hi)  ### count` histogram block per group: `bins`
/// equal-width bins spanning the group's [min, max].
fn print_histograms(
    out: &mut dyn Write,
    groups: &mut BTreeMap<String, Acc>,
    bins: usize,
) -> std::io::Result<()> {
    const BAR: usize = 40;
    for (label, acc) in groups.iter_mut() {
        writeln!(
            out,
            "\n{label}: {} values in [{}, {}]",
            acc.count, acc.min, acc.max
        )?;
        if acc.count == 0 {
            continue;
        }
        let width = ((acc.max - acc.min) / bins as f64).max(f64::MIN_POSITIVE);
        let mut counts = vec![0u64; bins];
        for &v in &acc.values {
            let b = (((v - acc.min) / width) as usize).min(bins - 1);
            counts[b] += 1;
        }
        let peak = counts.iter().copied().max().unwrap_or(1).max(1);
        for (b, &c) in counts.iter().enumerate() {
            let lo = acc.min + b as f64 * width;
            let hi = lo + width;
            let bar_len = ((c as f64 / peak as f64) * BAR as f64).round() as usize;
            writeln!(
                out,
                "  [{lo:>12.4}, {hi:>12.4})  {:<BAR$} {c}",
                "#".repeat(bar_len)
            )?;
        }
    }
    Ok(())
}

/// The `query` subcommand: parse, stream, print.
pub fn query_cmd(argv: &[String]) -> Result<(), String> {
    let flags = crate::commands::parse_flags(
        argv,
        &[
            "in",
            "select",
            "agg",
            "group-by",
            "histogram",
            "max-buffered",
            "out",
        ],
    )?;
    let tdest = crate::commands::telemetry_init(&flags, "query")?;
    crate::commands::threads_init(&flags)?;
    let _root = mtd_telemetry::prof::scope("cli.query");
    let input = flags.opt("in").ok_or("query needs --in FILE")?;
    let metric = Metric::parse(flags.opt("select").unwrap_or("volume"))?;
    let group_by = GroupBy::parse(flags.opt("group-by").unwrap_or("none"), metric)?;
    let aggs = flags
        .opt("agg")
        .unwrap_or("count,sum,mean,min,max")
        .split(',')
        .map(|s| Agg::parse(s.trim()))
        .collect::<Result<Vec<Agg>, String>>()?;
    if aggs.is_empty() {
        return Err("--agg needs at least one aggregation".into());
    }
    let histogram = match flags.opt("histogram") {
        None => None,
        Some(_) => {
            let bins: usize = flags.num_or("histogram", 0usize)?;
            if bins == 0 || bins > 10_000 {
                return Err("--histogram needs 1..=10000 bins".into());
            }
            Some(bins)
        }
    };
    let max_buffered: u64 = flags.num_or("max-buffered", DEFAULT_MAX_BUFFERED)?;
    let query = Query {
        metric,
        group_by,
        aggs,
        histogram,
        max_buffered,
    };

    let (mut groups, report) = aggregate(Path::new(input), &query)?;
    if !report.is_clean() {
        progress!(
            "cli",
            "WARNING: damaged dataset ({}); the statistics cover the surviving data only",
            report.summary()
        );
    }
    let mut out = crate::commands::sink(flags.opt("out"))?;
    print_table(&mut out, &mut groups, &query.aggs).map_err(|e| e.to_string())?;
    if let Some(bins) = query.histogram {
        print_histograms(&mut out, &mut groups, bins).map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())?;
    mtd_telemetry::count("cli.query.groups", groups.len() as u64);
    progress!(
        "cli",
        "aggregated {} value(s) into {} group(s)",
        groups.values().map(|a| a.count).sum::<u64>(),
        groups.len()
    );
    crate::commands::telemetry_finish(tdest)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_linearly() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert_eq!(percentile(&v, 25.0), 1.75);
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn percentile_edge_cases_near_zero_and_singletons() {
        let v = [1.0, 2.0, 3.0, 4.0];
        // p→0⁺ converges on the minimum and never undershoots it.
        let tiny = percentile(&v, 1e-9);
        assert!(tiny >= 1.0 && (tiny - 1.0).abs() < 1e-9, "got {tiny}");
        // Single-element groups return the element for every p.
        for p in [1e-9, 0.1, 50.0, 99.999, 100.0] {
            assert_eq!(percentile(&[7.0], p), 7.0);
        }
        // Out-of-range p (unreachable via Agg::parse, defensive) clamps
        // instead of panicking or indexing out of bounds.
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 150.0), 4.0);
    }

    #[test]
    fn acc_tracks_streaming_stats() {
        let mut acc = Acc::default();
        for v in [3.0, -1.0, 5.0, 2.0] {
            acc.push(v, true);
        }
        assert_eq!(acc.eval(Agg::Count), 4.0);
        assert_eq!(acc.eval(Agg::Sum), 9.0);
        assert_eq!(acc.eval(Agg::Mean), 2.25);
        assert_eq!(acc.eval(Agg::Min), -1.0);
        assert_eq!(acc.eval(Agg::Max), 5.0);
        assert_eq!(acc.eval(Agg::Pct(50.0)), 2.5);
    }

    #[test]
    fn agg_parser_accepts_percentiles_and_rejects_junk() {
        assert_eq!(Agg::parse("p95").unwrap(), Agg::Pct(95.0));
        assert_eq!(Agg::parse("p99.9").unwrap(), Agg::Pct(99.9));
        assert_eq!(Agg::parse("avg").unwrap(), Agg::Mean);
        assert!(Agg::parse("p0").is_err());
        assert!(Agg::parse("p101").is_err());
        assert!(Agg::parse("median").is_err());
    }

    #[test]
    fn max_buffered_caps_percentile_memory() {
        fn argv(s: &[&str]) -> Vec<String> {
            s.iter().map(ToString::to_string).collect()
        }
        let dir = std::env::temp_dir().join("mtd_cli_test_query_cap");
        std::fs::create_dir_all(&dir).unwrap();
        let ds = dir.join("ds.bin");
        let ds_s = ds.to_str().unwrap().to_string();
        let out_s = dir.join("table.txt").to_str().unwrap().to_string();
        crate::commands::tests::run(&argv(&[
            "dataset", "export", "--n-bs", "4", "--days", "1", "--scale", "0.02", "--out", &ds_s,
            "--quiet",
        ]))
        .unwrap();

        // A percentile with a 1-value cap fails with the structured error.
        let err = crate::commands::tests::run(&argv(&[
            "query",
            "--in",
            &ds_s,
            "--agg",
            "p50",
            "--max-buffered",
            "1",
            "--out",
            &out_s,
            "--quiet",
        ]))
        .unwrap_err();
        assert!(
            err.contains("--max-buffered"),
            "error names the flag: {err}"
        );
        assert!(
            err.contains("streaming aggregates"),
            "error offers the alternative: {err}"
        );

        // Streaming aggregates never buffer, so the cap does not bite.
        crate::commands::tests::run(&argv(&[
            "query",
            "--in",
            &ds_s,
            "--agg",
            "count,sum,mean,min,max",
            "--max-buffered",
            "1",
            "--out",
            &out_s,
            "--quiet",
        ]))
        .unwrap();

        // --max-buffered 0 lifts the cap.
        crate::commands::tests::run(&argv(&[
            "query",
            "--in",
            &ds_s,
            "--agg",
            "p50,p99",
            "--max-buffered",
            "0",
            "--out",
            &out_s,
            "--quiet",
        ]))
        .unwrap();
        std::fs::remove_file(&ds).ok();
    }

    #[test]
    fn group_by_is_checked_against_the_metric() {
        assert!(GroupBy::parse("service", Metric::Volume).is_ok());
        assert!(GroupBy::parse("service", Metric::MinuteVolume).is_err());
        assert!(GroupBy::parse("bs", Metric::MinuteVolume).is_ok());
        assert!(GroupBy::parse("bs", Metric::Volume).is_err());
        assert!(GroupBy::parse("day", Metric::Volume).is_ok());
        assert!(GroupBy::parse("day", Metric::MinuteVolume).is_ok());
        assert!(GroupBy::parse("tuesday", Metric::Volume).is_err());
    }
}
