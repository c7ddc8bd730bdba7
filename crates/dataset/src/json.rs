//! The [`Dataset`] ↔ JSON mapping behind the store's compatibility
//! fallback, on the workspace codec in [`mtd_telemetry::json`].
//!
//! The document has one object per struct with the field names as keys,
//! tuples as arrays, unit enum variants as strings and non-finite floats
//! as `null` — the shape serde's derive gave it, so older files still
//! load. Writing streams straight into one buffer; reading parses the
//! document once and maps it. Floats use shortest-round-trip text and
//! come back bit-exact, `f32` included — the binary format's guarantee,
//! just about ten times slower.

use crate::dataset::{CellKey, CellMap, Dataset, GroupKey, SignalingPlane};
use crate::record::CellStats;
use mtd_math::histogram::{LogGrid, LogHistogram};
use mtd_netsim::geo::Region;
use mtd_netsim::ids::Rat;
use mtd_telemetry::json::{push_array, push_num, push_str, Json};
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

fn push_f32(out: &mut String, v: f32) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn push_int(out: &mut String, v: impl std::fmt::Display) {
    let _ = write!(out, "{v}");
}

fn push_f64_slice(out: &mut String, xs: &[f64]) {
    push_array(out, xs, |out, v| push_num(out, *v));
}

fn push_grid(out: &mut String, g: &LogGrid) {
    let _ = write!(
        out,
        "{{\"lo\":{},\"hi\":{},\"bins\":{}}}",
        g.lo_log10(),
        g.hi_log10(),
        g.bins()
    );
}

fn push_hist(out: &mut String, h: &LogHistogram) {
    out.push_str("{\"grid\":");
    push_grid(out, h.grid());
    out.push_str(",\"counts\":");
    push_f64_slice(out, h.counts());
    out.push_str(",\"total\":");
    push_num(out, h.total());
    out.push('}');
}

fn push_group(out: &mut String, g: &GroupKey) {
    let region = match g.region {
        Region::DenseUrban => "DenseUrban",
        Region::SemiUrban => "SemiUrban",
        Region::Rural => "Rural",
    };
    let rat = match g.rat {
        Rat::Lte => "Lte",
        Rat::Nr => "Nr",
    };
    let _ = write!(out, "{{\"decile\":{},\"region\":\"{region}\",", g.decile);
    match g.city {
        Some(c) => {
            let _ = write!(out, "\"city\":{c},");
        }
        None => out.push_str("\"city\":null,"),
    }
    let _ = write!(out, "\"rat\":\"{rat}\"}}");
}

fn push_cell(out: &mut String, key: &CellKey, stats: &CellStats) {
    let _ = write!(out, "[[{},{},{}],{{", key.0, key.1, key.2);
    out.push_str("\"sessions\":");
    push_num(out, stats.sessions);
    out.push_str(",\"traffic_mb\":");
    push_num(out, stats.traffic_mb);
    out.push_str(",\"volume_hist\":");
    push_hist(out, &stats.volume_hist);
    out.push_str(",\"pair_sums\":");
    push_f64_slice(out, &stats.pair_sums);
    out.push_str(",\"pair_counts\":");
    push_f64_slice(out, &stats.pair_counts);
    out.push_str(",\"pair_log_sums\":");
    push_f64_slice(out, &stats.pair_log_sums);
    out.push_str(",\"pair_log_sum_sqs\":");
    push_f64_slice(out, &stats.pair_log_sum_sqs);
    out.push_str("}]");
}

fn push_u32_rows(out: &mut String, rows: &[Vec<u32>]) {
    push_array(out, rows, |out, row| push_array(out, row, push_int));
}

/// Serializes a dataset to its JSON document.
#[must_use]
pub(crate) fn dataset_to_json(ds: &Dataset) -> String {
    // Cells dominate; ~1.5 kB each is a comfortable overestimate.
    let mut out = String::with_capacity(1024 + ds.cells.len() * 1536);
    out.push_str("{\"volume_grid\":");
    push_grid(&mut out, &ds.volume_grid);
    out.push_str(",\"duration_grid\":");
    push_grid(&mut out, &ds.duration_grid);
    out.push_str(",\"service_names\":");
    push_array(&mut out, &ds.service_names, |out, name| push_str(out, name));
    out.push_str(",\"groups\":");
    push_array(&mut out, &ds.groups, push_group);
    out.push_str(",\"group_of_bs\":");
    push_array(&mut out, &ds.group_of_bs, push_int);
    out.push_str(",\"decile_of_bs\":");
    push_array(&mut out, &ds.decile_of_bs, push_int);
    out.push_str(",\"bs_total_volume_mb\":");
    push_f64_slice(&mut out, &ds.bs_total_volume_mb);
    out.push_str(",\"cells\":[");
    for (i, (key, stats)) in ds.cells.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_cell(&mut out, key, stats);
    }
    out.push_str("],\"minute_counts\":");
    push_u32_rows(&mut out, &ds.minute_counts);
    out.push_str(",\"minute_volume_mb\":");
    push_array(&mut out, &ds.minute_volume_mb, |out, row| {
        push_array(out, row, |out, v| push_f32(out, *v));
    });
    let _ = write!(out, ",\"n_days\":{}", ds.n_days);
    // The signaling plane is emitted only when present, so legacy
    // datasets keep their exact historical JSON bytes.
    if let Some(plane) = ds.signaling() {
        out.push_str(",\"signaling\":{\"attach\":");
        push_u32_rows(&mut out, &plane.attach);
        out.push_str(",\"handover\":");
        push_u32_rows(&mut out, &plane.handover);
        out.push_str(",\"paging\":");
        push_u32_rows(&mut out, &plane.paging);
        out.push('}');
    }
    out.push('}');
    out
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

type PResult<T> = Result<T, String>;

fn get<'v>(obj: &'v Json, name: &str) -> PResult<&'v Json> {
    obj.get(name)
        .ok_or_else(|| format!("missing field `{name}`"))
}

fn as_obj<'v>(v: &'v Json, what: &str) -> PResult<&'v Json> {
    match v {
        Json::Obj(_) => Ok(v),
        _ => Err(format!("{what}: expected object")),
    }
}

fn as_arr<'v>(v: &'v Json, what: &str) -> PResult<&'v [Json]> {
    v.as_arr().ok_or_else(|| format!("{what}: expected array"))
}

fn as_f64(v: &Json, what: &str) -> PResult<f64> {
    match v {
        Json::Num(n) => Ok(*n),
        // Non-finite floats are written as null.
        Json::Null => Ok(f64::NAN),
        _ => Err(format!("{what}: expected number")),
    }
}

fn as_f32(v: &Json, what: &str) -> PResult<f32> {
    as_f64(v, what).map(f32_from_literal)
}

/// The `f32` whose shortest-round-trip literal the parser read as `d`.
///
/// Rounding a literal to `f64` first can land exactly on the midpoint of
/// two adjacent `f32`s, where `as f32` rounds to even: the wrong neighbour
/// for 2 of the 2^32 bit patterns (e.g. `0x15AE43FD`). At such a midpoint
/// the literal belongs to the neighbour whose own literal reads back as
/// the same `f64`.
fn f32_from_literal(d: f64) -> f32 {
    let f = d as f32;
    let wide = f64::from(f);
    if wide == d || !f.is_finite() {
        return f;
    }
    let other = if wide < d { f.next_up() } else { f.next_down() };
    if (wide + f64::from(other)) / 2.0 == d && other.to_string().parse() == Ok(d) {
        other
    } else {
        f
    }
}

fn as_int<T: TryFrom<u64>>(v: &Json, what: &str) -> PResult<T> {
    v.as_u64()
        .and_then(|n| T::try_from(n).ok())
        .ok_or_else(|| format!("{what}: expected an in-range integer"))
}

fn as_str<'v>(v: &'v Json, what: &str) -> PResult<&'v str> {
    v.as_str().ok_or_else(|| format!("{what}: expected string"))
}

fn vec_of<T>(v: &Json, what: &str, item: impl Fn(&Json, &str) -> PResult<T>) -> PResult<Vec<T>> {
    as_arr(v, what)?.iter().map(|x| item(x, what)).collect()
}

fn matrix_of<T>(
    v: &Json,
    what: &str,
    item: impl Fn(&Json, &str) -> PResult<T> + Copy,
) -> PResult<Vec<Vec<T>>> {
    vec_of(v, what, |row, what| vec_of(row, what, item))
}

fn grid_from(v: &Json, what: &str) -> PResult<LogGrid> {
    let obj = as_obj(v, what)?;
    let lo = as_f64(get(obj, "lo")?, what)?;
    let hi = as_f64(get(obj, "hi")?, what)?;
    let bins: usize = as_int(get(obj, "bins")?, what)?;
    LogGrid::new(lo, hi, bins).map_err(|e| format!("{what}: {e}"))
}

fn hist_from(v: &Json, what: &str) -> PResult<LogHistogram> {
    let obj = as_obj(v, what)?;
    let grid = grid_from(get(obj, "grid")?, what)?;
    let counts = vec_of(get(obj, "counts")?, what, as_f64)?;
    let total = as_f64(get(obj, "total")?, what)?;
    LogHistogram::from_parts(grid, counts, total).map_err(|e| format!("{what}: {e}"))
}

fn group_from(v: &Json, what: &str) -> PResult<GroupKey> {
    let obj = as_obj(v, what)?;
    let region = match as_str(get(obj, "region")?, "group.region")? {
        "DenseUrban" => Region::DenseUrban,
        "SemiUrban" => Region::SemiUrban,
        "Rural" => Region::Rural,
        other => return Err(format!("group.region: unknown variant `{other}`")),
    };
    let rat = match as_str(get(obj, "rat")?, "group.rat")? {
        "Lte" => Rat::Lte,
        "Nr" => Rat::Nr,
        other => return Err(format!("group.rat: unknown variant `{other}`")),
    };
    let city = match get(obj, "city")? {
        Json::Null => None,
        v => Some(as_int(v, "group.city")?),
    };
    Ok(GroupKey {
        decile: as_int(get(obj, "decile")?, "group.decile")?,
        region,
        city,
        rat,
    })
}

fn cell_from(v: &Json) -> PResult<(CellKey, CellStats)> {
    let [key, stats] = as_arr(v, "cell entry")? else {
        return Err("cell entry: expected [key, stats]".into());
    };
    let [service, group, day] = as_arr(key, "cell key")? else {
        return Err("cell key: expected [service, group, day]".into());
    };
    let key = (
        as_int(service, "cell key.service")?,
        as_int(group, "cell key.group")?,
        as_int(day, "cell key.day")?,
    );
    let obj = as_obj(stats, "cell stats")?;
    let pairs = |name: &str| vec_of(get(obj, name)?, name, as_f64);
    let stats = CellStats {
        sessions: as_f64(get(obj, "sessions")?, "cell.sessions")?,
        traffic_mb: as_f64(get(obj, "traffic_mb")?, "cell.traffic_mb")?,
        volume_hist: hist_from(get(obj, "volume_hist")?, "cell.volume_hist")?,
        pair_sums: pairs("pair_sums")?,
        pair_counts: pairs("pair_counts")?,
        pair_log_sums: pairs("pair_log_sums")?,
        pair_log_sum_sqs: pairs("pair_log_sum_sqs")?,
    };
    Ok((key, stats))
}

/// Parses a dataset's JSON document.
pub(crate) fn dataset_from_json(text: &str) -> Result<Dataset, String> {
    let root = Json::parse(text)?;
    let obj = as_obj(&root, "dataset")?;
    let mut cells = CellMap::new();
    for entry in as_arr(get(obj, "cells")?, "cells")? {
        let (key, stats) = cell_from(entry)?;
        cells.insert(key, stats);
    }
    // Optional: absent in every pre-control-plane document.
    let signaling = match obj.get("signaling") {
        None | Some(Json::Null) => None,
        Some(v) => {
            let plane = as_obj(v, "signaling")?;
            Some(SignalingPlane {
                attach: matrix_of(get(plane, "attach")?, "signaling.attach", as_int)?,
                handover: matrix_of(get(plane, "handover")?, "signaling.handover", as_int)?,
                paging: matrix_of(get(plane, "paging")?, "signaling.paging", as_int)?,
            })
        }
    };
    Ok(Dataset {
        volume_grid: grid_from(get(obj, "volume_grid")?, "volume_grid")?,
        duration_grid: grid_from(get(obj, "duration_grid")?, "duration_grid")?,
        service_names: vec_of(get(obj, "service_names")?, "service_names", |v, what| {
            as_str(v, what).map(str::to_owned)
        })?,
        groups: vec_of(get(obj, "groups")?, "group", group_from)?,
        group_of_bs: vec_of(get(obj, "group_of_bs")?, "group_of_bs", as_int)?,
        decile_of_bs: vec_of(get(obj, "decile_of_bs")?, "decile_of_bs", as_int)?,
        bs_total_volume_mb: vec_of(
            get(obj, "bs_total_volume_mb")?,
            "bs_total_volume_mb",
            as_f64,
        )?,
        cells,
        minute_counts: matrix_of(get(obj, "minute_counts")?, "minute_counts", as_int)?,
        minute_volume_mb: matrix_of(get(obj, "minute_volume_mb")?, "minute_volume_mb", as_f32)?,
        n_days: as_int(get(obj, "n_days")?, "n_days")?,
        signaling,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_must_be_whole_and_in_range() {
        let int = |s: &str| as_int::<u8>(&Json::parse(s).unwrap(), "t");
        assert_eq!(int("255"), Ok(255));
        assert!(int("256").is_err());
        assert!(int("-1").is_err());
        assert!(int("1.5").is_err());
        assert!(int("null").is_err());
    }
}
