//! Ground-truth session arrival process at a base station.
//!
//! §4.1 observes that per-minute session arrival counts at every BS follow
//! a *bi-modal* distribution produced by the circadian rhythm: a Gaussian
//! mode during daylight hours and a heavy-tailed Pareto mode overnight,
//! with rapid transitions. §5.1 quantifies the released model: the peak
//! mean `μ` ranges from 1.21 sessions/min (first load decile) to 71
//! (last), `σ = μ/10`, and the off-peak Pareto has fixed shape `b = 1.765`
//! with a scale growing across deciles at the same exponential rate as `μ`.
//!
//! This module *generates* traffic from exactly that law (it is the ground
//! truth the fitted models of `mtd-core` must recover).
//!
//! A count needs its continuous draw only to one side of the rounding
//! draw, so most minutes are decided from a bracket on that draw read
//! off a table of exact quantiles; the exact quantile runs only when
//! the bracket cannot tell (see [`ArrivalProcess::sample_count`]).

use crate::time::is_peak_minute;
use mtd_math::distributions::{open_unit, std_normal_quantile, Distribution1D, Gaussian, Pareto};
use rand::Rng;
use std::sync::OnceLock;

/// Peak-hour mean arrivals/minute at the least loaded decile (§5.1).
pub const PEAK_MEAN_FIRST_DECILE: f64 = 1.21;
/// Peak-hour mean arrivals/minute at the busiest decile (§5.1).
pub const PEAK_MEAN_LAST_DECILE: f64 = 71.0;
/// Off-peak Pareto shape, fixed across all BSs (§5.1).
pub const OFFPEAK_SHAPE: f64 = 1.765;
/// Ratio `μ / pareto-scale`; makes night means roughly one order of
/// magnitude below day means, as in Fig 3.
const SCALE_DIVISOR: f64 = 20.0;

/// Cells of the bracket table, which cuts `[0, 1)` at `k / CELLS`. Set
/// by measurement over 300 load quantiles × 45 days: at 4096 cells (64 KB
/// of table) the exact quantile decides 0.024% of the minutes at scale
/// 0.01, 0.35% at 0.35 and 0.78% at 1.0; at 1024 cells 0.096%, 1.1% and
/// 2.3%; at 8192, 0.012%, 0.20% and 0.45% for no measurable gain in time.
const CELLS: usize = 4096;

/// How far each edge quantile is widened, relative to its size (at
/// least 1), before it is mapped to a bracket edge: far above the
/// quantiles' own noise and far below a cell's width (1e-4 or more). The
/// unit Pareto quantile is one `powf`, within an ulp or two. The normal
/// quantile steps *down* by 2.5e-9 across `p = 0.5`, because the `erf`
/// its Halley step inverts is +1e-9 just above 0 and -1e-9 just below.
const MARGIN: f64 = 1e-7;

/// Each mode's quantile at the `CELLS + 1` cell edges `k / CELLS`: exact
/// at every inner edge, and at 0 and 1 the law's own limits. The limits
/// bound whatever the quantile returns in the outer cells, whose far
/// tails are noisy: below `p ≈ 1e-11` the normal quantile's Halley step
/// cancels and wanders by up to 0.05.
struct EdgeQuantiles {
    /// The standard normal's quantile, from -∞ to +∞.
    normal: Vec<f64>,
    /// The off-peak Pareto's quantile at unit scale, from 1 to +∞.
    pareto: Vec<f64>,
}

/// The one bracket table, built on first use.
fn edge_quantiles() -> &'static EdgeQuantiles {
    static EDGES: OnceLock<EdgeQuantiles> = OnceLock::new();
    EDGES.get_or_init(|| {
        let edges = |at_0: f64, at_1: f64, quantile: &dyn Fn(f64) -> f64| -> Vec<f64> {
            let inner = (1..CELLS).map(|k| quantile(k as f64 / CELLS as f64));
            std::iter::once(at_0).chain(inner).chain([at_1]).collect()
        };
        let unit_pareto = Pareto::new(OFFPEAK_SHAPE, 1.0).expect("valid offpeak shape");
        EdgeQuantiles {
            normal: edges(f64::NEG_INFINITY, f64::INFINITY, &std_normal_quantile),
            pareto: edges(1.0, f64::INFINITY, &|p| unit_pareto.quantile(p)),
        }
    })
}

/// Probabilistic rounding's one rule: a draw rounds up from its floor
/// when the rounding draw `u2` falls below its fractional part.
fn rounds_up(u2: f64, frac: f64) -> bool {
    u2 < frac
}

/// The bimodal arrival process of one BS.
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    peak: Gaussian,
    offpeak: Pareto,
}

impl ArrivalProcess {
    /// Builds the process for a BS at load quantile `q ∈ (0,1)`, with a
    /// global `scale` multiplier (used to shrink scenarios).
    ///
    /// The peak mean interpolates exponentially between the paper's first
    /// and last decile values, matching §5.1's observation that `μ` and
    /// the Pareto scale grow exponentially at a similar rate across decile
    /// classes.
    #[must_use]
    pub fn for_load_quantile(q: f64, scale: f64) -> ArrivalProcess {
        let q = q.clamp(1e-6, 1.0 - 1e-6);
        let mu = PEAK_MEAN_FIRST_DECILE
            * (PEAK_MEAN_LAST_DECILE / PEAK_MEAN_FIRST_DECILE).powf(q)
            * scale.max(1e-6);
        let sigma = mu / 10.0;
        let pareto_scale = (mu / SCALE_DIVISOR).max(1e-3);
        ArrivalProcess {
            peak: Gaussian::new(mu, sigma).expect("valid peak params"),
            offpeak: Pareto::new(OFFPEAK_SHAPE, pareto_scale).expect("valid offpeak params"),
        }
    }

    /// Peak-hour mean arrivals per minute.
    #[must_use]
    pub fn peak_mean(&self) -> f64 {
        self.peak.mean()
    }

    /// Off-peak Pareto scale parameter.
    #[must_use]
    pub fn offpeak_scale(&self) -> f64 {
        self.offpeak.scale()
    }

    /// Expected number of arrivals in one minute at `minute_of_day`.
    #[must_use]
    pub fn mean_at(&self, minute_of_day: u32) -> f64 {
        if is_peak_minute(minute_of_day) {
            self.peak.mean()
        } else {
            self.offpeak.mean()
        }
    }

    /// Draws the number of new sessions in the given minute.
    ///
    /// The continuous draw `x` is an inverse-transform sample of the
    /// minute's mode at a uniform `u` (the Gaussian clamped at 0 by day,
    /// the Pareto capped at three day means by night). It is converted to
    /// a count by probabilistic rounding on a second uniform `u2`, which
    /// preserves the mean exactly (plain truncation would bias the
    /// recovered `μ` downward at low-load BSs).
    ///
    /// Most minutes never compute `x`. A static table holds both modes'
    /// exact quantiles at the inner edges of 4096 cells of `[0, 1)`, and
    /// each law's limits at 0 and 1. Widened by a margin far above the
    /// quantiles' own noise and mapped through this process's parameters,
    /// the edges of `u`'s cell bracket `x`. When the bracket has one floor
    /// and `u2` falls on one side of both its fractional parts, that side
    /// decides the count; otherwise `x` is computed exactly from the same
    /// `u`. Both draws are always taken, in this order, so every count and
    /// every later draw of `rng` is the one the exact composition alone
    /// gives.
    pub fn sample_count<R: Rng + ?Sized>(&self, minute_of_day: u32, rng: &mut R) -> u32 {
        self.sample_count_with_path(minute_of_day, rng).0
    }

    /// [`Self::sample_count`], also saying whether the exact quantile had
    /// to decide the count (`true`) or the bracket table did.
    pub fn sample_count_with_path<R: Rng + ?Sized>(
        &self,
        minute_of_day: u32,
        rng: &mut R,
    ) -> (u32, bool) {
        let u = rng.gen::<f64>();
        let u2 = rng.gen::<f64>();
        self.count_from_draws(is_peak_minute(minute_of_day), u, u2)
    }

    /// The count drawn by `u` and rounded by `u2`, and whether the exact
    /// quantile decided it.
    fn count_from_draws(&self, peak: bool, u: f64, u2: f64) -> (u32, bool) {
        let (lo, hi) = self.bracket(peak, u);
        // Both bounds are at least 0, so below `u32::MAX` truncation is
        // their floor, without `floor`'s library call on baseline x86-64.
        let base = lo as u32;
        if hi < f64::from(u32::MAX) && base == hi as u32 {
            let floor = f64::from(base);
            let up = rounds_up(u2, lo - floor);
            if up == rounds_up(u2, hi - floor) {
                return (base + u32::from(up), false);
            }
        }
        (self.exact_count(peak, u, u2), true)
    }

    /// Bounds on the continuous draw at `u`: the table's quantiles at the
    /// edges of `u`'s cell, widened by [`MARGIN`] and mapped as
    /// [`Self::exact_count`] maps its quantile. The widened edges hold the
    /// quantile at `u`, and every step of the map is monotone under
    /// round-to-nearest, so the bounds hold `x`.
    fn bracket(&self, peak: bool, u: f64) -> (f64, f64) {
        let edges = edge_quantiles();
        let k = ((u * CELLS as f64) as usize).min(CELLS - 1);
        let widen = |q: f64| MARGIN * q.abs().max(1.0);
        if peak {
            let (z0, z1) = (edges.normal[k], edges.normal[k + 1]);
            let at = |z: f64| (self.peak.mean() + self.peak.std() * z).max(0.0);
            (at(z0 - widen(z0)), at(z1 + widen(z1)))
        } else {
            debug_assert_eq!(self.offpeak.shape(), OFFPEAK_SHAPE, "table's Pareto shape");
            let (p0, p1) = (edges.pareto[k], edges.pareto[k + 1]);
            let at = |unit: f64| self.cap_offpeak(self.offpeak.scale() * unit);
            (at(p0 - widen(p0)), at(p1 + widen(p1)))
        }
    }

    /// The count of [`Self::count_from_draws`] from the exact draw: the
    /// quantile at `u` clamped as [`Distribution1D::sample`] clamps it.
    fn exact_count(&self, peak: bool, u: f64, u2: f64) -> u32 {
        let p = open_unit(u);
        let x = if peak {
            self.peak.quantile(p).max(0.0)
        } else {
            self.cap_offpeak(self.offpeak.quantile(p))
        };
        let base = x.floor();
        base as u32 + u32::from(rounds_up(u2, x - base))
    }

    /// Caps the heavy tail at a generous multiple of the day mean so a
    /// single pathological draw cannot dominate a whole scenario.
    fn cap_offpeak(&self, x: f64) -> f64 {
        x.min(self.peak.mean() * 3.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn decile_endpoints_match_paper() {
        let lo = ArrivalProcess::for_load_quantile(0.0, 1.0);
        let hi = ArrivalProcess::for_load_quantile(1.0, 1.0);
        assert!((lo.peak_mean() - PEAK_MEAN_FIRST_DECILE).abs() < 0.01);
        assert!((hi.peak_mean() - PEAK_MEAN_LAST_DECILE).abs() < 0.5);
    }

    #[test]
    fn peak_mean_monotone_in_quantile() {
        let mut prev = 0.0;
        for i in 1..10 {
            let p = ArrivalProcess::for_load_quantile(i as f64 / 10.0, 1.0);
            assert!(p.peak_mean() > prev);
            prev = p.peak_mean();
        }
    }

    #[test]
    fn scale_shrinks_process() {
        let full = ArrivalProcess::for_load_quantile(0.5, 1.0);
        let half = ArrivalProcess::for_load_quantile(0.5, 0.5);
        assert!((half.peak_mean() - full.peak_mean() / 2.0).abs() < 1e-9);
    }

    #[test]
    fn sampled_peak_counts_match_mean() {
        let p = ArrivalProcess::for_load_quantile(0.7, 1.0);
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 20_000;
        let total: u64 = (0..n)
            .map(|_| u64::from(p.sample_count(12 * 60, &mut rng)))
            .sum();
        let mean = total as f64 / n as f64;
        assert!(
            (mean - p.peak_mean()).abs() / p.peak_mean() < 0.02,
            "sampled {mean} vs {}",
            p.peak_mean()
        );
    }

    #[test]
    fn night_counts_much_lower_than_day() {
        let p = ArrivalProcess::for_load_quantile(0.8, 1.0);
        let mut rng = SmallRng::seed_from_u64(5);
        let n = 20_000;
        let day: u64 = (0..n)
            .map(|_| u64::from(p.sample_count(12 * 60, &mut rng)))
            .sum();
        let night: u64 = (0..n)
            .map(|_| u64::from(p.sample_count(3 * 60, &mut rng)))
            .sum();
        assert!(
            (night as f64) < day as f64 / 4.0,
            "night {night} not well below day {day}"
        );
    }

    #[test]
    fn bimodality_visible_in_count_distribution() {
        // The PDF over a full day must show two separated modes: night
        // counts concentrated near the Pareto scale, day counts near μ.
        let p = ArrivalProcess::for_load_quantile(0.9, 1.0);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut day_hist = [0u32; 200];
        let mut night_hist = [0u32; 200];
        for _ in 0..5_000 {
            let d = p.sample_count(12 * 60, &mut rng) as usize;
            let n = p.sample_count(2 * 60, &mut rng) as usize;
            day_hist[d.min(199)] += 1;
            night_hist[n.min(199)] += 1;
        }
        let day_mode = day_hist
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .unwrap()
            .0;
        let night_mode = night_hist
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| **c)
            .unwrap()
            .0;
        assert!(
            day_mode as f64 > 4.0 * night_mode.max(1) as f64,
            "day mode {day_mode}, night mode {night_mode}"
        );
    }

    /// Every scale the bracket tests cover, each at load deciles 0–9.
    fn decile_processes() -> Vec<ArrivalProcess> {
        [0.001, 0.01, 0.05, 0.35, 1.0, 3.0]
            .into_iter()
            .flat_map(|scale| {
                (0..10)
                    .map(move |d| ArrivalProcess::for_load_quantile((d as f64 + 0.5) / 10.0, scale))
            })
            .collect()
    }

    /// The continuous draw at `u` as composed before the bracket table:
    /// `Distribution1D::sample`'s clamp and quantile, then the clamp at
    /// 0 by day or the cap at three day means by night.
    fn reference_draw(p: &ArrivalProcess, peak: bool, u: f64) -> f64 {
        let q = u.clamp(1e-16, 1.0 - 1e-16);
        if peak {
            p.peak.quantile(q).max(0.0)
        } else {
            p.offpeak.quantile(q).min(p.peak_mean() * 3.0)
        }
    }

    /// The count the pre-table composition rounds `x` to on `u2`.
    fn reference_count(x: f64, u2: f64) -> u32 {
        let base = x.floor();
        base as u32 + u32::from(u2 < x - base)
    }

    #[test]
    fn bracket_decisions_match_the_exact_composition_at_every_cell_edge() {
        for p in decile_processes() {
            for peak in [true, false] {
                for k in 0..=CELLS {
                    let edge = k as f64 / CELLS as f64;
                    for u in [edge.next_down(), edge, edge.next_up()] {
                        if !(0.0..1.0).contains(&u) {
                            continue;
                        }
                        let x = reference_draw(&p, peak, u);
                        let (lo, hi) = p.bracket(peak, u);
                        assert!(lo <= x && x <= hi, "{x} outside [{lo}, {hi}] at u = {u}");
                        let frac = x - x.floor();
                        let thresholds = [lo - lo.floor(), hi - hi.floor()];
                        for u2 in [frac.next_down(), frac, frac.next_up()]
                            .into_iter()
                            .chain(thresholds)
                        {
                            assert_eq!(
                                p.count_from_draws(peak, u, u2).0,
                                reference_count(x, u2),
                                "mean {} peak {peak} u {u} u2 {u2} x {x}",
                                p.peak_mean()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn margin_covers_every_step_down_of_the_quantiles() {
        // The bracket holds `x` only if, across the inner cells, neither
        // quantile ever falls below a value it took at a smaller `p` by
        // more than the margin. Scan those cells on a fine grid, with the
        // ulps around the normal quantile's step at 0.5 and around the
        // edges of its rational guess's central branch.
        let unit_pareto = Pareto::new(OFFPEAK_SHAPE, 1.0).unwrap();
        let inner = 1.0 / CELLS as f64..1.0 - 1.0 / CELLS as f64;
        let body = (0..=1u32 << 21).map(|i| f64::from(i) / f64::from(1u32 << 21));
        let ulps = [0.5, 0.024_25, 1.0 - 0.024_25]
            .into_iter()
            .flat_map(|p: f64| (0..64u64).map(move |i| f64::from_bits(p.to_bits() - 32 + i)));
        let mut grid: Vec<f64> = body.chain(ulps).filter(|p| inner.contains(p)).collect();
        grid.sort_by(f64::total_cmp);
        let (mut top_z, mut top_p) = (f64::NEG_INFINITY, 1.0f64);
        for p in grid {
            let (z, unit) = (std_normal_quantile(p), unit_pareto.quantile(p));
            let floor_z = top_z - MARGIN * top_z.abs().max(1.0);
            assert!(z >= floor_z, "normal at {p}: {z} < {top_z}");
            assert!(
                unit >= top_p - MARGIN * top_p,
                "pareto at {p}: {unit} < {top_p}"
            );
            (top_z, top_p) = (top_z.max(z), top_p.max(unit));
        }
    }

    #[test]
    fn outer_edges_are_the_laws_limits_because_the_far_tail_is_noisy() {
        // Far into the lower tail the normal quantile steps down by much
        // more than the margin, so no value it returns there can bound an
        // outer cell; each law's limit can.
        let mut top = f64::NEG_INFINITY;
        let mut deepest_step = 0.0f64;
        for i in 0..=100_000 {
            let p = open_unit(10f64.powf(-16.0 + 5.0 * f64::from(i) / 100_000.0));
            let z = std_normal_quantile(p);
            deepest_step = deepest_step.max(top - z);
            top = top.max(z);
        }
        assert!(
            deepest_step > 1e3 * MARGIN,
            "deepest step down {deepest_step}"
        );
        let edges = edge_quantiles();
        assert_eq!(
            (edges.normal[0], edges.normal[CELLS]),
            (f64::NEG_INFINITY, f64::INFINITY)
        );
        assert_eq!((edges.pareto[0], edges.pareto[CELLS]), (1.0, f64::INFINITY));
    }

    /// Share of a day's minutes, over 20 load quantiles and 3 days, whose
    /// count needed the exact quantile.
    fn exact_share(scale: f64) -> f64 {
        let mut rng = SmallRng::seed_from_u64(13);
        let (mut exact, mut minutes) = (0u32, 0u32);
        for i in 0..20 {
            let p = ArrivalProcess::for_load_quantile((f64::from(i) + 0.5) / 20.0, scale);
            for minute in (0..3).flat_map(|_| 0..crate::time::MINUTES_PER_DAY) {
                exact += u32::from(p.sample_count_with_path(minute, &mut rng).1);
                minutes += 1;
            }
        }
        f64::from(exact) / f64::from(minutes)
    }

    #[test]
    fn the_exact_path_decides_few_minutes() {
        let light = exact_share(0.01);
        let busy = exact_share(1.0);
        assert!(light < 0.001, "exact share {light} at scale 0.01");
        assert!(busy < 0.02, "exact share {busy} at scale 1.0");
    }

    #[test]
    fn quantile_clamped_to_open_interval() {
        // Extreme quantiles must not produce NaN/inf parameters.
        let p0 = ArrivalProcess::for_load_quantile(-1.0, 1.0);
        let p1 = ArrivalProcess::for_load_quantile(2.0, 1.0);
        assert!(p0.peak_mean().is_finite());
        assert!(p1.peak_mean().is_finite());
        assert!(p0.peak_mean() < p1.peak_mean());
    }
}
