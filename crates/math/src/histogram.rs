//! Log₁₀-binned empirical distributions.
//!
//! The operator's privacy pipeline never exposes raw sessions — only binned
//! per-(service, BS, day) PDFs of session traffic volume (§3.2). This module
//! provides that representation:
//!
//! - [`LogGrid`] — a fixed grid of bins equally spaced in `log₁₀ x`.
//! - [`LogHistogram`] — weighted counts on a [`LogGrid`].
//! - [`BinnedPdf`] — a normalized density over the `log₁₀ x` axis
//!   (integrates to 1 in decades), supporting moments, CDF/quantiles,
//!   inverse-transform sampling back to linear units, and the weighted
//!   mixture averaging of Eq. (2).
//! - [`InverseCdf`] — a [`BinnedPdf`]'s quantiles by bisection, for
//!   samplers that draw from one PDF many times.
//!
//! The log-axis convention matches how the paper plots and models
//! `F_s(x)`: Gaussian-like shapes *in log scale* (Eq. 3).

use crate::{MathError, Result};
use rand::Rng;

/// A grid of `bins` intervals spanning `[10^lo, 10^hi)` equally in `log₁₀`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogGrid {
    lo: f64,
    hi: f64,
    bins: usize,
}

impl LogGrid {
    /// Creates a grid over `[10^lo_log10, 10^hi_log10)` with `bins` bins.
    pub fn new(lo_log10: f64, hi_log10: f64, bins: usize) -> Result<Self> {
        if !(hi_log10 > lo_log10) || bins == 0 {
            return Err(MathError::InvalidParameter(
                "LogGrid requires hi > lo and bins > 0",
            ));
        }
        Ok(LogGrid {
            lo: lo_log10,
            hi: hi_log10,
            bins,
        })
    }

    /// The default grid for session traffic volumes: 1 kB to 10 GB in MB
    /// units (`10^-3 .. 10^4` MB) at 50 bins per decade.
    #[must_use]
    pub fn volume_default() -> Self {
        LogGrid {
            lo: -3.0,
            hi: 4.0,
            bins: 350,
        }
    }

    /// Number of bins.
    #[must_use]
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Lower edge in `log₁₀` units.
    #[must_use]
    pub fn lo_log10(&self) -> f64 {
        self.lo
    }

    /// Upper edge in `log₁₀` units.
    #[must_use]
    pub fn hi_log10(&self) -> f64 {
        self.hi
    }

    /// Width of one bin in `log₁₀` units (decades).
    #[must_use]
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.bins as f64
    }

    /// Bin index for a linear-units value; values outside the range clamp
    /// to the first/last bin (the operator's pipeline does the same — the
    /// support is chosen wide enough that clamping is negligible).
    #[must_use]
    pub fn bin_of(&self, x: f64) -> usize {
        if x <= 0.0 {
            return 0;
        }
        self.bin_of_log10(x.log10())
    }

    /// [`LogGrid::bin_of`] for a value already on the `log₁₀` axis, for
    /// callers that need `log₁₀ x` anyway and should not take it twice.
    #[must_use]
    pub fn bin_of_log10(&self, u: f64) -> usize {
        // `floor` then clamp, without a call to `floor`: the cast
        // truncates, which is floor from 0 up, and saturates, taking a
        // negative or NaN position to bin 0 and a huge one to the cap.
        (((u - self.lo) / self.bin_width()) as usize).min(self.bins - 1)
    }

    /// Center of bin `i` on the `log₁₀` axis.
    #[must_use]
    pub fn center_log10(&self, i: usize) -> f64 {
        self.lo + (i as f64 + 0.5) * self.bin_width()
    }

    /// Center of bin `i` in linear units.
    #[must_use]
    pub fn center_linear(&self, i: usize) -> f64 {
        10f64.powf(self.center_log10(i))
    }
}

/// Weighted histogram on a [`LogGrid`].
///
/// # Examples
/// ```
/// use mtd_math::histogram::{LogGrid, LogHistogram};
/// let mut h = LogHistogram::new(LogGrid::volume_default());
/// for volume_mb in [0.5, 3.0, 3.5, 40.0] {
///     h.add(volume_mb);
/// }
/// let pdf = h.to_pdf().unwrap();
/// let mass: f64 = pdf.density().iter().sum::<f64>() * pdf.grid().bin_width();
/// assert!((mass - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    grid: LogGrid,
    counts: Vec<f64>,
    total: f64,
}

impl LogHistogram {
    /// Creates an empty histogram on `grid`.
    #[must_use]
    pub fn new(grid: LogGrid) -> Self {
        let bins = grid.bins();
        LogHistogram {
            grid,
            counts: vec![0.0; bins],
            total: 0.0,
        }
    }

    /// Rebuilds a histogram from its raw parts (grid, per-bin weights and
    /// the accumulated total), as produced by [`LogHistogram::counts`] and
    /// [`LogHistogram::total`].
    ///
    /// `total` is stored rather than recomputed because the running sum
    /// accumulated by [`LogHistogram::add_weighted`] can differ from
    /// `counts.iter().sum()` in the last ULP; deserializers that must be
    /// bit-exact (the binary dataset store) need the original value back.
    pub fn from_parts(grid: LogGrid, counts: Vec<f64>, total: f64) -> Result<Self> {
        if counts.len() != grid.bins() {
            return Err(MathError::DimensionMismatch {
                expected: grid.bins(),
                got: counts.len(),
            });
        }
        if !total.is_finite() || counts.iter().any(|c| !c.is_finite() || *c < 0.0) {
            return Err(MathError::InvalidParameter(
                "histogram counts must be finite and non-negative",
            ));
        }
        Ok(LogHistogram {
            grid,
            counts,
            total,
        })
    }

    /// Overwrites the per-bin weights and the total in place, keeping the
    /// grid and the allocation: [`LogHistogram::from_parts`] for one
    /// histogram refilled again and again. Checks what `from_parts`
    /// checks; on an error the histogram is left empty.
    pub fn refill<I>(&mut self, counts: I, total: f64) -> Result<()>
    where
        I: IntoIterator<Item = f64>,
        I::IntoIter: ExactSizeIterator,
    {
        let counts = counts.into_iter();
        let (expected, got) = (self.grid.bins(), counts.len());
        let empty = |h: &mut Self| {
            h.counts.fill(0.0);
            h.total = 0.0;
        };
        if got != expected {
            empty(self);
            return Err(MathError::DimensionMismatch { expected, got });
        }
        let mut valid = total.is_finite();
        for (slot, c) in self.counts.iter_mut().zip(counts) {
            valid &= c.is_finite() && c >= 0.0;
            *slot = c;
        }
        if !valid {
            empty(self);
            return Err(MathError::InvalidParameter(
                "histogram counts must be finite and non-negative",
            ));
        }
        self.total = total;
        Ok(())
    }

    /// Adds one observation of linear-units value `x`.
    pub fn add(&mut self, x: f64) {
        self.add_weighted(x, 1.0);
    }

    /// Adds an observation with weight `w` (ignored when `w <= 0`).
    pub fn add_weighted(&mut self, x: f64, w: f64) {
        if w <= 0.0 || !x.is_finite() {
            return;
        }
        self.counts[self.grid.bin_of(x)] += w;
        self.total += w;
    }

    /// Total accumulated weight.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.total
    }

    /// The underlying grid.
    #[must_use]
    pub fn grid(&self) -> &LogGrid {
        &self.grid
    }

    /// Raw per-bin weights.
    #[must_use]
    pub fn counts(&self) -> &[f64] {
        &self.counts
    }

    /// Merges another histogram on the same grid into this one.
    pub fn merge(&mut self, other: &LogHistogram) -> Result<()> {
        if self.grid != other.grid {
            return Err(MathError::InvalidParameter(
                "merge requires identical grids",
            ));
        }
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.total += other.total;
        Ok(())
    }

    /// Normalizes into a density over the `log₁₀` axis.
    pub fn to_pdf(&self) -> Result<BinnedPdf> {
        if self.total <= 0.0 {
            return Err(MathError::EmptyInput("to_pdf on empty histogram"));
        }
        let w = self.grid.bin_width();
        let density: Vec<f64> = self.counts.iter().map(|c| c / (self.total * w)).collect();
        Ok(BinnedPdf {
            grid: self.grid,
            density,
        })
    }
}

/// A normalized density over the `log₁₀ x` axis of a [`LogGrid`].
///
/// `Σ density[i] · bin_width == 1`. This is the `F_s(x)` object of the
/// paper: what gets averaged (Eq. 2), compared via EMD (§4.3–4.4), fitted
/// by the log-normal mixture (§5.2) and sampled from (§6).
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedPdf {
    grid: LogGrid,
    density: Vec<f64>,
}

impl BinnedPdf {
    /// Builds a PDF directly from per-bin densities, re-normalizing.
    pub fn from_density(grid: LogGrid, density: Vec<f64>) -> Result<Self> {
        if density.len() != grid.bins() {
            return Err(MathError::DimensionMismatch {
                expected: grid.bins(),
                got: density.len(),
            });
        }
        if density.iter().any(|d| *d < 0.0 || !d.is_finite()) {
            return Err(MathError::InvalidParameter(
                "density must be finite and non-negative",
            ));
        }
        let mass: f64 = density.iter().sum::<f64>() * grid.bin_width();
        if mass <= 0.0 {
            return Err(MathError::InvalidParameter("density has zero mass"));
        }
        let density = density.into_iter().map(|d| d / mass).collect();
        Ok(BinnedPdf { grid, density })
    }

    /// Evaluates a function over the grid's log₁₀ bin centers and bins it
    /// into a PDF (used to discretize analytic models onto the data grid).
    pub fn from_fn(grid: LogGrid, f: impl Fn(f64) -> f64) -> Result<Self> {
        let density: Vec<f64> = (0..grid.bins())
            .map(|i| f(grid.center_log10(i)).max(0.0))
            .collect();
        BinnedPdf::from_density(grid, density)
    }

    /// The underlying grid.
    #[must_use]
    pub fn grid(&self) -> &LogGrid {
        &self.grid
    }

    /// Density values over the `log₁₀` axis.
    #[must_use]
    pub fn density(&self) -> &[f64] {
        &self.density
    }

    /// Mean on the `log₁₀` axis (decades).
    #[must_use]
    pub fn mean_log10(&self) -> f64 {
        let w = self.grid.bin_width();
        (0..self.density.len())
            .map(|i| self.grid.center_log10(i) * self.density[i] * w)
            .sum()
    }

    /// Variance on the `log₁₀` axis (decades²).
    #[must_use]
    pub fn var_log10(&self) -> f64 {
        let m = self.mean_log10();
        let w = self.grid.bin_width();
        (0..self.density.len())
            .map(|i| {
                let d = self.grid.center_log10(i) - m;
                d * d * self.density[i] * w
            })
            .sum()
    }

    /// Mean in linear units, `E[X] = Σ 10^{uᵢ}·pᵢ`.
    #[must_use]
    pub fn mean_linear(&self) -> f64 {
        let w = self.grid.bin_width();
        (0..self.density.len())
            .map(|i| self.grid.center_linear(i) * self.density[i] * w)
            .sum()
    }

    /// CDF evaluated at the *upper edge* of each bin; last entry is 1.
    #[must_use]
    pub fn cdf(&self) -> Vec<f64> {
        let w = self.grid.bin_width();
        let mut acc = 0.0;
        let mut out = Vec::with_capacity(self.density.len());
        for d in &self.density {
            acc += d * w;
            out.push(acc);
        }
        // Guard against rounding drift.
        if let Some(last) = out.last_mut() {
            *last = 1.0;
        }
        out
    }

    /// Quantile on the `log₁₀` axis with linear interpolation inside bins.
    #[must_use]
    pub fn quantile_log10(&self, p: f64) -> f64 {
        self.quantile_walk().at(p)
    }

    /// A [`QuantileWalk`] from the first bin, for quantiles at
    /// non-decreasing probabilities in one pass over the CDF.
    #[must_use]
    pub fn quantile_walk(&self) -> QuantileWalk<'_> {
        QuantileWalk {
            pdf: self,
            width: self.grid.bin_width(),
            bin: 0,
            below: 0.0,
        }
    }

    /// Quantile in linear units.
    #[must_use]
    pub fn quantile_linear(&self, p: f64) -> f64 {
        10f64.powf(self.quantile_log10(p))
    }

    /// Draws a sample in linear units by inverse-transform sampling.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.quantile_linear(rng.gen::<f64>())
    }

    /// Weighted mixture of PDFs on a shared grid — Eq. (2) of the paper.
    ///
    /// Weights are the session counts `w_s^{c,t}`; they need not sum to 1.
    pub fn mixture(parts: &[(f64, &BinnedPdf)]) -> Result<BinnedPdf> {
        let (first_w, first) = parts.first().ok_or(MathError::EmptyInput("mixture"))?;
        let grid = first.grid;
        let mut density = vec![0.0; grid.bins()];
        let mut wsum = 0.0;
        let _ = first_w;
        for (w, pdf) in parts {
            if pdf.grid != grid {
                return Err(MathError::InvalidParameter(
                    "mixture requires identical grids",
                ));
            }
            if *w < 0.0 {
                return Err(MathError::InvalidParameter("mixture weights must be >= 0"));
            }
            for (d, p) in density.iter_mut().zip(&pdf.density) {
                *d += w * p;
            }
            wsum += w;
        }
        if wsum <= 0.0 {
            return Err(MathError::InvalidParameter("mixture weights sum to zero"));
        }
        for d in &mut density {
            *d /= wsum;
        }
        Ok(BinnedPdf { grid, density })
    }

    /// Returns this PDF shifted to zero `log₁₀`-mean on a symmetric grid
    /// of the same bin width — the paper's §4.3 step (i) normalization
    /// ("all PDFs have zero mean"), applied *before* clustering so that
    /// Eq. (2) centroids of same-shape services stay compact.
    ///
    /// The density is resampled by linear interpolation between bin
    /// centers; mass shifted past the grid edges is truncated and the
    /// result renormalized (negligible for any realistically-sized grid).
    pub fn centered(&self) -> Result<BinnedPdf> {
        let m = self.mean_log10();
        let span = self.grid.hi_log10() - self.grid.lo_log10();
        let grid = LogGrid::new(-span / 2.0, span / 2.0, self.grid.bins())?;
        let w = self.grid.bin_width();
        // Linear interpolation of the old density at log-position u.
        let interp = |u: f64| -> f64 {
            let pos = (u - self.grid.lo_log10()) / w - 0.5;
            if pos <= 0.0 || pos >= (self.grid.bins() - 1) as f64 {
                // At or beyond the outermost bin centers: nearest or zero.
                if pos <= -1.0 || pos >= self.grid.bins() as f64 {
                    return 0.0;
                }
                let idx = pos.clamp(0.0, (self.grid.bins() - 1) as f64) as usize;
                return self.density[idx];
            }
            let lo = pos.floor() as usize;
            let frac = pos - lo as f64;
            self.density[lo] * (1.0 - frac) + self.density[lo + 1] * frac
        };
        let density: Vec<f64> = (0..grid.bins())
            .map(|i| interp(grid.center_log10(i) + m))
            .collect();
        BinnedPdf::from_density(grid, density)
    }

    /// Residual `max(self − other, 0)` as raw (non-normalized) density
    /// values — step 1 of the §5.2 mixture-modeling algorithm.
    pub fn positive_residual(&self, other: &[f64]) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        self.positive_residual_into(other, &mut out)?;
        Ok(out)
    }

    /// [`BinnedPdf::positive_residual`] into a caller-owned buffer
    /// (cleared and resized), avoiding the per-fit allocation in batch
    /// fitting loops.
    pub fn positive_residual_into(&self, other: &[f64], out: &mut Vec<f64>) -> Result<()> {
        if other.len() != self.density.len() {
            return Err(MathError::DimensionMismatch {
                expected: self.density.len(),
                got: other.len(),
            });
        }
        out.clear();
        out.extend(
            self.density
                .iter()
                .zip(other)
                .map(|(a, b)| (a - b).max(0.0)),
        );
        Ok(())
    }
}

/// Quantiles of one [`BinnedPdf`] at non-decreasing probabilities.
///
/// The walk keeps the bin it stopped in and the mass below that bin, so
/// the next, larger `p` resumes there instead of rescanning the CDF from
/// bin 0: `k` quantiles cost O(bins + k). The running mass is summed bin
/// by bin in the same order for every `p`, so each answer is bit-equal to
/// a walk started from bin 0 ([`BinnedPdf::quantile_log10`] is exactly
/// that: a one-step walk). A `p` below an earlier one is a caller error:
/// the walk cannot go back and answers from where it stands.
#[derive(Debug, Clone)]
pub struct QuantileWalk<'a> {
    pdf: &'a BinnedPdf,
    width: f64,
    bin: usize,
    below: f64,
}

impl QuantileWalk<'_> {
    /// The `p`-quantile on the `log₁₀` axis, linearly interpolated inside
    /// its bin (an empty bin answers its center); `p` is clamped to
    /// `[0, 1]`.
    pub fn at(&mut self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        while let Some(d) = self.pdf.density.get(self.bin) {
            let mass = d * self.width;
            if self.below + mass >= p {
                break;
            }
            self.below += mass;
            self.bin += 1;
        }
        self.pdf.log10_in_bin(self.width, self.bin, self.below, p)
    }
}

impl BinnedPdf {
    /// The `log₁₀` point at probability `p` inside bin `bin`, whose lower
    /// edge holds the running mass `below`: linearly interpolated, an
    /// empty bin answering its center, and a bin past the last the top
    /// of the grid. [`QuantileWalk`] and [`InverseCdf`] find the bin
    /// their own ways and share this step.
    fn log10_in_bin(&self, width: f64, bin: usize, below: f64, p: f64) -> f64 {
        let Some(d) = self.density.get(bin) else {
            return self.grid.hi_log10();
        };
        let mass = d * width;
        let frac = if mass > 0.0 { (p - below) / mass } else { 0.5 };
        self.grid.lo_log10() + (bin as f64 + frac) * width
    }
}

/// Inverse-transform sampling from one [`BinnedPdf`] by bisection, for
/// many draws at unordered probabilities. The CDF at each bin's upper
/// edge is summed once, with a [`QuantileWalk`]'s additions in its
/// order, so a quantile is a binary search over those sums and each
/// answer is bit-equal to [`BinnedPdf::quantile_log10`]'s.
#[derive(Debug, Clone)]
pub struct InverseCdf {
    pdf: BinnedPdf,
    width: f64,
    /// `upper[i]`: the walk's running mass once bin `i` is added.
    upper: Vec<f64>,
}

impl InverseCdf {
    /// Sums `pdf`'s CDF once.
    #[must_use]
    pub fn new(pdf: BinnedPdf) -> InverseCdf {
        let width = pdf.grid.bin_width();
        let mut below = 0.0;
        let upper = pdf
            .density
            .iter()
            .map(|d| {
                below += d * width;
                below
            })
            .collect();
        InverseCdf { pdf, width, upper }
    }

    /// [`BinnedPdf::quantile_log10`], bit for bit.
    #[must_use]
    pub fn quantile_log10(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        // The walk stops in the first bin whose running mass reaches `p`
        // (a NaN `p` reaches none); the sums never decrease.
        let bin = self.upper.partition_point(|&mass| !(mass >= p));
        let below = if bin == 0 { 0.0 } else { self.upper[bin - 1] };
        self.pdf.log10_in_bin(self.width, bin, below, p)
    }

    /// [`BinnedPdf::sample`], bit for bit: the same draw from `rng`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        10f64.powf(self.quantile_log10(rng.gen::<f64>()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::{Distribution1D, LogNormal10};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn grid() -> LogGrid {
        LogGrid::new(-2.0, 3.0, 100).unwrap()
    }

    #[test]
    fn grid_rejects_degenerate() {
        assert!(LogGrid::new(1.0, 1.0, 10).is_err());
        assert!(LogGrid::new(0.0, 1.0, 0).is_err());
    }

    #[test]
    fn bin_of_maps_and_clamps() {
        let g = grid();
        assert_eq!(g.bin_of(1e-9), 0); // clamps below
        assert_eq!(g.bin_of(1e9), g.bins() - 1); // clamps above
        let c = g.center_linear(42);
        assert_eq!(g.bin_of(c), 42);
    }

    #[test]
    fn histogram_pdf_normalizes() {
        let mut h = LogHistogram::new(grid());
        for x in [0.1, 1.0, 1.0, 10.0, 100.0] {
            h.add(x);
        }
        let pdf = h.to_pdf().unwrap();
        let mass: f64 = pdf.density().iter().sum::<f64>() * pdf.grid().bin_width();
        assert!((mass - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram_errors() {
        let h = LogHistogram::new(grid());
        assert!(h.to_pdf().is_err());
    }

    #[test]
    fn merge_requires_same_grid() {
        let mut a = LogHistogram::new(grid());
        let b = LogHistogram::new(LogGrid::new(-2.0, 3.0, 50).unwrap());
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn from_parts_roundtrips_exactly() {
        let mut h = LogHistogram::new(grid());
        for x in [0.3, 0.3, 7.0, 250.0] {
            h.add_weighted(x, 0.1 + x);
        }
        let back = LogHistogram::from_parts(*h.grid(), h.counts().to_vec(), h.total()).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.total().to_bits(), h.total().to_bits());
    }

    #[test]
    fn from_parts_rejects_bad_input() {
        let g = grid();
        assert!(LogHistogram::from_parts(g, vec![0.0; 3], 0.0).is_err());
        assert!(LogHistogram::from_parts(g, vec![-1.0; g.bins()], 0.0).is_err());
        assert!(LogHistogram::from_parts(g, vec![f64::NAN; g.bins()], 0.0).is_err());
        assert!(LogHistogram::from_parts(g, vec![0.0; g.bins()], f64::INFINITY).is_err());
    }

    #[test]
    fn refill_matches_from_parts_and_empties_on_bad_input() {
        let mut h = LogHistogram::new(grid());
        h.add_weighted(7.0, 2.5);
        let counts: Vec<f64> = (0..grid().bins()).map(|i| (i % 3) as f64).collect();
        h.refill(counts.iter().copied(), 99.0).unwrap();
        assert_eq!(
            h,
            LogHistogram::from_parts(grid(), counts.clone(), 99.0).unwrap()
        );
        assert!(h.refill([1.0; 3], 3.0).is_err());
        assert_eq!(h, LogHistogram::new(grid()));
        for (bad, total) in [(-1.0, 0.0), (f64::NAN, 0.0), (0.0, f64::INFINITY)] {
            let mut h = LogHistogram::from_parts(grid(), counts.clone(), 99.0).unwrap();
            assert!(h.refill(counts.iter().map(|c| c + bad), total).is_err());
            assert_eq!(h, LogHistogram::new(grid()));
        }
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = LogHistogram::new(grid());
        a.add(1.0);
        let mut b = LogHistogram::new(grid());
        b.add(1.0);
        b.add(10.0);
        a.merge(&b).unwrap();
        assert_eq!(a.total(), 3.0);
    }

    #[test]
    fn histogram_recovers_lognormal_moments() {
        let truth = LogNormal10::new(0.5, 0.4).unwrap();
        let mut h = LogHistogram::new(LogGrid::new(-3.0, 4.0, 700).unwrap());
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..100_000 {
            h.add(truth.sample(&mut rng));
        }
        let pdf = h.to_pdf().unwrap();
        assert!(
            (pdf.mean_log10() - 0.5).abs() < 0.01,
            "mean {}",
            pdf.mean_log10()
        );
        assert!(
            (pdf.var_log10().sqrt() - 0.4).abs() < 0.01,
            "std {}",
            pdf.var_log10().sqrt()
        );
    }

    #[test]
    fn quantile_is_cdf_inverse() {
        let mut h = LogHistogram::new(grid());
        let mut rng = SmallRng::seed_from_u64(5);
        let d = LogNormal10::new(0.0, 0.5).unwrap();
        for _ in 0..50_000 {
            h.add(d.sample(&mut rng));
        }
        let pdf = h.to_pdf().unwrap();
        let q = pdf.quantile_log10(0.5);
        assert!(q.abs() < 0.05, "median {q}");
        assert!(pdf.quantile_log10(0.1) < pdf.quantile_log10(0.9));
    }

    #[test]
    fn mixture_is_weighted_average() {
        // Two point masses at different bins; 3:1 weighting.
        let g = grid();
        let mut a = LogHistogram::new(g);
        a.add(0.1);
        let mut b = LogHistogram::new(g);
        b.add(100.0);
        let pa = a.to_pdf().unwrap();
        let pb = b.to_pdf().unwrap();
        let mix = BinnedPdf::mixture(&[(3.0, &pa), (1.0, &pb)]).unwrap();
        let w = g.bin_width();
        let mass_a = mix.density()[g.bin_of(0.1)] * w;
        let mass_b = mix.density()[g.bin_of(100.0)] * w;
        assert!((mass_a - 0.75).abs() < 1e-12);
        assert!((mass_b - 0.25).abs() < 1e-12);
    }

    #[test]
    fn mixture_rejects_mismatched_grids_and_bad_weights() {
        let g = grid();
        let mut a = LogHistogram::new(g);
        a.add(1.0);
        let pa = a.to_pdf().unwrap();
        let g2 = LogGrid::new(-2.0, 3.0, 10).unwrap();
        let mut b = LogHistogram::new(g2);
        b.add(1.0);
        let pb = b.to_pdf().unwrap();
        assert!(BinnedPdf::mixture(&[(1.0, &pa), (1.0, &pb)]).is_err());
        assert!(BinnedPdf::mixture(&[(-1.0, &pa)]).is_err());
        assert!(BinnedPdf::mixture(&[]).is_err());
    }

    #[test]
    fn from_fn_discretizes_analytic_model() {
        let g = LogGrid::new(-3.0, 4.0, 700).unwrap();
        let ln = LogNormal10::new(1.0, 0.3).unwrap();
        let pdf = BinnedPdf::from_fn(g, |u| ln.pdf_log10(u)).unwrap();
        assert!((pdf.mean_log10() - 1.0).abs() < 0.01);
    }

    #[test]
    fn sampling_roundtrip() {
        let g = LogGrid::new(-3.0, 4.0, 700).unwrap();
        let ln = LogNormal10::new(1.0, 0.3).unwrap();
        let pdf = BinnedPdf::from_fn(g, |u| ln.pdf_log10(u)).unwrap();
        let mut rng = SmallRng::seed_from_u64(17);
        let mean_log: f64 = (0..20_000)
            .map(|_| pdf.sample(&mut rng).log10())
            .sum::<f64>()
            / 20_000.0;
        assert!((mean_log - 1.0).abs() < 0.02, "{mean_log}");
    }

    #[test]
    fn positive_residual_clips() {
        let g = grid();
        let mut h = LogHistogram::new(g);
        h.add(1.0);
        let pdf = h.to_pdf().unwrap();
        let big = vec![1e9; g.bins()];
        let r = pdf.positive_residual(&big).unwrap();
        assert!(r.iter().all(|v| *v == 0.0));
    }
}
