//! Descriptive statistics: moments, percentiles, box summaries and
//! Pearson correlation.
//!
//! These are the estimators behind the §5.4 quality metrics and the
//! analysis and use-case reports.

use crate::{MathError, Result};

/// Arithmetic mean. Errors on empty input.
pub fn mean(xs: &[f64]) -> Result<f64> {
    if xs.is_empty() {
        return Err(MathError::EmptyInput("mean"));
    }
    Ok(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Population variance (divides by `n`).
pub fn variance(xs: &[f64]) -> Result<f64> {
    let m = mean(xs)?;
    Ok(xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / xs.len() as f64)
}

/// Population standard deviation.
pub fn std_dev(xs: &[f64]) -> Result<f64> {
    Ok(variance(xs)?.sqrt())
}

/// Percentile via linear interpolation on the sorted sample
/// (the "95th percentile" allocation rule of §6.1 uses `p = 0.95`).
///
/// `p` is a fraction in `[0, 1]`.
pub fn percentile(xs: &[f64], p: f64) -> Result<f64> {
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    percentile_sorted(&sorted, p)
}

/// [`percentile`] on an **ascending-sorted** sample, without the
/// sort-and-copy. The same linear interpolation between order statistics
/// applies — truncating the fractional rank instead (`(n−1)·p as usize`)
/// systematically biases upper quantiles low.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Result<f64> {
    if sorted.is_empty() {
        return Err(MathError::EmptyInput("percentile"));
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(MathError::InvalidParameter(
            "percentile fraction must be in [0,1]",
        ));
    }
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Ok(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> Result<f64> {
    percentile(xs, 0.5)
}

/// [`median`] on an **ascending-sorted** sample, without the
/// sort-and-copy — the shared helper behind `mtd-bench`'s timing medians
/// and the analysis percentile paths. Even-length samples interpolate
/// between the two middle order statistics; `sorted[len / 2]` indexing
/// would instead pick the upper one and bias the estimate.
pub fn median_sorted(sorted: &[f64]) -> Result<f64> {
    percentile_sorted(sorted, 0.5)
}

/// Five-number summary used by the boxplots of Fig 8 and Fig 13b:
/// 5th percentile, first quartile, median, third quartile, 95th percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxStats {
    pub p5: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub p95: f64,
}

impl BoxStats {
    /// Computes the summary from raw samples.
    pub fn from_samples(xs: &[f64]) -> Result<Self> {
        Ok(BoxStats {
            p5: percentile(xs, 0.05)?,
            q1: percentile(xs, 0.25)?,
            median: percentile(xs, 0.5)?,
            q3: percentile(xs, 0.75)?,
            p95: percentile(xs, 0.95)?,
        })
    }
}

/// Pearson correlation coefficient between two equal-length series.
pub fn pearson(xs: &[f64], ys: &[f64]) -> Result<f64> {
    if xs.len() != ys.len() {
        return Err(MathError::DimensionMismatch {
            expected: xs.len(),
            got: ys.len(),
        });
    }
    if xs.len() < 2 {
        return Err(MathError::EmptyInput("pearson needs >= 2 points"));
    }
    let mx = mean(xs)?;
    let my = mean(ys)?;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (x, y) in xs.iter().zip(ys) {
        sxy += (x - mx) * (y - my);
        sxx += (x - mx).powi(2);
        syy += (y - my).powi(2);
    }
    if sxx == 0.0 || syy == 0.0 {
        return Err(MathError::InvalidParameter(
            "pearson undefined for constant series",
        ));
    }
    Ok(sxy / (sxx * syy).sqrt())
}

/// Absolute percentage error `|est - truth| / |truth| * 100` (Fig 13b metric).
///
/// Errors when `truth == 0`.
pub fn absolute_percentage_error(estimate: f64, truth: f64) -> Result<f64> {
    if truth == 0.0 {
        return Err(MathError::InvalidParameter("APE undefined for zero truth"));
    }
    Ok(((estimate - truth) / truth).abs() * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basic() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs).unwrap(), 2.5);
        assert!((variance(&xs).unwrap() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_error() {
        assert!(mean(&[]).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&xs, 0.0).unwrap(), 10.0);
        assert_eq!(percentile(&xs, 1.0).unwrap(), 40.0);
        assert!((percentile(&xs, 0.5).unwrap() - 25.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_rejects_bad_fraction() {
        assert!(percentile(&[1.0], 1.5).is_err());
        assert!(percentile_sorted(&[1.0], -0.1).is_err());
        assert!(percentile_sorted(&[], 0.5).is_err());
    }

    #[test]
    fn percentile_sorted_matches_percentile() {
        let xs: Vec<f64> = (0..10).map(f64::from).collect();
        for &p in &[0.0, 0.1, 0.5, 0.9, 0.95, 1.0] {
            assert_eq!(
                percentile_sorted(&xs, p).unwrap(),
                percentile(&xs, p).unwrap()
            );
        }
        // p90 of 0..=9 interpolates to 8.1; floor indexing would give 8.0.
        assert!((percentile_sorted(&xs, 0.9).unwrap() - 8.1).abs() < 1e-12);
    }

    #[test]
    fn median_sorted_interpolation_pinned() {
        // Odd length: the middle order statistic, exactly.
        assert_eq!(median_sorted(&[1.0, 5.0, 9.0]).unwrap(), 5.0);
        // Even length: the midpoint of the two middle values — NOT the
        // upper-middle that `sorted[len / 2]` indexing would return.
        assert_eq!(median_sorted(&[1.0, 2.0, 3.0, 10.0]).unwrap(), 2.5);
        assert_eq!(median_sorted(&[2.0, 4.0]).unwrap(), 3.0);
        // Single sample and agreement with the sorting front-end.
        assert_eq!(median_sorted(&[7.0]).unwrap(), 7.0);
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0];
        let mut sorted = xs.to_vec();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(median(&xs).unwrap(), median_sorted(&sorted).unwrap());
        assert!(median_sorted(&[]).is_err());
    }

    #[test]
    fn percentile_interpolation_pinned_between_order_statistics() {
        // p = 0.75 over 4 points sits at rank 2.25: a quarter of the way
        // from the 3rd to the 4th order statistic.
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert!((percentile_sorted(&xs, 0.75).unwrap() - 32.5).abs() < 1e-12);
        // Truncating the rank would snap to 30.0 — pin the difference.
        assert!(percentile_sorted(&xs, 0.75).unwrap() > 30.0);
    }

    #[test]
    fn box_stats_ordered() {
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        let b = BoxStats::from_samples(&xs).unwrap();
        assert!(b.p5 <= b.q1 && b.q1 <= b.median && b.median <= b.q3 && b.q3 <= b.p95);
    }

    #[test]
    fn pearson_basics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys).unwrap() - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = ys.iter().map(|y| -y).collect();
        assert!((pearson(&xs, &neg).unwrap() + 1.0).abs() < 1e-12);
        assert!(pearson(&xs, &[1.0, 1.0, 1.0, 1.0]).is_err());
        assert!(pearson(&xs, &ys[..2]).is_err());
    }

    #[test]
    fn ape_basic() {
        assert!((absolute_percentage_error(110.0, 100.0).unwrap() - 10.0).abs() < 1e-12);
        assert!(absolute_percentage_error(1.0, 0.0).is_err());
    }
}
