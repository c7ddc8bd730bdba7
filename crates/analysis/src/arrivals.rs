//! Fig 3: per-decile arrival-count PDFs and their bimodal fits.

use mtd_core::arrival::ArrivalModel;
use mtd_dataset::Dataset;
use mtd_math::Result;

/// The Fig 3 content for one BS-load decile.
#[derive(Debug, Clone)]
pub struct DecileArrivals {
    pub decile: u8,
    /// Empirical PDF of per-minute counts: `(count, probability)`.
    pub count_pdf: Vec<(u32, f64)>,
    /// The §5.1 fitted model (Gaussian peak + Pareto off-peak).
    pub model: ArrivalModel,
    /// Fraction of minutes in the off-peak regime (for mixing the two
    /// fitted modes when overlaying them on the empirical PDF).
    pub offpeak_fraction: f64,
}

/// Builds the Fig 3 analysis for one decile.
pub fn decile_arrivals(dataset: &Dataset, decile: u8) -> Result<DecileArrivals> {
    let all = dataset.arrival_counts(decile);
    let peak = dataset.arrival_counts_windowed(decile, true);
    let off = dataset.arrival_counts_windowed(decile, false);
    let model = ArrivalModel::fit(&peak, &off)?;

    let max = all.iter().copied().max().unwrap_or(0);
    let mut hist = vec![0.0f64; max as usize + 1];
    for c in &all {
        hist[*c as usize] += 1.0;
    }
    let total: f64 = hist.iter().sum();
    let count_pdf = hist
        .into_iter()
        .enumerate()
        .filter(|(_, p)| *p > 0.0)
        .map(|(c, p)| (c as u32, p / total))
        .collect();

    Ok(DecileArrivals {
        decile,
        count_pdf,
        model,
        offpeak_fraction: off.len() as f64 / all.len().max(1) as f64,
    })
}

/// Checks the §5.1 regularity `σ ≈ μ/10` on the *measured* peak counts of
/// a decile: returns the measured ratio `σ/μ`.
pub fn measured_sigma_over_mu(dataset: &Dataset, decile: u8) -> Result<f64> {
    let peak: Vec<f64> = dataset
        .arrival_counts_windowed(decile, true)
        .iter()
        .map(|c| f64::from(*c))
        .collect();
    let mean = mtd_math::stats::mean(&peak)?;
    let sd = mtd_math::stats::std_dev(&peak)?;
    if mean <= 0.0 {
        return Err(mtd_math::MathError::InvalidParameter("zero peak mean"));
    }
    Ok(sd / mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtd_netsim::geo::Topology;
    use mtd_netsim::services::ServiceCatalog;
    use mtd_netsim::ScenarioConfig;

    fn dataset() -> Dataset {
        let config = ScenarioConfig::small_test();
        let topology = Topology::generate(config.n_bs, config.seed);
        let catalog = ServiceCatalog::paper();
        Dataset::build(&config, &topology, &catalog)
    }

    #[test]
    fn pdfs_are_normalized() {
        let ds = dataset();
        let a = decile_arrivals(&ds, 5).unwrap();
        let total: f64 = a.count_pdf.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(a.offpeak_fraction > 0.3 && a.offpeak_fraction < 0.5);
    }

    #[test]
    fn fitted_means_grow_across_deciles() {
        let ds = dataset();
        let all: Vec<_> = (0..10).map(|d| decile_arrivals(&ds, d).unwrap()).collect();
        assert!(all[9].model.peak_mu > all[0].model.peak_mu * 2.0);
    }

    #[test]
    fn bimodality_zero_heavy_plus_peak() {
        // Night minutes contribute a large probability mass at very low
        // counts; day minutes center at the fitted μ.
        let ds = dataset();
        let a = decile_arrivals(&ds, 9).unwrap();
        let p_low: f64 = a
            .count_pdf
            .iter()
            .filter(|(c, _)| f64::from(*c) < a.model.peak_mu / 4.0)
            .map(|(_, p)| p)
            .sum();
        assert!(p_low > 0.25, "low-count mass {p_low}");
        // And there is real mass near the peak mean too.
        let p_peak: f64 = a
            .count_pdf
            .iter()
            .filter(|(c, _)| (f64::from(*c) - a.model.peak_mu).abs() < a.model.peak_mu / 3.0)
            .map(|(_, p)| p)
            .sum();
        assert!(p_peak > 0.2, "peak mass {p_peak}");
    }

    #[test]
    fn sigma_over_mu_near_one_tenth() {
        // The generator follows §5.1's σ = μ/10; the measured ratio at a
        // busy decile must recover it (small-count noise loosens low
        // deciles).
        let ds = dataset();
        let ratio = measured_sigma_over_mu(&ds, 9).unwrap();
        assert!((0.05..0.30).contains(&ratio), "sigma/mu {ratio}");
    }
}
