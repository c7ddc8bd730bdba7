//! Literature category-level traffic models — the §6 baselines.
//!
//! The paper compares against "traditional mobile traffic models available
//! in the literature (\[42, Table II\], \[31, Table XVII\]) that provide
//! throughput and session size/duration for three service categories":
//! Interactive Web (IW), Casual Streaming (CS), Movie Streaming (MS).
//! These models are deliberately *not informed by session-level
//! measurements*; their coarse per-category averages are exactly what the
//! evaluation shows to be insufficient.

use mtd_math::distributions::{Distribution1D, LogNormal10};
use mtd_netsim::services::LitCategory;
use rand::Rng;

/// Category-level session model: log-normal duration plus a fixed mean
/// throughput, volume derived as their product.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CategoryModel {
    /// Median session duration, seconds.
    pub duration_median_s: f64,
    /// Duration spread (decades).
    pub duration_sigma: f64,
    /// Mean application throughput, Mbit/s.
    pub throughput_mbps: f64,
}

impl CategoryModel {
    /// Draws a session `(volume_mb, duration_s, throughput_mbps)`.
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> (f64, f64, f64) {
        let d = LogNormal10::new(self.duration_median_s.log10(), self.duration_sigma)
            .expect("valid duration model")
            .sample(rng)
            .clamp(1.0, 14_400.0);
        let v = self.throughput_mbps * d / 8.0;
        (v, d, self.throughput_mbps)
    }
}

/// The three-category literature model with its session shares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LiteratureModel {
    pub interactive_web: CategoryModel,
    pub casual_streaming: CategoryModel,
    pub movie_streaming: CategoryModel,
    /// Session shares `(IW, CS, MS)` summing to 1.
    pub shares: (f64, f64, f64),
}

/// Session shares taken from the literature (§6.1 "bm b"):
/// IW 50%, CS 42.11%, MS 7.89%.
pub const LIT_SHARES: (f64, f64, f64) = (0.50, 0.4211, 0.0789);

impl LiteratureModel {
    /// The canonical \[42\]/\[31\]-style parameterization: web sessions are
    /// short and slow, casual streams are minutes at ~1.5 Mbit/s, movie
    /// streams are long at ~3 Mbit/s.
    #[must_use]
    pub fn standard() -> LiteratureModel {
        LiteratureModel {
            interactive_web: CategoryModel {
                duration_median_s: 30.0,
                duration_sigma: 0.45,
                throughput_mbps: 0.5,
            },
            casual_streaming: CategoryModel {
                duration_median_s: 150.0,
                duration_sigma: 0.40,
                throughput_mbps: 1.5,
            },
            movie_streaming: CategoryModel {
                duration_median_s: 900.0,
                duration_sigma: 0.35,
                throughput_mbps: 3.0,
            },
            shares: LIT_SHARES,
        }
    }

    /// Replaces the shares (e.g. with the Table 1 aggregation for "bm a").
    #[must_use]
    pub fn with_shares(mut self, shares: (f64, f64, f64)) -> LiteratureModel {
        let total = shares.0 + shares.1 + shares.2;
        self.shares = (shares.0 / total, shares.1 / total, shares.2 / total);
        self
    }

    /// Model of one category.
    #[must_use]
    pub fn category(&self, c: LitCategory) -> &CategoryModel {
        match c {
            LitCategory::InteractiveWeb => &self.interactive_web,
            LitCategory::CasualStreaming => &self.casual_streaming,
            LitCategory::MovieStreaming => &self.movie_streaming,
        }
    }
}

/// Aggregates a service catalog's Table 1 session shares into the three
/// literature categories (the "bm a" shares; the paper reports
/// IW 49.30%, CS 48.46%, MS 2.24% for its Table 1).
#[must_use]
pub fn catalog_category_shares(catalog: &mtd_netsim::services::ServiceCatalog) -> (f64, f64, f64) {
    let mut iw = 0.0;
    let mut cs = 0.0;
    let mut ms = 0.0;
    for s in catalog.services() {
        match s.lit_category() {
            LitCategory::InteractiveWeb => iw += s.session_share,
            LitCategory::CasualStreaming => cs += s.session_share,
            LitCategory::MovieStreaming => ms += s.session_share,
        }
    }
    (iw, cs, ms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtd_netsim::services::ServiceCatalog;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn draws_are_consistent() {
        let m = LiteratureModel::standard();
        let mut rng = SmallRng::seed_from_u64(1);
        for c in [
            LitCategory::InteractiveWeb,
            LitCategory::CasualStreaming,
            LitCategory::MovieStreaming,
        ] {
            let (v, d, t) = m.category(c).draw(&mut rng);
            assert!((v - t * d / 8.0).abs() < 1e-9);
            assert!(d >= 1.0);
        }
    }

    #[test]
    fn movie_streams_are_heavier_than_web() {
        let m = LiteratureModel::standard();
        let mut rng = SmallRng::seed_from_u64(2);
        let mean = |c: LitCategory, rng: &mut SmallRng| {
            (0..2_000).map(|_| m.category(c).draw(rng).0).sum::<f64>() / 2_000.0
        };
        let web = mean(LitCategory::InteractiveWeb, &mut rng);
        let movie = mean(LitCategory::MovieStreaming, &mut rng);
        assert!(movie > 20.0 * web, "movie {movie} vs web {web}");
    }

    #[test]
    fn catalog_shares_match_paper_aggregation() {
        // Paper: IW 49.30%, CS 48.46%, MS 2.24% when aggregating Table 1.
        let (iw, cs, ms) = catalog_category_shares(&ServiceCatalog::paper());
        assert!((iw - 0.493).abs() < 0.03, "IW {iw}");
        assert!((cs - 0.4846).abs() < 0.03, "CS {cs}");
        assert!((ms - 0.0224).abs() < 0.01, "MS {ms}");
    }

    #[test]
    fn with_shares_normalizes() {
        let m = LiteratureModel::standard().with_shares((2.0, 1.0, 1.0));
        assert!((m.shares.0 - 0.5).abs() < 1e-12);
        assert!((m.shares.1 - 0.25).abs() < 1e-12);
    }
}
