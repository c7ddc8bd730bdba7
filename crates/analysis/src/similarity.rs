//! Fig 6a: the inter-service similarity matrix.
//!
//! Pairwise EMD between zero-mean-normalized per-service volume PDFs
//! (§4.3 steps i–ii).

use mtd_dataset::{Dataset, SliceFilter};
use mtd_math::emd::emd_centered;
use mtd_math::histogram::BinnedPdf;
use mtd_math::{MathError, Result};

/// Per-service PDFs plus their pairwise distance matrix.
#[derive(Debug, Clone)]
pub struct SimilarityAnalysis {
    /// Service names, in matrix order.
    pub names: Vec<String>,
    /// Session weights (for downstream Eq. 2 centroids).
    pub weights: Vec<f64>,
    /// All-BS/all-day volume PDFs, in matrix order.
    pub pdfs: Vec<BinnedPdf>,
    /// Pairwise mean-centered EMD matrix (symmetric, zero diagonal).
    pub matrix: Vec<Vec<f64>>,
}

/// Builds the similarity analysis over every service with data.
pub fn service_similarity(dataset: &Dataset) -> Result<SimilarityAnalysis> {
    service_similarity_pooled(dataset, &mtd_par::pool())
}

/// [`service_similarity`] on an explicit pool. PDF extraction fans out
/// per service and the upper-triangular EMD matrix fans out per row;
/// every cell is an independent [`emd_centered`] call, so the matrix is
/// bit-identical for every thread count.
pub fn service_similarity_pooled(
    dataset: &Dataset,
    pool: &mtd_par::Pool,
) -> Result<SimilarityAnalysis> {
    let _span = mtd_telemetry::span!("emd.matrix");
    let all = SliceFilter::all();
    let mut services = Vec::new();
    for s in 0..dataset.n_services() as u16 {
        let sessions = dataset.sessions(s, &all);
        if sessions > 0.0 {
            services.push((s, sessions));
        }
    }
    let mut names = Vec::with_capacity(services.len());
    let mut weights = Vec::with_capacity(services.len());
    for &(s, sessions) in &services {
        names.push(dataset.service_name(s).to_string());
        weights.push(sessions);
    }
    let mut pdfs = Vec::with_capacity(services.len());
    for pdf in pool.par_map_indexed(services.len(), |i| dataset.volume_pdf(services[i].0, &all)) {
        pdfs.push(pdf?);
    }

    let n = pdfs.len();
    if n == 0 {
        return Err(MathError::EmptyInput("emd_distance_matrix"));
    }
    // Row i holds the strict upper triangle (i, i+1..n); scanning rows in
    // order keeps the sequential "first error in (i, j) order" semantics.
    // Rows are cheap relative to scheduling, so they go out in contiguous
    // grains rather than one job per row.
    let rows = pool.par_map_chunked(n, pool.auto_grain(n), |i| {
        let _span = mtd_telemetry::span!("emd.row");
        ((i + 1)..n)
            .map(|j| emd_centered(&pdfs[i], &pdfs[j]))
            .collect::<Result<Vec<f64>>>()
    });
    let mut matrix = vec![vec![0.0; n]; n];
    for (i, row) in rows.into_iter().enumerate() {
        for (off, d) in row?.into_iter().enumerate() {
            let j = i + 1 + off;
            matrix[i][j] = d;
            matrix[j][i] = d;
        }
    }
    Ok(SimilarityAnalysis {
        names,
        weights,
        pdfs,
        matrix,
    })
}

impl SimilarityAnalysis {
    /// Index of a service by name.
    #[must_use]
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtd_netsim::geo::Topology;
    use mtd_netsim::services::ServiceCatalog;
    use mtd_netsim::ScenarioConfig;

    fn analysis() -> SimilarityAnalysis {
        let config = ScenarioConfig::small_test();
        let topology = Topology::generate(config.n_bs, config.seed);
        let catalog = ServiceCatalog::paper();
        let dataset = Dataset::build(&config, &topology, &catalog);
        service_similarity(&dataset).unwrap()
    }

    #[test]
    fn matrix_is_metric_like() {
        let a = analysis();
        let n = a.matrix.len();
        assert_eq!(n, a.names.len());
        for i in 0..n {
            assert_eq!(a.matrix[i][i], 0.0);
            for j in 0..n {
                assert!((a.matrix[i][j] - a.matrix[j][i]).abs() < 1e-12);
                assert!(a.matrix[i][j] >= 0.0);
            }
        }
    }

    #[test]
    fn same_class_services_are_closer() {
        // Shape distance: Deezer↔Spotify (both audio streaming with twin
        // song modes) must be closer than Deezer↔Facebook.
        let a = analysis();
        let dz = a.index_of("Deezer").unwrap();
        let sp = a.index_of("Spotify").unwrap();
        let fb = a.index_of("Facebook").unwrap();
        assert!(
            a.matrix[dz][sp] < a.matrix[dz][fb],
            "deezer-spotify {} vs deezer-facebook {}",
            a.matrix[dz][sp],
            a.matrix[dz][fb]
        );
    }

    #[test]
    fn matrix_is_bit_identical_across_pool_sizes() {
        let config = ScenarioConfig::small_test();
        let topology = Topology::generate(config.n_bs, config.seed);
        let catalog = ServiceCatalog::paper();
        let dataset = Dataset::build(&config, &topology, &catalog);
        let baseline = service_similarity_pooled(&dataset, &mtd_par::Pool::new(1)).unwrap();
        for threads in [2, 4, 7] {
            let par = service_similarity_pooled(&dataset, &mtd_par::Pool::new(threads)).unwrap();
            assert_eq!(par.names, baseline.names, "threads={threads}");
            // Exact float equality is intentional: same calls, same order.
            assert_eq!(par.matrix, baseline.matrix, "threads={threads}");
        }
    }
}
