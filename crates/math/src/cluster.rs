//! Centroid hierarchical clustering and the Silhouette score.
//!
//! §4.3 of the paper clusters normalized volume PDFs: "this algorithm
//! iteratively groups the two PDFs at minimum distance, computes their
//! average via (2), adds it to the set of PDFs in place of the original
//! pair, and recomputes distances from the aggregate to all other PDFs".
//! That is *centroid* linkage with Eq. (2) mixtures as centroids and EMD as
//! the metric. The cluster count is selected with the Silhouette score
//! (Fig 6b), which drops sharply past 3 clusters in the paper.

use crate::emd::emd_centered;
use crate::histogram::BinnedPdf;
use crate::{MathError, Result};

/// One merge step of the dendrogram: clusters `a` and `b` (node ids) were
/// joined at `distance` into a new node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Merge {
    pub a: usize,
    pub b: usize,
    pub distance: f64,
}

/// Result of a hierarchical clustering run: `n` leaves (ids `0..n`) plus
/// `n−1` internal nodes (ids `n..2n−1`) created by [`Merge`]s in order.
#[derive(Debug, Clone)]
pub struct Dendrogram {
    n_leaves: usize,
    merges: Vec<Merge>,
}

impl Dendrogram {
    /// Number of leaf items.
    #[must_use]
    pub fn n_leaves(&self) -> usize {
        self.n_leaves
    }

    /// Merge sequence (length `n_leaves − 1`).
    #[must_use]
    pub fn merges(&self) -> &[Merge] {
        &self.merges
    }

    /// Cuts the tree into `k` clusters, returning a label in `0..k` for
    /// each leaf. Labels are renumbered in first-appearance order.
    pub fn cut(&self, k: usize) -> Result<Vec<usize>> {
        if k == 0 || k > self.n_leaves {
            return Err(MathError::InvalidParameter(
                "cut: k must be in 1..=n_leaves",
            ));
        }
        // Apply the first n-k merges with a union-find.
        let total = 2 * self.n_leaves - 1;
        let mut parent: Vec<usize> = (0..total).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (i, m) in self.merges.iter().enumerate() {
            if i >= self.n_leaves - k {
                break;
            }
            let node = self.n_leaves + i;
            let ra = find(&mut parent, m.a);
            let rb = find(&mut parent, m.b);
            parent[ra] = node;
            parent[rb] = node;
        }
        let mut next = 0;
        let mut map = std::collections::HashMap::new();
        let labels = (0..self.n_leaves)
            .map(|leaf| {
                let root = find(&mut parent, leaf);
                *map.entry(root).or_insert_with(|| {
                    let l = next;
                    next += 1;
                    l
                })
            })
            .collect();
        Ok(labels)
    }
}

/// Pairwise distance matrix (symmetric, zero diagonal) from a slice of
/// PDFs using mean-centered EMD — the Fig 6a similarity matrix.
pub fn emd_distance_matrix(pdfs: &[&BinnedPdf]) -> Result<Vec<Vec<f64>>> {
    let n = pdfs.len();
    if n == 0 {
        return Err(MathError::EmptyInput("emd_distance_matrix"));
    }
    let mut m = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = emd_centered(pdfs[i], pdfs[j])?;
            m[i][j] = d;
            m[j][i] = d;
        }
    }
    Ok(m)
}

/// Centroid hierarchical clustering of weighted PDFs.
///
/// `items` pairs each PDF with its mixture weight (session count); merged
/// clusters are represented by their Eq. (2) mixture, and distances are
/// recomputed against that centroid, exactly as described in §4.3.
///
/// Only the new centroid's distances are computed after a merge; every
/// other pair keeps its cached distance, which [`emd_centered`] would
/// reproduce bit for bit (it is a pure function, symmetric to the bit).
/// That is `(n−1)²` distances for `n` items instead of one full pair scan
/// per merge.
pub fn centroid_cluster(items: &[(f64, BinnedPdf)]) -> Result<Dendrogram> {
    let n = items.len();
    if n == 0 {
        return Err(MathError::EmptyInput("centroid_cluster"));
    }
    if n == 1 {
        return Ok(Dendrogram {
            n_leaves: 1,
            merges: Vec::new(),
        });
    }

    // Active clusters: (node id, weight, centroid pdf). Inputs are
    // zero-mean normalized up front (§4.3 step i) so that centroids —
    // Eq. (2) mixtures — compare by *shape* rather than location.
    struct Active {
        node: usize,
        weight: f64,
        centroid: BinnedPdf,
    }
    let mut active: Vec<Active> = items
        .iter()
        .enumerate()
        .map(|(i, (w, p))| {
            Ok(Active {
                node: i,
                weight: *w,
                centroid: p.centered()?,
            })
        })
        .collect::<Result<_>>()?;
    // `dist[i][j]` is the distance between `active[i]` and `active[j]`;
    // rows and columns move through the same swaps as `active`.
    let centroids: Vec<&BinnedPdf> = active.iter().map(|a| &a.centroid).collect();
    let mut dist = emd_distance_matrix(&centroids)?;
    let mut merges = Vec::with_capacity(n - 1);
    let mut next_node = n;

    while active.len() > 1 {
        // Find the closest pair of active centroids; scanning in (i, j)
        // order with a strict `<` settles a tie on the first such pair.
        let mut best = (0usize, 1usize, f64::INFINITY);
        for (i, row) in dist.iter().enumerate() {
            for (j, &d) in row.iter().enumerate().skip(i + 1) {
                if d < best.2 {
                    best = (i, j, d);
                }
            }
        }
        let (i, j, distance) = best;
        // j > i, so removing j first leaves index i valid.
        let b = active.swap_remove(j);
        let a = active.swap_remove(i);
        dist.swap_remove(j);
        dist.swap_remove(i);
        for row in &mut dist {
            row.swap_remove(j);
            row.swap_remove(i);
        }
        let centroid = BinnedPdf::mixture(&[(a.weight, &a.centroid), (b.weight, &b.centroid)])?;
        let mut new_row = active
            .iter()
            .map(|other| emd_centered(&other.centroid, &centroid))
            .collect::<Result<Vec<f64>>>()?;
        for (row, &d) in dist.iter_mut().zip(&new_row) {
            row.push(d);
        }
        new_row.push(0.0);
        dist.push(new_row);
        merges.push(Merge {
            a: a.node,
            b: b.node,
            distance,
        });
        active.push(Active {
            node: next_node,
            weight: a.weight + b.weight,
            centroid,
        });
        next_node += 1;
    }

    Ok(Dendrogram {
        n_leaves: n,
        merges,
    })
}

/// Mean Silhouette score of a labeled clustering given a distance matrix.
///
/// For each item: `s = (b − a) / max(a, b)` where `a` is the mean
/// intra-cluster distance and `b` the smallest mean distance to another
/// cluster. Singleton clusters score 0 (the standard convention). Values
/// near 1 mean well-separated clusters; near 0, overlapping ones.
pub fn silhouette_score(dist: &[Vec<f64>], labels: &[usize]) -> Result<f64> {
    let n = labels.len();
    if n == 0 {
        return Err(MathError::EmptyInput("silhouette_score"));
    }
    if dist.len() != n || dist.iter().any(|row| row.len() != n) {
        return Err(MathError::DimensionMismatch {
            expected: n,
            got: dist.len(),
        });
    }
    let k = labels.iter().max().map_or(0, |m| m + 1);
    if k < 2 {
        return Err(MathError::InvalidParameter(
            "silhouette needs >= 2 clusters",
        ));
    }
    let mut cluster_sizes = vec![0usize; k];
    for &l in labels {
        cluster_sizes[l] += 1;
    }

    let mut total = 0.0;
    for i in 0..n {
        let li = labels[i];
        if cluster_sizes[li] <= 1 {
            continue; // s = 0 for singletons
        }
        // Mean distance to each cluster.
        let mut sums = vec![0.0; k];
        for j in 0..n {
            if i != j {
                sums[labels[j]] += dist[i][j];
            }
        }
        let a = sums[li] / (cluster_sizes[li] - 1) as f64;
        let mut b = f64::INFINITY;
        for (c, &size) in cluster_sizes.iter().enumerate() {
            if c != li && size > 0 {
                b = b.min(sums[c] / size as f64);
            }
        }
        let denom = a.max(b);
        if denom > 0.0 {
            total += (b - a) / denom;
        }
    }
    Ok(total / n as f64)
}

/// Silhouette scores for each cut level `2..=max_k` of a dendrogram —
/// the series plotted in Fig 6b.
pub fn silhouette_profile(
    dendrogram: &Dendrogram,
    dist: &[Vec<f64>],
    max_k: usize,
) -> Result<Vec<(usize, f64)>> {
    let mut out = Vec::new();
    for k in 2..=max_k.min(dendrogram.n_leaves().saturating_sub(1)) {
        let labels = dendrogram.cut(k)?;
        out.push((k, silhouette_score(dist, &labels)?));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distributions::LogNormal10;
    use crate::histogram::LogGrid;

    fn pdf(mu: f64, sigma: f64) -> BinnedPdf {
        let g = LogGrid::new(-4.0, 5.0, 450).unwrap();
        let ln = LogNormal10::new(mu, sigma).unwrap();
        BinnedPdf::from_fn(g, |u| ln.pdf_log10(u)).unwrap()
    }

    /// Two planted shape groups: narrow (σ=0.2) and wide (σ=1.2) PDFs at
    /// various locations (location is removed by centering).
    fn planted() -> Vec<(f64, BinnedPdf)> {
        vec![
            (1.0, pdf(0.0, 0.20)),
            (1.0, pdf(1.0, 0.22)),
            (1.0, pdf(2.0, 0.18)),
            (1.0, pdf(0.5, 1.20)),
            (1.0, pdf(1.5, 1.25)),
            (1.0, pdf(2.5, 1.15)),
        ]
    }

    #[test]
    fn cluster_recovers_planted_groups() {
        let items = planted();
        let dendro = centroid_cluster(&items).unwrap();
        let labels = dendro.cut(2).unwrap();
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[3], labels[4]);
        assert_eq!(labels[4], labels[5]);
        assert_ne!(labels[0], labels[3]);
    }

    #[test]
    fn silhouette_high_for_true_k() {
        let items = planted();
        let pdfs: Vec<&BinnedPdf> = items.iter().map(|(_, p)| p).collect();
        let dist = emd_distance_matrix(&pdfs).unwrap();
        let dendro = centroid_cluster(&items).unwrap();
        let s2 = silhouette_score(&dist, &dendro.cut(2).unwrap()).unwrap();
        let s4 = silhouette_score(&dist, &dendro.cut(4).unwrap()).unwrap();
        assert!(s2 > 0.7, "s2 = {s2}");
        assert!(s2 > s4, "s2 = {s2}, s4 = {s4}");
    }

    #[test]
    fn cut_extremes() {
        let items = planted();
        let dendro = centroid_cluster(&items).unwrap();
        let all_one = dendro.cut(1).unwrap();
        assert!(all_one.iter().all(|l| *l == 0));
        let singletons = dendro.cut(items.len()).unwrap();
        let mut sorted = singletons.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), items.len());
        assert!(dendro.cut(0).is_err());
        assert!(dendro.cut(items.len() + 1).is_err());
    }

    #[test]
    fn merges_count_is_n_minus_one() {
        let items = planted();
        let dendro = centroid_cluster(&items).unwrap();
        assert_eq!(dendro.merges().len(), items.len() - 1);
        assert_eq!(dendro.n_leaves(), items.len());
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn distance_matrix_is_symmetric_zero_diagonal() {
        let items = planted();
        let pdfs: Vec<&BinnedPdf> = items.iter().map(|(_, p)| p).collect();
        let m = emd_distance_matrix(&pdfs).unwrap();
        for i in 0..m.len() {
            assert_eq!(m[i][i], 0.0);
            for j in 0..m.len() {
                assert!((m[i][j] - m[j][i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn silhouette_errors() {
        let dist = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        assert!(silhouette_score(&dist, &[0, 0]).is_err()); // one cluster
        assert!(silhouette_score(&dist, &[]).is_err());
        assert!(silhouette_score(&[vec![0.0]], &[0, 1]).is_err());
    }

    #[test]
    fn silhouette_profile_runs_over_levels() {
        let items = planted();
        let pdfs: Vec<&BinnedPdf> = items.iter().map(|(_, p)| p).collect();
        let dist = emd_distance_matrix(&pdfs).unwrap();
        let dendro = centroid_cluster(&items).unwrap();
        let profile = silhouette_profile(&dendro, &dist, 5).unwrap();
        assert_eq!(profile.first().map(|(k, _)| *k), Some(2));
        assert!(profile.len() >= 3);
    }

    #[test]
    fn single_item_dendrogram() {
        let items = vec![(1.0, pdf(0.0, 0.3))];
        let d = centroid_cluster(&items).unwrap();
        assert_eq!(d.n_leaves(), 1);
        assert_eq!(d.cut(1).unwrap(), vec![0]);
    }
}
