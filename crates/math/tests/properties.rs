//! Property-based tests for `mtd-math` invariants.

use mtd_math::cluster::{centroid_cluster, silhouette_score, Merge};
use mtd_math::distributions::{Distribution1D, Exponential, Gaussian, LogNormal10, Pareto};
use mtd_math::emd::{emd_centered, emd_quantile, emd_same_grid};
use mtd_math::fit::{fit_exponential_law, fit_power_law, PowerLawFit};
use mtd_math::histogram::{BinnedPdf, InverseCdf, LogGrid, LogHistogram};
use mtd_math::regression::r_squared;
use mtd_math::rng::{check_cases, vec_of};
use mtd_math::savgol::SavitzkyGolay;
use mtd_math::stats;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn grid() -> LogGrid {
    LogGrid::new(-3.0, 4.0, 350).unwrap()
}

fn arb_lognormal(rng: &mut SmallRng) -> LogNormal10 {
    LogNormal10::new(rng.gen_range(-1.0..2.5), rng.gen_range(0.1..1.2)).unwrap()
}

#[test]
fn histogram_pdf_always_normalized() {
    check_cases("math/histogram_pdf_always_normalized", 64, |rng| {
        let xs = vec_of(rng, 1..200, |r| r.gen_range(1e-3f64..1e4));
        let mut h = LogHistogram::new(grid());
        for x in &xs {
            h.add(*x);
        }
        let pdf = h.to_pdf().unwrap();
        let mass: f64 = pdf.density().iter().sum::<f64>() * pdf.grid().bin_width();
        assert!((mass - 1.0).abs() < 1e-9);
    });
}

#[test]
fn quantiles_monotone() {
    check_cases("math/quantiles_monotone", 64, |rng| {
        let ln = arb_lognormal(rng);
        let p1 = rng.gen_range(0.01f64..0.99);
        let p2 = rng.gen_range(0.01f64..0.99);
        let pdf = BinnedPdf::from_fn(grid(), |u| ln.pdf_log10(u)).unwrap();
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        assert!(pdf.quantile_log10(lo) <= pdf.quantile_log10(hi) + 1e-12);
    });
}

#[test]
fn emd_symmetry_and_identity() {
    check_cases("math/emd_symmetry_and_identity", 64, |rng| {
        let a = arb_lognormal(rng);
        let b = arb_lognormal(rng);
        let pa = BinnedPdf::from_fn(grid(), |u| a.pdf_log10(u)).unwrap();
        let pb = BinnedPdf::from_fn(grid(), |u| b.pdf_log10(u)).unwrap();
        let dab = emd_same_grid(&pa, &pb).unwrap();
        let dba = emd_same_grid(&pb, &pa).unwrap();
        assert!((dab - dba).abs() < 1e-12);
        assert!(emd_same_grid(&pa, &pa).unwrap() < 1e-12);
        assert!(dab >= 0.0);
    });
}

#[test]
fn emd_triangle_inequality() {
    check_cases("math/emd_triangle_inequality", 64, |rng| {
        let a = arb_lognormal(rng);
        let b = arb_lognormal(rng);
        let c = arb_lognormal(rng);
        let pa = BinnedPdf::from_fn(grid(), |u| a.pdf_log10(u)).unwrap();
        let pb = BinnedPdf::from_fn(grid(), |u| b.pdf_log10(u)).unwrap();
        let pc = BinnedPdf::from_fn(grid(), |u| c.pdf_log10(u)).unwrap();
        let ab = emd_same_grid(&pa, &pb).unwrap();
        let bc = emd_same_grid(&pb, &pc).unwrap();
        let ac = emd_same_grid(&pa, &pc).unwrap();
        assert!(ac <= ab + bc + 1e-9);
    });
}

#[test]
fn centered_emd_location_invariant() {
    check_cases("math/centered_emd_location_invariant", 64, |rng| {
        let ln = arb_lognormal(rng);
        let shift = rng.gen_range(-1.0f64..1.0);
        // Same-shape PDFs at different locations are centered-EMD ~0.
        // A wide grid avoids confounding tail truncation with shape.
        let wide = LogGrid::new(-8.0, 9.0, 850).unwrap();
        let shifted = LogNormal10::new(ln.mu() + shift, ln.sigma()).unwrap();
        let pa = BinnedPdf::from_fn(wide, |u| ln.pdf_log10(u)).unwrap();
        let pb = BinnedPdf::from_fn(wide, |u| shifted.pdf_log10(u)).unwrap();
        assert!(emd_centered(&pa, &pb).unwrap() < 0.05);
    });
}

#[test]
fn mixture_mass_conserved() {
    check_cases("math/mixture_mass_conserved", 64, |rng| {
        let a = arb_lognormal(rng);
        let b = arb_lognormal(rng);
        let wa = rng.gen_range(0.1f64..100.0);
        let wb = rng.gen_range(0.1f64..100.0);
        let pa = BinnedPdf::from_fn(grid(), |u| a.pdf_log10(u)).unwrap();
        let pb = BinnedPdf::from_fn(grid(), |u| b.pdf_log10(u)).unwrap();
        let mix = BinnedPdf::mixture(&[(wa, &pa), (wb, &pb)]).unwrap();
        let mass: f64 = mix.density().iter().sum::<f64>() * mix.grid().bin_width();
        assert!((mass - 1.0).abs() < 1e-9);
        // Mixture mean is the weighted mean of component means.
        let expect = (wa * pa.mean_log10() + wb * pb.mean_log10()) / (wa + wb);
        assert!((mix.mean_log10() - expect).abs() < 1e-9);
    });
}

#[test]
fn distribution_quantile_inverts_cdf() {
    check_cases("math/distribution_quantile_inverts_cdf", 64, |rng| {
        let mu = rng.gen_range(-5.0f64..5.0);
        let s = rng.gen_range(0.1f64..3.0);
        let p = rng.gen_range(0.02f64..0.98);
        let g = Gaussian::new(mu, s).unwrap();
        assert!((g.cdf(g.quantile(p)) - p).abs() < 1e-5);
        let e = Exponential::new(s).unwrap();
        assert!((e.cdf(e.quantile(p)) - p).abs() < 1e-9);
        let pa = Pareto::new(1.0 + s, s).unwrap();
        assert!((pa.cdf(pa.quantile(p)) - p).abs() < 1e-9);
    });
}

#[test]
fn power_law_fit_recovers_exact_data() {
    check_cases("math/power_law_fit_recovers_exact_data", 64, |rng| {
        let alpha = rng.gen_range(0.01f64..50.0);
        let beta = rng.gen_range(0.1f64..1.9);
        let ds: Vec<f64> = (1..60).map(f64::from).collect();
        let vs: Vec<f64> = ds.iter().map(|d| alpha * d.powf(beta)).collect();
        let fit = fit_power_law(&ds, &vs, None).unwrap();
        assert!(
            (fit.alpha - alpha).abs() / alpha < 1e-3,
            "alpha {} vs {}",
            fit.alpha,
            alpha
        );
        assert!((fit.beta - beta).abs() < 1e-3);
        assert!(fit.r2 > 0.999);
    });
}

#[test]
fn power_law_inverse_roundtrip() {
    check_cases("math/power_law_inverse_roundtrip", 64, |rng| {
        let alpha = rng.gen_range(0.01f64..50.0);
        let beta = rng.gen_range(0.1f64..1.9);
        let d = rng.gen_range(0.5f64..5000.0);
        let f = PowerLawFit {
            alpha,
            beta,
            r2: 1.0,
        };
        assert!((f.invert(f.predict(d)) - d).abs() / d < 1e-9);
    });
}

#[test]
fn exponential_law_fit_recovers() {
    check_cases("math/exponential_law_fit_recovers", 64, |rng| {
        let amp = rng.gen_range(0.05f64..1.0);
        let rate = rng.gen_range(0.01f64..0.5);
        let shares: Vec<f64> = (0..50).map(|r| amp * (-rate * r as f64).exp()).collect();
        let fit = fit_exponential_law(&shares).unwrap();
        assert!((fit.amplitude - amp).abs() / amp < 1e-6);
        assert!((fit.rate - rate).abs() < 1e-6);
        assert!(fit.r2_log > 0.999);
    });
}

#[test]
fn savgol_smoothing_mass_reasonable() {
    check_cases("math/savgol_smoothing_mass_reasonable", 64, |rng| {
        let ys = vec_of(rng, 20..100, |r| r.gen_range(0.0f64..10.0));
        let sg = SavitzkyGolay::new(3, 2).unwrap();
        let sm = sg.smooth(&ys).unwrap();
        assert_eq!(sm.len(), ys.len());
        // Least-squares smoothing cannot escape the data's range by much.
        let lo = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for v in &sm {
            assert!(*v >= lo - (hi - lo) - 1e-9 && *v <= hi + (hi - lo) + 1e-9);
        }
    });
}

#[test]
fn r_squared_at_most_one() {
    check_cases("math/r_squared_at_most_one", 64, |rng| {
        let ys = vec_of(rng, 2..50, |r| r.gen_range(-100.0f64..100.0));
        let noise: Vec<f64> = (0..50).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let yhat: Vec<f64> = ys.iter().zip(&noise).map(|(y, n)| y + n).collect();
        let r2 = r_squared(&ys, &yhat[..ys.len()]).unwrap();
        assert!(r2 <= 1.0 + 1e-12);
    });
}

#[test]
fn percentile_within_range() {
    check_cases("math/percentile_within_range", 64, |rng| {
        let xs = vec_of(rng, 1..100, |r| r.gen_range(-1e3f64..1e3));
        let p = rng.gen_range(0.0f64..1.0);
        let v = stats::percentile(&xs, p).unwrap();
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
    });
}

#[test]
#[allow(clippy::needless_range_loop)]
fn silhouette_in_unit_interval() {
    check_cases("math/silhouette_in_unit_interval", 64, |rng| {
        let n_per = rng.gen_range(2usize..6);
        let sep = rng.gen_range(1.0f64..50.0);
        // Two planted clusters at distance `sep`, intra-distance ~0.1.
        let n = 2 * n_per;
        let mut dist = vec![vec![0.0; n]; n];
        let mut labels = vec![0usize; n];
        for i in 0..n {
            labels[i] = usize::from(i >= n_per);
            for j in 0..n {
                if i != j {
                    dist[i][j] = if labels.get(j).is_some() && (i >= n_per) == (j >= n_per) {
                        0.1
                    } else {
                        sep
                    };
                }
            }
        }
        let labels: Vec<usize> = (0..n).map(|i| usize::from(i >= n_per)).collect();
        let s = silhouette_score(&dist, &labels).unwrap();
        assert!(s > 0.0 && s <= 1.0);
    });
}

#[test]
fn centered_pdf_has_zero_mean() {
    check_cases("math/centered_pdf_has_zero_mean", 64, |rng| {
        let ln = arb_lognormal(rng);
        let pdf = BinnedPdf::from_fn(grid(), |u| ln.pdf_log10(u)).unwrap();
        let c = pdf.centered().unwrap();
        assert!(c.mean_log10().abs() < 0.02, "mean {}", c.mean_log10());
    });
}

#[test]
fn sampling_stays_in_support() {
    check_cases("math/sampling_stays_in_support", 64, |rng| {
        let ln = arb_lognormal(rng);
        let pdf = BinnedPdf::from_fn(grid(), |u| ln.pdf_log10(u)).unwrap();
        for _ in 0..50 {
            let x = pdf.sample(rng);
            assert!(x >= 10f64.powf(-3.0) * 0.999 && x <= 10f64.powf(4.0) * 1.001);
        }
    });
}

/// A random grid: 1 to 400 bins over 1 to 10 decades.
fn arb_grid(rng: &mut SmallRng) -> LogGrid {
    let lo = rng.gen_range(-5.0f64..1.0);
    let span = rng.gen_range(1.0f64..10.0);
    LogGrid::new(lo, lo + span, rng.gen_range(1usize..400)).unwrap()
}

/// A random PDF on `grid` in one of four shapes — one populated bin,
/// runs of empty bins, support ending before the last bin, or dense —
/// and half the time re-gridded by `centered()`.
fn arb_pdf(rng: &mut SmallRng, grid: LogGrid) -> BinnedPdf {
    let bins = grid.bins();
    let mut density = vec![0.0; bins];
    match rng.gen_range(0u8..4) {
        0 => density[rng.gen_range(0..bins)] = rng.gen_range(0.1f64..10.0),
        1 => {
            let mut populated = rng.gen_bool(0.5);
            for d in &mut density {
                if rng.gen_bool(0.2) {
                    populated = !populated;
                }
                if populated {
                    *d = rng.gen_range(0.0f64..5.0);
                }
            }
        }
        2 => {
            let end = rng.gen_range(1..=bins);
            let start = rng.gen_range(0..end);
            for d in &mut density[start..end] {
                *d = rng.gen_range(0.0f64..5.0);
            }
        }
        _ => {
            for d in &mut density {
                *d = rng.gen_range(0.0f64..5.0);
            }
        }
    }
    if density.iter().all(|d| *d == 0.0) {
        density[bins - 1] = 1.0;
    }
    let pdf = BinnedPdf::from_density(grid, density).unwrap();
    if rng.gen_bool(0.5) {
        pdf.centered().unwrap()
    } else {
        pdf
    }
}

/// A quantile by scanning the CDF from bin 0 for this one `p`.
fn scanned_quantile(pdf: &BinnedPdf, p: f64) -> f64 {
    let p = p.clamp(0.0, 1.0);
    let g = pdf.grid();
    let w = g.bin_width();
    let mut acc = 0.0;
    for (i, d) in pdf.density().iter().enumerate() {
        let mass = d * w;
        if acc + mass >= p {
            let frac = if mass > 0.0 { (p - acc) / mass } else { 0.5 };
            return g.lo_log10() + (i as f64 + frac) * w;
        }
        acc += mass;
    }
    g.hi_log10()
}

/// The quantile-form EMD with one CDF scan per point and PDF.
fn scanned_emd(a: &BinnedPdf, b: &BinnedPdf, shift_a: f64, shift_b: f64) -> f64 {
    let n = 1024;
    let mut acc = 0.0;
    for i in 0..n {
        let p = (f64::from(i) + 0.5) / f64::from(n);
        acc += ((scanned_quantile(a, p) - shift_a) - (scanned_quantile(b, p) - shift_b)).abs();
    }
    acc / f64::from(n)
}

#[test]
fn quantile_walk_matches_per_point_scan() {
    check_cases("math/quantile_walk_matches_per_point_scan", 256, |rng| {
        let grid_a = arb_grid(rng);
        let grid_b = if rng.gen_bool(0.5) {
            grid_a
        } else {
            arb_grid(rng)
        };
        let a = arb_pdf(rng, grid_a);
        let b = arb_pdf(rng, grid_b);

        let d = emd_quantile(&a, &b).unwrap();
        assert_eq!(d.to_bits(), scanned_emd(&a, &b, 0.0, 0.0).to_bits());
        let c = emd_centered(&a, &b).unwrap();
        let scanned = scanned_emd(&a, &b, a.mean_log10(), b.mean_log10());
        assert_eq!(c.to_bits(), scanned.to_bits());
        // Clustering caches distances and reads them either way round.
        assert_eq!(c.to_bits(), emd_centered(&b, &a).unwrap().to_bits());

        // Single quantiles, including clamped and repeated probabilities.
        let mut ps = vec_of(rng, 1..40, |r| r.gen_range(-0.1f64..1.1));
        ps.extend([0.0, 1.0]);
        ps.sort_by(f64::total_cmp);
        let mut walk = a.quantile_walk();
        for p in ps {
            let expect = scanned_quantile(&a, p).to_bits();
            assert_eq!(a.quantile_log10(p).to_bits(), expect, "p={p}");
            assert_eq!(walk.at(p).to_bits(), expect, "walk p={p}");
            assert_eq!(walk.at(p).to_bits(), expect, "repeated p={p}");
        }
    });
}

#[test]
fn inverse_cdf_matches_the_quantile_walk() {
    check_cases("math/inverse_cdf_matches_the_quantile_walk", 256, |rng| {
        let grid = arb_grid(rng);
        let pdf = arb_pdf(rng, grid);
        let inverse = InverseCdf::new(pdf.clone());
        // Every running sum of the walk and one ulp either side, so each
        // bin boundary is hit from below, on and above; p = 0 and p past
        // the rounded total (which may fall short of 1); clamped and NaN
        // probabilities; and plain draws.
        let w = pdf.grid().bin_width();
        let mut ps = vec![0.0, -0.0, 1.0, -1.0, 2.0, f64::NAN, f64::INFINITY];
        let mut below = 0.0;
        for d in pdf.density() {
            below += d * w;
            ps.extend([below.next_down(), below, below.next_up()]);
        }
        ps.extend(vec_of(rng, 1..40, |r| r.gen::<f64>()));
        for p in ps {
            let walked = pdf.quantile_walk().at(p);
            assert_eq!(
                inverse.quantile_log10(p).to_bits(),
                walked.to_bits(),
                "p={p}"
            );
        }
        // A draw takes the same `p` from the generator as `BinnedPdf::sample`.
        let seed = rng.gen::<u64>();
        let (mut a, mut b) = (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
        for _ in 0..20 {
            assert_eq!(
                pdf.sample(&mut a).to_bits(),
                inverse.sample(&mut b).to_bits()
            );
        }
    });
}

/// [`LogGrid::bin_of_log10`] as written with `floor` and `clamp`.
fn floored_bin(grid: &LogGrid, u: f64) -> usize {
    let idx = ((u - grid.lo_log10()) / grid.bin_width()).floor();
    idx.clamp(0.0, (grid.bins() - 1) as f64) as usize
}

#[test]
fn bin_of_log10_matches_floor_and_clamp() {
    check_cases("math/bin_of_log10_matches_floor_and_clamp", 128, |rng| {
        let g = if rng.gen_bool(0.25) {
            grid()
        } else {
            arb_grid(rng)
        };
        let (lo, hi) = (g.lo_log10(), g.hi_log10());
        let mut us = vec![
            f64::NAN,
            0.0,
            -0.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            f64::MIN,
            lo - 1.0,
            hi + 1.0,
            hi + 1e6,
        ];
        // Every bin edge, the last bin's upper edge included, and the
        // neighbouring f64s on either side.
        for i in 0..=g.bins() {
            let edge = lo + i as f64 * g.bin_width();
            us.extend([edge.next_down(), edge, edge.next_up()]);
        }
        us.extend(vec_of(rng, 1..40, |r| r.gen_range(lo - 2.0..hi + 2.0)));
        for u in us {
            assert_eq!(g.bin_of_log10(u), floored_bin(&g, u), "u={u} on {g:?}");
        }
    });
}

/// The merge sequence by the all-pairs loop: every active pair measured
/// again after every merge.
fn all_pairs_merges(items: &[(f64, BinnedPdf)]) -> Vec<Merge> {
    let mut active: Vec<(usize, f64, BinnedPdf)> = items
        .iter()
        .enumerate()
        .map(|(i, (w, p))| (i, *w, p.centered().unwrap()))
        .collect();
    let mut merges = Vec::new();
    let mut next_node = items.len();
    while active.len() > 1 {
        let mut best = (0usize, 1usize, f64::INFINITY);
        for i in 0..active.len() {
            for j in (i + 1)..active.len() {
                let d = emd_centered(&active[i].2, &active[j].2).unwrap();
                if d < best.2 {
                    best = (i, j, d);
                }
            }
        }
        let (i, j, distance) = best;
        let b = active.swap_remove(j);
        let a = active.swap_remove(i);
        let centroid = BinnedPdf::mixture(&[(a.1, &a.2), (b.1, &b.2)]).unwrap();
        merges.push(Merge {
            a: a.0,
            b: b.0,
            distance,
        });
        active.push((next_node, a.1 + b.1, centroid));
        next_node += 1;
    }
    merges
}

fn assert_same_merges(items: &[(f64, BinnedPdf)]) {
    let got = centroid_cluster(items).unwrap();
    let expect = all_pairs_merges(items);
    assert_eq!(got.merges().len(), expect.len());
    for (k, (g, e)) in got.merges().iter().zip(&expect).enumerate() {
        assert_eq!((g.a, g.b), (e.a, e.b), "merge {k}");
        assert_eq!(g.distance.to_bits(), e.distance.to_bits(), "merge {k}");
    }
}

#[test]
fn centroid_cluster_matches_all_pairs_loop() {
    // The planted set: narrow and wide shapes at several locations.
    let planted: Vec<(f64, BinnedPdf)> = [
        (0.0, 0.20),
        (1.0, 0.22),
        (2.0, 0.18),
        (0.5, 1.20),
        (1.5, 1.25),
        (2.5, 1.15),
    ]
    .iter()
    .map(|&(mu, sigma)| {
        let ln = LogNormal10::new(mu, sigma).unwrap();
        let g = LogGrid::new(-4.0, 5.0, 450).unwrap();
        (1.0, BinnedPdf::from_fn(g, |u| ln.pdf_log10(u)).unwrap())
    })
    .collect();
    assert_same_merges(&planted);

    check_cases("math/centroid_cluster_matches_all_pairs_loop", 24, |rng| {
        let grid = arb_grid(rng);
        let mut items: Vec<(f64, BinnedPdf)> = vec_of(rng, 1..10, |r| {
            (r.gen_range(0.5f64..100.0), arb_pdf(r, grid))
        });
        // Duplicates tie exactly: identical PDFs sit at distance 0.
        if rng.gen_bool(0.5) {
            for _ in 0..rng.gen_range(1usize..4) {
                let copy = items[rng.gen_range(0..items.len())].clone();
                let at = rng.gen_range(0..=items.len());
                items.insert(at, copy);
            }
        }
        assert_same_merges(&items);
    });
}
