//! Property tests: the pool's ordering and determinism guarantees hold
//! for arbitrary job counts, thread counts, and per-job workloads.

use mtd_math::rng::check_cases;
use mtd_par::Pool;
use rand::Rng;

/// A job function whose result depends on the index in a non-trivial way
/// (so misplaced results cannot accidentally collide).
fn job(i: usize, salt: u64) -> u64 {
    let mut x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
    x ^= x >> 33;
    x.wrapping_mul(0xFF51_AFD7_ED55_8CCD)
}

#[test]
fn par_map_matches_sequential_map() {
    check_cases("par/par_map", 64, |rng| {
        let (n, threads, salt) = (
            rng.gen_range(0usize..150),
            rng.gen_range(1usize..9),
            rng.gen(),
        );
        let seq: Vec<u64> = (0..n).map(|i| job(i, salt)).collect();
        let par = Pool::new(threads).par_map_indexed(n, |i| job(i, salt));
        assert_eq!(par, seq);
    });
}

/// Each worker's state: the indices it ran and a wrapping sum of their
/// jobs.
type Tally = (Vec<usize>, u64);

#[test]
fn fold_runs_each_index_once_and_merges_to_the_sequential_fold() {
    check_cases("par/fold", 64, |rng| {
        let (n, threads, salt) = (
            rng.gen_range(0usize..150),
            rng.gen_range(1usize..9),
            rng.gen(),
        );
        let mut states: Vec<Tally> = vec![(Vec::new(), 0); threads];
        let results = Pool::new(threads).par_fold(n, &mut states, |(ran, sum), i| {
            ran.push(i);
            *sum = sum.wrapping_add(job(i, salt));
            job(i, salt)
        });
        let seq: Vec<u64> = (0..n).map(|i| job(i, salt)).collect();
        assert_eq!(results, seq, "results come back in input order");
        let mut ran: Vec<usize> = states.iter().flat_map(|(ran, _)| ran.clone()).collect();
        ran.sort_unstable();
        assert_eq!(ran, (0..n).collect::<Vec<_>>(), "every index runs once");
        let merged = states
            .iter()
            .fold(0u64, |acc, (_, sum)| acc.wrapping_add(*sum));
        let sequential = seq.iter().fold(0u64, |acc, v| acc.wrapping_add(*v));
        assert_eq!(merged, sequential);
    });
}

#[test]
fn scope_executes_each_job_exactly_once() {
    use std::sync::atomic::{AtomicU32, Ordering};
    check_cases("par/scope_once", 64, |rng| {
        let (n, threads) = (rng.gen_range(0usize..80), rng.gen_range(1usize..6));
        let runs: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        Pool::new(threads).scope(|s| {
            for cell in &runs {
                s.spawn(move || {
                    cell.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert!(runs.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    });
}
