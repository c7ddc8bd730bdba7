//! Determinism under adversarial scheduling: with seeded steal-order
//! shuffles and injected worker stalls active, `par_map_indexed` and
//! `par_fold` must stay bit-identical to the sequential run at every
//! thread count — the mtd-par contract cannot depend on which worker
//! steals what.
//!
//! All scenarios live in one test function because the fault runtime is
//! process-global.

use mtd_fault::FaultPlan;
use mtd_par::Pool;

/// A job heavy enough (~1k SplitMix64 steps) that workers actually
/// contend and steal, keyed on the input index.
fn work(i: usize) -> u64 {
    let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ (i as u64);
    let mut acc = 0u64;
    for _ in 0..1_000 {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        acc ^= z ^ (z >> 31);
    }
    acc
}

#[test]
fn maps_stay_bit_identical_under_shuffles_and_stalls() {
    assert!(
        mtd_fault::compiled_in(),
        "this test binary must enable mtd-fault/fault-inject (dev-dependency)"
    );
    const N: usize = 257;
    let expect: Vec<u64> = (0..N).map(work).collect();
    let xor_all = expect.iter().fold(0, |acc, x| acc ^ x);

    let plans = [
        ("par.steal.shuffle=1", 11u64),
        ("par.stall=0.2", 12),
        ("par.steal.shuffle=1,par.stall=0.1", 13),
    ];
    for (spec, seed) in plans {
        let plan = FaultPlan::parse(spec, seed).unwrap();
        mtd_fault::install(plan);
        for threads in 1..=8 {
            let got = Pool::new(threads).par_map_indexed(N, work);
            assert_eq!(got, expect, "spec={spec} threads={threads}");

            // Per worker: how many indices it ran and the XOR of their
            // jobs, which any split of the indices merges back exactly.
            let mut states = vec![(0usize, 0u64); threads];
            let got = Pool::new(threads).par_fold(N, &mut states, |(ran, acc), i| {
                let value = work(i);
                *ran += 1;
                *acc ^= value;
                value
            });
            assert_eq!(got, expect, "spec={spec} threads={threads}");
            let ran: usize = states.iter().map(|(ran, _)| ran).sum();
            let merged = states.iter().fold(0, |acc, (_, x)| acc ^ x);
            assert_eq!(ran, N, "spec={spec} threads={threads}");
            assert_eq!(merged, xor_all, "spec={spec} threads={threads}");
        }
        mtd_fault::clear();
    }
    assert!(!mtd_fault::active());
}
