//! Deterministic RNG helpers.
//!
//! Every stochastic component in the workspace takes an explicit
//! [`rand::rngs::SmallRng`]; these helpers derive independent child seeds
//! from a master seed so that sub-systems (per-BS arrival processes, per-UE
//! mobility, per-experiment replications) are decorrelated but reproducible.
//! [`check_cases`] runs the workspace's property tests on the same seeds.

use mtd_telemetry::derive_seed;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Creates a [`SmallRng`] for a named sub-stream of a master seed, seeded
/// through [`mtd_telemetry::derive_seed`].
#[must_use]
pub fn stream_rng(master: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(derive_seed(master, stream))
}

/// Hashes an arbitrary label into a stream id (FNV-1a).
#[must_use]
pub fn stream_id(label: &str) -> u64 {
    mtd_telemetry::fnv64(label.as_bytes())
}

/// Runs a property test: calls `case` with `cases` generators whose seeds
/// are SplitMix64 children of the test's `name`, so every run draws the
/// same inputs. A failing case panics with its seed; replay it with
/// `case(&mut SmallRng::seed_from_u64(seed))`. There is no shrinking.
///
/// # Panics
/// Panics, naming the case and its seed, when `case` panics.
pub fn check_cases(name: &str, cases: u64, mut case: impl FnMut(&mut SmallRng)) {
    let master = stream_id(name);
    for i in 0..cases {
        let seed = derive_seed(master, i);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            case(&mut SmallRng::seed_from_u64(seed));
        }));
        if let Err(payload) = outcome {
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic");
            panic!("{name}: case {i} of {cases} failed (seed {seed:#018x}): {message}");
        }
    }
}

/// Draws of `item`, as many as a uniform draw from `lens` — the
/// variable-length input of a [`check_cases`] property.
pub fn vec_of<T>(
    rng: &mut SmallRng,
    lens: std::ops::Range<usize>,
    mut item: impl FnMut(&mut SmallRng) -> T,
) -> Vec<T> {
    let len = rng.gen_range(lens);
    (0..len).map(|_| item(rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_rng_reproducible() {
        let mut a = stream_rng(9, 3);
        let mut b = stream_rng(9, 3);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn stream_id_distinguishes_labels() {
        assert_ne!(stream_id("arrivals"), stream_id("mobility"));
        assert_eq!(stream_id("x"), stream_id("x"));
    }

    #[test]
    fn check_cases_is_reproducible_and_reports_the_failing_seed() {
        let mut first = Vec::new();
        check_cases("rng/replay", 8, |rng| first.push(rng.gen::<u64>()));
        let mut again = Vec::new();
        check_cases("rng/replay", 8, |rng| again.push(rng.gen::<u64>()));
        assert_eq!(first, again);
        first.dedup();
        assert_eq!(first.len(), 8, "cases share a seed");

        let failed = std::panic::catch_unwind(|| {
            check_cases("rng/fails", 50, |rng| {
                assert!(rng.gen::<f64>() < 0.9, "drew high")
            });
        })
        .expect_err("some case draws above 0.9");
        let message = failed.downcast_ref::<String>().unwrap();
        assert!(message.starts_with("rng/fails: case "), "{message}");
        assert!(
            message.contains("(seed 0x") && message.ends_with("drew high"),
            "{message}"
        );
        // The printed seed replays the failure on its own.
        let seed = message
            .split("(seed ")
            .nth(1)
            .unwrap()
            .split(')')
            .next()
            .unwrap();
        let seed = u64::from_str_radix(seed.trim_start_matches("0x"), 16).unwrap();
        assert!(SmallRng::seed_from_u64(seed).gen::<f64>() >= 0.9);
    }

    #[test]
    fn vec_of_respects_the_length_range() {
        let mut rng = SmallRng::seed_from_u64(4);
        for _ in 0..200 {
            let v = vec_of(&mut rng, 2..5, |r| r.gen::<u8>());
            assert!((2..5).contains(&v.len()));
        }
    }
}
