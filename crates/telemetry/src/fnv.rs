//! FNV-1a 64: the workspace's one content hash — fault site ids, RNG
//! stream labels, store and spill digests, the stress threshold pin and
//! the chaos stage digests. Not cryptographic; corruption past it is
//! caught by the store and manifest CRCs.
//!
//! Beside it sits the workspace's one seed mixer, [`derive_seed`], which
//! turns a master seed and such a label hash into a child seed.

/// Streaming FNV-1a 64-bit hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher.
    #[must_use]
    pub const fn new() -> Fnv64 {
        Fnv64(Self::OFFSET)
    }

    /// Feeds bytes.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(Self::PRIME);
        }
        self.0 = h;
    }

    /// The digest so far.
    #[must_use]
    pub const fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot FNV-1a 64 digest.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.finish()
}

/// Derives a child seed from a master seed and a stream label.
///
/// Uses the SplitMix64 finalizer, which is a bijective avalanche mixer, so
/// distinct `(seed, stream)` pairs map to well-spread child seeds.
#[must_use]
pub fn derive_seed(master: u64, stream: u64) -> u64 {
    let mut z = master ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn streaming_equals_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut h = Fnv64::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), fnv64(data));
    }

    #[test]
    fn derive_seed_is_splitmix64() {
        // Stream 1 of master 0 is SplitMix64's first output from state 0.
        assert_eq!(derive_seed(0, 1), 0xe220_a839_7b1d_cdaf);
        assert_eq!(derive_seed(42, 7), 0x53ad_348a_f3dd_af4b);
    }

    #[test]
    fn derive_seed_separates_streams() {
        assert_ne!(derive_seed(42, 1), derive_seed(42, 2));
        assert_ne!(derive_seed(1, 42), derive_seed(2, 42));
    }
}
