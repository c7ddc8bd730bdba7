//! Canonical stage digests for the chaos harness.
//!
//! Every pipeline stage (measurement dataset, fitted registry, sampled
//! sessions, engine replay, exported bytes) reduces to one `u64` via
//! FNV-1a over a canonical byte stream: fixed field order, little-endian
//! integers, `f64::to_bits` for floats, length-prefixed strings and
//! sequences. Two runs produce the same digest iff every contributing
//! bit is identical — exactly the granularity the differential harness
//! needs, with no allocation beyond the dataset's own canonical encoding.

use mobile_traffic_dists_core_reexports::*;

/// Internal alias module so the digest functions can name types tersely.
mod mobile_traffic_dists_core_reexports {
    pub use mtd_core::{GeneratedSession, ModelRegistry};
    pub use mtd_dataset::Dataset;
    pub use mtd_netsim::engine::{EngineSink, RunStats};
    pub use mtd_netsim::session::SessionObservation;
}

/// Streaming FNV-1a 64-bit hasher over a canonical byte encoding.
#[derive(Debug, Clone, Default)]
pub struct Digest(mtd_telemetry::Fnv64);

impl Digest {
    /// FNV-1a offset basis.
    #[must_use]
    pub fn new() -> Digest {
        Digest::default()
    }

    /// Folds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.0.update(bytes);
    }

    /// Folds a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a `u32` (little-endian).
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Folds an `f64` by bit pattern (so `-0.0 != 0.0` and NaNs are
    /// payload-exact — bit identity, not numeric equality).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Folds an `f32` by bit pattern.
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// Folds a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.bytes(&[u8::from(v)]);
    }

    /// Folds a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.bytes(s.as_bytes());
    }

    /// The digest value.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// Digest of a raw byte image (e.g. an encoded store file).
#[must_use]
pub fn digest_bytes(bytes: &[u8]) -> u64 {
    let mut d = Digest::new();
    d.usize(bytes.len());
    d.bytes(bytes);
    d.finish()
}

/// Digest of a measurement dataset via its canonical single-threaded
/// binary encoding (bit-exact and thread-invariant by the mtd-store v2
/// contract, so no second canonical form is needed here).
#[must_use]
pub fn digest_dataset(ds: &Dataset) -> u64 {
    digest_bytes(&mtd_dataset::store::encode_binary(ds, 1))
}

/// Digest of a fitted model registry: every released parameter, in
/// service then decile order.
#[must_use]
pub fn digest_registry(registry: &ModelRegistry) -> u64 {
    let mut d = Digest::new();
    d.usize(registry.services.len());
    for s in &registry.services {
        d.str(&s.name);
        d.f64(s.mu);
        d.f64(s.sigma);
        d.usize(s.peaks.len());
        for p in &s.peaks {
            d.f64(p.k);
            d.f64(p.mu);
            d.f64(p.sigma);
        }
        d.f64(s.alpha);
        d.f64(s.beta);
        d.f64(s.session_share);
        d.f64(s.duration_sigma);
        d.f64(s.support_log10.0);
        d.f64(s.support_log10.1);
        d.f64(s.quality.volume_emd);
        d.f64(s.quality.pair_r2);
    }
    d.usize(registry.arrivals.per_decile.len());
    for a in &registry.arrivals.per_decile {
        d.f64(a.peak_mu);
        d.f64(a.peak_sigma);
        d.f64(a.pareto_shape);
        d.f64(a.pareto_scale);
    }
    d.finish()
}

/// Digest of generated synthetic sessions, in generation order.
#[must_use]
pub fn digest_sessions(sessions: &[GeneratedSession]) -> u64 {
    let mut d = Digest::new();
    d.usize(sessions.len());
    for s in sessions {
        d.f64(s.start_s);
        d.u32(u32::from(s.service));
        d.f64(s.volume_mb);
        d.f64(s.duration_s);
        d.f64(s.throughput_mbps);
    }
    d.finish()
}

/// An [`EngineSink`] that digests the observation stream. The digest is
/// order-sensitive, so the sink does not fork: the engine feeds it in
/// station order on one thread at any thread count.
#[derive(Debug, Default)]
pub struct DigestSink {
    digest: Digest,
    observations: u64,
}

impl DigestSink {
    /// A fresh sink.
    #[must_use]
    pub fn new() -> DigestSink {
        DigestSink::default()
    }

    /// Digest of everything observed so far, including the final
    /// [`RunStats`] when folded via [`DigestSink::finish_with_stats`].
    #[must_use]
    pub fn finish_with_stats(mut self, stats: &RunStats) -> u64 {
        self.digest.u64(self.observations);
        self.digest.u64(stats.sessions);
        self.digest.u64(stats.observations);
        self.digest.u64(stats.transient_observations);
        self.digest.f64(stats.total_volume_mb);
        self.digest.finish()
    }
}

impl EngineSink for DigestSink {
    fn on_observation(&mut self, obs: &SessionObservation) {
        self.observations += 1;
        self.digest.u64(obs.session.0);
        self.digest.u32(obs.bs.0);
        self.digest.u32(u32::from(obs.service.0));
        self.digest.u32(obs.start.day);
        self.digest.f64(obs.start.second);
        self.digest.f64(obs.duration_s);
        self.digest.f64(obs.volume_mb);
        self.digest.bool(obs.transient);
        self.digest.u32(u32::from(obs.segment_index));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_folds_are_order_and_type_sensitive() {
        let mut a = Digest::new();
        a.u64(1);
        a.u64(2);
        let mut b = Digest::new();
        b.u64(2);
        b.u64(1);
        assert_ne!(a.finish(), b.finish());

        let mut c = Digest::new();
        c.str("ab");
        let mut d = Digest::new();
        d.str("a");
        d.str("b");
        assert_ne!(c.finish(), d.finish(), "length prefixes disambiguate");

        assert_ne!(digest_bytes(b"x"), digest_bytes(b"x\0"));
    }

    #[test]
    fn float_digests_are_bit_exact() {
        let mut a = Digest::new();
        a.f64(0.0);
        let mut b = Digest::new();
        b.f64(-0.0);
        assert_ne!(a.finish(), b.finish(), "sign of zero is visible");
    }
}
