//! Streaming accumulator for Table 1's share Coefficients of Variation.
//!
//! Table 1 reports, per service, the session/traffic share together with
//! its CV "across BSs and minutes". Computing that exactly from stored
//! data would require per-(service, BS, minute) counts — prohibitive at
//! scale, and unnecessary: the CV needs only `Σx`, `Σx²`, `N` per service
//! over the (BS, minute) cells. This sink accumulates exactly those online
//! while the engine runs.
//!
//! Only origin fragments (`segment_index == 0`) are counted, so the
//! per-minute bucketing matches the engine's generation order; handover
//! fragments (a few percent of arrivals, uniformly spread) are excluded,
//! which the Table 1 experiment documents.

use mtd_netsim::engine::EngineSink;
use mtd_netsim::session::SessionObservation;

/// Per-service running moments of per-minute shares.
#[derive(Debug, Clone)]
struct Moments {
    sum: f64,
    sum_sq: f64,
    n: f64,
}

/// One row of the Table 1 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct ShareRow {
    pub service: u16,
    /// Mean per-minute session share of the service.
    pub session_share: f64,
    /// CV of the per-minute session share across (BS, minute) cells.
    pub session_cv: f64,
    /// Mean per-minute traffic share.
    pub traffic_share: f64,
    /// CV of the per-minute traffic share.
    pub traffic_cv: f64,
}

/// Accumulates per-(BS, minute) service shares while the engine runs.
#[derive(Debug)]
pub struct SharesAccumulator {
    n_services: usize,
    /// Counts in the currently-open (bs, day, minute) bucket.
    bucket_counts: Vec<f64>,
    bucket_traffic: Vec<f64>,
    bucket_key: Option<(u32, u32, u32)>,
    session_moments: Vec<Moments>,
    traffic_moments: Vec<Moments>,
    total_sessions: Vec<f64>,
    total_traffic: Vec<f64>,
}

impl SharesAccumulator {
    /// Creates an accumulator for `n_services` services.
    #[must_use]
    pub fn new(n_services: usize) -> SharesAccumulator {
        SharesAccumulator {
            n_services,
            bucket_counts: vec![0.0; n_services],
            bucket_traffic: vec![0.0; n_services],
            bucket_key: None,
            session_moments: vec![
                Moments {
                    sum: 0.0,
                    sum_sq: 0.0,
                    n: 0.0
                };
                n_services
            ],
            traffic_moments: vec![
                Moments {
                    sum: 0.0,
                    sum_sq: 0.0,
                    n: 0.0
                };
                n_services
            ],
            total_sessions: vec![0.0; n_services],
            total_traffic: vec![0.0; n_services],
        }
    }

    fn flush_bucket(&mut self) {
        let sessions: f64 = self.bucket_counts.iter().sum();
        if sessions > 0.0 {
            let traffic: f64 = self.bucket_traffic.iter().sum();
            for s in 0..self.n_services {
                let share = self.bucket_counts[s] / sessions;
                let m = &mut self.session_moments[s];
                m.sum += share;
                m.sum_sq += share * share;
                m.n += 1.0;
                if traffic > 0.0 {
                    let tshare = self.bucket_traffic[s] / traffic;
                    let t = &mut self.traffic_moments[s];
                    t.sum += tshare;
                    t.sum_sq += tshare * tshare;
                    t.n += 1.0;
                }
            }
        }
        self.bucket_counts.iter_mut().for_each(|c| *c = 0.0);
        self.bucket_traffic.iter_mut().for_each(|c| *c = 0.0);
    }

    /// Finalizes and returns the Table 1 rows, sorted by session share.
    #[must_use]
    pub fn finish(mut self) -> Vec<ShareRow> {
        self.flush_bucket();
        let grand_sessions: f64 = self.total_sessions.iter().sum();
        let grand_traffic: f64 = self.total_traffic.iter().sum();
        let cv = |m: &Moments| -> f64 {
            if m.n < 2.0 {
                return 0.0;
            }
            let mean = m.sum / m.n;
            if mean <= 0.0 {
                return 0.0;
            }
            let var = (m.sum_sq / m.n - mean * mean).max(0.0);
            var.sqrt() / mean
        };
        let mut rows: Vec<ShareRow> = (0..self.n_services)
            .map(|s| ShareRow {
                service: s as u16,
                session_share: self.total_sessions[s] / grand_sessions.max(1e-300),
                session_cv: cv(&self.session_moments[s]),
                traffic_share: self.total_traffic[s] / grand_traffic.max(1e-300),
                traffic_cv: cv(&self.traffic_moments[s]),
            })
            .collect();
        rows.sort_by(|a, b| b.session_share.total_cmp(&a.session_share));
        rows
    }
}

impl EngineSink for SharesAccumulator {
    fn on_observation(&mut self, obs: &SessionObservation) {
        if obs.segment_index != 0 {
            return;
        }
        let key = (obs.bs.0, obs.start.day, obs.start.minute_of_day());
        if self.bucket_key != Some(key) {
            self.flush_bucket();
            self.bucket_key = Some(key);
        }
        let s = obs.service.0 as usize;
        self.bucket_counts[s] += 1.0;
        self.bucket_traffic[s] += obs.volume_mb;
        self.total_sessions[s] += 1.0;
        self.total_traffic[s] += obs.volume_mb;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtd_netsim::engine::Engine;
    use mtd_netsim::geo::Topology;
    use mtd_netsim::services::ServiceCatalog;
    use mtd_netsim::ScenarioConfig;

    fn run() -> (Vec<ShareRow>, ServiceCatalog) {
        let config = ScenarioConfig::small_test();
        let topology = Topology::generate(config.n_bs, config.seed);
        let catalog = ServiceCatalog::paper();
        let engine = Engine::new(&config, &topology, &catalog);
        let mut acc = SharesAccumulator::new(catalog.len());
        engine.run(&mut acc);
        (acc.finish(), catalog)
    }

    #[test]
    fn shares_sum_to_one_and_match_catalog() {
        let (rows, catalog) = run();
        let total: f64 = rows.iter().map(|r| r.session_share).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Top service is Facebook with ~36.5%.
        let top = &rows[0];
        assert_eq!(
            catalog.service(mtd_netsim::ServiceId(top.service)).name,
            "Facebook"
        );
        assert!((top.session_share - 0.365).abs() < 0.03);
    }

    #[test]
    fn cvs_are_positive_and_ordered_sensibly() {
        let (rows, _) = run();
        // Table 1: session-share CVs cluster near ~1, traffic CVs
        // fluctuate more. With per-minute buckets the shares of rare
        // services are extremely bursty, hence large CVs; common services
        // have smaller ones. Check the qualitative ordering.
        let top = &rows[0];
        let rare = rows.iter().rfind(|r| r.session_share > 0.0).unwrap();
        assert!(top.session_cv > 0.0);
        assert!(rare.session_cv > top.session_cv);
    }

    #[test]
    fn traffic_share_decoupled_from_session_share() {
        // §4.2 / Fig 4: similarly-ranked services carry very different
        // traffic. Netflix: small session share, large traffic share.
        let (rows, catalog) = run();
        let nf_id = catalog.by_name("Netflix").unwrap().id.0;
        let nf = rows.iter().find(|r| r.service == nf_id).unwrap();
        assert!(
            nf.traffic_share > 3.0 * nf.session_share,
            "netflix traffic {} vs sessions {}",
            nf.traffic_share,
            nf.session_share
        );
    }
}
