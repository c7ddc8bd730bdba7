//! # mtd-serve — a concurrent model-serving daemon
//!
//! The paper's fitted models are released to be *consumed*: the §6 use
//! cases (slicing SLAs, vRAN energy) all ingest sampled session
//! workloads. This crate turns a fitted [`mtd_core::ModelRegistry`] —
//! compiled once into an immutable [`mtd_core::ServingPlan`] — into a
//! request/response surface real network tooling can call: a std-only
//! TCP daemon answering line-delimited-JSON requests for sampled
//! session streams, model parameters, and registry statistics.
//!
//! ## Protocol (one JSON object per line; DESIGN.md §15)
//!
//! ```text
//! → {"op":"sample","decile":7,"minute":540,"minutes":5,"seed":42}
//! ← {"ok":true,"op":"sample","seed":42,...,"sessions":[...]}
//! → {"op":"params"}            → {"op":"stats"}        → {"op":"ping"}
//! → {"op":"shutdown"}          (graceful drain)
//! ```
//!
//! ## Determinism
//!
//! A request carrying a `seed` is answered byte-identically across
//! runs, platforms, and worker counts: the response is a pure function
//! of (plan, request), generated on a single worker with its own
//! seeded RNG and rendered with fixed field order and shortest
//! round-trip float formatting. Unseeded requests get a server-assigned
//! seed, echoed in the response so any reply can be replayed.
//!
//! ## Concurrency & backpressure
//!
//! The executor is the workspace's [`mtd_par::Pool`]: one long-lived
//! accept-loop job plus N connection-handler jobs share a scope for the
//! daemon's lifetime. Accepted connections wait in a bounded queue;
//! overflow is refused with a structured `overloaded` error frame —
//! never a silently dropped connection. Oversized requests and
//! oversized sample windows get `too_large` frames; I/O carries
//! per-connection timeouts.

pub mod json;
pub mod protocol;
pub mod server;

pub use protocol::{ErrorCode, Request, RequestFrame, SampleRequest};
pub use server::{start, ServeConfig, ServeStats, ServerHandle};

#[cfg(test)]
mod tests {
    use super::*;
    use mtd_core::arrival::PARETO_SHAPE;
    use mtd_core::{
        ArrivalModel, ArrivalModelSet, ModelQuality, ModelRegistry, PeakComponent, ServiceModel,
        ServingPlan,
    };
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    /// A small two-service, ten-decile registry (mirrors the core
    /// generator fixture).
    fn registry() -> ModelRegistry {
        ModelRegistry {
            services: vec![
                ServiceModel {
                    name: "Messaging".into(),
                    mu: -0.2,
                    sigma: 0.6,
                    peaks: vec![],
                    alpha: 0.1,
                    beta: 0.6,
                    session_share: 0.8,
                    duration_sigma: 0.0,
                    support_log10: (-3.0, 4.0),
                    quality: ModelQuality::default(),
                },
                ServiceModel {
                    name: "Streaming".into(),
                    mu: 1.5,
                    sigma: 0.5,
                    peaks: vec![PeakComponent {
                        k: 0.15,
                        mu: 2.2,
                        sigma: 0.08,
                    }],
                    alpha: 0.003,
                    beta: 1.5,
                    session_share: 0.2,
                    duration_sigma: 0.0,
                    support_log10: (-3.0, 4.0),
                    quality: ModelQuality::default(),
                },
            ],
            arrivals: ArrivalModelSet {
                per_decile: (0..10)
                    .map(|d| {
                        let mu = 2.0 + f64::from(d) * 3.0;
                        ArrivalModel {
                            peak_mu: mu,
                            peak_sigma: mu / 10.0,
                            pareto_shape: PARETO_SHAPE,
                            pareto_scale: mu / 20.0,
                        }
                    })
                    .collect(),
            },
        }
    }

    fn start_daemon(workers: usize) -> ServerHandle {
        let plan = ServingPlan::compile(registry()).unwrap();
        start(
            plan,
            ServeConfig {
                workers,
                ..ServeConfig::default()
            },
        )
        .expect("bind 127.0.0.1:0")
    }

    /// One request → one response over a fresh connection.
    fn roundtrip(addr: std::net::SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        line.trim_end().to_string()
    }

    #[test]
    fn daemon_answers_every_op_and_shuts_down_cleanly() {
        let daemon = start_daemon(2);
        let addr = daemon.addr();

        let pong = roundtrip(addr, r#"{"id":1,"op":"ping"}"#);
        assert_eq!(pong, r#"{"ok":true,"id":1,"op":"ping"}"#);

        let stats = roundtrip(addr, r#"{"op":"stats"}"#);
        assert!(stats.contains(r#""services":2"#), "{stats}");
        assert!(stats.contains(r#""deciles":10"#), "{stats}");
        assert!(stats.contains("Messaging") && stats.contains("Streaming"));

        let params = roundtrip(addr, r#"{"op":"params"}"#);
        assert!(params.contains(r#""alpha":0.003"#), "{params}");
        assert!(params.contains(r#""pareto_shape":"#), "{params}");
        let parsed = json::Json::parse(&params).expect("params frame is valid JSON");
        assert_eq!(parsed.get("ok"), Some(&json::Json::Bool(true)));

        let sample = roundtrip(addr, r#"{"op":"sample","decile":5,"minute":600,"seed":7}"#);
        let parsed = json::Json::parse(&sample).expect("sample frame is valid JSON");
        assert_eq!(
            parsed.get("seed").and_then(json::Json::as_u64),
            Some(7),
            "{sample}"
        );
        let count = parsed.get("count").and_then(json::Json::as_u64).unwrap();
        assert!(count > 0, "peak minute at decile 5 generates sessions");

        let bye = roundtrip(addr, r#"{"op":"shutdown"}"#);
        assert_eq!(bye, r#"{"ok":true,"op":"shutdown"}"#);
        let stats = daemon.join();
        assert!(stats.requests >= 5, "{stats:?}");
        assert_eq!(stats.errors, 0, "{stats:?}");
    }

    #[test]
    fn seeded_requests_replay_byte_identically_across_workers() {
        let request = r#"{"op":"sample","decile":8,"minute":1200,"minutes":3,"seed":123456}"#;
        let a = {
            let daemon = start_daemon(1);
            let r = roundtrip(daemon.addr(), request);
            daemon.join();
            r
        };
        let b = {
            let daemon = start_daemon(6);
            // Warm the daemon with unrelated traffic first: replay must
            // not depend on request order or concurrency.
            let _ = roundtrip(daemon.addr(), r#"{"op":"sample","decile":1,"seed":9}"#);
            let r = roundtrip(daemon.addr(), request);
            daemon.join();
            r
        };
        assert_eq!(a, b, "seeded replay must be byte-identical");
        assert!(a.contains(r#""seed":123456"#));
    }

    #[test]
    fn unseeded_requests_get_distinct_echoed_seeds() {
        let daemon = start_daemon(2);
        let a = roundtrip(daemon.addr(), r#"{"op":"sample","decile":3}"#);
        let b = roundtrip(daemon.addr(), r#"{"op":"sample","decile":3}"#);
        let seed = |frame: &str| {
            json::Json::parse(frame)
                .unwrap()
                .get("seed")
                .and_then(json::Json::as_u64)
        };
        let (sa, sb) = (seed(&a), seed(&b));
        assert!(sa.is_some() && sb.is_some(), "{a:.80}\n{b:.80}");
        assert_ne!(sa, sb, "assigned seeds must differ");
        daemon.join();
    }

    #[test]
    fn unseeded_replies_replay_from_their_echoed_seed() {
        let daemon = start_daemon(2);
        let window = r#""op":"sample","decile":7,"minute":600,"minutes":2"#;
        let first = roundtrip(daemon.addr(), &format!("{{{window}}}"));
        let seed = json::Json::parse(&first)
            .unwrap()
            .get("seed")
            .and_then(json::Json::as_u64)
            .expect("the echoed seed is an exact integer");
        let again = roundtrip(daemon.addr(), &format!("{{{window},\"seed\":{seed}}}"));
        assert_eq!(first, again, "an unseeded reply replays from its seed");
        daemon.join();
    }

    #[test]
    fn bad_requests_get_structured_error_frames() {
        let daemon = start_daemon(2);
        let addr = daemon.addr();
        for (request, code) in [
            ("not json", "bad_request"),
            (r#"{"op":"nope"}"#, "bad_request"),
            (r#"{"op":"sample","decile":11}"#, "bad_request"),
            (
                r#"{"op":"sample","decile":1,"service":"NoSuchService"}"#,
                "bad_request",
            ),
        ] {
            let frame = roundtrip(addr, request);
            assert!(
                frame.contains(&format!(r#""code":"{code}""#)),
                "{request} -> {frame}"
            );
            assert!(frame.starts_with(r#"{"ok":false"#), "{frame}");
        }
        let stats = daemon.join();
        assert_eq!(stats.errors, 4, "{stats:?}");
    }

    #[test]
    fn oversized_windows_and_lines_are_refused_not_truncated() {
        let plan = ServingPlan::compile(registry()).unwrap();
        let daemon = start(
            plan,
            ServeConfig {
                workers: 1,
                max_sessions: 10,
                max_line_bytes: 256,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let addr = daemon.addr();

        // A peak-hour day at the top decile far exceeds 10 sessions.
        let frame = roundtrip(
            addr,
            r#"{"op":"sample","decile":9,"minute":540,"minutes":60,"seed":1}"#,
        );
        assert!(frame.contains(r#""code":"too_large""#), "{frame}");

        // A request line beyond max_line_bytes is refused.
        let long = format!(r#"{{"op":"ping","id":"{}"}}"#, "x".repeat(512));
        let frame = roundtrip(addr, &long);
        assert!(frame.contains(r#""code":"too_large""#), "{frame}");
        daemon.join();
    }

    #[test]
    fn service_filter_keeps_draws_stable() {
        let daemon = start_daemon(2);
        let addr = daemon.addr();
        let all = roundtrip(addr, r#"{"op":"sample","decile":6,"minute":700,"seed":55}"#);
        let filtered = roundtrip(
            addr,
            r#"{"op":"sample","decile":6,"minute":700,"seed":55,"service":"Streaming"}"#,
        );
        let parse = |frame: &str| json::Json::parse(frame).unwrap();
        let (all, filtered) = (parse(&all), parse(&filtered));
        let sessions = |v: &json::Json| match v.get("sessions") {
            Some(json::Json::Arr(items)) => items.clone(),
            other => panic!("{other:?}"),
        };
        let streaming_in_all: Vec<_> = sessions(&all)
            .into_iter()
            .filter(|s| s.get("service").and_then(json::Json::as_u64) == Some(1))
            .collect();
        // The filter selects exactly the Streaming subsequence of the
        // unfiltered stream: generation order and draws are unchanged.
        assert_eq!(sessions(&filtered), streaming_in_all);
        daemon.join();
    }

    #[test]
    fn pipelined_requests_on_one_connection_are_answered_in_order() {
        let daemon = start_daemon(2);
        let mut stream = TcpStream::connect(daemon.addr()).unwrap();
        for i in 0..5 {
            let line = format!("{{\"id\":{i},\"op\":\"ping\"}}\n");
            stream.write_all(line.as_bytes()).unwrap();
        }
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let reader = BufReader::new(stream);
        let ids: Vec<String> = reader
            .lines()
            .map_while(Result::ok)
            .map(|l| l.trim_end().to_string())
            .collect();
        assert_eq!(ids.len(), 5);
        for (i, frame) in ids.iter().enumerate() {
            assert!(frame.contains(&format!("\"id\":{i}")), "{frame}");
        }
        daemon.join();
    }
}
