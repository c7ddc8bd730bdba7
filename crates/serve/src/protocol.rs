//! Request parsing and response rendering for the serve wire protocol.
//!
//! One request per line, one response per line (`\n`-delimited JSON),
//! documented in DESIGN.md §15. Every frame is appended field by field
//! into the caller's buffer, in a fixed field order, with the workspace's
//! shortest round-trip number writer (`json::push_num`, the bytes of
//! Rust's `{}`), so a seeded `sample` response is byte-identical across
//! runs, platforms, and worker counts — the determinism contract clients
//! can diff against.

use crate::json::{push_array, push_num, push_str, Json, EXACT_INT_BOUND};
use mtd_core::ServingPlan;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt::Write as _;

/// Machine-readable error codes carried in error frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Malformed JSON, unknown op, or invalid parameters.
    BadRequest,
    /// The request would exceed a configured size bound.
    TooLarge,
    /// The accept queue is full; retry later.
    Overloaded,
    /// The daemon is draining after a shutdown request.
    ShuttingDown,
}

impl ErrorCode {
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::TooLarge => "too_large",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::ShuttingDown => "shutting_down",
        }
    }
}

/// A parsed request frame: the operation plus the echoed-back id.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestFrame {
    /// Client correlation id (any JSON scalar), rendered for the echo:
    /// strings, booleans and `null` come back as sent, numbers as the
    /// codec writes them (`1.0` → `1`, `1e2` → `100`). A number of
    /// magnitude 2^53 or more is refused, since it may not be the
    /// integer the client sent.
    pub id: Option<String>,
    pub request: Request,
}

/// The operations the daemon answers.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    Ping,
    Stats,
    Params,
    Sample(SampleRequest),
    Shutdown,
}

/// Parameters of a `sample` request.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleRequest {
    /// BS load decile, 0..=9.
    pub decile: u8,
    /// First minute of the window, 0..1440.
    pub minute: u32,
    /// Window length in minutes; `minute + minutes <= 1440`.
    pub minutes: u32,
    /// Explicit seed ⇒ byte-identical replay. `None` ⇒ the server
    /// assigns a fresh seed (echoed in the response).
    pub seed: Option<u64>,
    /// Restrict the response to one service by name. The filter is
    /// applied *after* generation, so it never changes the draw
    /// sequence: the same seed yields the same underlying stream
    /// whether or not a filter is present.
    pub service: Option<String>,
}

/// Parses one request line.
pub fn parse_request(line: &str) -> Result<RequestFrame, (ErrorCode, String)> {
    let bad = |m: String| (ErrorCode::BadRequest, m);
    let v = Json::parse(line).map_err(|e| bad(format!("invalid JSON: {e}")))?;
    if !matches!(v, Json::Obj(_)) {
        return Err(bad("request must be a JSON object".into()));
    }
    let id = match v.get("id") {
        None => None,
        // Every f64 this large is an integer the literal may have been
        // rounded to, so echoing it could not match the client's id.
        Some(Json::Num(n)) if n.abs() >= EXACT_INT_BOUND => {
            return Err(bad(
                "a numeric id must be below 2^53 in magnitude; send larger ids as strings".into(),
            ))
        }
        Some(j @ (Json::Null | Json::Bool(_) | Json::Num(_) | Json::Str(_))) => Some(j.render()),
        Some(_) => return Err(bad("id must be a JSON scalar".into())),
    };
    let op = v
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing string field `op`".into()))?;
    let request = match op {
        "ping" => Request::Ping,
        "stats" => Request::Stats,
        "params" => Request::Params,
        "shutdown" => Request::Shutdown,
        "sample" => {
            let decile = match v.get("decile") {
                Some(j) => j
                    .as_u64()
                    .filter(|&d| d <= 9)
                    .ok_or_else(|| bad("decile must be an integer in 0..=9".into()))?
                    as u8,
                None => return Err(bad("sample needs a `decile` field".into())),
            };
            let minute = match v.get("minute") {
                Some(j) => j
                    .as_u64()
                    .filter(|&m| m < 1440)
                    .ok_or_else(|| bad("minute must be an integer in 0..1440".into()))?
                    as u32,
                None => 0,
            };
            let minutes = match v.get("minutes") {
                Some(j) => j
                    .as_u64()
                    .filter(|&m| m >= 1)
                    .ok_or_else(|| bad("minutes must be a positive integer".into()))?
                    as u32,
                None => 1,
            };
            if u64::from(minute) + u64::from(minutes) > 1440 {
                return Err(bad(format!(
                    "window [{minute}, {minute}+{minutes}) runs past minute 1440"
                )));
            }
            let seed = match v.get("seed") {
                Some(j) => Some(
                    j.as_u64()
                        .ok_or_else(|| bad("seed must be a non-negative integer".into()))?,
                ),
                None => None,
            };
            let service = match v.get("service") {
                Some(j) => Some(
                    j.as_str()
                        .ok_or_else(|| bad("service must be a string".into()))?
                        .to_string(),
                ),
                None => None,
            };
            Request::Sample(SampleRequest {
                decile,
                minute,
                minutes,
                seed,
                service,
            })
        }
        other => return Err(bad(format!("unknown op `{other}`"))),
    };
    Ok(RequestFrame { id, request })
}

/// Appends `{"ok":<ok>,` and, when the request had one, `"id":X,`.
fn open(out: &mut String, ok: bool, id: Option<&str>) {
    let _ = write!(out, "{{\"ok\":{ok},");
    if let Some(id) = id {
        out.push_str("\"id\":");
        out.push_str(id);
        out.push(',');
    }
}

/// Appends `,"key":v` for each key and value.
fn push_fields(out: &mut String, keys: &[&str], values: &[f64]) {
    for (key, v) in keys.iter().zip(values) {
        let _ = write!(out, ",\"{key}\":");
        push_num(out, *v);
    }
}

/// Appends an error frame.
pub fn error_frame(out: &mut String, id: Option<&str>, code: ErrorCode, message: &str) {
    open(out, false, id);
    let _ = write!(
        out,
        "\"error\":{{\"code\":\"{}\",\"message\":",
        code.as_str()
    );
    push_str(out, message);
    out.push_str("}}");
}

/// Appends the ok frame of an op that carries nothing back (`ping`,
/// `shutdown`).
pub fn render_ack(out: &mut String, id: Option<&str>, op: &str) {
    open(out, true, id);
    let _ = write!(out, "\"op\":\"{op}\"}}");
}

/// Appends registry-level statistics: service names, shares, decile
/// count.
pub fn render_stats(out: &mut String, plan: &ServingPlan, id: Option<&str>) {
    let services = &plan.registry().services;
    open(out, true, id);
    let (n, deciles) = (services.len(), plan.n_deciles());
    let _ = write!(
        out,
        "\"op\":\"stats\",\"services\":{n},\"deciles\":{deciles},\"names\":"
    );
    push_array(out, services, |out, s| push_str(out, &s.name));
    out.push_str(",\"session_shares\":");
    push_array(out, services, |out, s| push_num(out, s.session_share));
    out.push('}');
}

/// Appends the released per-service parameter tuples (§5.4) plus the
/// per-decile arrival models.
pub fn render_params(out: &mut String, plan: &ServingPlan, id: Option<&str>) {
    let registry = plan.registry();
    open(out, true, id);
    out.push_str("\"op\":\"params\",\"services\":");
    push_array(out, registry.services.iter().enumerate(), |out, (i, s)| {
        let _ = write!(out, "{{\"index\":{i},\"name\":");
        push_str(out, &s.name);
        push_fields(out, &["mu", "sigma"], &[s.mu, s.sigma]);
        out.push_str(",\"peaks\":");
        push_array(out, &s.peaks, |out, p| {
            out.push_str("{\"k\":");
            push_num(out, p.k);
            push_fields(out, &["mu", "sigma"], &[p.mu, p.sigma]);
            out.push('}');
        });
        let values = [s.alpha, s.beta, s.session_share];
        push_fields(out, &["alpha", "beta", "session_share"], &values);
        out.push('}');
    });
    out.push_str(",\"arrivals\":");
    let arrivals = registry.arrivals.per_decile.iter().enumerate();
    push_array(out, arrivals, |out, (d, a)| {
        let _ = write!(out, "{{\"decile\":{d}");
        let values = [a.peak_mu, a.peak_sigma, a.pareto_shape, a.pareto_scale];
        push_fields(
            out,
            &["peak_mu", "peak_sigma", "pareto_shape", "pareto_scale"],
            &values,
        );
        out.push('}');
    });
    out.push('}');
}

/// Generates the window with the given seed, then appends its `sample`
/// reply and returns the number of sessions generated. `max_sessions`
/// bounds the window (0 = unlimited): generation stops in the minute
/// that passes it and the request gets a `too_large` error, never a
/// truncated stream; an error appends nothing.
pub fn render_sample(
    out: &mut String,
    plan: &ServingPlan,
    id: Option<&str>,
    req: &SampleRequest,
    seed: u64,
    max_sessions: u64,
) -> Result<u64, (ErrorCode, String)> {
    let services = &plan.registry().services;
    let service_filter = match &req.service {
        None => None,
        Some(name) => match services.iter().position(|s| s.name == *name) {
            Some(i) => Some(i as u16),
            None => {
                let message = format!("unknown service `{name}` (see the stats op for names)");
                return Err((ErrorCode::BadRequest, message));
            }
        },
    };
    // The count precedes the array, so the whole window is generated
    // before anything is appended.
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut sessions = Vec::new();
    let mut generated: u64 = 0;
    for minute in req.minute..req.minute + req.minutes {
        let batch = plan.generate_minute(req.decile, minute, &mut rng);
        generated += batch.len() as u64;
        if max_sessions > 0 && generated > max_sessions {
            return Err((
                ErrorCode::TooLarge,
                format!(
                    "window generates more than {max_sessions} sessions; \
                     request a shorter window or raise --max-sessions"
                ),
            ));
        }
        sessions.extend(
            batch
                .into_iter()
                .filter(|s| service_filter.is_none_or(|f| f == s.service)),
        );
    }
    open(out, true, id);
    let (decile, minute, minutes, count) = (req.decile, req.minute, req.minutes, sessions.len());
    let _ = write!(
        out,
        "\"op\":\"sample\",\"seed\":{seed},\"decile\":{decile},\"minute\":{minute},\
         \"minutes\":{minutes},\"count\":{count},\"sessions\":"
    );
    push_array(out, &sessions, |out, s| {
        out.push_str("{\"start_s\":");
        push_num(out, s.start_s);
        let _ = write!(out, ",\"service\":{},\"volume_mb\":", s.service);
        push_num(out, s.volume_mb);
        out.push_str(",\"duration_s\":");
        push_num(out, s.duration_s);
        out.push_str(",\"throughput_mbps\":");
        push_num(out, s.throughput_mbps);
        out.push('}');
    });
    out.push('}');
    Ok(generated)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_op_and_echoes_ids() {
        assert_eq!(
            parse_request(r#"{"op":"ping"}"#).unwrap().request,
            Request::Ping
        );
        let f = parse_request(r#"{"id":7,"op":"stats"}"#).unwrap();
        assert_eq!(f.id.as_deref(), Some("7"));
        let f = parse_request(r#"{"id":"abc","op":"shutdown"}"#).unwrap();
        assert_eq!(f.id.as_deref(), Some("\"abc\""));
        // Numeric ids below 2^53 in magnitude, the largest included,
        // come back as sent.
        for id in ["9007199254740991", "-9007199254740991", "0.5"] {
            let f = parse_request(&format!(r#"{{"id":{id},"op":"ping"}}"#)).unwrap();
            assert_eq!(f.id.as_deref(), Some(id));
        }
        let f = parse_request(
            r#"{"op":"sample","decile":3,"minute":600,"minutes":2,"seed":42,"service":"Web"}"#,
        )
        .unwrap();
        assert_eq!(
            f.request,
            Request::Sample(SampleRequest {
                decile: 3,
                minute: 600,
                minutes: 2,
                seed: Some(42),
                service: Some("Web".into()),
            })
        );
    }

    #[test]
    fn sample_defaults_and_bounds() {
        let f = parse_request(r#"{"op":"sample","decile":0}"#).unwrap();
        assert_eq!(
            f.request,
            Request::Sample(SampleRequest {
                decile: 0,
                minute: 0,
                minutes: 1,
                seed: None,
                service: None,
            })
        );
        for bad in [
            r#"{"op":"sample"}"#,
            r#"{"op":"sample","decile":10}"#,
            r#"{"op":"sample","decile":1,"minute":1440}"#,
            r#"{"op":"sample","decile":1,"minutes":0}"#,
            r#"{"op":"sample","decile":1,"minute":1439,"minutes":2}"#,
            r#"{"op":"sample","decile":1,"seed":-1}"#,
            r#"{"op":"sample","decile":1,"seed":1.5}"#,
            // Parses as 2^53, which is not the seed the client sent.
            r#"{"op":"sample","decile":1,"seed":9007199254740993}"#,
            r#"{"op":"frobnicate"}"#,
            r#"[1,2]"#,
            r#"{"op":"ping","id":[1]}"#,
            // Ids of 2^53 and above may have been rounded on parsing.
            r#"{"op":"ping","id":9007199254740992}"#,
            r#"{"op":"ping","id":-9007199254740992}"#,
            r#"{"op":"ping","id":12345678901234567891}"#,
            r#"{"op":"ping","id":1e300}"#,
            "not json",
        ] {
            let err = parse_request(bad);
            assert!(
                matches!(err, Err((ErrorCode::BadRequest, _))),
                "{bad}: {err:?}"
            );
        }
    }

    #[test]
    fn error_frames_are_structured() {
        let mut frame = String::new();
        error_frame(&mut frame, Some("9"), ErrorCode::Overloaded, "queue full");
        assert_eq!(
            frame,
            r#"{"ok":false,"id":9,"error":{"code":"overloaded","message":"queue full"}}"#
        );
        // Frames are themselves valid JSON.
        assert!(crate::json::Json::parse(&frame).is_ok());
    }
}
