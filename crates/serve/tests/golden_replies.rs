//! Reply bytes pinned across commits: the length and FNV-1a 64 of one
//! reply of every frame kind, served by a real daemon over TCP from the
//! released registry. A renderer change that moves any byte fails here,
//! even though replays within one build still agree with each other.

use mtd_core::{ModelRegistry, ServingPlan};
use mtd_serve::{start, ServeConfig, ServerHandle};
use mtd_telemetry::fnv64;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::net::TcpStream;

fn daemon(max_sessions: u64) -> ServerHandle {
    let plan = ServingPlan::compile(ModelRegistry::released()).expect("released plan compiles");
    start(
        plan,
        ServeConfig {
            workers: 1,
            max_sessions,
            ..ServeConfig::default()
        },
    )
    .expect("bind 127.0.0.1:0")
}

/// One request line in, one reply line out, its `\n` included.
fn reply(addr: SocketAddr, request: &str) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut line = Vec::new();
    BufReader::new(stream).read_until(b'\n', &mut line).unwrap();
    line
}

/// Asserts every reply's `(length, fnv64)`, reporting all mismatches at
/// once so a re-pin sees every moved frame.
fn assert_pinned(addr: SocketAddr, cases: &[(&str, usize, u64)]) {
    let mut moved = Vec::new();
    for &(request, len, digest) in cases {
        let bytes = reply(addr, request);
        let got = (bytes.len(), fnv64(&bytes));
        if got != (len, digest) {
            moved.push(format!(
                "{request}: got ({}, {:#018x}), pinned ({len}, {digest:#018x})",
                got.0, got.1
            ));
        }
    }
    assert!(moved.is_empty(), "reply bytes moved:\n{}", moved.join("\n"));
}

#[test]
fn replies_are_pinned_byte_for_byte() {
    let served = daemon(ServeConfig::default().max_sessions);
    assert_pinned(
        served.addr(),
        &[
            (
                r#"{"op":"sample","decile":9,"minute":540,"minutes":60,"seed":7}"#,
                198539,
                0x286b_9568_135b_e589,
            ),
            (
                r#"{"id":"web-1","op":"sample","decile":9,"minute":600,"minutes":5,"seed":55,"service":"Facebook"}"#,
                6133,
                0x76bd_2f49_135e_5247,
            ),
            (r#"{"id":42,"op":"ping"}"#, 32, 0x903b_4ef3_0d92_78cd),
            (r#"{"op":"stats"}"#, 1088, 0x7f22_f5ad_a987_1179),
            (r#"{"op":"params"}"#, 13996, 0xdd3a_e2a2_939d_3f49),
        ],
    );
    served.join();
}

#[test]
fn too_large_error_frame_is_pinned() {
    let capped = daemon(100);
    assert_pinned(
        capped.addr(),
        &[(
            r#"{"id":3,"op":"sample","decile":9,"minute":540,"minutes":60,"seed":7}"#,
            151,
            0x5f18_1eb5_89e1_b565,
        )],
    );
    capped.join();
}
