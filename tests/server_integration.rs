//! End-to-end tests of the KV service over a Unix-domain socket: wire
//! round-trips, pipelining, batch group commit, malformed-frame
//! rejection, concurrent clients, STATS, and durable shutdown/reopen.
//!
//! Everything runs against a real `Server` with real `MmapBackend` shard
//! pools under a temp directory — the full stack `kvbench` measures,
//! minus the clock.

use nvtraverse_server::{
    Client, KvStore, OutcomeAnswer, PolicyKind, Reply, Request, Server, ServerConfig,
};
use std::path::PathBuf;

const SHARDS: usize = 3;
const SHARD_CAP: u64 = 4 << 20;

fn temp_paths(tag: &str) -> (PathBuf, PathBuf) {
    let base = std::env::temp_dir();
    let dir = base.join(format!("nvt-srv-it-{}-{tag}", std::process::id()));
    let sock = base.join(format!("nvt-srv-it-{}-{tag}.sock", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&sock);
    (dir, sock)
}

fn start(tag: &str, policy: PolicyKind) -> (Server, PathBuf, PathBuf) {
    let (dir, sock) = temp_paths(tag);
    let store = KvStore::create(&dir, policy, SHARDS, SHARD_CAP).unwrap();
    let server = Server::start_uds(&sock, store, ServerConfig { workers: 2 })
        .unwrap();
    (server, dir, sock)
}

fn cleanup(dir: &PathBuf, sock: &PathBuf) {
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_file(sock);
}

/// Minimal JSON validity checker (no dependencies): consumes one value,
/// returns the rest of the input. Panics with context on malformed input.
fn json_value(s: &[u8]) -> &[u8] {
    let s = skip_ws(s);
    match s.first() {
        Some(b'{') => {
            let mut s = skip_ws(&s[1..]);
            if s.first() == Some(&b'}') {
                return &s[1..];
            }
            loop {
                s = json_string(skip_ws(s));
                s = skip_ws(s);
                assert_eq!(s.first(), Some(&b':'), "expected ':' in object");
                s = json_value(&s[1..]);
                s = skip_ws(s);
                match s.first() {
                    Some(b',') => s = &s[1..],
                    Some(b'}') => return &s[1..],
                    other => panic!("expected ',' or '}}', got {other:?}"),
                }
            }
        }
        Some(b'[') => {
            let mut s = skip_ws(&s[1..]);
            if s.first() == Some(&b']') {
                return &s[1..];
            }
            loop {
                s = json_value(s);
                s = skip_ws(s);
                match s.first() {
                    Some(b',') => s = &s[1..],
                    Some(b']') => return &s[1..],
                    other => panic!("expected ',' or ']', got {other:?}"),
                }
            }
        }
        Some(b'"') => json_string(s),
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let end = s
                .iter()
                .position(|c| !c.is_ascii_digit() && !b"-+.eE".contains(c))
                .unwrap_or(s.len());
            assert!(end > 0, "empty number");
            &s[end..]
        }
        Some(b't') => s.strip_prefix(b"true".as_slice()).expect("bad literal"),
        Some(b'f') => s.strip_prefix(b"false".as_slice()).expect("bad literal"),
        Some(b'n') => s.strip_prefix(b"null".as_slice()).expect("bad literal"),
        other => panic!("unexpected JSON byte {other:?}"),
    }
}

fn json_string(s: &[u8]) -> &[u8] {
    assert_eq!(s.first(), Some(&b'"'), "expected string");
    let mut i = 1;
    while i < s.len() {
        match s[i] {
            b'"' => return &s[i + 1..],
            b'\\' => i += 2,
            _ => i += 1,
        }
    }
    panic!("unterminated string");
}

fn skip_ws(s: &[u8]) -> &[u8] {
    let n = s.iter().take_while(|c| c.is_ascii_whitespace()).count();
    &s[n..]
}

fn assert_valid_json(doc: &str) {
    let rest = json_value(doc.as_bytes());
    assert!(skip_ws(rest).is_empty(), "trailing bytes after JSON document");
}

#[test]
fn insert_get_remove_round_trips() {
    for policy in [PolicyKind::NvTraverse, PolicyKind::Soft] {
        let (server, dir, sock) = start(&format!("rt-{}", policy.name()), policy);
        let mut c = Client::connect_uds(&sock).unwrap();

        assert_eq!(c.get(1).unwrap(), None);
        assert!(c.insert(1, 10).unwrap());
        assert!(!c.insert(1, 11).unwrap(), "duplicate insert is a no-op");
        assert_eq!(c.get(1).unwrap(), Some(10));
        assert!(c.remove(1).unwrap());
        assert!(!c.remove(1).unwrap(), "second remove misses");
        assert_eq!(c.get(1).unwrap(), None);

        // Keys spanning all shards.
        for k in 0..64u64 {
            assert!(c.insert(k, k * 3).unwrap());
        }
        for k in 0..64u64 {
            assert_eq!(c.get(k).unwrap(), Some(k * 3));
        }

        server.shutdown().unwrap();
        cleanup(&dir, &sock);
    }
}

#[test]
fn pipelined_requests_answer_in_order() {
    let (server, dir, sock) = start("pipeline", PolicyKind::NvTraverse);
    let mut c = Client::connect_uds(&sock).unwrap();

    // Write a window of frames before reading any reply; the server must
    // answer strictly in order.
    let reqs: Vec<Request> = (0..32u64)
        .map(|k| Request::Insert(k, k + 100))
        .chain((0..32u64).map(Request::Get))
        .collect();
    for r in &reqs {
        c.send(r).unwrap();
    }
    for (i, r) in reqs.iter().enumerate() {
        let reply = c.recv(r).unwrap();
        if i < 32 {
            assert_eq!(reply, Reply::Applied, "insert #{i}");
        } else {
            assert_eq!(reply, Reply::Value(i as u64 - 32 + 100), "get #{i}");
        }
    }

    server.shutdown().unwrap();
    cleanup(&dir, &sock);
}

#[test]
fn batches_group_commit_and_report_per_op_replies() {
    let (server, dir, sock) = start("batch", PolicyKind::NvTraverse);
    let mut c = Client::connect_uds(&sock).unwrap();

    let ops: Vec<Request> = (0..50u64)
        .map(|k| Request::Insert(k, k))
        .chain([Request::Get(7), Request::Remove(3), Request::Get(3)])
        .collect();
    let replies = c.batch(&ops).unwrap();
    assert_eq!(replies.len(), 53);
    assert!(replies[..50].iter().all(|r| *r == Reply::Applied));
    assert_eq!(replies[50], Reply::Value(7));
    assert_eq!(replies[51], Reply::Applied);
    assert_eq!(replies[52], Reply::Miss);

    let (batches, batched_ops, deferred, closing) = server.batch_counters();
    assert_eq!(batches, 1);
    assert_eq!(batched_ops, 53);
    assert!(deferred >= 51, "every update defers its closing fence; got {deferred}");
    assert_eq!(closing, 1, "one shared fence at the batch durability point");

    server.shutdown().unwrap();
    cleanup(&dir, &sock);
}

#[test]
fn malformed_frames_get_bad_request_then_close() {
    let (server, dir, sock) = start("malformed", PolicyKind::NvTraverse);

    // Unknown opcode: framed correctly, body garbage.
    let mut c = Client::connect_uds(&sock).unwrap();
    c.send_raw(&[1, 0, 0, 0, 0xAB]).unwrap();
    let reply = c.recv_raw_frame().unwrap().expect("a BAD_REQUEST reply frame");
    assert_eq!(reply[0], nvtraverse_server::proto::ST_BAD_REQUEST);
    assert_eq!(c.drain_to_eof().unwrap(), 0, "server closes after BAD_REQUEST");

    // Oversized length prefix: connection is cut without a reply.
    let mut c = Client::connect_uds(&sock).unwrap();
    c.send_raw(&(u32::MAX).to_le_bytes()).unwrap();
    assert_eq!(c.drain_to_eof().unwrap(), 0);

    // Control op smuggled into a batch: BAD_REQUEST.
    let mut c = Client::connect_uds(&sock).unwrap();
    c.send_raw(&[6, 0, 0, 0, 0x10, 1, 0, 0, 0, 0x07]).unwrap();
    let reply = c.recv_raw_frame().unwrap().expect("a BAD_REQUEST reply frame");
    assert_eq!(reply[0], nvtraverse_server::proto::ST_BAD_REQUEST);

    // A malformed connection must not poison a healthy one.
    let mut healthy = Client::connect_uds(&sock).unwrap();
    assert!(healthy.insert(9, 90).unwrap());
    assert_eq!(healthy.get(9).unwrap(), Some(90));

    server.shutdown().unwrap();
    cleanup(&dir, &sock);
}

#[test]
fn concurrent_clients_on_disjoint_and_overlapping_keys() {
    let (server, dir, sock) = start("concurrent", PolicyKind::NvTraverse);
    const PER: u64 = 200;

    std::thread::scope(|s| {
        // Disjoint ranges: every thread owns its keys outright.
        for t in 0..3u64 {
            let sock = &sock;
            s.spawn(move || {
                let mut c = Client::connect_uds(sock).unwrap();
                let base = 1_000 + t * PER;
                for k in base..base + PER {
                    assert!(c.insert(k, k * 2).unwrap());
                }
                for k in base..base + PER {
                    assert_eq!(c.get(k).unwrap(), Some(k * 2));
                }
            });
        }
        // Overlapping range: everyone inserts the same (key, value) pairs;
        // exactly the set semantics decide who wins, values all agree.
        for _ in 0..3 {
            let sock = &sock;
            s.spawn(move || {
                let mut c = Client::connect_uds(sock).unwrap();
                for k in 0..PER {
                    c.insert(k, k * 7).unwrap(); // true for exactly one client
                }
                for k in 0..PER {
                    assert_eq!(c.get(k).unwrap(), Some(k * 7));
                }
            });
        }
    });

    // Every key present exactly once.
    let mut c = Client::connect_uds(&sock).unwrap();
    for k in 0..PER {
        assert_eq!(c.get(k).unwrap(), Some(k * 7));
    }

    server.shutdown().unwrap();
    cleanup(&dir, &sock);
}

#[test]
fn stats_is_valid_json_with_service_counters() {
    let (server, dir, sock) = start("stats", PolicyKind::Soft);
    let mut c = Client::connect_uds(&sock).unwrap();
    for k in 0..10u64 {
        c.insert(k, k).unwrap();
    }
    c.batch(&[Request::Get(1), Request::Insert(99, 1)]).unwrap();

    let doc = c.stats_json().unwrap();
    assert_valid_json(&doc);
    assert!(doc.contains("\"policy\":\"soft\""), "{doc}");
    assert!(doc.contains(&format!("\"shards\":{SHARDS}")), "{doc}");
    assert!(doc.contains("\"batches\":1"), "{doc}");
    assert!(doc.contains("\"obs\":"), "{doc}");
    assert!(doc.contains("\"pools\":"), "{doc}");

    server.shutdown().unwrap();
    cleanup(&dir, &sock);
}

#[test]
fn shutdown_is_durable_and_reopen_serves_the_same_data() {
    let (server, dir, sock) = start("durable", PolicyKind::NvTraverse);
    let mut c = Client::connect_uds(&sock).unwrap();
    for k in 0..128u64 {
        assert!(c.insert(k, k ^ 0xAA).unwrap());
    }
    let ack = c.insert_detectable(500, 1).unwrap();
    assert!(ack.applied);
    drop(c);
    server.shutdown().unwrap();

    // Reopen = full recovery; the same socket path is reusable.
    let store = KvStore::open(&dir).unwrap();
    assert_eq!(store.policy(), PolicyKind::NvTraverse);
    let server = Server::start_uds(&sock, store, ServerConfig::default()).unwrap();
    let mut c = Client::connect_uds(&sock).unwrap();
    for k in 0..128u64 {
        assert_eq!(c.get(k).unwrap(), Some(k ^ 0xAA), "key {k} lost across restart");
    }
    // The pre-restart detectable op is answerable by id now.
    assert_eq!(c.op_outcome(ack.shard, ack.op_id).unwrap(), OutcomeAnswer::Committed);

    // Wire shutdown: the SHUTDOWN request acks, then the server drains.
    c.shutdown_server().unwrap();
    assert!(server.shutdown_requested());
    server.shutdown().unwrap();
    cleanup(&dir, &sock);
}

#[test]
fn tcp_transport_speaks_the_same_protocol() {
    let (dir, sock) = temp_paths("tcp");
    let store = KvStore::create(&dir, PolicyKind::NvTraverse, SHARDS, SHARD_CAP).unwrap();
    let server = Server::start_tcp("127.0.0.1:0", store, ServerConfig::default()).unwrap();
    let addr = server.tcp_addr().expect("bound TCP address");

    let mut c = Client::connect_tcp(addr).unwrap();
    assert!(c.insert(1, 2).unwrap());
    assert_eq!(c.get(1).unwrap(), Some(2));
    let replies = c.batch(&[Request::Get(1), Request::Remove(1)]).unwrap();
    assert_eq!(replies, vec![Reply::Value(2), Reply::Applied]);

    server.shutdown().unwrap();
    cleanup(&dir, &sock);
}
