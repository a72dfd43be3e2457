//! Adversarial wire-decoder tests: hostile bytes on a real socket must
//! error the connection with a typed response (or a close) — never a
//! panic, never an attacker-sized allocation — and the server must keep
//! serving well-behaved clients afterwards.

use dynfo_net::proto::{read_message, ErrorCode, Message, MAX_WIRE_FRAME};
use dynfo_net::{Client, NetError, ProgramRegistry, Server, ServerConfig};
use dynfo_obs::{ObsHandle, Registry};
use dynfo_serve::codec::crc32;
use dynfo_serve::{scratch_dir, SessionStore, StoreConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

/// A running server on an ephemeral port, with its private registry so
/// tests can read `net.server.decode_errors` without cross-test noise.
struct Harness {
    server: Option<Server>,
    addr: String,
    registry: Arc<Registry>,
    dir: std::path::PathBuf,
}

impl Harness {
    fn start() -> Harness {
        let dir = scratch_dir("net-wire");
        let registry = Arc::new(Registry::new());
        let handle = ObsHandle::with_registry(Arc::clone(&registry));
        let store = Arc::new(
            SessionStore::open_with_obs(&dir, StoreConfig::default(), handle.clone()).unwrap(),
        );
        let server = Server::start(
            "127.0.0.1:0",
            store,
            Arc::new(ProgramRegistry::standard()),
            ServerConfig::default(),
            handle,
        )
        .unwrap();
        let addr = server.addr().to_string();
        Harness {
            server: Some(server),
            addr,
            registry,
            dir,
        }
    }

    fn decode_errors(&self) -> u64 {
        self.registry.counter("net.server.decode_errors").get()
    }

    /// The server is still healthy: a fresh well-behaved client can
    /// open a session and round-trip a query.
    fn assert_still_serving(&self) {
        let mut client = Client::connect(&self.addr).expect("fresh connect");
        client.open("probe", "parity", 8).expect("open");
        client.ping().expect("ping");
    }

    /// Raw socket that has completed a *valid* handshake.
    fn raw_after_handshake(&self) -> TcpStream {
        let mut s = TcpStream::connect(&self.addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut hello = Vec::new();
        hello.extend_from_slice(b"DYNW");
        hello.extend_from_slice(&dynfo_net::proto::WIRE_VERSION.to_le_bytes());
        hello.extend_from_slice(&0u16.to_le_bytes());
        s.write_all(&hello).unwrap();
        let mut reply = [0u8; 8];
        s.read_exact(&mut reply).unwrap();
        assert_eq!(&reply[0..4], b"DYNW");
        s
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        if let Some(s) = self.server.take() {
            let _ = s.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Wait until `deadline` for the connection to be closed by the peer.
fn read_to_close(s: &mut TcpStream) {
    let mut buf = [0u8; 256];
    loop {
        match s.read(&mut buf) {
            Ok(0) => return,
            Ok(_) => continue,
            Err(e) => panic!("expected close, got error {e}"),
        }
    }
}

fn expect_err_frame(s: &mut TcpStream, code: ErrorCode) {
    match read_message(s) {
        Ok(Some(Message::Err { code: got, .. })) => assert_eq!(got.as_u8(), code.as_u8()),
        other => panic!("expected Err({}) frame, got {other:?}", code.as_str()),
    }
}

#[test]
fn version_mismatch_gets_a_typed_error() {
    let h = Harness::start();
    let mut s = TcpStream::connect(&h.addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut hello = Vec::new();
    hello.extend_from_slice(b"DYNW");
    hello.extend_from_slice(&99u16.to_le_bytes());
    hello.extend_from_slice(&0u16.to_le_bytes());
    s.write_all(&hello).unwrap();
    expect_err_frame(&mut s, ErrorCode::VersionMismatch);
    read_to_close(&mut s);
    assert!(h.decode_errors() >= 1);
    h.assert_still_serving();
}

#[test]
fn bad_handshake_magic_closes_the_connection() {
    let h = Harness::start();
    let mut s = TcpStream::connect(&h.addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    s.write_all(b"GET / HT").unwrap(); // an HTTP client by mistake
    read_to_close(&mut s);
    assert!(h.decode_errors() >= 1);
    h.assert_still_serving();
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    let h = Harness::start();
    let mut s = h.raw_after_handshake();
    // Header promising a 4 GiB payload. The server must refuse from the
    // 8 header bytes alone — if it tried to allocate first, this test
    // (and the box) would notice.
    let mut frame = Vec::new();
    frame.extend_from_slice(&u32::MAX.to_le_bytes());
    frame.extend_from_slice(&0u32.to_le_bytes());
    s.write_all(&frame).unwrap();
    expect_err_frame(&mut s, ErrorCode::Malformed);
    read_to_close(&mut s);
    assert!(h.decode_errors() >= 1);
    h.assert_still_serving();
}

#[test]
fn barely_oversized_frame_is_also_rejected() {
    let h = Harness::start();
    let mut s = h.raw_after_handshake();
    let mut frame = Vec::new();
    frame.extend_from_slice(&(MAX_WIRE_FRAME + 1).to_le_bytes());
    frame.extend_from_slice(&0u32.to_le_bytes());
    s.write_all(&frame).unwrap();
    expect_err_frame(&mut s, ErrorCode::Malformed);
    h.assert_still_serving();
}

#[test]
fn truncated_frame_errors_the_connection() {
    let h = Harness::start();
    let mut s = h.raw_after_handshake();
    // Promise 64 payload bytes, deliver 10, hang up.
    let mut frame = Vec::new();
    frame.extend_from_slice(&64u32.to_le_bytes());
    frame.extend_from_slice(&0u32.to_le_bytes());
    frame.extend_from_slice(&[0xAB; 10]);
    s.write_all(&frame).unwrap();
    s.shutdown(std::net::Shutdown::Write).unwrap();
    expect_err_frame(&mut s, ErrorCode::Malformed);
    read_to_close(&mut s);
    assert!(h.decode_errors() >= 1);
    h.assert_still_serving();
}

#[test]
fn partial_header_then_close_is_handled() {
    let h = Harness::start();
    let mut s = h.raw_after_handshake();
    s.write_all(&[0x01, 0x02, 0x03]).unwrap(); // 3 of 8 header bytes
    s.shutdown(std::net::Shutdown::Write).unwrap();
    expect_err_frame(&mut s, ErrorCode::Malformed);
    read_to_close(&mut s);
    assert!(h.decode_errors() >= 1);
    h.assert_still_serving();
}

#[test]
fn crc_mismatch_is_detected() {
    let h = Harness::start();
    let mut s = h.raw_after_handshake();
    let payload = [0x07u8]; // a valid Ping payload...
    let mut frame = Vec::new();
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&(crc32(&payload) ^ 0xDEAD_BEEF).to_le_bytes()); // ...with a wrong CRC
    frame.extend_from_slice(&payload);
    s.write_all(&frame).unwrap();
    expect_err_frame(&mut s, ErrorCode::Malformed);
    assert!(h.decode_errors() >= 1);
    h.assert_still_serving();
}

#[test]
fn hostile_batch_count_is_rejected_not_allocated() {
    let h = Harness::start();
    let mut s = h.raw_after_handshake();
    // An ApplyBatch claiming u32::MAX requests in a 5-byte body. The
    // decoder must bound-check the count against MAX_BATCH before
    // believing it, not size a Vec by it.
    let mut payload = Vec::new();
    payload.push(0x03); // ApplyBatch
    payload.extend_from_slice(&u32::MAX.to_le_bytes());
    let mut frame = Vec::new();
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    s.write_all(&frame).unwrap();
    expect_err_frame(&mut s, ErrorCode::Malformed);
    assert!(h.decode_errors() >= 1);
    h.assert_still_serving();
}

#[test]
fn unknown_message_kind_is_rejected() {
    let h = Harness::start();
    let mut s = h.raw_after_handshake();
    let payload = [0x6F_u8, 1, 2, 3];
    let mut frame = Vec::new();
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    s.write_all(&frame).unwrap();
    expect_err_frame(&mut s, ErrorCode::Malformed);
    h.assert_still_serving();
}

#[test]
fn wrong_direction_kind_gets_typed_error_and_connection_survives() {
    let h = Harness::start();
    let mut s = h.raw_after_handshake();
    // A well-formed *server-side* Pong sent to the server: nonsense,
    // but not corruption — typed error, connection stays up.
    let payload = [0x86u8];
    let mut frame = Vec::new();
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    s.write_all(&frame).unwrap();
    expect_err_frame(&mut s, ErrorCode::Malformed);
    // Same socket still speaks: a real Ping now round-trips.
    let ping = [0x07u8];
    let mut frame = Vec::new();
    frame.extend_from_slice(&(ping.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&ping).to_le_bytes());
    frame.extend_from_slice(&ping);
    s.write_all(&frame).unwrap();
    match read_message(&mut s) {
        Ok(Some(Message::Pong)) => {}
        other => panic!("expected Pong, got {other:?}"),
    }
}

#[test]
fn client_surfaces_remote_errors_as_typed() {
    let h = Harness::start();
    let mut client = Client::connect(&h.addr).unwrap();
    // Query without Open: typed NoSession, not a dead socket.
    match client.query() {
        Err(NetError::Remote { code, .. }) => assert_eq!(code.as_u8(), ErrorCode::NoSession.as_u8()),
        other => panic!("expected NoSession, got {other:?}"),
    }
    // Unknown program: typed error, connection still usable after.
    match client.open("s1", "no_such_program", 8) {
        Err(NetError::Remote { .. }) => {}
        other => panic!("expected remote error, got {other:?}"),
    }
    client.open("s1", "parity", 8).unwrap();
    client.apply(dynfo_core::Request::ins("M", [3])).unwrap();
    assert!(client.query().unwrap());
}

#[test]
fn open_past_the_size_budget_is_an_error_reply() {
    // REACH_u over n = 100 000 would need 10¹⁵ bits of bitmap, and a
    // universe of n = 0 has no structure at all: each Open is refused
    // with a typed machine error before anything is allocated or
    // written, and the same connection then serves a small session
    // under the same name — so on the same store shard.
    let h = Harness::start();
    let mut client = Client::connect(&h.addr).unwrap();
    for (n, why) in [(100_000, "budget"), (0, "at least one element")] {
        match client.open("small", "reach_u", n) {
            Err(NetError::Remote { code, detail }) => {
                assert_eq!(code.as_u8(), ErrorCode::Machine.as_u8(), "n = {n}: {detail}");
                assert!(detail.contains(why), "n = {n}: {detail}");
            }
            other => panic!("n = {n}: expected a Machine error, got {other:?}"),
        }
        assert!(!h.dir.join("small").exists(), "n = {n} left a session directory");
    }
    client.open("small", "reach_u", 8).unwrap();
    client.apply(dynfo_core::Request::ins("E", [0, 1])).unwrap();
    assert!(client.query_named("connected", &[0, 1]).unwrap());
    assert!(!client.query_named("connected", &[0, 2]).unwrap());
    h.assert_still_serving();
}
