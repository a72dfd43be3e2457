//! Backpressure end to end (typed `Overloaded`, driven by the live
//! in-flight count and fsync histogram) and graceful shutdown (drain,
//! final group-commit fsync, sealed segment).

use dynfo_core::Request;
use dynfo_net::{
    AdmissionConfig, Client, ErrorCode, NetError, ProgramRegistry, Server, ServerConfig,
};
use dynfo_obs::{ObsHandle, Registry};
use dynfo_serve::{scratch_dir, SessionStore, StoreConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start(
    dir: &std::path::Path,
    store_config: StoreConfig,
    admission: AdmissionConfig,
) -> (Server, String, Arc<Registry>) {
    let registry = Arc::new(Registry::new());
    let handle = ObsHandle::with_registry(Arc::clone(&registry));
    let store =
        Arc::new(SessionStore::open_with_obs(dir, store_config, handle.clone()).unwrap());
    let server = Server::start(
        "127.0.0.1:0",
        store,
        Arc::new(ProgramRegistry::standard()),
        ServerConfig {
            admission,
            ..ServerConfig::default()
        },
        handle,
    )
    .unwrap();
    let addr = server.addr().to_string();
    (server, addr, registry)
}

fn assert_overloaded(outcome: Result<u64, NetError>) {
    match outcome {
        Err(NetError::Remote { code, detail }) => {
            assert_eq!(code.as_u8(), ErrorCode::Overloaded.as_u8(), "detail: {detail}");
        }
        other => panic!("expected typed Overloaded, got {other:?}"),
    }
}

#[test]
fn fsync_latency_p99_sheds_writes_after_warmup() {
    let dir = scratch_dir("net-bp-fsync");
    let (server, addr, registry) = start(
        &dir,
        StoreConfig::default(),
        AdmissionConfig {
            max_fsync_p99_ns: 1_000, // 1 µs: any real disk plus our injected samples trips it
            fsync_window: Duration::from_millis(100),
            ..AdmissionConfig::default()
        },
    );
    let mut client = Client::connect(&addr).unwrap();
    client.open("bp", "parity", 8).unwrap();
    client.apply(Request::ins("M", [1])).unwrap();

    // Inject a slow-disk signature into the same histogram the journal
    // writer records to (16 samples = the controller's warmup floor).
    let h = registry.histogram("serve.journal.fsync_ns");
    for _ in 0..16 {
        h.observe(100_000_000); // 100 ms fsyncs
    }
    assert_overloaded(client.apply(Request::ins("M", [2])));
    assert!(registry.counter("net.server.shed").get() >= 1);

    // Reads are never shed, even while writes are.
    assert!(client.query().unwrap(), "query still served under overload");

    // The disk recovers: once the window rolls over (the first write
    // past the boundary rotates it and may still be judged on the
    // stall), writes flow again on the same connection.
    std::thread::sleep(Duration::from_millis(150));
    let resumed = (0..3).any(|_| client.apply(Request::ins("M", [2])).is_ok());
    assert!(resumed, "writes resume once the window rolls over");
    assert!(!client.query().unwrap());

    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn inflight_write_cap_reported_in_detail() {
    let dir = scratch_dir("net-bp-inflight");
    let (server, addr, _registry) = start(
        &dir,
        StoreConfig::default(),
        AdmissionConfig {
            max_inflight_writes: 0, // degenerate cap: every write sheds
            ..AdmissionConfig::default()
        },
    );
    let mut client = Client::connect(&addr).unwrap();
    client.open("bp", "parity", 8).unwrap();
    match client.apply(Request::ins("M", [1])) {
        Err(e) => {
            assert!(e.is_overloaded(), "got {e}");
            assert!(e.to_string().contains("limit 0"), "detail names the cap: {e}");
        }
        Ok(_) => panic!("write admitted past a zero cap"),
    }
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_shutdown_flushes_group_commit_and_seals_the_segment() {
    let dir = scratch_dir("net-shutdown-flush");
    // group_commit=64: acknowledged writes sit in the journal buffer,
    // durable only when something commits them. Graceful shutdown must.
    let store_config = StoreConfig {
        recompute_every: 0,
        snapshot_every: 0,
        group_commit: 64,
    };
    let (server, addr, _registry) = start(&dir, store_config, AdmissionConfig::default());
    let mut client = Client::connect(&addr).unwrap();
    client.open("flush", "parity", 8).unwrap();
    for i in 0..5u32 {
        client.apply(Request::ins("M", [i])).unwrap();
    }
    drop(client);
    server.shutdown().unwrap();

    // The active segment was sealed: a rotated `wal-5.log` base exists
    // alongside the original `wal-0.log`.
    let mut bases: Vec<String> = std::fs::read_dir(dir.join("flush"))
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("wal-"))
        .collect();
    bases.sort();
    assert_eq!(
        bases,
        vec![
            "wal-00000000000000000000.log",
            "wal-00000000000000000005.log"
        ],
        "segment not sealed"
    );

    // Cold restart over the same directory: all five buffered writes
    // survived the final fsync.
    let reopened = SessionStore::open(&dir, store_config).unwrap();
    let session = reopened
        .session("flush", &dynfo_core::programs::parity::program(), 8)
        .unwrap();
    assert_eq!(session.seq(), 5, "group-commit buffer lost on shutdown");
    assert!(session.query().unwrap(), "5 odd bits → parity true");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_with_idle_connections_drains_promptly() {
    let dir = scratch_dir("net-shutdown-drain");
    let (server, addr, _registry) = start(
        &dir,
        StoreConfig::default(),
        AdmissionConfig::default(),
    );
    // Three idle connections parked mid-session; the drain must not
    // wait on them forever — they exit at the next frame boundary poll.
    let mut parked = Vec::new();
    for i in 0..3 {
        let mut c = Client::connect(&addr).unwrap();
        c.open(&format!("idle-{i}"), "parity", 8).unwrap();
        parked.push(c);
    }
    let started = Instant::now();
    server.shutdown().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "drain took {:?} with idle connections",
        started.elapsed()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_is_not_wedged_by_a_peer_stalled_mid_frame() {
    use std::io::Write;
    let dir = scratch_dir("net-shutdown-midframe");
    let (server, addr, _registry) =
        start(&dir, StoreConfig::default(), AdmissionConfig::default());
    // A raw peer that completes the handshake, sends 3 bytes of an
    // 8-byte frame header, then goes silent — without a mid-frame
    // drain deadline this would hold a handler thread (and the join in
    // shutdown) forever.
    let mut raw = std::net::TcpStream::connect(&addr).unwrap();
    dynfo_net::proto::write_hello(&mut raw).unwrap();
    dynfo_net::proto::read_hello(&mut raw).unwrap();
    raw.write_all(&[7, 0, 0]).unwrap();
    raw.flush().unwrap();
    // Let the handler pick up the partial header before stop is set.
    std::thread::sleep(Duration::from_millis(150));
    let started = Instant::now();
    server.shutdown().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "drain took {:?} with a peer stalled mid-frame",
        started.elapsed()
    );
    drop(raw);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shed_fsync_signal_unlatches_without_fresh_samples() {
    let dir = scratch_dir("net-bp-fsync-recover");
    let (server, addr, registry) = start(
        &dir,
        StoreConfig::default(),
        AdmissionConfig {
            max_fsync_p99_ns: 1_000,
            fsync_window: Duration::from_millis(50),
            ..AdmissionConfig::default()
        },
    );
    let mut client = Client::connect(&addr).unwrap();
    client.open("bp", "parity", 8).unwrap();
    // A transient disk stall: 16 terrible fsyncs, then silence.
    let h = registry.histogram("serve.journal.fsync_ns");
    for _ in 0..16 {
        h.observe(100_000_000);
    }
    assert_overloaded(client.apply(Request::ins("M", [1])));
    // Shed writes record no fsyncs; the signal must still clear once a
    // window passes without bad samples — not require a restart.
    let recovered = Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(25));
        match client.apply(Request::ins("M", [1])) {
            Ok(_) => break,
            Err(e) if e.is_overloaded() && recovered.elapsed() < Duration::from_secs(5) => {}
            Err(e) => panic!("write never recovered after the stall: {e}"),
        }
    }
    assert!(client.query().unwrap(), "the recovered write landed");
    server.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn programmatic_shutdown_flag_round_trips() {
    assert!(!dynfo_net::shutdown_requested());
    dynfo_net::install_signal_handlers();
    assert!(!dynfo_net::shutdown_requested());
    dynfo_net::request_shutdown();
    assert!(dynfo_net::shutdown_requested());
}
