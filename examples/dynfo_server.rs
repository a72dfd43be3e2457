//! The full networked serving tier in one process: a primary, a
//! log-shipping read replica, wire clients, live backpressure, and a
//! graceful drain — the durable social network of `durable_server`,
//! now behind TCP.
//!
//! The primary serves the `friends` session (REACH_u) read-write; the
//! replica pulls the primary's group-committed journal, replays it
//! through its own recovery-grade session, and serves the same reads
//! from a second endpoint. Writes to the replica are refused with a
//! typed `ReadOnly` error; writes to an overloaded primary come back
//! as typed `Overloaded` (shown here by feeding the admission
//! controller a slow-disk fsync signature); ctrl-c (or the programmatic
//! equivalent used below) drains connections, flushes the group-commit
//! buffer with a final fsync, and seals the active journal segment.
//!
//! Run with: `cargo run --example dynfo_server`

use dynfo::core::Request;
use dynfo::net::{
    AdmissionConfig, Client, NetError, ProgramRegistry, Replica, ReplicaConfig, Server,
    ServerConfig,
};
use dynfo::obs::ObsHandle;
use dynfo::serve::{scratch_dir, SessionStore, StoreConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

const PEOPLE: [&str; 8] = [
    "alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi",
];

fn main() {
    let n = PEOPLE.len() as u32;
    let root = scratch_dir("dynfo-server-example");
    let registry = Arc::new(ProgramRegistry::standard());

    // --- primary: durable store + listener on an ephemeral port -----
    let primary_handle = ObsHandle::with_registry(Arc::new(dynfo::obs::Registry::new()));
    let primary_store = Arc::new(
        SessionStore::open_with_obs(
            root.join("primary"),
            StoreConfig {
                recompute_every: 0,
                snapshot_every: 16,
                group_commit: 1,
            },
            primary_handle.clone(),
        )
        .expect("open primary store"),
    );
    let primary = Server::start(
        "127.0.0.1:0",
        Arc::clone(&primary_store),
        Arc::clone(&registry),
        ServerConfig {
            // A short fsync window, so the backpressure demo below
            // clears in a fraction of a second.
            admission: AdmissionConfig {
                fsync_window: Duration::from_millis(200),
                ..AdmissionConfig::default()
            },
            ..ServerConfig::default()
        },
        primary_handle.clone(),
    )
    .expect("start primary");
    let primary_addr = primary.addr().to_string();
    println!("primary listening on {primary_addr}");

    // --- replica: own store, pulls the primary's journal ------------
    let replica_handle = ObsHandle::with_registry(Arc::new(dynfo::obs::Registry::new()));
    let replica_store = Arc::new(
        SessionStore::open_with_obs(
            root.join("replica"),
            StoreConfig::default(),
            replica_handle.clone(),
        )
        .expect("open replica store"),
    );
    let replica = Replica::start(
        "127.0.0.1:0",
        &primary_addr,
        replica_store,
        Arc::clone(&registry),
        "friends",
        "reach_u",
        n,
        ReplicaConfig::default(),
        replica_handle.clone(),
    )
    .expect("start replica");
    let replica_addr = replica.addr().to_string();
    println!("replica listening on {replica_addr} (read-only)\n");

    // --- a writer builds the friendship graph over the wire ---------
    let mut writer = Client::connect(&primary_addr).expect("connect primary");
    writer.open("friends", "reach_u", n).expect("open session");
    let edges = [(0u32, 1u32), (1, 2), (3, 4), (4, 5), (2, 3)];
    for &(a, b) in &edges {
        let seq = writer.apply(Request::ins("E", [a, b])).expect("apply");
        println!(
            "primary seq {seq}: {} and {} are now friends",
            PEOPLE[a as usize], PEOPLE[b as usize]
        );
    }

    // --- the replica catches up and answers the same reads ----------
    let primary_seq = primary_store.get("friends").unwrap().seq();
    let deadline = Instant::now() + Duration::from_secs(10);
    while replica.seq() < primary_seq && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    println!("\nreplica caught up at seq {}", replica.seq());
    let mut reader = Client::connect(&replica_addr).expect("connect replica");
    reader.open("friends", "reach_u", n).expect("open session");
    for (a, b) in [(0u32, 3u32), (0, 6)] {
        let connected = reader.query_named("connected", &[a, b]).expect("query replica");
        println!(
            "replica: can a rumor travel {} -> {}? {}",
            PEOPLE[a as usize],
            PEOPLE[b as usize],
            if connected { "yes" } else { "no" }
        );
    }

    // --- the replica refuses writes, typed --------------------------
    match reader.apply(Request::ins("E", [6, 7])) {
        Err(NetError::Remote { code, detail }) => {
            println!("\nreplica refused a write [{}]: {detail}", code.as_str());
        }
        other => println!("\nunexpected: {other:?}"),
    }

    // --- backpressure: a slow disk sheds writes ----------------------
    // The admission controller watches the journal's fsync p99 over a
    // rolling window; a burst of one-second fsyncs in that histogram
    // makes the next write shed with a typed Overloaded — the client's
    // cue to back off.
    let fsync_ns = primary_handle.registry().unwrap().histogram("serve.journal.fsync_ns");
    for _ in 0..dynfo::net::backpressure::FSYNC_WARMUP_SAMPLES {
        fsync_ns.observe(1_000_000_000);
    }
    match writer.apply(Request::ins("E", [5, 6])) {
        Err(e) if e.is_overloaded() => println!("primary shed a write: {e}"),
        other => println!("unexpected: {other:?}"),
    }
    // The disk recovers. The first write past the window boundary
    // rotates the window (and may still be judged on the stall); the
    // fresh window holds no slow samples, so writes flow again.
    std::thread::sleep(Duration::from_millis(250));
    let resumed = (0..3).any(|_| writer.apply(Request::ins("E", [5, 6])).is_ok());
    assert!(resumed, "write flows again");
    println!("load cleared; writes flow again");

    // --- graceful shutdown: drain, final fsync, sealed segment ------
    // A real deployment calls dynfo::net::install_signal_handlers()
    // and polls shutdown_requested(); here we trigger the same path.
    dynfo::net::request_shutdown();
    assert!(dynfo::net::shutdown_requested());
    drop(reader);
    drop(writer);
    replica.shutdown().expect("replica drains");
    primary.shutdown().expect("primary drains, flushes, seals");
    println!("\nshutdown complete: journals flushed and segments sealed");

    let _ = std::fs::remove_dir_all(&root);
}
