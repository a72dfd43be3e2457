//! The metric catalog in DESIGN §3.6 and the metrics the system actually
//! registers are held equal. This binary drives every layer on the
//! default (process-global) registry — a machine with a bulk change, a
//! batch and a recompute, a durable session through a snapshot and a
//! recovery, and a primary server with a read replica over real
//! sockets — then compares `Registry::names()` with the names DESIGN
//! lists. It has its own binary so no other test registers into the
//! same process registry.

use dynfo::core::{programs, DynFoMachine, Request};
use dynfo::logic::formula::{lit, lt, v};
use dynfo::net::{Client, ProgramRegistry, Replica, ReplicaConfig, Server, ServerConfig};
use dynfo::obs::ObsHandle;
use dynfo::serve::{scratch_dir, SessionStore, StoreConfig};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The names in the first column of DESIGN §3.6's catalog table, one
/// pattern each: `{a,b}` groups expanded, `<name>` kept as a wildcard.
fn catalog() -> Vec<String> {
    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md"))
        .expect("read DESIGN.md");
    let start = design.find("**Metric name catalog.**").expect("§3.6 catalog");
    let mut out = Vec::new();
    for line in design[start..].lines().skip_while(|l| !l.starts_with('|')) {
        if !line.starts_with('|') {
            break;
        }
        let first = line.split('|').nth(1).unwrap_or("");
        for name in first.split('`').skip(1).step_by(2) {
            out.extend(expand(name));
        }
    }
    assert!(!out.is_empty(), "no catalog rows found");
    out
}

/// Expand one `{a,b,…}` group (the catalog uses at most one per name).
fn expand(pattern: &str) -> Vec<String> {
    match (pattern.find('{'), pattern.find('}')) {
        (Some(open), Some(close)) => pattern[open + 1..close]
            .split(',')
            .map(|alt| format!("{}{alt}{}", &pattern[..open], &pattern[close + 1..]))
            .collect(),
        _ => vec![pattern.to_string()],
    }
}

/// Does `name` match `pattern`, where `<…>` stands for any non-empty
/// run of characters without a dot?
fn matches(pattern: &str, name: &str) -> bool {
    match (pattern.find('<'), pattern.find('>')) {
        (Some(open), Some(close)) => {
            let (prefix, suffix) = (&pattern[..open], &pattern[close + 1..]);
            name.len() > prefix.len() + suffix.len()
                && name.starts_with(prefix)
                && name.ends_with(suffix)
                && !name[prefix.len()..name.len() - suffix.len()].contains('.')
        }
        _ => pattern == name,
    }
}

/// A machine on the default registry: single requests, a batch, a
/// definable bulk change, queries, and a recompute.
fn drive_machine() {
    let mut m = DynFoMachine::new(programs::reach_u::program(), 8);
    m.apply(&Request::ins("E", [0, 1])).unwrap();
    m.apply_batch(&[Request::ins("E", [1, 2]), Request::del("E", [0, 1])])
        .unwrap();
    m.apply(&Request::bulk_ins("E", lt(v("x0"), v("x1")) & lt(v("x1"), lit(3))))
        .unwrap();
    assert!(m.query_named("connected", &[0, 2]).unwrap());
    m.query().unwrap();
    let mut d = DynFoMachine::new(programs::dir_reach::dir_reach_program(), 8);
    d.apply(&Request::ins("E", [0, 1])).unwrap();
    assert!(d.recompute().unwrap(), "directed REACH carries a recompute");
}

/// A durable session: writes past a snapshot, a clean shutdown, then a
/// reopen that recovers from the snapshot and the journal tail.
fn drive_session() {
    let dir = scratch_dir("metric-catalog-store");
    let config = StoreConfig {
        snapshot_every: 2,
        ..StoreConfig::default()
    };
    let store = SessionStore::open(&dir, config).unwrap();
    let s = store.session("cat", &programs::reach_u::program(), 8).unwrap();
    for (a, b) in [(0, 1), (1, 2), (2, 3)] {
        s.apply(&Request::ins("E", [a, b])).unwrap();
    }
    drop(s);
    store.shutdown().unwrap();
    let store = SessionStore::open(&dir, config).unwrap();
    let s = store.session("cat", &programs::reach_u::program(), 8).unwrap();
    assert!(s.query_named("connected", &[0, 3]).unwrap());
    drop(s);
    store.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A primary and a read replica on the default registry, and a client
/// round trip through each.
fn drive_server() {
    let dir = scratch_dir("metric-catalog-net");
    let programs = Arc::new(ProgramRegistry::standard());
    let primary_store =
        Arc::new(SessionStore::open(dir.join("primary"), StoreConfig::default()).unwrap());
    let primary = Server::start(
        "127.0.0.1:0",
        primary_store,
        Arc::clone(&programs),
        ServerConfig::default(),
        ObsHandle::default(),
    )
    .unwrap();
    let primary_addr = primary.addr().to_string();
    let mut client = Client::connect(&primary_addr).unwrap();
    client.open("net", "reach_u", 8).unwrap();
    let seq = client.apply(Request::ins("E", [0, 1])).unwrap();
    assert!(client.query_named("connected", &[0, 1]).unwrap());

    let replica_store =
        Arc::new(SessionStore::open(dir.join("replica"), StoreConfig::default()).unwrap());
    let replica = Replica::start(
        "127.0.0.1:0",
        &primary_addr,
        replica_store,
        programs,
        "net",
        "reach_u",
        8,
        ReplicaConfig::default(),
        ObsHandle::default(),
    )
    .unwrap();
    let deadline = Instant::now() + Duration::from_secs(30);
    while replica.seq() < seq {
        assert!(Instant::now() < deadline, "replica never caught up");
        std::thread::sleep(Duration::from_millis(5));
    }
    let mut reader = Client::connect(&replica.addr().to_string()).unwrap();
    reader.open("net", "reach_u", 8).unwrap();
    assert!(reader.query_named("connected", &[0, 1]).unwrap());

    drop((client, reader));
    replica.shutdown().unwrap();
    primary.shutdown().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn registered_metrics_equal_the_design_catalog() {
    drive_machine();
    drive_session();
    drive_server();
    if !dynfo::obs::ENABLED {
        return;
    }
    let catalog = catalog();
    let names: BTreeSet<String> = dynfo::obs::global().names().into_iter().collect();
    let uncatalogued: Vec<&String> = names
        .iter()
        .filter(|n| !catalog.iter().any(|p| matches(p, n)))
        .collect();
    let unregistered: Vec<&String> = catalog
        .iter()
        .filter(|p| !names.iter().any(|n| matches(p, n)))
        .collect();
    assert!(
        uncatalogued.is_empty() && unregistered.is_empty(),
        "DESIGN §3.6 and the registry disagree\n  registered, not in the catalog: {uncatalogued:?}\n  \
         in the catalog, never registered: {unregistered:?}"
    );
}
