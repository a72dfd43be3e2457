//! Two writer connections on one session: every write is answered with
//! the sequence number it was assigned, never a concurrent writer's.
//! The reply seqs of both connections (a batch reply covers its frames)
//! partition `1..=N` exactly, and each connection's seqs increase.

use dynfo_core::Request;
use dynfo_net::{Client, ProgramRegistry, Server, ServerConfig};
use dynfo_obs::ObsHandle;
use dynfo_serve::{scratch_dir, SessionStore, StoreConfig};
use std::sync::Arc;

/// Write requests per connection.
const WRITES: u32 = 300;
/// Frames per `ApplyBatch` on the batching connection.
const BATCH: u32 = 3;

#[test]
fn each_write_reply_carries_its_own_seq() {
    let dir = scratch_dir("net-two-writers");
    let handle = ObsHandle::disabled();
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

    // Each connection collects the seq ranges its replies cover.
    let ranges: Vec<Vec<(u64, u64)>> = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..2u32)
            .map(|part| {
                let addr = &addr;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    client.open("shared", "parity", 64).unwrap();
                    let mut covered = Vec::new();
                    if part == 0 {
                        for i in 0..WRITES {
                            let seq = client.apply(Request::ins("M", [i % 32])).unwrap();
                            covered.push((seq, seq));
                        }
                    } else {
                        for i in 0..WRITES / BATCH {
                            let batch = (0..BATCH)
                                .map(|k| Request::ins("M", [32 + (i * BATCH + k) % 32]))
                                .collect();
                            let seq = client.apply_batch(batch).unwrap();
                            covered.push((seq + 1 - BATCH as u64, seq));
                        }
                    }
                    covered
                })
            })
            .collect();
        writers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    for (part, covered) in ranges.iter().enumerate() {
        assert!(
            covered.windows(2).all(|w| w[0].1 < w[1].0),
            "connection {part}'s reply seqs do not increase: {covered:?}"
        );
    }
    let mut seen: Vec<u64> = ranges
        .iter()
        .flatten()
        .flat_map(|&(lo, hi)| lo..=hi)
        .collect();
    seen.sort_unstable();
    let total = 2 * WRITES as u64;
    assert_eq!(
        seen,
        (1..=total).collect::<Vec<_>>(),
        "reply seqs must cover 1..={total}, each exactly once"
    );
    server.shutdown().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
