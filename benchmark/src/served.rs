//! The served workloads: REACH(acyclic) n=64 behind a durable session
//! (fsync per write, snapshot every 256 — `StoreConfig::default()`),
//! reached either over TCP (rung 3: `Client` → in-process `Server` on
//! 127.0.0.1:0) or by calling the `Session` directly (rung 2). Rung 1,
//! the bare machine, is [`crate::embedded`] fed the same streams.
//! Exactly two client threads, closed loop.

use crate::embedded;
use crate::gen::{backbone_pair, Churn, Op, Rng};
use crate::harness::{deadline, Counters, DataDir, Phase, Samples};
use crate::trace::Trace;
use dynfo_core::{programs, Request};
use dynfo_graph::transitive::transitive_closure;
use dynfo_graph::DiGraph;
use dynfo_net::{AdmissionConfig, Client, ProgramRegistry, Server, ServerConfig};
use dynfo_obs::{ObsHandle, Registry};
use dynfo_serve::{Session, SessionStore, StoreConfig};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const N: u32 = 64;
const SESSION: &str = "bench";
const QUERY: &str = "reaches";
/// Timed reopen-recoveries after the crash.
const RECOVERIES: usize = 10;
/// Acknowledged writes of the first client after which peak memory is
/// read (some thirty checkpoints in).
const RSS_AT: usize = 8000;
/// The reader beside a writer thinks this long between queries, µs,
/// uniformly. Without it the reader phase-locks to the writer's commit
/// cycle one of two ways — riding the gaps between commits (median
/// ≈ 10 µs) or alternating one-for-one with the writer (median
/// ≈ 300 µs) — and which one a run gets is scheduler timing.
const THINK_US: std::ops::Range<usize> = 100..300;

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Kind {
    /// One writer beside one reader on one session.
    Mixed,
    /// Two writers on one session, then one of them reads back.
    Ingest,
}

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Rung {
    Wire,
    Session,
}

impl Rung {
    pub fn name(self) -> &'static str {
        match self {
            Rung::Wire => "wire",
            Rung::Session => "session",
        }
    }
}

impl Kind {
    /// The machine-level shape of the workload: rung 1 runs exactly
    /// this, and the upper rungs take their streams from it.
    pub fn machine_config(self) -> embedded::Config {
        embedded::Config {
            program: programs::reach_acyclic::program,
            n: N,
            target: 4 * N as usize,
            query: QUERY,
            directed: true,
            stratify_forest: false,
            backbone: if self == Kind::Mixed { 16 } else { 0 },
            streams: if self == Kind::Mixed { 1 } else { 2 },
            warm_steps: 200,
            count_prefix: 2000,
        }
    }
}

enum Failure {
    Overloaded,
    Other,
}

/// One client's way into the system.
enum Target {
    Wire(Client),
    Session(Arc<Session>),
}

impl Target {
    fn apply(&mut self, req: Request) -> Result<(), Failure> {
        match self {
            Target::Wire(c) => c.apply(req).map(drop).map_err(|e| {
                if e.is_overloaded() {
                    Failure::Overloaded
                } else {
                    Failure::Other
                }
            }),
            Target::Session(s) => s.apply(&req).map(drop).map_err(|_| Failure::Other),
        }
    }

    fn query(&mut self, a: u32, b: u32) -> Result<bool, Failure> {
        match self {
            Target::Wire(c) => c.query_named(QUERY, &[a, b]).map_err(|_| Failure::Other),
            Target::Session(s) => s.query_named(QUERY, &[a, b]).map_err(|_| Failure::Other),
        }
    }

    fn span_names(&self) -> (&'static str, &'static str) {
        match self {
            Target::Wire(_) => ("net.apply", "net.query"),
            Target::Session(_) => ("serve.apply", "serve.query"),
        }
    }
}

/// One client thread: its way in, its samples, its spans.
struct Caller<'a> {
    target: &'a mut Target,
    trace: Trace,
    out: Samples,
    next_id: u64,
}

impl Caller<'_> {
    fn new(
        target: &mut Target,
        traced: bool,
        epoch: Instant,
        rung: Rung,
        thread: u32,
    ) -> Caller<'_> {
        Caller {
            target,
            trace: Trace::new(traced, epoch, rung.name(), thread),
            out: Samples::default(),
            next_id: (thread as u64) << 32,
        }
    }

    fn update(&mut self, op: Op) {
        let id = self.next_id;
        self.next_id += 1;
        let root = self.trace.enter("request", id, None);
        let req = op.request();
        let target = &mut *self.target;
        let name = target.span_names().0;
        let (us, applied) = self.trace.call(name, id, root, || target.apply(req));
        self.trace.exit(root);
        self.out.attempted += 1;
        match applied {
            Ok(()) => self.out.update(us, RSS_AT),
            Err(failure) => {
                self.out.failed += 1;
                self.out.overloaded += matches!(failure, Failure::Overloaded) as u64;
            }
        }
    }

    /// Ask `reaches(a, b)`; the latency if the answer was `expected`.
    fn query(&mut self, a: u32, b: u32, expected: bool) -> Option<f64> {
        let id = self.next_id;
        self.next_id += 1;
        let root = self.trace.enter("request", id, None);
        let target = &mut *self.target;
        let name = target.span_names().1;
        let (us, answer) = self.trace.call(name, id, root, || target.query(a, b));
        self.trace.exit(root);
        self.out.attempted += 1;
        if matches!(answer, Ok(value) if value == expected) {
            Some(us)
        } else {
            self.out.failed += 1;
            None
        }
    }
}

/// A served stack, warmed up and ready to measure. Fields drop in
/// order: clients hang up before the server joins its handlers.
pub struct Stack {
    kind: Kind,
    rung: Rung,
    targets: Vec<Target>,
    server: Option<Server>,
    store: Option<Arc<SessionStore>>,
    registry: Arc<Registry>,
    churns: Vec<Churn>,
    rng: Rng,
    dir: DataDir,
}

/// What the crash-and-recover epilogue of `served_ingest` found.
pub struct Recovery {
    pub ms: Vec<f64>,
    pub replayed: f64,
    pub rung: f64,
    pub checked: u64,
    pub wrong: u64,
}

/// Readings of a stack taken when its last write was acknowledged.
pub struct StoreReading {
    pub fsyncs_per_update: f64,
    pub disk_bytes_per_update: f64,
    pub ping_us_p50: f64,
}

fn store_root(dir: &DataDir) -> std::path::PathBuf {
    dir.path().join("store")
}

/// Set-up: data directory, store, server, connections, session, and a
/// warm-up that fills the graph through the same path the measurement
/// uses.
pub fn setup(kind: Kind, rung: Rung, seed: u64) -> Stack {
    let cfg = kind.machine_config();
    let mut rng = Rng::new(seed);
    let churns = embedded::streams(&cfg, &mut rng);
    let dir = DataDir::new(if kind == Kind::Mixed {
        "served_mixed"
    } else {
        "served_ingest"
    });
    let registry = Arc::new(Registry::new());
    let handle = ObsHandle::with_registry(Arc::clone(&registry));
    let store = Arc::new(
        SessionStore::open_with_obs(store_root(&dir), StoreConfig::default(), handle.clone())
            .expect("open store"),
    );
    let program = (cfg.program)();
    let (server, targets) = match rung {
        Rung::Wire => {
            // Admission wide open (as in E23): a disk hiccup must slow a
            // write down, not shed it.
            let config = ServerConfig {
                admission: AdmissionConfig {
                    max_inflight_writes: i64::MAX,
                    max_pool_queue_depth: i64::MAX,
                    max_fsync_p99_ns: u64::MAX,
                    ..AdmissionConfig::default()
                },
                ..ServerConfig::default()
            };
            let server = Server::start(
                "127.0.0.1:0",
                Arc::clone(&store),
                Arc::new(ProgramRegistry::standard()),
                config,
                handle,
            )
            .expect("start server");
            let addr = server.addr().to_string();
            let targets = (0..2)
                .map(|_| {
                    let mut client = Client::connect(&addr).expect("connect");
                    client
                        .open(SESSION, program.name(), N)
                        .expect("open session");
                    Target::Wire(client)
                })
                .collect();
            (Some(server), targets)
        }
        Rung::Session => {
            let session = store.session(SESSION, &program, N).expect("open session");
            (
                None,
                vec![
                    Target::Session(Arc::clone(&session)),
                    Target::Session(session),
                ],
            )
        }
    };
    let mut stack = Stack {
        kind,
        rung,
        targets,
        server,
        store: Some(store),
        registry,
        churns,
        rng,
        dir,
    };
    let backbone: Vec<Op> = stack.churns[0]
        .domain()
        .backbone_edges()
        .map(|(a, b)| Op::Ins(a, b))
        .collect();
    let warm = stack.churns[0].fill_steps() + cfg.warm_steps / stack.churns.len();
    for (target, churn) in stack.targets.iter_mut().zip(&mut stack.churns) {
        let ops: Vec<Op> = backbone
            .iter()
            .copied()
            .chain((0..warm).map(|_| churn.step()))
            .collect();
        for op in ops {
            assert!(target.apply(op.request()).is_ok(), "warm-up write failed");
        }
    }
    stack
}

impl Stack {
    fn session(&self) -> Arc<Session> {
        self.store
            .as_ref()
            .and_then(|s| s.get(SESSION))
            .expect("session is open")
    }

    /// Measure for `seconds`; on `Mixed`, keep the reader going alone
    /// for `alone_seconds` more and return those latencies separately
    /// (the uncontended floor its wait is measured against).
    pub fn measure(&mut self, seconds: f64, alone_seconds: f64, traced: bool) -> (Phase, Vec<f64>) {
        let before = Counters::with_global(&self.registry);
        let epoch = Instant::now();
        let (kind, rung) = (self.kind, self.rung);
        let mut alone = Vec::new();
        let mut targets = self.targets.iter_mut();
        let (first, second) = (targets.next().unwrap(), targets.next().unwrap());
        let mut callers = [
            Caller::new(first, traced, epoch, rung, 0),
            Caller::new(second, traced, epoch, rung, 1),
        ];
        match kind {
            Kind::Mixed => {
                let [writer, reader] = &mut callers;
                let (churn, rng) = (&mut self.churns[0], &mut self.rng);
                let backbone = churn.domain().backbone;
                let (writer_done, stop) = (AtomicBool::new(false), AtomicBool::new(false));
                std::thread::scope(|scope| {
                    scope.spawn(|| {
                        let end = deadline(seconds);
                        while Instant::now() < end {
                            writer.update(churn.step());
                        }
                        writer_done.store(true, Ordering::SeqCst);
                    });
                    scope.spawn(|| {
                        while !stop.load(Ordering::SeqCst) {
                            let beside = !writer_done.load(Ordering::SeqCst);
                            let think = THINK_US.start + rng.below(THINK_US.len());
                            std::thread::sleep(Duration::from_micros(think as u64));
                            let (a, b, expected) = backbone_pair(rng, backbone);
                            match reader.query(a, b, expected) {
                                Some(us) if beside => reader.out.queries.push(us),
                                Some(us) => alone.push(us),
                                None => {}
                            }
                        }
                    });
                    while !writer_done.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    std::thread::sleep(Duration::from_secs_f64(alone_seconds));
                    stop.store(true, Ordering::SeqCst);
                });
            }
            Kind::Ingest => {
                // Four fifths of the time ingesting, one fifth reading back.
                std::thread::scope(|scope| {
                    for (caller, churn) in callers.iter_mut().zip(&mut self.churns) {
                        scope.spawn(move || {
                            let end = deadline(seconds * 0.8);
                            while Instant::now() < end {
                                caller.update(churn.step());
                            }
                        });
                    }
                });
                // One connection reads back; two would measure each
                // other on the session lock.
                let closure = transitive_closure(&oracle(&self.churns));
                let (reader, rng) = (&mut callers[0], &mut self.rng);
                let end = deadline(seconds * 0.2);
                while Instant::now() < end {
                    let (a, b) = (rng.below(N as usize), rng.below(N as usize));
                    if let Some(us) = reader.query(a as u32, b as u32, closure[a][b]) {
                        reader.out.queries.push(us);
                    }
                }
            }
        }
        let (threads, traces) = callers.into_iter().map(|c| (c.out, c.trace)).unzip();
        let counters = Counters::with_global(&self.registry).since(&before);
        (
            Phase {
                threads,
                traces,
                counters,
            },
            alone,
        )
    }

    /// Readings taken while the stack is still up.
    pub fn reading(&mut self) -> StoreReading {
        let session = self.session();
        let seq = session.seq() as f64;
        let mut pings = Vec::new();
        if let Target::Wire(client) = &mut self.targets[0] {
            for _ in 0..200 {
                let start = Instant::now();
                if client.ping().is_ok() {
                    pings.push(start.elapsed().as_secs_f64() * 1e6);
                }
            }
        }
        StoreReading {
            fsyncs_per_update: session.fsyncs() as f64 / seq,
            disk_bytes_per_update: self.dir.bytes() as f64 / seq,
            ping_us_p50: crate::stats::median(&pings),
        }
    }

    /// The end gate: the session's state is the oracle's — `E` is
    /// exactly the acknowledged edge set and `P` its transitive closure
    /// (REACH(acyclic)'s auxiliary state is a function of `E`, so two
    /// writers' interleaving does not matter). Returns `(checked, wrong)`.
    pub fn verify(&self) -> (u64, u64) {
        check_state(&self.session(), &oracle(&self.churns))
    }

    /// Drop the server, `crash()` the store (nothing buffered is
    /// flushed), and time reopen + recovery several times. Every
    /// acknowledged write must be there again.
    pub fn crash_and_recover(mut self) -> Recovery {
        let oracle = oracle(&self.churns);
        let acknowledged = self.session().seq();
        self.targets.clear();
        drop(self.server.take());
        let store = Arc::try_unwrap(self.store.take().expect("store is open"))
            .unwrap_or_else(|_| panic!("the store is still shared after the server stopped"));
        store.crash();

        let program = (self.kind.machine_config().program)();
        let handle = ObsHandle::with_registry(Arc::clone(&self.registry));
        let mut out = Recovery {
            ms: Vec::new(),
            replayed: 0.0,
            rung: 0.0,
            checked: 0,
            wrong: 0,
        };
        for _ in 0..RECOVERIES {
            let start = Instant::now();
            let store = SessionStore::open_with_obs(
                store_root(&self.dir),
                StoreConfig::default(),
                handle.clone(),
            )
            .expect("reopen store");
            let session = store
                .session(SESSION, &program, N)
                .expect("recover session");
            out.ms.push(start.elapsed().as_secs_f64() * 1e3);
            let report = session.recovery_report();
            (out.replayed, out.rung) = (report.replayed as f64, report.rung as f64);
            let (checked, wrong) = check_state(&session, &oracle);
            out.checked += checked + 1;
            out.wrong += wrong + (session.seq() != acknowledged) as u64;
            drop(session);
            store.crash();
        }
        out
    }
}

/// The graph every acknowledged write of these streams adds up to.
fn oracle(churns: &[Churn]) -> DiGraph {
    let mut g = DiGraph::new(N);
    let edges = churns
        .iter()
        .flat_map(|c| c.edges().edges().iter().copied());
    for (a, b) in edges.chain(churns[0].domain().backbone_edges()) {
        g.insert(a, b);
    }
    g
}

fn check_state(session: &Session, oracle: &DiGraph) -> (u64, u64) {
    let state = session.state();
    let closure = transitive_closure(oracle);
    let (mut checked, mut wrong) = (1, (state.rel("E").len() != oracle.num_edges()) as u64);
    for a in 0..N {
        for b in 0..N {
            checked += 1;
            let want_edge = oracle.has_edge(a, b);
            let want_path = a != b && closure[a as usize][b as usize];
            if state.holds("E", [a, b]) != want_edge || state.holds("P", [a, b]) != want_path {
                wrong += 1;
            }
        }
    }
    (checked, wrong)
}

/// The wire floor: time `encode_payload`/`decode_payload` on the
/// workload's own messages. Returns `(encode µs, decode µs, bytes per
/// update on the wire)`.
pub fn codec_probe(kind: Kind, seed: u64) -> (f64, f64, f64) {
    use dynfo_net::proto::{decode_payload, encode_payload};
    use dynfo_net::Message;
    let cfg = kind.machine_config();
    let mut churn = embedded::streams(&cfg, &mut Rng::new(seed)).remove(0);
    let messages: Vec<Message> = (0..2000)
        .map(|_| Message::Apply(churn.step().request()))
        .collect();
    let start = Instant::now();
    let payloads: Vec<Vec<u8>> = messages.iter().map(encode_payload).collect();
    let encode_us = start.elapsed().as_secs_f64() * 1e6 / messages.len() as f64;
    let start = Instant::now();
    let decoded = payloads
        .iter()
        .filter(|p| decode_payload(p).is_ok())
        .count();
    let decode_us = start.elapsed().as_secs_f64() * 1e6 / messages.len() as f64;
    assert_eq!(
        decoded,
        messages.len(),
        "a workload message failed to decode"
    );
    // Request frame plus the `Ok { seq }` reply, each behind an 8-byte
    // length + CRC header.
    let reply = encode_payload(&Message::Ok { seq: 1 << 20 }).len();
    let bytes = payloads.iter().map(Vec::len).sum::<usize>() as f64 / messages.len() as f64;
    (encode_us, decode_us, bytes + reply as f64 + 16.0)
}
