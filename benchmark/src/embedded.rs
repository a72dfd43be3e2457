//! The library caller's view: a bare `DynFoMachine`, one thread, a
//! burst of queries after every update. Also rung 1 of the served workloads'
//! ladder — the same request streams with nothing around the machine.

use crate::gen::{backbone_pair, Churn, Domain, Op, Rng};
use crate::harness::{deadline, Counters, Phase, Samples, Work};
use crate::trace::Trace;
use dynfo_core::{DynFoMachine, DynFoProgram};
use dynfo_graph::traversal::{connected, reaches};
use dynfo_graph::{DiGraph, Graph};
use dynfo_obs::{ObsHandle, Registry};
use std::sync::Arc;
use std::time::Instant;

/// One churn workload over a graph program.
#[derive(Clone, Copy)]
pub struct Config {
    pub program: fn() -> DynFoProgram,
    pub n: u32,
    /// Edges the graph is held at, over all streams.
    pub target: usize,
    /// The named query asked after every update.
    pub query: &'static str,
    /// Edges are directed low → high (else undirected).
    pub directed: bool,
    /// Alternate deletes between spanning-forest and other edges, as
    /// the machine's `F` relation classifies them. REACH_u's
    /// forest-edge delete costs ~700× its other deletes; left to chance
    /// the share of them in a 10 s run moves throughput by ±8%.
    pub stratify_forest: bool,
    /// Static chain over the first vertices; queries stay on it.
    pub backbone: u32,
    /// Interleaved streams over disjoint pairs (the served workloads'
    /// writers, replayed on one thread).
    pub streams: u32,
    /// Churn steps after the graph is full, before measuring.
    pub warm_steps: usize,
    /// Updates over which the exact work counts are taken, and after
    /// which peak memory is read.
    pub count_prefix: usize,
}

/// Queries asked after every update. The first finds the caches as the
/// update left them; a burst shows the query's own cost as well, and
/// makes its sub-microsecond median a statistic of mostly warm calls
/// instead of a mix that shifts with every cache miss.
const QUERIES_PER_UPDATE: usize = 8;

/// The static oracle: a `dynfo-graph` structure searched from scratch
/// for every answer.
pub enum Oracle {
    Undirected(Graph),
    Directed(DiGraph),
}

impl Oracle {
    pub fn new(directed: bool, n: u32) -> Oracle {
        if directed {
            Oracle::Directed(DiGraph::new(n))
        } else {
            Oracle::Undirected(Graph::new(n))
        }
    }

    pub fn apply(&mut self, op: Op) {
        match (self, op) {
            (Oracle::Undirected(g), Op::Ins(a, b)) => drop(g.insert(a, b)),
            (Oracle::Undirected(g), Op::Del(a, b)) => drop(g.remove(a, b)),
            (Oracle::Directed(g), Op::Ins(a, b)) => drop(g.insert(a, b)),
            (Oracle::Directed(g), Op::Del(a, b)) => drop(g.remove(a, b)),
            (_, Op::Set(_)) => {}
        }
    }

    pub fn answer(&self, a: u32, b: u32) -> bool {
        match self {
            Oracle::Undirected(g) => connected(g, a, b),
            Oracle::Directed(g) => reaches(g, a, b),
        }
    }

    pub fn num_edges(&self) -> usize {
        match self {
            Oracle::Undirected(g) => g.num_edges(),
            Oracle::Directed(g) => g.num_edges(),
        }
    }
}

/// A machine warmed up and ready to measure.
pub struct Ready {
    cfg: Config,
    pub machine: DynFoMachine,
    churns: Vec<Churn>,
    oracle: Oracle,
    rng: Rng,
    /// The machine's private metrics registry.
    registry: Arc<Registry>,
    /// Requests issued so far (the span request id continues from it).
    issued: u64,
}

pub fn streams(cfg: &Config, rng: &mut Rng) -> Vec<Churn> {
    (0..cfg.streams)
        .map(|part| {
            let domain = Domain {
                n: cfg.n,
                backbone: cfg.backbone,
                part,
                parts: cfg.streams,
            };
            Churn::new(domain, cfg.target / cfg.streams as usize, rng.fork())
        })
        .collect()
}

/// Set-up: build the machine (which compiles its rules), fill the graph
/// to its target and churn it for a while so lazily built plans and
/// caches exist before the first timed request.
pub fn setup(cfg: Config, seed: u64) -> Ready {
    let mut rng = Rng::new(seed);
    let registry = Arc::new(Registry::new());
    let machine = DynFoMachine::new((cfg.program)(), cfg.n)
        .with_obs(&ObsHandle::with_registry(Arc::clone(&registry)));
    let churns = streams(&cfg, &mut rng);
    let oracle = Oracle::new(cfg.directed, cfg.n);
    let mut ready = Ready {
        cfg,
        machine,
        churns,
        oracle,
        rng,
        registry,
        issued: 0,
    };
    let backbone: Vec<Op> = ready.churns[0]
        .domain()
        .backbone_edges()
        .map(|(a, b)| Op::Ins(a, b))
        .collect();
    for op in backbone {
        ready.machine.apply(&op.request()).expect("backbone insert");
        ready.oracle.apply(op);
    }
    let warm = ready.churns[0].fill_steps() * ready.churns.len() + cfg.warm_steps;
    let mut scratch = Samples::default();
    for _ in 0..warm {
        ready.request(&mut Trace::disabled(), &mut scratch);
    }
    assert_eq!(scratch.failed, 0, "warm-up request failed");
    ready
}

impl Ready {
    fn next_op(&mut self) -> Op {
        let stream = (self.issued % self.churns.len() as u64) as usize;
        let churn = &mut self.churns[stream];
        if self.cfg.stratify_forest {
            let want_forest = churn.deletes() % 2 == 1;
            let state = self.machine.state();
            churn.next(|a, b| state.holds("F", [a, b]) == want_forest)
        } else {
            churn.step()
        }
    }

    /// One request: an update, then a burst of queries, each timed, each
    /// checked.
    fn request(&mut self, trace: &mut Trace, out: &mut Samples) {
        let id = self.issued;
        let root = trace.enter("request", id, None);
        let op = self.next_op();
        self.issued += 1;
        let req = op.request();
        let (us, applied) = trace.call("core.apply", id, root, || self.machine.apply(&req));
        out.attempted += 1;
        match applied {
            Ok(_) => out.update(us, self.cfg.count_prefix),
            Err(_) => out.failed += 1,
        }
        self.oracle.apply(op);

        for _ in 0..QUERIES_PER_UPDATE {
            let (a, b) = if self.cfg.backbone > 0 {
                let (a, b, _) = backbone_pair(&mut self.rng, self.cfg.backbone);
                (a, b)
            } else {
                self.churns[0].query_pair()
            };
            let query = self.cfg.query;
            let (us, answer) = trace.call("core.query", id, root, || {
                self.machine.query_named(query, &[a, b])
            });
            out.attempted += 1;
            match answer {
                Ok(value) if value == self.oracle.answer(a, b) => out.queries.push(us),
                _ => out.failed += 1,
            }
        }
        trace.exit(root);
    }

    /// Drive requests for `seconds`. Returns the phase and the machine
    /// work over the first `count_prefix` updates (over all of them if
    /// the run was shorter).
    pub fn measure(&mut self, seconds: f64, traced: bool) -> (Phase, Work) {
        let mut trace = Trace::new(traced, Instant::now(), "machine", 0);
        let mut samples = Samples::default();
        let before = Counters::with_global(&self.registry);
        let work_before = Work::of(self.machine.stats());
        let mut prefix = None;
        let end = deadline(seconds);
        let mut done = 0;
        while Instant::now() < end {
            self.request(&mut trace, &mut samples);
            done += 1;
            if done == self.cfg.count_prefix {
                prefix = Some(Work::of(self.machine.stats()));
            }
        }
        let work = match prefix {
            Some(after) => Work::default().plus(after, work_before, self.cfg.count_prefix),
            None => Work::default().plus(Work::of(self.machine.stats()), work_before, done),
        };
        let counters = Counters::with_global(&self.registry).since(&before);
        (
            Phase {
                threads: vec![samples],
                traces: vec![trace],
                counters,
            },
            work,
        )
    }

    /// The end gate: the machine's input relation equals the oracle's
    /// edge set, and the named query agrees with the oracle on every
    /// ordered pair. Returns `(checked, wrong)`.
    pub fn verify(&mut self) -> (u64, u64) {
        let (mut checked, mut wrong) = (1, 0);
        let stored = self.machine.state().rel("E").len();
        let expected = self.oracle.num_edges() * if self.cfg.directed { 1 } else { 2 };
        if stored != expected {
            wrong += 1;
        }
        for a in 0..self.cfg.n {
            for b in 0..self.cfg.n {
                checked += 1;
                let want = a == b || self.oracle.answer(a, b);
                if self.machine.query_named(self.cfg.query, &[a, b]).ok() != Some(want) {
                    wrong += 1;
                }
            }
        }
        (checked, wrong)
    }
}
