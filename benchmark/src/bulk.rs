//! `embed_bulk`: definable bulk changes. Every round builds a fresh
//! semi-dynamic REACH_u machine, seeds it with a few single inserts and
//! times one `bulk_ins` whose δ cycles chain, chain, chain, block — Θ(n)
//! against Θ(n²) live tuples, so the run-time closure compilation and
//! the one-shot/fallback routing decision are what is measured. The 3:1
//! mix keeps the median update inside the chain mode.

use crate::gen::{delta_block, delta_chain, Rng};
use crate::harness::{deadline, Counters, Phase, Samples, Work};
use crate::trace::Trace;
use dynfo_core::{programs, DynFoMachine, Request};
use dynfo_graph::UnionFind;
use dynfo_logic::Formula;
use dynfo_obs::{ObsHandle, Registry};
use std::sync::Arc;
use std::time::Instant;

pub const N: u32 = 128;
const SEED_INSERTS: usize = 8;
/// Queries before the bulk and again after it.
const QUERIES_EACH_SIDE: usize = 4;
/// Bulks after which peak memory is read.
const RSS_AT: usize = 40;

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Shape {
    Chain,
    Block,
}

impl Shape {
    fn of_round(round: u64) -> Shape {
        if round % 4 == 3 {
            Shape::Block
        } else {
            Shape::Chain
        }
    }

    fn delta(self) -> Formula {
        match self {
            Shape::Chain => delta_chain(),
            Shape::Block => delta_block(),
        }
    }
}

/// Per-bulk readings beyond the latency samples.
#[derive(Default)]
pub struct BulkWork {
    pub chain_ms: Vec<f64>,
    pub block_ms: Vec<f64>,
    /// Bulks the machine counted as one request (the one-shot route; a
    /// fallback counts one request per expanded tuple).
    pub one_shot: u64,
    pub bulks: u64,
    /// Exact work and live Δ tuples of the first cycle of four bulks.
    pub cycle_work: Work,
    pub cycle_tuples: u64,
}

pub struct Ready {
    rng: Rng,
    registry: Arc<Registry>,
    round: u64,
}

/// A fresh machine over `n` elements and its union-find oracle, seeded
/// with random inserts.
fn seeded(rng: &mut Rng, registry: &Arc<Registry>, n: u32) -> (DynFoMachine, UnionFind) {
    let mut m = DynFoMachine::new(programs::semi::reach_u_program(), n)
        .with_obs(&ObsHandle::with_registry(Arc::clone(registry)));
    let mut uf = UnionFind::new(n);
    for _ in 0..SEED_INSERTS {
        let a = rng.below(n as usize) as u32;
        let b = (a as usize + 1 + rng.below(n as usize - 1)) as u32 % n;
        m.apply(&Request::ins("E", [a, b])).expect("seed insert");
        uf.union(a, b);
    }
    (m, uf)
}

/// Set-up: one untimed round of each shape, so the first timed round
/// does not pay for lazily initialised process state.
pub fn setup(seed: u64) -> Ready {
    let mut ready = Ready {
        rng: Rng::new(seed),
        registry: Arc::new(Registry::new()),
        round: 0,
    };
    let mut scratch = (Samples::default(), BulkWork::default());
    for round in [0, 3] {
        ready.round = round;
        ready.round(&mut Trace::disabled(), &mut scratch.0, &mut scratch.1);
    }
    assert_eq!(scratch.0.failed, 0, "warm-up bulk failed");
    ready.round = 0;
    ready
}

impl Ready {
    fn queries(
        m: &mut DynFoMachine,
        uf: &mut UnionFind,
        rng: &mut Rng,
        trace: &mut Trace,
        span: (u64, Option<u32>),
        out: &mut Samples,
    ) {
        for _ in 0..QUERIES_EACH_SIDE {
            let a = rng.below(N as usize) as u32;
            let b = rng.below(N as usize) as u32;
            let (us, answer) = trace.call("core.query", span.0, span.1, || {
                m.query_named("connected", &[a, b])
            });
            out.attempted += 1;
            match answer {
                Ok(value) if value == uf.same(a, b) => out.queries.push(us),
                _ => out.failed += 1,
            }
        }
    }

    fn round(&mut self, trace: &mut Trace, out: &mut Samples, work: &mut BulkWork) {
        let id = self.round;
        let shape = Shape::of_round(id);
        self.round += 1;
        let (mut m, mut uf) = seeded(&mut self.rng, &self.registry, N);
        let root = trace.enter("request", id, None);
        Ready::queries(&mut m, &mut uf, &mut self.rng, trace, (id, root), out);

        let req = Request::bulk_ins("E", shape.delta());
        let first_cycle = work.cycle_work.updates < 4.0;
        if first_cycle {
            work.cycle_tuples += m.bulk_delta_count(&req).unwrap_or(0) as u64;
        }
        let (requests_before, work_before) = (m.stats().requests, Work::of(m.stats()));
        let (us, applied) = trace.call("core.apply", id, root, || m.apply(&req));
        out.attempted += 1;
        match applied {
            Ok(_) => {
                out.update(us, RSS_AT);
                work.bulks += 1;
                work.one_shot += (m.stats().requests - requests_before == 1) as u64;
                if first_cycle {
                    work.cycle_work = work.cycle_work.plus(Work::of(m.stats()), work_before, 1);
                }
                match shape {
                    Shape::Chain => work.chain_ms.push(us / 1e3),
                    Shape::Block => work.block_ms.push(us / 1e3),
                }
            }
            Err(_) => out.failed += 1,
        }
        // Both shapes connect every vertex to its successor.
        for v in 1..N {
            uf.union(v - 1, v);
        }
        Ready::queries(&mut m, &mut uf, &mut self.rng, trace, (id, root), out);
        trace.exit(root);
    }

    pub fn measure(&mut self, seconds: f64, traced: bool) -> (Phase, BulkWork) {
        let mut trace = Trace::new(traced, Instant::now(), "machine", 0);
        let mut samples = Samples::default();
        let mut work = BulkWork::default();
        let before = Counters::with_global(&self.registry);
        let end = deadline(seconds);
        // Whole cycles of four, so every run has the same 3:1 mix.
        while Instant::now() < end || !self.round.is_multiple_of(4) {
            self.round(&mut trace, &mut samples, &mut work);
        }
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

    /// The gate: for each shape, one bulk request leaves the machine in
    /// exactly the state its `expand_bulk` single-tuple stream does. The
    /// block's stream is Θ(n²) single inserts, so it is checked on a
    /// quarter of the universe. Returns `(checked, wrong)`.
    pub fn verify(&mut self) -> (u64, u64) {
        let mut wrong = 0;
        for (shape, n) in [(Shape::Chain, N), (Shape::Block, N / 4)] {
            let (mut bulk, _) = seeded(&mut self.rng.clone(), &self.registry, n);
            let (mut stream, _) = seeded(&mut self.rng, &self.registry, n);
            let req = Request::bulk_ins("E", shape.delta());
            let same = stream.expand_bulk(&req).is_ok_and(|expanded| {
                bulk.apply(&req).is_ok()
                    && expanded.iter().all(|r| stream.apply(r).is_ok())
                    && bulk.state() == stream.state()
            });
            wrong += !same as u64;
        }
        (2, wrong)
    }
}
