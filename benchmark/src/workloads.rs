//! The five workloads: what each runs untraced (end-to-end metrics) and
//! traced (per-layer metrics), and how the readings become metrics.

use crate::bulk;
use crate::catalog;
use crate::embedded::{self, Config};
use crate::harness::{ratio, repeat_setup, Counters, Phase, Work};
use crate::ladder::{unexplained_share, Ladder};
use crate::served::{self, Kind, Rung};
use crate::stats::{mean, tail};
use crate::trace::{mean_self_us, Trace};
use dynfo_core::programs;
use dynfo_logic::Structure;
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-ups per run; the reported `setup_s` is their median.
const SETUPS: usize = 5;

pub type Metrics = BTreeMap<&'static str, f64>;

pub struct Outcome {
    /// Operations attempted, verification checks included.
    pub attempted: u64,
    /// Typed errors, shed writes, wrong answers, failed gates.
    pub failed: u64,
    pub metrics: Metrics,
    pub traces: Vec<Trace>,
}

impl Outcome {
    fn new() -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            metrics: Metrics::new(),
            traces: Vec::new(),
        }
    }

    fn tally(&mut self, (attempted, failed): (u64, u64)) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Count a phase's operations and keep its spans.
    fn absorb(&mut self, phase: &mut Phase) {
        self.tally((phase.attempted(), phase.failed()));
        self.traces.append(&mut phase.traces);
    }

    fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            catalog::metric(name).is_some(),
            "{name} is not in the catalog"
        );
        self.metrics.insert(name, value);
    }
}

fn embed_interp() -> Config {
    Config {
        program: programs::reach_u::program,
        n: 32,
        target: 64,
        query: "connected",
        directed: false,
        stratify_forest: true,
        backbone: 0,
        streams: 1,
        warm_steps: 20,
        count_prefix: 200,
    }
}

fn embed_plans() -> Config {
    Config {
        program: programs::reach_acyclic::program,
        n: 64,
        target: 256,
        query: "reaches",
        directed: true,
        stratify_forest: false,
        backbone: 0,
        streams: 1,
        warm_steps: 2000,
        count_prefix: 20_000,
    }
}

pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::new();
    match (workload, traced) {
        ("embed_interp", false) => embedded_end_to_end(&mut out, embed_interp(), seed, seconds),
        ("embed_interp", true) => embedded_layers(&mut out, embed_interp(), seed, seconds),
        ("embed_plans", false) => embedded_end_to_end(&mut out, embed_plans(), seed, seconds),
        ("embed_plans", true) => embedded_layers(&mut out, embed_plans(), seed, seconds),
        ("embed_bulk", false) => bulk_end_to_end(&mut out, seed, seconds),
        ("embed_bulk", true) => bulk_layers(&mut out, seed, seconds),
        ("served_mixed", false) => served_end_to_end(&mut out, Kind::Mixed, seed, seconds),
        ("served_mixed", true) => served_layers(&mut out, Kind::Mixed, seed, seconds),
        ("served_ingest", false) => served_end_to_end(&mut out, Kind::Ingest, seed, seconds),
        ("served_ingest", true) => served_layers(&mut out, Kind::Ingest, seed, seconds),
        _ => unreachable!("main checked the workload name"),
    }
    out
}

fn end_to_end(out: &mut Outcome, setup_s: f64, phase: &mut Phase) {
    out.set("setup_s", setup_s);
    out.set("updates_per_s", phase.updates_per_s());
    out.set("update_p50_us", phase.update_p50_us());
    out.set("queries_per_s", phase.queries_per_s());
    out.set("query_p50_us", phase.query_p50_us());
    out.set("peak_rss_mb", phase.peak_rss_mb());
    out.absorb(phase);
}

fn embedded_end_to_end(out: &mut Outcome, cfg: Config, seed: u64, seconds: f64) {
    let (setup_s, mut ready) = repeat_setup(SETUPS, || embedded::setup(cfg, seed));
    let (mut phase, _) = ready.measure(seconds, false);
    end_to_end(out, setup_s, &mut phase);
    out.tally(ready.verify());
}

fn bulk_end_to_end(out: &mut Outcome, seed: u64, seconds: f64) {
    let (setup_s, mut ready) = repeat_setup(SETUPS, || bulk::setup(seed));
    let (mut phase, _) = ready.measure(seconds, false);
    end_to_end(out, setup_s, &mut phase);
    out.tally(ready.verify());
}

fn served_end_to_end(out: &mut Outcome, kind: Kind, seed: u64, seconds: f64) {
    let (setup_s, mut stack) = repeat_setup(SETUPS, || served::setup(kind, Rung::Wire, seed));
    let (mut phase, _) = stack.measure(seconds, 0.0, false);
    end_to_end(out, setup_s, &mut phase);
    out.tally(stack.verify());
    if kind == Kind::Ingest {
        let recovery = stack.crash_and_recover();
        out.tally((recovery.checked, recovery.wrong));
    }
}

/// `logic.*`: the exact work counts of the machine rung plus the
/// subformula cache's hit ratio.
fn logic_layers(out: &mut Outcome, work: &Work, counters: &Counters) {
    out.set(
        "logic.interp_rows_per_update",
        ratio(work.interp_rows, work.updates),
    );
    out.set(
        "logic.kernel_words_per_update",
        ratio(work.kernel_words, work.updates),
    );
    out.set(
        "logic.plan_compiled_per_update",
        ratio(work.plan_compiled, work.updates),
    );
    out.set(
        "logic.plan_fallback_share",
        ratio(work.plan_fallback, work.plan_compiled + work.plan_fallback),
    );
    let hits = counters.sum_prefix("eval.cache_hit.");
    out.set(
        "logic.cache_hit_ratio",
        ratio(hits, hits + counters.sum_prefix("eval.cache_miss.")),
    );
}

/// `core.*` from a phase on the machine rung.
fn core_layers(out: &mut Outcome, phase: &Phase, work: &Work) {
    let apply_us = phase.update_mean_us();
    let rule_eval_us = ratio(
        phase.counters.sum_prefix("machine.rule_update_ns.") / 1e3,
        phase.update_count(),
    );
    out.set("core.apply_us_mean", apply_us);
    out.set("core.rule_eval_us_mean", rule_eval_us);
    out.set("core.self_us_mean", apply_us - rule_eval_us);
    out.set("core.query_us_mean", phase.query_mean_us());
    out.set(
        "core.install_unchanged_share",
        ratio(
            work.installs_unchanged,
            work.installs_unchanged + work.installs_changed,
        ),
    );
    out.set(
        "core.guard_noop_share",
        ratio(
            phase.counters.sum("machine.guard.noop"),
            phase.counters.sum_prefix("machine.guard."),
        ),
    );
}

/// `client.*`: exact tails by the percentile rule, with the sample
/// counts every percentile of this phase rests on.
fn client_layers(out: &mut Outcome, phase: &Phase) {
    let (updates, queries) = (phase.updates(), phase.queries());
    let (pct, value) = tail(&updates);
    out.set("client.update_tail_us", value);
    out.set("client.update_tail_pct", pct);
    let (pct, value) = tail(&queries);
    out.set("client.query_tail_us", value);
    out.set("client.query_tail_pct", pct);
    out.set("client.update_samples", updates.len() as f64);
    out.set("client.query_samples", queries.len() as f64);
}

/// Raw kernel against interpreter speed: the 3-hop join over the final
/// input graph, through `Plan::compile` + `execute` and through
/// `dynfo_logic::evaluate`.
fn probe_layers(out: &mut Outcome, state: &Structure) {
    use dynfo_logic::formula::{exists, rel, v};
    const ROUNDS: usize = 20;
    let three_hop = dynfo_logic::analysis::canonicalize(&exists(
        ["a", "b"],
        rel("E", [v("x"), v("a")]) & rel("E", [v("a"), v("b")]) & rel("E", [v("b"), v("y")]),
    ));
    let per_round = |start: Instant| start.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64;
    let start = Instant::now();
    for _ in 0..ROUNDS {
        let Some(plan) = dynfo_logic::Plan::compile(&three_hop, state) else {
            return;
        };
        let mut ev = dynfo_logic::Evaluator::new(state, &[]);
        std::hint::black_box(plan.execute(&mut ev, &mut plan.arena(), None).ok());
    }
    out.set("logic.probe_plan_exec_us", per_round(start));
    let start = Instant::now();
    for _ in 0..ROUNDS {
        std::hint::black_box(dynfo_logic::evaluate(&three_hop, state, &[]).ok());
    }
    out.set("logic.probe_interp_eval_us", per_round(start));
}

/// How much slower updates ran in the traced phase than in the untraced
/// one, by the same throughput statistic the end-to-end metric uses.
/// (Not queries: a served reader's latency is how often it lost the
/// race for the session lock, which is chance, not tracing.)
fn trace_overhead(out: &mut Outcome, untraced: &Phase, traced: &Phase) {
    let slowdown = ratio(untraced.updates_per_s(), traced.updates_per_s());
    out.set("obs.trace_overhead_share", slowdown - 1.0);
}

fn embedded_layers(out: &mut Outcome, cfg: Config, seed: u64, seconds: f64) {
    let (mut untraced, _) = embedded::setup(cfg, seed).measure(seconds / 2.0, false);
    let mut ready = embedded::setup(cfg, seed);
    let (mut traced, work) = ready.measure(seconds / 2.0, true);
    logic_layers(out, &work, &traced.counters);
    core_layers(out, &traced, &work);
    client_layers(out, &traced);
    probe_layers(out, ready.machine.state());
    trace_overhead(out, &untraced, &traced);
    out.tally(ready.verify());
    out.absorb(&mut untraced);
    out.absorb(&mut traced);
}

fn bulk_layers(out: &mut Outcome, seed: u64, seconds: f64) {
    let (mut untraced, _) = bulk::setup(seed).measure(seconds / 2.0, false);
    let mut ready = bulk::setup(seed);
    let (mut traced, work) = ready.measure(seconds / 2.0, true);
    logic_layers(out, &work.cycle_work, &traced.counters);
    core_layers(out, &traced, &work.cycle_work);
    // A bulk's evaluation is timed as a whole by `machine.bulk_plan_ns`
    // (`rule_update_ns` here is the untimed seed inserts).
    let eval_us = ratio(
        traced.counters.sum("machine.bulk_plan_ns") / 1e3,
        work.bulks as f64,
    );
    out.set("core.rule_eval_us_mean", eval_us);
    out.set("core.self_us_mean", traced.update_mean_us() - eval_us);
    client_layers(out, &traced);
    out.set(
        "core.bulk_one_shot_share",
        ratio(work.one_shot as f64, work.bulks as f64),
    );
    out.set(
        "core.bulk_chain_ms_p50",
        crate::stats::median(&work.chain_ms),
    );
    out.set(
        "core.bulk_block_ms_p50",
        crate::stats::median(&work.block_ms),
    );
    out.set(
        "core.bulk_tuples_per_update",
        ratio(work.cycle_tuples as f64, work.cycle_work.updates),
    );
    trace_overhead(out, &untraced, &traced);
    out.tally(ready.verify());
    out.absorb(&mut untraced);
    out.absorb(&mut traced);
}

/// The traced served run: the same streams down the ladder, a quarter
/// of the time each — rung 3 untraced (the reference the tracing
/// overhead is measured against), rung 3 traced, rung 2, rung 1.
fn served_layers(out: &mut Outcome, kind: Kind, seed: u64, seconds: f64) {
    let slice = seconds / 4.0;
    let (mut untraced, _) = served::setup(kind, Rung::Wire, seed).measure(slice, 0.0, false);

    let mut wire_stack = served::setup(kind, Rung::Wire, seed);
    let (mut wire, _) = wire_stack.measure(slice, 0.0, true);
    let reading = wire_stack.reading();
    out.tally(wire_stack.verify());

    // On rung 2 the reader goes on alone after the writer stops: the
    // difference is what it waited for the writer.
    let alone_seconds = if kind == Kind::Mixed {
        slice / 4.0
    } else {
        0.0
    };
    let mut session_stack = served::setup(kind, Rung::Session, seed);
    let (mut session, alone) = session_stack.measure(slice, alone_seconds, true);
    out.tally(session_stack.verify());
    drop(session_stack);

    let mut ready = embedded::setup(kind.machine_config(), seed);
    let (mut machine, work) = ready.measure(slice, true);
    out.tally(ready.verify());

    logic_layers(out, &work, &machine.counters);
    core_layers(out, &machine, &work);
    probe_layers(out, ready.machine.state());
    client_layers(out, &wire);

    let updates = Ladder {
        wire_us: wire.update_mean_us(),
        session_us: session.update_mean_us(),
        machine_us: machine.update_mean_us(),
    };
    let queries = Ladder {
        wire_us: wire.query_mean_us(),
        session_us: session.query_mean_us(),
        machine_us: machine.query_mean_us(),
    };
    out.set("net.update_us_mean", updates.wire_us);
    out.set("net.update_overhead_us", updates.net_overhead_us());
    out.set("net.query_us_mean", queries.wire_us);
    out.set("net.query_overhead_us", queries.net_overhead_us());
    out.set("serve.apply_us_mean", updates.session_us);
    out.set("serve.self_us_mean", updates.serve_self_us());
    out.set("serve.query_us_mean", queries.session_us);
    if !alone.is_empty() {
        out.set(
            "serve.query_wait_us_mean",
            queries.session_us - mean(&alone),
        );
    }

    // The serving layer's instrumented parts, from rung 2's registry
    // (sums and counts only).
    let c = &session.counters;
    let per_update = |ns: f64| ratio(ns / 1e3, session.update_count());
    let fsync_us = per_update(c.sum("serve.journal.fsync_ns"));
    let append_us = per_update(c.sum("serve.journal.append_ns"));
    let snapshot_us = per_update(c.sum("serve.snapshot.write_ns"));
    out.set(
        "serve.fsync_us_mean",
        c.mean("serve.journal.fsync_ns") / 1e3,
    );
    out.set(
        "serve.append_us_mean",
        c.mean("serve.journal.append_ns") / 1e3,
    );
    out.set(
        "serve.snapshot_ms_mean",
        c.mean("serve.snapshot.write_ns") / 1e6,
    );
    out.set("serve.snapshots", c.count("serve.snapshot.write_ns"));
    let writers = session
        .threads
        .iter()
        .filter(|t| !t.updates.is_empty())
        .count();
    out.set(
        "serve.unexplained_share",
        unexplained_share(&updates, &[fsync_us, append_us, snapshot_us], writers),
    );
    out.set("serve.fsyncs_per_update", reading.fsyncs_per_update);
    out.set("serve.disk_bytes_per_update", reading.disk_bytes_per_update);

    out.set("net.ping_us_p50", reading.ping_us_p50);
    let (encode_us, decode_us, bytes) = served::codec_probe(kind, seed);
    out.set("net.encode_us_mean", encode_us);
    out.set("net.decode_us_mean", decode_us);
    out.set("net.bytes_per_update", bytes);
    out.set("net.overloaded", wire.overloaded() as f64);
    out.set("net.errors", (wire.failed() - wire.overloaded()) as f64);
    trace_overhead(out, &untraced, &wire);

    if kind == Kind::Ingest {
        let recovery = wire_stack.crash_and_recover();
        out.set("serve.recovery_ms", crate::stats::median(&recovery.ms));
        out.set("serve.recovery_replayed", recovery.replayed);
        out.set("serve.recovery_rung", recovery.rung);
        out.tally((recovery.checked, recovery.wrong));
    }
    for phase in [&mut untraced, &mut wire, &mut session, &mut machine] {
        out.absorb(phase);
    }
}

/// Mean self time of the benchmark's own `request` spans (generator,
/// oracle, bookkeeping) — printed with a traced run, not a metric of
/// the program.
pub fn harness_self_us(traces: &[Trace]) -> f64 {
    let per_thread: Vec<f64> = traces
        .iter()
        .filter(|t| !t.spans().is_empty())
        .map(|t| mean_self_us(t.spans(), "request"))
        .collect();
    mean(&per_thread)
}
