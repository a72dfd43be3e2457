//! Theorem 4.1's work bound as a gate (ROADMAP item 7, first instance).
//!
//! Request parameters are constants, so every REACH_u update formula is
//! a bounded number of passes over `PV`-shaped (arity-3) bit slots and
//! nothing wider: `kernel_words` per request is `O(S³/64)` with `S` the
//! padded universe. Work counters repeat bit for bit, so the bound is
//! asserted here, per request class, on a fixed seeded stream at three
//! universe sizes — with one checked-in constant — and the interpreter
//! must not run at all (`rows_built == 0`).
//!
//! The same gate holds a definable bulk change to the stream it stands
//! for: one chain bulk does no more kernel work than its expanded
//! single-tuple requests.

use dynfo_core::{programs, DynFoMachine, Request};
use dynfo_logic::formula::{and, forall, lt, not, v};
use dynfo_logic::EvalStats;
use dynfo_testutil::rng;
use rand::Rng;

/// `kernel_words ≤ C · S³/64` for every request of every class. The
/// dearest class is the forest-edge delete: the witness relation `New`
/// once, then `T` and the bound PV residual once per witness. Measured
/// maxima are 161 · S³/64 at n = 16 (where the n² bit probes of a
/// `PV(x,y,?0)` load outweigh a 64-word slot), 113 at n = 32 and 94 at
/// n = 64; the constant leaves a tenth of headroom over the first.
const C: u64 = 176;

/// The dearest class against the median request, at n = 32. **The
/// target is 20× (ROADMAP item 2) and it is not met**: the ratio is
/// 160×, because the median fell to a within-tree insert's 340 words
/// while a forest delete still makes ≈ 100 full-universe arity-3 passes
/// (54.5k words). Closing the gap is ROADMAP 2(c), open — quantifier
/// ranges masked to the affected component. This constant is only a
/// ratchet on today's ratio so it cannot grow unnoticed; replace it
/// with 20 when 2(c) lands.
const TAIL_RATCHET: u64 = 176;

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Set,
    NonForestDelete,
    WithinTreeInsert,
    MergingInsert,
    ForestDelete,
}

/// A request's class, read off the pre-state.
fn classify(m: &mut DynFoMachine, req: &Request) -> Class {
    match req {
        Request::Ins(_, a) if m.query_named("connected", &[a[0], a[1]]).unwrap() => {
            Class::WithinTreeInsert
        }
        Request::Ins(..) => Class::MergingInsert,
        Request::Del(_, a) if m.holds("F", [a[0], a[1]]) => Class::ForestDelete,
        Request::Del(..) => Class::NonForestDelete,
        _ => Class::Set,
    }
}

/// A graph filled to `2n` edges and then churned at that size — one
/// delete, one insert — so every class keeps occurring: about half the
/// live edges are forest edges, and most inserts land inside a tree.
fn held_stream(n: u32, churn: usize, seed: u64) -> Vec<Request> {
    let mut rand = rng(seed);
    let mut live: Vec<(u32, u32)> = Vec::new();
    let mut reqs = Vec::new();
    let mut insert = |live: &mut Vec<(u32, u32)>, reqs: &mut Vec<Request>| loop {
        let (a, b) = (rand.gen_range(0..n), rand.gen_range(0..n));
        if a != b && !live.contains(&(a.min(b), a.max(b))) {
            live.push((a.min(b), a.max(b)));
            reqs.push(Request::ins("E", [a, b]));
            return;
        }
    };
    for _ in 0..2 * n {
        insert(&mut live, &mut reqs);
    }
    for step in 0..churn {
        let (a, b) = live.swap_remove((step * 7919) % live.len());
        reqs.push(Request::del("E", [a, b]));
        insert(&mut live, &mut reqs);
        if step % 8 == 0 {
            reqs.push(Request::set(if step % 16 == 0 { "s" } else { "t" }, n / 2));
        }
    }
    reqs
}

/// Kernel words of every request, by class, in stream order.
fn profile(n: u32) -> Vec<(Class, u64)> {
    let mut m = DynFoMachine::new(programs::reach_u::program(), n);
    let mut out = Vec::new();
    for req in &held_stream(n, 120, 4101) {
        let class = classify(&mut m, req);
        let work = m.apply(req).unwrap();
        assert_eq!(work.rows_built, 0, "n={n} {req}: the interpreter ran");
        assert_eq!(work.plan_fallback, 0, "n={n} {req}: a plan declined");
        out.push((class, work.kernel_words));
    }
    assert_eq!(m.stats().update_work.rows_built, 0);
    out
}

#[test]
fn reach_u_requests_stay_within_the_cubic_word_bound() {
    for n in [16u32, 32, 64] {
        let s = u64::from(n.next_power_of_two());
        let bound = C * s.pow(3) / 64;
        let requests = profile(n);
        let mut sorted: Vec<u64> = requests.iter().map(|&(_, w)| w).collect();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        for class in [
            Class::Set,
            Class::NonForestDelete,
            Class::WithinTreeInsert,
            Class::MergingInsert,
            Class::ForestDelete,
        ] {
            let words: Vec<u64> =
                requests.iter().filter(|r| r.0 == class).map(|r| r.1).collect();
            assert!(!words.is_empty(), "n={n}: the stream has no {class:?}");
            let (mean, max) = (words.iter().sum::<u64>() / words.len() as u64, words.iter().max().unwrap());
            println!(
                "n={n:>2} {class:?}: {} requests, mean {mean} words, max {max} (bound {bound}, median request {median})",
                words.len()
            );
            assert!(*max <= bound, "n={n} {class:?}: {max} kernel words > {C}·S³/64 = {bound}");
            match class {
                // Decided by nothing but the constant copy.
                Class::Set => assert_eq!(*max, 0),
                // What the guards decide runs only the arity-2 copy
                // rules: no PV-shaped pass at all.
                Class::WithinTreeInsert | Class::NonForestDelete => {
                    assert!(*max <= s * s, "n={n} {class:?}: {max} words is not arity-2 work")
                }
                Class::MergingInsert | Class::ForestDelete => {
                    assert!(n != 32 || mean <= TAIL_RATCHET * median, "{class:?}: mean {mean} > {TAIL_RATCHET}× the median request ({median})")
                }
            }
        }
    }
}

/// The successor-chain bulk insert on semi REACH_u — δ, the live-Δ pass
/// and every closure round (each of whose ∃-joins composes, costing the
/// popcount of its driving operand) — takes no more kernel words than
/// the expanded stream of single inserts it stands for, with the
/// interpreter idle on both sides: the one-shot never does more word
/// work than the stream. (Wall-clock is another matter: δ is a fresh
/// plan every request, and at n = 256 its S³ passes outweigh the
/// stream's 255 cheap inserts — EXPERIMENTS E25. That stream skips δ;
/// a bulk request pays δ on either route.)
#[test]
fn chain_bulk_costs_at_most_its_stream() {
    let chain = and([
        lt(v("x0"), v("x1")),
        forall(["z"], not(and([lt(v("x0"), v("z")), lt(v("z"), v("x1"))]))),
    ]);
    let req = Request::bulk_ins("E", chain);
    for n in [64u32, 128, 256] {
        let program = programs::semi::reach_u_program;
        let mut bulk = DynFoMachine::new(program(), n);
        let mut stream = DynFoMachine::new(program(), n);
        let expanded = stream.expand_bulk(&req).unwrap();
        let one_shot = bulk.apply(&req).unwrap();
        let mut replay = EvalStats::default();
        for r in &expanded {
            replay.absorb(&stream.apply(r).unwrap());
        }
        assert_eq!(bulk.state(), stream.state(), "n={n}");
        assert_eq!(bulk.stats().requests, 1, "n={n}: not one-shot");
        assert_eq!(one_shot.rows_built + replay.rows_built, 0, "n={n}: the interpreter ran");
        println!(
            "n={n:>3}: chain bulk {} kernel words, its {}-request stream {}",
            one_shot.kernel_words,
            expanded.len(),
            replay.kernel_words
        );
        assert!(
            one_shot.kernel_words <= replay.kernel_words,
            "n={n}: the bulk did more word work ({}) than its stream ({})",
            one_shot.kernel_words,
            replay.kernel_words
        );
    }
}
