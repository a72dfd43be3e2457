//! Regenerates every experiment table (E01–E16, E20–E26) from
//! `DESIGN.md` / `EXPERIMENTS.md`.
//!
//! Run with: `cargo run --release -p dynfo-bench --bin tables`
//!
//! `--json` additionally writes the E22 rows to `BENCH_E22.json`
//! (`{op, n, backend, ns_per_op, kernel_words}` records), the E23
//! rows to `BENCH_E23.json` (`{setup, endpoints, readers, read_rps,
//! read_p99_us, write_rps, overloaded}` records), the E24 rows to
//! `BENCH_E24.json` (`{kind, name, n, kernel_words_off,
//! kernel_words_on, saved_pct, run_words_off, run_words_on, us_off,
//! us_on, ops_removed, words_saved}` records), and the E25 rows to
//! `BENCH_E25.json` (`{program, n, delta, tuples, path, bulk_us,
//! stream_us, speedup}` records), and the E26 rows to
//! `BENCH_E26.json` (`{workload, n, edits, dyn_us, rescan_us,
//! speedup}` records) for CI trend tracking; remaining args filter
//! sections by substring.
//!
//! Times are microseconds per operation. Absolute numbers are
//! machine-specific; the *shapes* (who grows with n, who stays flat,
//! constant depth columns, expansion dichotomies) are what reproduce the
//! paper's claims.

use dynfo_bench::{
    dag_workload, mean_update_seconds, row, timed, undirected_workload, us, weighted_workload,
};
use dynfo_core::machine::DynFoMachine;
use dynfo_core::native::{NativeMatching, NativeMsf, NativeReachAcyclic, NativeReachU};
use dynfo_core::programs;
use dynfo_core::request::Request;
use dynfo_graph::graph::{DiGraph, Graph};
use dynfo_logic::parallel::cram_depth;

fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Whether `--json` was passed: E22–E26 also write
/// `BENCH_E22.json` … `BENCH_E26.json`.
static EMIT_JSON: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

fn main() {
    // Optional args filter sections by substring (`tables e20 e05`), so
    // one experiment can be regenerated without the full ~5-minute run.
    // `--json` is consumed as a flag, not a filter.
    let mut filter: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = filter.iter().position(|a| a == "--json") {
        filter.remove(pos);
        EMIT_JSON.store(true, std::sync::atomic::Ordering::Relaxed);
    }
    let run = |name: &str| filter.is_empty() || filter.iter().any(|f| name.contains(f.as_str()));
    println!("Dyn-FO experiment tables (microseconds unless noted)");
    let sections: [(&str, fn()); 23] = [
        ("e01", e01_parity),
        ("e02", e02_reach_u),
        ("e03", e03_reach_acyclic),
        ("e04", e04_transitive_reduction),
        ("e05", e05_msf),
        ("e06", e06_bipartite),
        ("e07", e07_kconn),
        ("e08", e08_matching),
        ("e09", e09_lca),
        ("e10", e10_regular),
        ("e11", e11_multiplication),
        ("e12", e12_dyck),
        ("e13", e13_transfer),
        ("e14", e14_expansion),
        ("e15", e15_pad),
        ("e16", e16_parallel),
        ("e20", e20_compiled),
        ("e21", e21_observability),
        ("e22", e22_simd),
        ("e23", e23_serving_tier),
        ("e24", e24_plan_optimizer),
        ("e25", e25_bulk_changes),
        ("e26", e26_megabyte_strings),
    ];
    for (name, section) in sections {
        if run(name) {
            section();
        }
    }
    println!("\ndone.");
}

/// E01 — PARITY (Example 3.2): O(1)-depth dynamic bit vs O(n) recount.
fn e01_parity() {
    header("E01 PARITY (Ex 3.2): update vs static recount");
    row(["n", "fo upd", "native upd", "recount", "depth"].map(String::from).as_ref());
    for n in [64u32, 256, 1024] {
        let program = programs::parity::program();
        let depth = program.update_depth();
        let mut machine = DynFoMachine::new(program, n);
        let reqs: Vec<Request> = (0..200)
            .map(|i| {
                if i % 3 == 0 {
                    Request::del("M", [(i * 7) % n])
                } else {
                    Request::ins("M", [(i * 13) % n])
                }
            })
            .collect();
        let fo = mean_update_seconds(&mut machine, &reqs);

        // Native: toggle a bit + parity flag.
        let mut bits = vec![false; n as usize];
        let mut parity = false;
        let (_, native_total) = timed(|| {
            for r in &reqs {
                let (i, val) = match r {
                    Request::Ins(_, a) => (a[0] as usize, true),
                    Request::Del(_, a) => (a[0] as usize, false),
                    _ => unreachable!(),
                };
                if bits[i] != val {
                    bits[i] = val;
                    parity = !parity;
                }
            }
        });
        // Static recount after each update.
        let (_, recount_total) = timed(|| {
            for r in &reqs {
                let (i, val) = match r {
                    Request::Ins(_, a) => (a[0] as usize, true),
                    Request::Del(_, a) => (a[0] as usize, false),
                    _ => unreachable!(),
                };
                bits[i] = val;
                let _odd = bits.iter().filter(|&&b| b).count() % 2 == 1;
                std::hint::black_box(_odd);
            }
        });
        row(&[
            n.to_string(),
            us(fo),
            us(native_total / reqs.len() as f64),
            us(recount_total / reqs.len() as f64),
            depth.to_string(),
        ]);
    }
}

/// E02 — REACH_u (Thm 4.1).
fn e02_reach_u() {
    header("E02 REACH_u (Thm 4.1): fo vs native vs BFS-relabel per update");
    row(["n", "fo upd", "native upd", "static upd", "fo query", "depth"]
        .map(String::from).as_ref());
    for n in [8u32, 12, 16, 24] {
        let steps = 60;
        let reqs = undirected_workload(n, steps, 11);
        let program = programs::reach_u::program();
        let depth = program.update_depth();
        let mut machine = DynFoMachine::new(program, n);
        let fo = mean_update_seconds(&mut machine, &reqs);
        let (_, q) = timed(|| {
            for x in 0..n {
                let _ = machine.query_named("connected", &[x, (x + 1) % n]).unwrap();
            }
        });

        let mut native = NativeReachU::new(n);
        let (_, nat) = timed(|| {
            for r in &reqs {
                match r {
                    Request::Ins(_, a) => native.insert(a[0], a[1]),
                    Request::Del(_, a) => native.delete(a[0], a[1]),
                    _ => {}
                }
            }
        });

        let mut g = Graph::new(n);
        let (_, stat) = timed(|| {
            for r in &reqs {
                match r {
                    Request::Ins(_, a) => {
                        g.insert(a[0], a[1]);
                    }
                    Request::Del(_, a) => {
                        g.remove(a[0], a[1]);
                    }
                    _ => {}
                }
                std::hint::black_box(dynfo_graph::traversal::components(&g));
            }
        });
        row(&[
            n.to_string(),
            us(fo),
            us(nat / steps as f64),
            us(stat / steps as f64),
            us(q / n as f64),
            depth.to_string(),
        ]);
    }
}

/// E03 — REACH(acyclic) (Thm 4.2).
fn e03_reach_acyclic() {
    header("E03 REACH acyclic (Thm 4.2): fo vs native bitset vs closure recompute");
    row(["n", "fo upd", "native upd", "static upd", "depth"].map(String::from).as_ref());
    for n in [8u32, 16, 32] {
        let steps = 80;
        let reqs = dag_workload(n, steps, 13);
        let program = programs::reach_acyclic::program();
        let depth = program.update_depth();
        let mut machine = DynFoMachine::new(program, n);
        let fo = mean_update_seconds(&mut machine, &reqs);

        let mut native = NativeReachAcyclic::new(n);
        let (_, nat) = timed(|| {
            for r in &reqs {
                match r {
                    Request::Ins(_, a) => native.insert(a[0], a[1]),
                    Request::Del(_, a) => native.delete(a[0], a[1]),
                    _ => {}
                }
            }
        });

        let mut g = DiGraph::new(n);
        let (_, stat) = timed(|| {
            for r in &reqs {
                match r {
                    Request::Ins(_, a) => {
                        g.insert(a[0], a[1]);
                    }
                    Request::Del(_, a) => {
                        g.remove(a[0], a[1]);
                    }
                    _ => {}
                }
                std::hint::black_box(dynfo_graph::transitive::transitive_closure(&g));
            }
        });
        row(&[
            n.to_string(),
            us(fo),
            us(nat / steps as f64),
            us(stat / steps as f64),
            depth.to_string(),
        ]);
    }
}

/// E04 — Transitive reduction (Cor 4.3).
fn e04_transitive_reduction() {
    header("E04 transitive reduction (Cor 4.3): fo vs static TR recompute");
    row(["n", "fo upd", "static upd"].map(String::from).as_ref());
    for n in [8u32, 12, 16] {
        let steps = 60;
        let reqs = dag_workload(n, steps, 17);
        let mut machine = DynFoMachine::new(programs::trans_reduction::program(), n);
        let fo = mean_update_seconds(&mut machine, &reqs);

        let mut g = DiGraph::new(n);
        let (_, stat) = timed(|| {
            for r in &reqs {
                match r {
                    Request::Ins(_, a) => {
                        g.insert(a[0], a[1]);
                    }
                    Request::Del(_, a) => {
                        g.remove(a[0], a[1]);
                    }
                    _ => {}
                }
                std::hint::black_box(dynfo_graph::transitive::transitive_reduction(&g));
            }
        });
        row(&[n.to_string(), us(fo), us(stat / steps as f64)]);
    }
}

/// E05 — Minimum spanning forest (Thm 4.4).
fn e05_msf() {
    header("E05 MSF (Thm 4.4): fo vs native vs Kruskal recompute");
    row(["n", "fo upd", "native upd", "kruskal upd"].map(String::from).as_ref());
    for n in [6u32, 8, 12] {
        let steps = 40;
        let reqs = weighted_workload(n, steps, 19);
        let mut machine = DynFoMachine::new(programs::msf::program(), n);
        let fo = mean_update_seconds(&mut machine, &reqs);

        let mut native = NativeMsf::new(n);
        let (_, nat) = timed(|| {
            for r in &reqs {
                match r {
                    Request::Ins(_, a) => native.insert(a[0], a[1], a[2]),
                    Request::Del(_, a) => native.delete(a[0], a[1], a[2]),
                    _ => {}
                }
            }
        });

        let mut g = dynfo_graph::mst::WeightedGraph::new(n);
        let (_, stat) = timed(|| {
            for r in &reqs {
                match r {
                    Request::Ins(_, a) => {
                        g.insert(a[0], a[1], a[2]);
                    }
                    Request::Del(_, a) => {
                        g.remove(a[0], a[1]);
                    }
                    _ => {}
                }
                std::hint::black_box(dynfo_graph::mst::kruskal(&g));
            }
        });
        row(&[
            n.to_string(),
            us(fo),
            us(nat / steps as f64),
            us(stat / steps as f64),
        ]);
    }
}

/// E06 — Bipartiteness (Thm 4.5(1)).
fn e06_bipartite() {
    header("E06 bipartiteness (Thm 4.5.1): fo vs 2-coloring recompute");
    row(["n", "fo upd", "fo query", "static upd"].map(String::from).as_ref());
    for n in [6u32, 8, 12] {
        let steps = 40;
        let reqs = undirected_workload(n, steps, 23);
        let mut machine = DynFoMachine::new(programs::bipartite::program(), n);
        let fo = mean_update_seconds(&mut machine, &reqs);
        let (_, q) = timed(|| {
            for _ in 0..10 {
                let _ = machine.query().unwrap();
            }
        });

        let mut g = Graph::new(n);
        let (_, stat) = timed(|| {
            for r in &reqs {
                match r {
                    Request::Ins(_, a) => {
                        g.insert(a[0], a[1]);
                    }
                    Request::Del(_, a) => {
                        g.remove(a[0], a[1]);
                    }
                    _ => {}
                }
                std::hint::black_box(dynfo_graph::bipartite::is_bipartite(&g));
            }
        });
        row(&[
            n.to_string(),
            us(fo),
            us(q / 10.0),
            us(stat / steps as f64),
        ]);
    }
}

/// E07 — k-edge connectivity (Thm 4.5(2)): query cost grows with k,
/// update cost does not.
fn e07_kconn() {
    header("E07 k-edge connectivity (Thm 4.5.2): query cost vs k (n = 6)");
    row(["k", "fo query", "flow oracle", "query size"].map(String::from).as_ref());
    let n = 6u32;
    let mut machine = DynFoMachine::new(programs::kconn::program_up_to(3), n);
    let mut g = Graph::new(n);
    for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (4, 5)] {
        machine.apply(&Request::ins("E", [a, b])).unwrap();
        g.insert(a, b);
    }
    for k in 1usize..=3 {
        let (_, fo) = timed(|| {
            for x in 0..n {
                let _ = machine
                    .query_named(&format!("kconn{k}"), &[x, (x + 2) % n])
                    .unwrap();
            }
        });
        let (_, oracle) = timed(|| {
            for x in 0..n {
                std::hint::black_box(dynfo_graph::flow::k_edge_connected_pair(
                    &g,
                    x,
                    (x + 2) % n,
                    k,
                ));
            }
        });
        let size = dynfo_logic::analysis::size(&programs::kconn::kconn_query(k));
        row(&[
            k.to_string(),
            us(fo / n as f64),
            us(oracle / n as f64),
            size.to_string(),
        ]);
    }
}

/// E08 — Maximal matching (Thm 4.5(3)).
fn e08_matching() {
    header("E08 maximal matching (Thm 4.5.3): fo vs native vs greedy recompute");
    row(["n", "fo upd", "native upd", "static upd"].map(String::from).as_ref());
    for n in [8u32, 16, 24] {
        let steps = 60;
        let reqs = undirected_workload(n, steps, 29);
        let mut machine = DynFoMachine::new(programs::matching::program(), n);
        let fo = mean_update_seconds(&mut machine, &reqs);

        let mut native = NativeMatching::new(n);
        let (_, nat) = timed(|| {
            for r in &reqs {
                match r {
                    Request::Ins(_, a) => native.insert(a[0], a[1]),
                    Request::Del(_, a) => native.delete(a[0], a[1]),
                    _ => {}
                }
            }
        });

        let mut g = Graph::new(n);
        let (_, stat) = timed(|| {
            for r in &reqs {
                match r {
                    Request::Ins(_, a) => {
                        g.insert(a[0], a[1]);
                    }
                    Request::Del(_, a) => {
                        g.remove(a[0], a[1]);
                    }
                    _ => {}
                }
                std::hint::black_box(dynfo_graph::matching::greedy_maximal_matching(&g));
            }
        });
        row(&[
            n.to_string(),
            us(fo),
            us(nat / steps as f64),
            us(stat / steps as f64),
        ]);
    }
}

/// E09 — LCA in forests (Thm 4.5(4)).
fn e09_lca() {
    header("E09 LCA (Thm 4.5.4): fo query vs ancestor-walk oracle");
    row(["n", "fo upd", "fo query", "oracle query"].map(String::from).as_ref());
    for n in [8u32, 16] {
        let mut machine = DynFoMachine::new(programs::lca::program(), n);
        let mut g = DiGraph::new(n);
        // A random forest built by attaching each vertex below an
        // earlier one.
        let mut reqs = Vec::new();
        for v in 1..n {
            let parent = (v * 7 + 3) % v;
            reqs.push(Request::ins("E", [parent, v]));
            g.insert(parent, v);
        }
        let fo_upd = mean_update_seconds(&mut machine, &reqs);
        let (_, foq) = timed(|| {
            for x in 0..n {
                let y = (x + 3) % n;
                for a in 0..n {
                    let _ = machine.query_named("lca", &[x, y, a]).unwrap();
                }
            }
        });
        let (_, oq) = timed(|| {
            for x in 0..n {
                std::hint::black_box(dynfo_graph::lca::lca(&g, x, (x + 3) % n));
            }
        });
        row(&[
            n.to_string(),
            us(fo_upd),
            us(foq / (n * n) as f64),
            us(oq / n as f64),
        ]);
    }
}

/// E10 — Regular languages (Thm 4.6): O(log n) tree vs O(n) rerun.
fn e10_regular() {
    header("E10 regular languages (Thm 4.6): composition tree vs full DFA rerun");
    row(["n", "tree upd", "rerun", "tree nodes/upd"].map(String::from).as_ref());
    let dfa = dynfo_automata::dfa::contains_substring(&['a', 'b'], "abba");
    for exp in [8u32, 10, 12, 14] {
        let n = 1usize << exp;
        let mut s = dynfo_automata::dyntree::DynRegular::new(dfa.clone(), n);
        // Preload.
        for i in (0..n).step_by(3) {
            s.insert_char(i, if i % 2 == 0 { 'a' } else { 'b' });
        }
        let edits: Vec<(usize, char)> = (0..2000)
            .map(|i| ((i * 2654435761) % n, if i % 3 == 0 { 'b' } else { 'a' }))
            .collect();
        let before = s.recomputations();
        let (_, tree) = timed(|| {
            for &(pos, c) in &edits {
                s.insert_char(pos, c);
            }
        });
        let per_update_nodes = (s.recomputations() - before) as f64 / edits.len() as f64;
        let (_, rerun) = timed(|| {
            for _ in 0..50 {
                std::hint::black_box(dfa.accepts(&s.string()));
            }
        });
        row(&[
            n.to_string(),
            us(tree / edits.len() as f64),
            us(rerun / 50.0),
            format!("{per_update_nodes:.0}"),
        ]);
    }
}

/// E11 — Multiplication (Prop 4.7).
fn e11_multiplication() {
    header("E11 multiplication (Prop 4.7): one shifted add vs school multiply");
    row(["bits", "dyn change", "recompute"].map(String::from).as_ref());
    for n in [64usize, 256, 1024, 4096] {
        let mut p = dynfo_arith::DynProduct::new(n);
        // Preload operands.
        for i in (0..n).step_by(2) {
            p.change(dynfo_arith::Operand::X, i, true);
        }
        for i in (0..n).step_by(3) {
            p.change(dynfo_arith::Operand::Y, i, true);
        }
        let flips: Vec<(usize, bool)> = (0..500)
            .map(|i| ((i * 48271) % n, i % 2 == 0))
            .collect();
        let (_, dynt) = timed(|| {
            for &(i, v) in &flips {
                p.change(dynfo_arith::Operand::X, i, v);
            }
        });
        let (_, stat) = timed(|| {
            for _ in 0..20 {
                std::hint::black_box(p.recompute());
            }
        });
        row(&[
            n.to_string(),
            us(dynt / flips.len() as f64),
            us(stat / 20.0),
        ]);
    }
}

/// E12 — Dyck languages (Prop 4.8).
fn e12_dyck() {
    header("E12 Dyck D^k (Prop 4.8): segment tree vs stack rescan (k = 2)");
    row(["n", "tree upd", "rescan"].map(String::from).as_ref());
    for exp in [8u32, 10, 12, 14] {
        let n = 1usize << exp;
        let mut d = dynfo_automata::dyck::DynDyck::new(2, n);
        // Balanced preload: ( at even, ) at odd positions.
        for i in 0..n / 2 {
            d.insert_open(2 * i, (i % 2) as u8);
            d.insert_close(2 * i + 1, (i % 2) as u8);
        }
        let edits: Vec<usize> = (0..1000).map(|i| (i * 2654435761) % n).collect();
        let (_, tree) = timed(|| {
            for (j, &pos) in edits.iter().enumerate() {
                if j % 2 == 0 {
                    d.insert_open(pos, 0);
                } else {
                    d.insert_close(pos, 0);
                }
                std::hint::black_box(d.balanced());
            }
        });
        let slots: Vec<_> = (0..n).map(|i| d.get(i)).collect();
        let (_, rescan) = timed(|| {
            for _ in 0..50 {
                std::hint::black_box(dynfo_automata::dyck::dyck_valid(std::hint::black_box(
                    &slots,
                )));
            }
        });
        row(&[
            n.to_string(),
            us(tree / edits.len() as f64),
            us(rescan / 50.0),
        ]);
    }
}

/// E13 — The transfer theorem (Prop 5.3): constant-factor overhead.
fn e13_transfer() {
    header("E13 transfer (Prop 5.3): REACH_d via reduction vs direct REACH_u");
    row(["n", "via reduction", "direct", "overhead x"].map(String::from).as_ref());
    for n in [6u32, 8, 12] {
        let steps = 30;
        let ops = dynfo_graph::generate::churn_stream(
            n,
            steps,
            0.35,
            false,
            &mut dynfo_graph::generate::rng(31),
        );
        let reqs = dynfo_bench::edge_requests("E", &ops);

        let mut via = dynfo_reductions::TransferMachine::new(
            dynfo_reductions::reach_d_to_reach_u(),
            programs::reach_u::program(),
            n,
            6,
        )
        .unwrap();
        let (_, tvia) = timed(|| {
            for r in &reqs {
                via.apply(r).unwrap();
            }
        });

        let mut direct = DynFoMachine::new(programs::reach_u::program(), n);
        // The direct machine sees the symmetrized workload.
        let (_, tdir) = timed(|| {
            for r in &reqs {
                direct.apply(r).unwrap();
            }
        });
        row(&[
            n.to_string(),
            us(tvia / steps as f64),
            us(tdir / steps as f64),
            format!("{:.1}", tvia / tdir),
        ]);
    }
}

/// E14 — The expansion dichotomy (Def 5.1, Cor 5.10, Fact 5.11).
fn e14_expansion() {
    header("E14 expansion per input change (tuples)");
    row(["n", "I_{d-u} (bfo)", "TM config graph", "COLOR-REACH"].map(String::from).as_ref());
    for n in [8u32, 16, 32] {
        let ops = dynfo_graph::generate::churn_stream(
            n,
            60,
            0.4,
            false,
            &mut dynfo_graph::generate::rng(n as u64),
        );
        let reqs = dynfo_bench::edge_requests("E", &ops);
        let report =
            dynfo_reductions::measure_expansion(&dynfo_reductions::reach_d_to_reach_u(), n, &reqs)
                .unwrap();
        let tm = dynfo_reductions::majority(n as usize).expansion_at_bit(n as usize - 1);
        row(&[
            n.to_string(),
            report.max_expansion().to_string(),
            tm.to_string(),
            "1".to_string(),
        ]);
    }
}

/// E15 — PAD(REACH_a) (Thm 5.14).
fn e15_pad() {
    header("E15 PAD(REACH_a) (Thm 5.14): FO rounds amortized over padding");
    row(["n", "rounds/real-update", "padding n", "amortized/padded"].map(String::from).as_ref());
    use rand::Rng;
    for n in [16u32, 32, 64] {
        let mut p = dynfo_reductions::PaddedReachA::new(n, 0, n - 1);
        let mut rand = dynfo_graph::generate::rng(37);
        let updates = 60;
        for _ in 0..updates {
            let a = rand.gen_range(0..n);
            let b = rand.gen_range(0..n);
            p.real_update(dynfo_reductions::AltUpdate::InsEdge(a, b));
            p.finish_padding();
        }
        let per_update = p.total_rounds as f64 / updates as f64;
        row(&[
            n.to_string(),
            format!("{per_update:.1}"),
            n.to_string(),
            format!("{:.2}", per_update / n as f64),
        ]);
    }
}

/// E16 — FO = CRAM[1]: an update's parallel time is its quantifier
/// depth, read off the rules each machine runs at two universe sizes;
/// then the rule scheduler's wall clock on the one pool.
fn e16_parallel() {
    header("E16 update depth (FO = CRAM[1]): max cram_depth over update rules");
    let sizes = [16u32, 64];
    let mut cols = vec!["program".to_string(), "rules".to_string()];
    cols.extend(sizes.map(|n| format!("depth n={n}")));
    row(&cols);
    let library: [fn() -> dynfo_core::program::DynFoProgram; 15] = [
        programs::parity::program,
        programs::reach_u::program,
        programs::reach_acyclic::program,
        programs::trans_reduction::program,
        programs::msf::program,
        programs::bipartite::program,
        programs::kconn::program,
        programs::matching::program,
        programs::lca::program,
        programs::vertex_cover::program,
        programs::semi::reach_u_program,
        programs::semi::reach_program,
        programs::dir_reach::dir_reach_program,
        || programs::dyck::dyck_program(2),
        programs::strings::a_star_b_star_program,
    ];
    for program in library {
        let mut cols = vec![
            program().name().to_string(),
            program().rules().count().to_string(),
        ];
        for n in sizes {
            let machine = DynFoMachine::new(program(), n);
            let depth = machine
                .program()
                .rules()
                .map(|(_, r)| cram_depth(&r.formula))
                .max()
                .unwrap_or(0);
            cols.push(depth.to_string());
        }
        row(&cols);
    }

    // The rule scheduler spreads one request's general rules over
    // `EvalPool` workers; the schedule is deterministic, so both
    // machines must land on the same state.
    header("E16 REACH_u n=64 per-update latency by rule-scheduler threads");
    row(["threads", "us/update"].map(String::from).as_ref());
    let n = 64;
    let reqs = undirected_workload(n, 150, 71);
    let mut states = Vec::new();
    for threads in [1usize, 2] {
        let mut machine =
            DynFoMachine::new(programs::reach_u::program(), n).with_parallelism(threads);
        let secs = mean_update_seconds(&mut machine, &reqs);
        row(&[threads.to_string(), us(secs)]);
        states.push(machine.state().clone());
    }
    assert_eq!(
        states[0], states[1],
        "parallel schedule diverged from serial"
    );
}

/// E20 — the machine's compiled plans against Definition 3.1 executed
/// literally (`dynfo_testutil::reference_step`: every rule's whole
/// formula on the interpreter, relations replaced wholesale): per-update
/// latency, plus the plan counters (`plan_compiled`, `plan_fallback`,
/// `kernel_words`) that show where each workload actually ran.
fn e20_compiled() {
    header("E20 machine vs Definition 3.1 replay: per-update latency");
    row(["program", "n", "machine", "def 3.1", "speedup", "plan evals", "fallbacks", "kwords"]
        .map(String::from).as_ref());

    let parity_reqs = |n: u32| -> Vec<Request> {
        (0..200u32)
            .map(|i| {
                if i % 3 == 0 {
                    Request::del("M", [(i * 7) % n])
                } else {
                    Request::ins("M", [(i * 13) % n])
                }
            })
            .collect()
    };
    // Insert-only stream for the semi-dynamic (Dyn_s-FO) programs.
    let insert_reqs = |n: u32| -> Vec<Request> {
        use dynfo_graph::generate::{churn_stream, rng, EdgeOp};
        churn_stream(n, 120, 0.0, true, &mut rng(79))
            .into_iter()
            .map(|op| match op {
                EdgeOp::Ins(a, b) | EdgeOp::Del(a, b) => Request::ins("E", [a, b]),
            })
            .collect()
    };
    type Case = (
        &'static str,
        fn() -> dynfo_core::program::DynFoProgram,
        Box<dyn Fn(u32) -> Vec<Request>>,
        Vec<u32>,
    );
    // MSF runs at n = 16, the largest size under the compile cap (past
    // it, at n ≥ 17, its widest residuals interpret whenever a request
    // selects them, and the Definition 3.1 replay takes minutes) — the
    // dense-n≥64 story belongs to the binary-aux programs. REACH_a is
    // the honest fallback row: its 4-variable delete formula exceeds
    // the density gate at n = 128, so deletes run interpreted (the
    // fallback counter lights up) while inserts run compiled.
    let cases: Vec<Case> = vec![
        // PARITY's aux relations are unary, so it sweeps to n = 1024
        // for free and pins the blocked-fold path at large n; REACH_u's
        // n = 256 row is past the compile cap.
        ("PARITY", programs::parity::program, Box::new(parity_reqs), vec![64, 128, 1024]),
        (
            "REACH_u",
            programs::reach_u::program,
            Box::new(|n| undirected_workload(n, 150, 71)),
            vec![64, 128, 256],
        ),
        (
            "REACH_a",
            programs::reach_acyclic::program,
            Box::new(|n| dag_workload(n, 150, 77)),
            vec![64, 128],
        ),
        (
            "semi REACH_u",
            programs::semi::reach_u_program,
            Box::new(insert_reqs),
            vec![64, 128],
        ),
        (
            "MSF",
            programs::msf::program,
            Box::new(|n| weighted_workload(n, 40, 73)),
            vec![16],
        ),
    ];
    for (name, program, workload, sizes) in &cases {
        for &n in sizes {
            let reqs = workload(n);
            let mut compiled = DynFoMachine::new(program(), n);
            let fast = mean_update_seconds(&mut compiled, &reqs);
            let reference = program();
            let (_, slow) = timed(|| {
                let mut st = reference.initial_structure(n);
                for r in &reqs {
                    st = dynfo_testutil::reference_step(&reference, &st, r);
                }
            });
            let slow = slow / reqs.len() as f64;
            let work = compiled.stats().update_work;
            row(&[
                name.to_string(),
                n.to_string(),
                us(fast),
                us(slow),
                format!("{:.1}x", slow / fast),
                work.plan_compiled.to_string(),
                work.plan_fallback.to_string(),
                format!("{}k", work.kernel_words / 1000),
            ]);
        }
    }

    // The standalone three-hop join query (same shape as E16) through
    // `Plan::execute` vs the interpreter, swept over graph density at
    // fixed n: the plan's cost is *data-independent* (S⁴/64-word
    // passes), while the interpreter's join sizes grow with degree³ —
    // the crossover is the point of the compiled query path.
    header("E20 three-hop query: compiled plan vs interpreter, by density");
    row(["n", "avg deg", "compiled", "interp", "speedup", "kwords"].map(String::from).as_ref());
    use dynfo_logic::formula::{exists, rel, v};
    let f = exists(
        ["a", "b"],
        rel("E", [v("x"), v("a")]) & rel("E", [v("a"), v("b")]) & rel("E", [v("b"), v("y")]),
    );
    let canonical = dynfo_logic::analysis::canonicalize(&f);
    for (n, deg) in [(64u32, 8u32), (64, 24), (128, 8), (128, 24)] {
        let g = dynfo_graph::generate::gnp(
            n,
            deg as f64 / n as f64,
            &mut dynfo_graph::generate::rng(5),
        );
        let vocab = std::sync::Arc::new(dynfo_logic::Vocabulary::new().with_relation("E", 2));
        let mut st = dynfo_logic::Structure::empty(vocab, n);
        for (a, b) in g.edges() {
            st.insert("E", [a, b]);
            st.insert("E", [b, a]);
        }
        let plan = dynfo_logic::Plan::compile(&canonical, &st).expect("three-hop compiles");
        let mut arena = plan.arena();
        let rounds = 10;
        let (kwords, fast) = timed(|| {
            let mut words = 0;
            for _ in 0..rounds {
                let mut ev = dynfo_logic::Evaluator::new(&st, &[]);
                std::hint::black_box(plan.execute(&mut ev, &mut arena, None).unwrap());
                words = ev.stats().kernel_words;
            }
            words
        });
        let (_, slow) = timed(|| {
            for _ in 0..rounds {
                std::hint::black_box(dynfo_logic::evaluate(&canonical, &st, &[]).unwrap());
            }
        });
        row(&[
            n.to_string(),
            deg.to_string(),
            us(fast / rounds as f64),
            us(slow / rounds as f64),
            format!("{:.1}x", slow / fast),
            format!("{}k", kwords / 1000),
        ]);
    }
}

/// E21 — observability: the per-update cost of the compiled-in
/// instrumentation on the E20 REACH_u workload (compare an `obs`-default
/// build against `--no-default-features`), then a scripted durable batch
/// workload — snapshots, shutdown, recovery — followed by a dump of the
/// global metric registry. The dump is the exporter smoke test: CI greps
/// it for the headline metric names.
fn e21_observability() {
    header("E21 observability overhead (REACH_u, compiled plans)");
    row(["n", "per-update", "  instrumentation"].map(String::from).as_ref());
    let label = if dynfo_obs::ENABLED {
        "enabled"
    } else {
        "disabled (--no-default-features)"
    };
    for n in [64u32, 128] {
        let reqs = undirected_workload(n, 150, 71);
        let mut machine = DynFoMachine::new(programs::reach_u::program(), n);
        let per = mean_update_seconds(&mut machine, &reqs);
        row(&[n.to_string(), us(per), format!("  {label}")]);
    }

    // Scripted durable workload: REACH_u batches through a SessionStore
    // with frequent snapshots, then shutdown + reopen so the recovery
    // ladder actually runs (rung ≥ 1) before the registry is dumped.
    header("E21 exporter dump after a durable REACH_u batch workload");
    use dynfo_serve::{SessionStore, StoreConfig};
    let n = 32u32;
    let reqs = undirected_workload(n, 272, 83);
    let root = dynfo_serve::scratch_dir("tables-e21");
    let config = StoreConfig {
        recompute_every: 0,
        snapshot_every: 64,
        group_commit: 4,
    };
    let store = SessionStore::open(&root, config).unwrap();
    let session = store.session("e21", &programs::reach_u::program(), n).unwrap();
    for chunk in reqs[..240].chunks(16) {
        session.apply_batch(chunk).unwrap();
    }
    drop(session);
    store.shutdown().unwrap();
    let store = SessionStore::open(&root, config).unwrap();
    let session = store.session("e21", &programs::reach_u::program(), n).unwrap();
    let report = session.recovery_report().clone();
    println!(
        "recovery: rung {} (snapshot seq {}, {} frames replayed, {} anomalies)",
        report.rung,
        report.snapshot_seq,
        report.replayed,
        report.anomalies.len()
    );
    // The rest of the same stream, so the delete contract stays exact.
    session.apply_batch(&reqs[240..]).unwrap();
    drop(session);
    store.shutdown().unwrap();
    std::fs::remove_dir_all(&root).ok();

    println!("{}", dynfo_obs::global().render_table());
    println!("--- prometheus lines (headline metrics) ---");
    let prom = dynfo_obs::global().render_prometheus();
    for needle in [
        "machine_rule_update_ns",
        "eval_plan_compiled",
        "eval_plan_fallback",
        "serve_journal_fsync_ns",
        "serve_recovery_rung",
    ] {
        for line in prom.lines().filter(|l| l.starts_with(needle)) {
            println!("{line}");
        }
    }
}

/// One E22 measurement, also emitted to `BENCH_E22.json` under `--json`.
struct E22Row {
    op: &'static str,
    n: u32,
    backend: String,
    ns_per_op: f64,
    kernel_words: u64,
}

/// Time `f` over enough iterations for a stable mean; ns per call.
fn e22_time(mut f: impl FnMut()) -> f64 {
    // Warm up and calibrate on a single call.
    let (_, probe) = timed(&mut f);
    let iters = ((0.05 / probe.max(1e-9)) as usize).clamp(3, 20_000);
    let (_, total) = timed(|| {
        for _ in 0..iters {
            f();
        }
    });
    total * 1e9 / iters as f64
}

/// E22 — SIMD word kernels, scalar vs the detected vector tier.
///
/// Sweeps the production fused word passes over arity-2 buffers
/// at n ∈ {64, 256, 1024, 4096}, pinning the dispatch tier to scalar
/// and then to the detected SIMD tier inside one process
/// (`simd::force_tier`). The measured shapes are exactly what the
/// relation layer runs: `union`/`difference` are the combine+popcount
/// passes behind `BitRel` set algebra (`combine2_count`, which keeps
/// `len` maintained in the same pass — the popcount is where scalar
/// serializes on the popcnt port and vector nibble-LUT counting pulls
/// ahead), and `exists` is the blocked ∃ axis-fold (`fold_blocks`,
/// one dispatch per fold instead of one per digit). The paper's
/// 64-tuples-per-instruction claim scales with lane width: the SIMD
/// rows must not lose to scalar at n ≥ 1024, where the buffers outgrow
/// L1 and the passes are stream-bound.
fn e22_simd() {
    use dynfo_logic::simd::{self, Tier};
    let mut rows: Vec<E22Row> = Vec::new();

    header("E22 SIMD word kernels: scalar vs vector tier, ns/pass");
    row(["op", "n", "words", "scalar ns", "simd ns", "speedup", "tier"]
        .map(String::from).as_ref());
    let hw = simd::force_tier(Tier::Avx2); // clamped to what the host has
    for n in [64u32, 256, 1024, 4096] {
        let s = (n as usize).next_power_of_two();
        let words = s * s / 64;
        let a = vec![0x5a5a_5a5a_a5a5_a5a5u64; words];
        let b = vec![0x0f0f_f0f0_3c3c_c3c3u64; words];
        let mut dst = vec![0u64; words];
        // ∃-fold geometry for arity 2, axis 0: n blocks of s/64 words.
        let bw = s / 64;

        for (op, scalar_ns, simd_ns) in [
            (
                "union",
                {
                    simd::force_tier(Tier::Scalar);
                    e22_time(|| {
                        std::hint::black_box(simd::combine2_count(&mut dst, &a, &b, false, 0));
                    })
                },
                {
                    simd::force_tier(hw);
                    e22_time(|| {
                        std::hint::black_box(simd::combine2_count(&mut dst, &a, &b, false, 0));
                    })
                },
            ),
            (
                "difference",
                {
                    simd::force_tier(Tier::Scalar);
                    e22_time(|| {
                        std::hint::black_box(simd::combine2_count(&mut dst, &a, &b, true, !0u64));
                    })
                },
                {
                    simd::force_tier(hw);
                    e22_time(|| {
                        std::hint::black_box(simd::combine2_count(&mut dst, &a, &b, true, !0u64));
                    })
                },
            ),
            (
                "exists",
                {
                    simd::force_tier(Tier::Scalar);
                    e22_time(|| {
                        dst[..bw].copy_from_slice(&a[..bw]);
                        simd::fold_blocks(&mut dst[..bw], &a[bw..n as usize * bw], false);
                        std::hint::black_box(&dst);
                    })
                },
                {
                    simd::force_tier(hw);
                    e22_time(|| {
                        dst[..bw].copy_from_slice(&a[..bw]);
                        simd::fold_blocks(&mut dst[..bw], &a[bw..n as usize * bw], false);
                        std::hint::black_box(&dst);
                    })
                },
            ),
        ] {
            row(&[
                op.to_string(),
                n.to_string(),
                words.to_string(),
                format!("{scalar_ns:.0}"),
                format!("{simd_ns:.0}"),
                format!("{:.2}x", scalar_ns / simd_ns),
                hw.name().to_string(),
            ]);
            rows.push(E22Row {
                op,
                n,
                backend: "dense/scalar".into(),
                ns_per_op: scalar_ns,
                kernel_words: words as u64,
            });
            rows.push(E22Row {
                op,
                n,
                backend: format!("dense/{}", hw.name()),
                ns_per_op: simd_ns,
                kernel_words: words as u64,
            });
        }
    }
    simd::force_tier(hw);

    if EMIT_JSON.load(std::sync::atomic::Ordering::Relaxed) {
        let mut out = String::from("[\n");
        for (i, r) in rows.iter().enumerate() {
            out.push_str(&format!(
                "  {{\"op\": \"{}\", \"n\": {}, \"backend\": \"{}\", \"ns_per_op\": {:.1}, \"kernel_words\": {}}}{}\n",
                r.op,
                r.n,
                r.backend,
                r.ns_per_op,
                r.kernel_words,
                if i + 1 == rows.len() { "" } else { "," }
            ));
        }
        out.push_str("]\n");
        std::fs::write("BENCH_E22.json", &out).expect("write BENCH_E22.json");
        println!("wrote BENCH_E22.json ({} rows)", rows.len());
    }
}

/// One E23 measurement, also emitted to `BENCH_E23.json` under `--json`.
struct E23Row {
    setup: &'static str,
    endpoints: usize,
    readers: usize,
    read_rps: f64,
    read_p99_us: f64,
    write_rps: f64,
    overloaded: u64,
}

/// E23 — the networked serving tier: read-heavy throughput, primary
/// only vs primary + two log-shipping read replicas.
///
/// The workload is 6 closed-loop reader connections plus 1 writer
/// driving REACH_u edge churn with every write fsynced
/// (`group_commit=1`). On the primary alone, all queries serialize
/// against the fsync-holding writes on the one session lock; with two
/// replicas the same readers spread across three endpoints, each with
/// its own session copy, so aggregate read throughput must *rise* —
/// that scaling, with tail latency, is the claim this table checks.
fn e23_serving_tier() {
    use dynfo_net::loadgen::{run, LoadConfig};
    use dynfo_net::{AdmissionConfig, ProgramRegistry, Replica, ReplicaConfig, Server, ServerConfig};
    use dynfo_obs::ObsHandle;
    use dynfo_serve::{scratch_dir, SessionStore, StoreConfig};
    use std::sync::Arc;
    use std::time::Duration;

    const SESSION: &str = "e23";
    const PROGRAM: &str = "reach_u";
    const N: u32 = 64;
    const READERS: usize = 6;

    header("E23 serving tier: read-heavy req/s, primary vs +2 replicas");
    row(["setup", "endpoints", "readers", "read req/s", "read p99 us", "write req/s", "shed"]
        .map(String::from).as_ref());

    let dir = scratch_dir("bench-e23");
    let registry = Arc::new(ProgramRegistry::standard());
    let primary_handle = ObsHandle::with_registry(Arc::new(dynfo_obs::Registry::new()));
    let primary_store = Arc::new(
        SessionStore::open_with_obs(dir.join("primary"), StoreConfig::default(), primary_handle.clone())
            .expect("open primary store"),
    );
    // Admission stays wide open for the experiment: this measures read
    // scaling with the writer *contending* (each write holds the
    // session lock through its fsync — the very tail replicas remove).
    // When the full tables run precedes this section, prior experiments
    // leave the page cache dirty enough that real fsync p99 crosses the
    // production 50 ms default, and shedding every write would delete
    // the contention being measured. The shed path itself is pinned
    // deterministically by the backpressure test suite.
    let primary = Server::start(
        "127.0.0.1:0",
        Arc::clone(&primary_store),
        Arc::clone(&registry),
        ServerConfig {
            admission: AdmissionConfig {
                max_inflight_writes: i64::MAX,
                max_pool_queue_depth: i64::MAX,
                max_fsync_p99_ns: u64::MAX,
                ..AdmissionConfig::default()
            },
            ..ServerConfig::default()
        },
        primary_handle,
    )
    .expect("start primary");
    let primary_addr = primary.addr().to_string();

    let mut rows: Vec<E23Row> = Vec::new();
    let mut scenario = |setup: &'static str, read_addrs: Vec<String>| {
        let report = run(&LoadConfig {
            read_addrs: read_addrs.clone(),
            write_addr: primary_addr.clone(),
            session: SESSION.to_string(),
            program: PROGRAM.to_string(),
            n: N,
            readers: READERS,
            writers: 1,
            duration: Duration::from_secs(2),
            bulk: false,
        })
        .expect("loadgen run");
        assert_eq!(report.errors, 0, "serving tier returned hard errors");
        row(&[
            setup.to_string(),
            read_addrs.len().to_string(),
            READERS.to_string(),
            format!("{:.0}", report.read_rps),
            format!("{:.1}", report.read_p99_ns as f64 / 1e3),
            format!("{:.0}", report.write_rps),
            report.overloaded.to_string(),
        ]);
        rows.push(E23Row {
            setup,
            endpoints: read_addrs.len(),
            readers: READERS,
            read_rps: report.read_rps,
            read_p99_us: report.read_p99_ns as f64 / 1e3,
            write_rps: report.write_rps,
            overloaded: report.overloaded,
        });
    };

    scenario("primary-only", vec![primary_addr.clone()]);

    // Bring up two followers, let them catch up, then spread the same
    // reader pool across all three endpoints.
    let replicas: Vec<Replica> = (0..2)
        .map(|i| {
            let handle = ObsHandle::with_registry(Arc::new(dynfo_obs::Registry::new()));
            let store = Arc::new(
                SessionStore::open_with_obs(
                    dir.join(format!("replica{i}")),
                    StoreConfig::default(),
                    handle.clone(),
                )
                .expect("open replica store"),
            );
            Replica::start(
                "127.0.0.1:0",
                &primary_addr,
                store,
                Arc::clone(&registry),
                SESSION,
                PROGRAM,
                N,
                ReplicaConfig::default(),
                handle,
            )
            .expect("start replica")
        })
        .collect();
    let primary_seq = primary_store.get(SESSION).expect("session").seq();
    for r in &replicas {
        while r.seq() < primary_seq {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    let mut addrs = vec![primary_addr.clone()];
    addrs.extend(replicas.iter().map(|r| r.addr().to_string()));
    scenario("primary+2-replicas", addrs);

    for r in replicas {
        r.shutdown().expect("replica shutdown");
    }
    primary.shutdown().expect("primary shutdown");
    let _ = std::fs::remove_dir_all(&dir);

    if EMIT_JSON.load(std::sync::atomic::Ordering::Relaxed) {
        let mut out = String::from("[\n");
        for (i, r) in rows.iter().enumerate() {
            out.push_str(&format!(
                "  {{\"setup\": \"{}\", \"endpoints\": {}, \"readers\": {}, \"read_rps\": {:.0}, \"read_p99_us\": {:.1}, \"write_rps\": {:.0}, \"overloaded\": {}}}{}\n",
                r.setup,
                r.endpoints,
                r.readers,
                r.read_rps,
                r.read_p99_us,
                r.write_rps,
                r.overloaded,
                if i + 1 == rows.len() { "" } else { "," }
            ));
        }
        out.push_str("]\n");
        std::fs::write("BENCH_E23.json", &out).expect("write BENCH_E23.json");
        println!("wrote BENCH_E23.json ({} rows)", rows.len());
    }
}

/// One E24 measurement, also emitted to `BENCH_E24.json` under `--json`.
/// `kwords_*` are static per-execution plan words (plan-for-plan over
/// the optimized machine's plan set, so asymmetric work-cap fallback
/// cannot skew them); `run_kwords_on` / `us_on` are the realized
/// kernel-word counter and latency from actually driving the stream
/// and queries. `raw_run` is the same pair for the raw lowering, which
/// only the machine-free corpus rows can execute.
struct E24Row {
    kind: &'static str,
    name: String,
    n: u32,
    kwords_off: u64,
    kwords_on: u64,
    raw_run: Option<(u64, f64)>,
    run_kwords_on: u64,
    us_on: f64,
    ops_removed: u64,
    words_saved: u64,
    /// ∃-joins the optimized plans lower as compose ops.
    compose_joins: usize,
}

impl E24Row {
    fn saved_pct(&self) -> f64 {
        if self.kwords_off == 0 {
            0.0
        } else {
            100.0 * (self.kwords_off.saturating_sub(self.kwords_on)) as f64
                / self.kwords_off as f64
        }
    }
}

/// E24 — the algebraic plan optimizer: kernel words and per-op latency,
/// raw lowering vs optimized, across the 12 update programs and the
/// enumerated synth corpus.
///
/// Part 1 drives each update program over a fixed churn stream, then
/// replays its queries, and reports the optimizer's effect
/// plan-for-plan off that one machine: `ops_removed` / `words_saved`
/// are its static `plan_opt_summary()` over every compiled plan,
/// "plan kw on" its `plan_static_words()`, and "plan kw off" the two
/// added back together — the raw lowering's total. The realized kernel
/// words (update + query work) and mean per-update latency are the
/// shipped pipeline's; the machine has no optimizer-off route to
/// realize the other side. The
/// binary-aux programs run at n = 64 (REACH_u also 256, PARITY to
/// 1024); the 4/5-variable programs run at the sizes E20 established
/// as honest for their plan budgets (MSF at 16, the S⁴-slot programs
/// at 32).
///
/// Part 2 sweeps the enumerated workload corpus
/// (`dynfo_testutil::synth::corpus`) at n ∈ {64, 256, 1024}: every
/// formula is compiled both ways directly (no machine, no work cap),
/// comparing summed static `work_words`; the subset whose raw plan
/// fits the production compile budget *and* whose root decode stays
/// small (≤ 2²⁰ bits) is also executed for wall-clock per-formula
/// latency. The raw side is `Plan::compile_with(.., false)`, the
/// lowering the optimizer's never-regress guard compares against.
fn e24_plan_optimizer() {
    use dynfo_core::program::DynFoProgram;
    use dynfo_graph::generate::{churn_stream, rng, EdgeOp};
    use dynfo_logic::{Evaluator, Plan, Sym};
    use dynfo_testutil::synth;
    use std::collections::BTreeMap;

    let mut rows: Vec<E24Row> = Vec::new();
    let mut total_ops_removed = 0u64;

    header("E24 plan optimizer: 12 update programs, raw lowering vs optimized");
    row(["program", "n", "plan kw off", "plan kw on", "saved", "run kw", "upd us", "ops rm", "joins"]
        .map(String::from).as_ref());

    fn insert_reqs(n: u32, undirected: bool, seed: u64) -> Vec<Request> {
        churn_stream(n, 120, 0.0, undirected, &mut rng(seed))
            .into_iter()
            .map(|op| match op {
                EdgeOp::Ins(a, b) | EdgeOp::Del(a, b) => Request::ins("E", [a, b]),
            })
            .collect()
    }

    type Case = (
        &'static str,
        fn() -> DynFoProgram,
        Box<dyn Fn(u32) -> Vec<Request>>,
        Vec<u32>,
        Vec<(&'static str, Vec<u32>)>,
    );
    fn kconn2() -> DynFoProgram {
        programs::kconn::program_up_to(2)
    }
    let cases: Vec<Case> = vec![
        (
            "PARITY",
            programs::parity::program,
            Box::new(|n| {
                (0..200u32)
                    .map(|i| {
                        if i % 3 == 0 {
                            Request::del("M", [(i * 7) % n])
                        } else {
                            Request::ins("M", [(i * 13) % n])
                        }
                    })
                    .collect()
            }),
            vec![64, 256, 1024],
            vec![],
        ),
        (
            "REACH_u",
            programs::reach_u::program,
            Box::new(|n| undirected_workload(n, 120, 211)),
            vec![64, 128],
            vec![("connected", vec![0, 6])],
        ),
        (
            "REACH_a",
            programs::reach_acyclic::program,
            Box::new(|n| dag_workload(n, 120, 223)),
            vec![64],
            vec![("reaches", vec![0, 6])],
        ),
        (
            "TRANS_RED",
            programs::trans_reduction::program,
            Box::new(|n| dag_workload(n, 60, 227)),
            vec![32],
            vec![("in_tr", vec![0, 1])],
        ),
        (
            "MSF",
            programs::msf::program,
            Box::new(|n| weighted_workload(n, 40, 229)),
            vec![16],
            vec![("in_msf", vec![0, 1])],
        ),
        (
            "BIPARTITE",
            programs::bipartite::program,
            Box::new(|n| undirected_workload(n, 120, 233)),
            vec![64],
            vec![("odd_path", vec![0, 1])],
        ),
        (
            "KCONN<=2",
            kconn2,
            Box::new(|n| undirected_workload(n, 60, 239)),
            vec![32],
            vec![("connected", vec![0, 5])],
        ),
        (
            "MATCHING",
            programs::matching::program,
            Box::new(|n| undirected_workload(n, 60, 241)),
            vec![32],
            vec![("matched", vec![0, 1])],
        ),
        (
            "LCA",
            programs::lca::program,
            Box::new(|n| dag_workload(n, 60, 251)),
            vec![32],
            vec![("ancestor", vec![0, 5])],
        ),
        (
            "VERTEX_COVER",
            programs::vertex_cover::program,
            Box::new(|n| undirected_workload(n, 60, 257)),
            vec![32],
            vec![("in_cover", vec![0])],
        ),
        (
            "semi REACH_u",
            programs::semi::reach_u_program,
            Box::new(|n| insert_reqs(n, true, 263)),
            vec![64],
            vec![("connected", vec![0, 6])],
        ),
        (
            "semi REACH",
            programs::semi::reach_program,
            Box::new(|n| insert_reqs(n, false, 269)),
            vec![64],
            vec![("reaches", vec![0, 6])],
        ),
    ];

    const QUERY_REPS: usize = 25;
    for (name, program, workload, sizes, queries) in &cases {
        for &n in sizes {
            let reqs = workload(n);
            let mut machine = DynFoMachine::new(program(), n);
            let us_on = mean_update_seconds(&mut machine, &reqs);
            for _ in 0..QUERY_REPS {
                for (q, args) in queries {
                    machine.query_named(q, args).expect("query");
                }
            }
            let stats = machine.stats();
            let (ops_removed, words_saved) = machine.plan_opt_summary();
            // Named-query plans have compiled lazily by now, so this
            // covers rules + boolean query + named queries.
            let static_on = machine.plan_static_words();
            let r = E24Row {
                kind: "program",
                name: name.to_string(),
                n,
                // Plan-for-plan: the machine's plan set, with the saved
                // words added back for the raw-lowering side.
                kwords_off: static_on + words_saved,
                kwords_on: static_on,
                raw_run: None,
                run_kwords_on: stats.update_work.kernel_words + stats.query_work.kernel_words,
                us_on,
                ops_removed,
                words_saved,
                compose_joins: machine.plan_compose_joins(),
            };
            row(&[
                r.name.clone(),
                n.to_string(),
                r.kwords_off.to_string(),
                r.kwords_on.to_string(),
                format!("{:.1}%", r.saved_pct()),
                format!("{}k", r.run_kwords_on / 1000),
                us(r.us_on),
                r.ops_removed.to_string(),
                r.compose_joins.to_string(),
            ]);
            total_ops_removed += r.ops_removed;
            rows.push(r);
        }
    }

    header("E24 enumerated corpus: static work words and execute latency");
    row(["corpus", "n", "fit/exec", "kw off", "kw on", "saved", "exec us off", "exec us on", "ops rm", "joins"]
        .map(String::from).as_ref());
    let rels: BTreeMap<Sym, usize> =
        [(Sym::new("E"), 2), (Sym::new("M"), 1)].into_iter().collect();
    const CORPUS_CAP: usize = 120;
    // The production compile budget and a decode bound (root table stays
    // enumerable) gate which formulas also get executed for wall-clock.
    const EXEC_WORDS_CAP: u64 = 1 << 22;
    const EXEC_ROOT_BITS_CAP: u64 = 1 << 20;
    for n in [64u32, 256, 1024] {
        let st = synth::random_structure(&rels, n, 4242);
        let s = (n as u64).next_power_of_two();
        let mut kw = [0u64; 2];
        let mut run_kw = [0u64; 2];
        let mut exec_secs = [0f64; 2];
        let mut compiled = 0usize;
        let mut executed = 0usize;
        let mut ops_removed = 0u64;
        let mut compose_joins = 0usize;
        for f in synth::corpus(CORPUS_CAP) {
            let (Some(off), Some(on)) = (
                Plan::compile_with(&f, &st, false),
                Plan::compile_with(&f, &st, true),
            ) else {
                continue;
            };
            compiled += 1;
            kw[0] += off.work_words();
            kw[1] += on.work_words();
            ops_removed += on.opt_ops_removed();
            compose_joins += on.compose_joins();
            let root_bits = s.pow(off.vars().len() as u32);
            if off.work_words() <= EXEC_WORDS_CAP && root_bits <= EXEC_ROOT_BITS_CAP {
                executed += 1;
                for (i, plan) in [&off, &on].into_iter().enumerate() {
                    let mut arena = plan.arena();
                    let mut ev = Evaluator::new(&st, &[]);
                    let (out, secs) = timed(|| plan.execute(&mut ev, &mut arena, None));
                    out.expect("corpus execute");
                    exec_secs[i] += secs;
                    run_kw[i] += ev.stats().kernel_words;
                }
            }
        }
        let us_off = exec_secs[0] / executed.max(1) as f64;
        let r = E24Row {
            kind: "corpus",
            name: format!("corpus[{CORPUS_CAP}]"),
            n,
            kwords_off: kw[0],
            kwords_on: kw[1],
            raw_run: Some((run_kw[0], us_off)),
            run_kwords_on: run_kw[1],
            us_on: exec_secs[1] / executed.max(1) as f64,
            ops_removed,
            words_saved: kw[0].saturating_sub(kw[1]),
            compose_joins,
        };
        row(&[
            r.name.clone(),
            n.to_string(),
            format!("{compiled}/{executed}"),
            format!("{}k", r.kwords_off / 1000),
            format!("{}k", r.kwords_on / 1000),
            format!("{:.1}%", r.saved_pct()),
            us(us_off),
            us(r.us_on),
            r.ops_removed.to_string(),
            r.compose_joins.to_string(),
        ]);
        total_ops_removed += r.ops_removed;
        rows.push(r);
    }

    // Single grep-able line for the CI smoke step: the optimizer must
    // have removed a non-zero number of ops across the suite.
    println!("plan.opt_ops_removed: {total_ops_removed}");

    if EMIT_JSON.load(std::sync::atomic::Ordering::Relaxed) {
        let mut out = String::from("[\n");
        for (i, r) in rows.iter().enumerate() {
            let raw_run = r.raw_run.map_or(String::new(), |(words, secs)| {
                format!("\"run_words_off\": {words}, \"us_off\": {:.1}, ", secs * 1e6)
            });
            out.push_str(&format!(
                "  {{\"kind\": \"{}\", \"name\": \"{}\", \"n\": {}, \"kernel_words_off\": {}, \"kernel_words_on\": {}, \"saved_pct\": {:.1}, {}\"run_words_on\": {}, \"us_on\": {:.1}, \"ops_removed\": {}, \"words_saved\": {}, \"compose_joins\": {}}}{}\n",
                r.kind,
                r.name,
                r.n,
                r.kwords_off,
                r.kwords_on,
                r.saved_pct(),
                raw_run,
                r.run_kwords_on,
                r.us_on * 1e6,
                r.ops_removed,
                r.words_saved,
                r.compose_joins,
                if i + 1 == rows.len() { "" } else { "," }
            ));
        }
        out.push_str("]\n");
        std::fs::write("BENCH_E24.json", &out).expect("write BENCH_E24.json");
        println!("wrote BENCH_E24.json ({} rows)", rows.len());
    }
}

/// One E25 measurement, also emitted to `BENCH_E25.json` under `--json`.
/// `path` records which maintenance route the bulk frame actually took
/// (`one-shot` Δ-fixpoint vs the per-tuple `fallback`), witnessed by the
/// machine's request counter: the one-shot route counts a bulk frame as
/// one request, the fallback as one per expanded tuple.
struct E25Row {
    program: &'static str,
    n: u32,
    delta: &'static str,
    tuples: usize,
    path: &'static str,
    bulk_us: f64,
    /// `expand_bulk` alone: δ and the live-Δ pass, which the bulk frame
    /// pays on either route and the stream does not, plus decoding Δ
    /// into single-tuple requests, which only the stream needs.
    expand_us: f64,
    stream_us: f64,
}

impl E25Row {
    fn speedup(&self) -> f64 {
        if self.bulk_us == 0.0 { 0.0 } else { self.stream_us / self.bulk_us }
    }
}

/// E25 — definable bulk changes: one `bulk_ins` frame vs the expanded
/// single-tuple stream, end to end through `DynFoMachine::apply`.
///
/// Three δ shapes: the chain's first two edges (`pair`, semi programs
/// only — the one-shot's small-Δ price), the Θ(n) successor chain
/// (`path`) and the Θ(n²) full a<b edge set (`subgraph`) — the
/// "generator's whole output in one request" case. The stream side
/// replays exactly what `expand_bulk` returns (the live Δ, sorted),
/// and the bench asserts byte-identical final state before reporting,
/// so every row is also an equivalence check. The semi-dynamic programs take the one-shot
/// Δ-fixpoint (genuinely memoryless, Grow-shaped inserts); fully
/// dynamic REACH_u exercises the per-tuple fallback, which bounds the
/// win at framing/validation overhead rather than asymptotics. Sizes
/// follow the E24 honesty rule: each program runs at the n both sides
/// can afford. The fallback's replay *is* the stream, so REACH_u's
/// cells stay small (its forest maintenance is ~50 ms per tuple at
/// n = 64); the semi programs stop at n = 256 because the raw
/// lowering the optimizer composes the closure's joins from still
/// builds an S³ slot, past the plan slot cap at n = 1024, and the cell
/// would time the interpreter instead of the contribution. The bulk
/// column includes δ's own evaluation, and so does the expand column;
/// the stream column replays the already-expanded Δ and does not. The
/// pair and path rows document where that matters: the chain δ is a
/// fresh S³-shaped plan every request, paid on either route, while a
/// short stream of quantifier-free inserts is cheap, so the one-shot
/// only pays off clearly once |Δ| reaches subgraph scale.
fn e25_bulk_changes() {
    use dynfo_core::program::DynFoProgram;
    use dynfo_logic::formula::{and, forall, lit, lt, not, v, Formula};
    use dynfo_obs::{ObsHandle, Registry};
    use std::sync::Arc;

    header("E25 definable bulk changes: one δ frame vs the expanded tuple stream");
    row(["program", "n", "delta", "tuples", "route", "bulk", "expand", "stream", "speedup"]
        .map(String::from).as_ref());

    /// Θ(n) live tuples: the successor chain `x1 = x0 + 1`.
    fn chain() -> Formula {
        and([
            lt(v("x0"), v("x1")),
            forall(["z"], not(and([lt(v("x0"), v("z")), lt(v("z"), v("x1"))]))),
        ])
    }
    /// Two live tuples: the chain below 3.
    fn pair() -> Formula {
        and([chain(), lt(v("x1"), lit(3))])
    }
    /// Θ(n²) live tuples: every ordered pair a < b.
    fn block() -> Formula {
        lt(v("x0"), v("x1"))
    }

    // One registry across every cell so `machine.bulk_tuples` sums the
    // whole experiment — the CI smoke pins it non-zero.
    let registry = Arc::new(Registry::new());
    let obs = ObsHandle::with_registry(Arc::clone(&registry));

    /// Program, then its n per δ shape: pair, path, subgraph.
    type Case = (&'static str, fn() -> DynFoProgram, [Vec<u32>; 3]);
    let cases: Vec<Case> = vec![
        (
            "semi REACH_u",
            programs::semi::reach_u_program,
            [vec![64, 256], vec![64, 256], vec![64, 256]],
        ),
        (
            "semi REACH",
            programs::semi::reach_program,
            [vec![64, 256], vec![64, 256], vec![64, 256]],
        ),
        (
            "REACH_u",
            programs::reach_u::program,
            [vec![], vec![64], vec![32]],
        ),
    ];

    let mut rows: Vec<E25Row> = Vec::new();
    for (name, program, [pair_sizes, path_sizes, sub_sizes]) in &cases {
        type DeltaCase<'a> = (&'static str, &'a Vec<u32>, fn() -> Formula);
        let deltas: [DeltaCase; 3] = [
            ("pair", pair_sizes, pair),
            ("path", path_sizes, chain),
            ("subgraph", sub_sizes, block),
        ];
        for (delta_kind, sizes, delta) in deltas {
            for &n in sizes {
                let req = Request::bulk_ins("E", delta());
                let mut bulk_m = DynFoMachine::new(program(), n).with_obs(&obs);
                let (_, bulk_secs) = timed(|| bulk_m.apply(&req).expect("bulk apply"));
                let route = if bulk_m.stats().requests == 1 { "one-shot" } else { "fallback" };

                let mut stream_m = DynFoMachine::new(program(), n);
                let (expanded, expand_secs) =
                    timed(|| stream_m.expand_bulk(&req).expect("expand_bulk"));
                let tuples = expanded.len();
                let (_, stream_secs) = timed(|| {
                    for r in &expanded {
                        stream_m.apply(r).expect("stream apply");
                    }
                });
                assert_eq!(
                    bulk_m.state(),
                    stream_m.state(),
                    "{name} n={n} {delta_kind}: bulk state != expanded-stream state"
                );

                let r = E25Row {
                    program: name,
                    n,
                    delta: delta_kind,
                    tuples,
                    path: route,
                    bulk_us: bulk_secs * 1e6,
                    expand_us: expand_secs * 1e6,
                    stream_us: stream_secs * 1e6,
                };
                row(&[
                    r.program.to_string(),
                    n.to_string(),
                    r.delta.to_string(),
                    r.tuples.to_string(),
                    r.path.to_string(),
                    us(bulk_secs),
                    us(expand_secs),
                    us(stream_secs),
                    format!("{:.1}x", r.speedup()),
                ]);
                rows.push(r);
            }
        }
    }

    // Grep-able lines for the CI smoke step: the bulk path must have
    // materialized live Δ tuples, and a Θ(n²) definable insert at
    // n = 256 must beat its tuple stream by an order of magnitude on
    // the one-shot route.
    println!(
        "machine.bulk_tuples: {}",
        registry.counter("machine.bulk_tuples").get()
    );
    let headline = rows
        .iter()
        .filter(|r| r.delta == "subgraph" && r.n == 256 && r.path == "one-shot")
        .map(E25Row::speedup)
        .fold(0.0f64, f64::max);
    println!("bulk.subgraph.n256.speedup: {headline:.1}");

    if EMIT_JSON.load(std::sync::atomic::Ordering::Relaxed) {
        let mut out = String::from("[\n");
        for (i, r) in rows.iter().enumerate() {
            out.push_str(&format!(
                "  {{\"program\": \"{}\", \"n\": {}, \"delta\": \"{}\", \"tuples\": {}, \"path\": \"{}\", \"bulk_us\": {:.1}, \"expand_us\": {:.1}, \"stream_us\": {:.1}, \"speedup\": {:.1}}}{}\n",
                r.program,
                r.n,
                r.delta,
                r.tuples,
                r.path,
                r.bulk_us,
                r.expand_us,
                r.stream_us,
                r.speedup(),
                if i + 1 == rows.len() { "" } else { "," }
            ));
        }
        out.push_str("]\n");
        std::fs::write("BENCH_E25.json", &out).expect("write BENCH_E25.json");
        println!("wrote BENCH_E25.json ({} rows)", rows.len());
    }
}

/// One E26 measurement, also emitted to `BENCH_E26.json` under
/// `--json`. Times are *per edit*, averaged over the cell's edit loop.
struct E26Row {
    workload: &'static str,
    n: usize,
    edits: usize,
    dyn_us: f64,
    rescan_us: f64,
}

impl E26Row {
    fn speedup(&self) -> f64 {
        if self.dyn_us == 0.0 { 0.0 } else { self.rescan_us / self.dyn_us }
    }
}

/// E26 — megabyte-scale dynamic strings: per-edit incremental
/// maintenance ([`DynRegular`] monoid segment tree, [`DynDyck`]
/// irreducible forms) vs the "start over" baseline that rereads the
/// whole buffer (`Dfa::run` replay, `dyck_valid` stack scan) after
/// every edit.
///
/// The native rows carry the update algebra of the FO string programs
/// to editor-buffer scale through the automata structures those
/// programs were compiled from, so the ≥10× claim is about the
/// *maintenance strategy*, not the logic encoding. The `machine` rows
/// are a different system: the Dyn-FO machine running
/// `strings::a_star_b_star_program`, whose |Q|² binary interval tables
/// (n² bits each) are recomposed on the word kernels at every edit —
/// Θ(|Q|²·n²/64) words, so they stop at n = 1 024. Each cell also
/// cross-checks the dynamic answer against its rescan oracle at the
/// end — a divergence fails the run, so the table doubles as a
/// megabyte-scale differential test.
fn e26_megabyte_strings() {
    use dynfo_automata::dyck::{dyck_valid, DynDyck, Paren};
    use dynfo_automata::dyntree::DynRegular;
    use dynfo_automata::{dfa, Dfa};

    header("E26 megabyte-scale strings: per-edit maintenance vs full recompute");
    row(["workload", "n", "edits", "per-edit dyn", "per-edit rescan", "speedup"]
        .map(String::from).as_ref());

    const EDITS: usize = 200;
    let mut rows: Vec<E26Row> = Vec::new();

    fn regular_cell(name: &'static str, dfa: Dfa, n: usize) -> E26Row {
        const EDITS: usize = 200;
        let mut dynr = DynRegular::new(dfa.clone(), n);
        let mut shadow: Vec<Option<usize>> = vec![None; n];
        // Pre-fill ~2/3 of the buffer deterministically.
        for (i, slot) in shadow.iter_mut().enumerate() {
            if i % 3 != 0 {
                let sym = (i.wrapping_mul(2654435761) >> 3) % 2;
                dynr.set(i, Some(sym));
                *slot = Some(sym);
            }
        }
        // Deterministic edit sequence, replayed identically by both
        // strategies so each rescan sees the same evolving buffer the
        // tree maintains.
        let edit = |e: usize, pos: &mut usize| {
            *pos = pos.wrapping_mul(2654435761).wrapping_add(17) % n;
            let sym = if (e + *pos).is_multiple_of(5) { None } else { Some((e + *pos) % 2) };
            (*pos, sym)
        };
        let mut pos = 1usize;
        let (_, dyn_secs) = timed(|| {
            for e in 0..EDITS {
                let (p, sym) = edit(e, &mut pos);
                dynr.set(p, sym);
                shadow[p] = sym;
                std::hint::black_box(dynr.accepted());
            }
        });
        let mut rescan_shadow = shadow.clone();
        let mut pos = 1usize;
        let (_, rescan_secs) = timed(|| {
            for e in 0..EDITS {
                let (p, sym) = edit(e, &mut pos);
                rescan_shadow[p] = sym;
                let q = dfa.run(rescan_shadow.iter().flatten().copied());
                std::hint::black_box(dfa.is_accepting(q));
            }
        });
        assert_eq!(
            dynr.accepted(),
            dfa.is_accepting(dfa.run(shadow.iter().flatten().copied())),
            "{name} n={n}: dynamic answer diverged from the rescan oracle"
        );
        E26Row {
            workload: name,
            n,
            edits: EDITS,
            dyn_us: dyn_secs * 1e6 / EDITS as f64,
            rescan_us: rescan_secs * 1e6 / EDITS as f64,
        }
    }

    // The Dyn-FO machine from an empty buffer (pre-filling it would cost
    // as many machine edits), with the edit sequence of `regular_cell`.
    fn machine_cell(n: usize) -> E26Row {
        const EDITS: usize = 100;
        let dfa = dfa::a_star_b_star();
        let alphabet = dfa.alphabet().to_vec();
        let mut m = DynFoMachine::new(programs::strings::a_star_b_star_program(), n as u32);
        let mut shadow: Vec<Option<char>> = vec![None; n];
        let edit = |e: usize, pos: &mut usize| {
            *pos = pos.wrapping_mul(2654435761).wrapping_add(17) % n;
            let sym = if (e + *pos).is_multiple_of(5) { None } else { Some(alphabet[(e + *pos) % 2]) };
            (*pos, sym)
        };
        let accepts = |buf: &[Option<char>]| {
            dfa.is_accepting(dfa.run(buf.iter().flatten().filter_map(|&c| dfa.symbol(c))))
        };
        let mut pos = 1usize;
        let (_, dyn_secs) = timed(|| {
            for e in 0..EDITS {
                let (p, sym) = edit(e, &mut pos);
                if let Some(req) = programs::strings::set_request(p as u32, sym, shadow[p]) {
                    m.apply(&req).expect("string edit");
                }
                shadow[p] = sym;
                std::hint::black_box(m.query().expect("string query"));
            }
        });
        let mut rescan_shadow = vec![None; n];
        let mut pos = 1usize;
        let (_, rescan_secs) = timed(|| {
            for e in 0..EDITS {
                let (p, sym) = edit(e, &mut pos);
                rescan_shadow[p] = sym;
                std::hint::black_box(accepts(&rescan_shadow));
            }
        });
        assert_eq!(
            m.query().expect("string query"),
            accepts(&shadow),
            "machine a*b* n={n}: answer diverged from the rescan oracle"
        );
        let work = m.stats().update_work;
        assert_eq!(work.plan_fallback, 0, "machine a*b* n={n}: a rule interpreted");
        E26Row {
            workload: "machine a*b* (Dyn-FO program)",
            n,
            edits: EDITS,
            dyn_us: dyn_secs * 1e6 / EDITS as f64,
            rescan_us: rescan_secs * 1e6 / EDITS as f64,
        }
    }

    for n in [256, 1024] {
        rows.push(machine_cell(n));
    }

    for exp in [16u32, 18, 20] {
        let n = 1usize << exp;
        rows.push(regular_cell(
            "regular count_mod(a,3,1)",
            dfa::count_mod(&['a', 'b'], 'a', 3, 1),
            n,
        ));
        rows.push(regular_cell(
            "regular contains(abba)",
            dfa::contains_substring(&['a', 'b'], "abba"),
            n,
        ));

        // Dyck-2: start from a fully balanced buffer, then rewrite
        // random *pairs* (retype or clear both slots) so the buffer
        // stays balanced — otherwise the stack scan would early-exit at
        // the first broken position and the baseline would be measuring
        // the edit's offset, not the scan.
        let mut d = DynDyck::new(2, n);
        let mut shadow: Vec<Option<Paren>> = vec![None; n];
        for i in 0..n / 2 {
            let ty = (i % 2) as u8;
            d.set(2 * i, Some(Paren::open(ty)));
            d.set(2 * i + 1, Some(Paren::close(ty)));
            shadow[2 * i] = Some(Paren::open(ty));
            shadow[2 * i + 1] = Some(Paren::close(ty));
        }
        let edit = |e: usize, pair: &mut usize| {
            *pair = pair.wrapping_mul(2654435761).wrapping_add(29) % (n / 2);
            let slot = if (e + *pair).is_multiple_of(5) {
                (None, None)
            } else {
                let ty = ((e + *pair) % 2) as u8;
                (Some(Paren::open(ty)), Some(Paren::close(ty)))
            };
            (2 * *pair, slot)
        };
        let mut pair = 1usize;
        let (_, dyn_secs) = timed(|| {
            for e in 0..EDITS {
                let (p, (open, close)) = edit(e, &mut pair);
                d.set(p, open);
                d.set(p + 1, close);
                shadow[p] = open;
                shadow[p + 1] = close;
                std::hint::black_box(d.balanced());
            }
        });
        let mut rescan_shadow = shadow.clone();
        let mut pair = 1usize;
        let (_, rescan_secs) = timed(|| {
            for e in 0..EDITS {
                let (p, (open, close)) = edit(e, &mut pair);
                rescan_shadow[p] = open;
                rescan_shadow[p + 1] = close;
                std::hint::black_box(dyck_valid(&rescan_shadow));
            }
        });
        assert_eq!(
            d.balanced(),
            dyck_valid(&shadow),
            "dyck k=2 n={n}: dynamic answer diverged from the stack oracle"
        );
        rows.push(E26Row {
            workload: "dyck k=2",
            n,
            edits: EDITS,
            dyn_us: dyn_secs * 1e6 / EDITS as f64,
            rescan_us: rescan_secs * 1e6 / EDITS as f64,
        });
    }

    for r in &rows {
        row(&[
            r.workload.to_string(),
            r.n.to_string(),
            r.edits.to_string(),
            format!("{:.2}", r.dyn_us),
            format!("{:.1}", r.rescan_us),
            format!("{:.1}x", r.speedup()),
        ]);
    }

    // Grep-able headline for the CI smoke step: at the megabyte point
    // (n = 2²⁰ = 1 MiB buffer) every workload's per-edit maintenance
    // must beat the full recompute by at least an order of magnitude.
    let megabyte = rows
        .iter()
        .filter(|r| r.n == 1 << 20)
        .map(E26Row::speedup)
        .fold(f64::INFINITY, f64::min);
    println!("e26.megabyte.min_speedup: {megabyte:.1}");

    if EMIT_JSON.load(std::sync::atomic::Ordering::Relaxed) {
        let mut out = String::from("[\n");
        for (i, r) in rows.iter().enumerate() {
            out.push_str(&format!(
                "  {{\"workload\": \"{}\", \"n\": {}, \"edits\": {}, \"dyn_us\": {:.2}, \"rescan_us\": {:.1}, \"speedup\": {:.1}}}{}\n",
                r.workload,
                r.n,
                r.edits,
                r.dyn_us,
                r.rescan_us,
                r.speedup(),
                if i + 1 == rows.len() { "" } else { "," }
            ));
        }
        out.push_str("]\n");
        std::fs::write("BENCH_E26.json", &out).expect("write BENCH_E26.json");
        println!("wrote BENCH_E26.json ({} rows)", rows.len());
    }
}
