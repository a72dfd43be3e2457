//! Per-rule wall-clock breakdown of the REACH_u FO update stream — the
//! diagnostic behind the E02 numbers. Prints where each millisecond of
//! `fo_update` goes (which rule, which request kind).

use dynfo_bench::undirected_workload;
use dynfo_core::machine::DynFoMachine;
use dynfo_core::programs::reach_u;
use dynfo_core::request::Request;
use std::collections::BTreeMap;
use std::time::Instant;

fn main() {
    let n: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    let reqs = undirected_workload(n, 20, 11);
    // Warm up (build, page in).
    let mut m = DynFoMachine::new(reach_u::program(), n);
    for r in &reqs {
        m.apply(r).unwrap();
    }

    let mut per_kind: BTreeMap<&'static str, (u32, f64)> = BTreeMap::new();
    let runs = 20;
    let t0 = Instant::now();
    for _ in 0..runs {
        let mut m = DynFoMachine::new(reach_u::program(), n);
        for r in &reqs {
            let kind = match r {
                Request::Ins(..) => "ins",
                Request::Del(..) => "del",
                _ => "set",
            };
            let t = Instant::now();
            m.apply(r).unwrap();
            let e = per_kind.entry(kind).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += t.elapsed().as_secs_f64() * 1e3;
        }
    }
    let total = t0.elapsed().as_secs_f64() * 1e3 / runs as f64;
    println!("n={n}: {total:.2} ms per {}-request stream", reqs.len());
    for (kind, (count, ms)) in &per_kind {
        println!(
            "  {kind}: {:.3} ms/request ({} requests)",
            ms / *count as f64,
            count / runs
        );
    }
    let mut m2 = DynFoMachine::new(reach_u::program(), n);
    for r in &reqs {
        m2.apply(r).unwrap();
    }
    println!("stats: {:?}", m2.stats());
}
