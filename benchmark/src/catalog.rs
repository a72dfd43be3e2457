//! The benchmark's contract: workloads, metrics, units, directions and
//! regression bounds. `BENCHMARK.json` at the repository root is this
//! table rendered (`manifest` prints it; a test holds them equal), so
//! the numbers `check` judges by and the numbers the driver judges by
//! cannot drift apart.

use crate::json::Json;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "embed_interp",
        why: "bare machine, REACH_u n=32: Theorem 4.1's guarded rules stay on the interpreter and the subformula cache; kernels idle",
    },
    Workload {
        name: "embed_plans",
        why: "bare machine, REACH(acyclic) n=64: every rule is a compiled plan on the word kernels; the interpreter idles - the mirror of embed_interp",
    },
    Workload {
        name: "embed_bulk",
        why: "fresh semi REACH_u n=128 per round, one bulk_ins (chain:block 3:1): run-time closure compilation and the one-shot/fallback routing decision",
    },
    Workload {
        name: "served_mixed",
        why: "TCP, one session: a writer (fsync per write) beside a reader on the same session lock; shows the read path waiting on writes",
    },
    Workload {
        name: "served_ingest",
        why: "TCP, two writers on one session, then read-back, crash and recovery: commit path, checkpoints, and the uncontended read floor",
    },
];

#[derive(Clone, Copy, PartialEq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    /// The driver enforces it for end-to-end metrics; `check` also for
    /// the per-layer metrics that carry one.
    pub bound: Option<f64>,
    /// A count that must repeat exactly for one seed (checked by
    /// `check` on the single-threaded workloads).
    pub exact: bool,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        exact: false,
    }
}

const fn count(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
        exact: true,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one of
/// them, and none is ever 0.
///
/// A bound is per metric, so the least steady workload sets it. On the
/// shared 2-core reference VM the fsync-bound served workloads spread
/// 5–12% between runs and drift more than that between half-hours
/// (the embedded workloads: 1.5–7%), which puts every timing at the
/// contract's ceiling of 0.25; `check` judges spread per workload, so
/// there a tight workload still resolves a small change.
pub const END_TO_END: [Metric; 6] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("updates_per_s", "1/s", Higher, 0.25),
    e2e("update_p50_us", "us", Lower, 0.25),
    e2e("queries_per_s", "1/s", Higher, 0.25),
    e2e("query_p50_us", "us", Lower, 0.25),
    e2e("peak_rss_mb", "MB", Lower, 0.10),
];

/// Single layers (layers = crates), from the traced run. A metric that
/// does not apply to a workload reads 0.
pub const PER_LAYER: [Metric; 48] = [
    // logic: interpreter, cache, plans, kernels.
    count("logic.interp_rows_per_update", "count", Lower),
    layer("logic.cache_hit_ratio", "ratio", Higher),
    count("logic.kernel_words_per_update", "count", Lower),
    count("logic.plan_compiled_per_update", "count", Higher),
    layer("logic.plan_fallback_share", "ratio", Lower),
    layer("logic.probe_plan_exec_us", "us", Lower),
    layer("logic.probe_interp_eval_us", "us", Lower),
    // core: the machine around the evaluator.
    layer("core.apply_us_mean", "us", Lower),
    layer("core.rule_eval_us_mean", "us", Lower),
    layer("core.self_us_mean", "us", Lower),
    layer("core.install_unchanged_share", "ratio", Lower),
    layer("core.guard_noop_share", "ratio", Higher),
    layer("core.query_us_mean", "us", Lower),
    layer("core.bulk_one_shot_share", "ratio", Higher),
    layer("core.bulk_chain_ms_p50", "ms", Lower),
    layer("core.bulk_block_ms_p50", "ms", Lower),
    count("core.bulk_tuples_per_update", "count", Higher),
    // serve: session lock, journal, snapshots, recovery.
    layer("serve.apply_us_mean", "us", Lower),
    layer("serve.self_us_mean", "us", Lower),
    layer("serve.fsync_us_mean", "us", Lower),
    count("serve.fsyncs_per_update", "count", Lower),
    layer("serve.append_us_mean", "us", Lower),
    layer("serve.snapshot_ms_mean", "ms", Lower),
    layer("serve.snapshots", "count", Lower),
    layer("serve.unexplained_share", "ratio", Lower),
    layer("serve.query_us_mean", "us", Lower),
    layer("serve.query_wait_us_mean", "us", Lower),
    layer("serve.recovery_replayed", "count", Lower),
    layer("serve.recovery_rung", "count", Lower),
    Metric {
        name: "serve.recovery_ms",
        unit: "ms",
        better: Lower,
        bound: Some(0.10),
        exact: false,
    },
    Metric {
        name: "serve.disk_bytes_per_update",
        unit: "B",
        better: Lower,
        bound: Some(0.02),
        exact: false,
    },
    // net: the wire.
    layer("net.update_us_mean", "us", Lower),
    layer("net.update_overhead_us", "us", Lower),
    layer("net.query_us_mean", "us", Lower),
    layer("net.query_overhead_us", "us", Lower),
    layer("net.ping_us_p50", "us", Lower),
    layer("net.encode_us_mean", "us", Lower),
    layer("net.decode_us_mean", "us", Lower),
    layer("net.bytes_per_update", "B", Lower),
    layer("net.overloaded", "count", Lower),
    layer("net.errors", "count", Lower),
    // client: exact tails (fsync-shaped on served workloads, so not
    // gated) and the sample counts behind every percentile.
    layer("client.update_tail_us", "us", Lower),
    layer("client.update_tail_pct", "%", Higher),
    layer("client.query_tail_us", "us", Lower),
    layer("client.query_tail_pct", "%", Higher),
    layer("client.update_samples", "count", Higher),
    layer("client.query_samples", "count", Higher),
    // obs: what the traced run itself cost.
    layer("obs.trace_overhead_share", "ratio", Lower),
];

pub const RUN_SECONDS: u32 = 12;

pub const COMMAND: [&str; 7] = [
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

fn better_str(b: Better) -> &'static str {
    match b {
        Lower => "lower",
        Higher => "higher",
    }
}

/// `BENCHMARK.json`, exactly the keys the driver's contract names.
pub fn manifest() -> Json {
    let metric_json = |m: &Metric, with_bound: bool| {
        let mut fields = vec![
            ("name", Json::str(m.name)),
            ("unit", Json::str(m.unit)),
            ("better", Json::str(better_str(m.better))),
        ];
        if with_bound {
            fields.push((
                "bound",
                Json::Num(m.bound.expect("end-to-end metrics carry a bound")),
            ));
        }
        Json::obj(fields)
    };
    Json::obj([
        (
            "command",
            Json::Arr(COMMAND.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(|m| metric_json(m, true)).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| metric_json(m, false)).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_this_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            Json::parse(&on_disk).expect("valid JSON"),
            manifest(),
            "regenerate with: cargo run --release --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn the_catalog_fits_the_drivers_limits() {
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name) && names.insert(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: {}",
                w.name,
                w.why.len()
            );
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}: unit {}", m.name, m.unit);
        }
        for m in &END_TO_END {
            assert!(m.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", m.name);
        }
        let setup = metric("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(COMMAND.len() <= 32 && manifest().pretty().len() <= 64 * 1024);
    }
}
