//! The repository's benchmark. See `README.md` beside this crate for
//! the workloads, the metrics and how they interact.
//!
//! ```text
//! dynfo-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! dynfo-benchmark run [--seed n] [--seconds s] [--repeats r] [--quick] [--label l] [workload…]
//! dynfo-benchmark check <a.json> <b.json>
//! dynfo-benchmark manifest
//! ```
//!
//! The first form is what `BENCHMARK.json` names: one workload, one
//! process, the result as one JSON object on the last line of stdout.
//! `run` starts that form once per workload and repeat (each in its own
//! child process), prints every metric, and writes
//! `benchmark/results/<label>.json`; `check` compares two such files
//! against the catalog's bounds.

mod bulk;
mod catalog;
mod embedded;
mod gen;
mod harness;
mod json;
mod ladder;
mod report;
mod served;
mod stats;
mod trace;
mod workloads;

use json::Json;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  dynfo-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>\n  \
         dynfo-benchmark run [--seed n] [--seconds s] [--repeats r] [--quick] [--label l] [workload…]\n  \
         dynfo-benchmark check <a.json> <b.json>\n  dynfo-benchmark manifest\nworkloads: {}",
        catalog::WORKLOADS.map(|w| w.name).join(" ")
    );
    ExitCode::from(2)
}

/// `--flag value` pairs and bare words, in order.
pub(crate) struct Args {
    pub(crate) flags: Vec<(String, String)>,
    pub(crate) words: Vec<String>,
}

impl Args {
    /// `switches` are the flags that take no value.
    pub(crate) fn parse(args: &[String], switches: &[&str]) -> Option<Args> {
        let mut parsed = Args {
            flags: Vec::new(),
            words: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.strip_prefix("--") {
                Some(flag) if switches.contains(&flag) => {
                    parsed.flags.push((flag.to_string(), "1".to_string()))
                }
                Some(flag) => parsed.flags.push((flag.to_string(), it.next()?.clone())),
                None => parsed.words.push(arg.clone()),
            }
        }
        Some(parsed)
    }

    pub(crate) fn get<T: std::str::FromStr>(&self, flag: &str) -> Option<T> {
        self.flags
            .iter()
            .rev()
            .find(|(f, _)| f == flag)?
            .1
            .parse()
            .ok()
    }
}

/// The driver's form: run one workload in this process.
fn one_workload(args: &[String]) -> ExitCode {
    let Some(args) = Args::parse(args, &[]) else {
        return usage();
    };
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        args.get::<String>("workload"),
        args.get::<u64>("seed"),
        args.get::<f64>("seconds"),
        args.get::<u8>("trace"),
    ) else {
        return usage();
    };
    if catalog::workload(&workload).is_none()
        || seconds.is_nan()
        || seconds <= 0.0
        || trace > 1
        || !args.words.is_empty()
    {
        return usage();
    }
    let traced = trace == 1;
    let outcome = workloads::run(&workload, seed, seconds, traced);
    let correct = outcome.failed == 0;
    let wanted: &[catalog::Metric] = if traced {
        &catalog::PER_LAYER
    } else {
        &catalog::END_TO_END
    };

    println!("{workload} seed={seed} seconds={seconds} trace={trace}");
    for m in wanted {
        let value = outcome.metrics.get(m.name).copied().unwrap_or(0.0);
        println!("  {:<34} {:>16.4} {}", m.name, value, m.unit);
    }
    println!(
        "  attempted {}  failed {}",
        outcome.attempted, outcome.failed
    );
    if traced {
        let path = harness::home()
            .join("results")
            .join(format!("{workload}-seed{seed}.trace.jsonl"));
        match trace::write_jsonl(&path, &outcome.traces) {
            Ok(()) => println!(
                "  {} spans -> {} (benchmark's own share of a request: {:.2} us)",
                outcome
                    .traces
                    .iter()
                    .map(|t| t.spans().len())
                    .sum::<usize>(),
                path.display(),
                workloads::harness_self_us(&outcome.traces)
            ),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    let metrics = Json::obj(wanted.iter().map(|m| {
        let value = outcome.metrics.get(m.name).copied().unwrap_or(0.0);
        (
            m.name,
            Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
        )
    }));
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => report::run(&args[1..]).unwrap_or_else(usage),
        Some("check") => report::check(&args[1..]).unwrap_or_else(usage),
        Some("manifest") => {
            print!("{}", catalog::manifest().pretty());
            ExitCode::SUCCESS
        }
        Some(flag) if flag.starts_with("--") => one_workload(&args),
        _ => usage(),
    }
}
