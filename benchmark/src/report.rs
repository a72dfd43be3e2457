//! `run`: every workload in its own child process, every metric printed
//! by name and unit, one result file. `check`: two result files against
//! the catalog's bounds.

use crate::catalog::{self, Better, Metric};
use crate::harness::{self, DataDir};
use crate::json::{number_map, Json};
use crate::stats::{self, spread};
use crate::Args;
use std::collections::BTreeMap;
use std::io::Write;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// What the numbers in a result file depend on besides the code.
fn environment() -> Json {
    let dir = DataDir::new("probe");
    let absolute = dir
        .path()
        .canonicalize()
        .unwrap_or_else(|_| dir.path().to_path_buf());
    // The mount whose path is the longest prefix of the data directory.
    let filesystem = std::fs::read_to_string("/proc/mounts")
        .unwrap_or_default()
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, kind) = (fields.next()?, fields.next()?, fields.next()?);
            absolute
                .starts_with(mount)
                .then(|| (mount.len(), kind.to_string()))
        })
        .max()
        .map_or("unknown".to_string(), |(_, kind)| kind);

    // 32 appends of 4 KiB, each followed by `sync_data`, as the journal
    // does it.
    let mut fsync_us = Vec::new();
    if let Ok(mut file) = std::fs::File::create(dir.path().join("probe")) {
        for _ in 0..32 {
            let start = Instant::now();
            if file
                .write_all(&[0u8; 4096])
                .and_then(|()| file.sync_data())
                .is_ok()
            {
                fsync_us.push(start.elapsed().as_secs_f64() * 1e6);
            }
        }
    }
    let fsync_us = stats::sorted(fsync_us);
    Json::obj([
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("data_dir_filesystem", Json::Str(filesystem)),
        ("fsync_probe_samples", Json::Num(fsync_us.len() as f64)),
        (
            "fsync_probe_p50_us",
            Json::Num(stats::percentile(&fsync_us, stats::P50)),
        ),
        (
            "fsync_probe_p90_us",
            Json::Num(stats::percentile(&fsync_us, 900)),
        ),
        ("os", Json::str(std::env::consts::OS)),
        ("arch", Json::str(std::env::consts::ARCH)),
    ])
}

/// Run one workload in a child process and parse its result line.
fn child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if traced { "1" } else { "0" },
        ])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("the child printed nothing")?;
    let result = Json::parse(last).map_err(|e| format!("bad result line: {e}"))?;
    if !output.status.success() || result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{workload} seed {seed}: incorrect run: {last}"));
    }
    Ok(result)
}

pub fn run(args: &[String]) -> Option<ExitCode> {
    let args = Args::parse(args, &["quick"])?;
    let quick = args.get::<u8>("quick").is_some();
    let seed = args.get::<u64>("seed").unwrap_or(1);
    let seconds = args.get::<f64>("seconds").unwrap_or(if quick {
        1.0
    } else {
        catalog::RUN_SECONDS as f64
    });
    let repeats = args.get::<u64>("repeats").unwrap_or(1).max(1);
    let label = args
        .get::<String>("label")
        .unwrap_or(if quick { "quick" } else { "latest" }.into());
    let chosen: Vec<&str> = if args.words.is_empty() {
        catalog::WORKLOADS.iter().map(|w| w.name).collect()
    } else {
        args.words.iter().map(String::as_str).collect()
    };
    if chosen.iter().any(|w| catalog::workload(w).is_none()) {
        return None;
    }

    let mut failures = Vec::new();
    let mut workloads = Vec::new();
    for &workload in &chosen {
        println!("\n== {workload}: {}", catalog::workload(workload)?.why);
        let mut end_to_end: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let (mut attempted, mut failed) = (0.0, 0.0);
        let mut tally = |result: &Json| {
            attempted += result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
        };
        for repeat in 0..repeats {
            match child(workload, seed + repeat, seconds, false) {
                Ok(result) => {
                    tally(&result);
                    for (name, value) in number_map(result.get("metrics")?) {
                        end_to_end.entry(name).or_default().push(value);
                    }
                }
                Err(e) => failures.push(e),
            }
        }
        let per_layer = match child(workload, seed, seconds, true) {
            Ok(result) => {
                tally(&result);
                number_map(result.get("metrics")?)
            }
            Err(e) => {
                failures.push(e);
                BTreeMap::new()
            }
        };
        for m in &catalog::END_TO_END {
            let values = end_to_end.get(m.name).map_or(&[][..], Vec::as_slice);
            let spread =
                spread(values).map_or(String::new(), |s| format!("  spread {:.1}%", s * 100.0));
            println!(
                "  {:<34} {:>16.4} {}{spread}",
                m.name,
                stats::median(values),
                m.unit
            );
        }
        for m in &catalog::PER_LAYER {
            let value = per_layer.get(m.name).copied().unwrap_or(0.0);
            println!("  {:<34} {:>16.4} {}", m.name, value, m.unit);
        }
        println!("  attempted {attempted}  failed {failed}");
        workloads.push((
            workload,
            Json::obj([
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                (
                    "end_to_end",
                    Json::obj(end_to_end.into_iter().map(|(name, values)| {
                        (name, Json::Arr(values.into_iter().map(Json::Num).collect()))
                    })),
                ),
                (
                    "per_layer",
                    Json::obj(per_layer.into_iter().map(|(k, v)| (k, Json::Num(v)))),
                ),
            ]),
        ));
    }

    let file = Json::obj([
        ("label", Json::str(label.as_str())),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("repeats", Json::Num(repeats as f64)),
        ("environment", environment()),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = harness::home()
        .join("results")
        .join(format!("{label}.json"));
    let written =
        std::fs::create_dir_all(path.parent()?).and_then(|()| std::fs::write(&path, file.pretty()));
    match written {
        Ok(()) => println!("\nwrote {}", path.display()),
        Err(e) => failures.push(format!("could not write {}: {e}", path.display())),
    }
    for failure in &failures {
        eprintln!("FAILED: {failure}");
    }
    Some(if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[derive(PartialEq, Debug)]
enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// Judge `b` against `a` for a bounded metric: worse if `b`'s median is
/// on the wrong side of `a`'s by more than the bound; unresolved if
/// either side's own spread is wider than the bound (then a difference
/// of that size means nothing).
fn judge(m: &Metric, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    let worsening = if m.better == Better::Lower {
        change
    } else {
        -change
    };
    let noisy = [a, b].iter().any(|v| spread(v).is_some_and(|s| s > bound));
    if noisy {
        Verdict::Unresolved
    } else if worsening > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

/// Every workload's metric values in a result file: end-to-end metrics
/// as lists, per-layer metrics as one-element lists.
fn values_of(file: &Json) -> BTreeMap<(String, String), Vec<f64>> {
    let mut out = BTreeMap::new();
    for (workload, body) in file.get("workloads").map_or(&[][..], Json::fields) {
        for (name, values) in body.get("end_to_end").map_or(&[][..], Json::fields) {
            let values = values.as_arr().iter().filter_map(Json::as_f64).collect();
            out.insert((workload.clone(), name.clone()), values);
        }
        for (name, value) in body.get("per_layer").map_or(&[][..], Json::fields) {
            out.insert(
                (workload.clone(), name.clone()),
                value.as_f64().into_iter().collect(),
            );
        }
    }
    out
}

pub fn check(args: &[String]) -> Option<ExitCode> {
    let [a_path, b_path] = args else { return None };
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a_file, b_file) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return Some(ExitCode::FAILURE);
        }
    };
    let same_seed = a_file.get("seed") == b_file.get("seed");
    let (a, b) = (values_of(&a_file), values_of(&b_file));
    let (mut worse, mut unresolved) = (0, 0);
    println!(
        "{:<14} {:<34} {:>14} {:>14} {:>8}  verdict",
        "workload", "metric", "a", "b", "change"
    );
    for ((workload, name), a_values) in &a {
        let (Some(m), Some(b_values)) = (
            catalog::metric(name),
            b.get(&(workload.clone(), name.clone())),
        ) else {
            continue;
        };
        let (ma, mb) = (stats::median(a_values), stats::median(b_values));
        let single_threaded = workload.starts_with("embed_");
        if ma == 0.0 && mb == 0.0 {
            continue; // does not apply to this workload
        }
        let verdict = if let Some(bound) = m.bound {
            let verdict = judge(m, bound, a_values, b_values);
            format!("{verdict:?}").to_lowercase()
        } else if m.exact && same_seed && (single_threaded || name == "serve.fsyncs_per_update") {
            if ma == mb {
                "ok (exact)".to_string()
            } else {
                "worse (count moved)".to_string()
            }
        } else {
            continue;
        };
        worse += verdict.starts_with("worse") as u32;
        unresolved += verdict.starts_with("unresolved") as u32;
        let change = if ma == 0.0 {
            0.0
        } else {
            (mb - ma) / ma.abs() * 100.0
        };
        println!("{workload:<14} {name:<34} {ma:>14.4} {mb:>14.4} {change:>+7.1}%  {verdict}");
    }
    if !same_seed {
        println!("seeds differ: exact count metrics not compared");
    }
    println!("{worse} worse, {unresolved} unresolved");
    Some(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_applies_bound_direction_and_spread() {
        let lower = catalog::metric("update_p50_us").unwrap();
        let higher = catalog::metric("updates_per_s").unwrap();
        let flat = |v: f64| vec![v, v * 1.01, v * 0.99, v];
        assert_eq!(judge(lower, 0.1, &flat(100.0), &flat(105.0)), Verdict::Ok);
        assert_eq!(
            judge(lower, 0.1, &flat(100.0), &flat(115.0)),
            Verdict::Worse
        );
        assert_eq!(judge(lower, 0.1, &flat(100.0), &flat(50.0)), Verdict::Ok);
        assert_eq!(
            judge(higher, 0.1, &flat(100.0), &flat(85.0)),
            Verdict::Worse
        );
        assert_eq!(judge(higher, 0.1, &flat(100.0), &flat(150.0)), Verdict::Ok);
        // A side whose own quartiles are further apart than the bound
        // cannot resolve a change of that size.
        let noisy = vec![80.0, 100.0, 120.0, 90.0, 110.0];
        assert_eq!(judge(lower, 0.1, &noisy, &flat(150.0)), Verdict::Unresolved);
        // A single run has no spread to object to.
        assert_eq!(judge(lower, 0.1, &[100.0], &[120.0]), Verdict::Worse);
    }

    #[test]
    fn result_files_flatten_to_comparable_values() {
        let file = Json::parse(
            r#"{"seed": 1, "workloads": {"embed_plans": {
                "end_to_end": {"setup_s": [0.5, 0.6]},
                "per_layer": {"logic.kernel_words_per_update": 50472}}}}"#,
        )
        .unwrap();
        let values = values_of(&file);
        assert_eq!(
            values[&("embed_plans".into(), "setup_s".into())],
            [0.5, 0.6]
        );
        assert_eq!(
            values[&("embed_plans".into(), "logic.kernel_words_per_update".into())],
            [50472.0]
        );
    }
}
