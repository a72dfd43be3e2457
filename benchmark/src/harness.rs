//! What every workload shares: latency samples, counter snapshots of
//! the program's own `dynfo-obs` registries, data directories, and the
//! process-level readings.

use crate::stats;
use crate::trace::Trace;
use dynfo_obs::{Metric, Registry};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// What one client thread saw during one measured phase.
#[derive(Default)]
pub struct Samples {
    /// Latency of every acknowledged update, µs. A failed operation has
    /// no latency sample.
    pub updates: Vec<f64>,
    /// Latency of every correctly answered query, µs.
    pub queries: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Writes shed with a typed `Overloaded` (also counted in `failed`).
    pub overloaded: u64,
    /// `VmHWM` when this thread's update count reached its `rss_at`.
    pub peak_rss_mb: Option<f64>,
}

impl Samples {
    /// Record an acknowledged update. Peak memory is read at a fixed
    /// update count, not at the end of the run: the run is timed, so a
    /// faster program would hold more latency samples by the end and
    /// read as using more memory.
    pub fn update(&mut self, us: f64, rss_at: usize) {
        self.updates.push(us);
        if self.updates.len() == rss_at {
            self.peak_rss_mb = Some(peak_rss_mb());
        }
    }
}

/// One measured phase: a workload on one rung of the ladder, traced or
/// not.
#[derive(Default)]
pub struct Phase {
    pub threads: Vec<Samples>,
    pub traces: Vec<Trace>,
    /// The program's counters over the measured section.
    pub counters: Counters,
}

impl Phase {
    fn all(&self, pick: impl Fn(&Samples) -> &Vec<f64>) -> Vec<f64> {
        stats::sorted(
            self.threads
                .iter()
                .flat_map(|t| pick(t).iter().copied())
                .collect(),
        )
    }

    /// Every update latency, ascending.
    pub fn updates(&self) -> Vec<f64> {
        self.all(|t| &t.updates)
    }

    pub fn queries(&self) -> Vec<f64> {
        self.all(|t| &t.queries)
    }

    /// Mean and count over every client's samples (no sorting).
    fn mean_and_count(&self, pick: impl Fn(&Samples) -> &Vec<f64>) -> (f64, f64) {
        let count: usize = self.threads.iter().map(|t| pick(t).len()).sum();
        let sum: f64 = self.threads.iter().flat_map(&pick).sum();
        (ratio(sum, count as f64), count as f64)
    }

    pub fn update_mean_us(&self) -> f64 {
        self.mean_and_count(|t| &t.updates).0
    }

    pub fn query_mean_us(&self) -> f64 {
        self.mean_and_count(|t| &t.queries).0
    }

    pub fn update_count(&self) -> f64 {
        self.mean_and_count(|t| &t.updates).1
    }

    /// Closed-loop throughput, summed over clients; see [`block_rate`].
    fn rate(&self, pick: impl Fn(&Samples) -> &Vec<f64>, grain: usize) -> f64 {
        self.threads
            .iter()
            .map(|t| block_rate(pick(t), grain))
            .sum()
    }

    /// Median latency, averaged over the clients that have samples; see
    /// [`block_median`].
    fn p50(&self, pick: impl Fn(&Samples) -> &Vec<f64>, grain: usize) -> f64 {
        let per_client: Vec<f64> = self
            .threads
            .iter()
            .map(&pick)
            .filter(|lat| !lat.is_empty())
            .map(|lat| block_median(lat, grain))
            .collect();
        stats::mean(&per_client)
    }

    pub fn update_p50_us(&self) -> f64 {
        self.p50(|t| &t.updates, UPDATE_GRAIN)
    }

    pub fn query_p50_us(&self) -> f64 {
        self.p50(|t| &t.queries, QUERY_GRAIN)
    }

    /// Peak memory at the first client's fixed update count (now, if
    /// the run ended before reaching it).
    pub fn peak_rss_mb(&self) -> f64 {
        self.threads
            .first()
            .and_then(|t| t.peak_rss_mb)
            .unwrap_or_else(peak_rss_mb)
    }

    pub fn updates_per_s(&self) -> f64 {
        self.rate(|t| &t.updates, UPDATE_GRAIN)
    }

    pub fn queries_per_s(&self) -> f64 {
        self.rate(|t| &t.queries, QUERY_GRAIN)
    }

    pub fn attempted(&self) -> u64 {
        self.threads.iter().map(|t| t.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.threads.iter().map(|t| t.failed).sum()
    }

    pub fn overloaded(&self) -> u64 {
        self.threads.iter().map(|t| t.overloaded).sum()
    }
}

/// Consecutive blocks a client's samples are cut into for
/// [`block_rate`] and [`block_median`].
const BLOCKS: usize = 25;
/// Blocks are whole multiples of this many updates: the churn pattern
/// repeats every 5 requests and the bulk pattern every 4, so every
/// block holds the same mix.
const UPDATE_GRAIN: usize = 20;
/// The embedded workloads ask 8 queries per request, so their query
/// samples repeat every 40 and 32: blocks of queries are multiples of
/// 160.
const QUERY_GRAIN: usize = 160;

/// Cut one client's samples (in time order) into equal blocks, take
/// `stat` of each, and return the quartile of those on the fast side
/// (`fast_is_high`: the third quartile, else the first).
///
/// The machines this runs on are shared, and a neighbour's burst only
/// ever slows a run down: it stalls it outright for a moment or runs all
/// of it 30–40% slower for some seconds. A whole-run mean or median
/// follows every such episode; the fast quartile of the blocks follows
/// the program unless three quarters of the run were disturbed.
fn fast_quartile(
    samples: &[f64],
    grain: usize,
    stat: impl Fn(&[f64]) -> f64,
    fast_is_high: bool,
) -> f64 {
    let block = (samples.len() / BLOCKS / grain).max(1) * grain;
    if samples.len() < 2 * block {
        return stat(samples);
    }
    let per_block = stats::sorted(samples.chunks_exact(block).map(stat).collect());
    stats::percentile(&per_block, if fast_is_high { 750 } else { 250 })
}

/// One client's operations per second of the time it spent waiting for
/// them (operations ÷ Σ latency), over the fast quartile of its blocks.
pub fn block_rate(latencies_us: &[f64], grain: usize) -> f64 {
    let rate = |lat: &[f64]| ratio(lat.len() as f64, lat.iter().sum::<f64>() / 1e6);
    fast_quartile(latencies_us, grain, rate, true)
}

/// One client's median latency, over the fast quartile of its blocks.
pub fn block_median(latencies_us: &[f64], grain: usize) -> f64 {
    fast_quartile(latencies_us, grain, stats::median, false)
}

/// A reading of every metric in some registries: counters and gauges as
/// `(value, 0)`, histograms as `(sum, count)` — never a quantile, the
/// histograms are log₂-bucketed. The flag marks a gauge.
#[derive(Clone, Default, Debug)]
pub struct Counters(BTreeMap<String, (f64, f64, bool)>);

impl Counters {
    /// A name registered in several of the registries reads as the sum
    /// (a machine built before `with_obs` has already registered its
    /// names, at zero, in the global registry).
    pub fn read(registries: &[&Registry]) -> Counters {
        let mut map: BTreeMap<String, (f64, f64, bool)> = BTreeMap::new();
        for reg in registries {
            for (name, metric) in reg.snapshot() {
                let reading = match metric {
                    Metric::Counter(c) => (c.get() as f64, 0.0, false),
                    Metric::Gauge(g) => (g.get() as f64, 0.0, true),
                    Metric::Histogram(h) => (h.sum() as f64, h.count() as f64, false),
                };
                let total = map.entry(name).or_default();
                *total = (total.0 + reading.0, total.1 + reading.1, reading.2);
            }
        }
        Counters(map)
    }

    /// A component's private registry plus the process-global one, where
    /// the evaluator's `eval.*` counters always land.
    pub fn with_global(private: &Registry) -> Counters {
        Counters::read(&[private, dynfo_obs::global()])
    }

    /// What accrued since `before` (gauges keep their current level).
    pub fn since(&self, before: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|(name, &(sum, count, gauge))| {
                    let (s0, c0, _) = before.0.get(name).copied().unwrap_or_default();
                    let now = if gauge {
                        (sum, count, gauge)
                    } else {
                        (sum - s0, count - c0, gauge)
                    };
                    (name.clone(), now)
                })
                .collect(),
        )
    }

    /// A counter's value or a histogram's sum; 0 when the name is not
    /// registered (never an error: a later change may rename it).
    pub fn sum(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |r| r.0)
    }

    /// A histogram's observation count.
    pub fn count(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |r| r.1)
    }

    /// A histogram's mean observation (0 without observations).
    pub fn mean(&self, name: &str) -> f64 {
        ratio(self.sum(name), self.count(name))
    }

    /// Total of every metric whose name starts with `prefix`.
    pub fn sum_prefix(&self, prefix: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, r)| r.0)
            .sum()
    }
}

/// Exact evaluator and install work of a machine, as `MachineStats`
/// counts it: for one seed these repeat exactly.
#[derive(Clone, Copy, Default, Debug, PartialEq)]
pub struct Work {
    /// Updates the counts cover.
    pub updates: f64,
    pub interp_rows: f64,
    pub kernel_words: f64,
    pub plan_compiled: f64,
    pub plan_fallback: f64,
    pub installs_unchanged: f64,
    pub installs_changed: f64,
}

impl Work {
    /// Cumulative work of a machine's updates so far.
    pub fn of(stats: &dynfo_core::MachineStats) -> Work {
        let (w, i) = (&stats.update_work, &stats.installs);
        Work {
            updates: 0.0,
            interp_rows: w.rows_built as f64,
            kernel_words: w.kernel_words as f64,
            plan_compiled: w.plan_compiled as f64,
            plan_fallback: w.plan_fallback as f64,
            installs_unchanged: i.unchanged as f64,
            installs_changed: (i.delta + i.rebuilds) as f64,
        }
    }

    /// `self + (after − before)`, covering `updates` more updates.
    pub fn plus(self, after: Work, before: Work, updates: usize) -> Work {
        Work {
            updates: self.updates + updates as f64,
            interp_rows: self.interp_rows + after.interp_rows - before.interp_rows,
            kernel_words: self.kernel_words + after.kernel_words - before.kernel_words,
            plan_compiled: self.plan_compiled + after.plan_compiled - before.plan_compiled,
            plan_fallback: self.plan_fallback + after.plan_fallback - before.plan_fallback,
            installs_unchanged: self.installs_unchanged + after.installs_unchanged
                - before.installs_unchanged,
            installs_changed: self.installs_changed + after.installs_changed
                - before.installs_changed,
        }
    }
}

/// `a / b`, 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Run `setup` several times and keep the last result; the reported
/// set-up time is the median, so one slow fsync does not move it.
pub fn repeat_setup<T>(times: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut seconds = Vec::new();
    let mut last = None;
    for _ in 0..times {
        drop(last.take()); // tear the previous one down outside the timing
        let start = Instant::now();
        last = Some(setup());
        seconds.push(start.elapsed().as_secs_f64());
    }
    (stats::median(&seconds), last.expect("at least one set-up"))
}

/// A deadline `seconds` from now.
pub fn deadline(seconds: f64) -> Instant {
    Instant::now() + Duration::from_secs_f64(seconds)
}

/// Peak resident set of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The benchmark's own directory: `benchmark/` under the working
/// directory when run from a checkout root (as the driver does), else
/// where it was built.
pub fn home() -> PathBuf {
    let local = Path::new("benchmark");
    if local.join("Cargo.toml").is_file() {
        local.to_path_buf()
    } else {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
    }
}

/// A fresh data directory on the repository's filesystem (never tmpfs:
/// fsync there measures nothing), removed on drop.
pub struct DataDir(PathBuf);

impl DataDir {
    pub fn new(tag: &str) -> DataDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = home().join("data").join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create data directory");
        DataDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }

    /// Bytes of every file under the directory.
    pub fn bytes(&self) -> u64 {
        fn walk(dir: &Path) -> u64 {
            std::fs::read_dir(dir)
                .into_iter()
                .flatten()
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => walk(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        }
        walk(&self.0)
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty `data/` behind either.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_sum_over_clients_and_skip_idle_ones() {
        let phase = Phase {
            threads: vec![
                Samples {
                    updates: vec![1e6, 1e6],
                    ..Samples::default()
                }, // 1/s
                Samples {
                    updates: vec![0.5e6],
                    ..Samples::default()
                }, // 2/s
                Samples::default(),
            ],
            ..Phase::default()
        };
        assert_eq!(phase.updates_per_s(), 3.0);
        assert_eq!(phase.queries_per_s(), 0.0);
        assert_eq!(phase.updates(), [0.5e6, 1e6, 1e6]);
        assert_eq!(
            (phase.update_mean_us(), phase.update_count()),
            (2.5e6 / 3.0, 3.0)
        );
        assert_eq!(phase.query_mean_us(), 0.0);
        assert_eq!(phase.update_p50_us(), 0.75e6); // mean of the clients' medians
    }

    #[test]
    fn a_disturbed_stretch_does_not_move_rate_or_median() {
        // 1000 operations of 100 µs: 10 000/s.
        let mut lat = vec![100.0; 1000];
        assert_eq!(
            (block_rate(&lat, 20), block_median(&lat, 20)),
            (10_000.0, 100.0)
        );
        // A neighbour steals the machine for 0.1 s during five of them
        // (the whole-run mean would read 5 000/s) …
        for slow in &mut lat[300..305] {
            *slow = 20_000.0;
        }
        // … and then slows everything by half for 60% of the run (the
        // whole-run median would read 150 µs).
        for slow in &mut lat[400..] {
            *slow *= 1.5;
        }
        assert_eq!(
            (block_rate(&lat, 20), block_median(&lat, 20)),
            (10_000.0, 100.0)
        );
        // Blocks keep the request pattern's mix: whole multiples of 20.
        let pattern: Vec<f64> = (0..1000)
            .map(|i| if i % 5 == 4 { 900.0 } else { 100.0 })
            .collect();
        assert!((block_rate(&pattern, 20) - 1e6 / 260.0).abs() < 1e-6);
        // Too few samples for blocks: the plain statistic.
        assert_eq!(block_median(&[1.0, 2.0, 9.0], 20), 2.0);
    }

    #[test]
    fn peak_memory_is_read_at_a_fixed_update_count() {
        let mut s = Samples::default();
        s.update(1.0, 2);
        assert!(s.peak_rss_mb.is_none());
        s.update(1.0, 2);
        assert!(s.peak_rss_mb.is_some_and(|mb| mb > 0.0));
    }

    #[test]
    fn counters_subtract_and_tolerate_missing_names() {
        let reg = Registry::new();
        reg.counter("a.count").add(5);
        reg.histogram("a.lat_ns").observe(100);
        let before = Counters::read(&[&reg]);
        reg.counter("a.count").add(2);
        reg.histogram("a.lat_ns").observe(50);
        reg.counter("a.new").add(1);
        let delta = Counters::read(&[&reg]).since(&before);
        assert_eq!(delta.sum("a.count"), 2.0);
        assert_eq!(
            (delta.sum("a.lat_ns"), delta.count("a.lat_ns")),
            (50.0, 1.0)
        );
        assert_eq!(delta.sum("a.new"), 1.0);
        assert_eq!((delta.sum("absent"), delta.count("absent")), (0.0, 0.0));
        assert_eq!(delta.sum_prefix("a."), 53.0);
        // The same name in a second registry adds; it does not shadow.
        let other = Registry::new();
        other.counter("a.count");
        assert_eq!(Counters::read(&[&reg, &other]).sum("a.count"), 7.0);
    }

    #[test]
    fn set_up_time_is_the_median() {
        let mut round = 0;
        let (seconds, last) = repeat_setup(3, || {
            std::thread::sleep(Duration::from_millis([1, 30, 2][round]));
            round += 1;
            round
        });
        assert_eq!(last, 3);
        assert!((0.002..0.030).contains(&seconds), "{seconds}");
    }
}
