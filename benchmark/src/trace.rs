//! Benchmark-side spans: one around every call into a layer's public
//! API, recorded in memory and written out when the run ends. Spans
//! inside the program are a later change; until then a layer's time is
//! read off the ladder (one rung minus the next) and off the program's
//! own `dynfo-obs` sums.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span within its [`Trace`].
pub type SpanId = u32;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Spans of one request share this identifier.
    pub request: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's spans. A disabled trace records nothing, so the same
/// workload code serves the untraced run.
pub struct Trace {
    enabled: bool,
    epoch: Instant,
    /// Which ladder rung and client thread these spans belong to.
    pub rung: &'static str,
    pub thread: u32,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(enabled: bool, epoch: Instant, rung: &'static str, thread: u32) -> Trace {
        Trace {
            enabled,
            epoch,
            rung,
            thread,
            spans: Vec::new(),
        }
    }

    pub fn disabled() -> Trace {
        Trace::new(false, Instant::now(), "", 0)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; `None` when tracing is off.
    pub fn enter(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns: now,
            end_ns: now,
        });
        Some(self.spans.len() as SpanId - 1)
    }

    pub fn exit(&mut self, id: Option<SpanId>) {
        if let Some(id) = id {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Time `call` (always — the untraced run needs the latency too)
    /// and record it as a child span of `parent` when tracing is on.
    /// Returns the latency in microseconds.
    pub fn call<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<SpanId>,
        call: impl FnOnce() -> T,
    ) -> (f64, T) {
        let start = Instant::now();
        let out = call();
        let end = Instant::now();
        if self.enabled {
            let ns = |t: Instant| t.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                request,
                parent,
                start_ns: ns(start),
                end_ns: ns(end),
            });
        }
        (end.duration_since(start).as_secs_f64() * 1e6, out)
    }
}

/// Every span's self time: its duration minus the part of it its child
/// spans cover. A thread's children of one parent never overlap (the
/// loops are closed), so the covered part is their sum, each clipped to
/// the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let covered = s
                .end_ns
                .min(parent.end_ns)
                .saturating_sub(s.start_ns.max(parent.start_ns));
            own[p as usize] = own[p as usize].saturating_sub(covered);
        }
    }
    own
}

/// Mean self time in microseconds of the spans called `name`.
pub fn mean_self_us(spans: &[Span], name: &str) -> f64 {
    let picked: Vec<f64> = spans
        .iter()
        .zip(self_times_ns(spans))
        .filter(|(s, _)| s.name == name)
        .map(|(_, ns)| ns as f64 / 1e3)
        .collect();
    crate::stats::mean(&picked)
}

/// Spans of one thread that reach the file. A rung-2 reader answers a
/// million queries in a few seconds; the first ten thousand show
/// everything the rest would, and a small file does not leave the disk
/// busy writing it back under the next run's fsyncs.
const SPANS_WRITTEN_PER_THREAD: usize = 10_000;

/// Write every thread's spans as JSON lines (at most
/// [`SPANS_WRITTEN_PER_THREAD`] each, followed by a line saying how
/// many were left out).
pub fn write_jsonl(path: &Path, traces: &[Trace]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for t in traces {
        let omitted = t.spans.len().saturating_sub(SPANS_WRITTEN_PER_THREAD);
        if omitted > 0 {
            writeln!(
                out,
                "{{\"rung\":\"{}\",\"thread\":{},\"omitted_spans\":{omitted}}}",
                t.rung, t.thread
            )?;
        }
        for (id, s) in t.spans.iter().enumerate().take(SPANS_WRITTEN_PER_THREAD) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"rung\":\"{}\",\"thread\":{},\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                t.rung, t.thread, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    // Flushed to the disk before the process exits, for the same reason.
    let file = out.into_inner().map_err(|e| e.into_error())?;
    file.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            request: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("request", None, 0, 100),
            span("core.apply", Some(0), 10, 60),
            span("core.query", Some(0), 70, 80),
            span("inner", Some(1), 20, 30), // a grandchild is not a child
        ];
        assert_eq!(self_times_ns(&spans), [100 - 50 - 10, 50 - 10, 10, 10]);
        assert_eq!(mean_self_us(&spans, "request"), 0.04);
        assert_eq!(mean_self_us(&spans, "core.apply"), 0.04);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let spans = vec![span("p", None, 10, 20), span("c", Some(0), 15, 40)];
        assert_eq!(self_times_ns(&spans), [5, 25]);
    }

    #[test]
    fn disabled_trace_times_but_records_nothing() {
        let mut t = Trace::disabled();
        let root = t.enter("request", 1, None);
        let (us, out) = t.call("core.apply", 1, root, || 7);
        t.exit(root);
        assert_eq!((out, root), (7, None));
        assert!(us >= 0.0 && t.spans().is_empty());

        let mut t = Trace::new(true, Instant::now(), "machine", 0);
        let root = t.enter("request", 1, None);
        t.call("core.apply", 1, root, || ());
        t.exit(root);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);
    }
}
