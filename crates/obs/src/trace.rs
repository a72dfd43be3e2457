//! Structured tracing: spans with static labels, a thread-local span
//! stack (so a span knows its enclosing path), and an optional JSONL
//! sink recording one line per span exit. Spans must be well-nested —
//! they are drop guards, so ordinary scoping guarantees it.

use crate::{clock, ENABLED};
use std::cell::RefCell;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

static SINK: Mutex<Option<BufWriter<File>>> = Mutex::new(None);

/// Route span-exit records to a JSONL file (one object per line:
/// `{"span":…,"path":…,"ns":…,"thread":…}`). Replaces any previous
/// sink, flushing it first.
pub fn set_jsonl_sink(path: &Path) -> std::io::Result<()> {
    let file = File::create(path)?;
    let mut sink = SINK.lock().unwrap();
    if let Some(old) = sink.as_mut() {
        let _ = old.flush();
    }
    *sink = Some(BufWriter::new(file));
    Ok(())
}

/// Detach and flush the JSONL sink, if one was set.
pub fn clear_jsonl_sink() {
    let mut sink = SINK.lock().unwrap();
    if let Some(old) = sink.as_mut() {
        let _ = old.flush();
    }
    *sink = None;
}

/// The current thread's span path, outermost first, joined with `/`.
/// Empty when no span is open (or instrumentation is compiled out).
pub fn current_path() -> String {
    STACK.with(|s| s.borrow().join("/"))
}

/// Enter a span. The returned guard records the exit (and the elapsed
/// time, when a sink is attached) on drop. Labels are static so the
/// hot path never allocates.
pub fn span(label: &'static str) -> Span {
    if !ENABLED {
        return Span { label, start: None };
    }
    STACK.with(|s| s.borrow_mut().push(label));
    Span {
        label,
        start: clock(),
    }
}

/// Drop guard for an open span; see [`span`].
pub struct Span {
    label: &'static str,
    start: Option<Instant>,
}

impl Span {
    /// This span's label.
    pub fn label(&self) -> &'static str {
        self.label
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !ENABLED || self.start.is_none() {
            return;
        }
        // The path is only ever written to the sink: without one a
        // span exit formats nothing and allocates nothing.
        if let Some(out) = SINK.lock().unwrap().as_mut() {
            let ns = crate::elapsed_ns(self.start);
            let thread = std::thread::current();
            let _ = writeln!(
                out,
                "{{\"span\":\"{}\",\"path\":\"{}\",\"ns\":{},\"thread\":\"{}\"}}",
                self.label,
                current_path(),
                ns,
                thread.name().unwrap_or("?"),
            );
        }
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}
