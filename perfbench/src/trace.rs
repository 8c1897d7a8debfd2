//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer can be wrapped in a span
//! (name, start, end, parent, request id). Spans stay in memory and are
//! written out as JSON lines when the run ends. With tracing off,
//! [`span`] returns an inert guard and records nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

struct Span {
    id: u32,
    parent: u32,
    req: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

struct Tracer {
    t0: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

static TRACER: OnceLock<Tracer> = OnceLock::new();
static ACTIVE: AtomicBool = AtomicBool::new(false);

/// Turns span recording on for the rest of the process.
pub fn enable() {
    let _ = TRACER.set(Tracer {
        t0: Instant::now(),
        next_id: AtomicU32::new(1),
        spans: Mutex::new(Vec::new()),
    });
    ACTIVE.store(true, Ordering::Relaxed);
}

/// Whether this is a traced run.
pub fn enabled() -> bool {
    TRACER.get().is_some()
}

/// Pauses (`false`) or resumes (`true`) recording in a traced run, so a
/// stretch of it can be timed span-free to price the tracing overhead.
pub fn set_active(on: bool) {
    ACTIVE.store(on && enabled(), Ordering::Relaxed);
}

fn tracer() -> Option<&'static Tracer> {
    TRACER.get().filter(|_| ACTIVE.load(Ordering::Relaxed))
}

/// An open span; it is recorded when dropped. Id 0 means "no span".
pub struct Guard {
    id: u32,
    parent: u32,
    req: u64,
    name: &'static str,
    start: Option<Instant>,
}

impl Guard {
    /// The span's id, to pass as the parent of nested spans.
    pub fn id(&self) -> u32 {
        self.id
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let (Some(start), Some(t)) = (self.start, TRACER.get()) else {
            return;
        };
        let end = Instant::now();
        let span = Span {
            id: self.id,
            parent: self.parent,
            req: self.req,
            name: self.name,
            start_ns: start.duration_since(t.t0).as_nanos() as u64,
            end_ns: end.duration_since(t.t0).as_nanos() as u64,
        };
        if let Ok(mut spans) = t.spans.lock() {
            spans.push(span);
        }
    }
}

/// Opens a span named `name` under `parent` (0 for a root) for request
/// `req`.
pub fn span(name: &'static str, parent: u32, req: u64) -> Guard {
    match tracer() {
        Some(t) => Guard {
            id: t.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            req,
            name,
            start: Some(Instant::now()),
        },
        None => Guard {
            id: 0,
            parent,
            req,
            name,
            start: None,
        },
    }
}

/// Runs `f` inside a span and returns its result.
pub fn timed<T>(name: &'static str, parent: u32, req: u64, f: impl FnOnce() -> T) -> T {
    let _g = span(name, parent, req);
    f()
}

/// Per-name totals over the recorded spans.
#[derive(Default, Clone, Copy)]
pub struct NameStats {
    /// Spans recorded under the name.
    pub count: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time (duration minus the time covered by child spans).
    pub self_ns: u64,
}

impl NameStats {
    /// Mean self time per span in microseconds (0 when none were recorded).
    pub fn self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }

    /// Mean duration per span in microseconds (0 when none were recorded).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Aggregates the spans recorded so far by name.
pub fn summarize() -> BTreeMap<&'static str, NameStats> {
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    let Some(t) = TRACER.get() else {
        return out;
    };
    let spans = t
        .spans
        .lock()
        .expect("span list poisoned by a panicking thread");
    // Children of one parent run on the parent's thread, one after another,
    // so their summed duration is the part of the parent they cover.
    let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    for s in spans.iter() {
        let dur = s.end_ns - s.start_ns;
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Writes every recorded span as one JSON object per line.
pub fn write_jsonl(path: &Path) -> std::io::Result<()> {
    let Some(t) = TRACER.get() else {
        return Ok(());
    };
    let spans = t
        .spans
        .lock()
        .expect("span list poisoned by a panicking thread");
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans.iter() {
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
