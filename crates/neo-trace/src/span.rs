//! Timed spans and point events.
//!
//! Spans are the workspace's only timer. Every span opened while the gate
//! is on records its duration, when it closes, into the
//! [`SPAN_DURATION_NS`] histogram family under its own name
//! (`span_duration_ns{span="keyswitch.klss"}`) — that is where per-op
//! latency percentiles come from.
//!
//! Inside [`record`](crate::record) spans and events also build a tree:
//! spans live in a process-wide arena, each thread keeps a stack of the
//! spans it currently has open (so nesting is tracked per thread while the
//! arena aggregates across threads), and each node carries the counter
//! delta observed while it was open. Outside `record` nothing is kept per
//! span, so memory stays bounded however long the gate is on. Enter spans
//! with the [`span!`](crate::span!) macro; the returned [`SpanGuard`]
//! closes the span when dropped.
//!
//! Rayon caveat: a span opened on the orchestrating thread does not
//! parent work executed on worker threads — tree spans stay at the
//! sequential orchestration level and the *counters* capture worker-thread
//! work (they are global). Kernels that run on rayon workers (NTTs, GEMMs)
//! open [`SpanGuard::timer`] spans instead: timed into the histogram like
//! every span, but never placed in the tree.

use crate::counters::{recording, snapshot, WorkCounters};
use crate::hist::Histogram;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The histogram family closing spans record their durations into, in
/// nanoseconds, labeled `span=<span name>`.
pub const SPAN_DURATION_NS: &str = "span_duration_ns";

/// One closed (or still-open) span in the arena.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Dotted span name, e.g. `"keyswitch.klss"`.
    pub name: &'static str,
    /// Space-separated `key=value` annotations.
    pub label: String,
    /// Arena index of the parent span on the same thread.
    pub parent: Option<usize>,
    /// Small per-thread ordinal (0 = first thread to open a span).
    pub tid: u64,
    /// Nesting depth on its thread (roots are 0).
    pub depth: usize,
    /// Start time in microseconds since the trace epoch.
    pub start_us: u64,
    /// End time; `None` while the span is still open.
    pub end_us: Option<u64>,
    work_at_start: WorkCounters,
    /// Counter deltas between enter and exit (includes concurrent work —
    /// see the module docs).
    pub work: WorkCounters,
}

impl SpanNode {
    /// Span duration in microseconds (0 while open).
    pub fn duration_us(&self) -> u64 {
        self.end_us.map_or(0, |e| e.saturating_sub(self.start_us))
    }
}

/// A point-in-time annotation, e.g. a noise-budget snapshot.
#[derive(Debug, Clone)]
pub struct Event {
    /// Event name, e.g. `"noise.budget"`.
    pub name: &'static str,
    /// Free-form `key=value` detail string.
    pub detail: String,
    /// Timestamp in microseconds since the trace epoch.
    pub ts_us: u64,
    /// Thread ordinal (matches [`SpanNode::tid`]).
    pub tid: u64,
    /// Arena index of the span open on this thread when the event fired.
    pub span: Option<usize>,
}

static ARENA: Mutex<Vec<SpanNode>> = Mutex::new(Vec::new());
static EVENTS: Mutex<Vec<Event>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// Per-thread cache of span-name → duration histogram, so a closing
    /// span pays the registry's map lock once per name and thread.
    static HISTS: RefCell<Vec<(&'static str, Arc<Histogram>)>> =
        const { RefCell::new(Vec::new()) };
}

/// Microseconds from the (lazily initialised) trace epoch to `t`.
fn micros_since_epoch(t: Instant) -> u64 {
    t.saturating_duration_since(*EPOCH.get_or_init(Instant::now))
        .as_micros() as u64
}

fn lock_arena() -> std::sync::MutexGuard<'static, Vec<SpanNode>> {
    ARENA.lock().unwrap_or_else(|e| e.into_inner())
}

fn lock_events() -> std::sync::MutexGuard<'static, Vec<Event>> {
    EVENTS.lock().unwrap_or_else(|e| e.into_inner())
}

/// Clears the span arena and event list (the calling thread's open-span
/// stack included).
pub(crate) fn reset_spans() {
    lock_arena().clear();
    lock_events().clear();
    STACK.with(|s| s.borrow_mut().clear());
}

/// A clone of every span recorded so far (exporters iterate this).
pub fn spans() -> Vec<SpanNode> {
    lock_arena().clone()
}

/// A clone of every event recorded so far.
pub fn events() -> Vec<Event> {
    lock_events().clone()
}

/// The duration histogram of the span named `name` in the default
/// registry (`span_duration_ns{span=name}`).
pub fn duration_histogram(name: &str) -> Arc<Histogram> {
    crate::registry().histogram(SPAN_DURATION_NS, &[("span", name)])
}

fn record_duration(name: &'static str, ns: u64) {
    HISTS.with(|h| {
        let mut cache = h.borrow_mut();
        match cache.iter().find(|(n, _)| *n == name) {
            Some((_, hist)) => hist.record_always(ns),
            None => {
                let hist = duration_histogram(name);
                hist.record_always(ns);
                cache.push((name, hist));
            }
        }
    });
}

/// Records a point event under the currently open span, if a
/// [`record`](crate::record) section is running with the gate on.
pub fn event(name: &'static str, detail: impl Into<String>) {
    if !(crate::enabled() && recording()) {
        return;
    }
    let ev = Event {
        name,
        detail: detail.into(),
        ts_us: micros_since_epoch(Instant::now()),
        tid: TID.with(|t| *t),
        span: STACK.with(|s| s.borrow().last().copied()),
    };
    lock_events().push(ev);
}

/// RAII handle for an open span; closes it on drop.
///
/// Prefer the [`span!`](crate::span!) macro over calling
/// [`SpanGuard::enter`] directly.
#[must_use = "a span closes when the guard drops — bind it to a variable"]
pub struct SpanGuard {
    name: &'static str,
    /// Entry time; `None` when the gate was off at entry.
    start: Option<Instant>,
    /// Arena index; `Some` only for tree spans opened inside `record`.
    idx: Option<usize>,
}

impl SpanGuard {
    /// Opens a span named `name`; `label` is only evaluated when the span
    /// enters the tree (gate on, inside [`record`](crate::record)).
    pub fn enter(name: &'static str, label: impl FnOnce() -> String) -> Self {
        let mut guard = Self::timer(name);
        let Some(start) = guard.start else {
            return guard;
        };
        if !recording() {
            return guard;
        }
        let (parent, depth) = STACK.with(|s| {
            let stack = s.borrow();
            (stack.last().copied(), stack.len())
        });
        let node = SpanNode {
            name,
            label: label(),
            parent,
            tid: TID.with(|t| *t),
            depth,
            start_us: micros_since_epoch(start),
            end_us: None,
            work_at_start: snapshot(),
            work: WorkCounters::default(),
        };
        let idx = {
            let mut arena = lock_arena();
            arena.push(node);
            arena.len() - 1
        };
        STACK.with(|s| s.borrow_mut().push(idx));
        guard.idx = Some(idx);
        guard
    }

    /// Opens a span that is timed into the span histogram but never
    /// enters the tree — for kernels that run on rayon workers, where the
    /// per-thread stack cannot name the logical parent.
    #[inline]
    pub fn timer(name: &'static str) -> Self {
        Self {
            name,
            start: crate::enabled().then(Instant::now),
            idx: None,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let end = Instant::now();
        record_duration(self.name, end.duration_since(start).as_nanos() as u64);
        let Some(idx) = self.idx else { return };
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if stack.last() == Some(&idx) {
                stack.pop();
            } else {
                // Out-of-order drop (guard moved across scopes): remove
                // wherever it sits so the stack stays consistent.
                stack.retain(|&i| i != idx);
            }
        });
        let work_now = snapshot();
        let mut arena = lock_arena();
        if let Some(node) = arena.get_mut(idx) {
            node.end_us = Some(micros_since_epoch(end));
            node.work = work_now.since(&node.work_at_start);
        }
    }
}

/// Opens a span: `span!("name")`, `span!("keyswitch.klss", level, dnum)`
/// (bare identifiers become `level=… dnum=…`), or
/// `span!("bconv", n = poly_n, dst = out.len())`.
///
/// Expands to a [`SpanGuard`] binding; the span closes when the guard
/// leaves scope. When the gate is off the cost is one atomic load, and
/// the label expression is only evaluated for spans entering the tree.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::SpanGuard::enter($name, String::new)
    };
    ($name:expr, $($key:ident = $val:expr),+ $(,)?) => {
        $crate::span::SpanGuard::enter($name, || {
            use std::fmt::Write as _;
            let mut s = String::new();
            $(let _ = write!(s, concat!(stringify!($key), "={} "), $val);)+
            s.truncate(s.trim_end().len());
            s
        })
    };
    ($name:expr, $($val:ident),+ $(,)?) => {
        $crate::span!($name, $($val = $val),+)
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{add, record, Counter};

    #[test]
    fn spans_nest_and_close() {
        let (spans, _) = record(|| {
            reset_spans();
            {
                let _outer = crate::span!("outer", level = 3);
                let _inner = crate::span!("inner");
                add(Counter::GemmMacs, 11);
            }
            spans()
        });
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner");
        assert_eq!(outer.label, "level=3");
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert!(inner.end_us.is_some());
        assert_eq!(inner.work.get(Counter::GemmMacs), 11);
    }

    #[test]
    fn disabled_spans_record_nothing() {
        // Inside `record` so no concurrent test can flip the gate under us.
        let ((), _) = record(|| {
            crate::disable();
            let before = spans().len();
            let timed = duration_histogram("ghost").count();
            let g = crate::span!("ghost");
            drop(g);
            assert_eq!(spans().len(), before);
            assert_eq!(duration_histogram("ghost").count(), timed);
            crate::enable();
        });
    }

    #[test]
    fn closing_spans_feed_the_duration_histogram() {
        let ((), _) = record(|| {
            let tree = duration_histogram("test.tree").count();
            let timer = duration_histogram("test.timer").count();
            let before = spans().len();
            drop(crate::span!("test.tree"));
            drop(SpanGuard::timer("test.timer"));
            drop(SpanGuard::timer("test.timer"));
            assert_eq!(duration_histogram("test.tree").count(), tree + 1);
            assert_eq!(duration_histogram("test.timer").count(), timer + 2);
            // Timer spans never enter the tree.
            assert_eq!(spans().len(), before + 1);
        });
    }

    #[test]
    fn gate_on_outside_record_keeps_no_tree() {
        let _g = crate::lock();
        let (spans_before, events_before) = (spans().len(), events().len());
        let timed = duration_histogram("test.untreed").count();
        crate::enable();
        for _ in 0..3 {
            let _s = crate::span!("test.untreed");
            event("noise.budget", "bits=1");
        }
        crate::disable();
        assert_eq!(spans().len(), spans_before);
        assert_eq!(events().len(), events_before);
        assert_eq!(duration_histogram("test.untreed").count(), timed + 3);
    }

    #[test]
    fn events_attach_to_open_span() {
        let (evs, _) = record(|| {
            reset_spans();
            let _s = crate::span!("op");
            event("noise.budget", "bits=42");
            events()
        });
        let ev = evs
            .iter()
            .find(|e| e.name == "noise.budget")
            .expect("event");
        assert_eq!(ev.detail, "bits=42");
        assert!(ev.span.is_some());
    }
}
