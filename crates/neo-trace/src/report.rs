//! Exporters for recorded spans, events, and counters.
//!
//! Two formats:
//! * [`tree_report`] — human-readable indented tree with durations and
//!   per-span counter deltas;
//! * [`chrome_trace`] — Chrome `chrome://tracing` / Perfetto "trace event"
//!   JSON (`ph:"X"` complete events plus `ph:"i"` instants).
//!
//! JSON is emitted by hand so the crate stays dependency-free; every
//! string goes through the shared [`crate::jsonv::escape`].

use crate::jsonv::escape as json_escape;
use crate::span::{events, spans, Event, SpanNode};
use std::fmt::Write as _;

fn fmt_duration(us: u64) -> String {
    if us >= 1_000_000 {
        format!("{:.2}s", us as f64 / 1e6)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1e3)
    } else {
        format!("{us}µs")
    }
}

/// Human-readable indented span tree with per-span work summaries.
pub fn tree_report() -> String {
    let all = spans();
    let evs = events();
    let mut out = String::new();
    // Children in recording order, grouped under each parent.
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); all.len()];
    let mut roots = Vec::new();
    for (i, s) in all.iter().enumerate() {
        match s.parent {
            Some(p) => children[p].push(i),
            None => roots.push(i),
        }
    }
    fn emit(
        out: &mut String,
        all: &[SpanNode],
        evs: &[Event],
        children: &[Vec<usize>],
        idx: usize,
        indent: usize,
    ) {
        let s = &all[idx];
        let pad = "  ".repeat(indent);
        let _ = write!(out, "{pad}{} [{}]", s.name, fmt_duration(s.duration_us()));
        if !s.label.is_empty() {
            let _ = write!(out, " {}", s.label);
        }
        let work = s.work.nonzero();
        if !work.is_empty() {
            let parts: Vec<String> = work.iter().map(|(k, v)| format!("{k}={v}")).collect();
            let _ = write!(out, "  {{{}}}", parts.join(" "));
        }
        out.push('\n');
        for ev in evs.iter().filter(|e| e.span == Some(idx)) {
            let _ = writeln!(out, "{pad}  • {} {}", ev.name, ev.detail);
        }
        for &c in &children[idx] {
            emit(out, all, evs, children, c, indent + 1);
        }
    }
    for r in roots {
        emit(&mut out, &all, &evs, &children, r, 0);
    }
    if out.is_empty() {
        out.push_str("(no spans recorded)\n");
    }
    out
}

/// Chrome trace-event JSON (open in `chrome://tracing` or
/// [ui.perfetto.dev](https://ui.perfetto.dev)): one `ph:"X"` complete
/// event per closed span and one `ph:"i"` instant per event.
pub fn chrome_trace() -> String {
    let mut entries = Vec::new();
    for s in spans() {
        let Some(end) = s.end_us else { continue };
        let mut args = String::new();
        if !s.label.is_empty() {
            let _ = write!(args, "\"label\":\"{}\"", json_escape(&s.label));
        }
        for (k, v) in s.work.nonzero() {
            if !args.is_empty() {
                args.push(',');
            }
            let _ = write!(args, "\"{k}\":{v}");
        }
        entries.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{{args}}}}}",
            json_escape(s.name),
            s.tid,
            s.start_us,
            end.saturating_sub(s.start_us)
        ));
    }
    for e in events() {
        entries.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":{},\"ts\":{},\"args\":{{\"detail\":\"{}\"}}}}",
            json_escape(e.name),
            e.tid,
            e.ts_us,
            json_escape(&e.detail)
        ));
    }
    format!("{{\"traceEvents\":[{}]}}", entries.join(","))
}

/// A synthetic span for Chrome-trace export of *simulated* timelines
/// (e.g. the `neo-sched` multi-stream schedule), where timestamps come
/// from a model rather than from the wall clock.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSpan {
    /// Event name shown in the trace viewer.
    pub name: String,
    /// Track (rendered as a thread lane) the span belongs to.
    pub track: usize,
    /// Start timestamp in microseconds of simulated time.
    pub start_us: f64,
    /// Duration in microseconds of simulated time.
    pub dur_us: f64,
    /// Extra `args` key/value pairs attached to the event.
    pub args: Vec<(String, String)>,
}

/// Chrome trace-event JSON for a set of [`SimSpan`]s: one `ph:"M"`
/// `thread_name` metadata event per entry of `track_names` (so lanes get
/// readable names in the viewer) and one `ph:"X"` complete event per
/// span. Unlike [`chrome_trace`] this reads nothing from the recorder —
/// the caller supplies the (simulated) timeline.
pub fn chrome_trace_from(spans: &[SimSpan], track_names: &[String]) -> String {
    let mut entries = Vec::new();
    for (tid, name) in track_names.iter().enumerate() {
        entries.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
            json_escape(name)
        ));
    }
    for s in spans {
        let mut args = String::new();
        for (k, v) in &s.args {
            if !args.is_empty() {
                args.push(',');
            }
            let _ = write!(args, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
        }
        entries.push(format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}",
            json_escape(&s.name),
            s.track,
            s.start_us,
            s.dur_us.max(0.0)
        ));
    }
    format!("{{\"traceEvents\":[{}]}}", entries.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{add, record, Counter};

    #[test]
    fn exporters_cover_recorded_spans() {
        let ((tree, chrome), _) = record(|| {
            crate::reset();
            {
                let _op = crate::span!("op.test", n = 1024);
                add(Counter::NttButterflies, 5120);
                crate::span::event("noise.budget", "bits=31.5");
            }
            let out = (tree_report(), chrome_trace());
            crate::reset();
            out
        });
        assert!(tree.contains("op.test"));
        assert!(tree.contains("ntt_butterflies=5120"));
        assert!(tree.contains("noise.budget"));
        assert!(chrome.contains("\"name\":\"op.test\""));
        assert!(chrome.contains("\"label\":\"n=1024\""));
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"ph\":\"i\""));
    }

    #[test]
    fn sim_spans_export_tracks_and_events() {
        let spans = vec![SimSpan {
            name: "ntt".into(),
            track: 1,
            start_us: 12.5,
            dur_us: 3.25,
            args: vec![("node".into(), "7".into())],
        }];
        let tracks = vec!["prologue".to_string(), "stream 0 compute".to_string()];
        let json = chrome_trace_from(&spans, &tracks);
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"stream 0 compute\""));
        assert!(json.contains("\"ts\":12.500"));
        assert!(json.contains("\"node\":\"7\""));
    }
}
