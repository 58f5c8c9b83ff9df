//! Per-request trace spans and the bounded trace journal.
//!
//! A [`Span`] is a cheaply clonable (`Arc`-backed) recorder anchored to a
//! monotonic clock ([`std::time::Instant`]) at creation. Pipeline stages
//! append named [`SpanEvent`]s as they complete; the owner calls
//! [`Span::finish`] once when the request's terminal result is delivered.
//! Events recorded after `finish` (for example the response-delivery write
//! on the wire) are kept and show up in later snapshots — the journal holds
//! the live span, not a frozen copy.
//!
//! Trace ids are assigned by whoever creates the span (the compile service
//! hands out a process-local monotonic counter) and are never zero, so a
//! zero id can mean "no trace" — an empty histogram exemplar slot.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// One named, timed stage inside a span. Offsets are nanoseconds since the
/// span was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Stage name, e.g. `"queue_wait"` or `"compile"`.
    pub stage: &'static str,
    /// Start offset from span creation, in nanoseconds.
    pub start_ns: u64,
    /// Stage duration in nanoseconds.
    pub dur_ns: u64,
}

#[derive(Debug)]
struct SpanInner {
    trace_id: u64,
    started: Instant,
    /// Total wall time fixed by the first `finish` call; 0 while running.
    total_ns: AtomicU64,
    events: Mutex<Vec<SpanEvent>>,
    attrs: Mutex<Vec<(&'static str, String)>>,
}

/// A per-request trace recorder. Clones share the same underlying record.
#[derive(Debug, Clone)]
pub struct Span {
    inner: Arc<SpanInner>,
}

impl Span {
    /// Start a new span with the given (non-zero, caller-assigned) trace id.
    pub fn new(trace_id: u64) -> Self {
        Self {
            inner: Arc::new(SpanInner {
                trace_id,
                started: Instant::now(),
                total_ns: AtomicU64::new(0),
                events: Mutex::new(Vec::new()),
                attrs: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The server-assigned trace id.
    pub fn trace_id(&self) -> u64 {
        self.inner.trace_id
    }

    /// Nanoseconds since the span was created (saturating).
    pub fn elapsed_ns(&self) -> u64 {
        self.inner.started.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Record a stage that just finished and took `dur`. The start offset is
    /// back-computed from the current clock, so call this immediately after
    /// the stage completes.
    pub fn record(&self, stage: &'static str, dur: Duration) {
        let dur_ns = dur.as_nanos().min(u64::MAX as u128) as u64;
        let start_ns = self.elapsed_ns().saturating_sub(dur_ns);
        self.push_event(SpanEvent { stage, start_ns, dur_ns });
    }

    fn push_event(&self, event: SpanEvent) {
        self.inner.events.lock().expect("span events poisoned").push(event);
    }

    /// Attach or replace a key/value attribute (tenant, priority, outcome…).
    pub fn set_attr(&self, key: &'static str, value: impl Into<String>) {
        let value = value.into();
        let mut attrs = self.inner.attrs.lock().expect("span attrs poisoned");
        if let Some(slot) = attrs.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            attrs.push((key, value));
        }
    }

    /// Fix the span's total wall time. Idempotent: the first call wins and
    /// every call returns the fixed total in nanoseconds.
    pub fn finish(&self) -> u64 {
        let now = self.elapsed_ns().max(1);
        match self.inner.total_ns.compare_exchange(0, now, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => now,
            Err(prev) => prev,
        }
    }

    /// Total wall time if finished, `None` while the request is in flight.
    pub fn total_ns(&self) -> Option<u64> {
        match self.inner.total_ns.load(Ordering::Acquire) {
            0 => None,
            ns => Some(ns),
        }
    }

    /// Immutable copy of the span's current state.
    pub fn to_record(&self) -> TraceRecord {
        TraceRecord {
            trace_id: self.inner.trace_id,
            total_ns: self.inner.total_ns.load(Ordering::Acquire),
            events: self.inner.events.lock().expect("span events poisoned").clone(),
            attrs: self.inner.attrs.lock().expect("span attrs poisoned").clone(),
        }
    }

    /// Render the span as one line of JSON (no trailing newline). Durations
    /// are nanoseconds; the trace id is zero-padded hex to make grepping for
    /// a specific request trivial.
    pub fn to_jsonl(&self) -> String {
        let rec = self.to_record();
        rec.to_jsonl()
    }
}

/// Plain-data snapshot of a span, as stored by readers of the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Server-assigned trace id (never zero for real requests).
    pub trace_id: u64,
    /// Total wall time in nanoseconds; 0 while the request is in flight.
    pub total_ns: u64,
    /// Completed stages in recording order.
    pub events: Vec<SpanEvent>,
    /// Request attributes (tenant, priority, outcome…).
    pub attrs: Vec<(&'static str, String)>,
}

impl TraceRecord {
    /// Render as one line of JSON (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(128);
        out.push_str("{\"trace_id\":\"");
        out.push_str(&format!("{:016x}", self.trace_id));
        out.push_str("\",\"total_ns\":");
        out.push_str(&self.total_ns.to_string());
        out.push_str(",\"attrs\":{");
        for (i, (k, v)) in self.attrs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            escape_json_into(k, &mut out);
            out.push_str("\":\"");
            escape_json_into(v, &mut out);
            out.push('"');
        }
        out.push_str("},\"stages\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"stage\":\"");
            escape_json_into(ev.stage, &mut out);
            out.push_str("\",\"start_ns\":");
            out.push_str(&ev.start_ns.to_string());
            out.push_str(",\"dur_ns\":");
            out.push_str(&ev.dur_ns.to_string());
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

/// Escape a string for inclusion inside a JSON string literal.
pub fn escape_json_into(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

/// Bounded ring of recent spans. Pushing beyond capacity evicts the oldest
/// entry; readers get plain-data [`TraceRecord`]s. Each entry may carry a
/// compile [`FlightRecording`](crate::recorder::FlightRecording) alongside
/// the span — the journal is what keeps the recorder buffer alive after a
/// request finishes, so `GetTrace` can serve the decision stream for as
/// long as the span itself is retained.
#[derive(Debug)]
pub struct TraceJournal {
    capacity: usize,
    ring: Mutex<VecDeque<(Span, Option<Arc<crate::recorder::FlightRecording>>)>>,
}

impl TraceJournal {
    /// A journal retaining up to `capacity` most-recent spans.
    pub fn new(capacity: usize) -> Self {
        Self { capacity: capacity.max(1), ring: Mutex::new(VecDeque::new()) }
    }

    /// Append a span with no flight recording attached.
    pub fn push(&self, span: Span) {
        self.push_with_recording(span, None);
    }

    /// Append a span together with its compile flight recording (if the
    /// request recorded one), evicting the oldest entry if the ring is
    /// full.
    pub fn push_with_recording(
        &self,
        span: Span,
        recording: Option<Arc<crate::recorder::FlightRecording>>,
    ) {
        let mut ring = self.ring.lock().expect("trace journal poisoned");
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back((span, recording));
    }

    /// Number of retained spans.
    pub fn len(&self) -> usize {
        self.ring.lock().expect("trace journal poisoned").len()
    }

    /// True when no spans are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of retained spans, oldest first.
    pub fn recent(&self) -> Vec<TraceRecord> {
        let ring = self.ring.lock().expect("trace journal poisoned");
        ring.iter().map(|(span, _)| span.to_record()).collect()
    }

    /// Look up a retained trace by id, returning its record and attached
    /// flight recording. Scans newest-first so a recycled id (impossible
    /// in practice — ids are process-monotonic) would resolve to the most
    /// recent occurrence.
    pub fn find(
        &self,
        trace_id: u64,
    ) -> Option<(TraceRecord, Option<Arc<crate::recorder::FlightRecording>>)> {
        let ring = self.ring.lock().expect("trace journal poisoned");
        ring.iter()
            .rev()
            .find(|(span, _)| span.trace_id() == trace_id)
            .map(|(span, recording)| (span.to_record(), recording.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_events_and_finishes_once() {
        let span = Span::new(7);
        span.record("parse", Duration::from_micros(3));
        span.set_attr("priority", "high");
        span.set_attr("priority", "batch"); // replace, not duplicate
        let total = span.finish();
        assert!(total > 0);
        assert_eq!(span.finish(), total, "finish is idempotent");
        span.record("delivery", Duration::from_micros(1)); // post-finish event kept
        let rec = span.to_record();
        assert_eq!(rec.trace_id, 7);
        assert_eq!(rec.total_ns, total);
        assert_eq!(rec.events.len(), 2);
        assert_eq!(rec.events[0].stage, "parse");
        assert_eq!(rec.events[1].stage, "delivery");
        assert_eq!(rec.attrs, vec![("priority", "batch".to_string())]);
    }

    #[test]
    fn jsonl_is_well_formed_and_escaped() {
        let span = Span::new(0xabc);
        span.set_attr("tenant", "we\"ird\\name\n");
        span.record("compile", Duration::from_nanos(42));
        span.finish();
        let line = span.to_jsonl();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains("\"trace_id\":\"0000000000000abc\""));
        assert!(line.contains("\\\"ird\\\\name\\n"));
        assert!(line.contains("\"stage\":\"compile\""));
        assert!(!line.contains('\n'), "JSONL must be a single line");
    }

    #[test]
    fn journal_evicts_oldest() {
        let journal = TraceJournal::new(2);
        for id in 1..=3u64 {
            journal.push(Span::new(id));
        }
        let recent = journal.recent();
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].trace_id, 2);
        assert_eq!(recent[1].trace_id, 3);
    }

    #[test]
    fn journal_sees_post_push_events() {
        let journal = TraceJournal::new(4);
        let span = Span::new(9);
        journal.push(span.clone());
        span.record("delivery", Duration::from_nanos(5));
        let recent = journal.recent();
        assert_eq!(recent[0].events.len(), 1, "journal holds the live span");
    }

    #[test]
    fn journal_finds_traces_and_keeps_recordings_alive() {
        use crate::recorder::{FlightEvent, FlightRecorder};
        let journal = TraceJournal::new(2);
        let mut rec = FlightRecorder::new(4);
        rec.record(FlightEvent::LayerOpened { layer: 1, ready_gates: 2 });
        journal.push_with_recording(Span::new(1), Some(Arc::new(rec.into_recording())));
        journal.push(Span::new(2));
        let (record, recording) = journal.find(1).expect("trace 1 retained");
        assert_eq!(record.trace_id, 1);
        assert_eq!(recording.expect("recording attached").events.len(), 1);
        let (_, none) = journal.find(2).expect("trace 2 retained");
        assert!(none.is_none(), "no recording was attached to trace 2");
        assert!(journal.find(99).is_none());
        journal.push(Span::new(3)); // evicts trace 1 and its recording
        assert!(journal.find(1).is_none());
    }
}
