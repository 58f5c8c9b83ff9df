//! The compile **flight recorder**: a bounded, preallocated ring of
//! compact, fixed-size decision events the scheduler and the
//! permutation-routing compiler fill while a compile runs.
//!
//! Requests tell you *that* a compile took 1.8 ms; the flight recorder
//! tells you *why* — which frontier layers stalled, which candidate won
//! each iteration and by what margin, which shuttles were executed and
//! what they cost, and how many comparators each swap schedule emitted
//! versus selected. The buffer is allocated once at `FlightRecorder::new`
//! and never grows: recording an event into a full ring overwrites the
//! oldest one (and counts it in [`FlightRecorder::dropped`]), so a
//! pathological compile cannot balloon memory or stall on allocation.
//!
//! Recording is **observation-only** by contract: the recorder is filled
//! from values the scheduler already computed, no scheduling decision
//! ever reads it, and compiled output is bit-identical recorder-on vs
//! recorder-off (the `telemetry_overhead` bench enforces this for every
//! `CompilerKind`). Like `ScoringTelemetry`, the event stream describes
//! work performed, not the result, so it is carried *outside* the
//! golden-compared scheduler statistics and is never persisted or sent
//! in a compiled outcome.

use crate::span::escape_json_into;

/// One recorded compile decision. `Copy` and free of heap pointers by
/// design: pushing an event is a couple of word stores into the
/// preallocated ring, nothing more.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlightEvent {
    /// A scheduler iteration (or perm-route round) opened a frontier
    /// layer that needed movement.
    LayerOpened {
        /// Iteration / round ordinal (1-based, monotone within a run).
        layer: u64,
        /// Frontier gates visible when the layer opened.
        ready_gates: u64,
    },
    /// A layer finished: some frontier gates became executable.
    LayerClosed {
        /// Iteration / round ordinal the event closes.
        layer: u64,
        /// Gates executed (scheduler) or planned gates realised
        /// co-trapped (perm-route) this layer.
        executed: u64,
    },
    /// The candidate scoring pass chose a winner.
    CandidateChosen {
        /// Iteration ordinal the choice belongs to.
        layer: u64,
        /// Index of the winning candidate in the enumeration order.
        candidate: u64,
        /// The winning heuristic score (its `f64::to_bits`).
        score_bits: u64,
        /// Runner-up margin: second-best score minus best score
        /// (`f64::to_bits`), never negative. NaN bits when no runner-up
        /// exists: a single-candidate pass, or a PermRoute gate, whose
        /// layer planner keeps only the winning meeting trap.
        margin_bits: u64,
    },
    /// The scheduler entered its deterministic stall-fallback router.
    StallFallback {
        /// Iteration ordinal at entry.
        layer: u64,
        /// Gates still unscheduled when the fallback engaged.
        remaining: u64,
    },
    /// A shuttle was executed (one ion moved between traps).
    Shuttle {
        /// The program qubit that moved.
        qubit: u64,
        /// Source trap index.
        from_trap: u64,
        /// Destination trap index.
        to_trap: u64,
        /// Junctions crossed en route (the dominant cost term).
        junctions: u64,
        /// Chain length left behind at the source.
        source_chain_len: u64,
        /// Chain length after arrival at the destination.
        dest_chain_len: u64,
    },
    /// A swap schedule realised one trap's layer-to-layer permutation.
    SwapSchedule {
        /// The trap whose chain was reordered.
        trap: u64,
        /// Schedule kind tag (0 = bubble sort, 1 = recursive-split-two).
        kind: u8,
        /// Comparators the data-independent network emitted.
        emitted: u64,
        /// Comparators actually selected (SWAP gates issued).
        selected: u64,
    },
}

/// Schedule-kind tag for [`FlightEvent::SwapSchedule`]: bubble sort.
pub const SWAP_SCHEDULE_BUBBLE: u8 = 0;
/// Schedule-kind tag for [`FlightEvent::SwapSchedule`]: recursive split.
pub const SWAP_SCHEDULE_RECURSIVE: u8 = 1;

impl FlightEvent {
    /// The event's JSONL rendering — one complete JSON object, same
    /// escaping rules as the slow-request log so both streams diff and
    /// grep uniformly.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(96);
        self.write_jsonl(&mut out);
        out
    }

    fn write_jsonl(&self, out: &mut String) {
        use std::fmt::Write;
        let event = |out: &mut String, name: &str| {
            out.push_str("{\"event\":\"");
            escape_json_into(name, out);
            out.push('"');
        };
        match self {
            FlightEvent::LayerOpened { layer, ready_gates } => {
                event(out, "layer_opened");
                let _ = write!(out, ",\"layer\":{layer},\"ready_gates\":{ready_gates}}}");
            }
            FlightEvent::LayerClosed { layer, executed } => {
                event(out, "layer_closed");
                let _ = write!(out, ",\"layer\":{layer},\"executed\":{executed}}}");
            }
            FlightEvent::CandidateChosen { layer, candidate, score_bits, margin_bits } => {
                event(out, "candidate_chosen");
                let _ = write!(out, ",\"layer\":{layer},\"candidate\":{candidate}");
                let score = f64::from_bits(*score_bits);
                let margin = f64::from_bits(*margin_bits);
                // NaN/inf are not JSON numbers; absent margins render null.
                if score.is_finite() {
                    let _ = write!(out, ",\"score\":{score}");
                } else {
                    out.push_str(",\"score\":null");
                }
                if margin.is_finite() {
                    let _ = write!(out, ",\"margin\":{margin}");
                } else {
                    out.push_str(",\"margin\":null");
                }
                out.push('}');
            }
            FlightEvent::StallFallback { layer, remaining } => {
                event(out, "stall_fallback");
                let _ = write!(out, ",\"layer\":{layer},\"remaining\":{remaining}}}");
            }
            FlightEvent::Shuttle {
                qubit,
                from_trap,
                to_trap,
                junctions,
                source_chain_len,
                dest_chain_len,
            } => {
                event(out, "shuttle");
                let _ = write!(
                    out,
                    ",\"qubit\":{qubit},\"from_trap\":{from_trap},\"to_trap\":{to_trap},\
                     \"junctions\":{junctions},\"source_chain_len\":{source_chain_len},\
                     \"dest_chain_len\":{dest_chain_len}}}"
                );
            }
            FlightEvent::SwapSchedule { trap, kind, emitted, selected } => {
                event(out, "swap_schedule");
                let _ = write!(
                    out,
                    ",\"trap\":{trap},\"kind\":{kind},\"emitted\":{emitted},\
                     \"selected\":{selected}}}"
                );
            }
        }
    }
}

/// Default ring capacity a compile's recorder is created with: enough
/// for the full decision stream of mid-size circuits, and a bounded,
/// predictable ~300 KiB worst case for pathological ones.
pub const DEFAULT_RECORDER_CAPACITY: usize = 4096;

/// A bounded, preallocated structured event ring. Pushing beyond
/// capacity overwrites the oldest event — never reallocates.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    /// Event storage; allocated once at construction, length grows to
    /// `capacity` and then stays there forever.
    buf: Vec<FlightEvent>,
    /// Index of the *oldest* event once the ring has wrapped.
    head: usize,
    /// Events overwritten because the ring was full.
    dropped: u64,
}

impl FlightRecorder {
    /// A recorder whose ring holds `capacity` events (at least 1). The
    /// full buffer is reserved here; recording never allocates.
    pub fn new(capacity: usize) -> Self {
        FlightRecorder { buf: Vec::with_capacity(capacity.max(1)), head: 0, dropped: 0 }
    }

    /// A recorder at [`DEFAULT_RECORDER_CAPACITY`].
    pub fn with_default_capacity() -> Self {
        Self::new(DEFAULT_RECORDER_CAPACITY)
    }

    /// Records one event, overwriting the oldest if the ring is full.
    #[inline]
    pub fn record(&mut self, event: FlightEvent) {
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.buf.len();
            self.dropped += 1;
        }
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// The ring's capacity in events.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &FlightEvent> {
        self.buf[self.head..].iter().chain(self.buf[..self.head].iter())
    }

    /// Freezes the recorder into an immutable [`FlightRecording`]
    /// (events in oldest-first order), consuming it.
    pub fn into_recording(self) -> FlightRecording {
        let capacity = self.capacity();
        let dropped = self.dropped;
        let mut events = Vec::with_capacity(self.buf.len());
        events.extend(self.events().copied());
        FlightRecording { events, dropped, capacity }
    }
}

/// The immutable product of a finished recorder: the retained event
/// stream (oldest first) plus how much the bounded ring had to drop.
/// Carried alongside a compile outcome (never inside the golden-compared
/// scheduler statistics, never on the wire as part of an outcome) and
/// kept alive by the service's trace journal next to the request span.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightRecording {
    /// Retained events, oldest first.
    pub events: Vec<FlightEvent>,
    /// Events the bounded ring overwrote.
    pub dropped: u64,
    /// The ring capacity the recording was taken with.
    pub capacity: usize,
}

impl FlightRecording {
    /// Renders the recording as JSONL: one event object per line,
    /// prefixed by a header line carrying the drop/capacity accounting —
    /// the same schema family as the slow-request log, so one tool reads
    /// both.
    pub fn to_jsonl_lines(&self) -> String {
        use std::fmt::Write;
        let mut out = String::with_capacity(32 + self.events.len() * 96);
        let _ = write!(
            out,
            "{{\"event\":\"recording\",\"events\":{},\"dropped\":{},\"capacity\":{}}}",
            self.events.len(),
            self.dropped,
            self.capacity
        );
        for event in &self.events {
            out.push('\n');
            event.write_jsonl(&mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shuttle(n: u64) -> FlightEvent {
        FlightEvent::Shuttle {
            qubit: n,
            from_trap: 0,
            to_trap: 1,
            junctions: 2,
            source_chain_len: 3,
            dest_chain_len: 4,
        }
    }

    #[test]
    fn ring_drops_oldest_without_reallocating() {
        let mut recorder = FlightRecorder::new(4);
        let initial_capacity = recorder.capacity();
        let base = recorder.buf.as_ptr();
        for n in 0..10 {
            recorder.record(shuttle(n));
        }
        // Same allocation, same capacity: the ring never grew.
        assert_eq!(recorder.capacity(), initial_capacity);
        assert_eq!(recorder.buf.as_ptr(), base, "ring reallocated");
        assert_eq!(recorder.len(), 4);
        assert_eq!(recorder.dropped(), 6);
        // Oldest events went first: 0..6 were overwritten, 6..10 remain
        // in order.
        let qubits: Vec<u64> = recorder
            .events()
            .map(|e| match e {
                FlightEvent::Shuttle { qubit, .. } => *qubit,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(qubits, vec![6, 7, 8, 9]);
        let recording = recorder.into_recording();
        assert_eq!(recording.events.len(), 4);
        assert_eq!(recording.dropped, 6);
        assert_eq!(recording.capacity, 4);
    }

    #[test]
    fn under_capacity_keeps_everything_in_order() {
        let mut recorder = FlightRecorder::new(8);
        recorder.record(FlightEvent::LayerOpened { layer: 1, ready_gates: 3 });
        recorder.record(FlightEvent::LayerClosed { layer: 1, executed: 2 });
        assert_eq!(recorder.len(), 2);
        assert_eq!(recorder.dropped(), 0);
        assert!(!recorder.is_empty());
        let events: Vec<FlightEvent> = recorder.events().copied().collect();
        assert_eq!(events[0], FlightEvent::LayerOpened { layer: 1, ready_gates: 3 });
        assert_eq!(events[1], FlightEvent::LayerClosed { layer: 1, executed: 2 });
    }

    #[test]
    fn events_render_as_one_json_object_per_line() {
        let mut recorder = FlightRecorder::new(8);
        recorder.record(FlightEvent::LayerOpened { layer: 1, ready_gates: 5 });
        recorder.record(FlightEvent::CandidateChosen {
            layer: 1,
            candidate: 3,
            score_bits: 1.5f64.to_bits(),
            margin_bits: 0.25f64.to_bits(),
        });
        recorder.record(FlightEvent::CandidateChosen {
            layer: 2,
            candidate: 0,
            score_bits: 2.0f64.to_bits(),
            margin_bits: f64::NAN.to_bits(),
        });
        recorder.record(FlightEvent::StallFallback { layer: 3, remaining: 7 });
        recorder.record(FlightEvent::SwapSchedule {
            trap: 2,
            kind: SWAP_SCHEDULE_RECURSIVE,
            emitted: 9,
            selected: 4,
        });
        let recording = recorder.into_recording();
        let text = recording.to_jsonl_lines();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 6, "header plus one line per event");
        assert_eq!(lines[0], "{\"event\":\"recording\",\"events\":5,\"dropped\":0,\"capacity\":8}");
        assert!(lines[1].contains("\"event\":\"layer_opened\""));
        assert!(lines[2].contains("\"score\":1.5") && lines[2].contains("\"margin\":0.25"));
        assert!(lines[3].contains("\"margin\":null"), "NaN margins render null: {}", lines[3]);
        assert!(lines[4].contains("\"remaining\":7"));
        assert!(lines[5].contains("\"selected\":4"));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "complete object: {line}");
        }
    }
}
