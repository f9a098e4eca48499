//! Zero-dependency observability layer for the BSC accelerator stack.
//!
//! Pieces, designed to be threaded through the simulator → MAC →
//! systolic-array → compiler → report pipeline:
//!
//! * [`metrics`] — [`HistogramSnapshot`], a plain fixed-bucket histogram
//!   its owner records into, with interpolated percentiles;
//! * [`metrics::sketch`] — an HDR-style integer [`QuantileSketch`] for
//!   tenant-level latency quantiles;
//! * [`trace`] — a bounded, droppable [`TraceRing`] of typed
//!   cycle-events ([`TraceEvent::PeFired`], [`TraceEvent::VectorStall`],
//!   [`TraceEvent::TileStart`], [`TraceEvent::WeightLoad`],
//!   [`TraceEvent::ModeSet`]);
//! * [`span`] — hierarchical wall-clock [`SpanCollector`] whose
//!   innermost-open-span cursor stamps every trace event with a
//!   correlation ID;
//! * [`timeline`] — reconstruction of per-PE busy/stall intervals and
//!   per-layer/pass tracks from a trace snapshot, plus an SVG
//!   utilization heatmap;
//! * [`perfetto`] — Chrome trace-event JSON export of a timeline,
//!   loadable in Perfetto or `chrome://tracing`;
//! * [`profile`] — the simulator's *self*-profiler: RAII scoped phases
//!   accumulating wall-clock time plus deterministic work counters,
//!   exported as a phase-breakdown JSON and a folded-stack file for
//!   flamegraph tooling;
//! * [`sink`] — hand-rolled JSON serialization ([`JsonBuilder`]) of
//!   histograms and trace snapshots;
//! * [`json`] — a strict RFC 8259 parser so exported documents can be
//!   validated and diffed without external crates (the workspace builds
//!   fully offline).
//!
//! # Example
//!
//! ```
//! use bsc_telemetry::{HistogramSnapshot, Telemetry, TraceEvent};
//!
//! let tel = Telemetry::new(1024);
//! let run = tel.spans.begin("matmul");
//! // Pushed while `run` is open, so the event carries its span ID.
//! tel.trace.push(TraceEvent::PeFired { cycle: 0, pe: 0, row: 0, macs: 4 });
//! drop(run);
//!
//! let snap = tel.trace.snapshot();
//! assert_eq!(snap.events.len(), 1);
//! assert_ne!(snap.span_of(0), bsc_telemetry::span::NO_SPAN);
//! let json = bsc_telemetry::sink::trace_to_json(&snap);
//! assert!(json.contains("\"kind\":\"pe_fired\""));
//!
//! let mut waits = HistogramSnapshot::new(&[10, 100]);
//! waits.record(3);
//! waits.record(250);
//! assert_eq!(waits.buckets, vec![1, 0, 1]);
//! assert_eq!((waits.count, waits.min, waits.max), (2, 3, 250));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod perfetto;
pub mod profile;
pub mod sink;
pub mod span;
pub mod timeline;
pub mod trace;

pub use json::{parse_json, JsonParseError, JsonValue};
pub use metrics::{HistogramSnapshot, QuantileSketch, SketchSnapshot};
pub use perfetto::perfetto_json;
pub use profile::{PhaseGuard, PhaseHandle, PhaseSnapshot, ProfileSnapshot, Profiler};
pub use sink::JsonBuilder;
pub use span::{SpanCollector, SpanGuard, SpanRecord, SpanSnapshot, NO_SPAN};
pub use timeline::{build_timeline, utilization_svg, PeTimeline, Timeline};
pub use trace::{TraceEvent, TraceRing, TraceSnapshot};

/// The standard bundle handed through the stack: one trace ring and one
/// span collector.  Cloning shares both, so every layer records into the
/// same store; the trace ring is wired to the span collector's cursor,
/// so cycle events are stamped with the innermost open span's
/// correlation ID.
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// Bounded cycle-event trace.
    pub trace: TraceRing,
    /// Hierarchical wall-clock spans.
    pub spans: SpanCollector,
}

impl Telemetry {
    /// A bundle whose trace ring holds at most `trace_capacity` events
    /// (0 counts events without storing them, see [`TraceRing::total`]).
    pub fn new(trace_capacity: usize) -> Self {
        let spans = SpanCollector::new();
        let trace = TraceRing::new(trace_capacity).with_span_cursor(spans.cursor());
        Telemetry { trace, spans }
    }

    /// A bundle sharing this one's trace ring and span store, with its
    /// own span cursor (see [`SpanCollector::fork`]) that the trace ring
    /// stamps events from.  Give each worker thread one, so spans begun
    /// concurrently never parent each other.
    pub fn fork(&self) -> Telemetry {
        let spans = self.spans.fork();
        let trace = self.trace.clone().with_span_cursor(spans.cursor());
        Telemetry { trace, spans }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_shares_state_across_clones() {
        let tel = Telemetry::new(4);
        let tel2 = tel.clone();
        tel.trace.push(TraceEvent::VectorStall { cycle: 0, pe: 0 });
        tel2.trace.push(TraceEvent::VectorStall { cycle: 1, pe: 0 });
        drop(tel2.spans.begin("shared"));
        assert_eq!(tel.trace.len(), 2);
        assert!(tel.spans.snapshot().by_name("shared").is_some());
    }

    #[test]
    fn spans_stamp_trace_events_through_the_bundle() {
        let tel = Telemetry::new(8);
        tel.trace.push(TraceEvent::VectorStall { cycle: 0, pe: 0 });
        let guard = tel.spans.begin("work");
        let id = guard.id();
        tel.trace.push(TraceEvent::VectorStall { cycle: 1, pe: 0 });
        drop(guard);
        tel.trace.push(TraceEvent::VectorStall { cycle: 2, pe: 0 });
        let snap = tel.trace.snapshot();
        assert_eq!(snap.span_of(0), NO_SPAN);
        assert_eq!(snap.span_of(1), id);
        assert_eq!(snap.span_of(2), NO_SPAN);
    }

    #[test]
    fn a_fork_shares_every_store_but_stamps_events_from_its_own_cursor() {
        let tel = Telemetry::new(8);
        let batch = tel.spans.begin("batch");
        let fork = tel.fork();
        let job = fork.spans.begin("job");
        fork.trace.push(TraceEvent::VectorStall { cycle: 0, pe: 0 });
        tel.trace.push(TraceEvent::VectorStall { cycle: 1, pe: 0 });
        let snap = tel.trace.snapshot();
        assert_eq!(snap.span_of(0), job.id());
        assert_eq!(snap.span_of(1), batch.id());
        assert_eq!(tel.spans.snapshot().by_name("job").unwrap().parent, batch.id());
    }
}
