//! Zero-dependency observability layer for the BSC accelerator stack.
//!
//! Pieces, designed to be threaded through the simulator → MAC →
//! systolic-array → compiler → report pipeline:
//!
//! * [`metrics`] — a [`Registry`] of named monotonic [`Counter`]s,
//!   [`Gauge`]s and fixed-bucket [`Histogram`]s behind cheap atomic
//!   handles, plus [`ScopedTimer`] for wall-clock phase timing;
//! * [`metrics::labels`] — [`LabeledCounter`] families keyed by
//!   canonical [`LabelSet`]s, and an HDR-style integer
//!   [`QuantileSketch`] for tenant-level latency quantiles;
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
//! * [`sink`] — hand-rolled JSON serialization of snapshots;
//! * [`json`] — a strict RFC 8259 parser so exported documents can be
//!   validated and diffed without external crates (the workspace builds
//!   fully offline).
//!
//! # Example
//!
//! ```
//! use bsc_telemetry::{Telemetry, TraceEvent};
//!
//! let tel = Telemetry::new(1024);
//! let fired = tel.metrics.counter("pe.fired");
//! fired.add(3);
//! let run = tel.spans.begin("matmul");
//! // Pushed while `run` is open, so the event carries its span ID.
//! tel.trace.push(TraceEvent::PeFired { cycle: 0, pe: 0, row: 0, macs: 4 });
//! drop(run);
//!
//! let json = bsc_telemetry::sink::metrics_to_json(&tel.metrics.snapshot());
//! assert!(json.contains("\"pe.fired\":3"));
//! let snap = tel.trace.snapshot();
//! assert_eq!(snap.events.len(), 1);
//! assert_ne!(snap.span_of(0), bsc_telemetry::span::NO_SPAN);
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
pub use metrics::{
    Counter, Gauge, Histogram, HistogramSnapshot, LabelSet, LabeledCounter, MetricsSnapshot,
    QuantileSketch, Registry, ScopedTimer, SketchSnapshot,
};
pub use perfetto::perfetto_json;
pub use profile::{PhaseGuard, PhaseHandle, PhaseSnapshot, ProfileSnapshot, Profiler};
pub use sink::JsonBuilder;
pub use span::{SpanCollector, SpanGuard, SpanRecord, SpanSnapshot, NO_SPAN};
pub use timeline::{build_timeline, utilization_svg, PeTimeline, Timeline};
pub use trace::{TraceEvent, TraceRing, TraceSnapshot};

/// The standard bundle handed through the stack: one metrics registry,
/// one trace ring and one span collector.  Cloning shares all three, so
/// every layer records into the same store; the trace ring is wired to
/// the span collector's cursor, so cycle events are stamped with the
/// innermost open span's correlation ID.
#[derive(Debug, Clone)]
pub struct Telemetry {
    /// Named counters, gauges, histograms and timers.
    pub metrics: Registry,
    /// Bounded cycle-event trace.
    pub trace: TraceRing,
    /// Hierarchical wall-clock spans.
    pub spans: SpanCollector,
}

impl Default for Telemetry {
    /// Equivalent to [`Telemetry::metrics_only`]; the cursor wiring is
    /// preserved even with an event-less ring so accounting stays exact.
    fn default() -> Self {
        Telemetry::metrics_only()
    }
}

impl Telemetry {
    /// A bundle whose trace ring holds at most `trace_capacity` events.
    pub fn new(trace_capacity: usize) -> Self {
        let spans = SpanCollector::new();
        let trace = TraceRing::new(trace_capacity).with_span_cursor(spans.cursor());
        Telemetry { metrics: Registry::new(), trace, spans }
    }

    /// A bundle sharing this one's registry, trace ring and span store,
    /// with its own span cursor (see [`SpanCollector::fork`]) that the
    /// trace ring stamps events from.  Give each worker thread one, so
    /// spans begun concurrently never parent each other.
    pub fn fork(&self) -> Telemetry {
        let spans = self.spans.fork();
        let trace = self.trace.clone().with_span_cursor(spans.cursor());
        Telemetry { metrics: self.metrics.clone(), trace, spans }
    }

    /// A bundle that accumulates metrics but stores no trace events
    /// (events are still counted, see [`TraceRing::total`]).
    pub fn metrics_only() -> Self {
        Telemetry::new(0)
    }

    /// Publishes the trace ring's loss accounting into the metrics
    /// registry as `telemetry.trace.total` / `telemetry.trace.dropped`
    /// counters, so truncated traces are visible in every metrics
    /// export.  Returns the number of dropped events.
    pub fn publish_trace_stats(&self) -> u64 {
        let total = self.trace.total();
        let dropped = self.trace.dropped();
        let tc = self.metrics.counter("telemetry.trace.total");
        tc.add(total.saturating_sub(tc.get()));
        let dc = self.metrics.counter("telemetry.trace.dropped");
        dc.add(dropped.saturating_sub(dc.get()));
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_shares_state_across_clones() {
        let tel = Telemetry::new(4);
        let tel2 = tel.clone();
        tel.metrics.counter("c").inc();
        tel2.metrics.counter("c").inc();
        tel2.trace.push(TraceEvent::VectorStall { cycle: 0, pe: 0 });
        assert_eq!(tel.metrics.snapshot().counter("c"), 2);
        assert_eq!(tel.trace.len(), 1);
    }

    #[test]
    fn metrics_only_counts_trace_without_storing() {
        let tel = Telemetry::metrics_only();
        tel.trace.push(TraceEvent::VectorStall { cycle: 0, pe: 0 });
        assert!(tel.trace.is_empty());
        assert_eq!(tel.trace.total(), 1);
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
        fork.metrics.counter("c").inc();
        let snap = tel.trace.snapshot();
        assert_eq!(snap.span_of(0), job.id());
        assert_eq!(snap.span_of(1), batch.id());
        assert_eq!(tel.metrics.snapshot().counter("c"), 1);
        assert_eq!(tel.spans.snapshot().by_name("job").unwrap().parent, batch.id());
    }

    #[test]
    fn publish_trace_stats_is_idempotent() {
        let tel = Telemetry::new(1);
        tel.trace.push(TraceEvent::VectorStall { cycle: 0, pe: 0 });
        tel.trace.push(TraceEvent::VectorStall { cycle: 1, pe: 0 });
        assert_eq!(tel.publish_trace_stats(), 1);
        assert_eq!(tel.publish_trace_stats(), 1);
        let snap = tel.metrics.snapshot();
        assert_eq!(snap.counter("telemetry.trace.total"), 2);
        assert_eq!(snap.counter("telemetry.trace.dropped"), 1);
    }
}
