//! Bounded cycle-event tracing.
//!
//! A [`TraceRing`] holds the most recent [`TraceEvent`]s up to a fixed
//! capacity; older events are dropped (and counted) rather than growing
//! memory without bound.  Tracing a million-cycle run therefore costs a
//! constant-size buffer, and the `dropped` counter makes the truncation
//! explicit instead of silent.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::span::NO_SPAN;

/// One timestamped micro-architectural event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A processing element consumed a weight/feature pair and accumulated.
    PeFired {
        /// Array cycle index within the run.
        cycle: u64,
        /// PE index (column in the vector-systolic row).
        pe: u32,
        /// Feature-matrix row being accumulated.
        row: u32,
        /// Scalar multiply-accumulates performed this fire (vector length).
        macs: u32,
    },
    /// A PE held exactly one operand this cycle and could not fire.
    VectorStall {
        /// Array cycle index within the run.
        cycle: u64,
        /// PE index.
        pe: u32,
    },
    /// The tile compiler started one matmul pass of a layer.
    TileStart {
        /// Layer index within the network.
        layer: u32,
        /// Pass index within the layer's schedule.
        pass: u32,
        /// Feature rows in this tile.
        rows: u32,
        /// Output columns (PEs engaged) in this tile.
        cols: u32,
        /// Inner (reduction) dimension of this tile.
        inner: u32,
    },
    /// A PE latched a weight vector.
    WeightLoad {
        /// Array cycle index within the run.
        cycle: u64,
        /// PE index.
        pe: u32,
        /// Weight elements latched.
        elems: u32,
    },
    /// The precision mode was (re)configured — the tile compiler's
    /// `SetMode` made visible, so timelines can attribute MAC throughput
    /// to the active mode.
    ModeSet {
        /// Operand width in bits (8, 4 or 2).
        bits: u32,
    },
}

impl TraceEvent {
    /// A stable lowercase tag naming the event variant.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::PeFired { .. } => "pe_fired",
            TraceEvent::VectorStall { .. } => "vector_stall",
            TraceEvent::TileStart { .. } => "tile_start",
            TraceEvent::WeightLoad { .. } => "weight_load",
            TraceEvent::ModeSet { .. } => "mode_set",
        }
    }
}

#[derive(Debug, Default)]
struct RingInner {
    capacity: usize,
    buf: VecDeque<TraceEvent>,
    /// Correlation span IDs, in lockstep with `buf`.
    spans: VecDeque<u64>,
    total: u64,
    dropped: u64,
}

/// A bounded, shareable ring buffer of [`TraceEvent`]s.  Cloning shares
/// the buffer.  A ring of capacity 0 counts events but stores none —
/// the cheap "tracing off, accounting on" configuration.
///
/// When built with [`TraceRing::with_span_cursor`] (which
/// [`crate::Telemetry`] does automatically), every pushed event is
/// stamped with the innermost open span's correlation ID, so timeline
/// reconstruction can place cycle events inside their wall-clock parent
/// spans.
#[derive(Debug, Clone, Default)]
pub struct TraceRing {
    inner: Arc<Mutex<RingInner>>,
    /// Innermost-open-span cursor shared with a
    /// [`SpanCollector`](crate::span::SpanCollector); a standalone ring
    /// owns a private cursor stuck at [`NO_SPAN`].
    span_cursor: Arc<AtomicU64>,
}

impl TraceRing {
    /// A ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            inner: Arc::new(Mutex::new(RingInner {
                capacity,
                buf: VecDeque::with_capacity(capacity.min(4096)),
                spans: VecDeque::with_capacity(capacity.min(4096)),
                total: 0,
                dropped: 0,
            })),
            span_cursor: Arc::new(AtomicU64::new(NO_SPAN)),
        }
    }

    /// Wires this ring to a span collector's cursor so pushed events are
    /// stamped with the currently open span's ID.
    #[must_use]
    pub fn with_span_cursor(mut self, cursor: Arc<AtomicU64>) -> Self {
        self.span_cursor = cursor;
        self
    }

    /// Appends an event, evicting the oldest when full.
    pub fn push(&self, ev: TraceEvent) {
        let span = self.span_cursor.load(Ordering::Relaxed);
        let mut g = self.inner.lock().expect("trace ring poisoned");
        g.total += 1;
        if g.capacity == 0 {
            g.dropped += 1;
            return;
        }
        if g.buf.len() == g.capacity {
            g.buf.pop_front();
            g.spans.pop_front();
            g.dropped += 1;
        }
        g.buf.push_back(ev);
        g.spans.push_back(span);
    }

    /// Events currently buffered.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("trace ring poisoned").buf.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever pushed (buffered + dropped).
    pub fn total(&self) -> u64 {
        self.inner.lock().expect("trace ring poisoned").total
    }

    /// Events evicted or discarded because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("trace ring poisoned").dropped
    }

    /// A point-in-time copy of the buffered events plus the loss counters.
    pub fn snapshot(&self) -> TraceSnapshot {
        let g = self.inner.lock().expect("trace ring poisoned");
        TraceSnapshot {
            events: g.buf.iter().cloned().collect(),
            event_spans: g.spans.iter().copied().collect(),
            total: g.total,
            dropped: g.dropped,
        }
    }

    /// Clears buffered events and counters.
    pub fn clear(&self) {
        let mut g = self.inner.lock().expect("trace ring poisoned");
        g.buf.clear();
        g.spans.clear();
        g.total = 0;
        g.dropped = 0;
    }
}

/// Point-in-time copy of a [`TraceRing`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceSnapshot {
    /// Buffered events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Correlation span ID of each event, in lockstep with `events`
    /// ([`NO_SPAN`] when no span was open at push time).
    pub event_spans: Vec<u64>,
    /// Total events ever pushed.
    pub total: u64,
    /// Events lost to the capacity bound.
    pub dropped: u64,
}

impl TraceSnapshot {
    /// The correlation span of event `i` ([`NO_SPAN`] when unknown).
    pub fn span_of(&self, i: usize) -> u64 {
        self.event_spans.get(i).copied().unwrap_or(NO_SPAN)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_the_newest_events() {
        let ring = TraceRing::new(2);
        for cycle in 0..5 {
            ring.push(TraceEvent::VectorStall { cycle, pe: 0 });
        }
        let snap = ring.snapshot();
        assert_eq!(snap.total, 5);
        assert_eq!(snap.dropped, 3);
        assert_eq!(
            snap.events,
            vec![
                TraceEvent::VectorStall { cycle: 3, pe: 0 },
                TraceEvent::VectorStall { cycle: 4, pe: 0 },
            ]
        );
    }

    #[test]
    fn zero_capacity_counts_without_storing() {
        let ring = TraceRing::new(0);
        ring.push(TraceEvent::PeFired { cycle: 1, pe: 2, row: 3, macs: 4 });
        assert!(ring.is_empty());
        assert_eq!(ring.total(), 1);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn clones_share_the_buffer() {
        let ring = TraceRing::new(8);
        let other = ring.clone();
        other.push(TraceEvent::WeightLoad { cycle: 0, pe: 1, elems: 4 });
        assert_eq!(ring.len(), 1);
    }

    #[test]
    fn kinds_are_stable_tags() {
        assert_eq!(TraceEvent::PeFired { cycle: 0, pe: 0, row: 0, macs: 0 }.kind(), "pe_fired");
        assert_eq!(TraceEvent::VectorStall { cycle: 0, pe: 0 }.kind(), "vector_stall");
        assert_eq!(
            TraceEvent::TileStart { layer: 0, pass: 0, rows: 0, cols: 0, inner: 0 }.kind(),
            "tile_start"
        );
        assert_eq!(TraceEvent::WeightLoad { cycle: 0, pe: 0, elems: 0 }.kind(), "weight_load");
        assert_eq!(TraceEvent::ModeSet { bits: 8 }.kind(), "mode_set");
    }

    #[test]
    fn events_are_stamped_with_the_cursor_span() {
        use std::sync::atomic::Ordering;
        let cursor = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(NO_SPAN));
        let ring = TraceRing::new(8).with_span_cursor(cursor.clone());
        ring.push(TraceEvent::VectorStall { cycle: 0, pe: 0 });
        cursor.store(7, Ordering::Relaxed);
        ring.push(TraceEvent::VectorStall { cycle: 1, pe: 0 });
        let snap = ring.snapshot();
        assert_eq!(snap.event_spans, vec![NO_SPAN, 7]);
        assert_eq!(snap.span_of(1), 7);
        assert_eq!(snap.span_of(99), NO_SPAN);
    }

    #[test]
    fn eviction_keeps_spans_in_lockstep() {
        use std::sync::atomic::Ordering;
        let cursor = std::sync::Arc::new(std::sync::atomic::AtomicU64::new(NO_SPAN));
        let ring = TraceRing::new(2).with_span_cursor(cursor.clone());
        for cycle in 0..4 {
            cursor.store(cycle + 1, Ordering::Relaxed);
            ring.push(TraceEvent::VectorStall { cycle, pe: 0 });
        }
        let snap = ring.snapshot();
        assert_eq!(snap.events.len(), snap.event_spans.len());
        assert_eq!(snap.event_spans, vec![3, 4]);
    }

    #[test]
    fn clear_resets_counters() {
        let ring = TraceRing::new(1);
        ring.push(TraceEvent::VectorStall { cycle: 0, pe: 0 });
        ring.push(TraceEvent::VectorStall { cycle: 1, pe: 0 });
        ring.clear();
        assert_eq!(ring.total(), 0);
        assert_eq!(ring.dropped(), 0);
        assert!(ring.is_empty());
    }
}
