//! Hierarchical wall-clock spans with correlation IDs.
//!
//! A [`SpanCollector`] records nestable, timestamped begin/end spans —
//! `run_network` → `compiler.execute` → `systolic.matmul` and the
//! characterization phases — so a whole run can be reconstructed as a
//! tree after the fact.  Every span gets a non-zero correlation ID; the
//! collector always knows the *innermost open span*, and a [`TraceRing`]
//! sharing that cursor (see [`crate::Telemetry`]) stamps each cycle
//! event with it, so `TileStart` / `PeFired` / `VectorStall` events land
//! inside their parent span when the timeline is rebuilt.
//!
//! Spans are RAII: [`SpanCollector::begin`] returns a [`SpanGuard`] that
//! closes the span (and restores its parent as current) on drop.
//!
//! The cursor belongs to one thread of control.  Clones share it, so a
//! worker thread takes a [`SpanCollector::fork`] instead: the same store
//! with its own cursor, so spans begun concurrently on different threads
//! never become each other's parents.
//!
//! [`TraceRing`]: crate::trace::TraceRing

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// ID of "no span": events recorded outside any open span carry this.
pub const NO_SPAN: u64 = 0;

/// One recorded span: a named interval with a parent link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Correlation ID (non-zero, unique within the collector).
    pub id: u64,
    /// Parent span ID, or [`NO_SPAN`] for a root span.
    pub parent: u64,
    /// Span name (e.g. `engine.run_batch`, `layer.conv8`).
    pub name: String,
    /// Begin timestamp, nanoseconds since the collector's epoch.
    pub start_ns: u64,
    /// End timestamp, nanoseconds since the collector's epoch
    /// (`None` while the span is still open).
    pub end_ns: Option<u64>,
    /// Free-form key/value annotations (tile shapes, cycle counts, ...).
    pub args: Vec<(String, String)>,
}

impl SpanRecord {
    /// Span duration in nanoseconds (0 while still open).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.map_or(0, |e| e.saturating_sub(self.start_ns))
    }
}

/// The span store.  IDs are handed out in push order under the lock,
/// starting at 1, so span `id` sits at index `id − 1`.
#[derive(Debug, Default)]
struct CollectorInner {
    spans: Vec<SpanRecord>,
    next_id: u64,
}

impl CollectorInner {
    fn record(&mut self, id: u64) -> Option<&mut SpanRecord> {
        let rec = self.spans.get_mut(span_index(id)?)?;
        debug_assert_eq!(rec.id, id, "span IDs follow push order");
        Some(rec)
    }
}

/// The store index of span `id`, which IDs from 1 in push order give.
fn span_index(id: u64) -> Option<usize> {
    usize::try_from(id.checked_sub(1)?).ok()
}

/// A shareable collector of hierarchical spans.  Cloning shares the
/// store, like the other telemetry handles.
#[derive(Debug, Clone)]
pub struct SpanCollector {
    inner: Arc<Mutex<CollectorInner>>,
    /// Innermost open span — the cursor trace rings read to stamp events.
    current: Arc<AtomicU64>,
    epoch: Instant,
}

impl Default for SpanCollector {
    fn default() -> Self {
        SpanCollector {
            inner: Arc::new(Mutex::new(CollectorInner { spans: Vec::new(), next_id: 1 })),
            current: Arc::new(AtomicU64::new(NO_SPAN)),
            epoch: Instant::now(),
        }
    }
}

impl SpanCollector {
    /// An empty collector whose epoch is "now".
    pub fn new() -> Self {
        SpanCollector::default()
    }

    /// The shared cursor holding the innermost open span's ID.  A
    /// [`TraceRing`](crate::trace::TraceRing) built with
    /// [`TraceRing::with_span_cursor`](crate::trace::TraceRing::with_span_cursor)
    /// reads it on every push.
    pub fn cursor(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.current)
    }

    /// A handle on the same span store with its own cursor, starting at
    /// this handle's innermost open span.  Spans begun through the fork
    /// nest under that span and under each other, never under a span
    /// opened through another cursor — one fork per worker thread.
    pub fn fork(&self) -> SpanCollector {
        SpanCollector {
            inner: Arc::clone(&self.inner),
            current: Arc::new(AtomicU64::new(self.current_id())),
            epoch: self.epoch,
        }
    }

    /// ID of the innermost open span ([`NO_SPAN`] when none is open).
    pub fn current_id(&self) -> u64 {
        self.current.load(Ordering::Relaxed)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested under the current one and makes it current.
    /// The returned guard closes it on drop.
    pub fn begin(&self, name: &str) -> SpanGuard {
        let start_ns = self.now_ns();
        let parent = self.current.load(Ordering::Relaxed);
        let id = {
            let mut g = self.inner.lock().expect("span collector poisoned");
            let id = g.next_id;
            g.next_id += 1;
            g.spans.push(SpanRecord {
                id,
                parent,
                name: name.to_string(),
                start_ns,
                end_ns: None,
                args: Vec::new(),
            });
            id
        };
        self.current.store(id, Ordering::Relaxed);
        SpanGuard { collector: self.clone(), id, parent }
    }

    fn end(&self, id: u64, parent: u64) {
        let end_ns = self.now_ns();
        self.current.store(parent, Ordering::Relaxed);
        let mut g = self.inner.lock().expect("span collector poisoned");
        if let Some(rec) = g.record(id) {
            rec.end_ns = Some(end_ns);
        }
    }

    fn annotate(&self, id: u64, key: &str, value: String) {
        let mut g = self.inner.lock().expect("span collector poisoned");
        if let Some(rec) = g.record(id) {
            rec.args.push((key.to_string(), value));
        }
    }

    /// A point-in-time copy of every recorded span, in begin order.
    pub fn snapshot(&self) -> SpanSnapshot {
        let g = self.inner.lock().expect("span collector poisoned");
        SpanSnapshot { spans: g.spans.clone() }
    }

    /// Number of spans recorded so far (open and closed).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("span collector poisoned").spans.len()
    }

    /// Whether no span has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// RAII handle to an open span; closing happens on drop.
#[derive(Debug)]
pub struct SpanGuard {
    collector: SpanCollector,
    id: u64,
    parent: u64,
}

impl SpanGuard {
    /// This span's correlation ID.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Attaches a key/value annotation to the span.
    pub fn annotate(&self, key: &str, value: impl ToString) -> &Self {
        self.collector.annotate(self.id, key, value.to_string());
        self
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.collector.end(self.id, self.parent);
    }
}

/// Point-in-time copy of a [`SpanCollector`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpanSnapshot {
    /// Recorded spans in begin order (parents before children).
    pub spans: Vec<SpanRecord>,
}

impl SpanSnapshot {
    /// The first span with the given name, when present.
    pub fn by_name(&self, name: &str) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// The span with ID `id`, when present.  Constant time: IDs follow
    /// the store's push order.
    pub fn get(&self, id: u64) -> Option<&SpanRecord> {
        self.spans.get(span_index(id)?).filter(|s| s.id == id)
    }

    /// Direct children of the span with ID `parent`, in begin order.
    pub fn children(&self, parent: u64) -> Vec<&SpanRecord> {
        self.spans.iter().filter(|s| s.parent == parent).collect()
    }

    /// Nesting depth of a span (roots are depth 0).  Broken parent links
    /// terminate the walk rather than looping.
    pub fn depth(&self, id: u64) -> usize {
        let mut depth = 0;
        let mut cur = id;
        for _ in 0..self.spans.len() {
            let Some(rec) = self.get(cur) else { break };
            if rec.parent == NO_SPAN {
                break;
            }
            cur = rec.parent;
            depth += 1;
        }
        depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_close_in_order() {
        let col = SpanCollector::new();
        assert_eq!(col.current_id(), NO_SPAN);
        {
            let outer = col.begin("outer");
            assert_eq!(col.current_id(), outer.id());
            {
                let inner = col.begin("inner");
                inner.annotate("cycles", 42u64);
                assert_eq!(col.current_id(), inner.id());
            }
            assert_eq!(col.current_id(), outer.id());
        }
        assert_eq!(col.current_id(), NO_SPAN);

        let snap = col.snapshot();
        assert_eq!(snap.spans.len(), 2);
        let outer = snap.by_name("outer").unwrap();
        let inner = snap.by_name("inner").unwrap();
        assert_eq!(outer.parent, NO_SPAN);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.args, vec![("cycles".to_string(), "42".to_string())]);
        assert!(outer.end_ns.is_some() && inner.end_ns.is_some());
        assert!(inner.start_ns >= outer.start_ns);
        assert_eq!(snap.depth(inner.id), 1);
        assert_eq!(snap.depth(outer.id), 0);
        assert_eq!(snap.children(outer.id).len(), 1);
        assert_eq!(snap.get(inner.id), Some(inner));
        assert_eq!((snap.get(NO_SPAN), snap.get(3)), (None, None));
    }

    #[test]
    fn clones_share_the_store_and_cursor() {
        let col = SpanCollector::new();
        let col2 = col.clone();
        let g = col.begin("a");
        assert_eq!(col2.current_id(), g.id());
        drop(g);
        assert_eq!(col2.len(), 1);
    }

    #[test]
    fn forked_cursors_keep_concurrent_spans_on_their_own_thread() {
        use std::sync::Barrier;
        let col = SpanCollector::new();
        let root = col.begin("batch");
        let barrier = Barrier::new(2);
        let ids: Vec<(u64, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..2)
                .map(|t| {
                    let (fork, barrier) = (col.fork(), &barrier);
                    scope.spawn(move || {
                        // Both threads hold their outer span open while
                        // the other begins its inner one.
                        let outer = fork.begin(&format!("job{t}"));
                        barrier.wait();
                        let inner = fork.begin(&format!("layer{t}"));
                        barrier.wait();
                        (outer.id(), inner.id())
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(col.current_id(), root.id(), "forks never move the parent's cursor");
        drop(root);
        let snap = col.snapshot();
        assert_eq!(snap.spans.len(), 5, "forks share the store");
        let parent = |id: u64| snap.get(id).unwrap().parent;
        let batch = snap.by_name("batch").unwrap().id;
        for (outer, inner) in ids {
            assert_eq!(parent(outer), batch);
            assert_eq!(parent(inner), outer, "a span nests under its own thread's span");
        }
    }

    #[test]
    fn sequential_roots_are_siblings() {
        let col = SpanCollector::new();
        drop(col.begin("first"));
        drop(col.begin("second"));
        let snap = col.snapshot();
        assert!(snap.spans.iter().all(|s| s.parent == NO_SPAN));
        assert_ne!(snap.spans[0].id, snap.spans[1].id);
    }
}
