//! The traced run's instruments: a span recorder that the benchmark wraps
//! around every call it makes into a layer's public function, and a
//! counting global allocator that charges allocations to the innermost
//! open span's layer.
//!
//! Nothing here reaches into the program: spans open and close in the
//! benchmark's own code, so a layer's time is the time of the calls the
//! benchmark made into it.  A layer's self time is its spans' durations
//! minus the durations of their direct children.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::time::Instant;

/// The stack layers spans are charged to, named after the modules.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `bsc_mac::ppa`: gate-level characterization.
    MacPpa,
    /// `bsc_synth::analyze`: STA, area and power at one clock period.
    SynthAnalyze,
    /// `bsc_systolic::mapping`: the compute-only layer schedule.
    SystolicMapping,
    /// `bsc_systolic::mem`: the tiled, DMA-aware layer schedule.
    SystolicMem,
    /// `bsc_systolic::energy`: the array energy model.
    SystolicEnergy,
    /// `bsc_accel::accelerator`: network evaluation (`run_network`).
    CoreAccelerator,
    /// `bsc_accel::engine`: batch admission, planning and execution.
    CoreEngine,
    /// `bsc_accel::des`: arrival sampling and the event queue.
    CoreDes,
    /// `bsc_accel::cluster`: the online event loop.
    CoreCluster,
    /// `bsc_accel::slo`: the SLO accountant fold.
    CoreSlo,
    /// `bsc_bench`: figure functions, rendering and JSON export.
    Bench,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 11] = [
        Layer::MacPpa,
        Layer::SynthAnalyze,
        Layer::SystolicMapping,
        Layer::SystolicMem,
        Layer::SystolicEnergy,
        Layer::CoreAccelerator,
        Layer::CoreEngine,
        Layer::CoreDes,
        Layer::CoreCluster,
        Layer::CoreSlo,
        Layer::Bench,
    ];

    /// The layer's metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::MacPpa => "mac.ppa",
            Layer::SynthAnalyze => "synth.analyze",
            Layer::SystolicMapping => "systolic.mapping",
            Layer::SystolicMem => "systolic.mem",
            Layer::SystolicEnergy => "systolic.energy",
            Layer::CoreAccelerator => "core.accelerator",
            Layer::CoreEngine => "core.engine",
            Layer::CoreDes => "core.des",
            Layer::CoreCluster => "core.cluster",
            Layer::CoreSlo => "core.slo",
            Layer::Bench => "bench",
        }
    }

    fn slot(self) -> usize {
        self as usize + 1
    }
}

// ---------------------------------------------------------------------------
// Counting allocator
// ---------------------------------------------------------------------------

const SLOTS: usize = Layer::ALL.len() + 1;
/// Whether allocations are being counted (only during one traced
/// repetition, so untraced runs pay a single relaxed load per call).
static COUNTING: AtomicBool = AtomicBool::new(false);
/// Slot allocations are charged to: 0 outside any span, else the open
/// span's layer.  Global rather than thread-local, so allocations made by
/// worker threads inside a call are charged to the span that made it.
static CURRENT: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];
static ALLOC_BYTES: [AtomicU64; SLOTS] = [const { AtomicU64::new(0) }; SLOTS];

/// The system allocator with per-layer allocation counters.  `realloc`
/// counts as one allocation of the new size.
pub struct CountingAlloc;

fn charge(size: usize) {
    if COUNTING.load(Relaxed) {
        let slot = CURRENT.load(Relaxed);
        ALLOCS[slot].fetch_add(1, Relaxed);
        ALLOC_BYTES[slot].fetch_add(size as u64, Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping only touches atomics
// and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        charge(new_size);
        // SAFETY: `ptr`/`layout` came from `System` through this allocator;
        // the caller guarantees `new_size` is valid for `layout.align()`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Per-layer allocation counts of one counting window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocCounts {
    /// Allocation calls per slot (0 = outside any span).
    pub allocs: [u64; SLOTS],
    /// Bytes requested per slot.
    pub bytes: [u64; SLOTS],
}

impl AllocCounts {
    /// Allocations charged to `layer`.
    pub fn allocs(&self, layer: Layer) -> u64 {
        self.allocs[layer.slot()]
    }

    /// Bytes charged to `layer`.
    pub fn bytes(&self, layer: Layer) -> u64 {
        self.bytes[layer.slot()]
    }
}

/// Zeroes the counters and starts counting.
pub fn start_counting() {
    for slot in 0..SLOTS {
        ALLOCS[slot].store(0, Relaxed);
        ALLOC_BYTES[slot].store(0, Relaxed);
    }
    COUNTING.store(true, Relaxed);
}

/// Stops counting and returns what was counted since [`start_counting`].
pub fn stop_counting() -> AllocCounts {
    COUNTING.store(false, Relaxed);
    let mut counts = AllocCounts::default();
    for slot in 0..SLOTS {
        counts.allocs[slot] = ALLOCS[slot].load(Relaxed);
        counts.bytes[slot] = ALLOC_BYTES[slot].load(Relaxed);
    }
    counts
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// Which part of a traced repetition a span belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Part {
    /// The workload's own work (traced set-up and traced replay): the
    /// per-layer table's time and call counts come from these spans.
    Main,
    /// Measurement probes that re-run one public call in isolation to
    /// read a work unit the main path hides; they feed only the named
    /// probe metrics.
    Probe,
}

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// 1-based span id.
    pub id: usize,
    /// Parent span id (0 for a top-level span).
    pub parent: usize,
    /// Layer the span is charged to.
    pub layer: Layer,
    /// The public function called.
    pub name: &'static str,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    /// Nanoseconds since the recorder started.
    pub end_ns: u64,
    /// Traced repetition the span belongs to.
    pub rep: u32,
    /// Main work or probe.
    pub part: Part,
    /// True for a span synthesized from the program's own phase table
    /// (its duration is measured; its position inside the parent is not).
    pub synthetic: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Keys and work units noted next to the spans of the first repetition.
#[derive(Debug, Default)]
pub struct Notes {
    /// One `(input key, feasible)` per `synth.analyze` call.
    pub analyze: Vec<(u64, bool)>,
    /// One `(input key, tile passes)` per `systolic.mem` call.
    pub mem: Vec<(u64, u64)>,
    /// Arrival timestamps drawn through `ArrivalGen::refill`.
    pub des_samples: u64,
    /// Jobs or arrivals folded by the SLO accountant.
    pub slo_observations: u64,
    /// Bytes of the documents the bench layer rendered or exported.
    pub export_bytes: u64,
    /// Jobs executed by the engine replay.
    pub executed_jobs: u64,
}

/// In-memory span recorder; spans are written out when the benchmark ends.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    rep: u32,
    part: Part,
    /// Work units of repetition 0.
    pub notes: Notes,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            // Reserved up front so recording never reallocates inside a
            // counted span.
            spans: Vec::with_capacity(1 << 16),
            stack: Vec::with_capacity(64),
            rep: 0,
            part: Part::Main,
            notes: Notes {
                analyze: Vec::with_capacity(1 << 14),
                mem: Vec::with_capacity(1 << 14),
                ..Notes::default()
            },
        }
    }
}

impl Recorder {
    /// Nanoseconds since the recorder started.
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts repetition `rep`.
    pub fn begin_rep(&mut self, rep: u32) {
        self.rep = rep;
        self.part = Part::Main;
    }

    /// Switches the part subsequent spans belong to.
    pub fn set_part(&mut self, part: Part) {
        self.part = part;
    }

    /// Whether work units should be noted (first repetition only).
    pub fn noting(&self) -> bool {
        self.rep == 0
    }

    /// Records a span around `f`, charging it (and the allocations made
    /// while it is the innermost open span) to `layer`.
    pub fn span<T>(
        &mut self,
        layer: Layer,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let idx = self.spans.len();
        let parent = self.stack.last().map_or(0, |&i| i + 1);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id: idx + 1,
            parent,
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            rep: self.rep,
            part: self.part,
            synthetic: false,
        });
        self.stack.push(idx);
        // Probe allocations are charged to no layer.
        let slot = if self.part == Part::Main {
            layer.slot()
        } else {
            0
        };
        let prev = CURRENT.swap(slot, Relaxed);
        let out = f(self);
        CURRENT.store(prev, Relaxed);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Adds a child of the innermost open span whose duration was
    /// measured by the program itself (a phase of its self-profiler).
    pub fn synthetic(&mut self, layer: Layer, name: &'static str, dur_ns: u64) {
        let Some(&open) = self.stack.last() else {
            return;
        };
        let start_ns = self.spans[open].start_ns;
        self.spans.push(Span {
            id: self.spans.len() + 1,
            parent: open + 1,
            layer,
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            rep: self.rep,
            part: self.part,
            synthetic: true,
        });
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent > 0 {
                child[s.parent - 1] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// The spans as JSON lines: name, layer, start, end, parent and run.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 128);
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"rep\":{},\"part\":\"{}\",\"synthetic\":{}}}\n",
                s.id,
                s.parent,
                s.layer.name(),
                s.name,
                s.start_ns,
                s.end_ns,
                s.rep,
                if s.part == Part::Main { "main" } else { "probe" },
                s.synthetic,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut rec = Recorder::default();
        rec.span(Layer::CoreAccelerator, "outer", |rec| {
            rec.span(Layer::SystolicMem, "inner", |rec| {
                rec.span(Layer::SynthAnalyze, "leaf", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
            rec.synthetic(Layer::CoreSlo, "phase", 1_000);
        });
        let spans = rec.spans();
        let selfs = rec.self_times_ns();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, 1);
        assert_eq!(spans[2].parent, 2);
        assert_eq!(spans[3].parent, 1);
        assert!(spans[3].synthetic);
        // The outer span's self time excludes the inner span and the phase.
        assert_eq!(
            selfs[0],
            spans[0].dur_ns().saturating_sub(spans[1].dur_ns() + 1_000)
        );
        assert_eq!(selfs[1], spans[1].dur_ns() - spans[2].dur_ns());
        assert!(selfs[2] >= 2_000_000);
    }
}
