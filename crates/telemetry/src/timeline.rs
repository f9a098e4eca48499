//! Timeline reconstruction: turns a flat [`TraceSnapshot`] back into
//! per-PE busy/stall intervals, nested layer/pass tracks and
//! MACs-per-cycle counter series on a single global cycle axis.
//!
//! The array's cycle events are timestamped *within* one matmul run
//! (each pass restarts at cycle 0), so the reconstruction rebases each
//! segment onto a global axis: a `TileStart` closes the previous pass
//! and opens a new one at the current end of time, and a cycle counter
//! that jumps backwards (a fresh run without a `TileStart`, e.g. a bare
//! `matmul`) opens an implicit segment.  Consecutive busy/stall cycles
//! of one PE merge into half-open [`Interval`]s.
//!
//! [`utilization_svg`] renders the result as a self-contained SVG
//! heatmap (one row per PE, one column per pass, shaded by busy
//! fraction); [`crate::perfetto`] exports the same model as Chrome
//! trace-event JSON for Perfetto.

use crate::trace::{TraceEvent, TraceSnapshot};

/// A half-open `[start, end)` interval on the global cycle axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// First cycle of the interval.
    pub start: u64,
    /// One past the last cycle.
    pub end: u64,
}

impl Interval {
    /// Interval length in cycles.
    pub fn len(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// Whether the interval is empty.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }

    /// Cycles of overlap with `[lo, hi)`.
    pub fn overlap(&self, lo: u64, hi: u64) -> u64 {
        self.end.min(hi).saturating_sub(self.start.max(lo))
    }
}

/// Merged busy/stall activity of one PE over the whole reconstruction.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PeTimeline {
    /// PE index.
    pub pe: u32,
    /// Cycles the PE fired, merged into maximal intervals.
    pub busy: Vec<Interval>,
    /// Cycles the PE held exactly one operand.
    pub stall: Vec<Interval>,
    /// Global cycles at which the PE latched a weight vector.
    pub weight_loads: Vec<u64>,
}

impl PeTimeline {
    /// Total busy cycles.
    pub fn busy_cycles(&self) -> u64 {
        self.busy.iter().map(Interval::len).sum()
    }

    /// Total stall cycles.
    pub fn stall_cycles(&self) -> u64 {
        self.stall.iter().map(Interval::len).sum()
    }

    /// Busy cycles inside `[lo, hi)`.
    pub fn busy_in(&self, lo: u64, hi: u64) -> u64 {
        self.busy.iter().map(|iv| iv.overlap(lo, hi)).sum()
    }
}

/// One stationary pass (or implicit segment) on the global axis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassTrack {
    /// Layer index stamped by the compiler (`u32::MAX` for implicit
    /// segments reconstructed without a `TileStart`).
    pub layer: u32,
    /// Pass index within the layer's schedule.
    pub pass: u32,
    /// First global cycle of the pass.
    pub start: u64,
    /// One past the last global cycle.
    pub end: u64,
    /// Feature rows streamed (0 when unknown).
    pub rows: u32,
    /// PEs engaged (0 when unknown).
    pub cols: u32,
    /// Reduction lanes (0 when unknown).
    pub inner: u32,
    /// Correlation span ID the opening event carried.
    pub span: u64,
    /// Active precision bits when the pass started (0 when unknown).
    pub mode_bits: u32,
}

/// A contiguous run of passes belonging to one layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerTrack {
    /// Layer index.
    pub layer: u32,
    /// First global cycle.
    pub start: u64,
    /// One past the last global cycle.
    pub end: u64,
    /// Passes in the run.
    pub passes: usize,
}

/// One point of a counter track.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterPoint {
    /// Global cycle.
    pub cycle: u64,
    /// Counter value at that cycle.
    pub value: f64,
}

/// A named counter series (e.g. `macs_per_cycle.int8`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CounterTrack {
    /// Track name.
    pub name: String,
    /// Sample points, cycle-ascending.
    pub points: Vec<CounterPoint>,
}

/// The reconstructed run: everything on one global cycle axis.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Per-PE activity, PE-index ascending.
    pub pes: Vec<PeTimeline>,
    /// Stationary passes in execution order.
    pub passes: Vec<PassTrack>,
    /// Contiguous per-layer pass runs.
    pub layers: Vec<LayerTrack>,
    /// MACs-per-cycle counter tracks, one per observed precision mode
    /// plus a combined `macs_per_cycle` track.
    pub counters: Vec<CounterTrack>,
    /// One past the last global cycle.
    pub total_cycles: u64,
    /// Events the source ring dropped — when nonzero the timeline is a
    /// truncated suffix of the run, not the whole run.
    pub dropped: u64,
    /// Events the reconstruction consumed.
    pub events: u64,
}

/// Layer index used for events reconstructed outside any `TileStart`.
pub const IMPLICIT_LAYER: u32 = u32::MAX;

#[derive(Default)]
struct PeBuilder {
    busy: Vec<Interval>,
    stall: Vec<Interval>,
    weight_loads: Vec<u64>,
}

fn push_cycle(intervals: &mut Vec<Interval>, cycle: u64) {
    match intervals.last_mut() {
        Some(last) if last.end == cycle => last.end = cycle + 1,
        // Out-of-order or duplicate cycles (interleaved hubs) are folded
        // into the containing interval when possible, else start fresh.
        Some(last) if cycle >= last.start && cycle < last.end => {}
        _ => intervals.push(Interval { start: cycle, end: cycle + 1 }),
    }
}

/// Rebuilds the global timeline from a trace snapshot.
pub fn build_timeline(snap: &TraceSnapshot) -> Timeline {
    let mut pes: Vec<PeBuilder> = Vec::new();
    let mut passes: Vec<PassTrack> = Vec::new();
    let mut macs_combined: Vec<CounterPoint> = Vec::new();
    let mut macs_by_mode: Vec<(u32, Vec<CounterPoint>)> = Vec::new();

    let mut base = 0u64; // global cycle offset of the current segment
    let mut seg_len = 0u64; // cycles observed in the current segment
    let mut last_local: Option<u64> = None;
    let mut open_pass: Option<PassTrack> = None;
    let mut mode_bits = 0u32;

    let close_segment =
        |base: &mut u64, seg_len: &mut u64, open_pass: &mut Option<PassTrack>,
         passes: &mut Vec<PassTrack>| {
            let end = *base + (*seg_len).max(if open_pass.is_some() { 1 } else { 0 });
            if let Some(mut pass) = open_pass.take() {
                pass.end = end;
                passes.push(pass);
            }
            *base = end;
            *seg_len = 0;
        };

    let ensure_pe = |pes: &mut Vec<PeBuilder>, pe: u32| {
        while pes.len() <= pe as usize {
            pes.push(PeBuilder::default());
        }
    };

    for (i, ev) in snap.events.iter().enumerate() {
        let span = snap.span_of(i);
        match *ev {
            TraceEvent::ModeSet { bits } => {
                mode_bits = bits;
            }
            TraceEvent::TileStart { layer, pass, rows, cols, inner } => {
                close_segment(&mut base, &mut seg_len, &mut open_pass, &mut passes);
                last_local = None;
                open_pass = Some(PassTrack {
                    layer,
                    pass,
                    start: base,
                    end: base,
                    rows,
                    cols,
                    inner,
                    span,
                    mode_bits,
                });
            }
            TraceEvent::PeFired { cycle, pe, .. }
            | TraceEvent::VectorStall { cycle, pe }
            | TraceEvent::WeightLoad { cycle, pe, .. } => {
                // A cycle counter that moved backwards means a new run
                // started without a TileStart: open an implicit segment.
                if last_local.is_some_and(|prev| cycle < prev) {
                    close_segment(&mut base, &mut seg_len, &mut open_pass, &mut passes);
                }
                if open_pass.is_none() {
                    open_pass = Some(PassTrack {
                        layer: IMPLICIT_LAYER,
                        pass: passes.len() as u32,
                        start: base,
                        end: base,
                        rows: 0,
                        cols: 0,
                        inner: 0,
                        span,
                        mode_bits,
                    });
                }
                last_local = Some(cycle);
                seg_len = seg_len.max(cycle + 1);
                let global = base + cycle;
                ensure_pe(&mut pes, pe);
                let builder = &mut pes[pe as usize];
                match *ev {
                    TraceEvent::PeFired { macs, .. } => {
                        push_cycle(&mut builder.busy, global);
                        bump_counter(&mut macs_combined, global, macs as f64);
                        let series = match macs_by_mode
                            .iter_mut()
                            .find(|(bits, _)| *bits == mode_bits)
                        {
                            Some((_, s)) => s,
                            None => {
                                macs_by_mode.push((mode_bits, Vec::new()));
                                &mut macs_by_mode.last_mut().expect("just pushed").1
                            }
                        };
                        bump_counter(series, global, macs as f64);
                    }
                    TraceEvent::VectorStall { .. } => push_cycle(&mut builder.stall, global),
                    TraceEvent::WeightLoad { .. } => builder.weight_loads.push(global),
                    _ => unreachable!(),
                }
            }
        }
    }
    close_segment(&mut base, &mut seg_len, &mut open_pass, &mut passes);

    // Fold contiguous same-layer passes into layer tracks.
    let mut layers: Vec<LayerTrack> = Vec::new();
    for pass in &passes {
        match layers.last_mut() {
            Some(track) if track.layer == pass.layer && track.end == pass.start => {
                track.end = pass.end;
                track.passes += 1;
            }
            _ => layers.push(LayerTrack {
                layer: pass.layer,
                start: pass.start,
                end: pass.end,
                passes: 1,
            }),
        }
    }

    let mut counters = Vec::new();
    if !macs_combined.is_empty() {
        counters.push(CounterTrack { name: "macs_per_cycle".to_string(), points: macs_combined });
    }
    macs_by_mode.sort_by_key(|(bits, _)| std::cmp::Reverse(*bits));
    for (bits, points) in macs_by_mode {
        let name = if bits == 0 {
            "macs_per_cycle.unknown_mode".to_string()
        } else {
            format!("macs_per_cycle.int{bits}")
        };
        counters.push(CounterTrack { name, points });
    }

    Timeline {
        pes: pes
            .into_iter()
            .enumerate()
            .map(|(i, b)| PeTimeline {
                pe: i as u32,
                busy: b.busy,
                stall: b.stall,
                weight_loads: b.weight_loads,
            })
            .collect(),
        passes,
        layers,
        counters,
        total_cycles: base,
        dropped: snap.dropped,
        events: snap.events.len() as u64,
    }
}

/// Adds `delta` to the counter point at `cycle` (points arrive
/// cycle-ascending; same-cycle fires accumulate).
fn bump_counter(points: &mut Vec<CounterPoint>, cycle: u64, delta: f64) {
    match points.last_mut() {
        Some(last) if last.cycle == cycle => last.value += delta,
        _ => points.push(CounterPoint { cycle, value: delta }),
    }
}

/// Renders a self-contained SVG heatmap of per-PE utilization: one row
/// per PE, one column per pass, each cell shaded by the PE's busy
/// fraction within that pass (0 % = white, 100 % = full ink).  Nothing
/// external is referenced — the file opens in any browser.
pub fn utilization_svg(timeline: &Timeline) -> String {
    const CELL_W: u64 = 26;
    const CELL_H: u64 = 18;
    const LEFT: u64 = 64; // row-label gutter
    const TOP: u64 = 40; // title + column labels
    let n_pes = timeline.pes.len().max(1) as u64;
    let n_passes = timeline.passes.len().max(1) as u64;
    let width = LEFT + n_passes * CELL_W + 16;
    let height = TOP + n_pes * CELL_H + 28;

    let mut s = String::new();
    s.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width}\" height=\"{height}\" \
         viewBox=\"0 0 {width} {height}\" font-family=\"monospace\" font-size=\"10\">\n"
    ));
    s.push_str(&format!(
        "  <rect width=\"{width}\" height=\"{height}\" fill=\"#ffffff\"/>\n\
         \x20 <text x=\"{LEFT}\" y=\"14\" font-size=\"12\">per-PE utilization by pass \
         ({} cycles, {} passes)</text>\n",
        timeline.total_cycles,
        timeline.passes.len()
    ));
    if timeline.dropped > 0 {
        s.push_str(&format!(
            "  <text x=\"{LEFT}\" y=\"27\" fill=\"#b00020\">WARNING: {} events dropped — \
             timeline truncated</text>\n",
            timeline.dropped
        ));
    }
    // Column labels: layer.pass, every few columns to stay readable.
    let label_stride = (n_passes / 24).max(1);
    for (i, pass) in timeline.passes.iter().enumerate() {
        if (i as u64).is_multiple_of(label_stride) {
            let x = LEFT + i as u64 * CELL_W + 2;
            let label = if pass.layer == IMPLICIT_LAYER {
                format!("s{}", pass.pass)
            } else {
                format!("{}.{}", pass.layer, pass.pass)
            };
            s.push_str(&format!("  <text x=\"{x}\" y=\"{}\">{label}</text>\n", TOP - 4));
        }
    }
    for (row, pe) in timeline.pes.iter().enumerate() {
        let y = TOP + row as u64 * CELL_H;
        s.push_str(&format!(
            "  <text x=\"4\" y=\"{}\">PE{:02}</text>\n",
            y + CELL_H - 5,
            pe.pe
        ));
        for (col, pass) in timeline.passes.iter().enumerate() {
            let span_cycles = pass.end.saturating_sub(pass.start).max(1);
            let util = pe.busy_in(pass.start, pass.end) as f64 / span_cycles as f64;
            // White → deep blue ramp; full precision is unnecessary.
            let ink = (util.clamp(0.0, 1.0) * 255.0).round() as u32;
            let (r, g, b) = (255 - ink * 235 / 255, 255 - ink * 180 / 255, 255 - ink * 60 / 255);
            let x = LEFT + col as u64 * CELL_W;
            s.push_str(&format!(
                "  <rect x=\"{x}\" y=\"{y}\" width=\"{CELL_W}\" height=\"{CELL_H}\" \
                 fill=\"rgb({r},{g},{b})\" stroke=\"#dddddd\" stroke-width=\"0.5\">\
                 <title>PE{:02} pass {}.{}: {:.1}%</title></rect>\n",
                pe.pe,
                pass.layer,
                pass.pass,
                util * 100.0
            ));
        }
    }
    // Legend.
    let ly = TOP + n_pes * CELL_H + 8;
    s.push_str(&format!(
        "  <text x=\"4\" y=\"{}\">0%</text>\n",
        ly + 10
    ));
    for i in 0..10u64 {
        let ink = (i * 255 / 9) as u32;
        let (r, g, b) = (255 - ink * 235 / 255, 255 - ink * 180 / 255, 255 - ink * 60 / 255);
        s.push_str(&format!(
            "  <rect x=\"{}\" y=\"{ly}\" width=\"12\" height=\"12\" fill=\"rgb({r},{g},{b})\"/>\n",
            30 + i * 12
        ));
    }
    s.push_str(&format!(
        "  <text x=\"{}\" y=\"{}\">100%</text>\n",
        30 + 10 * 12 + 4,
        ly + 10
    ));
    s.push_str("</svg>\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceRing;

    fn snap_of(events: &[TraceEvent]) -> TraceSnapshot {
        let ring = TraceRing::new(events.len().max(1));
        for ev in events {
            ring.push(ev.clone());
        }
        ring.snapshot()
    }

    #[test]
    fn passes_rebase_onto_a_global_axis() {
        let snap = snap_of(&[
            TraceEvent::ModeSet { bits: 8 },
            TraceEvent::TileStart { layer: 0, pass: 0, rows: 2, cols: 1, inner: 4 },
            TraceEvent::WeightLoad { cycle: 0, pe: 0, elems: 4 },
            TraceEvent::PeFired { cycle: 0, pe: 0, row: 0, macs: 4 },
            TraceEvent::PeFired { cycle: 1, pe: 0, row: 1, macs: 4 },
            TraceEvent::TileStart { layer: 0, pass: 1, rows: 2, cols: 1, inner: 4 },
            TraceEvent::PeFired { cycle: 0, pe: 0, row: 0, macs: 4 },
            TraceEvent::PeFired { cycle: 1, pe: 0, row: 1, macs: 4 },
        ]);
        let tl = build_timeline(&snap);
        assert_eq!(tl.passes.len(), 2);
        assert_eq!(tl.passes[0].start, 0);
        assert_eq!(tl.passes[0].end, 2);
        assert_eq!(tl.passes[1].start, 2);
        assert_eq!(tl.passes[1].end, 4);
        assert_eq!(tl.total_cycles, 4);
        assert_eq!(tl.passes[0].mode_bits, 8);
        // The two passes of layer 0 fold into one layer track.
        assert_eq!(tl.layers.len(), 1);
        assert_eq!(tl.layers[0].passes, 2);
        // PE 0 fired in all four global cycles: one merged interval.
        assert_eq!(tl.pes.len(), 1);
        assert_eq!(tl.pes[0].busy, vec![Interval { start: 0, end: 4 }]);
        assert_eq!(tl.pes[0].busy_cycles(), 4);
        assert_eq!(tl.pes[0].weight_loads, vec![0]);
        // Combined + int8 counter tracks.
        assert_eq!(tl.counters.len(), 2);
        assert_eq!(tl.counters[0].name, "macs_per_cycle");
        assert_eq!(tl.counters[1].name, "macs_per_cycle.int8");
        assert_eq!(tl.counters[0].points.len(), 4);
        assert!(tl.counters[0].points.iter().all(|p| p.value == 4.0));
    }

    #[test]
    fn backwards_cycles_open_an_implicit_segment() {
        let snap = snap_of(&[
            TraceEvent::PeFired { cycle: 0, pe: 0, row: 0, macs: 2 },
            TraceEvent::PeFired { cycle: 1, pe: 0, row: 1, macs: 2 },
            // New bare run: cycle restarts.
            TraceEvent::PeFired { cycle: 0, pe: 1, row: 0, macs: 2 },
        ]);
        let tl = build_timeline(&snap);
        assert_eq!(tl.passes.len(), 2);
        assert_eq!(tl.passes[0].layer, IMPLICIT_LAYER);
        assert_eq!(tl.passes[1].start, 2);
        assert_eq!(tl.pes[1].busy, vec![Interval { start: 2, end: 3 }]);
        assert_eq!(tl.total_cycles, 3);
    }

    #[test]
    fn stalls_and_busy_are_disjoint_tracks() {
        let snap = snap_of(&[
            TraceEvent::TileStart { layer: 1, pass: 0, rows: 3, cols: 2, inner: 4 },
            TraceEvent::PeFired { cycle: 0, pe: 0, row: 0, macs: 4 },
            TraceEvent::VectorStall { cycle: 1, pe: 1 },
            TraceEvent::VectorStall { cycle: 2, pe: 1 },
        ]);
        let tl = build_timeline(&snap);
        assert_eq!(tl.pes[0].busy_cycles(), 1);
        assert_eq!(tl.pes[0].stall_cycles(), 0);
        assert_eq!(tl.pes[1].stall, vec![Interval { start: 1, end: 3 }]);
        assert_eq!(tl.pes[1].stall_cycles(), 2);
    }

    #[test]
    fn svg_is_self_contained_and_mentions_every_pe() {
        let snap = snap_of(&[
            TraceEvent::TileStart { layer: 0, pass: 0, rows: 2, cols: 2, inner: 4 },
            TraceEvent::PeFired { cycle: 0, pe: 0, row: 0, macs: 4 },
            TraceEvent::PeFired { cycle: 1, pe: 1, row: 0, macs: 4 },
        ]);
        let tl = build_timeline(&snap);
        let svg = utilization_svg(&tl);
        assert!(svg.starts_with("<svg "));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert!(svg.contains("PE00") && svg.contains("PE01"));
        assert!(!svg.contains("href"), "must not reference external resources");
    }

    #[test]
    fn dropped_events_flow_through_and_flag_the_svg() {
        let ring = TraceRing::new(1);
        ring.push(TraceEvent::PeFired { cycle: 0, pe: 0, row: 0, macs: 1 });
        ring.push(TraceEvent::PeFired { cycle: 1, pe: 0, row: 0, macs: 1 });
        let tl = build_timeline(&ring.snapshot());
        assert_eq!(tl.dropped, 1);
        assert!(utilization_svg(&tl).contains("WARNING"));
    }
}
