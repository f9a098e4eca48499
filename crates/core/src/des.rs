//! Deterministic discrete-event scheduling primitives.
//!
//! The batch engine plans on a serial `for` loop over a virtual clock,
//! with every arrival at cycle 0.  Online serving needs the same
//! determinism with *interleaved* event streams — job arrivals from
//! open-loop traffic generators racing shard completions — so this
//! module provides its two building blocks:
//!
//! * [`EventQueue`]: a binary-heap priority queue whose total order is
//!   the pair `(time, seq)`: equal times pop in push order (FIFO).  The
//!   online event loop holds only arrivals in it; each shard keeps its
//!   own pending completions in cycle order, and the loop retires every
//!   completion due at a cycle before any arrival at that cycle, so a
//!   shard freed at cycle *t* can accept a job arriving at cycle *t*.
//!   The pair and that completions-first merge are the **entire**
//!   tie-break contract — nothing about heap internals or hash order
//!   leaks into results, which is what makes every consumer
//!   bit-identical at any worker count.
//! * [`ArrivalGen`]: seeded open-loop arrival processes on the integer
//!   cycle clock — Poisson via an inverse-CDF in fixed point (no
//!   floats, so no platform-dependent rounding), bursty on/off gating,
//!   and diurnal rate tables.  Inter-arrival gaps are clamped to ≥ 1
//!   cycle so every generator makes progress, and clock arithmetic
//!   saturates, so a stream that would pass `u64::MAX` ends at
//!   [`END_OF_STREAM`] instead of wrapping.
//!
//! All arithmetic is integer (Q32 fixed point where fractions are
//! needed); nothing reads wall time.
//!
//! The inverse CDF's cost is a binary logarithm: 32 squarings of a Q32
//! mantissa `x = 2³² + m` in `[1, 2)`, each one emitting a fraction bit.
//! The squarings of one draw form a chain of dependent multiplies, so
//! the kernel works on the 32-bit state `m` alone (the square
//! `2³² + 2m + ⌊m²/2³²⌋` fits in a u64) and advances eight
//! independent draws in lockstep to keep the multiplier busy.  It is
//! bit-exact with the reference kernel in the tests, a shift-and-square
//! loop on 128-bit squares.  Both kernels are normalize →
//! 32 steps → assemble with the same normalize and assemble, so a
//! release-mode test that compares the two step maps on all 2³² states
//! proves them equal on every input.

use bsc_netlist::rng::Rng64;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// One queued event: ordering key plus opaque payload.
struct Entry<T> {
    time: u64,
    seq: u64,
    payload: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (u64, u64) {
        (self.time, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// A deterministic discrete-event queue ordered by `(time, seq)`.  `seq`
/// is assigned at push time, so equal-time events pop in push order
/// (FIFO) — see the module docs for the determinism contract.
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    next_seq: u64,
    pops: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0, pops: 0 }
    }

    /// Enqueues `payload` at `time`, after every event already queued at
    /// that time.
    pub fn push(&mut self, time: u64, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(Entry { time, seq, payload }));
    }

    /// Removes and returns the earliest event as `(time, payload)`.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        let popped = self.heap.pop().map(|Reverse(e)| (e.time, e.payload));
        self.pops += u64::from(popped.is_some());
        popped
    }

    /// Drops the earliest event and pushes `payload` at `time` in one
    /// sift-down.  Equal to [`EventQueue::pop`] then [`EventQueue::push`],
    /// and counted as one of each; on an empty queue it only pushes.
    pub fn replace_top(&mut self, time: u64, payload: T) {
        let entry = Reverse(Entry { time, seq: self.next_seq, payload });
        self.next_seq += 1;
        let Some(mut top) = self.heap.peek_mut() else {
            self.heap.push(entry);
            return;
        };
        self.pops += 1;
        *top = entry;
    }

    /// Lifetime number of pushes (the next sequence number).  Together
    /// with [`EventQueue::pops`] this gives consumers exact heap-op
    /// accounting for self-profiling without touching the hot path.
    pub fn pushes(&self) -> u64 {
        self.next_seq
    }

    /// Lifetime number of successful pops.
    pub fn pops(&self) -> u64 {
        self.pops
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// The next event as `(time, payload)` without removing it.
    pub fn peek(&self) -> Option<(u64, &T)> {
        self.heap.peek().map(|Reverse(e)| (e.time, &e.payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// ln 2 in Q32 fixed point (`⌊ln 2 · 2³²⌉`).
const LN2_Q32: u64 = 2_977_044_472;

/// Draws [`ArrivalGen::refill`] runs through the logarithm kernel in
/// lockstep: enough independent squaring chains to hide the multiply
/// latency of each one.
const LANES: usize = 8;

/// The arrival cycle of a source whose clock has saturated.  Sampler
/// arithmetic saturates instead of wrapping, so a stream that runs past
/// `u64::MAX` reports this cycle forever after; consumers treat it as the
/// end of that source's stream, past any horizon.
pub const END_OF_STREAM: u64 = u64::MAX;

/// One squaring step of the binary logarithm on the mantissa state `m`
/// of `x = 2³² + m`, the Q32 value in `[1, 2)`: returns the next state
/// and the fraction bit the step emits.
///
/// `⌊x²/2³²⌋ = 2³² + 2m + ⌊m²/2³²⌋`, so the squared state
/// `m' = 2m + ⌊m²/2³²⌋ < 3·2³²` fits in a u64 and the 128-bit square is
/// never formed.  `x² ≥ 2` exactly when `m' ≥ 2³²`; the step then emits
/// a one and halves `x²`, which on the state is `(m' − 2³²) >> 1`.  Both
/// cases are the one expression below, with no branch.
#[inline(always)]
fn mantissa_step(m: u32) -> (u32, u64) {
    let m = u64::from(m);
    let squared = 2 * m + ((m * m) >> 32);
    let bit = u64::from(squared >= 1 << 32);
    (((squared - (bit << 32)) >> bit) as u32, bit)
}

/// `log₂(u)` in Q32 fixed point for `N` inputs `u ≥ 1` at once (the
/// classic shift-and-square binary logarithm — exact at powers of two,
/// monotone everywhere).  Each lane runs normalize → 32 steps →
/// assemble:
///
/// * normalize: the integer part is the MSB position, and the 32 bits
///   below the MSB are the mantissa state `m` of `u / 2^msb = 1 + m/2³²`;
/// * step: [`mantissa_step`] squares the mantissa and emits one fraction
///   bit, most significant first;
/// * assemble: `msb` above the 32 fraction bits.
///
/// The lanes are independent, and the loop advances all of them one
/// step at a time, so the CPU overlaps `N` dependency chains of 32
/// multiplies instead of waiting out one.  It computes the same function
/// as the reference kernel in the tests, a shift-and-square loop on
/// 128-bit squares: normalize and assemble are the same, and the step
/// map is checked against the reference step on all 2³² states, so the
/// two agree on every u64 input.
#[inline(always)]
fn log2_q32_lanes<const N: usize>(u: [u64; N]) -> [u64; N] {
    debug_assert!(u.iter().all(|&u| u >= 1));
    let msb = u.map(|u| 63 - u64::from(u.leading_zeros()));
    let mut m: [u32; N] = std::array::from_fn(|l| {
        let x = if msb[l] >= 32 { u[l] >> (msb[l] - 32) } else { u[l] << (32 - msb[l]) };
        // x is Q32 in [1, 2): dropping its leading one leaves the state.
        x as u32
    });
    let mut frac = [0u64; N];
    for _ in 0..32 {
        for (m, frac) in m.iter_mut().zip(&mut frac) {
            let (next, bit) = mantissa_step(*m);
            *m = next;
            *frac = (*frac << 1) | bit;
        }
    }
    std::array::from_fn(|l| (msb[l] << 32) | frac[l])
}

/// `−ln(u / 2⁶⁴)` in Q32 fixed point for `N` words at once (zero reads as
/// one).  See [`neg_ln_unit_q32`].
#[inline(always)]
fn neg_ln_unit_q32_lanes<const N: usize>(u: [u64; N]) -> [u64; N] {
    log2_q32_lanes(u.map(|u| u.max(1))).map(|log2| {
        let diff = (64u64 << 32) - log2;
        ((u128::from(diff) * u128::from(LN2_Q32)) >> 32) as u64
    })
}

/// `−ln(u / 2⁶⁴)` in Q32 fixed point, for `u` in `[1, 2⁶⁴)`: the
/// inverse-CDF kernel of exponential sampling.  The maximum value is
/// `64 · ln 2 ≈ 44.36` (at `u = 1`), comfortably inside Q32 range.
pub fn neg_ln_unit_q32(u: u64) -> u64 {
    neg_ln_unit_q32_lanes([u])[0]
}

/// Draws `n` words from `rng` and passes `−ln(u/2⁶⁴)` of each to `fold`,
/// in draw order.  The kernel runs [`LANES`] draws at a time; a short
/// last batch leaves its spare lanes unused.
#[inline(always)]
fn for_each_neg_ln(rng: &mut Rng64, n: usize, mut fold: impl FnMut(u64)) {
    let mut left = n;
    while left > 0 {
        let k = left.min(LANES);
        let mut u = [0u64; LANES];
        for w in &mut u[..k] {
            *w = rng.next_u64();
        }
        for &q in &neg_ln_unit_q32_lanes(u)[..k] {
            fold(q);
        }
        left -= k;
    }
}

/// An exponential inter-arrival gap `mean · q` for a Q32 draw
/// `q = −ln(u/2⁶⁴)`, clamped to ≥ 1 cycle so generators always advance
/// and saturated at `u64::MAX` instead of truncated.  `mean` must already
/// be clamped to ≥ 1.
fn gap_cycles(mean: u64, q: u64) -> u64 {
    let gap = (u128::from(mean) * u128::from(q)) >> 32;
    u64::try_from(gap).unwrap_or(u64::MAX).max(1)
}

/// Wall-clock cycle of active-time cycle `active` on a bursty clock that
/// inserts an off-window after every `on`-cycle window (`period = on +
/// off`, saturated): `⌊a/on⌋ · period + a mod on`, saturated at
/// [`END_OF_STREAM`].
fn bursty_warp(active: u64, on: u64, period: u64) -> u64 {
    (active / on).saturating_mul(period).saturating_add(active % on)
}

/// The length of a diurnal day: the sum of the segment durations (each
/// at least one cycle), saturated.
fn diurnal_day(segments: &[DiurnalSegment]) -> u64 {
    assert!(!segments.is_empty(), "diurnal table must be non-empty");
    segments.iter().fold(0, |day: u64, s| day.saturating_add(s.duration_cycles.max(1)))
}

/// The diurnal mean in force at day-position `pos` (callers reduce the
/// timestamp mod the day length first), clamped to ≥ 1.  Shared by the
/// per-draw and batched samplers so both look up rates identically.
fn diurnal_mean(segments: &[DiurnalSegment], mut pos: u64) -> u64 {
    let mut mean = segments[0].mean_interarrival_cycles;
    for s in segments {
        let d = s.duration_cycles.max(1);
        if pos < d {
            mean = s.mean_interarrival_cycles;
            break;
        }
        pos -= d;
    }
    mean.max(1)
}

/// One segment of a diurnal rate table: `duration_cycles` of traffic at
/// `mean_interarrival_cycles`.  The table wraps (a "day" is the sum of
/// all segment durations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiurnalSegment {
    /// How long this segment lasts on the cycle clock.
    pub duration_cycles: u64,
    /// Mean inter-arrival gap while inside this segment.
    pub mean_interarrival_cycles: u64,
}

/// An open-loop arrival process on the integer cycle clock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals: exponential inter-arrival gaps with the
    /// given mean.
    Poisson {
        /// Mean gap between consecutive arrivals.
        mean_interarrival_cycles: u64,
    },
    /// On/off gated Poisson: arrivals follow a Poisson process on an
    /// "active time" axis that only advances during on-windows, so
    /// bursts of Poisson traffic alternate with silent gaps.
    Bursty {
        /// Length of each active window.
        on_cycles: u64,
        /// Length of each silent window between active windows.
        off_cycles: u64,
        /// Mean inter-arrival gap *within* active windows.
        mean_interarrival_cycles: u64,
    },
    /// Piecewise-constant rate table that wraps around (e.g. a day of
    /// traffic).  The segment rate is sampled at the previous event's
    /// timestamp — a deliberate, documented approximation that keeps
    /// the inverse-CDF integer-exact.
    Diurnal {
        /// The repeating rate table (must be non-empty).
        segments: Vec<DiurnalSegment>,
    },
}

/// A seeded generator of strictly-increasing arrival timestamps for one
/// [`ArrivalProcess`].  Two generators with the same process and seed
/// emit identical streams on every platform.  A stream that would pass
/// `u64::MAX` ends there: it reports [`END_OF_STREAM`] from then on.
pub struct ArrivalGen {
    process: ArrivalProcess,
    rng: Rng64,
    /// Last emitted wall-clock arrival (Poisson/Diurnal axis).
    last_cycle: u64,
    /// Accumulated active time (Bursty axis).
    active_cycles: u64,
}

impl ArrivalGen {
    /// A generator over `process` seeded with `seed`.
    pub fn new(process: ArrivalProcess, seed: u64) -> Self {
        ArrivalGen {
            process,
            rng: Rng64::seed_from_u64(seed),
            last_cycle: 0,
            active_cycles: 0,
        }
    }

    /// The next arrival's absolute cycle.  Strictly increasing (gaps
    /// are clamped to ≥ 1 cycle) until the clock saturates at
    /// [`END_OF_STREAM`].
    pub fn next_arrival(&mut self) -> u64 {
        let q = neg_ln_unit_q32(self.rng.next_u64());
        match &self.process {
            ArrivalProcess::Poisson { mean_interarrival_cycles } => {
                let gap = gap_cycles((*mean_interarrival_cycles).max(1), q);
                self.last_cycle = self.last_cycle.saturating_add(gap);
            }
            ArrivalProcess::Bursty { on_cycles, off_cycles, mean_interarrival_cycles } => {
                // Poisson on the active-time axis, then warp active time
                // onto the wall clock by inserting one off-window after
                // every completed on-window.
                let on = (*on_cycles).max(1);
                let gap = gap_cycles((*mean_interarrival_cycles).max(1), q);
                self.active_cycles = self.active_cycles.saturating_add(gap);
                self.last_cycle =
                    bursty_warp(self.active_cycles, on, on.saturating_add(*off_cycles));
            }
            ArrivalProcess::Diurnal { segments } => {
                // Segment in force at the previous event's timestamp.
                let mean = diurnal_mean(segments, self.last_cycle % diurnal_day(segments));
                self.last_cycle = self.last_cycle.saturating_add(gap_cycles(mean, q));
            }
        }
        self.last_cycle
    }

    /// Appends the next `n` arrival cycles to `out` — the batched fast
    /// path.  Produces **bit-identical** timestamps to `n` calls of
    /// [`ArrivalGen::next_arrival`]: the same RNG words in the same order,
    /// the same Q32 arithmetic, folded into the process clock in draw
    /// order.  It differs in two ways that only change speed: the clamped
    /// mean, the bursty on/off warp constants and the diurnal day length
    /// are hoisted once per refill, and the `−ln` kernel evaluates
    /// eight draws in lockstep.  `tests/des_conformance.rs` pins the
    /// equivalence per process at extreme rates.
    pub fn refill(&mut self, n: usize, out: &mut VecDeque<u64>) {
        out.reserve(n);
        let rng = &mut self.rng;
        match &self.process {
            ArrivalProcess::Poisson { mean_interarrival_cycles } => {
                let mean = (*mean_interarrival_cycles).max(1);
                let mut last = self.last_cycle;
                for_each_neg_ln(rng, n, |q| {
                    last = last.saturating_add(gap_cycles(mean, q));
                    out.push_back(last);
                });
                self.last_cycle = last;
            }
            ArrivalProcess::Bursty { on_cycles, off_cycles, mean_interarrival_cycles } => {
                let (on, mean) = ((*on_cycles).max(1), (*mean_interarrival_cycles).max(1));
                let period = on.saturating_add(*off_cycles);
                let mut active = self.active_cycles;
                let mut last = self.last_cycle;
                for_each_neg_ln(rng, n, |q| {
                    active = active.saturating_add(gap_cycles(mean, q));
                    last = bursty_warp(active, on, period);
                    out.push_back(last);
                });
                self.active_cycles = active;
                self.last_cycle = last;
            }
            ArrivalProcess::Diurnal { segments } => {
                let day = diurnal_day(segments);
                let mut last = self.last_cycle;
                for_each_neg_ln(rng, n, |q| {
                    let mean = diurnal_mean(segments, last % day);
                    last = last.saturating_add(gap_cycles(mean, q));
                    out.push_back(last);
                });
                self.last_cycle = last;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference kernel the lane kernel must match bit for bit: the
    /// plain shift-and-square loop, 32 dependent 128-bit squarings per
    /// input.
    fn log2_q32(u: u64) -> u64 {
        debug_assert!(u >= 1);
        let msb = 63 - u64::from(u.leading_zeros());
        // Normalize the mantissa to Q32 in [1, 2): x = u / 2^msb.
        let mut x: u64 = if msb >= 32 { u >> (msb - 32) } else { u << (32 - msb) };
        let mut frac: u64 = 0;
        for i in 1..=32u64 {
            // Invariant: x is Q32 in [1, 2).  Squaring may reach [1, 4).
            x = ((u128::from(x) * u128::from(x)) >> 32) as u64;
            if x >= 1u64 << 33 {
                x >>= 1;
                frac |= 1u64 << (32 - i);
            }
        }
        (msb << 32) | frac
    }

    /// One pass of the reference loop above on the Q32 value `x` in
    /// `[2³², 2³³)`: the next `x` and the fraction bit the pass sets.
    fn reference_step(x: u64) -> (u64, u64) {
        let x = ((u128::from(x) * u128::from(x)) >> 32) as u64;
        if x >= 1u64 << 33 {
            (x >> 1, 1)
        } else {
            (x, 0)
        }
    }

    /// `−ln(u/2⁶⁴)` on the reference kernel.
    fn reference_neg_ln(u: u64) -> u64 {
        let diff = (64u64 << 32) - log2_q32(u.max(1));
        ((u128::from(diff) * u128::from(LN2_Q32)) >> 32) as u64
    }

    /// The proof that the lane kernel equals the reference on every u64
    /// input.  Both run normalize → 32 steps → assemble with the same
    /// normalize and assemble, and the state `m` of the lane kernel is
    /// the reference's `x − 2³²`; so if the step maps agree on all 2³²
    /// states, the kernels agree everywhere.  Too slow for a debug
    /// build; `scripts/ci.sh` runs it in release (~10 s on two cores).
    #[test]
    #[cfg_attr(debug_assertions, ignore = "2^32 states: run with --release")]
    fn mantissa_step_matches_the_reference_step_on_every_state() {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
        let states = 1u64 << 32;
        let mismatches: u64 = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    s.spawn(move || {
                        (states * t / threads..states * (t + 1) / threads)
                            .filter(|&m| {
                                let (next, bit) = mantissa_step(m as u32);
                                reference_step((1 << 32) + m) != ((1 << 32) + u64::from(next), bit)
                            })
                            .count() as u64
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("step checker panicked")).sum()
        });
        assert_eq!(mismatches, 0, "mantissa steps differing from the reference");
    }

    /// The debug-speed companion of the exhaustive proof: every lane of
    /// the batched kernel, and the one-lane `neg_ln_unit_q32`, against
    /// the reference on ~1M seeded words, every power of two ± 3, and 0,
    /// 1 and `u64::MAX`.  The last batch is short, as in a refill tail.
    /// The step itself is checked at its edge states, which random
    /// words almost never reach.
    #[test]
    fn lane_kernel_matches_the_reference_on_sampled_words() {
        // 1_779_033_704 is the one state whose square is exactly 2 (the
        // halving threshold); its neighbours fall either side of it.
        for m in [0, 1, 1_779_033_703, 1_779_033_704, 1_779_033_705, u32::MAX] {
            let (next, bit) = mantissa_step(m);
            let want = reference_step((1 << 32) + u64::from(m));
            assert_eq!(((1 << 32) + u64::from(next), bit), want, "step from state {m}");
        }
        let mut words = vec![0, 1, u64::MAX];
        for sh in 0..64 {
            for d in 0..=3 {
                words.push((1u64 << sh).wrapping_add(d));
                words.push((1u64 << sh).wrapping_sub(d));
            }
        }
        let mut rng = Rng64::seed_from_u64(0x1095_2a3d);
        words.extend((0..1 << 20).map(|_| rng.next_u64()));
        assert_ne!(words.len() % LANES, 0, "the last batch must be short");
        for batch in words.chunks(LANES) {
            let mut u = [1u64; LANES];
            u[..batch.len()].copy_from_slice(batch);
            let log2 = log2_q32_lanes(u.map(|w| w.max(1)));
            let neg_ln = neg_ln_unit_q32_lanes(u);
            for (lane, &w) in batch.iter().enumerate() {
                let want = reference_neg_ln(w);
                assert_eq!(log2[lane], log2_q32(w.max(1)), "log2, lane {lane}, u = {w:#x}");
                assert_eq!(neg_ln[lane], want, "−ln, lane {lane}, u = {w:#x}");
                assert_eq!(neg_ln_unit_q32(w), want, "−ln, one lane, u = {w:#x}");
            }
        }
    }

    #[test]
    fn queue_orders_by_time_then_seq() {
        let mut q = EventQueue::new();
        q.push(10, "a@10");
        q.push(5, "a@5");
        q.push(10, "a2@10");
        q.push(7, "a@7");
        q.push(10, "a3@10");
        assert_eq!(q.peek_time(), Some(5));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        // Earliest first; FIFO at equal times.
        assert_eq!(order, ["a@5", "a@7", "a@10", "a2@10", "a3@10"]);
        assert!(q.is_empty());
    }

    #[test]
    fn replace_top_equals_pop_then_push() {
        let mut rng = Rng64::seed_from_u64(0x70B);
        let (mut fused, mut split) = (EventQueue::new(), EventQueue::new());
        for i in 0..4 {
            fused.push(i, i);
            split.push(i, i);
        }
        for i in 0..5_000u64 {
            // Small steps force equal-time ties, broken by push order.
            let t = fused.peek_time().unwrap() + rng.gen_range(0..3) as u64;
            assert_eq!(fused.peek().map(|(t, &p)| (t, p)), split.pop());
            fused.replace_top(t, i);
            split.push(t, i);
        }
        assert_eq!((fused.pushes(), fused.pops()), (split.pushes(), split.pops()));
        let drain = |q: &mut EventQueue<u64>| std::iter::from_fn(|| q.pop()).collect::<Vec<_>>();
        assert_eq!(drain(&mut fused), drain(&mut split));
        fused.replace_top(9, 7);
        let pops = fused.pops();
        assert_eq!(fused.pop(), Some((9, 7)), "an empty queue only pushes");
        assert_eq!(fused.pops(), pops + 1);
    }

    #[test]
    fn neg_ln_is_exact_at_powers_of_two_and_monotone() {
        // −ln(2^63 / 2^64) = ln 2.
        assert_eq!(neg_ln_unit_q32(1u64 << 63), LN2_Q32);
        // −ln(2^62 / 2^64) = 2 ln 2.
        assert_eq!(neg_ln_unit_q32(1u64 << 62), 2 * LN2_Q32);
        // −ln(1 / 2^64) = 64 ln 2, the sampler's maximum.
        assert_eq!(neg_ln_unit_q32(1), 64 * LN2_Q32);
        // u → 2^64 ⇒ −ln(u/2^64) → 0.
        assert_eq!(neg_ln_unit_q32(u64::MAX), 0);
        // Monotone decreasing in u.
        let mut prev = u64::MAX;
        for sh in 0..64 {
            let v = neg_ln_unit_q32(1u64 << sh);
            assert!(v < prev, "not decreasing at 2^{sh}");
            prev = v;
        }
    }

    #[test]
    fn poisson_arrivals_are_strictly_increasing_with_the_right_mean() {
        let mut g = ArrivalGen::new(
            ArrivalProcess::Poisson { mean_interarrival_cycles: 1000 },
            7,
        );
        let mut last = 0;
        let n = 20_000u64;
        for _ in 0..n {
            let t = g.next_arrival();
            assert!(t > last);
            last = t;
        }
        // Sample mean within 5% of the nominal 1000 cycles.
        let mean = last / n;
        assert!((950..=1050).contains(&mean), "sample mean {mean}");
    }

    #[test]
    fn same_seed_same_stream_different_seed_different_stream() {
        let p = ArrivalProcess::Poisson { mean_interarrival_cycles: 64 };
        let mut a = ArrivalGen::new(p.clone(), 42);
        let mut b = ArrivalGen::new(p.clone(), 42);
        let mut c = ArrivalGen::new(p, 43);
        let sa: Vec<u64> = (0..256).map(|_| a.next_arrival()).collect();
        let sb: Vec<u64> = (0..256).map(|_| b.next_arrival()).collect();
        let sc: Vec<u64> = (0..256).map(|_| c.next_arrival()).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
    }

    #[test]
    fn bursty_arrivals_never_land_in_off_windows() {
        let (on, off) = (100u64, 400u64);
        let mut g = ArrivalGen::new(
            ArrivalProcess::Bursty {
                on_cycles: on,
                off_cycles: off,
                mean_interarrival_cycles: 10,
            },
            9,
        );
        let mut last = 0;
        let mut in_first_window = 0u64;
        for _ in 0..5_000 {
            let t = g.next_arrival();
            assert!(t > last);
            last = t;
            // Phase within the (on + off) period must be inside the
            // on-window.
            assert!(t % (on + off) < on, "arrival at {t} is inside an off window");
            if t < on + off {
                in_first_window += 1;
            }
        }
        assert!(in_first_window > 0, "traffic starts in the first on-window");
    }

    #[test]
    fn refill_matches_per_draw_sampling_for_every_process() {
        let processes = [
            ArrivalProcess::Poisson { mean_interarrival_cycles: 500 },
            ArrivalProcess::Bursty {
                on_cycles: 5_000,
                off_cycles: 20_000,
                mean_interarrival_cycles: 200,
            },
            ArrivalProcess::Diurnal {
                segments: vec![
                    DiurnalSegment { duration_cycles: 10_000, mean_interarrival_cycles: 50 },
                    DiurnalSegment { duration_cycles: 30_000, mean_interarrival_cycles: 900 },
                ],
            },
        ];
        for p in processes {
            let mut scalar = ArrivalGen::new(p.clone(), 20260808);
            let expect: Vec<u64> = (0..300).map(|_| scalar.next_arrival()).collect();
            // Uneven refill sizes must splice into the same stream.
            let mut batched = ArrivalGen::new(p.clone(), 20260808);
            let mut got = VecDeque::new();
            for n in [1usize, 7, 64, 100, 128] {
                batched.refill(n, &mut got);
            }
            assert_eq!(Vec::from(got), expect, "refill diverged for {p:?}");
        }
    }

    /// `n` arrivals drawn per draw and again through `refill` in uneven
    /// batches: asserts the two streams agree and never decrease, and
    /// returns them.
    fn arrivals_both_ways(p: &ArrivalProcess, seed: u64, n: usize) -> Vec<u64> {
        let mut scalar = ArrivalGen::new(p.clone(), seed);
        let per_draw: Vec<u64> = (0..n).map(|_| scalar.next_arrival()).collect();
        let mut batched = ArrivalGen::new(p.clone(), seed);
        let mut got = VecDeque::new();
        while got.len() < n {
            batched.refill((n - got.len()).min(13), &mut got);
        }
        assert_eq!(Vec::from(got), per_draw, "refill diverged for {p:?}");
        assert!(per_draw.windows(2).all(|w| w[0] <= w[1]), "time went backwards for {p:?}");
        per_draw
    }

    #[test]
    fn a_poisson_stream_past_u64_max_ends_instead_of_wrapping() {
        // Mean gaps of 1e18 cycles pass 2^64 after ~18 draws.
        let p = ArrivalProcess::Poisson { mean_interarrival_cycles: 1_000_000_000_000_000_000 };
        let times = arrivals_both_ways(&p, 1, 40);
        let end = times.iter().position(|&t| t == END_OF_STREAM).expect("the clock saturates");
        assert!(end > 5, "only {end} arrivals before the end");
        assert!(times[..end].windows(2).all(|w| w[0] < w[1]));
        assert!(times[end..].iter().all(|&t| t == END_OF_STREAM), "an ended stream stays ended");
        // A gap above 2^64 saturates instead of truncating: 2^62 · 5.
        assert_eq!(gap_cycles(1 << 62, 5 << 32), u64::MAX);
        let p = ArrivalProcess::Poisson { mean_interarrival_cycles: u64::MAX };
        assert_eq!(arrivals_both_ways(&p, 1, 16)[15], END_OF_STREAM);
    }

    #[test]
    fn a_bursty_stream_past_u64_max_ends_instead_of_wrapping() {
        // One on-cycle, then u64::MAX off-cycles: every arrival after
        // cycle 0 lies past 2^64, where `on + off` alone overflows.
        let p = ArrivalProcess::Bursty {
            on_cycles: 1,
            off_cycles: u64::MAX,
            mean_interarrival_cycles: 10,
        };
        assert!(arrivals_both_ways(&p, 3, 20).iter().all(|&t| t == END_OF_STREAM));
        // Windows of 2^62 cycles every 2^63: the warp passes 2^64 in the
        // third window.
        let (on, off) = (1u64 << 62, 1u64 << 62);
        let p = ArrivalProcess::Bursty {
            on_cycles: on,
            off_cycles: off,
            mean_interarrival_cycles: 1 << 59,
        };
        let times = arrivals_both_ways(&p, 3, 64);
        let end = times.iter().position(|&t| t == END_OF_STREAM).expect("the clock saturates");
        assert!(times[..end].iter().any(|&t| t >= on + off), "the second window is used");
        for &t in &times[..end] {
            assert!(t % (on + off) < on, "arrival at {t} is inside an off window");
        }
    }

    #[test]
    fn a_diurnal_day_longer_than_u64_max_saturates() {
        let segment =
            |mean| DiurnalSegment { duration_cycles: u64::MAX, mean_interarrival_cycles: mean };
        // The day sum overflows u64, and the first segment covers the
        // whole clock, so the table is a Poisson process at its mean.
        let p = ArrivalProcess::Diurnal { segments: vec![segment(1000), segment(10)] };
        let poisson = ArrivalProcess::Poisson { mean_interarrival_cycles: 1000 };
        assert_eq!(arrivals_both_ways(&p, 5, 300), arrivals_both_ways(&poisson, 5, 300));
        let p = ArrivalProcess::Diurnal { segments: vec![segment(1 << 62), segment(1 << 62)] };
        assert_eq!(arrivals_both_ways(&p, 5, 40)[39], END_OF_STREAM);
    }

    #[test]
    fn diurnal_rate_table_modulates_arrival_density() {
        // Half the day fast (mean 10), half slow (mean 1000).
        let day_half = 100_000u64;
        let mut g = ArrivalGen::new(
            ArrivalProcess::Diurnal {
                segments: vec![
                    DiurnalSegment { duration_cycles: day_half, mean_interarrival_cycles: 10 },
                    DiurnalSegment { duration_cycles: day_half, mean_interarrival_cycles: 1000 },
                ],
            },
            11,
        );
        let (mut fast, mut slow) = (0u64, 0u64);
        loop {
            let t = g.next_arrival();
            if t >= 2 * day_half {
                break;
            }
            if t % (2 * day_half) < day_half {
                fast += 1;
            } else {
                slow += 1;
            }
        }
        assert!(
            fast > 10 * slow.max(1),
            "fast half ({fast}) should dwarf slow half ({slow})"
        );
    }
}
