//! Testbench utilities: random stimulus driving and activity
//! characterization runs.
//!
//! These helpers play the role of the paper's VCS testbenches: they drive
//! randomized operand streams (with the mode pins held at a chosen
//! configuration) and collect the toggle statistics that the synthesis
//! crate's power model consumes.  [`run_batched_activity`] is the one
//! batched testbench behind both the vector-MAC and the whole-array
//! characterization.
use crate::rng::Rng64;

use crate::{Activity, Bus, Netlist, NetlistError, NodeId, Simulator};

/// Stimulus cycles per independent characterization batch.  Batches are
/// the unit of work sharded across the thread pool; the batch size is
/// fixed (not derived from the worker count) so characterization results
/// are identical no matter how many workers run them.  Large enough to
/// amortize the per-batch warm-up, small enough that a default 96-step
/// run still splits four ways.
pub const BATCH_STEPS: usize = 24;

/// Derives the RNG seed of stimulus batch `batch` from its run's seed
/// (splitmix64 over a golden-ratio stride, so neighbouring batches get
/// decorrelated streams).
pub fn batch_seed(seed: u64, batch: usize) -> u64 {
    let mut s = seed.wrapping_add((batch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    crate::rng::splitmix64(&mut s)
}

/// Batched switching-activity characterization of `netlist`: one run per
/// entry of `seeds`, each `steps` recorded cycles long.
///
/// Every run is split into [`BATCH_STEPS`]-cycle batches, and the whole
/// `runs × batches` job grid is sharded over [`crate::par::run_indexed_with`]
/// with one reused [`Simulator`] per worker.  Each batch resets the
/// simulator, seeds its RNG from [`batch_seed`]`(seeds[run], batch)`,
/// calls `warm_up(sim, run, rng)` (which must leave the design settled),
/// and records its share of the run's cycles, each one
/// `drive(sim, run, rng)` followed by [`Simulator::step`] and
/// [`Simulator::eval`], into a clone of one pristine [`Activity`]
/// prototype.  When `drive` writes only inputs that feed flop data pins,
/// as the MAC and array testbenches do, the evaluation before each clock
/// edge skips its sweep and each cycle costs one sweep.  A run's batches merge in batch order, so each
/// returned recorder depends only on the batch structure, never on the
/// worker count or on which runs share a call.
///
/// # Errors
///
/// Returns an error when the netlist contains a combinational cycle.
pub fn run_batched_activity<W, D>(
    netlist: &Netlist,
    steps: usize,
    seeds: &[u64],
    workers: Option<usize>,
    warm_up: W,
    drive: D,
) -> Result<Vec<Activity>, NetlistError>
where
    W: Fn(&mut Simulator<'_>, usize, &mut Rng64) + Sync,
    D: Fn(&mut Simulator<'_>, usize, &mut Rng64) + Sync,
{
    let batches = steps.div_ceil(BATCH_STEPS).max(1);
    let results = crate::par::run_indexed_with(
        seeds.len() * batches,
        workers,
        || (Simulator::new(netlist), None::<Activity>),
        |(sim, proto), job| {
            let sim = sim.as_mut().map_err(|e| e.clone())?;
            let (run, batch) = (job / batches, job % batches);
            sim.reset();
            let mut rng = Rng64::seed_from_u64(batch_seed(seeds[run], batch));
            warm_up(sim, run, &mut rng);
            // Cloning the never-recorded prototype copies only its snapshot
            // and zeroed counts; the gate kinds and the live set are shared.
            let mut act = proto.get_or_insert_with(|| Activity::new(sim)).clone();
            act.rebaseline(sim);
            for _ in batch * BATCH_STEPS..steps.min((batch + 1) * BATCH_STEPS) {
                drive(sim, run, &mut rng);
                sim.step();
                sim.eval();
                act.record(sim);
            }
            Ok::<Activity, NetlistError>(act)
        },
    );
    let mut results = results.into_iter();
    let mut out = Vec::with_capacity(seeds.len());
    for _ in seeds {
        let mut merged = results.next().expect("one result per job")?;
        for act in results.by_ref().take(batches - 1) {
            merged.merge(&act?);
        }
        out.push(merged);
    }
    Ok(out)
}

/// Writes an independent uniformly random word to every bit of `bus`
/// (all 64 lanes randomized at once).
pub fn drive_random(sim: &mut Simulator<'_>, bus: &Bus, rng: &mut Rng64) {
    for &bit in bus.bits() {
        sim.write(bit, rng.next_u64());
    }
}

/// Holds control nets at constant values across all lanes.
pub fn hold(sim: &mut Simulator<'_>, pins: &[(NodeId, bool)]) {
    for &(pin, v) in pins {
        sim.write(pin, if v { u64::MAX } else { 0 });
    }
}

/// Runs a randomized switching-activity characterization.
///
/// `held` pins are fixed for the whole run (the precision-mode
/// configuration); every bus in `random` receives fresh uniform random data
/// on each of the `steps` evaluations.  Returns the accumulated activity;
/// average toggles per cycle follow from
/// [`Activity::toggles_per_cycle`].
///
/// # Errors
///
/// Returns an error when the netlist contains a combinational cycle.
pub fn run_random_activity(
    netlist: &Netlist,
    held: &[(NodeId, bool)],
    random: &[&Bus],
    steps: usize,
    seed: u64,
) -> Result<Activity, NetlistError> {
    let mut sim = Simulator::new(netlist)?;
    let mut rng = Rng64::seed_from_u64(seed);
    hold(&mut sim, held);
    for bus in random {
        drive_random(&mut sim, bus, &mut rng);
    }
    sim.eval();
    let mut act = Activity::new(&sim);
    for _ in 0..steps {
        for bus in random {
            drive_random(&mut sim, bus, &mut rng);
        }
        sim.eval();
        act.record(&sim);
    }
    Ok(act)
}

/// Uniformly random signed value fitting in `bits` bits of two's complement.
pub fn random_signed(rng: &mut Rng64, bits: u32) -> i64 {
    let lo = -(1i64 << (bits - 1));
    let hi = 1i64 << (bits - 1);
    rng.gen_range(lo..hi)
}

/// A vector of uniformly random signed values fitting in `bits` bits.
pub fn random_signed_vec(rng: &mut Rng64, bits: u32, len: usize) -> Vec<i64> {
    (0..len).map(|_| random_signed(rng, bits)).collect()
}

/// Fills `out` with uniformly random signed values fitting in `bits` bits —
/// the allocation-free variant of [`random_signed_vec`] for per-cycle
/// stimulus loops (draws values in the same order, so a caller switching
/// to the fill variant sees the identical stream).
pub fn random_signed_fill(rng: &mut Rng64, bits: u32, out: &mut [i64]) {
    for v in out.iter_mut() {
        *v = random_signed(rng, bits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SIM_LANES;

    #[test]
    fn random_signed_respects_range() {
        let mut rng = Rng64::seed_from_u64(1);
        for _ in 0..1000 {
            let v = random_signed(&mut rng, 4);
            assert!((-8..8).contains(&v));
        }
        for _ in 0..1000 {
            let v = random_signed(&mut rng, 2);
            assert!((-2..2).contains(&v));
        }
    }

    #[test]
    fn activity_run_toggles_logic() {
        let mut n = Netlist::new();
        let a = n.input_bus("a", 8);
        let b = n.input_bus("b", 8);
        let x: Bus = a
            .bits()
            .iter()
            .zip(b.bits())
            .map(|(&p, &q)| n.xor(p, q))
            .collect();
        n.mark_output_bus("x", &x);
        let act = run_random_activity(&n, &[], &[&a, &b], 16, 42).unwrap();
        assert!(act.toggles(crate::GateKind::Xor) > 0);
        assert_eq!(act.observed_cycles(), 16 * 64);
    }

    /// The batched testbench against a plain loop that builds a fresh
    /// simulator per batch: per-net toggles and
    /// observed cycles match for every run, at one worker and at three,
    /// with a short last batch and with zero steps.
    #[test]
    fn batched_activity_matches_a_plain_per_batch_loop() {
        let mut n = Netlist::new();
        let mode = n.input("mode");
        let a = n.input_bus("a", 4);
        let q: Bus = a.bits().iter().map(|&d| n.dff(d, false)).collect();
        let y: Bus = q.bits().iter().map(|&b| n.xor(b, mode)).collect();
        n.mark_output_bus("y", &y);
        let seeds = [3, 0xBEEF];
        let warm_up = |sim: &mut Simulator<'_>, run: usize, rng: &mut Rng64| {
            hold(sim, &[(mode, run == 1)]);
            drive_random(sim, &a, rng);
            sim.step();
            sim.eval();
        };
        let drive = |sim: &mut Simulator<'_>, _: usize, rng: &mut Rng64| drive_random(sim, &a, rng);
        for steps in [0, 2 * BATCH_STEPS + 5] {
            let reference: Vec<Activity> = (0..seeds.len())
                .map(|run| {
                    let mut merged: Option<Activity> = None;
                    for batch in 0..steps.div_ceil(BATCH_STEPS).max(1) {
                        let mut sim = Simulator::new(&n).unwrap();
                        let mut rng = Rng64::seed_from_u64(batch_seed(seeds[run], batch));
                        warm_up(&mut sim, run, &mut rng);
                        let mut act = Activity::new(&sim);
                        for _ in batch * BATCH_STEPS..steps.min((batch + 1) * BATCH_STEPS) {
                            drive(&mut sim, run, &mut rng);
                            sim.step();
                            sim.eval();
                            act.record(&sim);
                        }
                        match &mut merged {
                            None => merged = Some(act),
                            Some(m) => m.merge(&act),
                        }
                    }
                    merged.expect("at least one batch")
                })
                .collect();
            for workers in [Some(1), Some(3)] {
                let got = run_batched_activity(&n, steps, &seeds, workers, warm_up, drive).unwrap();
                assert_eq!(got.len(), seeds.len());
                for (run, (g, want)) in got.iter().zip(&reference).enumerate() {
                    let at = format!("steps {steps}, workers {workers:?}, run {run}");
                    assert!(g.iter_nodes().eq(want.iter_nodes()), "{at}: per-net toggles");
                    assert_eq!(g.observed_cycles(), want.observed_cycles(), "{at}");
                    assert_eq!(want.observed_cycles(), (steps * SIM_LANES) as u64, "{at}");
                }
            }
        }
    }

    #[test]
    fn held_pins_do_not_toggle() {
        let mut n = Netlist::new();
        let mode = n.input("mode");
        let a = n.input_bus("a", 4);
        let g = a.and_bit(&mut n, mode);
        n.mark_output_bus("g", &g);
        let act = run_random_activity(&n, &[(mode, false)], &[&a], 16, 7).unwrap();
        // Gated to zero: AND outputs never toggle.
        assert_eq!(act.toggles(crate::GateKind::And), 0);
    }
}
