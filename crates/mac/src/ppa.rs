//! PPA characterization of the vector MAC designs: builds each structural
//! netlist, runs the randomized activity testbench per precision mode, and
//! evaluates the synthesis/power models at chosen clock periods.
//!
//! This is the reproduction of the paper's §V-A flow (RTL → DC → PTPX with
//! VCS stimulus), packaged so the systolic-array simulator and the
//! benchmark harness can look energies up instead of re-simulating gates.
//! Everything that does not depend on the clock period (STA, cell counts,
//! per-kind switching energy) is computed once per characterization, so an
//! operating-point query is arithmetic only.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use bsc_synth::{CellLibrary, EffortModel, PpaModel, PpaReport, SynthError};

/// Process-wide count of full characterization passes (gate-level netlist
/// build + activity testbench).  Characterization is by far the most
/// expensive construction in the stack, so callers that are supposed to
/// share characterizations (the `bsc-accel` engine cache, test binaries)
/// can assert this stayed at "once per distinct design".
static CHARACTERIZE_RUNS: AtomicU64 = AtomicU64::new(0);

/// Total [`DesignCharacterization`] constructions this process has run so
/// far — the ground truth behind the `telemetry.characterize.runs`
/// counter the `bsc-accel` characterization cache publishes.
pub fn characterize_runs() -> u64 {
    CHARACTERIZE_RUNS.load(Ordering::Relaxed)
}

use crate::netlist_if::StimulusProfile;
use crate::{build_netlist, MacError, MacKind, MacNetlist, Precision};

/// Default number of random stimulus cycles per characterization run
/// (each cycle evaluates 64 packed lanes).
pub const DEFAULT_STEPS: usize = 96;

/// Configuration of a characterization sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizeConfig {
    /// Vector length `L` (the paper uses 32).
    pub length: usize,
    /// Random stimulus cycles per mode.
    pub steps: usize,
    /// RNG seed for the stimulus.
    pub seed: u64,
    /// Cell library shared by every design.
    pub library: CellLibrary,
    /// Synthesis effort model shared by every design.
    pub effort: EffortModel,
}

impl Default for CharacterizeConfig {
    fn default() -> Self {
        CharacterizeConfig {
            length: 32,
            steps: DEFAULT_STEPS,
            seed: 0xB5C,
            library: CellLibrary::smic28_like(),
            effort: EffortModel::default(),
        }
    }
}

impl CharacterizeConfig {
    /// A faster configuration for unit tests (short vectors, few steps).
    pub fn quick(length: usize) -> Self {
        CharacterizeConfig { length, steps: 48, ..Self::default() }
    }
}

/// Errors from a characterization run.
#[derive(Debug)]
pub enum PpaError {
    /// Functional/netlist harness failure.
    Mac(MacError),
    /// Synthesis/power analysis failure.
    Synth(SynthError),
}

impl std::fmt::Display for PpaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PpaError::Mac(e) => write!(f, "characterization failed: {e}"),
            PpaError::Synth(e) => write!(f, "analysis failed: {e}"),
        }
    }
}

impl std::error::Error for PpaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PpaError::Mac(e) => Some(e),
            PpaError::Synth(e) => Some(e),
        }
    }
}

impl From<MacError> for PpaError {
    fn from(e: MacError) -> Self {
        PpaError::Mac(e)
    }
}

impl From<SynthError> for PpaError {
    fn from(e: SynthError) -> Self {
        PpaError::Synth(e)
    }
}

/// One recorded activity trace and the PPA model built from it.
#[derive(Debug)]
struct Mode {
    activity: bsc_netlist::Activity,
    model: PpaModel,
}

/// A characterized design: its netlist, the activity recorded in each
/// precision mode under both stimulus profiles, and one [`PpaModel`] per
/// trace — ready for repeated [`DesignCharacterization::at_period`]
/// queries.
///
/// Construction runs everything that does not depend on the clock period
/// once: the gate-level testbench (six activity traces), one STA and one
/// cell count for the netlist, and one per-kind switching-energy sum per
/// trace.  Each `at_period*` query then only applies the synthesis-effort
/// multipliers for its period (tens of nanoseconds, no allocation), and
/// returns exactly what [`bsc_synth::analyze`] would on the same netlist
/// and trace.
#[derive(Debug)]
pub struct DesignCharacterization {
    kind: MacKind,
    netlist: MacNetlist,
    random: BTreeMap<Precision, Mode>,
    weight_stationary: BTreeMap<Precision, Mode>,
    nominal_period_ps: f64,
    config: CharacterizeConfig,
}

impl DesignCharacterization {
    /// Builds the netlist for `kind`, records activity in all three
    /// precision modes (random and weight-stationary profiles) and builds
    /// the PPA model of each trace.
    ///
    /// Each characterization run shards its independent 64-lane stimulus
    /// batches across a scoped thread pool — every worker owns a private
    /// simulator and the per-batch recorders merge in batch order, so the
    /// recorded activity is deterministic and independent of the machine's
    /// core count.
    ///
    /// # Errors
    ///
    /// Propagates netlist simulation failures.
    pub fn new(kind: MacKind, config: &CharacterizeConfig) -> Result<Self, PpaError> {
        Self::new_with_workers(kind, config, None)
    }

    /// [`DesignCharacterization::new`] with an explicit worker-count
    /// override for the stimulus-batch pool (`None` → one worker per
    /// available core, `Some(1)` → fully sequential; used by determinism
    /// tests to show threaded and single-threaded runs merge to the same
    /// totals).
    ///
    /// # Errors
    ///
    /// Propagates netlist simulation failures.
    pub fn new_with_workers(
        kind: MacKind,
        config: &CharacterizeConfig,
        workers: Option<usize>,
    ) -> Result<Self, PpaError> {
        CHARACTERIZE_RUNS.fetch_add(1, Ordering::Relaxed);
        let netlist = build_netlist(kind, config.length);
        // One suite covers all six runs (three modes × two stimulus
        // profiles), so every pool worker compiles the design's simulator
        // once and reuses it across the whole grid.  The per-run seeds
        // match what separate `characterize*` calls would use, so suite
        // results are identical to run-at-a-time characterization.
        let runs: Vec<(Precision, StimulusProfile, u64)> = Precision::ALL
            .into_iter()
            .enumerate()
            .flat_map(|(i, p)| {
                let s = config.seed ^ ((i as u64) << 17);
                [
                    (p, StimulusProfile::Random, s),
                    (p, StimulusProfile::WeightStationary, s ^ 0x5757),
                ]
            })
            .collect();
        let acts = netlist.characterize_suite(config.steps, &runs, workers)?;
        // The suite's simulators already levelized the netlist, so it has
        // no combinational cycle and the STA here cannot fail.
        let base = PpaModel::of_netlist(netlist.netlist(), &config.library)?;
        let mut random = BTreeMap::new();
        let mut weight_stationary = BTreeMap::new();
        for ((p, profile, _), activity) in runs.into_iter().zip(acts) {
            let mode = Mode { model: base.with_activity(&activity, &config.library), activity };
            match profile {
                StimulusProfile::Random => random.insert(p, mode),
                StimulusProfile::WeightStationary => weight_stationary.insert(p, mode),
            };
        }
        Ok(DesignCharacterization {
            kind,
            netlist,
            random,
            weight_stationary,
            nominal_period_ps: base.nominal_period_ps(),
            config: config.clone(),
        })
    }

    /// The recorded activity of one precision mode (random stimulus) —
    /// exposed so determinism tests can compare runs directly.
    pub fn activity(&self, p: Precision) -> &bsc_netlist::Activity {
        &self.random[&p].activity
    }

    /// The recorded weight-stationary activity of one precision mode.
    pub fn activity_weight_stationary(&self, p: Precision) -> &bsc_netlist::Activity {
        &self.weight_stationary[&p].activity
    }

    /// The architecture characterized.
    pub fn kind(&self) -> MacKind {
        self.kind
    }

    /// The structural netlist.
    pub fn netlist(&self) -> &MacNetlist {
        &self.netlist
    }

    /// PPA of one mode at one clock period (in ps), under the *both streams
    /// random* stimulus the paper's vector-unit testbench uses.
    ///
    /// Evaluates the stored [`PpaModel`] of that trace: no STA and no
    /// allocation, and bit-identical to [`bsc_synth::analyze`] on the same
    /// netlist and activity.
    ///
    /// # Errors
    ///
    /// Returns [`SynthError::InvalidPeriod`] (wrapped) for a non-positive
    /// or non-finite period, [`SynthError::NoActivity`] when the
    /// characterization ran no stimulus steps, and
    /// [`SynthError::TimingInfeasible`] when the period is below what
    /// upsizing can reach.
    pub fn at_period(&self, p: Precision, period_ps: f64) -> Result<PpaReport, PpaError> {
        self.evaluate(&self.random, p, period_ps)
    }

    /// PPA of one mode at one clock period under *weight-stationary*
    /// stimulus (weights held, features streaming) — the activity profile
    /// of a PE inside the systolic array, where the data reuse the paper's
    /// §IV highlights suppresses the weight-register switching.  Evaluates
    /// the stored model like [`DesignCharacterization::at_period`].
    ///
    /// # Errors
    ///
    /// Same as [`DesignCharacterization::at_period`].
    pub fn at_period_weight_stationary(
        &self,
        p: Precision,
        period_ps: f64,
    ) -> Result<PpaReport, PpaError> {
        self.evaluate(&self.weight_stationary, p, period_ps)
    }

    fn evaluate(
        &self,
        modes: &BTreeMap<Precision, Mode>,
        p: Precision,
        period_ps: f64,
    ) -> Result<PpaReport, PpaError> {
        let macs_per_cycle = self.netlist.macs_per_cycle(p) as f64;
        Ok(modes[&p].model.at(&self.config.effort, period_ps, macs_per_cycle)?)
    }

    /// Nominal (unconstrained-synthesis) minimum clock period in ps, from
    /// the STA run once at construction.
    pub fn nominal_period_ps(&self) -> f64 {
        self.nominal_period_ps
    }

    /// The maximum-energy-efficiency operating point of one mode over a
    /// period sweep: evaluates every feasible period and returns the report
    /// with the highest TOPS/W.
    ///
    /// # Errors
    ///
    /// Returns an error only when *no* period in the sweep is feasible.
    pub fn best_efficiency(
        &self,
        p: Precision,
        periods_ps: &[f64],
    ) -> Result<PpaReport, PpaError> {
        self.best_of(&self.random, p, periods_ps)
    }

    /// Like [`DesignCharacterization::best_efficiency`] but under
    /// weight-stationary activity (the systolic-array operating profile).
    ///
    /// # Errors
    ///
    /// Returns an error only when *no* period in the sweep is feasible.
    pub fn best_efficiency_weight_stationary(
        &self,
        p: Precision,
        periods_ps: &[f64],
    ) -> Result<PpaReport, PpaError> {
        self.best_of(&self.weight_stationary, p, periods_ps)
    }

    /// The first report with the highest TOPS/W over `periods_ps`, or the
    /// last error when no period is feasible.
    fn best_of(
        &self,
        modes: &BTreeMap<Precision, Mode>,
        p: Precision,
        periods_ps: &[f64],
    ) -> Result<PpaReport, PpaError> {
        let mut best: Option<PpaReport> = None;
        let mut last_err = None;
        for &t in periods_ps {
            match self.evaluate(modes, p, t) {
                Ok(r) => {
                    if best.as_ref().is_none_or(|b| r.tops_per_w > b.tops_per_w) {
                        best = Some(r);
                    }
                }
                Err(e) => last_err = Some(e),
            }
        }
        best.ok_or_else(|| {
            last_err.unwrap_or(PpaError::Synth(SynthError::InvalidPeriod(f64::NAN)))
        })
    }
}

/// The paper's Fig. 7 clock-period sweep: 0.8 ns to 2.4 ns in 0.2 ns steps,
/// in ps.
pub fn paper_period_sweep_ps() -> Vec<f64> {
    (0..9).map(|i| 800.0 + 200.0 * i as f64).collect()
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_matches_paper_range() {
        let s = paper_period_sweep_ps();
        assert_eq!(s.len(), 9);
        assert_eq!(s[0], 800.0);
        assert_eq!(*s.last().unwrap(), 2400.0);
    }

    #[test]
    fn characterization_produces_reports_for_all_modes() {
        let cfg = CharacterizeConfig::quick(2);
        let c = DesignCharacterization::new(MacKind::Hps, &cfg).unwrap();
        for p in Precision::ALL {
            let r = c.at_period(p, 2400.0).unwrap();
            assert!(r.dynamic_power_mw > 0.0, "{p}");
            assert!(r.tops_per_w > 0.0, "{p}");
        }
    }

    #[test]
    fn lower_precision_is_more_efficient_within_a_design() {
        let cfg = CharacterizeConfig::quick(2);
        let c = DesignCharacterization::new(MacKind::Bsc, &cfg).unwrap();
        let e2 = c.at_period(Precision::Int2, 2400.0).unwrap().tops_per_w;
        let e8 = c.at_period(Precision::Int8, 2400.0).unwrap().tops_per_w;
        assert!(e2 > e8, "2-bit ({e2}) should beat 8-bit ({e8}) within BSC");
    }

    #[test]
    fn characterization_is_deterministic_across_worker_counts() {
        use crate::Precision;
        let cfg = CharacterizeConfig::quick(2);
        let single = DesignCharacterization::new_with_workers(MacKind::Bsc, &cfg, Some(1)).unwrap();
        let pooled = DesignCharacterization::new_with_workers(MacKind::Bsc, &cfg, Some(4)).unwrap();
        for p in Precision::ALL {
            for (a, b) in [
                (single.activity(p), pooled.activity(p)),
                (
                    single.activity_weight_stationary(p),
                    pooled.activity_weight_stationary(p),
                ),
            ] {
                assert_eq!(a.observed_cycles(), b.observed_cycles(), "{p}");
                assert!(a.observed_cycles() > 0, "{p}");
                let av: Vec<_> = a.iter_nodes().collect();
                let bv: Vec<_> = b.iter_nodes().collect();
                assert_eq!(av, bv, "{p}: per-net toggle counts must not depend on workers");
            }
        }
    }

    #[test]
    fn best_efficiency_picks_a_feasible_point() {
        let cfg = CharacterizeConfig::quick(2);
        let c = DesignCharacterization::new(MacKind::Bsc, &cfg).unwrap();
        let best = c
            .best_efficiency(Precision::Int4, &paper_period_sweep_ps())
            .unwrap();
        assert!(best.tops_per_w > 0.0);
    }
}
