use std::collections::BTreeMap;
use std::fmt;

use crate::GateKind;

/// Per-cell-kind gate counts over the live portion of a netlist.
///
/// # Example
///
/// ```
/// use bsc_netlist::Netlist;
///
/// let mut n = Netlist::new();
/// let a = n.input("a");
/// let b = n.input("b");
/// let y = n.and(a, b);
/// n.mark_output(y, "y");
/// assert_eq!(n.stats().total_cells(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GateStats {
    /// Indexed by `kind as usize` (see [`GateKind::ALL`]).
    counts: [usize; GateKind::ALL.len()],
}

impl GateStats {
    /// Creates an empty count table.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record(&mut self, kind: GateKind) {
        self.counts[kind as usize] += 1;
    }

    /// Number of cells of the given kind.
    pub fn count(&self, kind: GateKind) -> usize {
        self.counts[kind as usize]
    }

    /// Total number of area-occupying cells (inputs and constants excluded).
    pub fn total_cells(&self) -> usize {
        GateKind::CELLS.iter().map(|&k| self.count(k)).sum()
    }

    /// Number of sequential cells.
    pub fn flops(&self) -> usize {
        self.count(GateKind::Dff)
    }

    /// Iterates over the `(kind, count)` pairs with a nonzero count, in
    /// [`GateKind`] order.
    pub fn iter(&self) -> impl Iterator<Item = (GateKind, usize)> + '_ {
        GateKind::ALL
            .into_iter()
            .zip(self.counts)
            .filter(|&(_, c)| c > 0)
    }
}

/// Switching-activity totals recorded by the [`crate::Simulator`]'s
/// toggle probe: bit flips per gate kind, accumulated over every
/// [`crate::Simulator::eval`] pass while the probe is enabled.
///
/// Each toggle is one bit transition on one net in one packed stimulus
/// lane, so totals are directly comparable with [`crate::Activity`]
/// (which records the same quantity from outside the simulator) and feed
/// the synthesis crate's switching-power estimate.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ToggleStats {
    counts: BTreeMap<GateKind, u64>,
    evals: u64,
}

impl ToggleStats {
    /// Creates an empty toggle table.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record(&mut self, kind: GateKind, flips: u64) {
        *self.counts.entry(kind).or_insert(0) += flips;
    }

    pub(crate) fn record_eval(&mut self) {
        self.evals += 1;
    }

    /// Toggles observed on nets driven by gates of `kind`.
    pub fn toggles(&self, kind: GateKind) -> u64 {
        self.counts.get(&kind).copied().unwrap_or(0)
    }

    /// Toggles observed across all gate kinds.
    pub fn total_toggles(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Number of `eval` passes the probe has observed.
    pub fn evals(&self) -> u64 {
        self.evals
    }

    /// Mean toggles per `eval` pass (over all 64 packed lanes), or 0 when
    /// no pass has run.
    pub fn toggles_per_eval(&self) -> f64 {
        if self.evals == 0 {
            0.0
        } else {
            self.total_toggles() as f64 / self.evals as f64
        }
    }

    /// Iterates over `(kind, toggles)` pairs in a stable order.
    pub fn iter(&self) -> impl Iterator<Item = (GateKind, u64)> + '_ {
        self.counts.iter().map(|(&k, &c)| (k, c))
    }

    /// Folds another probe's counts into this one — used to combine
    /// per-worker statistics after sharded characterization.  Toggle
    /// counts and eval-pass counts both add.
    pub fn merge(&mut self, other: &ToggleStats) {
        for (kind, flips) in other.iter() {
            *self.counts.entry(kind).or_insert(0) += flips;
        }
        self.evals += other.evals;
    }
}

impl fmt::Display for ToggleStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} toggles over {} evals (", self.total_toggles(), self.evals)?;
        let mut first = true;
        for (kind, count) in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{kind}:{count}")?;
            first = false;
        }
        write!(f, ")")
    }
}

impl fmt::Display for GateStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cells (", self.total_cells())?;
        let mut first = true;
        for (kind, count) in self.iter() {
            if matches!(kind, GateKind::Const | GateKind::Input) {
                continue;
            }
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{kind}:{count}")?;
            first = false;
        }
        write!(f, ")")
    }
}
