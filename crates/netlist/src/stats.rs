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
    /// Indexed by `kind as usize` (see [`GateKind::ALL`]).
    counts: [u64; GateKind::ALL.len()],
    evals: u64,
}

impl ToggleStats {
    /// Creates an empty toggle table.
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn record(&mut self, kind: GateKind, flips: u64) {
        self.counts[kind as usize] += flips;
    }

    pub(crate) fn record_eval(&mut self) {
        self.evals += 1;
    }

    /// Toggles observed on nets driven by gates of `kind`.
    pub fn toggles(&self, kind: GateKind) -> u64 {
        self.counts[kind as usize]
    }

    /// Toggles observed across all gate kinds.
    pub fn total_toggles(&self) -> u64 {
        self.counts.iter().sum()
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

    /// Iterates over the `(kind, toggles)` pairs with a nonzero count, in
    /// [`GateKind`] order.
    pub fn iter(&self) -> impl Iterator<Item = (GateKind, u64)> + '_ {
        GateKind::ALL
            .into_iter()
            .zip(self.counts)
            .filter(|&(_, c)| c > 0)
    }

    /// Folds another probe's counts into this one — used to combine
    /// per-worker statistics after sharded characterization.  Toggle
    /// counts and eval-pass counts both add.
    pub fn merge(&mut self, other: &ToggleStats) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts) {
            *mine += theirs;
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

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::rng::Rng64;

    #[test]
    fn toggle_iter_skips_untouched_kinds_and_keeps_gate_kind_order() {
        let mut t = ToggleStats::new();
        t.record(GateKind::Dff, 7);
        t.record(GateKind::Xor, 5);
        t.record(GateKind::Not, 2);
        t.record(GateKind::Xor, 1);
        let got: Vec<_> = t.iter().collect();
        assert_eq!(got, [(GateKind::Not, 2), (GateKind::Xor, 6), (GateKind::Dff, 7)]);
        for kind in [GateKind::Const, GateKind::Input, GateKind::And, GateKind::Mux] {
            assert_eq!(t.toggles(kind), 0, "{kind}");
        }
        assert_eq!(t.total_toggles(), 15);
        assert_eq!(ToggleStats::new().iter().count(), 0);
    }

    #[test]
    fn toggle_merge_adds_counts_and_evals() {
        let mut a = ToggleStats::new();
        a.record(GateKind::And, 3);
        a.record_eval();
        let mut b = ToggleStats::new();
        b.record(GateKind::And, 4);
        b.record(GateKind::Mux, 9);
        b.record_eval();
        b.record_eval();
        a.merge(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), [(GateKind::And, 7), (GateKind::Mux, 9)]);
        assert_eq!(a.evals(), 3);
        assert_eq!(a.toggles_per_eval(), 16.0 / 3.0);
    }

    /// The array answers every query exactly as a kind-keyed map fed
    /// the same (nonzero) records would.
    #[test]
    fn toggle_array_matches_a_kind_keyed_map() {
        let mut rng = Rng64::seed_from_u64(0x70661E);
        for _ in 0..200 {
            let (mut t, mut u) = (ToggleStats::new(), ToggleStats::new());
            let mut model: BTreeMap<GateKind, u64> = BTreeMap::new();
            for i in 0..rng.gen_range(0..12usize) {
                let kind = GateKind::ALL[rng.gen_range(0..GateKind::ALL.len())];
                let flips = rng.gen_range(1..1000u64);
                *model.entry(kind).or_insert(0) += flips;
                let half = if i % 2 == 0 { &mut t } else { &mut u };
                half.record(kind, flips);
            }
            t.merge(&u);
            let want: Vec<_> = model.iter().map(|(&k, &c)| (k, c)).collect();
            assert_eq!(t.iter().collect::<Vec<_>>(), want);
            assert_eq!(t.total_toggles(), model.values().sum::<u64>());
            for kind in GateKind::ALL {
                assert_eq!(t.toggles(kind), model.get(&kind).copied().unwrap_or(0));
            }
        }
    }
}
