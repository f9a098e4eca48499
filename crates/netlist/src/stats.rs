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
