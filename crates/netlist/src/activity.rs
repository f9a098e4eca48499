use std::sync::Arc;

use crate::{GateKind, NodeId, Simulator, SIM_LANES};

/// Switching-activity recorder: accumulates *per-net* toggle counts
/// between successive evaluations of a [`Simulator`].
///
/// With the 64-lane packed simulator, each lane is an independent stimulus
/// stream, so one [`Activity::record`] call after an `eval` observes 64
/// cycle transitions at once.  Average toggles per cell per cycle — the
/// quantity PrimeTime PX derives from a SAIF file — is
/// `toggles / observed_cycles`.
///
/// Per-net counts feed the SAIF export ([`crate::saif`]) and hotspot
/// queries ([`Activity::hottest_nets`]); per-kind aggregates feed the
/// power model.  Only live nets (those [`crate::Netlist::live_set`]
/// keeps) are ever reported: [`Activity::record`] counts every net, and
/// each query applies liveness as it reads the counts.
///
/// # Example
///
/// ```
/// use bsc_netlist::{Activity, Netlist, Simulator};
///
/// # fn main() -> Result<(), bsc_netlist::NetlistError> {
/// let mut n = Netlist::new();
/// let a = n.input("a");
/// let y = n.not(a);
/// n.mark_output(y, "y");
/// let mut sim = Simulator::new(&n)?;
/// sim.eval();
/// let mut act = Activity::new(&sim);
/// sim.write(a, u64::MAX);
/// sim.eval();
/// act.record(&sim);
/// assert_eq!(act.toggles(bsc_netlist::GateKind::Not), 64);
/// assert_eq!(act.node_toggles(y), 64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Activity {
    prev: Vec<u64>,
    /// Per-net gate kinds and liveness: fixed by the netlist, so every
    /// clone of a recorder shares them.
    kinds: Arc<[GateKind]>,
    live: Arc<[bool]>,
    /// Toggles of every net, dead ones included; queries skip dead nets.
    node_toggles: Vec<u64>,
    observed_cycles: u64,
}

impl Activity {
    /// Starts recording from the simulator's current state (baseline).
    pub fn new(sim: &Simulator<'_>) -> Self {
        let netlist = sim.netlist();
        let kinds = (0..netlist.len())
            .map(|i| netlist.gate(NodeId(i as u32)).kind())
            .collect();
        Activity {
            prev: sim.values().to_vec(),
            kinds,
            live: netlist.live_set().into(),
            node_toggles: vec![0; netlist.len()],
            observed_cycles: 0,
        }
    }

    /// Rebaselines the snapshot to the simulator's current state without
    /// counting anything — used when a reused simulator starts a fresh
    /// stimulus batch whose transition from the previous batch's final
    /// state must not be recorded.
    pub fn rebaseline(&mut self, sim: &Simulator<'_>) {
        self.prev.copy_from_slice(sim.values());
    }

    /// Accumulates toggles between the stored snapshot and the simulator's
    /// current values, then updates the snapshot.
    ///
    /// This runs once per characterized cycle over every net, so it is
    /// written branch-free and without a liveness test: it counts dead nets
    /// too (a dead input the testbench drives does toggle), and every query
    /// drops them as it reads the counts.
    pub fn record(&mut self, sim: &Simulator<'_>) {
        for ((t, prev), &cur) in self
            .node_toggles
            .iter_mut()
            .zip(&mut self.prev)
            .zip(sim.values())
        {
            *t += u64::from((cur ^ *prev).count_ones());
            *prev = cur;
        }
        self.observed_cycles += SIM_LANES as u64;
    }

    /// Per-net `(kind, toggles)` of the live nets.
    fn live_counts(&self) -> impl Iterator<Item = (GateKind, u64)> + '_ {
        self.node_toggles
            .iter()
            .zip(self.kinds.iter().zip(self.live.iter()))
            .filter(|&(_, (_, &live))| live)
            .map(|(&t, (&k, _))| (k, t))
    }

    /// Total toggles recorded for one cell kind.
    pub fn toggles(&self, kind: GateKind) -> u64 {
        self.live_counts()
            .filter(|&(k, _)| k == kind)
            .map(|(_, t)| t)
            .sum()
    }

    /// Total toggles recorded on one net (0 for a dead net).
    pub fn node_toggles(&self, id: NodeId) -> u64 {
        if self.live[id.index()] {
            self.node_toggles[id.index()]
        } else {
            0
        }
    }

    /// Number of cycle transitions observed so far (lanes × record calls).
    pub fn observed_cycles(&self) -> u64 {
        self.observed_cycles
    }

    /// Average toggles per cycle for one cell kind (across all its cells).
    pub fn toggles_per_cycle(&self, kind: GateKind) -> f64 {
        if self.observed_cycles == 0 {
            return 0.0;
        }
        self.toggles(kind) as f64 / self.observed_cycles as f64
    }

    /// Iterates over `(kind, total toggles)` for every kind that toggled,
    /// in [`GateKind`] order — one pass over the nets for all kinds.
    pub fn iter(&self) -> impl Iterator<Item = (GateKind, u64)> + '_ {
        let mut by_kind = [0u64; GateKind::ALL.len()];
        for (k, t) in self.live_counts() {
            by_kind[k as usize] += t;
        }
        GateKind::ALL
            .into_iter()
            .zip(by_kind)
            .filter(|&(_, t)| t > 0)
    }

    /// Iterates over live nets with their toggle counts.
    pub fn iter_nodes(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.node_toggles
            .iter()
            .enumerate()
            .filter(|(i, _)| self.live[*i])
            .map(|(i, &t)| (NodeId(i as u32), t))
    }

    /// Folds another recorder's counts into this one — used to combine
    /// per-worker recorders after sharded characterization.  Per-net
    /// toggles and observed cycles both add; the snapshot (`prev`) keeps
    /// this recorder's own baseline, which is meaningless after a merge,
    /// so merged recorders should only be queried, not recorded into.
    ///
    /// # Panics
    ///
    /// Panics when the two recorders observe different netlists (net
    /// counts differ).
    pub fn merge(&mut self, other: &Activity) {
        assert_eq!(
            self.node_toggles.len(),
            other.node_toggles.len(),
            "cannot merge Activity recorders from different netlists"
        );
        for (t, &o) in self.node_toggles.iter_mut().zip(&other.node_toggles) {
            *t += o;
        }
        self.observed_cycles += other.observed_cycles;
    }

    /// The `k` most active nets, highest toggle count first — the switching
    /// hotspots a power engineer would chase.
    pub fn hottest_nets(&self, k: usize) -> Vec<(NodeId, u64)> {
        let mut nets: Vec<(NodeId, u64)> = self.iter_nodes().collect();
        nets.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        nets.truncate(k);
        nets
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Netlist;

    #[test]
    fn stable_inputs_produce_no_toggles() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let y = n.and(a, b);
        n.mark_output(y, "y");
        let mut sim = Simulator::new(&n).unwrap();
        sim.eval();
        let mut act = Activity::new(&sim);
        sim.eval();
        act.record(&sim);
        assert_eq!(act.toggles(GateKind::And), 0);
    }

    #[test]
    fn dead_gates_are_not_counted() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let _dead = n.xor(a, b);
        let y = n.and(a, b);
        n.mark_output(y, "y");
        let mut sim = Simulator::new(&n).unwrap();
        sim.eval();
        let mut act = Activity::new(&sim);
        sim.write(a, u64::MAX);
        sim.write(b, u64::MAX);
        sim.eval();
        act.record(&sim);
        assert_eq!(act.toggles(GateKind::Xor), 0);
        assert_eq!(act.toggles(GateKind::And), 64);
    }

    /// Dead nets do switch in the simulator's value array — a testbench
    /// may drive a dead input every cycle, and a dead gate's net, which the
    /// simulator never evaluates, holds whatever is written to it — and
    /// the recorder counts them, but no query reports them, before or
    /// after a merge.
    #[test]
    fn dead_nets_report_zero_through_every_query() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let spare = n.input("spare");
        let dead = n.xor(a, spare);
        let y = n.and(a, b);
        n.mark_output(y, "y");
        let record = |seed: u64| {
            let mut sim = Simulator::new(&n).unwrap();
            sim.write(a, u64::MAX);
            sim.eval();
            let mut act = Activity::new(&sim);
            let mut state = seed;
            for _ in 0..8 {
                for net in [b, spare, dead] {
                    sim.write(net, crate::rng::splitmix64(&mut state));
                }
                sim.eval();
                act.record(&sim);
            }
            act
        };
        let check = |act: &Activity, at: &str| {
            let live_input = act.node_toggles(b);
            assert!(
                live_input > 0 && act.node_toggles(y) > 0,
                "{at}: live nets toggled"
            );
            assert_eq!(
                (act.node_toggles(spare), act.node_toggles(dead)),
                (0, 0),
                "{at}"
            );
            assert_eq!(
                act.toggles(GateKind::Input),
                live_input,
                "{at}: a dead input counted"
            );
            assert_eq!(act.toggles(GateKind::Xor), 0, "{at}: a dead gate counted");
            let by_kind: Vec<_> = act.iter().collect();
            assert_eq!(
                by_kind,
                [
                    (GateKind::Input, live_input),
                    (GateKind::And, act.node_toggles(y))
                ],
                "{at}"
            );
            assert!(
                act.iter_nodes().all(|(id, _)| id != spare && id != dead),
                "{at}"
            );
        };
        let mut merged = record(1);
        check(&merged, "one recorder");
        merged.merge(&record(2));
        check(&merged, "merged");
    }

    #[test]
    fn toggles_per_cycle_is_normalized() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let y = n.not(a);
        n.mark_output(y, "y");
        let mut sim = Simulator::new(&n).unwrap();
        sim.eval();
        let mut act = Activity::new(&sim);
        // Toggle every lane once over one recorded transition.
        sim.write(a, u64::MAX);
        sim.eval();
        act.record(&sim);
        assert!((act.toggles_per_cycle(GateKind::Not) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn per_kind_iterators_yield_nonzero_kinds_in_kind_order() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        let q = n.dff(a, false);
        let x = n.xor(q, a);
        let m = n.mux(c, x, a);
        let quiet = n.and(b, c); // b and c stay 0, so this never toggles
        let y = n.or(m, quiet);
        let w = n.not(y);
        n.mark_output(w, "w");

        let stats = n.stats();
        let counted: Vec<_> = stats.iter().collect();
        let expected: Vec<_> = GateKind::ALL
            .into_iter()
            .map(|k| (k, stats.count(k)))
            .filter(|&(_, c)| c > 0)
            .collect();
        assert_eq!(counted, expected);
        assert!(counted.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(stats.count(GateKind::And) > 0 && stats.count(GateKind::Nand) == 0);

        let mut sim = Simulator::new(&n).unwrap();
        sim.eval();
        let mut act = Activity::new(&sim);
        for v in [u64::MAX, 0x5555_5555_5555_5555, 0] {
            sim.write(a, v);
            sim.step();
            act.record(&sim);
        }
        let toggled: Vec<_> = act.iter().collect();
        let expected: Vec<_> = GateKind::ALL
            .into_iter()
            .map(|k| (k, act.toggles(k)))
            .filter(|&(_, t)| t > 0)
            .collect();
        assert_eq!(toggled, expected);
        assert!(toggled.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(toggled.iter().all(|&(k, _)| k != GateKind::And));
        assert!(toggled.iter().any(|&(k, _)| k == GateKind::Dff));
    }

    #[test]
    fn hottest_nets_rank_by_activity() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let busy = n.not(a); // toggles with a
        let quiet = n.and(a, b); // b stays 0 -> and stays 0
        let y = n.or(busy, quiet);
        n.mark_output(y, "y");
        let mut sim = Simulator::new(&n).unwrap();
        sim.write(b, 0);
        sim.eval();
        let mut act = Activity::new(&sim);
        for v in [u64::MAX, 0, u64::MAX, 0] {
            sim.write(a, v);
            sim.eval();
            act.record(&sim);
        }
        let hot = act.hottest_nets(2);
        assert_eq!(act.node_toggles(quiet), 0);
        assert!(hot.iter().any(|&(id, t)| id == busy && t == 4 * 64));
        assert!(!hot.iter().any(|&(id, _)| id == quiet));
    }
}
