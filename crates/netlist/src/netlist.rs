use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use crate::{Bus, Gate, GateStats};

/// Identifier of a net (the single output of one gate) inside a [`Netlist`].
///
/// `NodeId`s are only meaningful within the netlist that created them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Index of this node in the netlist gate table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The structural-hashing map's hasher: FxHash's multiply-rotate word mix.
///
/// Much cheaper than the standard library's SipHash, which guards against
/// keys chosen to collide; the map's keys are gates the builder makes
/// itself, and the map is only ever looked up by key, never iterated, so
/// the hash function changes no netlist.
#[derive(Default)]
struct GateHasher(u64);

impl GateHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for GateHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.mix(u64::from(i));
    }

    fn write_u32(&mut self, i: u32) {
        self.mix(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.mix(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.mix(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A gate-level netlist under construction or ready for simulation.
///
/// Gates are appended through the builder methods ([`Netlist::and`],
/// [`Netlist::xor`], …) which perform constant folding, trivial identity
/// simplification and structural hashing, so the stored netlist approximates
/// what a synthesis tool would keep after its cheapest optimizations.
///
/// # Example
///
/// ```
/// use bsc_netlist::Netlist;
///
/// let mut n = Netlist::new();
/// let a = n.input("a");
/// let t = n.constant(false);
/// // AND with constant 0 folds to constant 0: no cell is emitted.
/// let z = n.and(a, t);
/// assert_eq!(n.stats().total_cells(), 0);
/// n.mark_output(z, "z");
/// ```
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    gates: Vec<Gate>,
    inputs: Vec<NodeId>,
    input_names: Vec<String>,
    outputs: Vec<(NodeId, String)>,
    cse: HashMap<Gate, NodeId, BuildHasherDefault<GateHasher>>,
    const0: Option<NodeId>,
    const1: Option<NodeId>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, gate: Gate) -> NodeId {
        if let Some(&id) = self.cse.get(&gate) {
            return id;
        }
        let id = NodeId(u32::try_from(self.gates.len()).expect("netlist too large"));
        self.gates.push(gate);
        // Sequential elements are not merged: two DFFs with the same data
        // input are still two state bits.
        if !gate.is_sequential() && !matches!(gate, Gate::Input { .. }) {
            self.cse.insert(gate, id);
        }
        id
    }

    /// The gate driving `id`.
    pub fn gate(&self, id: NodeId) -> Gate {
        self.gates[id.index()]
    }

    /// Number of nodes (including folded-away sources) in the netlist.
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the netlist contains no gates at all.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Declares a new primary input.
    pub fn input(&mut self, name: impl Into<String>) -> NodeId {
        let index = u32::try_from(self.inputs.len()).expect("too many inputs");
        let id = self.push(Gate::Input { index });
        self.inputs.push(id);
        self.input_names.push(name.into());
        id
    }

    /// Declares a bus of `width` fresh primary inputs named `name[0..width]`.
    pub fn input_bus(&mut self, name: &str, width: usize) -> Bus {
        Bus::from_bits((0..width).map(|i| self.input(format!("{name}[{i}]"))))
    }

    /// Constant node with the given logic value.
    pub fn constant(&mut self, value: bool) -> NodeId {
        let slot = if value { &mut self.const1 } else { &mut self.const0 };
        if let Some(id) = *slot {
            return id;
        }
        let id = NodeId(u32::try_from(self.gates.len()).expect("netlist too large"));
        self.gates.push(Gate::Const(value));
        if value {
            self.const1 = Some(id);
        } else {
            self.const0 = Some(id);
        }
        id
    }

    fn const_value(&self, id: NodeId) -> Option<bool> {
        match self.gate(id) {
            Gate::Const(v) => Some(v),
            _ => None,
        }
    }

    /// Inverter (with folding: `not(not(x)) = x`, `not(const)` folds).
    pub fn not(&mut self, a: NodeId) -> NodeId {
        if let Some(v) = self.const_value(a) {
            return self.constant(!v);
        }
        if let Gate::Not(inner) = self.gate(a) {
            return inner;
        }
        self.push(Gate::Not(a))
    }

    /// 2-input AND with constant folding and `and(x, x) = x`.
    pub fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        match (self.const_value(a), self.const_value(b)) {
            (Some(false), _) | (_, Some(false)) => return self.constant(false),
            (Some(true), _) => return b,
            (_, Some(true)) => return a,
            _ => {}
        }
        if a == b {
            return a;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.push(Gate::And(a, b))
    }

    /// 2-input OR with constant folding and `or(x, x) = x`.
    pub fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        match (self.const_value(a), self.const_value(b)) {
            (Some(true), _) | (_, Some(true)) => return self.constant(true),
            (Some(false), _) => return b,
            (_, Some(false)) => return a,
            _ => {}
        }
        if a == b {
            return a;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.push(Gate::Or(a, b))
    }

    /// 2-input NAND with constant folding.
    pub fn nand(&mut self, a: NodeId, b: NodeId) -> NodeId {
        match (self.const_value(a), self.const_value(b)) {
            (Some(false), _) | (_, Some(false)) => return self.constant(true),
            (Some(true), _) => return self.not(b),
            (_, Some(true)) => return self.not(a),
            _ => {}
        }
        if a == b {
            return self.not(a);
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.push(Gate::Nand(a, b))
    }

    /// 2-input NOR with constant folding.
    pub fn nor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        match (self.const_value(a), self.const_value(b)) {
            (Some(true), _) | (_, Some(true)) => return self.constant(false),
            (Some(false), _) => return self.not(b),
            (_, Some(false)) => return self.not(a),
            _ => {}
        }
        if a == b {
            return self.not(a);
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.push(Gate::Nor(a, b))
    }

    /// 2-input XOR with constant folding and `xor(x, x) = 0`.
    pub fn xor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        match (self.const_value(a), self.const_value(b)) {
            (Some(false), _) => return b,
            (_, Some(false)) => return a,
            (Some(true), _) => return self.not(b),
            (_, Some(true)) => return self.not(a),
            _ => {}
        }
        if a == b {
            return self.constant(false);
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.push(Gate::Xor(a, b))
    }

    /// 2-input XNOR with constant folding.
    pub fn xnor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        match (self.const_value(a), self.const_value(b)) {
            (Some(true), _) => return b,
            (_, Some(true)) => return a,
            (Some(false), _) => return self.not(b),
            (_, Some(false)) => return self.not(a),
            _ => {}
        }
        if a == b {
            return self.constant(true);
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.push(Gate::Xnor(a, b))
    }

    /// 2:1 multiplexer: `sel == 0` selects `a`, `sel == 1` selects `b`.
    pub fn mux(&mut self, sel: NodeId, a: NodeId, b: NodeId) -> NodeId {
        if a == b {
            return a;
        }
        match self.const_value(sel) {
            Some(false) => return a,
            Some(true) => return b,
            None => {}
        }
        match (self.const_value(a), self.const_value(b)) {
            (Some(false), Some(true)) => return sel,
            (Some(true), Some(false)) => return self.not(sel),
            (Some(false), None) => return self.and(sel, b),
            (None, Some(false)) => {
                let ns = self.not(sel);
                return self.and(ns, a);
            }
            (Some(true), None) => {
                let ns = self.not(sel);
                return self.or(ns, b);
            }
            (None, Some(true)) => return self.or(sel, a),
            _ => {}
        }
        self.push(Gate::Mux { sel, a, b })
    }

    /// Positive-edge D flip-flop; never merged by structural hashing.
    pub fn dff(&mut self, d: NodeId, init: bool) -> NodeId {
        self.push(Gate::Dff { d, init })
    }

    /// A flip-flop whose data pin is bound *later* with
    /// [`Netlist::bind_dff`] — needed for feedback structures such as
    /// enable registers (`q <= en ? d : q`), where the data logic reads
    /// the flop's own output.  Until bound, the flop holds its init value
    /// (the placeholder data pin is the flop itself).
    pub fn dff_deferred(&mut self, init: bool) -> NodeId {
        let id = NodeId(u32::try_from(self.gates.len()).expect("netlist too large"));
        self.gates.push(Gate::Dff { d: id, init });
        id
    }

    /// Binds the data pin of a flop created with [`Netlist::dff_deferred`].
    ///
    /// # Panics
    ///
    /// Panics if `q` is not a flip-flop.
    pub fn bind_dff(&mut self, q: NodeId, d: NodeId) {
        match self.gates[q.index()] {
            Gate::Dff { init, .. } => self.gates[q.index()] = Gate::Dff { d, init },
            _ => panic!("bind_dff on a non-flop node"),
        }
    }

    /// An enable register: `q <= enable ? d : q`, built from a deferred
    /// flop and a feedback mux — the structure of the PE weight buffers.
    pub fn dff_en(&mut self, d: NodeId, enable: NodeId, init: bool) -> NodeId {
        let q = self.dff_deferred(init);
        let next = self.mux(enable, q, d);
        self.bind_dff(q, next);
        q
    }

    /// Marks `id` as a primary output under `name`.
    pub fn mark_output(&mut self, id: NodeId, name: impl Into<String>) {
        self.outputs.push((id, name.into()));
    }

    /// Marks every bit of `bus` as outputs named `name[i]`.
    pub fn mark_output_bus(&mut self, name: &str, bus: &Bus) {
        for (i, bit) in bus.bits().iter().enumerate() {
            self.mark_output(*bit, format!("{name}[{i}]"));
        }
    }

    /// Primary inputs in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Name of the `i`-th primary input.
    pub fn input_name(&self, i: usize) -> &str {
        &self.input_names[i]
    }

    /// Primary outputs with their names.
    pub fn outputs(&self) -> &[(NodeId, String)] {
        &self.outputs
    }

    /// Looks up an output node by name.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NetlistError::UnknownOutput`] when no output has the
    /// given name.
    pub fn output(&self, name: &str) -> Result<NodeId, crate::NetlistError> {
        self.outputs
            .iter()
            .find(|(_, n)| n == name)
            .map(|(id, _)| *id)
            .ok_or_else(|| crate::NetlistError::UnknownOutput(name.to_owned()))
    }

    /// Computes the set of *live* nodes: everything reachable backwards from
    /// the primary outputs (through flip-flop data pins).
    ///
    /// Only live cells occupy area and consume power; everything else would
    /// have been swept by synthesis.
    pub fn live_set(&self) -> Vec<bool> {
        let mut live = vec![false; self.gates.len()];
        let mut stack: Vec<NodeId> = self.outputs.iter().map(|(id, _)| *id).collect();
        while let Some(id) = stack.pop() {
            if live[id.index()] {
                continue;
            }
            live[id.index()] = true;
            stack.extend(self.gates[id.index()].operands());
        }
        live
    }

    /// Cell statistics over the live portion of the netlist.
    pub fn stats(&self) -> GateStats {
        let live = self.live_set();
        let mut stats = GateStats::default();
        for (i, gate) in self.gates.iter().enumerate() {
            if live[i] {
                stats.record(gate.kind());
            }
        }
        stats
    }

    /// A topological order of the live combinational nodes (sources first).
    ///
    /// Flip-flop outputs are treated as sources; their data pins terminate
    /// paths. The returned order contains every live node exactly once.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NetlistError::CombinationalCycle`] when the
    /// combinational logic contains a cycle.
    pub fn levelize(&self) -> Result<Vec<NodeId>, crate::NetlistError> {
        let live = self.live_set();
        let mut order = Vec::new();
        // 0 = unvisited, 1 = on stack, 2 = done
        let mut state = vec![0u8; self.gates.len()];
        // Iterative DFS to avoid stack overflow on deep netlists.  One
        // stack serves every start: each DFS runs until it is empty.
        let mut stack: Vec<(NodeId, bool)> = Vec::new();
        for start in 0..self.gates.len() {
            if !live[start] || state[start] != 0 {
                continue;
            }
            stack.push((NodeId(start as u32), false));
            while let Some((id, expanded)) = stack.pop() {
                let idx = id.index();
                if expanded {
                    state[idx] = 2;
                    order.push(id);
                    continue;
                }
                match state[idx] {
                    2 => continue,
                    1 => return Err(crate::NetlistError::CombinationalCycle(id)),
                    _ => {}
                }
                state[idx] = 1;
                stack.push((id, true));
                if !self.gates[idx].is_source() {
                    for op in self.gates[idx].operands() {
                        if state[op.index()] == 0 {
                            stack.push((op, false));
                        } else if state[op.index()] == 1 {
                            return Err(crate::NetlistError::CombinationalCycle(op));
                        }
                    }
                }
            }
        }
        Ok(order)
    }

    /// All live flip-flops, as `(node, data-pin, init)` triples.
    pub fn flops(&self) -> Vec<(NodeId, NodeId, bool)> {
        let live = self.live_set();
        self.gates
            .iter()
            .enumerate()
            .filter(|(i, _)| live[*i])
            .filter_map(|(i, g)| match *g {
                Gate::Dff { d, init } => Some((NodeId(i as u32), d, init)),
                _ => None,
            })
            .collect()
    }

    /// Structural validation: every operand reference points at an
    /// existing node and input indices are consistent with the input list.
    ///
    /// The builder maintains these invariants by construction; `validate`
    /// exists for defence in depth after manual surgery such as
    /// [`Netlist::bind_dff`].
    ///
    /// # Errors
    ///
    /// Returns [`crate::NetlistError::CombinationalCycle`] when levelization
    /// fails; reference errors panic in debug form via assertions.
    pub fn validate(&self) -> Result<(), crate::NetlistError> {
        for (i, gate) in self.gates.iter().enumerate() {
            for op in gate.operands() {
                assert!(
                    op.index() < self.gates.len(),
                    "gate n{i} references missing node {op}"
                );
            }
            if let Gate::Input { index } = gate {
                assert_eq!(
                    self.inputs.get(*index as usize).map(|id| id.index()),
                    Some(i),
                    "input table out of sync at n{i}"
                );
            }
        }
        self.levelize().map(|_| ())
    }

    /// Logic depth of the longest combinational path in gate counts.
    ///
    /// This is the unit-delay variant of static timing analysis; the
    /// synthesis crate refines it with per-cell delays.
    pub fn logic_depth(&self) -> usize {
        let order = match self.levelize() {
            Ok(o) => o,
            Err(_) => return usize::MAX,
        };
        let mut depth = vec![0usize; self.gates.len()];
        let mut max = 0;
        for id in order {
            let g = self.gates[id.index()];
            if g.is_source() {
                continue;
            }
            let d = g
                .operands()
                .map(|op| depth[op.index()])
                .max()
                .unwrap_or(0)
                + 1;
            depth[id.index()] = d;
            max = max.max(d);
        }
        max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateKind;

    #[test]
    fn constant_folding_and() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let one = n.constant(true);
        let zero = n.constant(false);
        assert_eq!(n.and(a, one), a);
        assert_eq!(n.and(a, zero), zero);
        assert_eq!(n.and(a, a), a);
    }

    #[test]
    fn constant_folding_xor_not() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let zero = n.constant(false);
        assert_eq!(n.xor(a, zero), a);
        let na = n.not(a);
        assert_eq!(n.not(na), a);
        let x = n.xor(a, a);
        assert_eq!(n.const_value(x), Some(false));
    }

    #[test]
    fn structural_hashing_merges_identical_gates() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let x = n.and(a, b);
        let y = n.and(b, a); // commutative normalization
        assert_eq!(x, y);
    }

    #[test]
    fn dffs_are_never_merged() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let f1 = n.dff(a, false);
        let f2 = n.dff(a, false);
        assert_ne!(f1, f2);
    }

    #[test]
    fn live_set_excludes_dangling_logic() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let _dead = n.xor(a, b);
        let live_gate = n.and(a, b);
        n.mark_output(live_gate, "y");
        let stats = n.stats();
        assert_eq!(stats.count(GateKind::And), 1);
        assert_eq!(stats.count(GateKind::Xor), 0);
    }

    #[test]
    fn mux_folds_to_and_or() {
        let mut n = Netlist::new();
        let s = n.input("s");
        let a = n.input("a");
        let zero = n.constant(false);
        let m = n.mux(s, zero, a); // s ? a : 0 == s & a
        assert_eq!(n.gate(m).kind(), GateKind::And);
    }

    #[test]
    fn levelize_orders_operands_first() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let x = n.and(a, b);
        let y = n.xor(x, a);
        n.mark_output(y, "y");
        let order = n.levelize().expect("acyclic");
        let pos = |id: NodeId| order.iter().position(|&o| o == id).unwrap();
        assert!(pos(a) < pos(x));
        assert!(pos(x) < pos(y));
    }

    #[test]
    fn validate_accepts_builder_output_and_bound_flops() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let en = n.input("en");
        let q = n.dff_en(a, en, false);
        let y = n.xor(q, a);
        n.mark_output(y, "y");
        n.validate().expect("well-formed netlist");
    }

    #[test]
    fn logic_depth_counts_longest_path() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let x = n.and(a, b);
        let y = n.or(x, b);
        let z = n.xor(y, a);
        n.mark_output(z, "z");
        assert_eq!(n.logic_depth(), 3);
    }
}

#[cfg(test)]
mod dff_en_tests {
    use super::*;
    use crate::Simulator;

    #[test]
    fn enable_register_holds_when_disabled() {
        let mut n = Netlist::new();
        let d = n.input("d");
        let en = n.input("en");
        let q = n.dff_en(d, en, false);
        n.mark_output(q, "q");
        let mut sim = Simulator::new(&n).unwrap();
        sim.write(d, 1);
        sim.write(en, 1);
        sim.step();
        assert_eq!(sim.read(q) & 1, 1, "load when enabled");
        sim.write(d, 0);
        sim.write(en, 0);
        sim.step();
        sim.step();
        assert_eq!(sim.read(q) & 1, 1, "hold when disabled");
        sim.write(en, 1);
        sim.step();
        assert_eq!(sim.read(q) & 1, 0, "load again");
    }

    #[test]
    #[should_panic(expected = "non-flop")]
    fn bind_dff_rejects_combinational_nodes() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let y = n.and(a, b);
        n.bind_dff(y, a);
    }

    #[test]
    fn deferred_flop_defaults_to_init_until_bound() {
        let mut n = Netlist::new();
        let q = n.dff_deferred(true);
        n.mark_output(q, "q");
        let mut sim = Simulator::new(&n).unwrap();
        sim.step();
        sim.step();
        // Self-loop placeholder: holds init forever.
        assert_eq!(sim.read(q) & 1, 1);
    }
}
