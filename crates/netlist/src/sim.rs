use crate::{Bus, Gate, Netlist, NetlistError, NodeId, SIM_LANES};

/// Tape opcodes — one byte per combinational gate.  They fit in three
/// bits, which the tape's `(level, opcode)` sort key relies on.
const OP_NOT: u8 = 0;
const OP_AND: u8 = 1;
const OP_OR: u8 = 2;
const OP_NAND: u8 = 3;
const OP_NOR: u8 = 4;
const OP_XOR: u8 = 5;
const OP_XNOR: u8 = 6;
const OP_MUX: u8 = 7;
const OPCODE_BITS: u32 = 3;

/// The tape op of a combinational gate, `(opcode, a, b, c)` with unused
/// operand slots repeating a used one, or `None` for a source (input,
/// constant or flop output).
fn lower(gate: Gate) -> Option<(u8, NodeId, NodeId, NodeId)> {
    Some(match gate {
        Gate::Not(a) => (OP_NOT, a, a, a),
        Gate::And(a, b) => (OP_AND, a, b, b),
        Gate::Or(a, b) => (OP_OR, a, b, b),
        Gate::Nand(a, b) => (OP_NAND, a, b, b),
        Gate::Nor(a, b) => (OP_NOR, a, b, b),
        Gate::Xor(a, b) => (OP_XOR, a, b, b),
        Gate::Xnor(a, b) => (OP_XNOR, a, b, b),
        Gate::Mux { sel, a, b } => (OP_MUX, sel, a, b),
        Gate::Const(_) | Gate::Input { .. } | Gate::Dff { .. } => return None,
    })
}

/// A maximal stretch of tape slots `start..end` sharing one opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    opcode: u8,
    start: u32,
    end: u32,
}

/// The compiled evaluation tape: the live combinational gates lowered
/// into a flat struct-of-arrays op stream, ordered by ASAP level and, within
/// a level, by opcode.
///
/// Sources (inputs, constants, flop outputs) are excluded — constants are
/// folded into the value array once, flops are clocked by
/// [`Simulator::step`] — so evaluation is a linear sweep over pre-resolved
/// `u32` operand indices instead of a per-gate enum walk through the
/// [`Netlist`].  An op's level is one more than its deepest operand's
/// (sources sit at level 0), so ops of one level never read each other and
/// the order is topological: every op's operands are written at earlier
/// slots, and every consumer of its output sits at a later one.  Grouping
/// each level by opcode turns the tape into a few long single-opcode
/// [`Run`]s, which a sweep evaluates one monomorphic loop at a time.
#[derive(Debug)]
struct Tape {
    opcode: Vec<u8>,
    /// Destination net of each op.
    dst: Vec<u32>,
    /// First operand (the select input for `MUX`).
    src_a: Vec<u32>,
    /// Second operand (the `sel == 0` data input for `MUX`; duplicates
    /// `src_a` for `NOT`).
    src_b: Vec<u32>,
    /// Third operand (`sel == 1` data input, `MUX` only; duplicated
    /// elsewhere).
    src_c: Vec<u32>,
    /// The maximal single-opcode runs, in tape order, covering every slot.
    runs: Vec<Run>,
}

impl Tape {
    /// Lowers the live combinational gates of `order` (a topological
    /// order, as from [`Netlist::levelize`]) and sorts them by
    /// `(level, opcode)` with a stable counting sort, so ops sharing a key
    /// keep their levelization order.
    fn compile(netlist: &Netlist, order: &[NodeId]) -> Tape {
        let key = |level: u32, opcode: u8| ((level as usize) << OPCODE_BITS) | usize::from(opcode);
        // Levels, and the number of ops under each key.
        let mut level = vec![0u32; netlist.len()];
        let mut next: Vec<usize> = Vec::new();
        for &id in order {
            if let Some((opcode, a, b, c)) = lower(netlist.gate(id)) {
                let l = 1 + level[a.index()].max(level[b.index()]).max(level[c.index()]);
                level[id.index()] = l;
                let k = key(l, opcode);
                if k >= next.len() {
                    next.resize(k + 1, 0);
                }
                next[k] += 1;
            }
        }
        // Each key's first slot, then every op placed at its key's next one.
        let mut slots = 0;
        for n in &mut next {
            let count = *n;
            *n = slots;
            slots += count;
        }
        let mut tape = Tape {
            opcode: vec![0; slots],
            dst: vec![0; slots],
            src_a: vec![0; slots],
            src_b: vec![0; slots],
            src_c: vec![0; slots],
            runs: Vec::new(),
        };
        for &id in order {
            if let Some((opcode, a, b, c)) = lower(netlist.gate(id)) {
                let slot = &mut next[key(level[id.index()], opcode)];
                tape.opcode[*slot] = opcode;
                tape.dst[*slot] = id.0;
                tape.src_a[*slot] = a.0;
                tape.src_b[*slot] = b.0;
                tape.src_c[*slot] = c.0;
                *slot += 1;
            }
        }
        for (slot, &opcode) in (0..).zip(&tape.opcode) {
            match tape.runs.last_mut() {
                Some(run) if run.opcode == opcode => run.end = slot + 1,
                _ => tape.runs.push(Run {
                    opcode,
                    start: slot,
                    end: slot + 1,
                }),
            }
        }
        tape
    }

    fn len(&self) -> usize {
        self.opcode.len()
    }
}

/// Evaluates one run of a one-input opcode: reads only `src_a`.
#[inline(always)]
fn sweep1(values: &mut [u64], dst: &[u32], a: &[u32], f: impl Fn(u64) -> u64) {
    for (&d, &x) in dst.iter().zip(a) {
        values[d as usize] = f(values[x as usize]);
    }
}

/// [`sweep1`] for a two-input opcode: reads `src_a` and `src_b`.
#[inline(always)]
fn sweep2(values: &mut [u64], dst: &[u32], a: &[u32], b: &[u32], f: impl Fn(u64, u64) -> u64) {
    for ((&d, &x), &y) in dst.iter().zip(a).zip(b) {
        values[d as usize] = f(values[x as usize], values[y as usize]);
    }
}

/// [`sweep1`] for `MUX`: reads `src_a` (select), `src_b` and `src_c`.
#[inline(always)]
fn sweep_mux(values: &mut [u64], dst: &[u32], sel: &[u32], a: &[u32], b: &[u32]) {
    for (((&d, &s), &x), &y) in dst.iter().zip(sel).zip(a).zip(b) {
        let s = values[s as usize];
        values[d as usize] = (!s & values[x as usize]) | (s & values[y as usize]);
    }
}

/// A levelized, 64-lane bit-parallel netlist simulator.
///
/// Each net holds a `u64` word whose bit *k* is the net's value in stimulus
/// lane *k*, so one [`Simulator::eval`] pass evaluates the design on up to 64
/// independent input vectors.  This is the reproduction's stand-in for the
/// paper's VCS functional simulation.
///
/// At construction the live combinational logic is lowered into a compiled
/// tape (see `Tape`), ordered by logic level and, within a level, by
/// opcode: [`Simulator::eval`] sweeps that tape one single-opcode run at a
/// time.  It sweeps only when a net some tape op reads or writes has
/// changed since the last sweep (a write, a clock edge or a reset); with
/// nothing on the tape changed, every op already holds its function of its
/// operands, so a sweep would flip no bit and the evaluation skips it.
/// Registered designs gain the most: inputs that feed only flop data pins
/// leave the tape settled, so the evaluation before each clock edge is
/// free.  Either way the net values equal evaluating the gates one by one
/// in [`Netlist::levelize`] order.
///
/// Sequential designs advance with [`Simulator::step`], which evaluates the
/// combinational logic and then clocks every flip-flop once.  The simulator
/// counts no switching activity itself: an [`crate::Activity`] recorder
/// reads the net values after the evaluations it observes.
///
/// # Example
///
/// ```
/// use bsc_netlist::Netlist;
///
/// # fn main() -> Result<(), bsc_netlist::NetlistError> {
/// let mut n = Netlist::new();
/// let a = n.input("a");
/// let b = n.input("b");
/// let y = n.xor(a, b);
/// n.mark_output(y, "y");
///
/// let mut sim = bsc_netlist::Simulator::new(&n)?;
/// sim.write(a, 0b10);
/// sim.write(b, 0b11);
/// sim.eval();
/// assert_eq!(sim.read(y), 0b01);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Simulator<'n> {
    netlist: &'n Netlist,
    flops: Vec<(NodeId, NodeId, bool)>,
    values: Vec<u64>,

    // --- compiled tape ---
    tape: Tape,
    /// Live constant nets and their folded values, re-applied on reset.
    const_nets: Vec<(u32, bool)>,
    /// Marks each net that some tape op reads or writes: only a change to
    /// a marked net can change what a sweep computes.
    on_tape: Vec<bool>,
    /// Whether a marked net has changed since the last sweep.
    stale: bool,
    /// Tape sweeps run since construction (see [`Simulator::sweeps`]).
    sweeps: u64,

    /// Reusable next-state buffer for [`Simulator::step`] (one word per
    /// flop) so clocking allocates nothing per cycle.
    flop_scratch: Vec<u64>,
}

impl<'n> Simulator<'n> {
    /// Prepares a simulator for `netlist`: levelizes it once and lowers the
    /// live combinational gates into the compiled tape.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] when the netlist contains
    /// a combinational loop.
    pub fn new(netlist: &'n Netlist) -> Result<Self, NetlistError> {
        let order = netlist.levelize()?;
        let flops = netlist.flops();
        let n = netlist.len();
        let tape = Tape::compile(netlist, &order);
        let const_nets: Vec<(u32, bool)> = order
            .iter()
            .filter_map(|&id| match netlist.gate(id) {
                Gate::Const(c) => Some((id.0, c)),
                _ => None,
            })
            .collect();
        let mut on_tape = vec![false; n];
        for column in [&tape.dst, &tape.src_a, &tape.src_b, &tape.src_c] {
            for &net in column {
                on_tape[net as usize] = true;
            }
        }
        let flop_count = flops.len();
        let mut sim = Simulator {
            netlist,
            flops,
            values: vec![0; n],
            tape,
            const_nets,
            on_tape,
            stale: true,
            sweeps: 0,
            flop_scratch: vec![0; flop_count],
        };
        sim.reset();
        Ok(sim)
    }

    /// Resets all flip-flops to their init values and clears input words.
    pub fn reset(&mut self) {
        for v in &mut self.values {
            *v = 0;
        }
        for &(idx, c) in &self.const_nets {
            self.values[idx as usize] = if c { u64::MAX } else { 0 };
        }
        self.reset_keep_inputs();
        // Every combinational net now reads 0, not its function.
        self.stale = true;
    }

    /// Resets only the flip-flops to their init values, leaving input
    /// assignments (and stale combinational values, which the next
    /// [`Simulator::eval`] recomputes) untouched.
    pub fn reset_keep_inputs(&mut self) {
        for i in 0..self.flops.len() {
            let (q, _, init) = self.flops[i];
            self.set(q.index(), if init { u64::MAX } else { 0 });
        }
    }

    /// The netlist being simulated.
    pub fn netlist(&self) -> &Netlist {
        self.netlist
    }

    /// Stores `word` on net `idx`; a change to a net on the tape makes the
    /// next [`Simulator::eval`] sweep.
    #[inline]
    fn set(&mut self, idx: usize, word: u64) {
        if self.values[idx] != word {
            self.values[idx] = word;
            self.stale |= self.on_tape[idx];
        }
    }

    /// Writes a packed 64-lane word to an input (or any source) net.  A
    /// word written over a combinational net lasts until the next
    /// [`Simulator::eval`], which recomputes it.
    pub fn write(&mut self, id: NodeId, word: u64) {
        self.set(id.index(), word);
    }

    /// Reads the packed 64-lane word on any net.
    pub fn read(&self, id: NodeId) -> u64 {
        self.values[id.index()]
    }

    /// Writes the same scalar value of a bus into one lane, leaving other
    /// lanes untouched.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64`.
    pub fn write_bus_lane(&mut self, bus: &Bus, lane: usize, value: i64) {
        assert!(lane < SIM_LANES, "lane {lane} outside 0..{SIM_LANES}");
        let mask = 1u64 << lane;
        for (k, &bit) in bus.bits().iter().enumerate() {
            let idx = bit.index();
            let word = if (value >> k) & 1 == 1 {
                self.values[idx] | mask
            } else {
                self.values[idx] & !mask
            };
            self.set(idx, word);
        }
    }

    /// Writes per-lane values of a bus from a slice (lane `i` gets
    /// `values[i]`; missing lanes are set to zero).
    pub fn write_bus_packed(&mut self, bus: &Bus, values: &[i64]) {
        for (k, &bit) in bus.bits().iter().enumerate() {
            let mut word = 0u64;
            for (lane, &v) in values.iter().take(SIM_LANES).enumerate() {
                word |= (((v >> k) & 1) as u64) << lane;
            }
            self.set(bit.index(), word);
        }
    }

    /// Reads the unsigned value of a bus in one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64` or the bus is wider than 64 bits.
    pub fn read_bus_unsigned_lane(&self, bus: &Bus, lane: usize) -> u64 {
        assert!(lane < SIM_LANES, "lane {lane} outside 0..{SIM_LANES}");
        assert!(bus.width() <= 64, "bus wider than 64 bits");
        let mut out = 0u64;
        for (k, &bit) in bus.bits().iter().enumerate() {
            out |= ((self.values[bit.index()] >> lane) & 1) << k;
        }
        out
    }

    /// Reads the two's-complement value of a bus in one lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64` or the bus is wider than 64 bits.
    pub fn read_bus_signed_lane(&self, bus: &Bus, lane: usize) -> i64 {
        let raw = self.read_bus_unsigned_lane(bus, lane);
        let w = bus.width();
        if w == 64 {
            return raw as i64;
        }
        let sign = 1u64 << (w - 1);
        if raw & sign != 0 {
            (raw as i64) - (1i64 << w)
        } else {
            raw as i64
        }
    }

    /// Full linear sweep over the compiled tape, one monomorphic loop per
    /// single-opcode run, each reading only the operand columns its opcode
    /// uses.
    fn run_tape_full(&mut self) {
        let values = &mut self.values;
        let tape = &self.tape;
        for run in &tape.runs {
            let r = run.start as usize..run.end as usize;
            let (dst, a) = (&tape.dst[r.clone()], &tape.src_a[r.clone()]);
            let b = &tape.src_b[r.clone()];
            match run.opcode {
                OP_NOT => sweep1(values, dst, a, |x| !x),
                OP_AND => sweep2(values, dst, a, b, |x, y| x & y),
                OP_OR => sweep2(values, dst, a, b, |x, y| x | y),
                OP_NAND => sweep2(values, dst, a, b, |x, y| !(x & y)),
                OP_NOR => sweep2(values, dst, a, b, |x, y| !(x | y)),
                OP_XOR => sweep2(values, dst, a, b, |x, y| x ^ y),
                OP_XNOR => sweep2(values, dst, a, b, |x, y| !(x ^ y)),
                _ => sweep_mux(values, dst, a, b, &tape.src_c[r]),
            }
        }
    }

    /// Evaluates all combinational logic for the current net words: sweeps
    /// the compiled tape when a net on it has changed since the last sweep,
    /// and otherwise leaves the already-settled values as they are.  In
    /// debug builds a skip is checked against recomputing every tape op.
    pub fn eval(&mut self) {
        if self.stale {
            self.sweeps += 1;
            self.stale = false;
            self.run_tape_full();
        } else {
            #[cfg(debug_assertions)]
            self.debug_assert_settled();
        }
    }

    /// Tape sweeps [`Simulator::eval`] has run since construction; the
    /// evaluations it skipped are not counted.
    pub fn sweeps(&self) -> u64 {
        self.sweeps
    }

    /// Computes tape op `slot` from the current net values.
    #[cfg(debug_assertions)]
    fn compute_op(values: &[u64], tape: &Tape, slot: usize) -> u64 {
        let a = values[tape.src_a[slot] as usize];
        match tape.opcode[slot] {
            OP_NOT => !a,
            OP_AND => a & values[tape.src_b[slot] as usize],
            OP_OR => a | values[tape.src_b[slot] as usize],
            OP_NAND => !(a & values[tape.src_b[slot] as usize]),
            OP_NOR => !(a | values[tape.src_b[slot] as usize]),
            OP_XOR => a ^ values[tape.src_b[slot] as usize],
            OP_XNOR => !(a ^ values[tape.src_b[slot] as usize]),
            _ => {
                (!a & values[tape.src_b[slot] as usize])
                    | (a & values[tape.src_c[slot] as usize])
            }
        }
    }

    /// Debug-build check of a skipped sweep: recomputing any tape op from
    /// the current net values must reproduce its stored output.
    #[cfg(debug_assertions)]
    fn debug_assert_settled(&self) {
        for slot in 0..self.tape.len() {
            let expect = Self::compute_op(&self.values, &self.tape, slot);
            let dst = self.tape.dst[slot] as usize;
            debug_assert_eq!(
                self.values[dst],
                expect,
                "skipped sweep left net n{dst} unsettled (tape slot {slot})"
            );
        }
    }

    /// Clocks every flip-flop once from the already-evaluated data pins; a
    /// changed Q on the tape makes the next evaluation sweep.
    fn clock_flops(&mut self) {
        // Two phases so flops reading other flops' outputs all sample the
        // pre-edge values; the scratch buffer is reused across cycles.
        for (i, &(_, d, _)) in self.flops.iter().enumerate() {
            self.flop_scratch[i] = self.values[d.index()];
        }
        for i in 0..self.flops.len() {
            self.set(self.flops[i].0.index(), self.flop_scratch[i]);
        }
    }

    /// Evaluates combinational logic and then clocks every flip-flop once.
    pub fn step(&mut self) {
        self.eval();
        self.clock_flops();
    }

    /// Snapshot of all net values (used by activity recording).
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// Number of ops on the compiled evaluation tape (live combinational
    /// gates after constant folding and dead-node pruning) — the work of
    /// one sweep.
    pub fn tape_len(&self) -> usize {
        self.tape.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;
    use crate::{Activity, GateKind};

    #[test]
    fn packed_lanes_are_independent() {
        let mut n = Netlist::new();
        let a = n.input_bus("a", 4);
        let b = n.input_bus("b", 4);
        let x = a
            .bits()
            .iter()
            .zip(b.bits())
            .map(|(&p, &q)| n.xor(p, q))
            .collect::<Bus>();
        n.mark_output_bus("x", &x);
        let mut sim = Simulator::new(&n).unwrap();
        sim.write_bus_packed(&a, &[0b0011, 0b0101, 0b1111]);
        sim.write_bus_packed(&b, &[0b0001, 0b0100, 0b1111]);
        sim.eval();
        assert_eq!(sim.read_bus_unsigned_lane(&x, 0), 0b0010);
        assert_eq!(sim.read_bus_unsigned_lane(&x, 1), 0b0001);
        assert_eq!(sim.read_bus_unsigned_lane(&x, 2), 0b0000);
    }

    #[test]
    fn signed_read_is_twos_complement() {
        let mut n = Netlist::new();
        let a = n.input_bus("a", 4);
        n.mark_output_bus("a", &a);
        let mut sim = Simulator::new(&n).unwrap();
        sim.write_bus_lane(&a, 0, -3);
        sim.eval();
        assert_eq!(sim.read_bus_signed_lane(&a, 0), -3);
        assert_eq!(sim.read_bus_unsigned_lane(&a, 0), 0b1101);
    }

    #[test]
    fn dff_pipeline_delays_by_one_cycle() {
        let mut n = Netlist::new();
        let d = n.input("d");
        let q1 = n.dff(d, false);
        let q2 = n.dff(q1, false);
        n.mark_output(q2, "q2");
        let mut sim = Simulator::new(&n).unwrap();
        sim.write(d, 1);
        sim.step();
        assert_eq!(sim.read(q1) & 1, 1);
        assert_eq!(sim.read(q2) & 1, 0);
        sim.step();
        assert_eq!(sim.read(q2) & 1, 1);
    }

    #[test]
    fn constants_survive_reset_and_fold_into_the_tape() {
        let mut n = Netlist::new();
        let one = n.constant(true);
        let q = n.dff(one, false);
        n.mark_output(q, "q");
        n.mark_output(one, "one");
        let mut sim = Simulator::new(&n).unwrap();
        assert_eq!(sim.read(one), u64::MAX);
        sim.step();
        assert_eq!(sim.read(q), u64::MAX);
        sim.reset();
        assert_eq!(sim.read(one), u64::MAX, "constant restored after reset");
        assert_eq!(sim.read(q), 0, "flop back at init");
        // Constants are folded: they occupy no tape slot.
        assert_eq!(sim.tape_len(), 0);
    }

    /// A random netlist over every combinational kind, with flops that read
    /// logic built after them and dead logic: each gate reads random earlier
    /// nets, and only a random subset of the nets is marked as output.
    fn random_netlist(seed: u64, gates: usize) -> Netlist {
        let mut rng = Rng64::seed_from_u64(seed);
        let mut n = Netlist::new();
        let mut nets: Vec<NodeId> = (0..6).map(|i| n.input(format!("i{i}"))).collect();
        let flops: Vec<NodeId> = (0..3).map(|i| n.dff_deferred(i == 1)).collect();
        nets.extend(&flops);
        for _ in 0..gates {
            let [a, b, c] = [0; 3].map(|_| nets[rng.gen_range(0..nets.len())]);
            let g = match rng.gen_range(0..8u32) {
                0 => n.not(a),
                1 => n.and(a, b),
                2 => n.or(a, b),
                3 => n.nand(a, b),
                4 => n.nor(a, b),
                5 => n.xor(a, b),
                6 => n.xnor(a, b),
                _ => n.mux(a, b, c),
            };
            nets.push(g);
        }
        for &q in &flops {
            n.bind_dff(q, nets[rng.gen_range(0..nets.len())]);
        }
        for (i, &id) in nets.iter().enumerate() {
            if rng.gen_range(0..5u32) == 0 {
                n.mark_output(id, format!("o{i}"));
            }
        }
        n
    }

    /// The tape holds each live combinational gate once, in maximal
    /// single-opcode runs, sorted by `(level, opcode)`: every operand is a
    /// source or was written at an earlier slot, so the order is
    /// topological.
    #[test]
    fn tape_is_level_ordered_in_maximal_single_opcode_runs() {
        let mut designs: Vec<Netlist> = (0..24).map(|seed| random_netlist(seed, 300)).collect();
        let mut adder = Netlist::new();
        let a = adder.input_bus("a", 16);
        let b = adder.input_bus("b", 16);
        let (sum, cout) = crate::components::adder::ripple_carry(&mut adder, &a, &b, None);
        adder.mark_output_bus("sum", &sum);
        adder.mark_output(cout, "cout");
        designs.push(adder);
        for (d, n) in designs.iter().enumerate() {
            let sim = Simulator::new(n).unwrap();
            let tape = &sim.tape;
            let live = n.live_set();
            let ops = (0..n.len())
                .filter(|&i| live[i] && !n.gate(NodeId(i as u32)).is_source())
                .count();
            assert_eq!(tape.len(), ops, "design {d}: one slot per live op");
            let mut at = 0;
            for (i, run) in tape.runs.iter().enumerate() {
                assert!(
                    run.start == at && run.end > run.start,
                    "design {d}: runs tile the tape"
                );
                let ops = &tape.opcode[run.start as usize..run.end as usize];
                assert!(
                    ops.iter().all(|&op| op == run.opcode),
                    "design {d}: run {i} mixes opcodes"
                );
                if i > 0 {
                    assert_ne!(
                        tape.runs[i - 1].opcode,
                        run.opcode,
                        "design {d}: run {i} not maximal"
                    );
                }
                at = run.end;
            }
            assert_eq!(at as usize, tape.len(), "design {d}: runs tile the tape");
            let mut written: Vec<Option<u32>> = vec![None; n.len()];
            let mut last = (0, 0);
            for slot in 0..tape.len() {
                let mut level = 0;
                for src in [tape.src_a[slot], tape.src_b[slot], tape.src_c[slot]] {
                    match written[src as usize] {
                        Some(l) => level = level.max(l),
                        None => assert!(
                            n.gate(NodeId(src)).is_source(),
                            "design {d}: slot {slot} reads n{src} before it is written"
                        ),
                    }
                }
                let key = (level + 1, tape.opcode[slot]);
                assert!(
                    key >= last,
                    "design {d}: slot {slot} {key:?} after {last:?}"
                );
                last = key;
                let dst = tape.dst[slot] as usize;
                assert!(written[dst].is_none(), "design {d}: n{dst} written twice");
                written[dst] = Some(key.0);
            }
        }
    }

    #[test]
    fn mux_semantics() {
        let mut n = Netlist::new();
        let s = n.input("s");
        let a = n.input("a");
        let b = n.input("b");
        let m = n.mux(s, a, b);
        n.mark_output(m, "m");
        let mut sim = Simulator::new(&n).unwrap();
        sim.write(s, 0b01);
        sim.write(a, 0b10);
        sim.write(b, 0b01);
        sim.eval();
        // lane0: s=1 -> b=1; lane1: s=0 -> a=1
        assert_eq!(sim.read(m) & 0b11, 0b11);
    }

    /// An input that feeds only a flop's data pin is on no tape op: writing
    /// it leaves the tape settled, and the sweep waits for the clock edge
    /// that moves the flop's output, which the tape reads.
    #[test]
    fn a_write_to_an_input_feeding_only_a_flop_does_not_sweep() {
        let mut n = Netlist::new();
        let d = n.input("d");
        let q = n.dff(d, false);
        let y = n.not(q);
        n.mark_output(y, "y");
        let mut sim = Simulator::new(&n).unwrap();
        sim.eval();
        assert_eq!(sim.sweeps(), 1, "a fresh simulator sweeps once");
        sim.write(d, 0b1011);
        sim.eval();
        assert_eq!(sim.sweeps(), 1, "d feeds no tape op");
        sim.step();
        assert_eq!(sim.sweeps(), 1, "the evaluation before the edge skips");
        sim.eval();
        assert_eq!(sim.sweeps(), 2, "the edge moved q, which the tape reads");
        assert_eq!(sim.read(y), !0b1011);
    }

    /// A write that leaves a word as it was, through any writer, changes
    /// nothing the tape reads.
    #[test]
    fn rewriting_the_same_value_does_not_sweep() {
        let mut n = Netlist::new();
        let a = n.input_bus("a", 4);
        let b = n.input("b");
        let y = a.and_bit(&mut n, b);
        n.mark_output_bus("y", &y);
        let mut sim = Simulator::new(&n).unwrap();
        sim.write_bus_packed(&a, &[5, -3, 7]);
        sim.write(b, 0b110);
        sim.eval();
        assert_eq!(sim.sweeps(), 1);
        sim.write_bus_packed(&a, &[5, -3, 7]);
        sim.write_bus_lane(&a, 1, -3);
        sim.write(b, 0b110);
        sim.eval();
        assert_eq!(sim.sweeps(), 1, "every word was rewritten unchanged");
        assert_eq!(sim.read_bus_unsigned_lane(&y, 1), 0b1101);
        sim.write_bus_lane(&a, 1, 2);
        sim.eval();
        assert_eq!(sim.sweeps(), 2, "lane 1 of a changed");
        assert_eq!(sim.read_bus_unsigned_lane(&y, 1), 0b0010);
    }

    /// A reset zeroes every net, combinational ones included, so the next
    /// evaluation sweeps although no input changed.
    #[test]
    fn reset_forces_a_sweep() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let y = n.not(a);
        n.mark_output(y, "y");
        let mut sim = Simulator::new(&n).unwrap();
        sim.eval();
        assert_eq!((sim.sweeps(), sim.read(y)), (1, u64::MAX));
        sim.reset();
        assert_eq!(sim.read(y), 0, "reset leaves y unsettled");
        sim.eval();
        assert_eq!((sim.sweeps(), sim.read(y)), (2, u64::MAX));
    }

    /// A tape op's output net is on the tape, so a word written over it is
    /// recomputed by the next evaluation, and its consumers see the
    /// recomputed value, not the written one.  That holds for an output
    /// that no op reads, too.
    #[test]
    fn a_write_to_a_combinational_net_is_recomputed() {
        let mut n = Netlist::new();
        let a = n.input("a");
        let b = n.input("b");
        let y = n.and(a, b);
        let z = n.not(y);
        n.mark_output(z, "z");
        let mut sim = Simulator::new(&n).unwrap();
        sim.eval();
        sim.write(y, !0);
        sim.eval();
        assert_eq!((sim.read(y), sim.read(z)), (0, !0));
        sim.write(z, 0);
        sim.eval();
        assert_eq!(sim.read(z), !0, "z recomputed");
        assert_eq!(sim.sweeps(), 3);
    }

    /// One flop driven by its own inverse: Q flips every cycle in every
    /// lane, and a recorder reading after each cycle's settling
    /// evaluation counts each flip once.
    #[test]
    fn dff_toggles_are_counted_by_activity() {
        let mut n = Netlist::new();
        let q = n.dff_deferred(false);
        let nq = n.not(q);
        n.bind_dff(q, nq);
        n.mark_output(q, "q");
        let mut sim = Simulator::new(&n).unwrap();
        sim.eval();
        let mut act = Activity::new(&sim);
        for _ in 0..4 {
            sim.step();
            sim.eval();
            act.record(&sim);
        }
        assert_eq!(
            act.toggles(GateKind::Dff),
            4 * 64,
            "Q flips once per cycle in all 64 lanes"
        );
        // The inverter flips right along with it.
        assert_eq!(act.toggles(GateKind::Not), 4 * 64);
    }
}
