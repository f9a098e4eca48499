//! The simulator's compiled tape against a reference evaluator that walks
//! the netlist's gates one at a time in `Netlist::levelize()` order.
//!
//! After every evaluation under seeded stimulus, every net value and every
//! per-kind toggle count must agree, on the full-sweep and the incremental
//! path, with the toggle probe on and off.  Covered: random netlists over
//! every combinational kind with flops and dead logic, every vector MAC
//! design in every precision mode at L=4, and a small gate-level PE array.

use bsc_mac::{build_netlist, MacKind, Precision};
use bsc_netlist::rng::Rng64;
use bsc_netlist::tb::drive_random;
use bsc_netlist::{Bus, EvalProfile, Gate, GateKind, Netlist, NodeId, Simulator};

fn word(bit: bool) -> u64 {
    if bit {
        u64::MAX
    } else {
        0
    }
}

/// The reference evaluator: one `match` per gate, in levelization order.
/// Like the simulator it computes only live logic, and it counts flips per
/// gate kind once its probe is on.
struct Oracle<'n> {
    netlist: &'n Netlist,
    order: Vec<NodeId>,
    flops: Vec<(NodeId, NodeId, bool)>,
    values: Vec<u64>,
    /// Toggles by `GateKind as usize`, and evaluations, once enabled.
    probe: Option<([u64; GateKind::ALL.len()], u64)>,
}

impl<'n> Oracle<'n> {
    fn new(netlist: &'n Netlist) -> Self {
        let order = netlist.levelize().expect("acyclic netlist");
        let flops = netlist.flops();
        let mut values = vec![0; netlist.len()];
        for &id in &order {
            if let Gate::Const(c) = netlist.gate(id) {
                values[id.index()] = word(c);
            }
        }
        for &(q, _, init) in &flops {
            values[q.index()] = word(init);
        }
        Oracle {
            netlist,
            order,
            flops,
            values,
            probe: None,
        }
    }

    fn count(&mut self, kind: GateKind, old: u64, new: u64) {
        if let Some((toggles, _)) = &mut self.probe {
            toggles[kind as usize] += u64::from((old ^ new).count_ones());
        }
    }

    fn eval(&mut self) {
        for i in 0..self.order.len() {
            let id = self.order[i];
            let gate = self.netlist.gate(id);
            let v = |n: NodeId| self.values[n.index()];
            let new = match gate {
                Gate::Const(_) | Gate::Input { .. } | Gate::Dff { .. } => continue,
                Gate::Not(a) => !v(a),
                Gate::And(a, b) => v(a) & v(b),
                Gate::Or(a, b) => v(a) | v(b),
                Gate::Nand(a, b) => !(v(a) & v(b)),
                Gate::Nor(a, b) => !(v(a) | v(b)),
                Gate::Xor(a, b) => v(a) ^ v(b),
                Gate::Xnor(a, b) => !(v(a) ^ v(b)),
                Gate::Mux { sel, a, b } => (!v(sel) & v(a)) | (v(sel) & v(b)),
            };
            self.count(gate.kind(), self.values[id.index()], new);
            self.values[id.index()] = new;
        }
        if let Some((_, evals)) = &mut self.probe {
            *evals += 1;
        }
    }

    /// Evaluates, then clocks every flop from the pre-edge data pins.
    fn step(&mut self) {
        self.eval();
        let next: Vec<u64> = self
            .flops
            .iter()
            .map(|&(_, d, _)| self.values[d.index()])
            .collect();
        for (i, new) in next.into_iter().enumerate() {
            let q = self.flops[i].0.index();
            self.count(GateKind::Dff, self.values[q], new);
            self.values[q] = new;
        }
    }

    /// Settles without counting, then counts from the settled state.
    fn enable_probe(&mut self) {
        self.eval();
        self.probe = Some(([0; GateKind::ALL.len()], 0));
    }
}

/// One simulator under test: which evaluation path it takes, and whether
/// its probe is on.
struct Subject<'n> {
    sim: Simulator<'n>,
    incremental: bool,
    probed: bool,
}

fn assert_agrees(s: &Subject<'_>, oracle: &Oracle<'_>, at: &str) {
    let at = format!("{at} (incremental {}, probed {})", s.incremental, s.probed);
    if let Some(net) = (0..oracle.values.len()).find(|&i| s.sim.values()[i] != oracle.values[i]) {
        panic!("{at}: net n{net} differs from the oracle");
    }
    match (s.sim.toggle_stats(), &oracle.probe) {
        (None, _) => assert!(!s.probed, "{at}: the probe is off"),
        (Some(stats), Some((toggles, evals))) => {
            assert!(s.probed, "{at}: the probe is on");
            assert_eq!(stats.evals(), *evals, "{at}: evaluations");
            for kind in GateKind::ALL {
                assert_eq!(
                    stats.toggles(kind),
                    toggles[kind as usize],
                    "{at}: {kind} toggles"
                );
            }
        }
        (Some(_), None) => unreachable!("the oracle's probe is always on"),
    }
}

/// Runs `cycles` cycles of seeded stimulus through the oracle and four
/// simulators of `netlist` (full sweeps and incremental, each with the
/// probe on and off).  Each cycle `drive` writes the inputs of the first
/// simulator, which the others and the oracle copy; then a clocked and a
/// settling evaluation follow, each compared with the oracle.  Returns the
/// two incremental simulators' evaluation-path counters, so callers can
/// check that the event-driven sweep really ran.
fn check_against_oracle(
    netlist: &Netlist,
    cycles: usize,
    seed: u64,
    mut drive: impl FnMut(&mut Simulator<'_>, &mut Rng64),
) -> Vec<EvalProfile> {
    let mut oracle = Oracle::new(netlist);
    let mut subjects: Vec<Subject<'_>> =
        [(false, true), (true, true), (false, false), (true, false)]
            .into_iter()
            .map(|(incremental, probed)| {
                let mut sim = Simulator::new(netlist).expect("acyclic netlist");
                if probed {
                    sim.enable_toggle_probe();
                }
                Subject {
                    sim,
                    incremental,
                    probed,
                }
            })
            .collect();
    oracle.enable_probe();
    let mut rng = Rng64::seed_from_u64(seed);
    for cycle in 0..cycles {
        drive(&mut subjects[0].sim, &mut rng);
        let words: Vec<(NodeId, u64)> = netlist
            .inputs()
            .iter()
            .map(|&i| (i, subjects[0].sim.read(i)))
            .collect();
        for &(input, w) in &words {
            oracle.values[input.index()] = w;
            for s in &mut subjects[1..] {
                s.sim.write(input, w);
            }
        }
        oracle.step();
        for s in &mut subjects {
            if s.incremental {
                s.sim.step_incremental();
            } else {
                s.sim.step();
            }
            assert_agrees(s, &oracle, &format!("cycle {cycle}, clocked"));
        }
        oracle.eval();
        for s in &mut subjects {
            if s.incremental {
                s.sim.eval_incremental();
            } else {
                s.sim.eval();
            }
            assert_agrees(s, &oracle, &format!("cycle {cycle}, settled"));
        }
    }
    subjects
        .iter()
        .filter(|s| s.incremental)
        .map(|s| s.sim.eval_profile())
        .collect()
}

/// Writes a fresh random word to each of `inputs` with probability
/// `1 / every`.
fn drive_some_inputs(sim: &mut Simulator<'_>, inputs: &[NodeId], rng: &mut Rng64, every: u32) {
    for &input in inputs {
        if rng.gen_range(0..every) == 0 {
            sim.write(input, rng.next_u64());
        }
    }
}

/// A random netlist over every combinational kind, with flops and dead
/// logic (gates, inputs and a flop that no output reaches).  It is built
/// as independent blocks, each over its own two inputs and its own flop,
/// so that writing a few inputs leaves most of the tape quiet and the
/// incremental path runs event-driven sweeps.
fn random_netlist(seed: u64, blocks: usize, gates: usize) -> Netlist {
    let mut rng = Rng64::seed_from_u64(seed);
    let mut n = Netlist::new();
    let mut outputs = Vec::new();
    for block in 0..blocks {
        let mut nets: Vec<NodeId> = (0..2).map(|i| n.input(format!("b{block}i{i}"))).collect();
        let q = n.dff_deferred(block % 2 == 1);
        nets.push(q);
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
        n.bind_dff(q, nets[rng.gen_range(0..nets.len())]);
        outputs.extend(nets.into_iter().filter(|_| rng.gen_range(0..6u32) == 0));
    }
    let one = n.constant(true);
    outputs.push(n.dff(one, false));
    n.dff(one, true); // dead: never reset to its init value
    for (i, &id) in outputs.iter().enumerate() {
        n.mark_output(id, format!("o{i}"));
    }
    n
}

#[test]
fn random_netlists_match_the_levelized_gate_walk() {
    let mut kinds_seen = [false; GateKind::ALL.len()];
    for seed in 0..16 {
        let n = random_netlist(seed, 8, 60);
        assert!(
            n.live_set().iter().any(|&l| !l),
            "seed {seed}: no dead logic"
        );
        for &id in &n.levelize().unwrap() {
            kinds_seen[n.gate(id).kind() as usize] = true;
        }
        let paths = check_against_oracle(&n, 24, seed ^ 0x0AC1E, |sim, rng| {
            drive_some_inputs(sim, n.inputs(), rng, 6);
        });
        assert!(
            paths.iter().all(|path| path.incremental_ops > 0),
            "seed {seed}: {paths:?}"
        );
    }
    for kind in GateKind::ALL {
        assert!(kinds_seen[kind as usize], "no live {kind}");
    }
}

#[test]
fn every_mac_design_and_mode_matches_the_levelized_gate_walk() {
    for kind in MacKind::ALL {
        let mac = build_netlist(kind, 4);
        for p in Precision::ALL {
            // Weight-stationary stimulus: fresh activations every cycle,
            // fresh weights every fourth.  Dirty cones through a MAC's
            // multipliers and adder tree always read as dense, so the
            // event-driven sweeps here are the pre-clock ones, whose dirty
            // nets feed only the input registers.
            let mut cycle = 0;
            let paths = check_against_oracle(
                mac.netlist(),
                12,
                0x3AC ^ u64::from(p.bits()),
                |sim, rng| {
                    mac.set_mode(sim, p);
                    let weights: &[Bus] = if cycle % 4 == 0 { mac.weights() } else { &[] };
                    for bus in mac.acts().iter().chain(weights) {
                        drive_random(sim, bus, rng);
                    }
                    cycle += 1;
                },
            );
            assert!(
                paths.iter().all(|path| path.incremental_sweeps > 0),
                "{kind} {p}: {paths:?}"
            );
        }
    }
}

#[test]
fn a_small_pe_array_matches_the_levelized_gate_walk() {
    for kind in MacKind::ALL {
        let array = bsc_systolic::netlist::build_array(kind, 2, 2);
        let n = array.netlist();
        let paths = check_against_oracle(n, 16, 0xA77A, |sim, rng| {
            drive_some_inputs(sim, n.inputs(), rng, 4);
        });
        assert!(
            paths.iter().all(|path| path.incremental_ops > 0),
            "{kind}: {paths:?}"
        );
    }
}
