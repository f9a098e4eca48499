use crate::NodeId;

/// A single gate (node) in the netlist.
///
/// Every gate drives exactly one net, identified by its [`NodeId`].  Inputs
/// and constants are modelled as source gates with no operands; [`Gate::Dff`]
/// is the only sequential element and breaks combinational timing paths.
///
/// # Example
///
/// ```
/// use bsc_netlist::{Gate, GateKind};
///
/// let g = Gate::Const(true);
/// assert_eq!(g.kind(), GateKind::Const);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gate {
    /// Constant logic level.
    Const(bool),
    /// Primary input; `index` is its position in the input order.
    Input {
        /// Position of this input in the netlist input list.
        index: u32,
    },
    /// Inverter.
    Not(NodeId),
    /// 2-input AND.
    And(NodeId, NodeId),
    /// 2-input OR.
    Or(NodeId, NodeId),
    /// 2-input NAND.
    Nand(NodeId, NodeId),
    /// 2-input NOR.
    Nor(NodeId, NodeId),
    /// 2-input XOR.
    Xor(NodeId, NodeId),
    /// 2-input XNOR.
    Xnor(NodeId, NodeId),
    /// 2:1 multiplexer: output is `a` when `sel` is 0, `b` when `sel` is 1.
    Mux {
        /// Select input.
        sel: NodeId,
        /// Data input chosen when `sel` is 0.
        a: NodeId,
        /// Data input chosen when `sel` is 1.
        b: NodeId,
    },
    /// Positive-edge D flip-flop with reset value `init`.
    Dff {
        /// Data input sampled on every clock step.
        d: NodeId,
        /// Value the flop holds after reset.
        init: bool,
    },
}

impl Gate {
    /// The cell-kind of this gate, used for library lookups and statistics.
    pub fn kind(&self) -> GateKind {
        match self {
            Gate::Const(_) => GateKind::Const,
            Gate::Input { .. } => GateKind::Input,
            Gate::Not(_) => GateKind::Not,
            Gate::And(..) => GateKind::And,
            Gate::Or(..) => GateKind::Or,
            Gate::Nand(..) => GateKind::Nand,
            Gate::Nor(..) => GateKind::Nor,
            Gate::Xor(..) => GateKind::Xor,
            Gate::Xnor(..) => GateKind::Xnor,
            Gate::Mux { .. } => GateKind::Mux,
            Gate::Dff { .. } => GateKind::Dff,
        }
    }

    /// Operand nets of this gate, in a fixed order.
    pub fn operands(&self) -> impl Iterator<Item = NodeId> {
        let ops: [Option<NodeId>; 3] = match *self {
            Gate::Const(_) | Gate::Input { .. } => [None, None, None],
            Gate::Not(a) => [Some(a), None, None],
            Gate::And(a, b)
            | Gate::Or(a, b)
            | Gate::Nand(a, b)
            | Gate::Nor(a, b)
            | Gate::Xor(a, b)
            | Gate::Xnor(a, b) => [Some(a), Some(b), None],
            Gate::Mux { sel, a, b } => [Some(sel), Some(a), Some(b)],
            Gate::Dff { d, .. } => [Some(d), None, None],
        };
        ops.into_iter().flatten()
    }

    /// Whether this gate is a sequential element (breaks timing paths).
    pub fn is_sequential(&self) -> bool {
        matches!(self, Gate::Dff { .. })
    }

    /// Whether this gate is a source (no combinational fan-in).
    pub fn is_source(&self) -> bool {
        matches!(self, Gate::Const(_) | Gate::Input { .. } | Gate::Dff { .. })
    }
}

/// The technology-cell category of a gate, used by the synthesis model to
/// look up area, delay, energy and leakage.
///
/// # Example
///
/// ```
/// use bsc_netlist::GateKind;
///
/// assert_eq!(GateKind::Nand.to_string(), "NAND2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateKind {
    /// Constant tie cell (no area or power in the library model).
    Const,
    /// Primary input port.
    Input,
    /// Inverter cell.
    Not,
    /// 2-input AND cell.
    And,
    /// 2-input OR cell.
    Or,
    /// 2-input NAND cell.
    Nand,
    /// 2-input NOR cell.
    Nor,
    /// 2-input XOR cell.
    Xor,
    /// 2-input XNOR cell.
    Xnor,
    /// 2:1 multiplexer cell.
    Mux,
    /// D flip-flop cell.
    Dff,
}

impl GateKind {
    /// Every kind, in declaration (and `Ord`) order: `kind as usize` is
    /// its index here, so per-kind tallies can live in a plain array.
    pub const ALL: [GateKind; 11] = [
        GateKind::Const,
        GateKind::Input,
        GateKind::Not,
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Mux,
        GateKind::Dff,
    ];

    /// All cell kinds that occupy silicon area, in a stable order.
    pub const CELLS: [GateKind; 9] = [
        GateKind::Not,
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Mux,
        GateKind::Dff,
    ];
}

impl std::fmt::Display for GateKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            GateKind::Const => "CONST",
            GateKind::Input => "INPUT",
            GateKind::Not => "INV",
            GateKind::And => "AND2",
            GateKind::Or => "OR2",
            GateKind::Nand => "NAND2",
            GateKind::Nor => "NOR2",
            GateKind::Xor => "XOR2",
            GateKind::Xnor => "XNOR2",
            GateKind::Mux => "MUX2",
            GateKind::Dff => "DFF",
        };
        f.write_str(s)
    }
}
