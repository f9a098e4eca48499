//! Self-checking Verilog testbench generation.
//!
//! Pairs with [`bsc_netlist::verilog`]: for a MAC design exported as
//! structural Verilog, this module emits a testbench that drives seeded
//! random operand vectors in every precision mode and compares the DUT's
//! accumulator against expected values computed by the golden model here —
//! so the exported RTL can be re-verified in any Verilog simulator
//! (iverilog, Verilator, VCS) without this crate.

use std::fmt::Write as _;
use bsc_netlist::rng::Rng64;

use crate::netlist_if::OperandSide;
use crate::{golden, MacNetlist, Precision};

/// One generated test vector: packed port words plus the expected result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestVector {
    /// Precision mode of this vector.
    pub precision: Precision,
    /// Packed weight element words, one per element slot.
    pub weight_words: Vec<u64>,
    /// Packed activation element words, one per element slot.
    pub act_words: Vec<u64>,
    /// Expected accumulator value.
    pub expected: i64,
}

/// Generates `per_mode` seeded random vectors for every precision mode.
pub fn generate_vectors(mac: &MacNetlist, per_mode: usize, seed: u64) -> Vec<TestVector> {
    let mut rng = Rng64::seed_from_u64(seed);
    let kind = mac.kind();
    let length = mac.vector_length();
    let mask = (1u64 << kind.element_bits()) - 1;
    let mut out = Vec::new();
    for p in Precision::ALL {
        let fields = kind.fields_per_element(p);
        for _ in 0..per_mode {
            let w = bsc_netlist::tb::random_signed_vec(&mut rng, p.bits(), length * fields);
            let a = bsc_netlist::tb::random_signed_vec(&mut rng, p.bits(), length * fields);
            let pack = |side, ops: &[i64]| -> Vec<u64> {
                (0..length)
                    .map(|e| {
                        crate::pack_element(kind, p, side, &ops[e * fields..(e + 1) * fields])
                            as u64
                            & mask
                    })
                    .collect()
            };
            out.push(TestVector {
                precision: p,
                weight_words: pack(OperandSide::Weight, &w),
                act_words: pack(OperandSide::Activation, &a),
                expected: golden::dot(&w, &a),
            });
        }
    }
    out
}

/// Renders a self-checking Verilog testbench for a module exported with
/// [`bsc_netlist::verilog::to_verilog`] under the name `module`.
pub fn to_verilog_testbench(mac: &MacNetlist, module: &str, vectors: &[TestVector]) -> String {
    let kind = mac.kind();
    let bits = kind.element_bits();
    let length = mac.vector_length();
    let mut v = String::new();
    let _ = writeln!(v, "`timescale 1ps/1ps");
    let _ = writeln!(v, "module tb_{module};");
    let _ = writeln!(v, "  reg clk = 0, rst_n = 0;");
    let _ = writeln!(v, "  reg mode2 = 0, mode8 = 0;");
    for e in 0..length {
        let _ = writeln!(v, "  reg [{}:0] w{e} = 0, a{e} = 0;", bits - 1);
    }
    let _ = writeln!(v, "  wire [23:0] acc;");
    let _ = writeln!(v, "  integer errors = 0;");
    // DUT instantiation: ports are the flattened bit names of the export.
    let _ = writeln!(v, "  {module} dut (");
    let _ = writeln!(v, "    .clk(clk), .rst_n(rst_n),");
    let _ = writeln!(v, "    .mode2(mode2), .mode8(mode8),");
    for e in 0..length {
        for b in 0..bits {
            let _ = writeln!(v, "    .w{e}_{b}_(w{e}[{b}]), .a{e}_{b}_(a{e}[{b}]),");
        }
    }
    for b in 0..24 {
        let sep = if b + 1 < 24 { "," } else { "" };
        let _ = writeln!(v, "    .acc_{b}_(acc[{b}]){sep}");
    }
    let _ = writeln!(v, "  );");
    let _ = writeln!(v, "  always #1000 clk = ~clk;");
    let _ = writeln!(v, "  task check(input [23:0] expected);");
    let _ = writeln!(v, "    if (acc !== expected) begin");
    let _ = writeln!(
        v,
        "      $display(\"MISMATCH: acc=%h expected=%h\", acc, expected);"
    );
    let _ = writeln!(v, "      errors = errors + 1;");
    let _ = writeln!(v, "    end");
    let _ = writeln!(v, "  endtask");
    let _ = writeln!(v, "  initial begin");
    let _ = writeln!(v, "    #100 rst_n = 1;");
    for tv in vectors {
        let _ = writeln!(
            v,
            "    mode2 = {}; mode8 = {};",
            u8::from(tv.precision == Precision::Int2),
            u8::from(tv.precision == Precision::Int8)
        );
        for (e, (&w, &a)) in tv.weight_words.iter().zip(&tv.act_words).enumerate() {
            let _ = writeln!(v, "    w{e} = {bits}'h{w:x}; a{e} = {bits}'h{a:x};");
        }
        // Two edges: operands latch, then the output register captures.
        let expected = (tv.expected as u64) & 0xFF_FFFF;
        let _ = writeln!(v, "    @(posedge clk); @(posedge clk); #10;");
        let _ = writeln!(v, "    check(24'h{expected:06x});");
    }
    let _ = writeln!(
        v,
        "    if (errors == 0) $display(\"ALL {} VECTORS PASSED\");",
        vectors.len()
    );
    let _ = writeln!(v, "    else $display(\"%0d ERRORS\", errors);");
    let _ = writeln!(v, "    $finish;");
    let _ = writeln!(v, "  end");
    let _ = writeln!(v, "endmodule");
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vectors_cover_all_modes_with_correct_expectations() {
        let mac = crate::build_netlist(crate::MacKind::Bsc, 2);
        let vectors = generate_vectors(&mac, 3, 7);
        assert_eq!(vectors.len(), 9);
        for p in Precision::ALL {
            assert_eq!(vectors.iter().filter(|v| v.precision == p).count(), 3);
        }
        // Cross-check each vector against the gate-level simulator by
        // replaying the packed words: the testbench and the simulator must
        // agree on the expected accumulator.
        for tv in &vectors {
            let fields = mac.kind().fields_per_element(tv.precision);
            let n = mac.vector_length() * fields;
            let _ = n;
            // Replaying through eval_dot requires unpacked operands; the
            // generator computed `expected` from them directly, so here we
            // check the packed words are within the port width.
            let mask = (1u64 << mac.kind().element_bits()) - 1;
            assert!(tv.weight_words.iter().all(|&w| w <= mask));
            assert!(tv.act_words.iter().all(|&a| a <= mask));
        }
    }

    #[test]
    fn testbench_structure_is_complete() {
        let mac = crate::build_netlist(crate::MacKind::Hps, 2);
        let vectors = generate_vectors(&mac, 2, 1);
        let tb = to_verilog_testbench(&mac, "hps_vector_l2", &vectors);
        assert!(tb.contains("module tb_hps_vector_l2;"));
        assert!(tb.contains("hps_vector_l2 dut ("));
        assert!(tb.contains(".mode2(mode2)"));
        assert!(tb.contains("ALL 6 VECTORS PASSED"));
        assert_eq!(tb.matches("check(24'h").count(), 6);
        // Every element port is connected bit by bit.
        assert!(tb.contains(".w0_0_(w0[0])"));
        assert!(tb.contains(".a1_7_(a1[7])"));
        assert!(tb.contains(".acc_23_(acc[23])"));
    }

    #[test]
    fn expected_values_match_gate_level_simulation() {
        // The ultimate consistency check: the expected accumulator of each
        // generated vector equals what our own simulator computes when the
        // same packed words are applied raw to the ports — on a fresh
        // simulator per vector and on one long-lived simulator stepped
        // across all of them, whose evaluations skip the sweeps that
        // nothing on the tape asks for.
        use bsc_netlist::Simulator;
        let mac = crate::build_netlist(crate::MacKind::Lpc, 2);
        let vectors = generate_vectors(&mac, 2, 99);
        let mut long_lived = Simulator::new(mac.netlist()).unwrap();
        for tv in &vectors {
            let mut sim = Simulator::new(mac.netlist()).unwrap();
            mac.set_mode(&mut sim, tv.precision);
            mac.set_mode(&mut long_lived, tv.precision);
            for (e, (&w, &a)) in tv.weight_words.iter().zip(&tv.act_words).enumerate() {
                sim.write_bus_lane(&mac.weights()[e], 0, w as i64);
                sim.write_bus_lane(&mac.acts()[e], 0, a as i64);
                long_lived.write_bus_lane(&mac.weights()[e], 0, w as i64);
                long_lived.write_bus_lane(&mac.acts()[e], 0, a as i64);
            }
            sim.step();
            sim.eval();
            long_lived.step();
            long_lived.eval();
            assert_eq!(mac.read_dot_lane(&sim, 0), tv.expected, "{:?}", tv.precision);
            assert_eq!(
                mac.read_dot_lane(&long_lived, 0),
                tv.expected,
                "long-lived simulator diverged in {:?}",
                tv.precision
            );
        }
    }
}
