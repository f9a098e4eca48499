//! Cycle-accurate simulation of the weight-stationary vector systolic
//! array (paper Fig. 5).
//!
//! Every run keeps two independent sets of books: the cycle loop counts
//! what actually happened (PE fires, stalls, hops, loads), and closed-form
//! dataflow formulas predict what *should* happen.  The two are
//! cross-validated on every call — a divergence is a bug in either the
//! model or the formulas and surfaces as
//! [`SystolicError::TelemetryDivergence`].  When a [`Telemetry`] bundle is
//! attached, every fire, stall and weight load is also pushed into its
//! trace ring as a cycle-event, inside an `array.matmul` span.

use bsc_mac::{MacKind, Precision};
use bsc_telemetry::{Telemetry, TraceEvent};

use crate::{Matrix, ProcessingElement, SystolicError};

/// Physical geometry of the PE array: a chain of `rows` processing
/// elements, each wrapping one vector MAC of `vector_length` elements.
///
/// The paper's design is the single point [`ArrayGeometry::paper`]
/// (32 × 32); the design-space exploration sweeps arbitrary geometries
/// through the same mapping and memory models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrayGeometry {
    /// Number of processing elements in the chain.
    pub rows: usize,
    /// Vector length of each PE's MAC.
    pub vector_length: usize,
}

impl ArrayGeometry {
    /// A geometry of `rows` PEs with MAC vector length `vector_length`.
    pub const fn new(rows: usize, vector_length: usize) -> Self {
        ArrayGeometry { rows, vector_length }
    }

    /// The paper's geometry: 32 PEs × vector length 32.
    pub const fn paper() -> Self {
        ArrayGeometry::new(32, 32)
    }

    /// Stable `rowsxlength` tag for sinks and reports (e.g. `32x32`).
    pub fn tag(&self) -> String {
        format!("{}x{}", self.rows, self.vector_length)
    }
}

impl std::fmt::Display for ArrayGeometry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}", self.rows, self.vector_length)
    }
}

/// Static configuration of the PE array.
///
/// The paper's configuration is 32 PEs with vector length 32
/// ([`ArrayConfig::paper`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrayConfig {
    /// Number of processing elements in the chain.
    pub pes: usize,
    /// Vector length of each PE's MAC.
    pub vector_length: usize,
    /// Architecture of the vector MAC inside every PE.
    pub kind: MacKind,
}

impl ArrayConfig {
    /// The paper's array: 32 PEs × vector length 32.
    pub fn paper(kind: MacKind) -> Self {
        ArrayConfig::with_geometry(kind, ArrayGeometry::paper())
    }

    /// An array of `kind` MACs with an explicit [`ArrayGeometry`].
    pub const fn with_geometry(kind: MacKind, geometry: ArrayGeometry) -> Self {
        ArrayConfig {
            pes: geometry.rows,
            vector_length: geometry.vector_length,
            kind,
        }
    }

    /// The geometry (rows × vector length) of this configuration.
    pub const fn geometry(&self) -> ArrayGeometry {
        ArrayGeometry::new(self.pes, self.vector_length)
    }

    /// Dot-product length of one PE in mode `p` (also the required feature
    /// matrix width).
    pub fn dot_length(&self, p: Precision) -> usize {
        self.vector_length * self.kind.fields_per_element(p)
    }

    /// Peak MAC throughput of the full array per cycle in mode `p`.
    pub fn peak_macs_per_cycle(&self, p: Precision) -> usize {
        self.pes * self.dot_length(p)
    }
}

/// Dataflow statistics collected by one [`SystolicArray::matmul`] run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DataflowStats {
    /// Total clock cycles from first weight load to last retired output.
    pub cycles: u64,
    /// MAC operations actually performed.
    pub macs: u64,
    /// Feature-vector transfers between PE input buffers.
    pub feature_hops: u64,
    /// Weight vectors loaded into PE buffers.
    pub weight_loads: u64,
    /// Sum of busy cycles over all PEs.
    pub pe_busy_cycles: u64,
    /// PE-cycles spent holding exactly one operand (the skew drain tail:
    /// weights still stationed after the feature stream has passed).
    pub stall_cycles: u64,
    /// Fraction of PE-cycles doing useful work.
    pub utilization: f64,
}

impl DataflowStats {
    /// PE-cycles spent completely idle (neither operand present) on an
    /// array with `pes` physical PEs: the skew fill overhead plus any
    /// unused PEs.
    pub fn idle_pe_cycles(&self, pes: usize) -> u64 {
        (self.cycles * pes as u64).saturating_sub(self.pe_busy_cycles + self.stall_cycles)
    }
}

/// Result of a systolic matrix multiplication.
#[derive(Debug, Clone, PartialEq)]
pub struct MatmulRun {
    /// The output matrix `O[m][n] = Σ_k I[m][k] · W[n][k]`.
    pub output: Matrix,
    /// Dataflow statistics of the run.
    pub stats: DataflowStats,
    /// Busy cycles of each physical PE, read from the PEs' own counters
    /// (0 for a PE no weight row was mapped to); they sum to
    /// `stats.pe_busy_cycles`.
    pub pe_busy: Vec<u64>,
}

/// Weight-reuse policy of a matmul run (the Fig. 5 dataflow versus the
/// no-reuse ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightReuse {
    /// The paper's dataflow: each PE holds its weight vector for the whole
    /// tile (one load per PE per tile).
    #[default]
    WeightStationary,
    /// Ablation: weights are re-delivered on every compute cycle, as a
    /// design without local weight buffering would require.  Results are
    /// identical; the weight-traffic statistics (and hence energy) differ.
    NoReuse,
}

/// The weight-stationary vector systolic array.
///
/// See the crate-level example for usage; semantics of the dataflow:
///
/// * weight vector `n` is loaded into PE `n` at cycle `n` (the
///   `0..rows-1`-clock skew of Fig. 5; `0..31` in the paper's geometry)
///   and then held for the whole tile;
/// * feature vector `m` enters PE 0 at cycle `m` and hops one PE per cycle;
/// * PE `n` therefore computes output `O[m][n]` at cycle `m + n`, and the
///   output diagonals retire one per cycle.
#[derive(Debug, Clone)]
pub struct SystolicArray {
    config: ArrayConfig,
    telemetry: Option<Telemetry>,
}

impl SystolicArray {
    /// An array with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `pes` or `vector_length` is zero.
    pub fn new(config: ArrayConfig) -> Self {
        assert!(config.pes > 0, "array needs at least one PE");
        assert!(config.vector_length > 0, "vector length must be positive");
        SystolicArray { config, telemetry: None }
    }

    /// An array that publishes counters and cycle-events into `telemetry`
    /// on every run.
    pub fn with_telemetry(config: ArrayConfig, telemetry: Telemetry) -> Self {
        let mut array = SystolicArray::new(config);
        array.telemetry = Some(telemetry);
        array
    }

    /// Attaches (or replaces) the telemetry bundle on an existing array.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = Some(telemetry);
    }

    /// The attached telemetry bundle, when present.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// The array configuration.
    pub fn config(&self) -> ArrayConfig {
        self.config
    }

    /// Runs one tile `O = I ⊙ Wᵀ` through the array, cycle by cycle.
    ///
    /// `features` is `M × K` (`K` = the mode's dot length), `weights` is
    /// `N × K` with `N ≤ pes`; the result is `M × N`.
    ///
    /// # Errors
    ///
    /// * [`SystolicError::FeatureWidthMismatch`] when `K` does not match the
    ///   mode's dot length;
    /// * [`SystolicError::WeightWidthMismatch`] when the operand widths
    ///   differ;
    /// * [`SystolicError::TooManyWeightRows`] when `N > pes`;
    /// * [`SystolicError::Mac`] when operand values exceed the mode's range.
    pub fn matmul(
        &self,
        p: Precision,
        features: &Matrix,
        weights: &Matrix,
    ) -> Result<MatmulRun, SystolicError> {
        self.matmul_with_dataflow(p, features, weights, WeightReuse::WeightStationary)
    }

    /// Like [`SystolicArray::matmul`] but with an explicit weight-reuse
    /// policy (used by the dataflow ablation).
    ///
    /// # Errors
    ///
    /// Same as [`SystolicArray::matmul`].
    pub fn matmul_with_dataflow(
        &self,
        p: Precision,
        features: &Matrix,
        weights: &Matrix,
        dataflow: WeightReuse,
    ) -> Result<MatmulRun, SystolicError> {
        let k = self.config.dot_length(p);
        if features.cols() != k {
            return Err(SystolicError::FeatureWidthMismatch {
                precision: p,
                expected: k,
                got: features.cols(),
            });
        }
        if weights.cols() != features.cols() {
            return Err(SystolicError::WeightWidthMismatch {
                features: features.cols(),
                weights: weights.cols(),
            });
        }
        let n_rows = weights.rows();
        if n_rows > self.config.pes {
            return Err(SystolicError::TooManyWeightRows {
                pes: self.config.pes,
                got: n_rows,
            });
        }

        let m_rows = features.rows();
        let mut pes: Vec<ProcessingElement> = (0..n_rows)
            .map(|_| ProcessingElement::new(self.config.kind, self.config.vector_length))
            .collect();
        let mut output = Matrix::zeros(m_rows, n_rows);
        // The measured books: everything in `stats` below is counted by
        // the cycle loop (or read back from the PEs' own busy counters),
        // never computed from a formula.
        let mut stats = DataflowStats::default();
        let tel = self.telemetry.as_ref();
        let _span = tel.map(|t| {
            let g = t.spans.begin("array.matmul");
            g.annotate("m", m_rows);
            g.annotate("n", n_rows);
            g.annotate("k", k);
            g.annotate("precision", p);
            g.annotate("dataflow", format!("{dataflow:?}"));
            g
        });

        let total_cycles = if m_rows == 0 { 0 } else { m_rows + n_rows - 1 };
        for t in 0..total_cycles {
            let cycle = t as u64;
            match dataflow {
                WeightReuse::WeightStationary => {
                    // Weight skew: PE t receives its stationary vector at
                    // cycle t and keeps it.
                    if t < n_rows {
                        pes[t].load_weights(p, weights.row(t).to_vec())?;
                        stats.weight_loads += 1;
                        if let Some(tel) = tel {
                            tel.trace.push(TraceEvent::WeightLoad {
                                cycle,
                                pe: t as u32,
                                elems: k as u32,
                            });
                        }
                    }
                }
                WeightReuse::NoReuse => {
                    // Re-deliver the weight vector to every PE that will
                    // fire this cycle.
                    for (n_idx, pe) in pes.iter_mut().enumerate() {
                        if t >= n_idx && t - n_idx < m_rows {
                            pe.load_weights(p, weights.row(n_idx).to_vec())?;
                            stats.weight_loads += 1;
                            if let Some(tel) = tel {
                                tel.trace.push(TraceEvent::WeightLoad {
                                    cycle,
                                    pe: n_idx as u32,
                                    elems: k as u32,
                                });
                            }
                        }
                    }
                }
            }
            // Feature pipeline shift (one hop per PE per cycle).
            let mut carry: Option<Vec<i64>> = if t < m_rows {
                Some(features.row(t).to_vec())
            } else {
                None
            };
            for pe in pes.iter_mut() {
                let had = carry.is_some();
                carry = match carry {
                    Some(v) => pe.latch_features(v),
                    None => pe.drain_features(),
                };
                if had {
                    stats.feature_hops += 1;
                }
            }
            // Fire every PE that has both operands; PE n at cycle t holds
            // feature row t - n.  A PE holding exactly one operand is
            // stalled (the drain tail of the skew).
            for (n_idx, pe) in pes.iter_mut().enumerate() {
                if let Some(out) = pe.fire(p)? {
                    let m_idx = t - n_idx;
                    output.set(m_idx, n_idx, out);
                    stats.macs += k as u64;
                    if let Some(tel) = tel {
                        tel.trace.push(TraceEvent::PeFired {
                            cycle,
                            pe: n_idx as u32,
                            row: m_idx as u32,
                            macs: k as u32,
                        });
                    }
                } else if pe.is_stalled() {
                    stats.stall_cycles += 1;
                    if let Some(tel) = tel {
                        tel.trace.push(TraceEvent::VectorStall { cycle, pe: n_idx as u32 });
                    }
                }
            }
        }

        stats.cycles = total_cycles as u64;
        // Busy time comes from the PEs' own hardware counters, not the
        // loop above — so a PE miscounting its fires would be caught by
        // the cross-validation below (macs are counted by the loop).
        let mut pe_busy: Vec<u64> = pes.iter().map(ProcessingElement::busy_cycles).collect();
        pe_busy.resize(self.config.pes, 0); // unmapped PEs never fire
        stats.pe_busy_cycles = pe_busy.iter().sum();
        let pe_cycles = stats.cycles * self.config.pes as u64;
        stats.utilization = if pe_cycles > 0 {
            stats.pe_busy_cycles as f64 / pe_cycles as f64
        } else {
            0.0
        };

        let analytic = analytic_stats(self.config, k, m_rows, n_rows, dataflow);
        cross_validate(&analytic, &stats)?;
        Ok(MatmulRun { output, stats, pe_busy })
    }

    /// The closed-form dataflow prediction for one tile — the quantity the
    /// measured counters are checked against on every run.
    pub fn analytic_stats(
        &self,
        p: Precision,
        feature_rows: usize,
        weight_rows: usize,
        dataflow: WeightReuse,
    ) -> DataflowStats {
        analytic_stats(self.config, self.config.dot_length(p), feature_rows, weight_rows, dataflow)
    }

    /// Multiplies matrices of *arbitrary* shape by tiling: the contraction
    /// dimension is zero-padded and split into dot-length chunks
    /// (accumulated in the output buffer across passes, as the Fig. 6
    /// channel split does), and weight rows are split across PE tiles.
    ///
    /// `features` is `M × K`, `weights` is `N × K` for any `K` and `N`;
    /// the result is exact.
    ///
    /// # Errors
    ///
    /// * [`SystolicError::WeightWidthMismatch`] when operand widths differ;
    /// * [`SystolicError::Mac`] when operand values exceed the mode's range.
    pub fn matmul_tiled(
        &self,
        p: Precision,
        features: &Matrix,
        weights: &Matrix,
    ) -> Result<MatmulRun, SystolicError> {
        if weights.cols() != features.cols() {
            return Err(SystolicError::WeightWidthMismatch {
                features: features.cols(),
                weights: weights.cols(),
            });
        }
        let k_tile = self.config.dot_length(p);
        let n_tile = self.config.pes;
        let (m, k, n) = (features.rows(), features.cols(), weights.rows());
        let mut output = Matrix::zeros(m, n);
        let mut stats = DataflowStats::default();
        let mut pe_busy = vec![0; n_tile];

        let mut k0 = 0;
        while k0 < k.max(1) {
            let k1 = (k0 + k_tile).min(k);
            let f_tile = Matrix::from_fn(m, k_tile, |r, c| {
                if k0 + c < k1 { features.get(r, k0 + c) } else { 0 }
            });
            let mut n0 = 0;
            while n0 < n {
                let n1 = (n0 + n_tile).min(n);
                let w_tile = Matrix::from_fn(n1 - n0, k_tile, |r, c| {
                    if k0 + c < k1 { weights.get(n0 + r, k0 + c) } else { 0 }
                });
                let run = self.matmul(p, &f_tile, &w_tile)?;
                for r in 0..m {
                    for c in 0..(n1 - n0) {
                        output.set(r, n0 + c, output.get(r, n0 + c) + run.output.get(r, c));
                    }
                }
                stats.cycles += run.stats.cycles;
                stats.macs += run.stats.macs;
                stats.feature_hops += run.stats.feature_hops;
                stats.weight_loads += run.stats.weight_loads;
                stats.pe_busy_cycles += run.stats.pe_busy_cycles;
                stats.stall_cycles += run.stats.stall_cycles;
                for (total, busy) in pe_busy.iter_mut().zip(&run.pe_busy) {
                    *total += busy;
                }
                n0 = n1;
            }
            k0 = k1.max(k0 + 1);
        }
        let pe_cycles = stats.cycles * self.config.pes as u64;
        stats.utilization = if pe_cycles > 0 {
            stats.pe_busy_cycles as f64 / pe_cycles as f64
        } else {
            0.0
        };
        Ok(MatmulRun { output, stats, pe_busy })
    }
}

/// Closed-form [`DataflowStats`] for one `m × n` tile with dot length `k`
/// on `config` (see the module docs for the derivation):
///
/// * `cycles = m + n − 1` (skew fill + stream + drain);
/// * every `(m, n)` pair fires exactly once ⇒ `pe_busy = macs/k = m·n`;
/// * each feature row hops through all `n` engaged PEs ⇒ `hops = m·n`;
/// * weight loads: `n` (weight-stationary) or `m·n` (no-reuse ablation);
/// * drain-tail stalls: PE `j` holds only its weights for `n − 1 − j`
///   trailing cycles ⇒ `Σ = n(n−1)/2`.
fn analytic_stats(
    config: ArrayConfig,
    k: usize,
    m: usize,
    n: usize,
    dataflow: WeightReuse,
) -> DataflowStats {
    if m == 0 {
        return DataflowStats::default();
    }
    let cycles = (m + n - 1) as u64;
    let pe_busy = (m * n) as u64;
    let pe_cycles = cycles * config.pes as u64;
    DataflowStats {
        cycles,
        macs: pe_busy * k as u64,
        feature_hops: pe_busy,
        weight_loads: match dataflow {
            WeightReuse::WeightStationary => n as u64,
            WeightReuse::NoReuse => pe_busy,
        },
        pe_busy_cycles: pe_busy,
        stall_cycles: (n * (n - 1) / 2) as u64,
        utilization: if pe_cycles > 0 { pe_busy as f64 / pe_cycles as f64 } else { 0.0 },
    }
}

/// Compares the analytic prediction against the measured counters field by
/// field; integers must match exactly, utilization to within 1e-9.
fn cross_validate(analytic: &DataflowStats, counted: &DataflowStats) -> Result<(), SystolicError> {
    let fields: [(&'static str, u64, u64); 6] = [
        ("cycles", analytic.cycles, counted.cycles),
        ("macs", analytic.macs, counted.macs),
        ("feature_hops", analytic.feature_hops, counted.feature_hops),
        ("weight_loads", analytic.weight_loads, counted.weight_loads),
        ("pe_busy_cycles", analytic.pe_busy_cycles, counted.pe_busy_cycles),
        ("stall_cycles", analytic.stall_cycles, counted.stall_cycles),
    ];
    for (field, a, c) in fields {
        if a != c {
            return Err(SystolicError::TelemetryDivergence {
                field,
                analytic: a as f64,
                counted: c as f64,
            });
        }
    }
    if (analytic.utilization - counted.utilization).abs() > 1e-9 {
        return Err(SystolicError::TelemetryDivergence {
            field: "utilization",
            analytic: analytic.utilization,
            counted: counted.utilization,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bsc_netlist::rng::Rng64;

    fn random_matrix(rng: &mut Rng64, rows: usize, cols: usize, bits: u32) -> Matrix {
        let half = 1i64 << (bits - 1);
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-half..half))
    }

    #[test]
    fn matmul_matches_reference_for_all_kinds_and_modes() {
        let mut rng = Rng64::seed_from_u64(55);
        for kind in MacKind::ALL {
            let config = ArrayConfig { pes: 4, vector_length: 4, kind };
            let array = SystolicArray::new(config);
            for p in Precision::ALL {
                let k = config.dot_length(p);
                let features = random_matrix(&mut rng, 6, k, p.bits());
                let weights = random_matrix(&mut rng, 4, k, p.bits());
                let run = array.matmul(p, &features, &weights).unwrap();
                assert_eq!(run.output, features.matmul_nt(&weights), "{kind} {p}");
            }
        }
    }

    #[test]
    fn cycle_count_is_m_plus_n_minus_one() {
        let config = ArrayConfig { pes: 8, vector_length: 2, kind: MacKind::Bsc };
        let array = SystolicArray::new(config);
        let k = config.dot_length(Precision::Int8);
        let features = Matrix::zeros(10, k);
        let weights = Matrix::zeros(8, k);
        let run = array.matmul(Precision::Int8, &features, &weights).unwrap();
        assert_eq!(run.stats.cycles, 10 + 8 - 1);
        // Every (m, n) pair fires exactly once.
        assert_eq!(run.stats.pe_busy_cycles, 10 * 8);
    }

    #[test]
    fn utilization_approaches_one_for_tall_feature_streams() {
        let config = ArrayConfig { pes: 4, vector_length: 2, kind: MacKind::Hps };
        let array = SystolicArray::new(config);
        let k = config.dot_length(Precision::Int4);
        let features = Matrix::zeros(100, k);
        let weights = Matrix::zeros(4, k);
        let run = array.matmul(Precision::Int4, &features, &weights).unwrap();
        assert!(run.stats.utilization > 0.9, "{}", run.stats.utilization);
    }

    #[test]
    fn partial_weight_rows_use_fewer_pes() {
        let config = ArrayConfig { pes: 8, vector_length: 2, kind: MacKind::Bsc };
        let array = SystolicArray::new(config);
        let k = config.dot_length(Precision::Int8);
        let features = Matrix::zeros(4, k);
        let weights = Matrix::zeros(2, k); // only 2 of 8 PEs used
        let run = array.matmul(Precision::Int8, &features, &weights).unwrap();
        assert_eq!(run.stats.weight_loads, 2);
        // 8 busy PE-cycles over 5 cycles × 8 physical PEs.
        assert!((run.stats.utilization - 0.2).abs() < 1e-9);
    }

    #[test]
    fn shape_errors_are_reported() {
        let config = ArrayConfig { pes: 2, vector_length: 2, kind: MacKind::Bsc };
        let array = SystolicArray::new(config);
        let bad = array.matmul(Precision::Int8, &Matrix::zeros(1, 3), &Matrix::zeros(1, 3));
        assert!(matches!(bad, Err(SystolicError::FeatureWidthMismatch { .. })));
        let bad = array.matmul(Precision::Int8, &Matrix::zeros(1, 2), &Matrix::zeros(3, 2));
        assert!(matches!(bad, Err(SystolicError::TooManyWeightRows { .. })));
    }

    #[test]
    fn stall_cycles_count_the_drain_tail() {
        let config = ArrayConfig { pes: 4, vector_length: 2, kind: MacKind::Bsc };
        let array = SystolicArray::new(config);
        let k = config.dot_length(Precision::Int8);
        let run = array.matmul(Precision::Int8, &Matrix::zeros(5, k), &Matrix::zeros(4, k)).unwrap();
        // PE j holds only its stationary weights for n-1-j trailing
        // cycles: 3+2+1+0 = 6.
        assert_eq!(run.stats.stall_cycles, 6);
        // idle = fill tail, symmetric with the drain: also 6.
        assert_eq!(run.stats.idle_pe_cycles(config.pes), 6);
    }

    #[test]
    fn attached_telemetry_mirrors_the_run_stats() {
        use bsc_telemetry::Telemetry;
        let config = ArrayConfig { pes: 3, vector_length: 2, kind: MacKind::Lpc };
        let tel = Telemetry::new(4096);
        let array = SystolicArray::with_telemetry(config, tel.clone());
        let k = config.dot_length(Precision::Int4);
        let f = Matrix::from_fn(4, k, |r, c| ((r + c) % 5) as i64 - 2);
        let w = Matrix::from_fn(3, k, |r, c| ((r * c) % 5) as i64 - 2);
        let run = array.matmul(Precision::Int4, &f, &w).unwrap();

        assert_eq!(run.stats.cycles, 4 + 3 - 1);
        // 4 feature rows against 3 weight rows: one load per weight row,
        // one hop and one k-lane dot product per (row, PE).
        assert_eq!(run.stats.weight_loads, 3);
        assert_eq!(run.stats.feature_hops, 4 * 3);
        assert_eq!(run.stats.macs, 4 * 3 * k as u64);
        // Per-PE utilization: every PE fires once per feature row.
        assert_eq!(run.pe_busy, vec![4, 4, 4]);
        assert_eq!(run.pe_busy.iter().sum::<u64>(), run.stats.pe_busy_cycles);
        // The trace ring saw one event per fire, stall and load, and
        // each PE's fires equal its busy cycles.
        let trace = tel.trace.snapshot();
        let fired = trace.events.iter().filter(|e| e.kind() == "pe_fired").count() as u64;
        let stalls = trace.events.iter().filter(|e| e.kind() == "vector_stall").count() as u64;
        let loads = trace.events.iter().filter(|e| e.kind() == "weight_load").count() as u64;
        assert_eq!(fired, run.stats.pe_busy_cycles);
        assert_eq!(stalls, run.stats.stall_cycles);
        assert_eq!(loads, run.stats.weight_loads);
        for (i, &busy) in run.pe_busy.iter().enumerate() {
            let fires = trace
                .events
                .iter()
                .filter(|e| matches!(e, TraceEvent::PeFired { pe, .. } if *pe as usize == i))
                .count() as u64;
            assert_eq!(fires, busy, "PE {i}");
        }
    }

    #[test]
    fn analytic_stats_accessor_matches_a_measured_run() {
        let config = ArrayConfig { pes: 4, vector_length: 2, kind: MacKind::Hps };
        let array = SystolicArray::new(config);
        let k = config.dot_length(Precision::Int2);
        let run = array.matmul(Precision::Int2, &Matrix::zeros(7, k), &Matrix::zeros(3, k)).unwrap();
        let predicted = array.analytic_stats(Precision::Int2, 7, 3, WeightReuse::WeightStationary);
        assert_eq!(run.stats, predicted);
    }

    #[test]
    fn geometry_round_trips_through_config() {
        let g = ArrayGeometry::new(16, 8);
        let c = ArrayConfig::with_geometry(MacKind::Lpc, g);
        assert_eq!(c.pes, 16);
        assert_eq!(c.vector_length, 8);
        assert_eq!(c.geometry(), g);
        assert_eq!(g.tag(), "16x8");
        assert_eq!(ArrayConfig::paper(MacKind::Bsc).geometry(), ArrayGeometry::paper());
        assert_eq!(ArrayGeometry::paper().to_string(), "32x32");
    }

    #[test]
    fn paper_array_peak_throughput() {
        let c = ArrayConfig::paper(MacKind::Bsc);
        assert_eq!(c.peak_macs_per_cycle(Precision::Int8), 1024);
        assert_eq!(c.peak_macs_per_cycle(Precision::Int4), 4096);
        assert_eq!(c.peak_macs_per_cycle(Precision::Int2), 8192);
    }
}

#[cfg(test)]
mod tiled_tests {
    use bsc_netlist::rng::Rng64;
    use super::*;

    fn random_matrix(rng: &mut Rng64, rows: usize, cols: usize, bits: u32) -> Matrix {
        let half = 1i64 << (bits - 1);
        Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-half..half))
    }

    #[test]
    fn tiled_matmul_is_exact_for_awkward_shapes() {
        let mut rng = Rng64::seed_from_u64(77);
        let config = ArrayConfig { pes: 4, vector_length: 4, kind: MacKind::Bsc };
        let array = SystolicArray::new(config);
        for p in Precision::ALL {
            // K neither a multiple of the dot length nor larger than one
            // tile; N larger than the PE count.
            for (m, k, n) in [(3, 7, 9), (5, 50, 6), (1, 1, 1), (2, 17, 4)] {
                let f = random_matrix(&mut rng, m, k, p.bits());
                let w = random_matrix(&mut rng, n, k, p.bits());
                let run = array.matmul_tiled(p, &f, &w).unwrap();
                assert_eq!(run.output, f.matmul_nt(&w), "{p} {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn tiled_matmul_aggregates_stats() {
        let config = ArrayConfig { pes: 2, vector_length: 2, kind: MacKind::Hps };
        let array = SystolicArray::new(config);
        let k = config.dot_length(Precision::Int8);
        let f = Matrix::zeros(4, 3 * k);
        let w = Matrix::zeros(5, 3 * k);
        let run = array.matmul_tiled(Precision::Int8, &f, &w).unwrap();
        // 3 K-tiles x 3 N-tiles (2+2+1 rows) = 9 passes.
        assert_eq!(run.stats.weight_loads, 3 * (2 + 2 + 1));
        assert!(run.stats.cycles > 0);
        // PE 0 serves every N-tile, PE 1 the two full ones: 4 feature
        // rows per pass.
        assert_eq!(run.pe_busy, vec![3 * 3 * 4, 3 * 2 * 4]);
        assert_eq!(run.pe_busy.iter().sum::<u64>(), run.stats.pe_busy_cycles);
    }
}

#[cfg(test)]
mod dataflow_tests {
    use super::*;

    #[test]
    fn no_reuse_matches_results_but_multiplies_weight_traffic() {
        let config = ArrayConfig { pes: 4, vector_length: 4, kind: MacKind::Bsc };
        let array = SystolicArray::new(config);
        let k = config.dot_length(Precision::Int8);
        let f = Matrix::from_fn(10, k, |r, c| ((r * c) % 7) as i64 - 3);
        let w = Matrix::from_fn(4, k, |r, c| ((r + c) % 5) as i64 - 2);
        let ws = array
            .matmul_with_dataflow(Precision::Int8, &f, &w, WeightReuse::WeightStationary)
            .unwrap();
        let nr = array
            .matmul_with_dataflow(Precision::Int8, &f, &w, WeightReuse::NoReuse)
            .unwrap();
        assert_eq!(ws.output, nr.output, "dataflow must not change results");
        assert_eq!(ws.stats.weight_loads, 4);
        assert_eq!(nr.stats.weight_loads, 10 * 4, "one reload per fire");
        assert_eq!(ws.stats.pe_busy_cycles, nr.stats.pe_busy_cycles);
    }
}
