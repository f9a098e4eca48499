//! Micro-benchmarks of the core kernels: functional vector-MAC dot
//! products, gate-level simulation throughput, the cycle-accurate
//! systolic matmul, the compute-only and memory-aware layer schedulers
//! and the online arrival sampler.  Self-timed via [`bsc_bench::timing`].

use bsc_bench::timing::Group;
use bsc_mac::{vector_mac, MacKind, Precision, Rng64};
use bsc_systolic::{ArrayConfig, Matrix, SystolicArray};

fn random_ops(rng: &mut Rng64, bits: u32, len: usize) -> Vec<i64> {
    let half = 1i64 << (bits - 1);
    (0..len).map(|_| rng.gen_range(-half..half)).collect()
}

fn bench_functional_dot() {
    let mut group = Group::new("functional_dot_L32");
    group.sample_size(50);
    let mut rng = Rng64::seed_from_u64(1);
    for kind in MacKind::ALL {
        let mac = vector_mac(kind, 32);
        for p in Precision::ALL {
            let n = mac.macs_per_cycle(p);
            let w = random_ops(&mut rng, p.bits(), n);
            let a = random_ops(&mut rng, p.bits(), n);
            group.bench(&format!("{kind}/{p}"), || mac.dot(p, &w, &a).unwrap());
        }
    }
}

fn bench_gate_sim() {
    let mut group = Group::new("gate_sim_eval_L8");
    group.sample_size(10);
    for kind in MacKind::ALL {
        let mac = bsc_mac::build_netlist(kind, 8);
        group.bench(&kind.to_string(), || mac.characterize(Precision::Int4, 4, 7).unwrap());
    }
}

fn bench_systolic_matmul() {
    let mut group = Group::new("systolic_matmul_32x32");
    group.sample_size(10);
    let mut rng = Rng64::seed_from_u64(5);
    for kind in MacKind::ALL {
        let config = ArrayConfig::paper(kind);
        let array = SystolicArray::new(config);
        let k = config.dot_length(Precision::Int8);
        let f = Matrix::from_fn(32, k, |_, _| rng.gen_range(-128i64..128));
        let w = Matrix::from_fn(32, k, |_, _| rng.gen_range(-128i64..128));
        group.bench(&kind.to_string(), || array.matmul(Precision::Int8, &f, &w).unwrap());
    }
}

fn bench_array_netlist() {
    let mut group = Group::new("gate_level_array");
    group.sample_size(5);
    group.bench("build_bsc_4x8", || bsc_systolic::netlist::build_array(MacKind::Bsc, 4, 8));
    let array = bsc_systolic::netlist::build_array(MacKind::Bsc, 2, 2);
    let k = array.dot_length(Precision::Int4);
    let f = Matrix::from_fn(6, k, |r, c| ((r + c) % 13) as i64 - 6);
    let w = Matrix::from_fn(2, k, |r, c| ((r * c) % 11) as i64 - 5);
    group.bench("run_matmul_bsc_2x2", || array.run_matmul(Precision::Int4, &f, &w).unwrap());
}

fn bench_compiler() {
    use bsc_accel::compiler::{compile_conv, execute};
    use bsc_systolic::mapping::ConvShape;
    let config = ArrayConfig { pes: 4, vector_length: 4, kind: MacKind::Bsc };
    let array = SystolicArray::new(config);
    let shape = ConvShape::conv(8, 6, 8, 8, 3, 1, 1);
    let p = Precision::Int4;
    let input = bsc_nn::Tensor::random(8, 8, 8, p.value_range(), 4);
    let mut rng = Rng64::seed_from_u64(4);
    let r = p.value_range();
    let weights = bsc_nn::ops::ConvWeights {
        out_c: 6,
        in_c: 8,
        kh: 3,
        kw: 3,
        data: (0..6 * 8 * 9).map(|_| rng.gen_range(r.clone())).collect(),
    };
    let mut group = Group::new("tile_compiler");
    group.sample_size(10);
    group.bench("compile", || compile_conv(&config, p, &shape).unwrap());
    let program = compile_conv(&config, p, &shape).unwrap();
    group.bench("execute_conv_8c_8x8", || execute(&program, &array, &input, &weights).unwrap());
}

fn bench_asym_dot() {
    use bsc_mac::asym::{lpc_dot, AsymMode};
    let mut group = Group::new("asym_lpc_dot_L32");
    group.sample_size(50);
    let mut rng = Rng64::seed_from_u64(6);
    for mode in AsymMode::ALL {
        let n = 32 * mode.products_per_lpc_unit();
        let w = random_ops(&mut rng, mode.weight.bits(), n);
        let a = random_ops(&mut rng, mode.act.bits(), n);
        group.bench(&mode.to_string(), || lpc_dot(mode, 32, &w, &a).unwrap());
    }
}

fn bench_schedule_conv() {
    use bsc_systolic::mapping::{schedule_conv_dataflow, ConvShape};
    use bsc_systolic::DataflowKind;
    use std::hint::black_box;
    // The compute-only schedule in closed form: VGG-16's FC6 is 3.2M
    // (PE tile, channel tile) pairs at int8 on the quick BSC array.
    let config = ArrayConfig { pes: 4, vector_length: 8, kind: MacKind::Bsc };
    let mut group = Group::new("schedule_conv");
    group.sample_size(50);
    for (layer, shape) in [
        ("fc6", ConvShape::fully_connected(25088, 4096)),
        ("conv5_1", ConvShape::conv(512, 512, 14, 14, 3, 1, 1)),
    ] {
        for dataflow in DataflowKind::ALL {
            // Opaque inputs: the shape is a constant the optimizer could
            // otherwise fold the closed form over.
            group.bench(&format!("{layer}_int8_quick_bsc/{dataflow}"), || {
                let (config, shape) = (black_box(&config), black_box(&shape));
                schedule_conv_dataflow(config, Precision::Int8, shape, dataflow).unwrap().cycles
            });
        }
    }
}

fn bench_mem_schedule() {
    use bsc_systolic::{schedule_conv_with_memory, MemConfig};
    // VGG-16 on the quick BSC array: FC1 alone is 3.2M tile passes.
    let config = ArrayConfig { pes: 4, vector_length: 8, kind: MacKind::Bsc };
    let net = bsc_nn::models::vgg16();
    let shapes = |net: &bsc_nn::Network| -> Vec<_> {
        net.layers
            .iter()
            .map(|l| (l.precision, bsc_accel::layer_to_conv_shape(&l.kind)))
            .collect()
    };
    let layers = shapes(&net);
    // What `repro serve` runs: every layer at int8.
    let int8_layers = shapes(&net.with_uniform_precision(Precision::Int8));
    let mut group = Group::new("mem_schedule");
    group.sample_size(10);
    for (name, layers, mem) in [
        ("vgg16_quick_bsc/infinite", &layers, MemConfig::infinite()),
        ("vgg16_quick_bsc/edge", &layers, MemConfig::edge()),
        ("vgg16_int8_quick_bsc/infinite", &int8_layers, MemConfig::infinite()),
    ] {
        group.bench(name, || {
            layers
                .iter()
                .map(|(p, shape)| {
                    schedule_conv_with_memory(&config, &mem, *p, shape).unwrap().total_cycles
                })
                .sum::<u64>()
        });
    }
}

fn bench_arrival_refill() {
    use bsc_accel::des::{ArrivalGen, ArrivalProcess, DiurnalSegment};
    use std::collections::VecDeque;
    // The online event loop's refill size; one sample is 1,000 refills.
    const BATCH: usize = 64;
    const REFILLS: usize = 1_000;
    let mut group = Group::new("arrival_refill");
    group.sample_size(10);
    // The traffic mix of examples/online_manifest.json.
    for (name, process) in [
        ("poisson", ArrivalProcess::Poisson { mean_interarrival_cycles: 600 }),
        (
            "bursty",
            ArrivalProcess::Bursty {
                on_cycles: 50_000,
                off_cycles: 150_000,
                mean_interarrival_cycles: 200,
            },
        ),
        (
            "diurnal",
            ArrivalProcess::Diurnal {
                segments: vec![
                    DiurnalSegment { duration_cycles: 500_000, mean_interarrival_cycles: 2_000 },
                    DiurnalSegment { duration_cycles: 500_000, mean_interarrival_cycles: 8_000 },
                ],
            },
        ),
    ] {
        let mut gen = ArrivalGen::new(process, 1);
        let mut buf = VecDeque::with_capacity(BATCH);
        let summary = group.bench(&format!("{name}_x{BATCH}"), || {
            for _ in 0..REFILLS {
                buf.clear();
                gen.refill(BATCH, &mut buf);
            }
            buf.back().copied()
        });
        println!(
            "{:<44} {:.1} ns/sample",
            summary.name,
            summary.mean_ns / (BATCH * REFILLS) as f64
        );
    }
}

fn main() {
    bench_functional_dot();
    bench_gate_sim();
    bench_systolic_matmul();
    bench_array_netlist();
    bench_compiler();
    bench_asym_dot();
    bench_schedule_conv();
    bench_mem_schedule();
    bench_arrival_refill();
}
