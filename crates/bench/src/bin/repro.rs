//! Reproduction harness: regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--quick] [--csv DIR] [--metrics-out FILE] [--trace-out FILE]
//!       [--bench-out FILE] [--no-timers]
//!       [table1|fig7a|fig7b|fig8a|fig8b|fig8b-gate|fig9|telemetry|simbench|extensions|all]
//! repro [--quick] [--csv DIR] [--bench-out FILE] mem
//! repro trace [--perfetto-out FILE] [--svg-out FILE] [--trace-cap N]
//! repro serve <manifest.json> [--report-out FILE] [--slo-out FILE]
//!             [--dash-out FILE] [--events-out FILE]
//! repro online <manifest.json> [--workers N] [--report-out FILE]
//!              [--slo-out FILE] [--dash-out FILE] [--events-out FILE]
//!              [--perfetto-out FILE] [--profile-out FILE] [--folded-out FILE]
//! repro profile <manifest.json> [--workers N] [--profile-out FILE]
//!               [--folded-out FILE]
//! repro dse <manifest.json> [--workers N] [--bench-out FILE] [--csv DIR]
//!           [--svg-out FILE]
//! repro diff <baseline.json> <current.json> [--tol PCT] [--ignore PAT]...
//!            [--verbose]
//! ```
//!
//! * `--quick` uses a reduced vector length (8) and short activity runs —
//!   orderings hold but absolute numbers are noisier than the default
//!   paper-faithful configuration (vector length 32).
//! * `--csv DIR` additionally writes each experiment's raw data as CSV
//!   files into `DIR` (created if missing), ready for plotting.
//! * `--metrics-out FILE` writes the telemetry experiment's full JSON
//!   report (per-layer per-PE utilization, stall cycles, netlist toggle
//!   counts, metrics snapshot) to `FILE`.
//! * `--trace-out FILE` writes the telemetry experiment's captured
//!   cycle-event trace as JSON to `FILE`.
//! * `--no-timers` excludes wall-clock histograms from `--metrics-out`,
//!   making the document byte-identical across repeat runs.
//!
//! Passing `--metrics-out` / `--trace-out` without naming an experiment
//! runs just `telemetry` (which needs no characterization pass).
//!
//! * `simbench` benchmarks the netlist evaluator itself (tape sweeps
//!   and their throughput under weight-stationary stimulus) and reports
//!   the characterization wall-clock of a quick workbench; `--bench-out
//!   FILE` writes the machine-readable `BENCH_sim.json` baseline.
//! * `all` prints Table I and Figs 7–9 plus the telemetry probe;
//!   `--bench-out FILE all` also writes every number behind them as the
//!   `BENCH_paper.json` document the CI gate diffs at `--tol 0` (name
//!   `all` explicitly: `--bench-out` alone still means `simbench`).
//! * `mem` sweeps the memory hierarchy (buffer size x DRAM bandwidth x
//!   precision x MAC kind) through the tiled double-buffered DMA
//!   schedule and reports stall cycles, DMA traffic and the roofline
//!   side of every point; `--bench-out FILE` writes the deterministic
//!   `BENCH_mem_baseline.json` the CI gate diffs at zero tolerance.  The
//!   sweep is analytic (no characterization), so `--quick` is accepted
//!   but changes nothing.
//! * `trace` runs the instrumented three-layer probe network on one
//!   shared trace ring and reconstructs a per-PE timeline;
//!   `--perfetto-out` writes Chrome trace-event JSON (open at
//!   <https://ui.perfetto.dev>), `--svg-out` a self-contained
//!   utilization heatmap, `--trace-cap` overrides the ring capacity.
//! * `serve` feeds a JSON job manifest to the multi-tenant batch
//!   inference engine (the admission ladder shared with `online`,
//!   shared characterization cache — see `docs/serving.md`) and prints per-job
//!   and aggregate reports; `--report-out` writes the deterministic JSON
//!   report the CI baseline gate diffs, `--slo-out` the per-tenant SLO
//!   report (latency quantiles, goodput, attainment, fJ-exact energy
//!   attribution) gated at `--tol 0`, `--dash-out` a self-contained
//!   HTML/SVG dashboard, and `--events-out` a JSONL structured event
//!   log stamped with span correlation IDs.
//! * `online` drives the deterministic discrete-event online serving
//!   simulator: open-loop arrival processes (Poisson / bursty / diurnal)
//!   over a multi-shard cluster of heterogeneous accelerators (see
//!   `docs/serving.md`).  `--workers N` overrides the manifest's worker
//!   count — reports are byte-identical at any worker count;
//!   `--report-out` writes the `BENCH_online_baseline.json` document the
//!   CI gate diffs at `--tol 0`, `--slo-out` the per-tenant SLO report,
//!   `--dash-out` the HTML dashboard, `--events-out` the JSONL decision
//!   log, and `--perfetto-out` a Chrome trace timeline with one track
//!   group per shard.
//!   Adding `--profile-out` (JSON) or `--folded-out` (folded stacks for
//!   flamegraph tools) runs the same simulation under the self-profiler
//!   and additionally writes the phase-attributed profile — the online
//!   report is unchanged by profiling.
//! * `profile` runs an online manifest under the simulator
//!   self-profiler and prints the phase table (calls, deterministic
//!   work units, wall clock) plus arrivals/sec.  The profile document's
//!   `counters` section is a pure function of the manifest
//!   (byte-identical at any worker count, gated by CI at `--tol 0`
//!   against `BENCH_profile_baseline.json`); its `wall` / `throughput`
//!   sections carry `*_ns` / `*_per_sec` names the differ never gates.
//!   See `docs/profiling.md`.
//! * `dse` sweeps dataflow × array geometry × memory config × precision
//!   × MAC kind from a JSON manifest (see `docs/dse.md`), evaluating
//!   every point's energy/latency/area through the calibrated PPA,
//!   schedule and roofline models over the work-stealing pool (reports
//!   byte-identical at any worker count), and extracts the 3-D Pareto
//!   front; `--bench-out` writes the `BENCH_dse_baseline.json` document
//!   the CI gate diffs at `--tol 0`, `--csv DIR` the per-point CSV, and
//!   `--svg-out` a self-contained Pareto scatter SVG.
//! * Every subcommand validates its flags strictly, before any
//!   characterization: an unknown subcommand, an unknown or out-of-place
//!   flag, a flag missing its value, or (for the manifest-driven ones) a
//!   missing manifest exits with status 2 and the usage text.  A figure
//!   experiment takes only the flags it reads: `table1` takes `--csv`,
//!   the Fig 7–9 experiments and `fig8b-gate` take `--quick --csv`,
//!   `telemetry` takes `--metrics-out --trace-out --no-timers`,
//!   `simbench` takes `--quick --bench-out`, `extensions` takes none and
//!   `all` takes all of them.  `--csv DIR` creates `DIR` only when a CSV
//!   is written.
//! * `diff` compares two benchmark/metrics JSON files field-by-field and
//!   exits nonzero when a deterministic field drifted beyond the
//!   tolerance (`--tol 5` = ±5 %, the default).  Wall-clock fields
//!   (`*_ns`, `*_per_sec`, speedups) are reported but never gated;
//!   `--ignore PAT` adds more exempt patterns; `--verbose` also prints
//!   bit-identical fields.

use std::path::PathBuf;

use bsc_bench::diff::{diff_documents, render_diff, DiffOptions};
use bsc_bench::{
    dse, experiments, memexp, observatory, online, profile, serve, simbench, telemetry_probe,
    Workbench,
};
use bsc_mac::MacKind;

struct Options {
    quick: bool,
    csv_dir: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    bench_out: Option<PathBuf>,
    report_out: Option<PathBuf>,
    profile_out: Option<PathBuf>,
    folded_out: Option<PathBuf>,
    slo_out: Option<PathBuf>,
    dash_out: Option<PathBuf>,
    events_out: Option<PathBuf>,
    perfetto_out: Option<PathBuf>,
    svg_out: Option<PathBuf>,
    trace_cap: usize,
    no_timers: bool,
    workers: Option<usize>,
    tol: f64,
    ignore: Vec<String>,
    verbose: bool,
    which: String,
    /// Positional arguments after the experiment name (diff's two files).
    files: Vec<PathBuf>,
}

fn parse_args() -> Options {
    let mut quick = false;
    let mut csv_dir = None;
    let mut metrics_out = None;
    let mut trace_out = None;
    let mut bench_out = None;
    let mut report_out = None;
    let mut profile_out = None;
    let mut folded_out = None;
    let mut slo_out = None;
    let mut dash_out = None;
    let mut events_out = None;
    let mut perfetto_out = None;
    let mut svg_out = None;
    let mut trace_cap = observatory::DEFAULT_TRACE_CAPACITY;
    let mut no_timers = false;
    let mut workers = None;
    let mut seen_flags: Vec<String> = Vec::new();
    let mut tol = 5.0;
    let mut ignore = Vec::new();
    let mut verbose = false;
    let mut which = None;
    let mut files = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg.starts_with("--") {
            seen_flags.push(arg.clone());
        }
        let path_arg = |flag: &str, args: &mut dyn Iterator<Item = String>| {
            PathBuf::from(
                args.next()
                    .unwrap_or_else(|| die_usage(&format!("{flag} requires a file argument"))),
            )
        };
        match arg.as_str() {
            "--quick" => quick = true,
            "--no-timers" => no_timers = true,
            "--verbose" => verbose = true,
            "--csv" => csv_dir = Some(path_arg("--csv", &mut args)),
            "--metrics-out" => metrics_out = Some(path_arg("--metrics-out", &mut args)),
            "--trace-out" => trace_out = Some(path_arg("--trace-out", &mut args)),
            "--bench-out" => bench_out = Some(path_arg("--bench-out", &mut args)),
            "--report-out" => report_out = Some(path_arg("--report-out", &mut args)),
            "--profile-out" => profile_out = Some(path_arg("--profile-out", &mut args)),
            "--folded-out" => folded_out = Some(path_arg("--folded-out", &mut args)),
            "--slo-out" => slo_out = Some(path_arg("--slo-out", &mut args)),
            "--dash-out" => dash_out = Some(path_arg("--dash-out", &mut args)),
            "--events-out" => events_out = Some(path_arg("--events-out", &mut args)),
            "--perfetto-out" => perfetto_out = Some(path_arg("--perfetto-out", &mut args)),
            "--svg-out" => svg_out = Some(path_arg("--svg-out", &mut args)),
            "--trace-cap" => {
                let n = args
                    .next()
                    .unwrap_or_else(|| die_usage("--trace-cap requires a number argument"));
                trace_cap = n
                    .parse()
                    .unwrap_or_else(|_| die(&format!("--trace-cap: `{n}` is not a number")));
            }
            "--workers" => {
                let n = args
                    .next()
                    .unwrap_or_else(|| die_usage("--workers requires a number argument"));
                let parsed: usize = n
                    .parse()
                    .unwrap_or_else(|_| die(&format!("--workers: `{n}` is not a number")));
                if parsed == 0 {
                    die("--workers: must be positive");
                }
                workers = Some(parsed);
            }
            "--tol" => {
                let n = args
                    .next()
                    .unwrap_or_else(|| die_usage("--tol requires a percentage argument"));
                let parsed: f64 = n
                    .parse()
                    .unwrap_or_else(|_| die(&format!("--tol: `{n}` is not a number")));
                // A negative or NaN tolerance fails every field and an
                // infinite one passes any drift.
                if !(parsed.is_finite() && parsed >= 0.0) {
                    die(&format!("--tol: `{n}` is not a finite, non-negative percentage"));
                }
                tol = parsed;
            }
            "--ignore" => {
                ignore.push(
                    args.next()
                        .unwrap_or_else(|| die_usage("--ignore requires a pattern argument")),
                );
            }
            other if !other.starts_with("--") => {
                if which.is_none() {
                    which = Some(other.to_owned());
                } else {
                    files.push(PathBuf::from(other));
                }
            }
            other => die_usage(&format!("unknown flag `{other}`")),
        }
    }
    // Telemetry outputs without an explicit experiment mean "run the
    // telemetry probe"; a bench output alone means "run simbench"; trace
    // outputs alone mean "run the observatory" — all are self-contained
    // and skip characterization.
    let default = if metrics_out.is_some() || trace_out.is_some() {
        "telemetry"
    } else if bench_out.is_some() {
        "simbench"
    } else if perfetto_out.is_some() || svg_out.is_some() {
        "trace"
    } else {
        "all"
    };
    let which = which.unwrap_or_else(|| default.to_owned());
    // Each subcommand accepts only its own flags — a stray flag silently
    // changing nothing is how baseline-generation runs go wrong, so it is
    // a usage error instead.
    let Some(allowed) = subcommand_flags(&which) else {
        die_usage(&format!("unknown subcommand `{which}`"));
    };
    for flag in &seen_flags {
        if !allowed.contains(&flag.as_str()) {
            die_usage(&format!("`repro {which}` does not accept `{flag}`"));
        }
    }
    Options {
        quick,
        csv_dir,
        metrics_out,
        trace_out,
        bench_out,
        report_out,
        profile_out,
        folded_out,
        slo_out,
        dash_out,
        events_out,
        perfetto_out,
        svg_out,
        trace_cap,
        no_timers,
        workers,
        tol,
        ignore,
        verbose,
        which,
        files,
    }
}

/// The exact flag set each subcommand accepts, which is the set it
/// reads; `None` for a name that is no subcommand.
fn subcommand_flags(which: &str) -> Option<&'static [&'static str]> {
    match which {
        "table1" => Some(&["--csv"]),
        "fig7a" | "fig7b" | "fig8a" | "fig8b" | "fig8b-gate" | "fig9" => {
            Some(&["--quick", "--csv"])
        }
        "telemetry" => Some(&["--metrics-out", "--trace-out", "--no-timers"]),
        "simbench" => Some(&["--quick", "--bench-out"]),
        "extensions" => Some(&[]),
        "all" => Some(&[
            "--quick",
            "--csv",
            "--metrics-out",
            "--trace-out",
            "--bench-out",
            "--no-timers",
        ]),
        "trace" => Some(&["--perfetto-out", "--svg-out", "--trace-cap"]),
        "diff" => Some(&["--tol", "--ignore", "--verbose"]),
        "serve" => Some(&["--report-out", "--slo-out", "--dash-out", "--events-out"]),
        "online" => Some(&[
            "--workers",
            "--report-out",
            "--slo-out",
            "--dash-out",
            "--events-out",
            "--perfetto-out",
            "--profile-out",
            "--folded-out",
        ]),
        "profile" => Some(&["--workers", "--profile-out", "--folded-out"]),
        "mem" => Some(&["--quick", "--csv", "--bench-out"]),
        "dse" => Some(&["--workers", "--bench-out", "--csv", "--svg-out"]),
        _ => None,
    }
}

fn main() {
    let opts = parse_args();

    let needs_workbench = !matches!(
        opts.which.as_str(),
        "table1"
            | "fig8b-gate"
            | "extensions"
            | "telemetry"
            | "simbench"
            | "mem"
            | "dse"
            | "trace"
            | "serve"
            | "online"
            | "profile"
            | "diff"
    );
    let wb = if needs_workbench {
        eprintln!(
            "characterizing BSC/LPC/HPS netlists ({} mode)...",
            if opts.quick { "quick" } else { "paper" }
        );
        let wb = if opts.quick { Workbench::quick() } else { Workbench::paper() }
            .unwrap_or_else(|e| die(&format!("characterization failed: {e}")));
        // The workbench times its characterization with one `Instant`.
        eprintln!(
            "characterized in {:.4}s (compiled-tape evaluator, batch-sharded)\n",
            wb.characterize_wall_ns() as f64 / 1e9
        );
        Some(wb)
    } else {
        None
    };
    let wb = wb.as_ref();

    // Each document is built only when its flag asks for it.
    let write_csv = |name: &str, data: &dyn Fn() -> String| {
        if let Some(dir) = &opts.csv_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                die(&format!("cannot create {}: {e}", dir.display()));
            }
            let path = dir.join(name);
            if let Err(e) = std::fs::write(&path, data()) {
                die(&format!("cannot write {}: {e}", path.display()));
            }
            eprintln!("wrote {}", path.display());
        }
    };

    let run_table1 = || {
        print!("{}", experiments::render_table1());
        write_csv("table1.csv", &experiments::table1_csv);
    };
    let run_fig7 = |wb: &Workbench, which: &str| {
        let pts = experiments::fig7_sweep(wb);
        if which != "fig7b" {
            print!("{}", experiments::render_fig7a(&pts));
        }
        if which != "fig7a" {
            print!("{}", experiments::render_fig7b(&pts));
        }
        write_csv("fig7_sweep.csv", &|| experiments::fig7_csv(&pts));
        pts
    };
    let run_fig8a = |wb: &Workbench| match experiments::fig8a(wb) {
        Ok(rows) => {
            print!("{}", experiments::render_fig8a(&rows));
            write_csv("fig8a.csv", &|| experiments::fig8a_csv(&rows));
            rows
        }
        Err(e) => die(&format!("fig8a failed: {e}")),
    };
    let run_fig8b = |wb: &Workbench| match experiments::fig8b(wb) {
        Ok(rows) => {
            print!("{}", experiments::render_fig8b(&rows));
            write_csv("fig8b.csv", &|| experiments::fig8b_csv(&rows));
            rows
        }
        Err(e) => die(&format!("fig8b failed: {e}")),
    };
    let run_fig9 = |wb: &Workbench| match experiments::fig9(wb) {
        Ok(rows) => {
            print!("{}", experiments::render_fig9(&rows));
            write_csv("fig9.csv", &|| experiments::fig9_csv(&rows));
            rows
        }
        Err(e) => die(&format!("fig9 failed: {e}")),
    };
    let run_telemetry = || {
        let report = telemetry_probe::telemetry_report(MacKind::Bsc)
            .unwrap_or_else(|e| die(&format!("telemetry probe failed: {e}")));
        print!("{}", telemetry_probe::render_telemetry(&report));
        if let Some(path) = &opts.metrics_out {
            let json = telemetry_probe::telemetry_json(&report, opts.no_timers);
            if let Err(e) = std::fs::write(path, json) {
                die(&format!("cannot write {}: {e}", path.display()));
            }
            eprintln!("wrote {}", path.display());
        }
        if let Some(path) = &opts.trace_out {
            let json = telemetry_probe::telemetry_trace_json(&report);
            if let Err(e) = std::fs::write(path, json) {
                die(&format!("cannot write {}: {e}", path.display()));
            }
            eprintln!("wrote {}", path.display());
        }
    };

    let run_simbench = || {
        eprintln!("benchmarking the netlist evaluator (weight-stationary step + eval)...");
        let (cycles, length) = if opts.quick { (64, 4) } else { (256, 8) };
        let reports: Vec<_> = MacKind::ALL
            .into_iter()
            .map(|kind| simbench::run(kind, length, cycles))
            .collect();
        print!("{}", simbench::render(&reports));
        eprintln!("\ntiming a quick workbench characterization...");
        let wb_ns = match Workbench::quick() {
            Ok(wb) => {
                let ns = wb.characterize_wall_ns();
                println!(
                    "Workbench::quick() characterization wall-clock: {}",
                    bsc_bench::timing::fmt_ns(ns as f64)
                );
                Some(ns)
            }
            Err(e) => {
                eprintln!("workbench timing skipped: {e}");
                None
            }
        };
        if let Some(path) = &opts.bench_out {
            let json = simbench::to_json(&reports, wb_ns);
            if let Err(e) = std::fs::write(path, json) {
                die(&format!("cannot write {}: {e}", path.display()));
            }
            eprintln!("wrote {}", path.display());
        }
    };

    let run_mem = || {
        eprintln!("sweeping the memory hierarchy (buffers x bandwidth x precision x kind)...");
        let points = memexp::sweep().unwrap_or_else(|e| die(&format!("mem sweep failed: {e}")));
        print!("{}", memexp::render(&points));
        write_csv("mem_sweep.csv", &|| memexp::to_csv(&points));
        if let Some(path) = &opts.bench_out {
            if let Err(e) = std::fs::write(path, memexp::to_json(&points)) {
                die(&format!("cannot write {}: {e}", path.display()));
            }
            eprintln!("wrote {}", path.display());
        }
    };

    let run_trace = || {
        eprintln!("running the instrumented probe network (trace observatory)...");
        let run = observatory::observe(MacKind::Bsc, opts.trace_cap)
            .unwrap_or_else(|e| die(&format!("trace observatory failed: {e}")));
        print!("{}", observatory::render_observatory(&run));
        if let Some(path) = &opts.perfetto_out {
            let json = observatory::run_perfetto_json(&run);
            if let Err(e) = std::fs::write(path, json) {
                die(&format!("cannot write {}: {e}", path.display()));
            }
            eprintln!("wrote {} (open at https://ui.perfetto.dev)", path.display());
        }
        if let Some(path) = &opts.svg_out {
            let svg = observatory::run_svg(&run);
            if let Err(e) = std::fs::write(path, svg) {
                die(&format!("cannot write {}: {e}", path.display()));
            }
            eprintln!("wrote {}", path.display());
        }
    };

    let write_out = |path: &Option<PathBuf>, data: &dyn Fn() -> String| {
        if let Some(path) = path {
            if let Err(e) = std::fs::write(path, data()) {
                die(&format!("cannot write {}: {e}", path.display()));
            }
            eprintln!("wrote {}", path.display());
        }
    };

    // Every manifest-driven subcommand takes exactly one positional file.
    let read_manifest = |which: &str| {
        let [manifest] = opts.files.as_slice() else {
            die_usage(&format!("{which} requires exactly one file argument: <manifest.json>"));
        };
        std::fs::read_to_string(manifest)
            .unwrap_or_else(|e| die(&format!("cannot read {}: {e}", manifest.display())))
    };

    let run_serve = || {
        let run = serve::serve(&read_manifest("serve")).unwrap_or_else(|e| die(&e));
        print!("{}", serve::render(&run));
        write_out(&opts.report_out, &|| serve::report_json(&run));
        write_out(&opts.slo_out, &|| serve::slo_json(&run));
        write_out(&opts.dash_out, &|| {
            bsc_bench::dashboard::dashboard_html(&run)
        });
        write_out(&opts.events_out, &|| serve::events_jsonl(&run));
    };

    let run_online = || {
        let text = read_manifest("online");
        // A profile output upgrades the run to the self-profiled path;
        // the online report itself is identical either way.
        let profiling = opts.profile_out.is_some() || opts.folded_out.is_some();
        let run = if profiling {
            let p = profile::profile(&text, opts.workers).unwrap_or_else(|e| die(&e));
            print!("{}", online::render(&p.run));
            print!("{}", profile::render(&p));
            write_out(&opts.profile_out, &|| profile::profile_document(&p));
            write_out(&opts.folded_out, &|| profile::folded(&p));
            p.run
        } else {
            let run = online::online(&text, opts.workers).unwrap_or_else(|e| die(&e));
            print!("{}", online::render(&run));
            run
        };
        write_out(&opts.report_out, &|| online::report_json(&run));
        write_out(&opts.slo_out, &|| online::slo_json(&run));
        write_out(&opts.dash_out, &|| {
            bsc_bench::dashboard::online_dashboard_html(&run)
        });
        write_out(&opts.events_out, &|| online::events_jsonl(&run));
        write_out(&opts.perfetto_out, &|| online::perfetto_json(&run));
    };

    let run_dse = || {
        let text = read_manifest("dse");
        eprintln!("sweeping dataflow x geometry x memory x precision x kind...");
        let run = dse::dse(&text, opts.workers).unwrap_or_else(|e| die(&e));
        print!("{}", dse::render(&run));
        write_csv("dse_sweep.csv", &|| dse::to_csv(&run));
        write_out(&opts.bench_out, &|| dse::to_json(&run));
        write_out(&opts.svg_out, &|| {
            bsc_bench::dashboard::dse_pareto_svg(&run)
        });
    };

    let run_profile = || {
        let text = read_manifest("profile");
        eprintln!("profiling the online simulator (deterministic counters + wall clock)...");
        let p = profile::profile(&text, opts.workers).unwrap_or_else(|e| die(&e));
        print!("{}", profile::render(&p));
        write_out(&opts.profile_out, &|| profile::profile_document(&p));
        write_out(&opts.folded_out, &|| profile::folded(&p));
    };

    let run_diff = || {
        let [baseline, current] = opts.files.as_slice() else {
            die("diff requires exactly two file arguments: <baseline.json> <current.json>");
        };
        let read = |p: &std::path::Path| {
            std::fs::read_to_string(p)
                .unwrap_or_else(|e| die(&format!("cannot read {}: {e}", p.display())))
        };
        let mut diff_opts = DiffOptions { tolerance: opts.tol / 100.0, ..DiffOptions::default() };
        diff_opts.ignore.extend(opts.ignore.iter().cloned());
        let report = diff_documents(&read(baseline), &read(current), &diff_opts)
            .unwrap_or_else(|e| die(&format!("malformed JSON: {e}")));
        print!("{}", render_diff(&report, opts.verbose));
        for row in report.missing() {
            eprintln!("warning: field `{}` present on only one side", row.path);
        }
        if report.regressed() {
            std::process::exit(2);
        }
    };

    match opts.which.as_str() {
        "table1" => run_table1(),
        "simbench" => run_simbench(),
        "mem" => run_mem(),
        "dse" => run_dse(),
        "trace" => run_trace(),
        "serve" => run_serve(),
        "online" => run_online(),
        "profile" => run_profile(),
        "diff" => run_diff(),
        "extensions" => match experiments::render_extensions() {
            Ok(text) => print!("{text}"),
            Err(e) => die(&format!("extensions report failed: {e}")),
        },
        "fig8b-gate" => {
            let (pes, length, steps) = if opts.quick { (2, 4, 24) } else { (4, 16, 48) };
            eprintln!("building and characterizing gate-level arrays ({pes} PEs x L={length})...");
            match experiments::fig8b_gate_level(pes, length, steps) {
                Ok(rows) => {
                    print!("{}", experiments::render_fig8b_gate_level(&rows, pes));
                    write_csv("fig8b_gate.csv", &|| experiments::fig8b_csv(&rows));
                }
                Err(e) => die(&format!("fig8b-gate failed: {e}")),
            }
        }
        "fig7a" | "fig7b" => {
            run_fig7(wb.expect("workbench"), &opts.which);
        }
        "fig8a" => {
            run_fig8a(wb.expect("workbench"));
        }
        "fig8b" => {
            run_fig8b(wb.expect("workbench"));
        }
        "fig9" => {
            run_fig9(wb.expect("workbench"));
        }
        "telemetry" => run_telemetry(),
        "all" => {
            let wb = wb.expect("workbench");
            run_table1();
            println!();
            let fig7 = run_fig7(wb, "all");
            println!();
            let fig8a = run_fig8a(wb);
            println!();
            let fig8b = run_fig8b(wb);
            println!();
            let fig9 = run_fig9(wb);
            println!();
            run_telemetry();
            write_out(&opts.bench_out, &|| {
                experiments::paper_json(&fig7, &fig8a, &fig8b, &fig9)
            });
        }
        other => unreachable!("`{other}` passed the subcommand check"),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

const USAGE: &str = "\
usage:
  repro [--quick] [--csv DIR] [--metrics-out FILE] [--trace-out FILE]
        [--bench-out FILE] [--no-timers]
        [table1|fig7a|fig7b|fig8a|fig8b|fig8b-gate|fig9|telemetry|simbench|extensions|all]
  repro [--quick] [--csv DIR] [--bench-out FILE] mem
  repro trace [--perfetto-out FILE] [--svg-out FILE] [--trace-cap N]
  repro serve <manifest.json> [--report-out FILE] [--slo-out FILE]
              [--dash-out FILE] [--events-out FILE]
  repro online <manifest.json> [--workers N] [--report-out FILE] [--slo-out FILE]
               [--dash-out FILE] [--events-out FILE] [--perfetto-out FILE]
               [--profile-out FILE] [--folded-out FILE]
  repro profile <manifest.json> [--workers N] [--profile-out FILE]
                [--folded-out FILE]
  repro dse <manifest.json> [--workers N] [--bench-out FILE] [--csv DIR]
            [--svg-out FILE]
  repro diff <baseline.json> <current.json> [--tol PCT] [--ignore PAT]... [--verbose]";

/// A malformed command line: the message, the usage block, exit 2 (so
/// CI distinguishes \"you called it wrong\" from a failing run).
fn die_usage(msg: &str) -> ! {
    eprintln!("error: {msg}\n\n{USAGE}");
    std::process::exit(2);
}
