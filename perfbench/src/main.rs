//! Host-time benchmark of the BSC accelerator reproduction.
//!
//! ```text
//! perfbench --workload <paper|serve|online-steady|online-overload>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the timed work runs repeatedly for `--seconds`
//! seconds, each iteration preceded by a timed set-up (the median is
//! `setup_s`).  `wall_s` is the mean iteration, or, when the timed work is a
//! fixed sequence of short public calls (`paper`), the sum over that
//! sequence of each call's fastest execution.  With `--trace 1` a
//! separate traced run records a span around every call the benchmark
//! makes into a layer's public function and reports per-layer metrics.
//! Either way every execution's outputs are checked, a human-readable
//! report goes to standard output, and the last line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! what each per-layer metric should move.

#![forbid(unsafe_op_in_unsafe_fn)]

mod metrics;
mod online;
mod paper;
mod replay;
mod serve;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::time::Instant;

use trace::{CountingAlloc, Recorder};
use util::{median, peak_rss_mb, tail};

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Named output checks of one execution.
pub type Checks = Vec<(&'static str, bool)>;

/// One untraced execution of a workload's timed work.
pub struct Unit {
    /// Host nanoseconds of the timed work (checks excluded).
    pub work_ns: u64,
    /// `(input key, host nanoseconds)` of each public call the timed work
    /// made, in call order; calls with equal keys do the same work.  Empty
    /// when the timed work is not split into calls.
    pub calls: Vec<(u64, u64)>,
    /// Work items: simulated arrivals, submitted jobs or figure rows.
    pub items: u64,
    /// Digest of the deterministic output documents.
    pub digest: u64,
    /// Output checks.
    pub checks: Checks,
    /// Simulated or paper-accuracy results: name, value, unit.
    pub report: Vec<(&'static str, f64, &'static str)>,
}

/// One traced repetition.
pub struct TraceRep {
    /// Traced set-up plus traced work: the wall the per-layer shares divide.
    pub main_ns: u64,
    /// Traced work alone.
    pub traced_work_ns: u64,
    /// The same work untraced, measured in the same repetition.
    pub untraced_work_ns: u64,
    /// Replay checks: each traced call's output equals the program's.
    pub checks: Checks,
    /// Per-layer metrics the workload measured itself.
    pub extras: Vec<(&'static str, f64)>,
}

/// A benchmark workload.
pub trait Workload {
    /// What set-up produces and the timed work consumes.
    type State;
    /// Generates the inputs and characterizes every design the workload
    /// uses; `warm` puts the designs in the process-wide cache.
    fn setup(&self, warm: bool) -> Result<Self::State, String>;
    /// One untraced execution of the timed work, with its output checks.
    fn run(&self, state: &Self::State) -> Result<Unit, String>;
    /// One traced repetition.
    fn trace(&self, state: &Self::State, rec: &mut Recorder) -> Result<TraceRep, String>;
}

/// Untraced runs repeat the timed work at least this often.
const MIN_ITERATIONS: usize = 3;

/// Whether another iteration that lasts as long as the last one still
/// ends within the run's `seconds`.
fn time_left(started: Instant, last_s: f64, seconds: f64) -> bool {
    started.elapsed().as_secs_f64() + last_s <= seconds
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <paper|serve|online-steady|online-overload> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a whole number"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| bad("a positive number"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// A finished run: the human-readable report and the result object.
struct Outcome {
    lines: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

fn record_checks(checks: &Checks, failures: &mut Vec<String>) -> bool {
    let bad: Vec<_> = checks
        .iter()
        .filter(|c| !c.1)
        .map(|c| c.0.to_string())
        .collect();
    let ok = bad.is_empty();
    failures.extend(bad);
    ok
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// The untraced run: the timed work for `seconds` seconds, each iteration
/// preceded by a timed set-up whose result is dropped.
fn untraced<W: Workload>(w: &W, args: &Args) -> Result<Outcome, String> {
    let state = w.setup(true)?;
    let mut setup_s = Vec::new();

    let started = Instant::now();
    let (mut walls, mut attempted, mut failed) = (Vec::new(), 0u64, 0u64);
    let (mut items, mut first_digest, mut report) = (0u64, None, Vec::new());
    let (mut sequence, mut fastest) = (None, BTreeMap::new());
    let mut failures = Vec::new();
    let mut checks_run = 0usize;
    let mut last_s = 0.0;
    while walls.len() < MIN_ITERATIONS || time_left(started, last_s, args.seconds) {
        let iteration_started = Instant::now();
        w.setup(false)?;
        setup_s.push(iteration_started.elapsed().as_secs_f64());
        attempted += 1;
        let unit = match w.run(&state) {
            Ok(unit) => unit,
            Err(e) => {
                failed += 1;
                failures.push(e);
                break;
            }
        };
        walls.push(secs(unit.work_ns));
        items = unit.items;
        checks_run = unit.checks.len();
        let mut ok = record_checks(&unit.checks, &mut failures);
        if *first_digest.get_or_insert(unit.digest) != unit.digest {
            failures.push("output digest differs from the first iteration's".into());
            ok = false;
        }
        let keys: Vec<u64> = unit.calls.iter().map(|c| c.0).collect();
        if *sequence.get_or_insert_with(|| keys.clone()) != keys {
            failures.push("the timed work made other calls than in the first iteration".into());
            ok = false;
        }
        for &(key, ns) in &unit.calls {
            let f = fastest.entry(key).or_insert(ns);
            *f = (*f).min(ns);
        }
        failed += u64::from(!ok);
        report = unit.report;
        last_s = iteration_started.elapsed().as_secs_f64();
    }

    // This host's speed switches between regimes up to 2x apart, each
    // holding for fractions of a second to a minute (see README.md).  A run
    // mean depends on how long each regime held.  A call's fastest
    // execution does not, once one of its executions fell in a fast
    // moment, which millisecond calls sampled across the run nearly always
    // do.  Calls that last a whole iteration rarely fit in one, so those
    // iterations are averaged instead.
    let sequence = sequence.unwrap_or_default();
    let wall_s = if sequence.is_empty() {
        walls.iter().sum::<f64>() / walls.len().max(1) as f64
    } else {
        secs(sequence.iter().map(|k| fastest[k]).sum())
    };
    let metrics = vec![
        ("setup_s".to_string(), median(&setup_s)),
        ("wall_s".to_string(), wall_s),
        ("items_per_s".to_string(), util::ratio(items as f64, wall_s)),
        ("peak_rss_mb".to_string(), peak_rss_mb()),
    ];
    let mut lines = Vec::new();
    if !sequence.is_empty() {
        lines.push(format!(
            "wall_s: {wall_s:.6} s, the sum of the fastest execution of each of {} calls ({} distinct) over {} iterations",
            sequence.len(),
            fastest.len(),
            walls.len()
        ));
    }
    for (name, sample) in [("setup_s", &setup_s), ("iteration", &walls)] {
        let (q, v) = tail(sample);
        lines.push(format!(
            "{name}: mean {:.6} s, median {:.6} s, min {:.6} s, p{q} {v:.6} s over {} samples",
            sample.iter().sum::<f64>() / sample.len() as f64,
            median(sample),
            sample.iter().copied().fold(f64::INFINITY, f64::min),
            sample.len()
        ));
    }
    let (label, what) = items_name(&args.workload);
    lines.push(format!("items: {items} {what} per iteration"));
    lines.push(format!(
        "{label}_per_s: {} 1/s",
        util::ratio(items as f64, wall_s)
    ));
    for (name, value, unit) in &report {
        lines.push(format!("{name}: {value} {unit}"));
    }
    lines.push(format!(
        "failed_frac: {} ({failed} of {attempted} executions; {checks_run} output checks and a digest each)",
        util::ratio(failed as f64, attempted as f64)
    ));
    lines.extend(failures.iter().map(|f| format!("FAILED: {f}")));
    Ok(Outcome {
        lines,
        attempted,
        failed,
        metrics,
    })
}

/// What `items_per_s` counts on a workload: its metric label and description.
fn items_name(workload: &str) -> (&'static str, &'static str) {
    match workload {
        "paper" => ("figure_rows", "figure rows"),
        "serve" => ("jobs", "submitted jobs"),
        _ => ("arrivals", "simulated arrivals"),
    }
}

/// The traced run: traced repetitions for `seconds` seconds; allocations
/// are counted during the first.
fn traced<W: Workload>(w: &W, args: &Args) -> Result<Outcome, String> {
    let state = w.setup(true)?;
    let mut rec = Recorder::default();
    let (mut reps, mut attempted, mut failed) = (Vec::new(), 0u64, 0u64);
    let mut failures = Vec::new();
    let mut allocs = trace::AllocCounts::default();
    let started = Instant::now();
    let mut last_s = 0.0;
    while reps.is_empty() || time_left(started, last_s, args.seconds) {
        let rep_started = Instant::now();
        let n = attempted as u32;
        rec.begin_rep(n);
        attempted += 1;
        if n == 0 {
            trace::start_counting();
        }
        let rep = w.trace(&state, &mut rec);
        if n == 0 {
            allocs = trace::stop_counting();
        }
        match rep {
            Ok(rep) => {
                failed += u64::from(!record_checks(&rep.checks, &mut failures));
                reps.push(rep);
            }
            Err(e) => {
                failed += 1;
                failures.push(e);
                break;
            }
        }
        last_s = rep_started.elapsed().as_secs_f64();
    }
    let table = metrics::layer_metrics(&rec, &reps, &allocs);
    write_spans(&rec, args);

    let mut lines = vec![format!("traced repetitions: {}", reps.len())];
    let mut ranked: Vec<(&str, f64)> = trace::Layer::ALL
        .iter()
        .map(|l| (l.name(), table[&format!("{}.self_frac", l.name())]))
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    lines.push(format!(
        "self time by layer: {}",
        ranked
            .iter()
            .filter(|r| r.1 > 0.0)
            .map(|(n, f)| format!("{n} {:.1}%", 100.0 * f))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    lines.push(format!(
        "failed_frac: {} ({failed} of {attempted} traced repetitions)",
        util::ratio(failed as f64, attempted as f64)
    ));
    lines.extend(failures.iter().map(|f| format!("FAILED: {f}")));
    Ok(Outcome {
        lines,
        attempted,
        failed,
        metrics: table.into_iter().collect(),
    })
}

/// Writes the spans as JSON lines into the build directory the binary
/// runs from (`<target>/perfbench-spans/`).
fn write_spans(rec: &Recorder, args: &Args) {
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.join("perfbench-spans")))
    else {
        eprintln!("warning: cannot locate the build directory; spans not written");
        return;
    };
    let path = dir.join(format!("{}-seed{}-spans.jsonl", args.workload, args.seed));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, rec.spans_jsonl()))
    {
        eprintln!("warning: cannot write {}: {e}", path.display());
    } else {
        eprintln!("spans written to {}", path.display());
    }
}

fn drive<W: Workload>(w: &W, args: &Args) -> Result<Outcome, String> {
    if args.trace {
        traced(w, args)
    } else {
        untraced(w, args)
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let outcome = match args.workload.as_str() {
        "paper" => drive(&paper::Paper::new(args.seed, false), &args),
        "serve" => drive(&serve::Serve::new(args.seed, false), &args),
        "online-steady" => drive(
            &online::Online::new(online::Load::Steady, args.seed, false),
            &args,
        ),
        "online-overload" => drive(
            &online::Online::new(online::Load::Overload, args.seed, false),
            &args,
        ),
        other => Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    let outcome = outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(1);
    });

    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &outcome.lines {
        println!("  {line}");
    }
    let units = metrics::units();
    let mut entries = Vec::new();
    for (name, value) in &outcome.metrics {
        let unit = units[name.as_str()];
        println!("  {name} = {value} {unit}");
        entries.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        entries.join(", ")
    );
}
