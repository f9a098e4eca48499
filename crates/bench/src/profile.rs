//! `repro profile`: run an online manifest under the simulator
//! self-profiler and report where the time and the work went.
//!
//! The profiler has two sides with two contracts:
//!
//! * **Deterministic work counters** (events popped, heap operations,
//!   admission decisions, SLO observations, bytes exported, ...) are a
//!   pure function of the manifest — byte-identical at any worker
//!   count.  They live under the `"counters"` section of the profile
//!   document and are gated by CI at `--tol 0` against
//!   `BENCH_profile_baseline.json`.
//! * **Wall-clock** (per-phase nanoseconds, arrivals/sec) varies run to
//!   run.  It lives under `"wall"` / `"throughput"` with `*_ns` /
//!   `*_per_sec` names, which `repro diff` reports but never gates.
//!
//! Besides the JSON document the driver can emit the profile as folded
//! stacks (`root;phase weight` lines), the input format of
//! `flamegraph.pl` and speedscope (see `docs/profiling.md`).

use std::time::Instant;

use bsc_telemetry::profile::{folded_stacks, write_profile_sections, ProfileSnapshot, Profiler};
use bsc_telemetry::JsonBuilder;

use crate::online::{
    events_jsonl, online_profiled, perfetto_json, report_json, slo_json, OnlineRun,
};

/// Root frame name used in the folded-stack export.
pub const FOLDED_ROOT: &str = "repro_online";

/// Arrivals per wall-clock second the profiler measured on the CI
/// manifest **before** the hot path was batched (per-event registry
/// increments, one heap push per completion, one RNG draw dispatch per
/// arrival) — the PR-8 datapoint recorded in `docs/profiling.md`.
/// Wall-clock is never gated at `--tol 0`, but `scripts/ci.sh` checks
/// the 1e7-arrival run against this figure so a hot-path regression
/// that survives the byte-identity gates still fails loudly.
pub const PRE_BATCHING_ARRIVALS_PER_SEC: f64 = 696_474.47;

/// One self-profiled online run: the run itself, the phase-attributed
/// profile, and the end-to-end wall clock.
#[derive(Debug)]
pub struct ProfileRun {
    /// The underlying online run (report and shard names).
    pub run: OnlineRun,
    /// Phase-attributed profile: wall clock + deterministic counters.
    pub snapshot: ProfileSnapshot,
    /// End-to-end wall clock of the simulation + export, in ns.  This
    /// wraps the whole run, so it is an upper bound on the sum of the
    /// per-phase wall times (which only cover instrumented scopes).
    pub run_wall_ns: u64,
}

impl ProfileRun {
    /// Simulated arrivals per wall-clock second (informational only —
    /// never gated).
    pub fn arrivals_per_sec(&self) -> f64 {
        if self.run_wall_ns == 0 {
            return 0.0;
        }
        self.run.report.submitted as f64 * 1e9 / self.run_wall_ns as f64
    }

    /// Wall-clock nanoseconds of the run outside every phase scope: the
    /// event loop's own work between phases.  Phase scopes are serial and
    /// sit inside the run, so the phases plus this remainder make up
    /// [`ProfileRun::run_wall_ns`].
    pub fn unattributed_ns(&self) -> u64 {
        self.run_wall_ns.saturating_sub(self.snapshot.total_wall_ns())
    }
}

/// Runs an online manifest with the self-profiler attached, then
/// serializes every export once under the `export` phase so the
/// serialization cost (and byte volume) is attributed too.  The export
/// documents themselves are discarded — `repro profile` measures, it
/// does not write run artifacts.
///
/// # Errors
///
/// Same contract as [`crate::online::online`].
pub fn profile(manifest_text: &str, workers_override: Option<usize>) -> Result<ProfileRun, String> {
    let prof = Profiler::new();
    let started = Instant::now();
    let run = online_profiled(manifest_text, workers_override, Some(&prof))?;
    {
        let _guard = prof.enter("export");
        let export = prof.phase("export");
        let mut bytes = 0u64;
        for doc in
            [report_json(&run), slo_json(&run), events_jsonl(&run), perfetto_json(&run)]
        {
            bytes += doc.len() as u64;
        }
        export.add("bytes_written", bytes);
        export.add("documents", 4);
    }
    let run_wall_ns = started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
    Ok(ProfileRun { run, snapshot: prof.snapshot(), run_wall_ns })
}

/// Aligned-text phase table: calls, deterministic work units, wall
/// clock and share of the run wall per phase, an `unattributed` row for
/// the rest of the run, then the throughput line.
pub fn render(p: &ProfileRun) -> String {
    let mut out = String::new();
    let r = &p.run.report;
    out.push_str("self-profile: phase breakdown\n");
    out.push_str(&format!(
        "  {:<18} {:>12} {:>14} {:>12} {:>7}\n",
        "phase", "calls", "work units", "wall", "share"
    ));
    let run_wall = p.run_wall_ns.max(1) as f64;
    let mut row = |name: &str, calls: String, work: String, wall_ns: u64| {
        out.push_str(&format!(
            "  {:<18} {:>12} {:>14} {:>12} {:>6.1}%\n",
            name,
            calls,
            work,
            crate::timing::fmt_ns(wall_ns as f64),
            wall_ns as f64 * 100.0 / run_wall,
        ));
    };
    for phase in &p.snapshot.phases {
        row(&phase.name, phase.calls.to_string(), phase.work_units().to_string(), phase.wall_ns);
    }
    row("unattributed", String::new(), String::new(), p.unattributed_ns());
    out.push_str(&format!(
        "  arrivals {} (completed {}, rejected {}, shed {})\n",
        r.submitted, r.completed, r.rejected, r.shed
    ));
    out.push_str(&format!(
        "  wall {} -> {:.0} arrivals/sec (informational; never gated)\n",
        crate::timing::fmt_ns(p.run_wall_ns as f64),
        p.arrivals_per_sec(),
    ));
    out.push_str(&format!(
        "  pre-batching reference {:.0}/s -> {:.2}x\n",
        PRE_BATCHING_ARRIVALS_PER_SEC,
        p.arrivals_per_sec() / PRE_BATCHING_ARRIVALS_PER_SEC,
    ));
    out
}

/// The strict-JSON profile document.
///
/// Layout: a `meta` header identifying the run (deterministic manifest
/// outcomes only — no worker count, so the document is identical at 1,
/// 2 or 8 workers), the gated `counters` section, the ignored `wall`
/// section, and an ignored `throughput` object.  CI byte-compares
/// `counters` across worker counts and diffs the whole document against
/// `BENCH_profile_baseline.json` at `--tol 0` (wall names match the
/// default ignore patterns).
pub fn profile_document(p: &ProfileRun) -> String {
    let r = &p.run.report;
    let mut j = JsonBuilder::new();
    j.begin_object();
    j.key("schema");
    j.string("bsc.profile.v1");
    j.key("meta");
    j.begin_object();
    j.key("seed");
    j.u64(r.seed);
    j.key("horizon_cycles");
    j.u64(r.horizon_cycles);
    j.key("shards");
    j.u64(r.shards.len() as u64);
    j.key("submitted");
    j.u64(r.submitted);
    j.key("completed");
    j.u64(r.completed);
    j.key("rejected");
    j.u64(r.rejected);
    j.key("shed");
    j.u64(r.shed);
    j.key("events_truncated");
    j.u64(r.events_truncated);
    j.end_object();
    write_profile_sections(&mut j, &p.snapshot);
    j.key("throughput");
    j.begin_object();
    j.key("run_wall_ns");
    j.u64(p.run_wall_ns);
    j.key("unattributed_ns");
    j.u64(p.unattributed_ns());
    j.key("arrivals_per_sec");
    j.f64(p.arrivals_per_sec());
    j.end_object();
    j.end_object();
    j.finish()
}

/// Folded-stack view of the profile (`repro_online;<phase> weight`
/// lines, weight in µs) — pipe into `flamegraph.pl` or load in
/// speedscope.
pub fn folded(p: &ProfileRun) -> String {
    folded_stacks(&p.snapshot, FOLDED_ROOT)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::online::tests::MANIFEST;

    #[test]
    fn profile_runs_and_attributes_every_phase() {
        let p = profile(MANIFEST, Some(2)).unwrap();
        for name in
            ["arrival-sampling", "dispatch", "admission", "schedule-eval", "slo-fold", "export"]
        {
            let phase = p.snapshot.phase(name).unwrap_or_else(|| panic!("missing phase {name}"));
            assert!(phase.calls > 0, "phase {name} never entered");
        }
        assert!(p.snapshot.phase("export").unwrap().counter("bytes_written") > 0);
        let text = render(&p);
        assert!(text.contains("arrivals/sec"), "{text}");
        assert!(text.contains("admission"), "{text}");
    }

    #[test]
    fn profile_document_counters_are_worker_count_independent() {
        let counters_of = |workers: usize| {
            let p = profile(MANIFEST, Some(workers)).unwrap();
            let doc = bsc_telemetry::parse_json(&profile_document(&p)).unwrap();
            // Re-serialize just the gated section; wall/throughput differ
            // run to run by construction.
            let mut j = JsonBuilder::new();
            j.begin_object();
            write_profile_sections(&mut j, &p.snapshot);
            j.end_object();
            assert!(doc.get("counters").is_some());
            assert!(doc.get("wall").is_some());
            let full = j.finish();
            let start = full.find("\"counters\"").unwrap();
            let end = full.find("\"wall\"").unwrap();
            full[start..end].to_owned()
        };
        let once = counters_of(1);
        assert_eq!(once, counters_of(2));
        assert_eq!(once, counters_of(8));
    }

    #[test]
    fn phase_rows_and_the_unattributed_row_sum_to_the_run_wall() {
        let p = profile(MANIFEST, Some(1)).unwrap();
        let rows: Vec<u64> = p
            .snapshot
            .phases
            .iter()
            .map(|phase| phase.wall_ns)
            .chain([p.unattributed_ns()])
            .collect();
        assert_eq!(rows.iter().sum::<u64>(), p.run_wall_ns);
        let text = render(&p);
        let shares: Vec<f64> = text
            .lines()
            .filter_map(|l| l.strip_suffix('%')?.rsplit(' ').next()?.parse().ok())
            .collect();
        assert_eq!(shares.len(), rows.len(), "{text}");
        let total: f64 = shares.iter().sum();
        assert!((total - 100.0).abs() <= 0.05 * rows.len() as f64, "shares sum to {total}%");
        assert!(text.contains("unattributed"), "{text}");
        let doc = bsc_telemetry::parse_json(&profile_document(&p)).unwrap();
        let unattributed = doc.get("throughput").and_then(|t| t.get("unattributed_ns"));
        assert_eq!(unattributed.and_then(|v| v.as_f64()), Some(p.unattributed_ns() as f64));
    }

    #[test]
    fn folded_stacks_cover_the_phases() {
        let p = profile(MANIFEST, Some(1)).unwrap();
        let text = folded(&p);
        for line in text.lines() {
            assert!(line.starts_with("repro_online;"), "{line}");
            let (_, weight) = line.rsplit_once(' ').unwrap();
            let _: u64 = weight.parse().unwrap();
        }
        assert!(text.lines().count() >= 5, "{text}");
    }

    #[test]
    fn profile_document_is_strict_json() {
        let p = profile(MANIFEST, Some(1)).unwrap();
        let doc = bsc_telemetry::parse_json(&profile_document(&p)).unwrap();
        assert_eq!(doc.get("schema").and_then(|v| v.as_str()), Some("bsc.profile.v1"));
        let meta = doc.get("meta").unwrap();
        assert_eq!(
            meta.get("submitted").and_then(|v| v.as_f64()).unwrap() as u64,
            p.run.report.submitted
        );
        assert!(meta.get("workers").is_none(), "worker count must not enter the document");
        assert!(
            doc.get("throughput").and_then(|t| t.get("arrivals_per_sec")).is_some()
        );
    }
}
