//! Self-profiler: phase-attributed wall-clock *and* deterministic work
//! accounting for the simulator's own hot loops.
//!
//! The simulator can observe the modeled accelerator in great detail but
//! (before this module) could not observe itself.  A [`Profiler`] holds a
//! set of named phases (`arrival-sampling`, `dispatch`, `admission`,
//! `schedule-eval`, `slo-fold`, `export`, ...); each phase accumulates two
//! very different kinds of signal:
//!
//! * **wall-clock nanoseconds** via RAII [`PhaseGuard`]s — honest,
//!   machine-dependent, and therefore excluded from every
//!   byte-determinism contract.  All wall fields are
//!   exported under a `wall` section with `_ns` / `_per_sec` suffixed
//!   names so the `repro diff` default ignore patterns skip them;
//! * **deterministic work counters** (events popped, heap ops, map
//!   touches, metric increments, bytes written) — pure functions of the
//!   input manifest, merged per-worker in index order by the callers, so
//!   the counter section is byte-identical at any worker count and *is*
//!   gated at `--tol 0`.
//!
//! Exports: [`write_profile_sections`] emits the two sections into a
//! [`JsonBuilder`] document, [`profile_json`] wraps them as a standalone
//! strict-JSON document, and [`folded_stacks`] renders a folded-stack
//! text file (`root;phase weight`) consumable by standard flamegraph
//! tooling (`flamegraph.pl`, `inferno-flamegraph`, speedscope).
//!
//! # Example
//!
//! ```
//! use bsc_telemetry::profile::Profiler;
//!
//! let prof = Profiler::new();
//! let dispatch = prof.phase("dispatch");
//! let popped = dispatch.counter("events_popped");
//! {
//!     let _g = dispatch.enter();
//!     popped.add(3);
//! }
//! let snap = prof.snapshot();
//! let phase = snap.phase("dispatch").unwrap();
//! assert_eq!(phase.calls, 1);
//! assert_eq!(phase.counter("events_popped"), 3);
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::sink::JsonBuilder;

/// A monotonically increasing count shared by its clones: one relaxed
/// atomic add per update.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current total.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Shared accumulator for one named phase.
#[derive(Debug, Default)]
struct PhaseShared {
    /// Number of completed [`PhaseGuard`] scopes.
    calls: Counter,
    /// Total wall-clock nanoseconds spent inside guards.
    wall_ns: Counter,
    /// Named deterministic work counters.
    counters: Mutex<BTreeMap<String, Counter>>,
}

/// A cheap `Arc`-backed handle to one phase.  Prefetch handles (and their
/// [`PhaseHandle::counter`]s) outside hot loops: per-event cost is then
/// one relaxed atomic add per counter and two clock reads per guard.
#[derive(Debug, Clone, Default)]
pub struct PhaseHandle {
    shared: Arc<PhaseShared>,
}

impl PhaseHandle {
    /// Starts a wall-clock scope; elapsed nanoseconds accumulate into the
    /// phase when the returned guard drops.
    pub fn enter(&self) -> PhaseGuard {
        PhaseGuard {
            calls: self.shared.calls.clone(),
            wall_ns: self.shared.wall_ns.clone(),
            start: Instant::now(),
        }
    }

    /// The deterministic work counter named `name`, created at zero on
    /// first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut g = self.shared.counters.lock().expect("profiler poisoned");
        g.entry(name.to_string()).or_default().clone()
    }

    /// Adds `n` to the work counter named `name` (one-shot convenience;
    /// hot loops should prefetch via [`PhaseHandle::counter`]).
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// Total wall-clock nanoseconds accumulated so far.
    pub fn wall_ns(&self) -> u64 {
        self.shared.wall_ns.get()
    }
}

/// Records elapsed wall-clock time into its phase on drop.
#[derive(Debug)]
pub struct PhaseGuard {
    calls: Counter,
    wall_ns: Counter,
    start: Instant,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        self.calls.inc();
        let ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.wall_ns.add(ns);
    }
}

/// A registry of named phases.  Cloning shares the underlying store, so
/// one profiler can be threaded through the arrival sampler, dispatcher,
/// admission ladder, schedule evaluator, SLO fold and exporters of a
/// single run and snapshotted once at the end.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    phases: Arc<Mutex<BTreeMap<String, PhaseHandle>>>,
}

impl Profiler {
    /// An empty profiler.
    pub fn new() -> Self {
        Profiler::default()
    }

    /// The phase named `name`, created on first use.
    pub fn phase(&self, name: &str) -> PhaseHandle {
        let mut g = self.phases.lock().expect("profiler poisoned");
        g.entry(name.to_string()).or_default().clone()
    }

    /// Starts a wall-clock scope in the phase named `name` (one-shot
    /// convenience; hot loops should prefetch via [`Profiler::phase`]).
    pub fn enter(&self, name: &str) -> PhaseGuard {
        self.phase(name).enter()
    }

    /// Adds `n` to the work counter `counter` of phase `phase`.
    pub fn add(&self, phase: &str, counter: &str, n: u64) {
        self.phase(phase).add(counter, n);
    }

    /// A point-in-time copy of every phase, sorted by name.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let g = self.phases.lock().expect("profiler poisoned");
        let phases = g
            .iter()
            .map(|(name, h)| {
                let counters = h
                    .shared
                    .counters
                    .lock()
                    .expect("profiler poisoned")
                    .iter()
                    .map(|(n, c)| (n.clone(), c.get()))
                    .collect();
                PhaseSnapshot {
                    name: name.clone(),
                    calls: h.shared.calls.get(),
                    wall_ns: h.shared.wall_ns.get(),
                    counters,
                }
            })
            .collect();
        ProfileSnapshot { phases }
    }
}

/// Point-in-time copy of one phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSnapshot {
    /// Phase name (`dispatch`, `slo-fold`, ...).
    pub name: String,
    /// Completed guard scopes.
    pub calls: u64,
    /// Total wall-clock nanoseconds (machine-dependent, never gated).
    pub wall_ns: u64,
    /// Deterministic work counters, sorted by name.
    pub counters: Vec<(String, u64)>,
}

impl PhaseSnapshot {
    /// The value of the named work counter, or 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Sum of all work counters (a crude "work units" scalar).
    pub fn work_units(&self) -> u64 {
        self.counters.iter().fold(0u64, |a, (_, v)| a.saturating_add(*v))
    }
}

/// Point-in-time copy of a whole [`Profiler`], phases sorted by name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ProfileSnapshot {
    /// Every phase, sorted by name.
    pub phases: Vec<PhaseSnapshot>,
}

impl ProfileSnapshot {
    /// The named phase, when present.
    pub fn phase(&self, name: &str) -> Option<&PhaseSnapshot> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Total wall-clock nanoseconds across all phases.
    pub fn total_wall_ns(&self) -> u64 {
        self.phases.iter().fold(0u64, |a, p| a.saturating_add(p.wall_ns))
    }
}

/// Writes the two profile sections into the current JSON object:
///
/// * `"counters"` — per phase: `calls` plus every deterministic work
///   counter.  This section is a pure function of the input and is gated
///   at `--tol 0`;
/// * `"wall"` — per phase: `<phase>_ns`, plus `total_ns`.  Field names
///   match the `repro diff` default ignore patterns (`*_ns`, `*wall*`),
///   so wall-clock drift never fails a gate.
pub fn write_profile_sections(j: &mut JsonBuilder, snap: &ProfileSnapshot) {
    j.key("counters").begin_object();
    for p in &snap.phases {
        j.key(&p.name).begin_object();
        j.key("calls").u64(p.calls);
        for (name, v) in &p.counters {
            j.key(name).u64(*v);
        }
        j.end_object();
    }
    j.end_object();
    j.key("wall").begin_object();
    j.key("phases").begin_object();
    for p in &snap.phases {
        j.key(&format!("{}_ns", p.name)).u64(p.wall_ns);
    }
    j.end_object();
    j.key("total_ns").u64(snap.total_wall_ns());
    j.end_object();
}

/// A standalone strict-JSON profile document (see
/// [`write_profile_sections`] for the section layout).
pub fn profile_json(snap: &ProfileSnapshot) -> String {
    let mut j = JsonBuilder::new();
    j.begin_object();
    write_profile_sections(&mut j, snap);
    j.end_object();
    j.finish()
}

/// Renders the snapshot as folded stacks — one `root;phase weight` line
/// per phase, weight in wall-clock microseconds (minimum 1 for any phase
/// that consumed time) — the input format of `flamegraph.pl` and
/// `inferno-flamegraph`.  Phase names may use `/` for sub-phases; they
/// are folded into stack separators (`;`).
pub fn folded_stacks(snap: &ProfileSnapshot, root: &str) -> String {
    let mut out = String::new();
    for p in &snap.phases {
        let us = (p.wall_ns / 1_000).max(u64::from(p.wall_ns > 0));
        let frames = p.name.replace('/', ";");
        out.push_str(root);
        out.push(';');
        out.push_str(&frames);
        out.push(' ');
        out.push_str(&us.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_json;

    #[test]
    fn guards_accumulate_calls_and_wall_time() {
        let prof = Profiler::new();
        let ph = prof.phase("dispatch");
        {
            let _g = ph.enter();
        }
        {
            let _g = ph.enter();
        }
        let snap = prof.snapshot();
        let p = snap.phase("dispatch").unwrap();
        assert_eq!(p.calls, 2);
        // Wall time is machine-dependent; just check it is recorded.
        assert!(p.wall_ns < u64::MAX);
    }

    #[test]
    fn counters_are_deterministic_and_sorted() {
        let prof = Profiler::new();
        let ph = prof.phase("admission");
        ph.add("zeta", 2);
        ph.add("alpha", 40);
        ph.counter("alpha").add(2);
        let snap = prof.snapshot();
        let p = snap.phase("admission").unwrap();
        let names: Vec<&str> = p.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["alpha", "zeta"]);
        assert_eq!(p.counter("alpha"), 42);
        assert_eq!(p.counter("zeta"), 2);
        assert_eq!(p.counter("absent"), 0);
        assert_eq!(p.work_units(), 44);
    }

    #[test]
    fn cloned_profilers_share_phases() {
        let prof = Profiler::new();
        let prof2 = prof.clone();
        prof.add("slo-fold", "observations", 1);
        prof2.add("slo-fold", "observations", 1);
        assert_eq!(prof.snapshot().phase("slo-fold").unwrap().counter("observations"), 2);
    }

    #[test]
    fn snapshot_phases_are_sorted_by_name() {
        let prof = Profiler::new();
        prof.phase("export");
        prof.phase("arrival-sampling");
        let names: Vec<String> = prof.snapshot().phases.into_iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["arrival-sampling", "export"]);
    }

    #[test]
    fn profile_json_is_strict_and_splits_sections() {
        let prof = Profiler::new();
        let ph = prof.phase("dispatch");
        ph.add("events_popped", 7);
        {
            let _g = ph.enter();
        }
        let doc = profile_json(&prof.snapshot());
        let v = parse_json(&doc).expect("strict JSON");
        let counters = v.get("counters").and_then(|c| c.get("dispatch")).unwrap();
        assert_eq!(counters.get("events_popped").and_then(|x| x.as_f64()), Some(7.0));
        assert_eq!(counters.get("calls").and_then(|x| x.as_f64()), Some(1.0));
        // Wall-clock lives only under "wall" with *_ns names.
        let wall = v.get("wall").unwrap();
        assert!(wall.get("phases").and_then(|p| p.get("dispatch_ns")).is_some());
        assert!(wall.get("total_ns").is_some());
        assert!(counters.get("dispatch_ns").is_none());
    }

    #[test]
    fn folded_stacks_render_one_line_per_phase() {
        let prof = Profiler::new();
        let ph = prof.phase("schedule-eval/characterize");
        {
            let _g = ph.enter();
        }
        prof.phase("dispatch");
        let folded = folded_stacks(&prof.snapshot(), "online");
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 2);
        // Sub-phases fold into stack separators; zero-wall phases weigh 0.
        assert!(lines[1].starts_with("online;schedule-eval;characterize "));
        assert_eq!(lines[0], "online;dispatch 0");
        // Any phase that consumed time weighs at least 1 µs.
        let weight: u64 = lines[1].rsplit(' ').next().unwrap().parse().unwrap();
        assert!(weight >= 1);
    }
}
