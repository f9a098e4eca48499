#!/usr/bin/env bash
# Offline CI gate for the workspace: everything must build, test and run
# without registry access (see DESIGN.md §5, "offline-build policy").
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --offline"
cargo build --release --offline --workspace --all-targets

echo "==> cargo test --offline"
cargo test -q --offline --workspace

echo "==> arrival-sampling kernel proof (release, all 2^32 mantissa states)"
# The lane kernel's squaring step against the reference kernel's, on
# every state: with normalize and assemble shared, that proves the two
# kernels equal on every u64 input.  Ignored in debug builds (too slow),
# so check that the release run really ran it.
proof="$(cargo test --release --offline -q -p bsc-accel --lib \
    mantissa_step_matches_the_reference_step_on_every_state 2>&1)" || { echo "$proof"; exit 1; }
echo "$proof"
grep -q "1 passed" <<<"$proof" || { echo "the kernel proof did not run"; exit 1; }

echo "==> closed-form schedules against their loops (release, 10^5 shapes + VGG-16/ResNet-18)"
# Every compute-schedule field of all three dataflows against the
# per-tile loops it replaced, on random shapes and geometries and on
# every layer of both networks.  Ignored in debug builds (FC6 alone is
# 3.2M loop iterations), so check that the release run really ran it.
sweep="$(cargo test --release --offline -q -p bsc-systolic --lib \
    closed_forms_equal_the_loops_on_1e5_shapes_and_every_network_layer 2>&1)" \
    || { echo "$sweep"; exit 1; }
echo "$sweep"
grep -q "1 passed" <<<"$sweep" || { echo "the closed-form sweep did not run"; exit 1; }

echo "==> cargo test --offline (perfbench harness)"
# The benchmark harness is a package of its own that links the workspace
# crates by path, so an API change can break it while the workspace
# tests stay green.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

echo "==> telemetry smoke: repro --metrics-out"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

# `repro diff` as a gate: it fails on a drifted or missing gated field,
# and here also on a field present on only one side, which `repro diff`
# itself only warns about — a gate that warns on every run would hide a
# real one-sided field.
diff_gate() {
    if ! cargo run --release --offline -q -p bsc-bench --bin repro -- \
        diff "$@" 2>"$out/diff.err"; then
        cat "$out/diff.err" >&2
        exit 1
    fi
    cat "$out/diff.err" >&2
    if grep -q "present on only one side" "$out/diff.err"; then
        echo "repro diff $*: a field is present on only one side"
        exit 1
    fi
}
cargo run --release --offline -q -p bsc-bench --bin repro -- \
    --metrics-out "$out/metrics.json" --trace-out "$out/trace.json" >/dev/null
test -s "$out/metrics.json" && test -s "$out/trace.json"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$out/metrics.json" "$out/trace.json" <<'PY'
import json, sys
doc, trace = json.load(open(sys.argv[1])), json.load(open(sys.argv[2]))
# The metrics counters restate the document's own fields, and the trace
# totals the --trace-out document's, name for name.
want = {f"repro.check.{c['precision'].split('-')[0]}.pe_fired": c["pe_fired"]
        for c in doc["precision_checks"]}
for layer in doc["layers"]:
    for field in ("cycles", "pe_fired", "stall_cycles"):
        want[f"repro.layer.{layer['name']}.{field}"] = layer[field]
want["repro.netlist.toggle_evals"] = doc["netlist_toggles"]["evals"]
for gate, toggles in doc["netlist_toggles"]["per_gate"].items():
    want[f"repro.netlist.toggles.{gate}"] = toggles
want["telemetry.trace.total"] = trace["total"]
want["telemetry.trace.dropped"] = trace["dropped"]
counters = doc["metrics"]["counters"]
wrong = {k: (counters.get(k), want.get(k)) for k in counters.keys() | want.keys()
         if counters.get(k) != want.get(k)}
assert not wrong, f"metrics counters (counted, restated) disagree: {wrong}"
assert list(counters) == sorted(counters), "metrics counters are not sorted"
print(f"telemetry counters restate the document ({len(counters)} counters)")
PY
fi
# Without its wall-clock histogram the probe document is a pure function
# of the code (fixed probe seeds), so every field is gated at zero
# tolerance: a stimulus or simulator change that moves one toggle fails.
cargo run --release --offline -q -p bsc-bench --bin repro -- \
    --metrics-out "$out/metrics_no_timers.json" --no-timers >/dev/null
diff_gate BENCH_telemetry_baseline.json "$out/metrics_no_timers.json" --tol 0

echo "==> trace observatory smoke: repro trace --perfetto-out"
cargo run --release --offline -q -p bsc-bench --bin repro -- \
    trace --perfetto-out "$out/perfetto.json" --svg-out "$out/util.svg" >/dev/null
test -s "$out/perfetto.json" && test -s "$out/util.svg"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$out/perfetto.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
pes = {e["args"]["name"] for e in events
       if e.get("name") == "thread_name" and e["args"]["name"].startswith("PE ")}
assert len(pes) >= 1, "expected at least one PE track"
assert any(e.get("ph") == "X" and e.get("name", "").startswith("layer ")
           for e in events), "expected layer slices"
assert doc["otherData"]["dropped"] == 0, "trace ring overflowed in CI run"
print(f"perfetto JSON valid ({len(pes)} PE tracks, {len(events)} events)")
PY
fi

echo "==> evaluator bench smoke: repro --quick simbench"
cargo run --release --offline -q -p bsc-bench --bin repro -- \
    --quick --bench-out "$out/BENCH_sim.json" simbench >/dev/null
test -s "$out/BENCH_sim.json"
if command -v python3 >/dev/null 2>&1; then
    python3 -c 'import json,sys; json.load(open(sys.argv[1]))' "$out/BENCH_sim.json"
    echo "bench JSON valid"
fi

echo "==> evaluator work gate: repro diff BENCH_baseline.json --tol 0"
# Tape ops, cycles and sweeps are deterministic; the timings are ignored.
# An evaluation that stops skipping its sweep doubles `sweeps`.
diff_gate BENCH_baseline.json "$out/BENCH_sim.json" --tol 0

echo "==> paper figures gate: repro --bench-out BENCH_paper.json all"
# Table I and every Fig 7/8a/8b/9 number at paper scale (32 PEs x L=32)
# are a pure function of the seeded characterization, so the baseline
# diff runs at zero tolerance.
cargo run --release --offline -q -p bsc-bench --bin repro -- \
    --bench-out "$out/BENCH_paper.json" all >/dev/null
test -s "$out/BENCH_paper.json"
diff_gate BENCH_paper.json "$out/BENCH_paper.json" --tol 0
if command -v python3 >/dev/null 2>&1; then
    python3 - "$out/BENCH_paper.json" EXPERIMENTS.md <<'PY'
import json, re, sys
doc = json.load(open(sys.argv[1]))
counts = {"table1": "table1_rows", "fig7": "fig7_points", "fig8a": "fig8a_rows",
          "fig8b": "fig8b_rows", "fig9": "fig9_rows"}
for section, count in counts.items():
    assert doc[count] == len(doc[section]) > 0, f"{section}: row count mismatch"
# DESIGN.md section 6: BSC is the most efficient design in every mode of
# Figs 8a and 8b and on every Fig 9 network, in both Fig 9 columns.
def table(rows, key, col):
    out = {}
    for r in rows:
        out.setdefault(r[key], {})[r["kind"]] = r[col]
    return out
checks = [(f"fig8a {b}-bit", t) for b, t in table(doc["fig8a"], "bits", "tops_per_w").items()]
checks += [(f"fig8b {b}-bit", t) for b, t in table(doc["fig8b"], "bits", "tops_per_w").items()]
for col in ("tops_per_w", "mapped_tops_per_w"):
    checks += [(f"fig9 {n} {col}", t) for n, t in table(doc["fig9"], "network", col).items()]
for label, t in checks:
    assert set(t) == {"BSC", "LPC", "HPS"}, f"{label}: missing a design"
    assert t["BSC"] > t["LPC"] and t["BSC"] > t["HPS"], f"{label}: BSC is not the most efficient {t}"
# EXPERIMENTS.md copies the measured cells of Table I and Figs 8a, 8b
# and 9 by hand: each must equal this document's value (or BSC's ratio
# to it), rounded to the digits printed.
md = open(sys.argv[2]).read().split("\n")
def md_rows(heading):
    i = next(i for i, l in enumerate(md) if l.startswith("## " + heading))
    while not md[i].startswith("|"):
        i += 1
    rows = []
    while md[i].startswith("|"):
        rows.append([c.strip() for c in md[i].strip().strip("|").split("|")])
        i += 1
    return rows[2:]
cells = 0
def cell(text, value, label):
    global cells
    printed = re.search(r"\d+(\.\d+)?", text).group()
    digits = len(printed.split(".")[1]) if "." in printed else 0
    want = f"{value:.{digits}f}"
    assert printed == want, f"EXPERIMENTS.md {label}: prints {printed}, BENCH_paper.json gives {want}"
    cells += 1
for r in md_rows("Table I"):
    row = next(t for t in doc["table1"] if t["cnn"] == r[0].split(" (")[0])
    for text, frac in zip(r[2].split("/"), ("frac8", "frac4", "frac2")):
        cell(text, 100 * row[frac], f"Table I {r[0]} {frac}")
    cell(r[4], row["model_mbytes"], f"Table I {r[0]} MBytes")
for fig, ratios in (("fig8a", True), ("fig8b", False)):
    t = table(doc[fig], "bits", "tops_per_w")
    for r in md_rows(f"Fig. {fig[3]}({fig[4]})"):
        eff = t[int(r[0].split("-")[0])]
        for text, kind in zip(r[1:4], ("BSC", "LPC", "HPS")):
            cell(text, eff[kind], f"{fig} {r[0]} {kind}")
        if ratios:
            cell(r[4], eff["BSC"] / eff["LPC"], f"{fig} {r[0]} BSC/LPC")
            cell(r[5], eff["BSC"] / eff["HPS"], f"{fig} {r[0]} BSC/HPS")
t = table(doc["fig9"], "network", "tops_per_w")
for r in md_rows("Fig. 9"):
    eff = t[r[0]]
    cell(r[1], eff["BSC"], f"fig9 {r[0]} BSC")
    cell(r[2], eff["BSC"] / eff["LPC"], f"fig9 {r[0]} BSC/LPC")
    cell(r[3], eff["BSC"] / eff["HPS"], f"fig9 {r[0]} BSC/HPS")
# Fig 7's prose: BSC's and LPC's 2-bit power at the named period, BSC's
# saving, and each design's 2-bit (TOPS/W, TOPS/mm2) frontier endpoints
# at its longest and its shortest feasible period.
fig7 = "\n".join(md[next(i for i, l in enumerate(md) if l.startswith("## Fig. 7(a)")):
                    next(i for i, l in enumerate(md) if l.startswith("## Fig. 8(a)"))])
two_bit = {}
for p in doc["fig7"]:
    if p["bits"] == 2:
        two_bit.setdefault(p["kind"], []).append(p)
m = re.search(r"measured: (\d+)% lower\*\* \(BSC ([\d.]+) mW vs LPC ([\d.]+) mW at\s+([\d.]+) ns\)", fig7)
assert m, "EXPERIMENTS.md Fig 7(a): the 2-bit power sentence is missing"
period = round(float(m.group(4)) * 1000)
mw = {k: next(p["total_power_mw"] for p in pts if p["period_ps"] == period)
      for k, pts in two_bit.items()}
cell(m.group(1), 100 * (1 - mw["BSC"] / mw["LPC"]), "fig7a BSC 2-bit power saving")
cell(m.group(2), mw["BSC"], f"fig7a BSC 2-bit mW at {period} ps")
cell(m.group(3), mw["LPC"], f"fig7a LPC 2-bit mW at {period} ps")
for kind, pts in two_bit.items():
    m = re.search(kind + r"\s+\(([\d.]+), ([\d.]+)\)…\(([\d.]+), ([\d.]+)\)", fig7)
    assert m, f"EXPERIMENTS.md Fig 7(b): no {kind} frontier"
    slow, fast = max(pts, key=lambda p: p["period_ps"]), min(pts, key=lambda p: p["period_ps"])
    for text, p, col in zip(m.groups(), (slow, slow, fast, fast), ("tops_per_w", "tops_per_mm2") * 2):
        cell(text, p[col], f"fig7b {kind} {col} at {p['period_ps']} ps")
print(f"paper gate valid ({len(doc['fig7'])} sweep points; BSC wins all {len(checks)} comparisons; "
      f"{cells} EXPERIMENTS.md cells match)")
PY
fi

echo "==> gate-level array gate: repro fig8b-gate --csv"
# The whole-array netlist characterization (4 PEs x L=16) is seeded, so
# its CSV is byte-stable: any change to the array's stimulus, the shared
# batch testbench or the power analysis shows up here.
cargo run --release --offline -q -p bsc-bench --bin repro -- \
    fig8b-gate --csv "$out/fig8b_gate" >/dev/null
cmp BENCH_fig8b_gate_baseline.csv "$out/fig8b_gate/fig8b_gate.csv"
echo "gate-level array CSV matches BENCH_fig8b_gate_baseline.csv"

echo "==> extensions gate: repro extensions"
# The extensions report (asymmetric LPC modes, DVFS, SRAM share,
# accuracy) is seeded and prints no wall clock, so its stdout is
# byte-stable: it pins the asymmetric-mode characterization's full
# sweeps and the activity recorder.
cargo run --release --offline -q -p bsc-bench --bin repro -- \
    extensions >"$out/extensions.txt"
cmp BENCH_extensions_baseline.txt "$out/extensions.txt"
echo "extensions report matches BENCH_extensions_baseline.txt"

echo "==> engine serving gate: repro serve examples/serve_manifest.json"
cargo run --release --offline -q -p bsc-bench --bin repro -- \
    serve examples/serve_manifest.json --report-out "$out/serve_report.json" \
    --slo-out "$out/slo.json" --dash-out "$out/dash.html" \
    --events-out "$out/events.jsonl" >/dev/null
test -s "$out/serve_report.json"
# The serve report is fully deterministic (virtual batch clock, submission
# -order merging), so the diff runs at zero tolerance: any drift in job
# numerics, outcome counts or queue/admission counters fails the gate.
diff_gate BENCH_serve_baseline.json "$out/serve_report.json" --tol 0
if command -v python3 >/dev/null 2>&1; then
    python3 - "$out/serve_report.json" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
agg, counters = report["aggregate"], report["counters"]
# The counters restate the batch report's aggregate.
for outcome in ("submitted", "rejected", "shed", "completed"):
    assert counters[f"engine.jobs.{outcome}"] == agg[outcome], outcome
assert counters["engine.jobs.admitted"] == agg["submitted"] - agg["rejected"]
assert counters["engine.queue.peak_depth"] == agg["peak_queue_depth"]
assert report["queue_wait_cycles"]["count"] == agg["completed"]
print(f"serve counters restate the aggregate ({agg['submitted']} jobs)")
PY
fi

echo "==> tenant SLO gate: repro diff BENCH_slo_baseline.json"
# The per-tenant SLO report (integer latency quantiles, whole-fJ energy
# attribution, windowed series) is byte-deterministic at any worker
# count, so it is also gated at zero tolerance.
test -s "$out/slo.json"
diff_gate BENCH_slo_baseline.json "$out/slo.json" --tol 0
# Dashboard sanity: non-empty, self-contained, one <svg> per tenant.
test -s "$out/dash.html"
test -s "$out/events.jsonl"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$out/slo.json" "$out/dash.html" "$out/events.jsonl" <<'PY'
import json, sys
slo = json.load(open(sys.argv[1]))
tenants = [t["name"] for t in slo["tenants"]]
assert tenants == sorted(tenants), "tenants must be sorted"
total = sum(t["energy_fj"] for t in slo["tenants"])
assert total == slo["engine"]["total_energy_fj"], "energy attribution must sum exactly"
html = open(sys.argv[2]).read()
assert html.count("<svg") == len(tenants), (
    f"expected one <svg> per tenant, got {html.count('<svg')} for {len(tenants)}")
for needle in ("<script", "http://", "https://"):
    assert needle not in html, f"dashboard must be self-contained (found {needle})"
# Every event-log line must be a strict JSON object.
events = [json.loads(line) for line in open(sys.argv[3])]
assert events and events[0]["event"] == "batch"
assert all("tenant" in e for e in events[1:]), "job events must carry tenants"
print(f"slo gate valid ({len(tenants)} tenants, {len(events)} event lines)")
PY
fi

echo "==> memory-hierarchy gate: repro mem"
cargo run --release --offline -q -p bsc-bench --bin repro -- \
    --quick mem --bench-out "$out/BENCH_mem.json" >/dev/null
test -s "$out/BENCH_mem.json"
# The sweep is analytic and cycle-domain, so the baseline diff runs at
# zero tolerance; the roofline must still have points on both sides.
diff_gate BENCH_mem_baseline.json "$out/BENCH_mem.json" --tol 0
if command -v python3 >/dev/null 2>&1; then
    python3 - "$out/BENCH_mem.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
sides = {p["roofline"] for p in doc["points"]}
assert "bandwidth-bound" in sides, "sweep lost its bandwidth-bound points"
assert "compute-bound" in sides, "sweep lost its compute-bound points"
print(f"mem sweep valid ({doc['bandwidth_bound_points']} bandwidth-bound, "
      f"{doc['compute_bound_points']} compute-bound of {len(doc['points'])} points)")
PY
fi

echo "==> design-space exploration gate: repro dse examples/dse_manifest.json"
cargo run --release --offline -q -p bsc-bench --bin repro -- \
    dse examples/dse_manifest.json --bench-out "$out/BENCH_dse.json" \
    --svg-out "$out/dse_pareto.svg" >/dev/null
test -s "$out/BENCH_dse.json" && test -s "$out/dse_pareto.svg"
# Every field is a pure function of the manifest (no wall clock in the
# document), so the baseline diff runs at zero tolerance and the report
# must be byte-identical at any worker count.
diff_gate BENCH_dse_baseline.json "$out/BENCH_dse.json" --tol 0
for w in 1 2 8; do
    cargo run --release --offline -q -p bsc-bench --bin repro -- \
        dse examples/dse_manifest.json --workers "$w" \
        --bench-out "$out/BENCH_dse_w$w.json" >/dev/null
    cmp "$out/BENCH_dse.json" "$out/BENCH_dse_w$w.json"
done
echo "dse report byte-identical at 1, 2 and 8 workers"
# Strict flag parsing: a flag that belongs to another subcommand is a
# usage error here, not silently ignored.
set +e
cargo run --release --offline -q -p bsc-bench --bin repro -- \
    dse examples/dse_manifest.json --report-out "$out/nope.json" >/dev/null 2>&1
[ $? -eq 2 ] || { echo "dse: out-of-place flag must exit 2"; exit 1; }
set -e
if command -v python3 >/dev/null 2>&1; then
    python3 - "$out/BENCH_dse.json" "$out/dse_pareto.svg" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
sides = {p["roofline"] for p in doc["points"]}
assert "bandwidth-bound" in sides, "sweep lost its bandwidth-bound points"
assert "compute-bound" in sides, "sweep lost its compute-bound points"
front = [p for p in doc["points"] if p["pareto"]]
assert 1 < len(front) < len(doc["points"]), "Pareto front must be non-trivial"
assert len(front) == doc["pareto_points"] == doc["metrics"]["dse.points.pareto"]
assert len(doc["points"]) == doc["points_evaluated"] == doc["metrics"]["dse.points.evaluated"]
assert doc["counters"]["evaluate"]["points_evaluated"] == len(doc["points"])
svg = open(sys.argv[2]).read()
assert svg.count("<circle") == len(doc["points"]), "one circle per sweep point"
for needle in ("<script", "https://"):
    assert needle not in svg, f"scatter must be self-contained (found {needle})"
print(f"dse gate valid ({len(doc['points'])} points, {len(front)} on the front, "
      f"{doc['bandwidth_bound_points']} bandwidth-bound)")
PY
fi

echo "==> online serving gate: repro online examples/online_manifest.json"
cargo run --release --offline -q -p bsc-bench --bin repro -- \
    online examples/online_manifest.json --report-out "$out/online_report.json" \
    --slo-out "$out/online_slo.json" --dash-out "$out/online_dash.html" \
    --events-out "$out/online_events.jsonl" \
    --perfetto-out "$out/online_perfetto.json" >/dev/null
test -s "$out/online_report.json"
# The online report is a pure function of the manifest (discrete-event
# clock, seeded integer arrival sampling, order-independent SLO fold),
# so the baseline diff runs at zero tolerance.
diff_gate BENCH_online_baseline.json "$out/online_report.json" --tol 0
# The per-tenant SLO document (latency quantiles, goodput, windows,
# per-precision energy) is folded per (source x shard) pair; it is as
# deterministic as the report and gated the same way.
diff_gate BENCH_online_slo_baseline.json "$out/online_slo.json" --tol 0
# Worker-count independence: re-running the same manifest with 2 and 8
# workers must reproduce the report and the SLO document byte for byte.
for w in 2 8; do
    cargo run --release --offline -q -p bsc-bench --bin repro -- \
        online examples/online_manifest.json --workers "$w" \
        --report-out "$out/online_report_w$w.json" --slo-out "$out/online_slo_w$w.json" >/dev/null
    cmp "$out/online_report.json" "$out/online_report_w$w.json"
    cmp "$out/online_slo.json" "$out/online_slo_w$w.json"
done
echo "online report and SLO document byte-identical at 1, 2 and 8 workers"
# Strict flag parsing: unknown flags and missing values are usage
# errors (exit 2), not silently ignored.
set +e
cargo run --release --offline -q -p bsc-bench --bin repro -- \
    online examples/online_manifest.json --frobnicate >/dev/null 2>&1
[ $? -eq 2 ] || { echo "unknown flag must exit 2"; exit 1; }
cargo run --release --offline -q -p bsc-bench --bin repro -- \
    serve examples/serve_manifest.json --slo-out >/dev/null 2>&1
[ $? -eq 2 ] || { echo "missing flag value must exit 2"; exit 1; }
# Every subcommand checks its flags, and an unknown subcommand is a
# usage error, all before any characterization runs.
# A figure experiment takes only the flags it reads, so an output flag
# it would ignore is a usage error, and creates nothing.
for args in "diff BENCH_paper.json BENCH_paper.json --workers 3 --report-out $out/nope.json" \
            "trace --perfetto-out $out/nope.json --slo-out $out/nope.json" \
            "frobnicate" "all --workers 2" \
            "table1 --metrics-out $out/nope.json" "telemetry --csv $out/nope_csv" \
            "simbench --quick --csv $out/nope_csv"; do
    # shellcheck disable=SC2086  # word-split the argument list on purpose
    cargo run --release --offline -q -p bsc-bench --bin repro -- $args >/dev/null 2>&1
    [ $? -eq 2 ] || { echo "repro $args: must exit 2"; exit 1; }
done
[ ! -e "$out/nope.json" ] && [ ! -e "$out/nope_csv" ] \
    || { echo "a refused command must write nothing"; exit 1; }
# A negative, NaN or infinite `repro diff` tolerance is an error (exit 1)
# naming `--tol`, not a diff that fails or passes every field.
for tol in -1 nan inf; do
    cargo run --release --offline -q -p bsc-bench --bin repro -- \
        diff BENCH_paper.json BENCH_paper.json --tol "$tol" >/dev/null 2>"$out/tol.err"
    [ $? -eq 1 ] || { echo "repro diff --tol $tol: must exit 1"; exit 1; }
    grep -q -- "--tol" "$out/tol.err" \
        || { echo "repro diff --tol $tol: error must name --tol"; cat "$out/tol.err"; exit 1; }
done
# A manifest nested far past the JSON parser's depth limit is an error
# (exit 1) naming the limit, not a stack overflow.
printf '%*s' 100000 '' | tr ' ' '[' > "$out/deep.json"
cargo run --release --offline -q -p bsc-bench --bin repro -- \
    serve "$out/deep.json" >/dev/null 2>"$out/deep.err"
[ $? -eq 1 ] || { echo "deep manifest: must exit 1"; exit 1; }
grep -q "nesting deeper than 128 levels" "$out/deep.err" \
    || { echo "deep manifest: error must name the depth limit"; cat "$out/deep.err"; exit 1; }
set -e
if command -v python3 >/dev/null 2>&1; then
    python3 - "$out/online_report.json" "$out/online_slo.json" \
        "$out/online_events.jsonl" "$out/online_perfetto.json" \
        examples/online_manifest.json <<'PY'
import json, sys
from collections import deque
report = json.load(open(sys.argv[1]))
agg = report["aggregate"]
assert agg["submitted"] >= 100_000, "online gate must simulate >= 1e5 jobs"
assert agg["submitted"] == agg["completed"] + agg["rejected"] + agg["shed"]
assert len(report["shards"]) >= 3, "online gate needs >= 3 heterogeneous shards"
assert len({s["kind"] for s in report["shards"]}) >= 3, "shards must be heterogeneous"
slo = json.load(open(sys.argv[2]))
verdicts = {t["name"]: t.get("attainment", {}).get("attained") for t in slo["tenants"]}
assert True in verdicts.values(), "expected a tenant meeting its SLO"
assert False in verdicts.values(), "expected a tenant missing its SLO"
assert None in verdicts.values(), "expected a tenant with no target"
events = [json.loads(line) for line in open(sys.argv[3])]
assert events[0]["event"] == "online"
assert events[0]["events_truncated"] + len(events) - 1 == agg["submitted"]
assert all(e["event"] == "job" for e in events[1:])
trace = json.load(open(sys.argv[4]))
groups = [e["args"]["name"] for e in trace["traceEvents"]
          if e.get("ph") == "M" and e.get("name") == "process_name"]
assert len(groups) == len(report["shards"]), "one Perfetto track group per shard"
# Depth observatory: a sampled series and a balanced admission funnel
# per shard, plus one counter track per shard in the Perfetto timeline.
depth = report["depth"]
assert len(depth["shards"]) == len(report["shards"])
assert all(s["samples"] > 0 for s in depth["shards"])
for f in report["funnel"]:
    stages = (f["queue_full"] + f["overloaded"] + f["deadline_infeasible"]
              + f["shed_deadline"] + f["dispatched"])
    assert f["offered"] == stages, f"funnel of {f['shard']} does not balance"
assert sum(f["offered"] for f in report["funnel"]) == agg["submitted"]
# The report's counters, the funnel-stage sums and the queue-wait
# sample count must all restate the aggregate.
for outcome in ("submitted", "completed", "rejected", "shed"):
    assert report["counters"][f"engine.jobs.{outcome}"] == agg[outcome], outcome
stage_sums = {
    "completed": sum(f["dispatched"] for f in report["funnel"]),
    "rejected": sum(f["queue_full"] + f["overloaded"] + f["deadline_infeasible"]
                    for f in report["funnel"]),
    "shed": sum(f["shed_deadline"] for f in report["funnel"]),
}
for outcome, total in stage_sums.items():
    assert total == agg[outcome], f"funnel stages do not sum to {outcome}"
assert report["queue_wait_cycles"]["count"] == agg["completed"]
counter_pids = {e["pid"] for e in trace["traceEvents"] if e.get("ph") == "C"}
assert len(counter_pids) == len(report["shards"]), "one depth counter track per shard"
assert report["counters"]["engine.decision_log.truncated"] == events[0]["events_truncated"]
# Replay the logged decisions, the run's first ones from cycle 0,
# against the admission cap.  A shard's in-flight jobs at an arrival
# are its earlier dispatched jobs that complete after that cycle: a
# completion on the arrival's own cycle has already retired.
cap = json.load(open(sys.argv[5]))["cluster"]["max_outstanding"]
inflight, last_completion = {}, {}
last_arrival = dispatched = queue_full = 0
for e in events[1:]:
    t = e["arrival_cycle"]
    assert t >= last_arrival, f"arrival cycles decrease at {e['job']}"
    last_arrival = t
    pending = inflight.setdefault(e["shard"], deque())
    while pending and pending[0] <= t:
        pending.popleft()
    if e.get("reason") == "queue_full":
        assert len(pending) >= cap, f"{e['job']}: queue_full with {len(pending)} in flight"
        queue_full += 1
    else:
        assert len(pending) < cap, f"{e['job']}: decided with {len(pending)} in flight"
    if e["outcome"] == "completed":
        c = e["completion_cycle"]
        assert t <= e["start_cycle"] <= c, f"{e['job']}: arrival, start and completion out of order"
        assert c >= last_completion.get(e["shard"], 0), f"{e['job']}: completions decrease"
        last_completion[e["shard"]] = c
        pending.append(c)
        dispatched += 1
print(f"online event log replays against the cap ({dispatched} dispatched, {queue_full} queue_full)")
print(f"online gate valid ({agg['submitted']} jobs, {len(report['shards'])} shards, "
      f"{len(groups)} track groups, verdicts {sorted(verdicts)})")
PY
fi

echo "==> profiler gate: repro profile examples/profile_manifest.json"
cargo run --release --offline -q -p bsc-bench --bin repro -- \
    profile examples/profile_manifest.json --profile-out "$out/profile.json" \
    --folded-out "$out/profile.folded" > "$out/profile.txt"
test -s "$out/profile.json" && test -s "$out/profile.folded" && test -s "$out/profile.txt"
# The `counters` section of the profile is a pure function of the
# manifest; `wall` / `throughput` carry *_ns / *_per_sec names the
# differ reports but never gates.
diff_gate BENCH_profile_baseline.json "$out/profile.json" --tol 0
if command -v python3 >/dev/null 2>&1; then
    python3 - "$out/profile.json" "$out/profile.folded" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
meta = doc["meta"]
assert meta["submitted"] >= 2_000_000, "profile gate must simulate >= 2e6 arrivals"
assert meta["shards"] >= 3, "profile gate needs a multi-shard cluster"
phases = doc["counters"]
for name in ("arrival-sampling", "dispatch", "admission",
             "schedule-eval", "slo-fold", "export"):
    assert name in phases, f"missing phase {name}"
assert phases["dispatch"]["events_popped"] == meta["submitted"] + meta["completed"]
assert phases["admission"]["offered"] == meta["submitted"]
assert phases["slo-fold"]["observations"] == meta["submitted"]
assert phases["export"]["bytes_written"] > 0
folded = [l for l in open(sys.argv[2]).read().splitlines() if l]
assert all(l.startswith("repro_online;") for l in folded), "folded stacks share one root"
# Throughput is an informational datapoint, recorded but never gated.
rate = doc["throughput"]["arrivals_per_sec"]
print(f"profile gate valid ({meta['submitted']} arrivals; "
      f"{rate:.0f} arrivals/sec, informational)")
PY
    # Counter-side worker independence: the gated section is
    # byte-identical at 1, 2 and 8 workers (only wall clock may differ).
    for w in 1 2 8; do
        cargo run --release --offline -q -p bsc-bench --bin repro -- \
            profile examples/profile_manifest.json --workers "$w" \
            --profile-out "$out/profile_w$w.json" >/dev/null
        python3 -c 'import json, sys
open(sys.argv[2], "w").write(
    json.dumps(json.load(open(sys.argv[1]))["counters"], sort_keys=True))' \
            "$out/profile_w$w.json" "$out/profile_counters_w$w.json"
    done
    cmp "$out/profile_counters_w1.json" "$out/profile_counters_w2.json"
    cmp "$out/profile_counters_w1.json" "$out/profile_counters_w8.json"
    echo "profile counters byte-identical at 1, 2 and 8 workers"
fi

echo "==> 1e7-arrival gate: repro profile examples/profile_10m_manifest.json"
# The batched hot path (completion-burst pops, arrival refills, one
# funnel tally per decision) exists to make this scale
# routine: ~1.03e7 arrivals through the full admission/dispatch/SLO
# pipeline.  Counters stay a pure function of the manifest, so the
# baseline diff runs at --tol 0.
cargo run --release --offline -q -p bsc-bench --bin repro -- \
    profile examples/profile_10m_manifest.json \
    --profile-out "$out/profile_10m.json" > "$out/profile_10m.txt"
test -s "$out/profile_10m.json"
diff_gate BENCH_profile_10m_baseline.json "$out/profile_10m.json" --tol 0
if command -v python3 >/dev/null 2>&1; then
    python3 - "$out/profile_10m.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
meta = doc["meta"]
assert meta["submitted"] >= 10_000_000, "1e7 gate must simulate >= 1e7 arrivals"
assert meta["submitted"] == meta["completed"] + meta["rejected"] + meta["shed"]
phases = doc["counters"]
assert phases["dispatch"]["events_popped"] == meta["submitted"] + meta["completed"]
assert phases["admission"]["offered"] == meta["submitted"]
assert phases["slo-fold"]["observations"] == meta["submitted"]
# Runs of refusals: arrivals decided inside a run enter neither the
# dispatch nor the admission guard; every other arrival enters both once.
adm, disp = phases["admission"], phases["dispatch"]
assert adm["run_arrivals"] > 0, "no arrival was decided inside a run"
assert disp["calls"] + adm["run_arrivals"] == meta["submitted"], "dispatch guard entries"
assert adm["calls"] + adm["run_arrivals"] == meta["submitted"], "admission guard entries"
# Throughput datapoint: wall clock is never part of the --tol 0 gates,
# but the batched hot path must beat the pre-batching figure (PR-8
# measured 696474 arrivals/sec on this pipeline; see docs/profiling.md).
rate = doc["throughput"]["arrivals_per_sec"]
floor = 696474.47
assert rate > floor, f"1e7 throughput regressed: {rate:.0f}/s <= pre-batching {floor:.0f}/s"
print(f"1e7 gate valid ({meta['submitted']} arrivals; "
      f"{rate:.0f} arrivals/sec vs pre-batching {floor:.0f}/s = {rate/floor:.2f}x)")
PY
fi
# The 1e7 report and SLO document are byte-identical at 1, 2 and 8
# workers — the funnel tallies, completion coalescing and the
# per-pair SLO fold do not perturb a single exported field at any
# parallelism.
for w in 1 2 8; do
    cargo run --release --offline -q -p bsc-bench --bin repro -- \
        online examples/profile_10m_manifest.json --workers "$w" \
        --report-out "$out/online_10m_w$w.json" --slo-out "$out/online_10m_slo_w$w.json" >/dev/null
done
cmp "$out/online_10m_w1.json" "$out/online_10m_w2.json"
cmp "$out/online_10m_w1.json" "$out/online_10m_w8.json"
cmp "$out/online_10m_slo_w1.json" "$out/online_10m_slo_w2.json"
cmp "$out/online_10m_slo_w1.json" "$out/online_10m_slo_w8.json"
echo "1e7 online report and SLO document byte-identical at 1, 2 and 8 workers"

echo "==> rustdoc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

# Lints are best-effort: a toolchain without clippy must not fail the gate.
if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy -D warnings"
    cargo clippy --offline --workspace --all-targets -- -D warnings
else
    echo "==> clippy unavailable, skipping lints"
fi

echo "CI OK"
