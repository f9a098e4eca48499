//! The manifest and report toolkit shared by `repro serve`, `online`,
//! `dse` and `profile`.
//!
//! Input side: typed field readers that reject a present key of the
//! wrong JSON type with an error naming the key (an absent key takes
//! the caller's default; a mistyped one never does), and the specs the
//! manifests share — accelerator kind and array size, memory preset,
//! built-in networks, tenant SLO targets, and the job fields that serve
//! jobs and online sources both carry.  Output side: the per-tenant
//! text line, the `queue_wait_cycles` and SLO `tenants` JSON blocks, and
//! the strict-JSONL assembly that both serving reports emit.

use std::collections::BTreeMap;

use bsc_accel::systolic::mem::{DramBandwidth, MemConfig};
use bsc_accel::{AcceleratorConfig, JobTemplate, PrecisionPolicy, SloReport, SloTarget, TenantId};
use bsc_mac::MacKind;
use bsc_nn::{models, SharedNetwork};
use bsc_telemetry::{JsonBuilder, JsonValue, MetricsSnapshot};

/// Size bounds the manifest parsers enforce, so a runaway manifest
/// fails fast with an error instead of hanging CI or exhausting memory.
/// `dse` geometry: characterization cost grows with the vector length
/// (gate count) and the schedule loops with the row count.
pub(crate) const MAX_ROWS: u64 = 1024;
pub(crate) const MAX_VECTOR_LENGTH: u64 = 64;
/// `dse` characterization: switching-activity steps per design, whose
/// stimulus buffers grow linearly with the count (about 43× the
/// library's default of 96).
pub(crate) const MAX_STEPS: u64 = 4096;
/// `serve`: the most jobs a manifest may expand to once every job's
/// `count` is applied (2^20).
pub(crate) const MAX_SERVE_JOBS: u64 = 1 << 20;

pub(crate) fn err_at(context: &str, detail: impl std::fmt::Display) -> String {
    format!("{context}: {detail}")
}

/// `obj[key]` converted by `get`; `None` when absent, an error naming
/// `key` when present but not `what`.
fn field<'a, T>(
    obj: &'a JsonValue,
    ctx: &str,
    key: &str,
    what: &str,
    get: impl FnOnce(&'a JsonValue) -> Option<T>,
) -> Result<Option<T>, String> {
    obj.get(key)
        .map(|v| get(v).ok_or_else(|| err_at(ctx, format!("{key}: expected {what}"))))
        .transpose()
}

pub(crate) fn u64_field(obj: &JsonValue, ctx: &str, key: &str) -> Result<Option<u64>, String> {
    field(obj, ctx, key, "a non-negative integer", |v| {
        v.as_f64().filter(|n| *n >= 0.0 && n.fract() == 0.0).map(|n| n as u64)
    })
}

pub(crate) fn str_field<'a>(
    obj: &'a JsonValue,
    ctx: &str,
    key: &str,
) -> Result<Option<&'a str>, String> {
    field(obj, ctx, key, "a string", JsonValue::as_str)
}

pub(crate) fn bool_field(obj: &JsonValue, ctx: &str, key: &str) -> Result<Option<bool>, String> {
    field(obj, ctx, key, "a boolean", |v| match v {
        JsonValue::Bool(b) => Some(*b),
        _ => None,
    })
}

pub(crate) fn array_field<'a>(
    obj: &'a JsonValue,
    ctx: &str,
    key: &str,
) -> Result<Option<&'a [JsonValue]>, String> {
    field(obj, ctx, key, "an array", JsonValue::as_array)
}

pub(crate) fn object_field<'a>(
    obj: &'a JsonValue,
    ctx: &str,
    key: &str,
) -> Result<Option<&'a JsonValue>, String> {
    field(obj, ctx, key, "an object", |v| matches!(v, JsonValue::Object(_)).then_some(v))
}

/// A MAC architecture tag (`bsc` | `lpc` | `hps`, any case).
pub(crate) fn mac_kind(tag: &str) -> Option<MacKind> {
    match tag.to_ascii_lowercase().as_str() {
        "bsc" => Some(MacKind::Bsc),
        "lpc" => Some(MacKind::Lpc),
        "hps" => Some(MacKind::Hps),
        _ => None,
    }
}

/// An accelerator spec's `kind` (default `bsc`) and `quick` (the
/// reduced 4-PE × L8 array; default the paper's 32-PE × L32 array).
pub(crate) fn accel_config(spec: &JsonValue, ctx: &str) -> Result<AcceleratorConfig, String> {
    let kind = match str_field(spec, ctx, "kind")? {
        None => MacKind::Bsc,
        Some(tag) => mac_kind(tag).ok_or_else(|| {
            err_at(ctx, format!("kind: unknown architecture `{tag}` (bsc|lpc|hps)"))
        })?,
    };
    Ok(if bool_field(spec, ctx, "quick")?.unwrap_or(false) {
        AcceleratorConfig::quick(kind)
    } else {
        AcceleratorConfig::paper(kind)
    })
}

/// The memory preset (`infinite` | `edge`) named by `key` (`default`
/// when absent) with an optional `bandwidth_bytes_per_cycle` override;
/// returns the preset name with the hierarchy.
pub(crate) fn mem_config<'a>(
    spec: &'a JsonValue,
    ctx: &str,
    key: &str,
    default: &'a str,
) -> Result<(&'a str, MemConfig), String> {
    let preset = str_field(spec, ctx, key)?.unwrap_or(default);
    let mut mem = match preset {
        "infinite" => MemConfig::infinite(),
        "edge" => MemConfig::edge(),
        other => {
            return Err(err_at(ctx, format!("{key}: unknown preset `{other}` (infinite|edge)")))
        }
    };
    if let Some(bw) = u64_field(spec, ctx, "bandwidth_bytes_per_cycle")? {
        if bw == 0 {
            return Err(err_at(ctx, "bandwidth_bytes_per_cycle: must be positive"));
        }
        mem = mem.with_bandwidth(DramBandwidth::BytesPerCycle(bw));
    }
    Ok((preset, mem))
}

fn lookup_network(name: &str) -> Result<SharedNetwork, String> {
    let net = match name.trim().to_ascii_lowercase().replace(['-', '_'], "").as_str() {
        "lenet5" | "lenet" => models::lenet5(),
        "vgg16" | "vgg" => models::vgg16(),
        "resnet18" | "resnet" => models::resnet18(),
        "nas" | "nasbased" | "nasvgg" => models::nas_based(),
        "micro" | "micromlp" => models::micro(),
        other => return Err(format!("unknown network `{other}` (expected lenet5|vgg16|resnet18|nas|micro)")),
    };
    Ok(net.into_shared())
}

/// Parses the optional top-level `tenants` object shared by the serve
/// and online manifests.
pub(crate) fn parse_tenants(doc: &JsonValue) -> Result<BTreeMap<String, SloTarget>, String> {
    let mut tenants: BTreeMap<String, SloTarget> = BTreeMap::new();
    if let Some(JsonValue::Object(members)) = object_field(doc, "manifest", "tenants")? {
        for (tenant, spec) in members {
            let ctx = format!("tenants.{tenant}");
            let p99 = u64_field(spec, &ctx, "latency_p99_cycles")?.ok_or_else(|| {
                err_at(&ctx, "latency_p99_cycles: expected a non-negative integer")
            })?;
            let min_goodput = match spec.get("min_goodput") {
                None => 0.0,
                Some(v) => v
                    .as_f64()
                    .filter(|g| (0.0..=1.0).contains(g))
                    .ok_or_else(|| err_at(&ctx, "min_goodput: expected a number in 0..=1"))?,
            };
            tenants.insert(tenant.clone(), SloTarget { latency_p99_cycles: p99, min_goodput });
        }
    }
    Ok(tenants)
}

/// The fields a serve job and an online source both carry: `name`
/// (`default_name` when absent), `network`, `precision`, `tenant` (with
/// its declared SLO target) and `deadline_cycles` — relative to the
/// arrival, which batch mode places at cycle 0.  `networks` memoizes
/// the lookups, so specs naming one network share one allocation.
pub(crate) fn job_template(
    spec: &JsonValue,
    ctx: &str,
    default_name: String,
    tenants: &BTreeMap<String, SloTarget>,
    networks: &mut BTreeMap<String, SharedNetwork>,
) -> Result<JobTemplate, String> {
    let net_name =
        str_field(spec, ctx, "network")?.ok_or_else(|| err_at(ctx, "missing `network`"))?;
    let network = match networks.get(net_name) {
        Some(n) => SharedNetwork::clone(n),
        None => {
            let n = lookup_network(net_name).map_err(|e| err_at(ctx, e))?;
            networks.insert(net_name.to_owned(), SharedNetwork::clone(&n));
            n
        }
    };
    let precision = match str_field(spec, ctx, "precision")? {
        None => PrecisionPolicy::AsTrained,
        Some(s) => s
            .parse::<PrecisionPolicy>()
            .map_err(|e| err_at(ctx, format!("precision: {e}")))?,
    };
    let tenant = str_field(spec, ctx, "tenant")?.unwrap_or("default");
    Ok(JobTemplate {
        name: str_field(spec, ctx, "name")?.map_or(default_name, str::to_owned),
        tenant: TenantId::new(tenant),
        network,
        precision,
        deadline_cycles: u64_field(spec, ctx, "deadline_cycles")?,
        slo: tenants.get(tenant).copied(),
    })
}

/// One text line per tenant: outcome counts, p99 latency, goodput,
/// energy and the SLO verdict.
pub(crate) fn render_tenants(out: &mut String, slo: &SloReport) {
    use std::fmt::Write as _;
    for t in &slo.tenants {
        let verdict = match &t.attainment {
            Some(a) if a.attained => "SLO met".to_string(),
            Some(a) => format!(
                "SLO MISSED (p99 {}, goodput {})",
                if a.latency_p99_ok { "ok" } else { "over" },
                if a.goodput_ok { "ok" } else { "under" },
            ),
            None => "no target".to_string(),
        };
        let _ = writeln!(
            out,
            "tenant {:<12} {} submitted / {} completed / {} rejected / {} shed, latency p99 {} cyc, goodput {:.2}, {:.1} pJ — {}",
            t.tenant,
            t.submitted,
            t.completed,
            t.rejected,
            t.shed,
            t.latency.p99,
            t.goodput,
            t.energy_fj as f64 / 1e3,
            verdict,
        );
    }
}

/// The `queue_wait_cycles` object: admission → dispatch waits on the
/// virtual clock, cycle-domain and therefore deterministic and gated
/// like every other count.
pub(crate) fn write_queue_wait(j: &mut JsonBuilder, metrics: &MetricsSnapshot) {
    j.key("queue_wait_cycles").begin_object();
    match metrics.histogram("engine.queue.wait_cycles") {
        Some(h) => {
            j.key("count").u64(h.count);
            j.key("max").u64(h.max);
            j.key("p50").f64(h.p50().unwrap_or(0.0));
            j.key("p95").f64(h.p95().unwrap_or(0.0));
            j.key("p99").f64(h.p99().unwrap_or(0.0));
        }
        None => {
            j.key("count").u64(0);
        }
    }
    j.end_object();
}

/// Writes the `tenants` array of an SLO report — the exact member
/// layout both `repro serve` and `repro online` gate at `--tol 0`.
pub(crate) fn write_slo_tenants(j: &mut JsonBuilder, slo: &SloReport) {
    j.key("tenants").begin_array();
    for t in &slo.tenants {
        j.begin_object();
        j.key("name").string(t.tenant.as_str());
        j.key("submitted").u64(t.submitted);
        j.key("completed").u64(t.completed);
        j.key("rejected").u64(t.rejected);
        j.key("shed").u64(t.shed);
        j.key("goodput").f64(t.goodput);
        j.key("reject_rate").f64(t.reject_rate());
        j.key("shed_rate").f64(t.shed_rate());
        j.key("deadline_jobs").u64(t.deadline_jobs);
        j.key("deadline_met").u64(t.deadline_met);
        j.key("macs").u64(t.macs);
        j.key("energy_fj").u64(t.energy_fj);

        j.key("latency_cycles").begin_object();
        j.key("count").u64(t.latency.count);
        j.key("min").u64(t.latency.min);
        j.key("max").u64(t.latency.max);
        j.key("p50").u64(t.latency.p50);
        j.key("p95").u64(t.latency.p95);
        j.key("p99").u64(t.latency.p99);
        j.end_object();

        j.key("rejected_by_reason").begin_object();
        for (reason, n) in &t.rejected_by_reason {
            j.key(reason).u64(*n);
        }
        j.end_object();
        j.key("shed_by_reason").begin_object();
        for (reason, n) in &t.shed_by_reason {
            j.key(reason).u64(*n);
        }
        j.end_object();

        j.key("energy_by_precision").begin_object();
        for (precision, fj) in &t.energy_by_precision {
            j.key(precision).u64(*fj);
        }
        j.end_object();

        if let Some(target) = &t.target {
            j.key("target").begin_object();
            j.key("latency_p99_cycles").u64(target.latency_p99_cycles);
            j.key("min_goodput").f64(target.min_goodput);
            j.end_object();
        }
        if let Some(a) = &t.attainment {
            j.key("attainment").begin_object();
            j.key("latency_p99_ok").bool(a.latency_p99_ok);
            j.key("goodput_ok").bool(a.goodput_ok);
            j.key("attained").bool(a.attained);
            j.key("p99_ratio").f64(a.p99_ratio);
            j.key("burn_rate").f64(a.burn_rate);
            j.end_object();
        }

        j.key("windows").begin_array();
        for w in &t.windows {
            j.begin_object();
            j.key("window").u64(w.window);
            j.key("start_cycle").u64(w.start_cycle);
            j.key("completed").u64(w.completed);
            j.key("shed").u64(w.shed);
            j.key("macs").u64(w.macs);
            j.end_object();
        }
        j.end_array();
        j.end_object();
    }
    j.end_array();
}

/// Joins event lines into a JSONL document, asserting that every line
/// parses under the strict RFC 8259 parser.
pub(crate) fn jsonl(lines: Vec<String>) -> String {
    let mut out = String::new();
    for line in lines {
        bsc_telemetry::parse_json(&line).expect("event line must be strict RFC 8259 JSON");
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    type Parser = fn(&str) -> Result<(), String>;

    const SERVE: &str = r#"{
      "engine": {"kind": "bsc", "quick": true},
      "tenants": {"t": {"latency_p99_cycles": 5}},
      "jobs": [{"name": "j", "network": "lenet5", "precision": "int8", "tenant": "t",
                "deadline_cycles": 9}]
    }"#;
    const ONLINE: &str = r#"{
      "cluster": {"policy": "round-robin", "horizon_cycles": 10,
                  "shards": [{"name": "s", "kind": "bsc", "quick": true, "mem": "edge"}]},
      "sources": [{"name": "src", "network": "micro", "precision": "int8",
                   "arrivals": {"process": "poisson", "mean_interarrival_cycles": 5}}]
    }"#;
    const DSE: &str = r#"{
      "name": "d", "workload": "tiny", "dataflows": ["weight-stationary"],
      "geometries": [{"rows": 4, "vector_length": 4}],
      "mem": [{"name": "m", "preset": "edge"}], "kinds": ["bsc"], "precisions": ["int8"]
    }"#;

    #[test]
    fn a_present_field_of_the_wrong_type_is_an_error_naming_it() {
        let serve: Parser = |t| crate::serve::parse_manifest(t).map(drop);
        let online: Parser = |t| crate::online::parse_online_manifest(t).map(drop);
        let dse: Parser = |t| crate::dse::parse_dse_manifest(t).map(drop);
        // (parser, manifest, well-typed fragment, mistyped replacement)
        let cases: [(Parser, &str, &str, &str); 22] = [
            (serve, SERVE, r#""engine": {"kind": "bsc", "quick": true}"#, r#""engine": ["bsc"]"#),
            (serve, SERVE, r#""kind": "bsc""#, r#""kind": 3"#),
            (serve, SERVE, r#""quick": true"#, r#""quick": "true""#),
            (serve, SERVE, r#""tenants": {"t": {"latency_p99_cycles": 5}}"#, r#""tenants": 5"#),
            (serve, SERVE, r#""name": "j""#, r#""name": 7"#),
            (serve, SERVE, r#""precision": "int8""#, r#""precision": 8"#),
            (serve, SERVE, r#""tenant": "t""#, r#""tenant": 1"#),
            (serve, SERVE, r#""deadline_cycles": 9"#, r#""deadline_cycles": "9""#),
            (online, ONLINE, r#""policy": "round-robin""#, r#""policy": 1"#),
            (online, ONLINE, r#""name": "s""#, r#""name": 7"#),
            (online, ONLINE, r#""kind": "bsc""#, r#""kind": 3"#),
            (online, ONLINE, r#""quick": true"#, r#""quick": 1"#),
            (online, ONLINE, r#""mem": "edge""#, r#""mem": 64"#),
            (online, ONLINE, r#""precision": "int8""#, r#""precision": 2"#),
            (online, ONLINE, r#""process": "poisson""#, r#""process": 5"#),
            (dse, DSE, r#""name": "d""#, r#""name": 7"#),
            (dse, DSE, r#""workload": "tiny""#, r#""workload": 3"#),
            (dse, DSE, r#""dataflows": ["weight-stationary"]"#, r#""dataflows": "ws""#),
            (dse, DSE, r#""mem": [{"name": "m", "preset": "edge"}]"#, r#""mem": {}"#),
            (dse, DSE, r#""preset": "edge""#, r#""preset": 1"#),
            (dse, DSE, r#""kinds": ["bsc"]"#, r#""kinds": "bsc""#),
            (dse, DSE, r#""precisions": ["int8"]"#, r#""precisions": "int8""#),
        ];
        for (parse, manifest, good, bad) in cases {
            parse(manifest).expect("the well-typed manifest parses");
            let text = manifest.replacen(good, bad, 1);
            assert_ne!(text, manifest, "{good} must occur in its manifest");
            let err = parse(&text).expect_err(bad);
            let key = bad.split('"').nth(1).expect("quoted key");
            assert!(err.contains(key), "{bad}: error `{err}` does not name `{key}`");
        }
    }
}
