//! Self-contained HTML/SVG serving dashboards for `repro serve` and
//! `repro online`.
//!
//! [`dashboard_html`] renders one [`ServeRun`] and
//! [`online_dashboard_html`] one [`OnlineRun`]; both share the same
//! SLO-report-driven body via `slo_dashboard_document` and produce a
//! single static HTML document with **zero external assets** —
//! no scripts, no fonts, no stylesheets beyond an inline `<style>` —
//! so the file opens identically offline and diffs cleanly:
//!
//! * a per-tenant latency quantile table (the integer p50/p95/p99 from
//!   the SLO report's quantile sketch) with goodput, energy and SLO
//!   verdicts;
//! * one `<svg>` time-series panel **per tenant**: completed jobs per
//!   tumbling window as bars, shed decisions overlaid in red (the CI
//!   gate counts exactly one `<svg>` element per tenant);
//! * a tenant × precision energy heatmap as an HTML table whose cell
//!   shading encodes each cell's share of the batch energy.
//!
//! The online dashboard adds the cluster observatory between the tenant
//! panels and the heatmap: a per-shard tally table (with the peak
//! outstanding / peak backlog high-water marks), the admission-ladder
//! funnel table, and one depth-observatory `<svg>` **per shard**
//! (outstanding jobs as bars, backlog overlaid) — so its total `<svg>`
//! count is tenants + shards.
//!
//! Every number in the document comes from the deterministic SLO
//! report; nothing reads wall time, so the HTML is byte-identical at
//! any worker count.

use std::fmt::Write as _;

use crate::dse::DseRun;
use crate::online::OnlineRun;
use crate::serve::ServeRun;

/// Escapes `&`, `<`, `>` and `"` for HTML text and attribute positions.
fn esc(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;").replace('"', "&quot;")
}

/// SVG panel geometry (CSS pixels).
const CHART_W: u64 = 640;
const CHART_H: u64 = 96;
const CHART_PAD: u64 = 2;

/// One tenant's windowed activity as an `<svg>` bar chart: completed
/// jobs per window (blue), shed decisions overlaid (red).  `n_windows`
/// is the batch-wide axis length so panels of different tenants align.
fn tenant_svg(t: &bsc_accel::TenantSlo, n_windows: u64) -> String {
    let n = n_windows.max(1);
    let peak = t.windows.iter().map(|w| w.completed + w.shed).max().unwrap_or(0).max(1);
    let mut svg = String::new();
    let _ = write!(
        svg,
        r#"<svg viewBox="0 0 {w} {h}" width="{w}" height="{h}" role="img" aria-label="windowed activity of tenant {name}">"#,
        w = CHART_W,
        h = CHART_H,
        name = esc(t.tenant.as_str()),
    );
    let _ = write!(
        svg,
        r##"<rect x="0" y="0" width="{CHART_W}" height="{CHART_H}" fill="#f7f7f8"/>"##
    );
    // Integer-arithmetic layout: x positions and heights are exact
    // functions of the window data, no float formatting anywhere.
    let inner_h = CHART_H - 2 * CHART_PAD;
    for w in &t.windows {
        let x0 = CHART_PAD + w.window * (CHART_W - 2 * CHART_PAD) / n;
        let x1 = CHART_PAD + (w.window + 1) * (CHART_W - 2 * CHART_PAD) / n;
        let width = (x1 - x0).saturating_sub(1).max(1);
        let done_h = w.completed * inner_h / peak;
        if done_h > 0 {
            let _ = write!(
                svg,
                r##"<rect x="{x0}" y="{y}" width="{width}" height="{done_h}" fill="#4878b0"><title>window {win}: {c} completed</title></rect>"##,
                y = CHART_H - CHART_PAD - done_h,
                win = w.window,
                c = w.completed,
            );
        }
        let shed_h = w.shed * inner_h / peak;
        if shed_h > 0 {
            let _ = write!(
                svg,
                r##"<rect x="{x0}" y="{y}" width="{width}" height="{shed_h}" fill="#c04848"><title>window {win}: {s} shed</title></rect>"##,
                y = CHART_H - CHART_PAD - done_h - shed_h,
                win = w.window,
                s = w.shed,
            );
        }
    }
    svg.push_str("</svg>");
    svg
}

/// One shard's depth observatory series as an `<svg>` chart on the
/// sampled virtual-clock grid: outstanding jobs as blue bars, the
/// backlog (cycles of queued work) overlaid as red ticks.  Each series
/// scales to its own peak; the exact values ride in `<title>` tooltips.
fn shard_depth_svg(d: &bsc_accel::ShardDepth, stride: u64) -> String {
    let n = d.samples.len().max(1) as u64;
    let peak_out = d.samples.iter().map(|s| s.outstanding).max().unwrap_or(0).max(1);
    let peak_back = d.samples.iter().map(|s| s.backlog_cycles).max().unwrap_or(0).max(1);
    let mut svg = String::new();
    let _ = write!(
        svg,
        r#"<svg viewBox="0 0 {w} {h}" width="{w}" height="{h}" role="img" aria-label="queue depth of shard {name} (stride {stride} cycles)">"#,
        w = CHART_W,
        h = CHART_H,
        name = esc(&d.shard),
    );
    let _ = write!(
        svg,
        r##"<rect x="0" y="0" width="{CHART_W}" height="{CHART_H}" fill="#f7f7f8"/>"##
    );
    let inner_h = CHART_H - 2 * CHART_PAD;
    for (i, s) in d.samples.iter().enumerate() {
        let i = i as u64;
        let x0 = CHART_PAD + i * (CHART_W - 2 * CHART_PAD) / n;
        let x1 = CHART_PAD + (i + 1) * (CHART_W - 2 * CHART_PAD) / n;
        let width = (x1 - x0).saturating_sub(1).max(1);
        let out_h = s.outstanding * inner_h / peak_out;
        if out_h > 0 {
            let _ = write!(
                svg,
                r##"<rect x="{x0}" y="{y}" width="{width}" height="{out_h}" fill="#4878b0"><title>cycle {cyc}: {o} outstanding</title></rect>"##,
                y = CHART_H - CHART_PAD - out_h,
                cyc = s.cycle,
                o = s.outstanding,
            );
        }
        let back_h = s.backlog_cycles * inner_h / peak_back;
        if back_h > 0 {
            let _ = write!(
                svg,
                r##"<rect x="{x0}" y="{y}" width="{width}" height="2" fill="#c04848"><title>cycle {cyc}: backlog {b} cycles</title></rect>"##,
                y = (CHART_H - CHART_PAD).saturating_sub(back_h).max(CHART_PAD),
                cyc = s.cycle,
                b = s.backlog_cycles,
            );
        }
    }
    svg.push_str("</svg>");
    svg
}

/// The online dashboard's cluster sections: the per-shard tally table
/// (with the peak outstanding / peak backlog high-water marks), the
/// admission-ladder funnel table, and one depth-observatory `<svg>` per
/// shard.
fn cluster_sections(r: &bsc_accel::OnlineReport) -> String {
    let mut html = String::new();
    // --- Per-shard tallies and high-water marks --------------------------
    html.push_str("<table>\n<caption>Per-shard tallies and high-water marks</caption>\n");
    html.push_str(
        "<tr><th>shard</th><th>kind</th><th>completed</th><th>rejected</th><th>shed</th>\
         <th>busy (cyc)</th><th>peak outstanding</th><th>peak backlog (cyc)</th>\
         <th>energy (pJ)</th></tr>\n",
    );
    for s in &r.shards {
        let _ = writeln!(
            html,
            "<tr><td>{name}</td><td>{kind}</td><td>{done}</td><td>{rej}</td><td>{shed}</td>\
             <td>{busy}</td><td>{peak}</td><td>{backlog}</td><td>{pj:.1}</td></tr>",
            name = esc(&s.name),
            kind = s.kind,
            done = s.completed,
            rej = s.rejected,
            shed = s.shed,
            busy = s.busy_cycles,
            peak = s.peak_outstanding,
            backlog = s.peak_backlog_cycles,
            pj = s.energy_fj as f64 / 1e3,
        );
    }
    html.push_str("</table>\n");

    // --- Admission-ladder funnel -----------------------------------------
    html.push_str(
        "<table>\n<caption>Admission ladder (per-stage outcome of every offered arrival)</caption>\n",
    );
    html.push_str(
        "<tr><th>shard</th><th>offered</th><th>queue full</th><th>overloaded</th>\
         <th>deadline infeasible</th><th>shed</th><th>dispatched</th></tr>\n",
    );
    for f in &r.funnel {
        let _ = writeln!(
            html,
            "<tr><td>{name}</td><td>{off}</td><td>{qf}</td><td>{ov}</td><td>{di}</td>\
             <td>{sh}</td><td>{disp}</td></tr>",
            name = esc(&f.shard),
            off = f.offered,
            qf = f.queue_full,
            ov = f.overloaded,
            di = f.deadline_infeasible,
            sh = f.shed_deadline,
            disp = f.dispatched,
        );
    }
    html.push_str("</table>\n");

    // --- Depth observatory: exactly one <svg> per shard ------------------
    for d in &r.depth {
        let _ = writeln!(
            html,
            "<section>\n<h2>{name} — outstanding (blue) / backlog (red), every {stride} cycles</h2>\n{svg}\n</section>",
            name = esc(&d.shard),
            stride = r.depth_stride_cycles,
            svg = shard_depth_svg(d, r.depth_stride_cycles),
        );
    }
    html
}

/// Renders the `repro serve` dashboard.  See the module docs for
/// contents and determinism guarantees.
pub fn dashboard_html(run: &ServeRun) -> String {
    let slo = &run.batch.slo;
    let summary = format!(
        "{kind} engine &middot; queue capacity {cap} &middot; {sub} submitted / {done} completed / {rej} rejected / {shed} shed &middot; makespan {span} cycles &middot; window width {win} cycles",
        kind = esc(&run.kind.to_string()),
        cap = run.queue_capacity,
        sub = run.batch.submitted(),
        done = run.batch.completed_count(),
        rej = run.batch.rejected_count(),
        shed = run.batch.shed_count(),
        span = run.batch.makespan_cycles(),
        win = slo.window_width_cycles,
    );
    slo_dashboard_document(&summary, "batch", slo, "")
}

/// Renders the `repro online` dashboard: the same SLO-driven body under
/// a cluster summary line naming the dispatch policy and every shard.
pub fn online_dashboard_html(run: &OnlineRun) -> String {
    let r = &run.report;
    let shards = run
        .shard_names
        .iter()
        .map(|n| esc(n))
        .collect::<Vec<_>>()
        .join(", ");
    let summary = format!(
        "{policy} dispatch over {n} shards ({shards}) &middot; seed {seed} &middot; {sub} submitted / {done} completed / {rej} rejected / {shed} shed &middot; makespan {span} cycles &middot; window width {win} cycles",
        policy = esc(&r.policy.to_string()),
        n = run.shard_names.len(),
        seed = r.seed,
        sub = r.submitted,
        done = r.completed,
        rej = r.rejected,
        shed = r.shed,
        span = r.makespan_cycles,
        win = r.slo.window_width_cycles,
    );
    slo_dashboard_document(&summary, "cluster", &r.slo, &cluster_sections(r))
}

/// Shared document shell and SLO-report body: summary line, per-tenant
/// quantile table, one `<svg>` per tenant, tenant &times; precision
/// energy heatmap.  `total_label` names the energy total row
/// ("batch" for serve, "cluster" for online); `extra` is injected
/// verbatim between the tenant panels and the heatmap (the online
/// dashboard's cluster sections — empty for serve).
fn slo_dashboard_document(
    summary: &str,
    total_label: &str,
    slo: &bsc_accel::SloReport,
    extra: &str,
) -> String {
    let mut html = String::new();
    html.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    html.push_str("<title>BSC serving dashboard</title>\n<style>\n");
    html.push_str(concat!(
        "body{font-family:system-ui,sans-serif;margin:2em;color:#222}\n",
        "table{border-collapse:collapse;margin:1em 0}\n",
        "th,td{border:1px solid #ccc;padding:.3em .6em;text-align:right}\n",
        "th:first-child,td:first-child{text-align:left}\n",
        "caption{text-align:left;font-weight:600;padding:.3em 0}\n",
        ".met{color:#1a7a2e}.missed{color:#b01818;font-weight:600}.none{color:#777}\n",
        "section{margin:1.5em 0}\n",
    ));
    html.push_str("</style>\n</head>\n<body>\n");

    let _ = writeln!(html, "<h1>BSC serving dashboard</h1>");
    let _ = writeln!(html, "<p>{summary}</p>");

    // --- Per-tenant latency quantile table -------------------------------
    html.push_str("<table>\n<caption>Per-tenant latency and SLO attainment</caption>\n");
    html.push_str(
        "<tr><th>tenant</th><th>submitted</th><th>completed</th><th>rejected</th><th>shed</th>\
         <th>p50 (cyc)</th><th>p95 (cyc)</th><th>p99 (cyc)</th><th>max (cyc)</th>\
         <th>goodput</th><th>energy (pJ)</th><th>SLO</th></tr>\n",
    );
    for t in &slo.tenants {
        let (class, verdict) = match &t.attainment {
            Some(a) if a.attained => ("met", "met".to_string()),
            Some(a) => ("missed", format!("missed (burn {:.1}×)", a.burn_rate)),
            None => ("none", "—".to_string()),
        };
        let _ = writeln!(
            html,
            "<tr><td>{name}</td><td>{sub}</td><td>{done}</td><td>{rej}</td><td>{shed}</td>\
             <td>{p50}</td><td>{p95}</td><td>{p99}</td><td>{max}</td>\
             <td>{good:.3}</td><td>{pj:.1}</td><td class=\"{class}\">{verdict}</td></tr>",
            name = esc(t.tenant.as_str()),
            sub = t.submitted,
            done = t.completed,
            rej = t.rejected,
            shed = t.shed,
            p50 = t.latency.p50,
            p95 = t.latency.p95,
            p99 = t.latency.p99,
            max = t.latency.max,
            good = t.goodput,
            pj = t.energy_fj as f64 / 1e3,
        );
    }
    html.push_str("</table>\n");

    // --- Windowed time series: exactly one <svg> per tenant --------------
    let n_windows = slo
        .tenants
        .iter()
        .flat_map(|t| t.windows.iter())
        .map(|w| w.window + 1)
        .max()
        .unwrap_or(1);
    for t in &slo.tenants {
        let _ = writeln!(
            html,
            "<section>\n<h2>{name} — completed (blue) / shed (red) per window</h2>\n{svg}\n</section>",
            name = esc(t.tenant.as_str()),
            svg = tenant_svg(t, n_windows),
        );
    }

    html.push_str(extra);

    // --- Tenant × precision energy heatmap -------------------------------
    let mut precisions: Vec<&str> = Vec::new();
    for t in &slo.tenants {
        for (p, _) in &t.energy_by_precision {
            if !precisions.contains(&p.as_str()) {
                precisions.push(p);
            }
        }
    }
    precisions.sort_unstable();
    let total = slo.total_energy_fj().max(1);
    let _ = write!(
        html,
        "<table>\n<caption>Energy attribution by tenant &times; precision (fJ, cell shading = share of {total_label} energy)</caption>\n<tr><th>tenant</th>"
    );
    for p in &precisions {
        let _ = write!(html, "<th>{}</th>", esc(p));
    }
    html.push_str("<th>total</th></tr>\n");
    for t in &slo.tenants {
        let _ = write!(html, "<tr><td>{}</td>", esc(t.tenant.as_str()));
        for p in &precisions {
            let fj = t
                .energy_by_precision
                .iter()
                .find(|(name, _)| name == p)
                .map_or(0, |(_, fj)| *fj);
            // Shade by integer share: alpha in 0..=255 from the exact
            // fJ ratio, so the color is as deterministic as the number.
            let alpha = (fj * 255 / total) as u8;
            let _ = write!(
                html,
                "<td style=\"background:rgba(72,120,176,{a:.3})\">{fj}</td>",
                a = alpha as f64 / 255.0,
            );
        }
        let _ = writeln!(html, "<td>{}</td></tr>", t.energy_fj);
    }
    let _ = writeln!(
        html,
        "<tr><td>{total_label} total</td><td colspan=\"{}\"></td><td>{}</td></tr>",
        precisions.len(),
        slo.total_energy_fj(),
    );
    html.push_str("</table>\n</body>\n</html>\n");
    html
}

/// Pareto scatter geometry (CSS pixels).
const DSE_W: u64 = 640;
const DSE_H: u64 = 420;
const DSE_PAD: u64 = 40;

/// Maps `v` into `[lo, hi]` on a log axis spanning `[min, max]`, in
/// integer pixels (deterministic layout; exact values ride in
/// `<title>` tooltips).
fn log_pos(v: f64, min: f64, max: f64, lo: u64, hi: u64) -> u64 {
    let span = (max / min).ln();
    if span.is_nan() || span <= 0.0 {
        return (lo + hi) / 2;
    }
    let t = ((v / min).ln() / span).clamp(0.0, 1.0);
    lo + (t * (hi - lo) as f64).round() as u64
}

/// Renders the `repro dse` Pareto scatter as one self-contained `<svg>`
/// document: every sweep point on log energy (x) × log latency (y)
/// axes, circle radius encoding array area, Pareto-front points filled
/// blue and dominated points grey, bandwidth-bound points ringed red.
/// Exact objective values sit in `<title>` tooltips; nothing references
/// external assets and nothing reads wall time, so the file is
/// byte-identical at any worker count.
pub fn dse_pareto_svg(run: &DseRun) -> String {
    let pts = &run.points;
    let min_max = |f: fn(&crate::dse::DsePoint) -> f64| {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for p in pts {
            let v = f(p);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo.max(1e-12), hi.max(1e-12))
    };
    let (e_min, e_max) = min_max(|p| p.energy_fj);
    let (l_min, l_max) = min_max(|p| p.total_cycles as f64);
    let (a_min, a_max) = min_max(|p| p.area_um2);
    let mut svg = String::new();
    let _ = write!(
        svg,
        r#"<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}" width="{w}" height="{h}" role="img" aria-label="DSE Pareto scatter: {n} points, {k} on the front">"#,
        w = DSE_W,
        h = DSE_H,
        n = pts.len(),
        k = run.pareto_count(),
    );
    let _ = write!(svg, r##"<rect x="0" y="0" width="{DSE_W}" height="{DSE_H}" fill="#f7f7f8"/>"##);
    // Axis frame and labels (energy grows rightward, latency downward
    // is inverted so "better" is bottom-left... keep latency growing
    // upward-inverted: smaller latency near the bottom axis).
    let _ = write!(
        svg,
        r##"<rect x="{x}" y="{y}" width="{iw}" height="{ih}" fill="none" stroke="#bbb"/>"##,
        x = DSE_PAD,
        y = DSE_PAD / 2,
        iw = DSE_W - DSE_PAD - DSE_PAD / 2,
        ih = DSE_H - DSE_PAD - DSE_PAD / 2,
    );
    let _ = write!(
        svg,
        r##"<text x="{x}" y="{y}" font-size="12" fill="#555">energy (log) &#8594;</text>"##,
        x = DSE_W / 2 - 40,
        y = DSE_H - 8,
    );
    let _ = write!(
        svg,
        r##"<text x="12" y="{y}" font-size="12" fill="#555" transform="rotate(-90 12 {y})">latency (log) &#8594;</text>"##,
        y = DSE_H / 2,
    );
    // Dominated points first so the front renders on top.
    for front_pass in [false, true] {
        for p in pts {
            if p.pareto != front_pass {
                continue;
            }
            let cx = log_pos(p.energy_fj, e_min, e_max, DSE_PAD + 8, DSE_W - DSE_PAD / 2 - 8);
            let cy = log_pos(
                p.total_cycles as f64,
                l_min,
                l_max,
                DSE_PAD / 2 + 8,
                DSE_H - DSE_PAD - 8,
            );
            // Radius 3..=9 px from the point's share of the log area span.
            let r = 3 + log_pos(p.area_um2, a_min, a_max, 0, 6);
            let fill = if p.pareto { "#4878b0" } else { "#c8c8cc" };
            let stroke = if p.roofline == "bandwidth-bound" { "#c04848" } else { "#888" };
            let _ = write!(
                svg,
                r##"<circle cx="{cx}" cy="{cy}" r="{r}" fill="{fill}" stroke="{stroke}"><title>{df} {geom} {mem} {kind} int{bits}: {cyc} cycles, {fj:.0} fJ, {um:.0} um2, {roof}{front}</title></circle>"##,
                df = p.dataflow.tag(),
                geom = esc(&p.geometry.tag()),
                mem = esc(&p.mem),
                kind = p.kind,
                bits = p.precision.bits(),
                cyc = p.total_cycles,
                fj = p.energy_fj,
                um = p.area_um2,
                roof = p.roofline,
                front = if p.pareto { ", PARETO" } else { "" },
            );
        }
    }
    svg.push_str("</svg>\n");
    svg
}

#[cfg(test)]
mod tests {
    use super::*;

    const MANIFEST: &str = r#"{
      "engine": {"kind": "bsc", "quick": true, "workers": 2},
      "tenants": {"gold": {"latency_p99_cycles": 100000000, "min_goodput": 0.5}},
      "jobs": [
        {"name": "g", "network": "lenet5", "tenant": "gold", "count": 2},
        {"name": "f", "network": "lenet5", "precision": "int8"}
      ]
    }"#;

    #[test]
    fn dashboard_is_self_contained_with_one_svg_per_tenant() {
        let run = crate::serve::serve(MANIFEST).unwrap();
        let html = dashboard_html(&run);
        assert_eq!(
            html.matches("<svg").count(),
            run.batch.slo.tenants.len(),
            "exactly one svg per tenant"
        );
        // Self-contained: no external fetches of any kind.
        for forbidden in ["http://", "https://", "<script", "<link", "@import", "url("] {
            assert!(!html.contains(forbidden), "dashboard must not reference {forbidden}");
        }
        // Both tenants (default + gold) appear, and the verdict renders.
        assert!(html.contains(">gold</td>"));
        assert!(html.contains(">default</td>"));
        assert!(html.contains("class=\"met\"") || html.contains("class=\"missed\""));
        // Heatmap totals match the exact attribution.
        assert!(html.contains(&format!("<td>{}</td>", run.batch.slo.total_energy_fj())));
    }

    #[test]
    fn dashboard_is_deterministic_across_runs() {
        let a = dashboard_html(&crate::serve::serve(MANIFEST).unwrap());
        let b = dashboard_html(&crate::serve::serve(MANIFEST).unwrap());
        assert_eq!(a, b, "no wall-clock data may leak into the dashboard");
    }

    const ONLINE_MANIFEST: &str = r#"{
      "cluster": {
        "policy": "round-robin",
        "seed": 3,
        "horizon_cycles": 100000,
        "max_outstanding": 4,
        "shards": [
          {"name": "a0", "kind": "bsc", "quick": true},
          {"name": "b1", "kind": "lpc", "quick": true, "mem": "edge"}
        ]
      },
      "tenants": {"gold": {"latency_p99_cycles": 100000, "min_goodput": 0.1}},
      "sources": [
        {"name": "s", "network": "micro", "tenant": "gold",
         "arrivals": {"process": "poisson", "mean_interarrival_cycles": 800}}
      ]
    }"#;

    #[test]
    fn online_dashboard_shares_the_slo_body_and_names_the_cluster() {
        let run = crate::online::online(ONLINE_MANIFEST, Some(2)).unwrap();
        let html = online_dashboard_html(&run);
        assert_eq!(
            html.matches("<svg").count(),
            run.report.slo.tenants.len() + run.report.shards.len(),
            "one svg per tenant plus one depth panel per shard"
        );
        for forbidden in ["http://", "https://", "<script", "<link", "@import", "url("] {
            assert!(!html.contains(forbidden), "dashboard must not reference {forbidden}");
        }
        assert!(html.contains("round-robin dispatch over 2 shards (a0, b1)"), "{html}");
        assert!(html.contains("cluster total"));
        assert!(html.contains(">gold</td>"));
        let again =
            online_dashboard_html(&crate::online::online(ONLINE_MANIFEST, Some(8)).unwrap());
        assert_eq!(html, again, "online dashboard is worker-count independent");
    }

    #[test]
    fn online_dashboard_carries_the_cluster_observatory() {
        let run = crate::online::online(ONLINE_MANIFEST, Some(2)).unwrap();
        let html = online_dashboard_html(&run);
        assert!(html.contains("Per-shard tallies and high-water marks"), "{html}");
        assert!(html.contains("Admission ladder"), "{html}");
        assert!(html.contains("peak backlog (cyc)"));
        for s in &run.report.shards {
            assert!(html.contains(&format!("<td>{}</td>", esc(&s.name))));
        }
        // Every shard's funnel row balances: the offered count equals
        // the sum of its stage outcomes, and the table shows it.
        for f in &run.report.funnel {
            assert!(html.contains(&format!(
                "<td>{}</td><td>{}</td><td>{}</td><td>{}</td>",
                f.offered, f.queue_full, f.overloaded, f.deadline_infeasible
            )));
        }
    }

    #[test]
    fn escaping_covers_markup_characters() {
        assert_eq!(esc(r#"<a&"b>"#), "&lt;a&amp;&quot;b&gt;");
    }

    const DSE_MANIFEST: &str = r#"{
      "name": "svg-dse", "workload": "tiny", "steps": 16,
      "dataflows": ["weight-stationary", "output-stationary"],
      "geometries": [{"rows": 8, "vector_length": 4}, {"rows": 4, "vector_length": 4}],
      "mem": [
        {"name": "edge", "preset": "edge"},
        {"name": "edge-bw1", "preset": "edge", "bandwidth_bytes_per_cycle": 1}
      ],
      "kinds": ["bsc"], "precisions": ["int4", "int8"]
    }"#;

    #[test]
    fn dse_scatter_is_self_contained_with_one_circle_per_point() {
        let run = crate::dse::dse(DSE_MANIFEST, Some(2)).unwrap();
        let svg = dse_pareto_svg(&run);
        assert_eq!(svg.matches("<circle").count(), run.points.len());
        assert_eq!(svg.matches("PARETO").count(), run.pareto_count());
        // Self-contained: the only URI is the SVG namespace itself.
        for forbidden in ["https://", "<script", "<link", "@import", "url(", "<image"] {
            assert!(!svg.contains(forbidden), "scatter must not reference {forbidden}");
        }
        assert_eq!(svg.matches("http://").count(), 1, "xmlns only");
        assert!(svg.contains(r#"xmlns="http://www.w3.org/2000/svg""#));
        // Bandwidth-bound points are ringed red somewhere in the sweep.
        assert!(svg.contains("#c04848"), "{svg}");
    }

    #[test]
    fn dse_scatter_is_worker_count_independent() {
        let a = dse_pareto_svg(&crate::dse::dse(DSE_MANIFEST, Some(1)).unwrap());
        let b = dse_pareto_svg(&crate::dse::dse(DSE_MANIFEST, Some(8)).unwrap());
        assert_eq!(a, b, "no wall-clock data may leak into the scatter");
    }

    #[test]
    fn log_positions_stay_inside_the_axis_and_preserve_order() {
        let lo = log_pos(1.0, 1.0, 100.0, 40, 600);
        let mid = log_pos(10.0, 1.0, 100.0, 40, 600);
        let hi = log_pos(100.0, 1.0, 100.0, 40, 600);
        assert_eq!(lo, 40);
        assert_eq!(hi, 600);
        assert!(lo < mid && mid < hi);
        // Degenerate span centers the point instead of dividing by zero.
        assert_eq!(log_pos(5.0, 5.0, 5.0, 40, 600), 320);
    }
}
