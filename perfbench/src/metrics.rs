//! Folds one pass (every job's spans, reports and checks) into the
//! end-to-end and per-layer metrics.

use std::collections::BTreeMap;

use mtm_harness::runs::OVERALL_MANAGERS;
use obs::names;
use tiersim::sim::RunReport;

use crate::jobs::{cross_checks, Job, JobOut};
use crate::trace::Span;

/// End-to-end metrics `(name, unit)`, in output order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("accesses_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("pass_frac", "ratio"),
    ("mtm_vs_ft", "ratio"),
];

/// Per-layer metrics `(name, unit)` that are not per manager.
const LAYERS: [(&str, &str); 39] = [
    ("workloads.construct_s", "s"),
    ("workloads.setup_s", "s"),
    ("tiersim.machine_s", "s"),
    ("tiersim.step_s", "s"),
    ("tiersim.access_s", "s"),
    ("tiersim.accesses", "count"),
    ("tiersim.host_ns_per_access", "ns"),
    ("tiersim.alloc_faults", "count"),
    ("tiersim.hint_faults", "count"),
    ("tiersim.pte_scans", "count"),
    ("tiersim.tlb_flushes", "count"),
    ("mgr.placement_s", "s"),
    ("mgr.placement_calls", "count"),
    ("mgr.subinterval_s", "s"),
    ("mgr.interval_s", "s"),
    ("virt.app_ms", "ms"),
    ("virt.profiling_ms", "ms"),
    ("virt.migration_ms", "ms"),
    ("migrate.pages", "count"),
    ("migrate.bytes", "bytes"),
    ("migrate.wasted_frac", "ratio"),
    ("migrate.retries", "count"),
    ("pebs.drop_frac", "ratio"),
    ("mtm.regions_merged", "count"),
    ("mtm.regions_split", "count"),
    ("mtm.tau_m_escalations", "count"),
    ("obs.finish_s", "s"),
    ("obs.json_s", "s"),
    ("obs.json_bytes", "bytes"),
    ("obs.events_dropped", "count"),
    ("scenario.ckpt_save_s", "s"),
    ("scenario.ckpt_restore_s", "s"),
    ("scenario.ckpt_bytes", "bytes"),
    ("scenario.trace_encode_s", "s"),
    ("scenario.trace_decode_s", "s"),
    ("scenario.trace_bytes", "bytes"),
    ("scenario.churn_s", "s"),
    ("check.verify_s", "s"),
    ("pool.busy_frac", "ratio"),
];

/// Tracing cost, filled from a traced and an untraced pass.
pub const TRACE_OVERHEAD: [(&str, &str); 3] =
    [("trace.overhead_s", "s"), ("trace.overhead_frac", "ratio"), ("trace.spans", "count")];

/// Manager hooks reported per manager as `mgr.<manager>.<hook>_s`.
const HOOKS: [&str; 3] = ["placement", "subinterval", "interval"];

/// Every per-layer metric `(name, unit)`, in output order.
pub fn layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for m in OVERALL_MANAGERS {
        for hook in HOOKS {
            out.push((format!("mgr.{m}.{hook}_s"), "s"));
        }
    }
    out.extend(TRACE_OVERHEAD.iter().map(|&(n, u)| (n.to_string(), u)));
    out
}

/// One pass over a workload's jobs.
pub struct Pass {
    /// Pool worker threads.
    pub workers: usize,
    /// Host wall time of the pass, checks included.
    pub wall_s: f64,
    /// Process CPU time (user + system) spent during the pass.
    pub cpu_s: f64,
    /// The jobs, in dispatch order.
    pub jobs: Vec<Job>,
    /// Their outcomes, index-aligned with `jobs`.
    pub outs: Vec<Result<JobOut, String>>,
}

/// A pass folded into metrics.
pub struct Summary {
    /// Jobs plus checks attempted.
    pub attempted: u64,
    /// Jobs that panicked plus checks that failed.
    pub failed: u64,
    /// What failed, for the log.
    pub failures: Vec<String>,
    /// FNV-1a over the Debug text of every report, in job order.
    pub digest: u64,
    /// Pass wall time minus the verification time per worker.
    pub wall_s: f64,
    /// Σ construction + machine build + `ScenarioProgress::start`.
    pub setup_s: f64,
    /// Simulated accesses per host second of stepping.
    pub accesses_per_s: f64,
    /// Geo-mean of MTM ÷ first-touch steady ns/op over the apps.
    pub mtm_vs_ft: f64,
    /// Σ job time outside construction and verification: the part of a
    /// job that tracing can slow down.
    pub hooked_s: f64,
    /// Spans recorded.
    pub spans: u64,
    /// Per-layer values by name (absent means 0).
    pub layers: BTreeMap<String, f64>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Sum of durations of the spans named `name`.
fn total(spans: &[Span], name: &str) -> f64 {
    spans.iter().filter(|s| s.name == name).map(Span::secs).sum()
}

/// Folds a pass into its metrics.
pub fn summarize(pass: &Pass) -> Summary {
    let mut layers: BTreeMap<String, f64> = BTreeMap::new();
    let mut add = |k: &str, v: f64| *layers.entry(k.to_string()).or_insert(0.0) += v;
    let mut attempted = 0u64;
    let mut failures = Vec::new();
    let mut debug_text = String::new();
    let mut spans = 0u64;
    let mut reports: Vec<&RunReport> = Vec::new();
    let mut pairs: BTreeMap<&str, (f64, f64)> = BTreeMap::new();

    let cross = cross_checks(&pass.jobs, &pass.outs);
    let checks = pass.outs.iter().flatten().flat_map(|o| &o.checks).chain(&cross);
    for c in checks {
        attempted += 1;
        if !c.ok {
            failures.push(format!("check failed: {}", c.name));
        }
    }

    for (job, out) in pass.jobs.iter().zip(&pass.outs) {
        attempted += 1;
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                failures.push(format!("job panicked: {e}"));
                continue;
            }
        };
        for r in out.driven.iter().chain(&out.opaque) {
            debug_text.push_str(&format!("{r:?}"));
        }
        reports.extend(&out.driven);
        if let (Some(app), Some(r)) = (job.app(), out.driven.first()) {
            let e = pairs.entry(app).or_insert((0.0, 0.0));
            match job.manager() {
                "MTM" => e.0 = r.ns_per_op_steady(),
                "first-touch" => e.1 = r.ns_per_op_steady(),
                _ => {}
            }
        }
        for &(k, v) in &out.bytes {
            add(k, v as f64);
        }
        // Hook spans, overall and per manager; the access loop's self
        // time is each `steps` span minus its hook children.
        let s = &out.spans;
        for hook in HOOKS {
            let t = total(s, hook);
            add(&format!("mgr.{hook}_s"), t);
            add(&format!("mgr.{}.{hook}_s", job.manager()), t);
        }
        let calls: u64 = s.iter().filter(|x| x.name == "placement").map(|x| x.calls).sum();
        add("mgr.placement_calls", calls as f64);
        let hooks_in_steps: f64 = s
            .iter()
            .filter(|x| x.parent.is_some_and(|p| s[p as usize].name == "steps"))
            .map(Span::secs)
            .sum();
        add("tiersim.access_s", total(s, "steps") - hooks_in_steps);
        for (name, span) in [
            ("workloads.construct_s", "construct"),
            ("tiersim.machine_s", "machine"),
            ("tiersim.step_s", "steps"),
            ("obs.finish_s", "finish"),
            ("obs.json_s", "json"),
            ("scenario.ckpt_save_s", "ckpt_save"),
            ("scenario.ckpt_restore_s", "ckpt_restore"),
            ("scenario.trace_encode_s", "trace_encode"),
            ("scenario.trace_decode_s", "trace_decode"),
            ("scenario.churn_s", "churn"),
            ("check.verify_s", "verify"),
        ] {
            add(name, total(s, span));
        }
        add("workloads.setup_s", total(s, "start"));
        add("setup", total(s, "construct") + total(s, "machine") + total(s, "start"));
        add("hooked", total(s, "scenario") - total(s, "construct") - total(s, "verify"));
        spans += s.len() as u64;
    }

    for r in &reports {
        let m = &r.machine;
        let reg = &r.telemetry.registry;
        let accesses: u64 = r.component_counts.iter().map(|c| c.total()).sum();
        for (k, v) in [
            ("tiersim.accesses", accesses as f64),
            ("tiersim.alloc_faults", m.alloc_faults as f64),
            ("tiersim.hint_faults", m.hint_faults as f64),
            ("tiersim.pte_scans", m.pte_scans as f64),
            ("tiersim.tlb_flushes", m.tlb_flushes as f64),
            ("virt.app_ms", r.breakdown.app_ns * 1e-6),
            ("virt.profiling_ms", r.breakdown.profiling_ns * 1e-6),
            ("virt.migration_ms", r.breakdown.migration_ns * 1e-6),
            ("migrate.pages", m.pages_migrated as f64),
            ("migrate.bytes", m.bytes_migrated as f64),
            ("wasted", reg.counter(names::WASTED_MIGRATION_BYTES) as f64),
            ("migrate.retries", reg.counter(names::MIGRATION_RETRIES) as f64),
            ("pebs_taken", reg.counter(names::PEBS_SAMPLES_TAKEN) as f64),
            ("pebs_dropped", reg.counter(names::PEBS_SAMPLES_DROPPED) as f64),
            ("mtm.regions_merged", reg.counter(names::REGIONS_MERGED) as f64),
            ("mtm.regions_split", reg.counter(names::REGIONS_SPLIT) as f64),
            ("mtm.tau_m_escalations", reg.counter(names::TAU_M_ESCALATIONS) as f64),
            ("obs.events_dropped", r.telemetry.events_dropped as f64),
        ] {
            add(k, v);
        }
    }
    let get = |k: &str| layers.get(k).copied().unwrap_or(0.0);
    let (accesses, access_s, step_s) =
        (get("tiersim.accesses"), get("tiersim.access_s"), get("tiersim.step_s"));
    let derived = [
        ("tiersim.host_ns_per_access", ratio(access_s * 1e9, accesses)),
        ("migrate.wasted_frac", ratio(get("wasted"), get("migrate.bytes"))),
        ("pebs.drop_frac", ratio(get("pebs_dropped"), get("pebs_taken"))),
        ("pool.busy_frac", ratio(pass.cpu_s, pass.wall_s * pass.workers as f64)),
    ];
    let setup_s = get("setup");
    let hooked_s = get("hooked");
    let accesses_per_s = ratio(accesses, step_s);
    let wall_s = pass.wall_s - get("check.verify_s") / pass.workers as f64;
    for k in ["wasted", "pebs_taken", "pebs_dropped", "setup", "hooked"] {
        layers.remove(k);
    }
    layers.extend(derived.iter().map(|&(k, v)| (k.to_string(), v)));

    let ratios: Vec<f64> = pairs
        .values()
        .filter(|(mtm, ft)| *mtm > 0.0 && *ft > 0.0 && mtm.is_finite() && ft.is_finite())
        .map(|(mtm, ft)| mtm / ft)
        .collect();
    let mtm_vs_ft = if ratios.is_empty() {
        0.0
    } else {
        (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
    };

    Summary {
        digest: obs::wire::fnv1a(debug_text.as_bytes()),
        attempted,
        failed: failures.len() as u64,
        failures,
        wall_s,
        setup_s,
        accesses_per_s,
        mtm_vs_ft,
        hooked_s,
        spans,
        layers,
    }
}

/// CPU time (user + system) this process has used so far, from
/// `/proc/self/stat` (in USER_HZ = 100 ticks per second); 0 where the
/// kernel does not report it.
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and
            // stime are fields 14 and 15 of the whole line.
            let rest = &s[s.rfind(')')? + 1..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some(f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?)
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Peak resident set of this process (`VmHWM`), MiB; 0 where the kernel
/// does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                let kb = l.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `xs` (mean of the middle two for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let mut v: Vec<f64> = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_json(attempted: u64, failed: u64, metrics: &[(String, f64, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        failed == 0
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let value = if value.is_finite() { *value } else { 0.0 };
        out.push_str(&format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn layer_names_are_unique_and_well_formed() {
        let names = layer_metrics();
        let mut seen = std::collections::BTreeSet::new();
        for (n, u) in &names {
            assert!(seen.insert(n.clone()), "duplicate {n}");
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
            assert!(!u.is_empty());
        }
        assert!(names.len() <= 128);
    }

    #[test]
    fn result_line_shape() {
        let line = result_json(3, 0, &[("wall_s".to_string(), 1.5, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
    }
}
