//! The three workloads as lists of jobs, and the scenario runner that
//! runs one job with spans around every layer boundary.
//!
//! Every scenario is built from the library's public constructors and
//! stepped through `ScenarioProgress` directly (never through the
//! harness's process-wide run cache), so each process starts cold.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use mtm::MtmManager;
use mtm_baselines::{hemem_pebs_config, HeMem};
use mtm_harness::runs::{build_manager, healthy_machine_for, mtm_config, OVERALL_MANAGERS};
use mtm_harness::scenarios::{
    generator_config, run_churn_cell, SCENARIO_GENERATORS, SCENARIO_MANAGERS,
};
use mtm_harness::Opts;
use mtm_scenario::{
    restore_checkpoint, save_checkpoint, ChurnSchedule, Serving, ServingConfig, TraceRecorder,
    TraceReplayer,
};
use mtm_workloads::{build_paper_workload_seeded, Gups, GupsConfig};
use tiersim::machine::{Machine, MachineConfig};
use tiersim::sim::{MemoryManager, RunReport, ScenarioProgress, Workload};
use tiersim::tier::{optane_four_tier, two_tier};

use crate::trace::{Span, Timed, Tracer};

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 3] = ["graph", "tiering", "serving"];

/// The Table 2 applications the `tiering` workload runs (the 1:1
/// read/write ones; BFS and SSSP belong to `graph`).
pub const TIERING_APPS: [&str; 4] = ["GUPS", "VoltDB", "Cassandra", "Spark"];

/// Fig. 12 sweep: working-set sizes as fractions of the fast tier.
pub const FIG12_RATIOS: [f64; 5] = [0.5, 0.75, 1.0, 1.25, 1.5];

/// SplitMix64 finalizer: spreads a seed over all 64 bits.
pub fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One unit of work for the pool.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Job {
    /// A Table 2 application under one manager on the four-tier machine.
    Paper { manager: &'static str, app: &'static str },
    /// The `hmc` runs of every tiering app, one after another. Each holds
    /// ~100 MB of Memory Mode cache state; one job keeps two of them from
    /// overlapping, so peak memory does not depend on the schedule.
    Hmc,
    /// One cell of the Fig. 12 two-tier GUPS sweep.
    Fig12 { manager: &'static str, threads: usize, ratio: f64 },
    /// A serving generator under one manager.
    Serving { manager: &'static str, generator: &'static str },
    /// The tenant churn cell (MTM, hotness-weighted arbiter).
    Churn,
    /// MTM/KVDrift checkpointed at mid-run and resumed in fresh objects.
    Checkpoint,
    /// MTM/KVDrift recorded to an MTMTRACE, decoded and replayed.
    TraceReplay,
}

impl Job {
    /// Manager the job runs (per-manager metrics group by it).
    pub fn manager(&self) -> &'static str {
        match *self {
            Job::Paper { manager, .. }
            | Job::Fig12 { manager, .. }
            | Job::Serving { manager, .. } => manager,
            Job::Hmc => "hmc",
            Job::Churn | Job::Checkpoint | Job::TraceReplay => "MTM",
        }
    }

    /// Application of an MTM-vs-first-touch pair, if the job is one.
    pub fn app(&self) -> Option<&'static str> {
        match *self {
            Job::Paper { app, .. } => Some(app),
            Job::Serving { generator, .. } => Some(generator),
            _ => None,
        }
    }

    /// Short display label.
    pub fn label(&self) -> String {
        match *self {
            Job::Paper { manager, app } => format!("{manager}/{app}"),
            Job::Hmc => "hmc/tiering".to_string(),
            Job::Fig12 { manager, threads, ratio } => format!("fig12/{manager}/{threads}t/{ratio}"),
            Job::Serving { manager, generator } => format!("{manager}/{generator}"),
            Job::Churn => "churn/MTM".to_string(),
            Job::Checkpoint => "ckpt/MTM/KVDrift".to_string(),
            Job::TraceReplay => "trace/MTM/KVDrift".to_string(),
        }
    }
}

/// The jobs of a workload, in dispatch order, or `None` for an unknown
/// name. Long jobs come first so the pool's tail stays short.
pub fn catalog(workload: &str) -> Option<Vec<Job>> {
    let mut jobs = Vec::new();
    match workload {
        "graph" => {
            for app in ["BFS", "SSSP"] {
                for manager in ["MTM", "first-touch"] {
                    jobs.push(Job::Paper { manager, app });
                }
            }
        }
        "tiering" => {
            jobs.push(Job::Hmc);
            for threads in [24, 16] {
                for manager in ["MTM", "hemem"] {
                    for ratio in FIG12_RATIOS {
                        jobs.push(Job::Fig12 { manager, threads, ratio });
                    }
                }
            }
            for app in TIERING_APPS {
                for manager in OVERALL_MANAGERS.into_iter().filter(|&m| m != "hmc") {
                    jobs.push(Job::Paper { manager, app });
                }
            }
        }
        "serving" => {
            jobs.push(Job::Churn);
            jobs.push(Job::TraceReplay);
            jobs.push(Job::Checkpoint);
            for generator in SCENARIO_GENERATORS {
                for manager in SCENARIO_MANAGERS {
                    jobs.push(Job::Serving { manager, generator });
                }
            }
        }
        _ => return None,
    }
    Some(jobs)
}

/// Per-pass settings shared by every job.
pub struct Ctx {
    /// Simulation profile.
    pub opts: Opts,
    /// Access-stream salt derived from `--seed` (0 keeps paper streams).
    pub salt: u64,
    /// Wrap managers with [`Timed`] and record hook spans.
    pub traced: bool,
    /// Span timestamps are relative to this instant.
    pub epoch: Instant,
}

/// A named correctness check and its outcome.
#[derive(Clone, Debug)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
}

/// Everything one job hands back.
#[derive(Default)]
pub struct JobOut {
    /// Spans of the job, in opening order.
    pub spans: Vec<Span>,
    /// Reports of the scenarios the job stepped itself.
    pub driven: Vec<RunReport>,
    /// Reports of scenarios stepped inside a library function (the churn
    /// cell): they enter the digest, not the access-loop metrics.
    pub opaque: Vec<RunReport>,
    /// Correctness checks made inside the job.
    pub checks: Vec<Check>,
    /// Serialized sizes, by per-layer metric name.
    pub bytes: Vec<(&'static str, u64)>,
}

impl JobOut {
    fn check(&mut self, name: String, ok: bool) {
        self.checks.push(Check { name, ok });
    }
}

/// The text two runs of the same scenario must agree on byte for byte.
pub fn fingerprint(r: &RunReport) -> String {
    format!("{r:?}\n{}", r.telemetry.to_json())
}

/// Runs one job; a panic anywhere in it comes back as `Err`.
pub fn run_job(ctx: &Ctx, index: usize, job: Job) -> Result<JobOut, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let tracer = Tracer::new(index as u32, ctx.epoch);
        let mut out = JobOut::default();
        tracer.span("scenario", || body(ctx, &tracer, &mut out, job));
        out.spans = tracer.into_spans();
        out
    }))
    .map_err(|e| {
        let msg = e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string());
        format!("{}: {msg}", job.label())
    })
}

fn wrap<'t>(ctx: &Ctx, t: &'t Tracer, m: Box<dyn MemoryManager>) -> Box<dyn MemoryManager + 't> {
    if ctx.traced {
        Box::new(Timed::new(m, t))
    } else {
        m
    }
}

/// Machine and manager of `manager` on the four-tier machine.
fn four_tier(manager: &str, opts: &Opts) -> (Machine, Box<dyn MemoryManager>) {
    let topo = optane_four_tier(opts.scale);
    (healthy_machine_for(manager, opts, topo.clone()), build_manager(manager, opts, &topo))
}

/// A serving generator's configuration for a run of `intervals`, salted.
fn serving_config(ctx: &Ctx, generator: &str, intervals: u64) -> ServingConfig {
    let o = &ctx.opts;
    let mut cfg = generator_config(generator, o.scale, o.threads, intervals)
        .unwrap_or_else(|| panic!("unknown generator {generator:?}"));
    cfg.seed ^= ctx.salt;
    cfg
}

fn steps(
    t: &Tracer,
    p: &mut ScenarioProgress,
    m: &mut Machine,
    mgr: &mut dyn MemoryManager,
    wl: &mut dyn Workload,
    intervals: std::ops::Range<u64>,
) {
    t.span("steps", || {
        for ivl in intervals {
            p.step_interval(m, mgr, wl, ivl);
        }
    });
}

/// Verifies the machine after the last interval, finishes the report and
/// round-trips its telemetry JSON.
fn end(
    t: &Tracer,
    out: &mut JobOut,
    p: ScenarioProgress,
    m: &mut Machine,
    mgr: &mut dyn MemoryManager,
    wl: &mut dyn Workload,
) -> RunReport {
    let label = format!("{}/{}", mgr.name(), wl.name());
    let consistent = t
        .span("verify", || catch_unwind(AssertUnwindSafe(|| m.verify_consistency(&label))).is_ok());
    out.check(format!("verify_consistency {label}"), consistent);
    let report = t.span("finish", || p.finish(m, mgr, wl));
    let (len, parsed) = t.span("json", || {
        let json = report.telemetry.to_json();
        (json.len() as u64, obs::json::parse(&json).is_ok())
    });
    out.bytes.push(("obs.json_bytes", len));
    out.check(format!("telemetry JSON parses back {label}"), parsed);
    report
}

/// Steps a constructed scenario from `start` to its report.
fn simulate(
    ctx: &Ctx,
    t: &Tracer,
    out: &mut JobOut,
    mut m: Machine,
    mgr: Box<dyn MemoryManager>,
    wl: &mut dyn Workload,
) -> RunReport {
    let mut mgr = wrap(ctx, t, mgr);
    let mut p = t.span("start", || ScenarioProgress::start(&mut m, mgr.as_mut(), wl));
    steps(t, &mut p, &mut m, mgr.as_mut(), wl, 0..ctx.opts.intervals);
    end(t, out, p, &mut m, mgr.as_mut(), wl)
}

fn body(ctx: &Ctx, t: &Tracer, out: &mut JobOut, job: Job) {
    let o = &ctx.opts;
    match job {
        Job::Paper { manager, app } => paper(ctx, t, out, manager, app),
        Job::Hmc => {
            for app in TIERING_APPS {
                paper(ctx, t, out, "hmc", app);
            }
        }
        Job::Fig12 { manager, threads, ratio } => {
            // Built as `mtm_harness::fig12` builds its cells.
            let topo = two_tier(o.scale);
            let mut gcfg = GupsConfig::paper(o.scale, threads);
            let fast = topo.components[0].capacity;
            gcfg.table_bytes = ((fast as f64 * ratio) as u64).max(16 << 20) & !((2 << 20) - 1);
            gcfg.rotate_every = None;
            gcfg.cpu_ns_per_op = 150.0;
            gcfg.seed ^= ctx.salt;
            let mut wl = t.span("construct", || Gups::new(gcfg));
            let (m, mgr) = t.span("machine", || {
                let mut mc = MachineConfig::new(topo.clone(), threads);
                mc.interval_ns = o.interval_ns;
                let mgr: Box<dyn MemoryManager> = match manager {
                    "MTM" => Box::new(MtmManager::new(mtm_config(o), 1)),
                    "hemem" => {
                        mc.pebs = hemem_pebs_config(&topo);
                        Box::new(HeMem::new(o.promote_budget()))
                    }
                    other => panic!("unknown fig12 manager {other:?}"),
                };
                (Machine::new(mc), mgr)
            });
            let r = simulate(ctx, t, out, m, mgr, &mut wl);
            out.driven.push(r);
        }
        Job::Serving { manager, generator } => {
            let cfg = serving_config(ctx, generator, o.intervals);
            let mut wl = t.span("construct", || Serving::new(cfg));
            let (m, mgr) = t.span("machine", || four_tier(manager, o));
            let r = simulate(ctx, t, out, m, mgr, &mut wl);
            out.driven.push(r);
        }
        Job::Churn => {
            let schedule = ChurnSchedule::serving_default(o.intervals);
            let outcomes = t.span("churn", || run_churn_cell("MTM", &schedule, o, o.intervals));
            out.opaque.extend(outcomes.into_iter().map(|c| c.report));
        }
        Job::Checkpoint => checkpoint(ctx, t, out),
        Job::TraceReplay => trace_replay(ctx, t, out),
    }
}

/// Runs a Table 2 application under `manager` on the four-tier machine.
fn paper(ctx: &Ctx, t: &Tracer, out: &mut JobOut, manager: &str, app: &str) {
    let o = &ctx.opts;
    let mut wl = t
        .span("construct", || build_paper_workload_seeded(app, o.scale, o.threads, ctx.salt))
        .unwrap_or_else(|| panic!("unknown workload {app:?}"));
    let (m, mgr) = t.span("machine", || four_tier(manager, o));
    let r = simulate(ctx, t, out, m, mgr, wl.as_mut());
    out.driven.push(r);
}

/// Runs MTM/KVDrift to mid-run, saves an MTMCKPT1 checkpoint, restores
/// it into fresh objects and finishes there. The resumed report must
/// equal the straight-through `Serving` job's (checked after the pass).
fn checkpoint(ctx: &Ctx, t: &Tracer, out: &mut JobOut) {
    let o = &ctx.opts;
    let intervals = o.intervals;
    let stop_at = (intervals / 2).max(1);
    let cfg = serving_config(ctx, "KVDrift", intervals);
    let mut wl = t.span("construct", || Serving::new(cfg.clone()));
    let (mut m, mgr) = t.span("machine", || four_tier("MTM", o));
    let mut mgr = wrap(ctx, t, mgr);
    let mut p = t.span("start", || ScenarioProgress::start(&mut m, mgr.as_mut(), &mut wl));
    steps(t, &mut p, &mut m, mgr.as_mut(), &mut wl, 0..stop_at);
    let blob = t
        .span("ckpt_save", || save_checkpoint(&m, mgr.as_ref(), &wl, &p, stop_at))
        .unwrap_or_else(|e| panic!("MTM/KVDrift does not checkpoint: {e}"));
    drop((m, mgr, wl, p));
    out.bytes.push(("scenario.ckpt_bytes", blob.len() as u64));

    let (mut m, mgr, mut wl) = t.span("ckpt_restore", || {
        let (m, mgr) = four_tier("MTM", o);
        (m, mgr, Serving::new(cfg))
    });
    let mut mgr = wrap(ctx, t, mgr);
    let (mut p, next) = t
        .span("ckpt_restore", || restore_checkpoint(&blob, &mut m, mgr.as_mut(), &mut wl))
        .unwrap_or_else(|e| panic!("MTM/KVDrift checkpoint does not restore: {e}"));
    steps(t, &mut p, &mut m, mgr.as_mut(), &mut wl, next..intervals);
    let r = end(t, out, p, &mut m, mgr.as_mut(), &mut wl);
    out.driven.push(r);
}

/// Records MTM/KVDrift into an MTMTRACE, encodes, decodes and replays
/// it on a fresh machine; the replay must equal the live run.
fn trace_replay(ctx: &Ctx, t: &Tracer, out: &mut JobOut) {
    let o = &ctx.opts;
    let cfg = serving_config(ctx, "KVDrift", o.intervals);
    let mut rec = t.span("construct", || TraceRecorder::new(Serving::new(cfg)));
    let (m, mgr) = t.span("machine", || four_tier("MTM", o));
    let live = simulate(ctx, t, out, m, mgr, &mut rec);

    let bytes = t
        .span("trace_encode", || rec.into_trace())
        .unwrap_or_else(|e| panic!("MTM/KVDrift does not record: {e}"));
    out.bytes.push(("scenario.trace_bytes", bytes.len() as u64));
    let mut replay = t
        .span("trace_decode", || TraceReplayer::from_bytes(&bytes))
        .unwrap_or_else(|e| panic!("the MTMTRACE does not decode: {e}"));
    drop(bytes);
    let (m, mgr) = t.span("machine", || four_tier("MTM", o));
    let replayed = simulate(ctx, t, out, m, mgr, &mut replay);
    out.check(
        "trace replay equals the live run".to_string(),
        fingerprint(&replayed) == fingerprint(&live),
    );
    out.driven.push(live);
    out.driven.push(replayed);
}

/// Checks that span jobs: the resumed checkpoint run must equal the
/// straight-through MTM/KVDrift serving run.
pub fn cross_checks(jobs: &[Job], outs: &[Result<JobOut, String>]) -> Vec<Check> {
    let first = |want: Job| {
        jobs.iter()
            .position(|&j| j == want)
            .and_then(|i| outs[i].as_ref().ok())
            .and_then(|o| o.driven.first())
    };
    if !jobs.contains(&Job::Checkpoint) {
        return Vec::new();
    }
    let straight = first(Job::Serving { manager: "MTM", generator: "KVDrift" });
    let resumed = first(Job::Checkpoint);
    let ok = match (straight, resumed) {
        (Some(a), Some(b)) => fingerprint(a) == fingerprint(b),
        _ => false,
    };
    vec![Check { name: "checkpoint-resumed run equals the straight run".to_string(), ok }]
}
