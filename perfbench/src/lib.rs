//! End-to-end and per-layer benchmark of the MTM reproduction.
//!
//! The benchmark runs one named workload (`graph`, `tiering` or
//! `serving`, see [`jobs::catalog`]) as a list of independent scenarios
//! on a small worker pool, times the calls into each library layer from
//! outside, and folds the result into metrics ([`metrics`]). `README.md`
//! in this package documents the metrics and what each workload is for.

pub mod jobs;
pub mod metrics;
pub mod trace;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use jobs::{run_job, Ctx, JobOut};
use metrics::Pass;

/// Runs every job of `workload` once on `workers` threads. Jobs are
/// taken in catalog order by whichever worker is free; results come
/// back index-aligned, so nothing downstream depends on the schedule.
pub fn run_pass(workload: &str, ctx: &Ctx, workers: usize) -> Option<Pass> {
    let jobs = jobs::catalog(workload)?;
    let workers = workers.max(1);
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<Result<JobOut, String>>>> =
        Mutex::new((0..jobs.len()).map(|_| None).collect());
    let cpu0 = metrics::process_cpu_s();
    let t0 = trace::now();
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&job) = jobs.get(i) else { break };
                let out = run_job(ctx, i, job);
                slots.lock().expect("a job panicked while publishing its result")[i] = Some(out);
            });
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = metrics::process_cpu_s() - cpu0;
    let outs = slots
        .into_inner()
        .expect("a job panicked while publishing its result")
        .into_iter()
        .map(|o| o.expect("every job ran"))
        .collect();
    Some(Pass { workers, wall_s, cpu_s, jobs, outs })
}
