//! Benchmark entry point.
//!
//! ```text
//! perfbench --workload <graph|tiering|serving> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs passes over the workload's jobs while the next one is expected
//! to end within `--seconds`; without tracing, at least [`MIN_WARM`]
//! passes lasting [`MIN_WARM_S`] follow the cold first one (see
//! README.md). Prints the metrics by name and unit, and ends with one
//! JSON result line. With `--trace 1` passes alternate traced and
//! untraced, the per-layer metrics come from the first (cold) traced
//! pass, and the spans are written to
//! `.bench_spans/<workload>-seed<n>.tsv` when the run ends.

use std::process::ExitCode;

use mtm_harness::Opts;
use perfbench::jobs::{mix, Ctx, WORKLOADS};
use perfbench::metrics::{
    layer_metrics, median, peak_rss_mb, result_json, summarize, Summary, END_TO_END,
};
use perfbench::trace::{now, Span};

const USAGE: &str = "usage: perfbench --workload <graph|tiering|serving> --seed <n> \
                     --seconds <s> --trace <0|1>";

/// At most this many passes, however long `--seconds` is.
const MAX_PASSES: usize = 64;

/// Untraced passes after the cold first one that an untraced run makes
/// at least, however short `--seconds` is: the host-time medians come from
/// them. On `tiering`, whose passes are long, they make the run longer
/// than `--seconds`, so that its median still covers several passes.
const MIN_WARM: usize = 3;

/// Seconds those warm passes last at least: on `graph` the cold pass
/// takes most of `--seconds`, and its stepping needs a window of its own.
const MIN_WARM_S: f64 = 15.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Access-stream salt for `seed`: 0 keeps the paper streams, any other
/// seed is mixed so nearby seeds differ widely.
fn salt(seed: u64) -> u64 {
    if seed == 0 {
        0
    } else {
        mix(seed)
    }
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn commit() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_string());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).unwrap_or(head),
            None => head,
        },
        None => "unknown".to_string(),
    }
}

fn write_spans(path: &str, spans: &[(String, Span)]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "scenario\tlabel\tspan\tparent\tname\tstart_ns\tend_ns\tcalls")?;
    for (label, s) in spans {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            f,
            "{}\t{label}\t{}\t{parent}\t{}\t{}\t{}\t{}",
            s.scenario, s.id, s.name, s.start_ns, s.end_ns, s.calls
        )?;
    }
    f.flush()
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The library reads these (run workers, sanitizer, faults, admission,
    // shadow copies); any of them would silently change what is measured.
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("MTM_"))
        .collect();
    if !set.is_empty() {
        eprintln!("perfbench: refusing to run with {} set; unset it first", set.join(", "));
        return ExitCode::from(2);
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let workers = 2.min(nproc);
    let opts = Opts::default();
    let salt = salt(args.seed);

    let start = now();
    // Every pass in run order, with whether it was traced. Pass 0 is
    // cold: fresh allocator and, on `graph`, the R-MAT build that the
    // graph cache then keeps for every later pass.
    let mut passes: Vec<(bool, Summary)> = Vec::new();
    let mut spans: Vec<(String, Span)> = Vec::new();
    let mut peak_mb = 0.0;
    let mut warm_s = 0.0;
    for pass_no in 0..MAX_PASSES {
        let is_traced = args.trace && pass_no % 2 == 0;
        let pass_start = now();
        let ctx = Ctx { opts, salt, traced: is_traced, epoch: now() };
        let pass =
            perfbench::run_pass(&args.workload, &ctx, workers).expect("workload was checked");
        let s = summarize(&pass);
        eprintln!(
            "[perfbench] {} pass {pass_no}{}: {:.3} s wall, {:.3} s cpu, {:.1} MiB peak, {} failed",
            args.workload,
            if is_traced { " (traced)" } else { "" },
            pass.wall_s,
            pass.cpu_s,
            peak_rss_mb(),
            s.failed
        );
        for f in &s.failures {
            eprintln!("[perfbench]   {f}");
        }
        if pass_no == 0 {
            if is_traced {
                for (job, out) in pass.jobs.iter().zip(&pass.outs) {
                    if let Ok(o) = out {
                        spans.extend(o.spans.iter().map(|sp| (job.label(), sp.clone())));
                    }
                }
            }
            // Later passes reuse freed memory unevenly across the
            // allocator's per-thread arenas, so only the first pass gives
            // a peak that does not depend on the pass count.
            peak_mb = peak_rss_mb();
        }
        passes.push((is_traced, s));
        let pass_s = pass_start.elapsed().as_secs_f64();
        if pass_no > 0 && !is_traced {
            warm_s += pass_s;
        }
        let warm = passes[1..].iter().filter(|(t, _)| !t).count();
        let traced = passes.iter().filter(|(t, _)| *t).count();
        // Tracing needs a second traced pass: the overhead compares warm
        // traced passes with warm untraced ones, never the cold first pass.
        let minimum = if args.trace {
            warm >= 1 && traced >= 2
        } else {
            warm >= MIN_WARM && warm_s >= MIN_WARM_S
        };
        // Stop before a pass that would overrun `--seconds` if it took as
        // long as this one, so a run lasts about `--seconds` and makes
        // the same number of passes on a fast host as on a slow one.
        let next_end = start.elapsed().as_secs_f64() + pass_s;
        if minimum && next_end > args.seconds {
            break;
        }
    }

    let mut attempted: u64 = passes.iter().map(|(_, s)| s.attempted).sum();
    let mut failed: u64 = passes.iter().map(|(_, s)| s.failed).sum();
    // Every pass simulates the same scenarios, traced or not.
    let cold = &passes[0].1;
    let digest = cold.digest;
    for (_, s) in &passes[1..] {
        attempted += 1;
        if s.digest != digest {
            failed += 1;
            eprintln!("[perfbench] check failed: pass digests differ");
        }
    }

    let warm: Vec<&Summary> = passes[1..].iter().filter(|(t, _)| !t).map(|(_, s)| s).collect();
    let warm_traced: Vec<&Summary> =
        passes[1..].iter().filter(|(t, _)| *t).map(|(_, s)| s).collect();
    let med = |of: &[&Summary], f: fn(&Summary) -> f64| {
        median(&of.iter().map(|s| f(s)).collect::<Vec<_>>())
    };
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        let hooked_t = med(&warm_traced, |s| s.hooked_s);
        let hooked_u = med(&warm, |s| s.hooked_s);
        for (name, unit) in layer_metrics() {
            let v = match name.as_str() {
                "trace.overhead_s" => hooked_t - hooked_u,
                "trace.overhead_frac" => (hooked_t - hooked_u) / hooked_u.max(1e-9),
                "trace.spans" => cold.spans as f64,
                n => cold.layers.get(n).copied().unwrap_or(0.0),
            };
            metrics.push((name, v, unit));
        }
        let path = format!(".bench_spans/{}-seed{}.tsv", args.workload, args.seed);
        if let Err(e) = write_spans(&path, &spans) {
            eprintln!("[perfbench] warning: could not write {path}: {e}");
        }
    } else {
        // `graph` is measured for its cold R-MAT build, which only the
        // first pass makes, so its wall and setup come from that pass;
        // elsewhere the cold pass only adds allocator warm-up, so wall and
        // setup come from the warm passes.
        let (wall_s, setup_s) = if args.workload == "graph" {
            (cold.wall_s, cold.setup_s)
        } else {
            (med(&warm, |s| s.wall_s), med(&warm, |s| s.setup_s))
        };
        let e2e = [
            wall_s,
            setup_s,
            med(&warm, |s| s.accesses_per_s),
            peak_mb,
            1.0 - failed as f64 / attempted as f64,
            cold.mtm_vs_ft,
        ];
        for ((name, unit), v) in END_TO_END.iter().zip(e2e) {
            metrics.push((name.to_string(), v, unit));
        }
    }

    println!(
        "perfbench workload={} seed={} passes={} traced_passes={} workers={workers} nproc={nproc} \
         commit={} profile=scale:{},threads:{},intervals:{},interval_ns:{}",
        args.workload,
        args.seed,
        passes.iter().filter(|(t, _)| !t).count(),
        passes.iter().filter(|(t, _)| *t).count(),
        commit(),
        opts.scale,
        opts.threads,
        opts.intervals,
        opts.interval_ns
    );
    println!("sim_digest {digest:016x}");
    for (name, v, unit) in &metrics {
        println!("{name} {v} {unit}");
    }
    println!("{}", result_json(attempted, failed, &metrics));
    ExitCode::SUCCESS
}
