//! The benchmark must measure the same program the harness runs: the
//! timing wrapper forwards every manager hook exactly, and the simulated
//! output of a pass depends neither on tracing nor on the worker count.

use mtm_harness::runs::{build_manager, healthy_machine_for, run_pair, OVERALL_MANAGERS};
use mtm_harness::Opts;
use perfbench::jobs::Ctx;
use perfbench::metrics::{layer_metrics, summarize, END_TO_END};
use perfbench::trace::{now, Timed, Tracer};
use tiersim::sim::run_scenario;
use tiersim::tier::optane_four_tier;

#[test]
fn wrapped_runs_are_byte_identical_to_run_pair() {
    let opts = Opts::quick();
    for manager in OVERALL_MANAGERS {
        for app in ["GUPS", "VoltDB"] {
            let plain = run_pair(manager, app, &opts);
            let topo = optane_four_tier(opts.scale);
            let mut machine = healthy_machine_for(manager, &opts, topo.clone());
            let tracer = Tracer::new(0, now());
            let mut mgr = Timed::new(build_manager(manager, &opts, &topo), &tracer);
            let mut wl = mtm_workloads::build_paper_workload(app, opts.scale, opts.threads)
                .expect("paper workload");
            let wrapped = run_scenario(&mut machine, &mut mgr, wl.as_mut(), opts.intervals);
            assert_eq!(format!("{wrapped:?}"), format!("{plain:?}"), "{manager}/{app} report");
            assert_eq!(
                wrapped.telemetry.to_json(),
                plain.telemetry.to_json(),
                "{manager}/{app} telemetry"
            );
            drop(mgr);
            let spans = tracer.into_spans();
            let intervals = spans.iter().filter(|s| s.name == "interval").count() as u64;
            assert_eq!(intervals, opts.intervals, "{manager}/{app}: one span per interval");
            assert!(spans.iter().any(|s| s.name == "init"), "{manager}/{app}: init span");
        }
    }
}

#[test]
fn simulated_output_ignores_tracing_and_worker_count() {
    for workload in ["graph", "tiering", "serving"] {
        let run = |traced: bool, workers: usize| {
            let ctx = Ctx { opts: Opts::quick(), salt: 7, traced, epoch: now() };
            summarize(&perfbench::run_pass(workload, &ctx, workers).expect("known workload"))
        };
        let base = run(false, 1);
        assert_eq!(base.failed, 0, "{workload}: {:?}", base.failures);
        for (traced, workers) in [(false, 2), (true, 2)] {
            let s = run(traced, workers);
            assert_eq!(s.failed, 0, "{workload}: {:?}", s.failures);
            assert_eq!(s.digest, base.digest, "{workload} traced={traced} workers={workers}");
            assert_eq!(s.mtm_vs_ft.to_bits(), base.mtm_vs_ft.to_bits(), "{workload}");
            for key in ["tiersim.accesses", "virt.app_ms", "virt.migration_ms", "migrate.bytes"] {
                assert_eq!(s.layers.get(key), base.layers.get(key), "{workload} {key}");
            }
        }
    }
}

#[test]
fn benchmark_json_lists_every_metric_the_binary_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = obs::json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, String)> {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let e2e: Vec<(String, String)> =
        END_TO_END.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect();
    assert_eq!(names("end_to_end"), e2e);
    let layers: Vec<(String, String)> =
        layer_metrics().into_iter().map(|(n, u)| (n, u.to_string())).collect();
    assert_eq!(names("per_layer"), layers);
}
