//! `mtm-bench` — in-repo benchmark harness plus benches regenerating
//! the paper's tables and figures at a reduced (CI-sized) scale.
//!
//! The harness (see [`runner`], [`stats`], [`report`]) replaces
//! `criterion` so the workspace builds with zero external dependencies:
//! warmup + N timed samples over `std::time::Instant`, auto-batching
//! for nanosecond-scale routines, mean/p50/min/stddev summaries, and a
//! JSON report per suite under `results/bench_<suite>.json` so BENCH
//! trajectories can be tracked across PRs.
//!
//! Run everything with `cargo bench -p mtm-bench`; add `-- --quick`
//! (or `MTM_BENCH_QUICK=1`) for a single-sample bit-rot check.
//!
//! Each bench target maps to evaluation artifacts (see `DESIGN.md`):
//!
//! | bench | paper artifacts |
//! |-------|-----------------|
//! | `profiling` | Fig. 1, Fig. 6, Fig. 8, Table 7 |
//! | `migration` | Fig. 3, Fig. 11 |
//! | `overall` | Fig. 4, Fig. 5, Tables 3-6, Fig. 12 |
//! | `ablation` | Fig. 7, Fig. 9, Fig. 10 |
//! | `substrate` | simulator hot paths (access, scan, migrate) |
//! | `workloads` | workload setup (R-MAT graph generation) |

pub mod report;
pub mod runner;
pub mod stats;

pub use runner::{Bench, BenchConfig, BenchResult};
pub use stats::Stats;

use mtm_harness::Opts;

/// Bench-sized options: small, fast, deterministic.
pub fn bench_opts() -> Opts {
    let mut o = Opts::quick();
    o.scale = 1 << 13;
    o.intervals = 8;
    o.threads = 4;
    o
}
