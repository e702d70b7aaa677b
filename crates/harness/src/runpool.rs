//! The harness's handle on the worker pool.
//!
//! The evaluation matrix is embarrassingly parallel: every `(manager,
//! workload, opts)` run owns its `Machine`, seeded RNG and manager, so
//! runs can execute on any thread in any order and still produce
//! bit-identical reports. [`map_parallel`] runs them on
//! [`tiersim::pool::map`] with [`jobs`] workers, results in item order.
//!
//! The worker count defaults to `available_parallelism` and is overridden
//! by the `MTM_JOBS` environment variable when set; `MTM_JOBS=1` forces
//! the serial path (useful for timing comparisons and for
//! byte-identical-output checks against the parallel path).

/// Number of workers to use: `available_parallelism` by default, or
/// exactly `MTM_JOBS` when that environment variable is set (an explicit
/// job count wins even above the core count — the runs are simulation
/// work, so oversubscription is harmless and this keeps the parallel
/// code path testable on small machines). Always at least 1. An
/// unparsable `MTM_JOBS` is ignored with a `warning:` line on stderr.
pub fn jobs() -> usize {
    let hw = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    match std::env::var("MTM_JOBS") {
        Ok(raw) => match raw.parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!("warning: ignoring MTM_JOBS={raw:?} (expected a positive integer)");
                hw
            }
        },
        Err(_) => hw,
    }
}

/// Maps `f` over `items` on [`jobs`] workers, preserving order. A
/// panicking item propagates its panic to the caller.
pub fn map_parallel<I, T, F>(items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    tiersim::pool::map(jobs(), items, f)
}

#[cfg(test)]
mod tests {
    #[test]
    fn jobs_is_at_least_one() {
        assert!(super::jobs() >= 1);
    }
}
