//! The workspace's one ordered worker pool.
//!
//! Independent evaluation runs (every `(manager, workload, opts)` run owns
//! its `Machine`, seeded RNG and manager) and R-MAT's edge-range chunks are
//! pure functions of their input, so they may execute on any thread in any
//! order. [`map`] runs them on `std::thread::scope` workers pulling items
//! from one shared queue and returns the results in item order, so
//! callers stay deterministic for any worker count. The library never
//! picks the count: the harness passes `MTM_JOBS`, R-MAT passes
//! `available_parallelism`.

use std::sync::Mutex;

/// Maps `f` over `items` on up to `workers` threads and returns the
/// results **in item order**. With one worker or one item the items run
/// inline on the calling thread, in order: the exact serial behavior.
///
/// A panicking item propagates its panic to the caller once every worker
/// has stopped (`std::thread::scope` re-raises it).
pub fn map<I, T, F>(workers: usize, items: Vec<I>, f: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(I) -> T + Sync,
{
    let n = items.len();
    if workers <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            scope.spawn(|| loop {
                // lint:allow(panic-path): no code that can panic runs while the queue lock is held
                let next = queue.lock().expect("queue poisoned").next();
                let Some((i, item)) = next else { break };
                let out = f(item);
                // lint:allow(panic-path): each index leaves the queue once, so no other worker holds or poisons this slot's lock
                *results[i].lock().expect("result slot poisoned") = Some(out);
            });
        }
    });
    results
        .into_iter()
        // lint:allow(panic-path): thread::scope re-raises worker panics before this line can run with an unfilled or poisoned slot
        .map(|r| r.into_inner().expect("result slot poisoned").expect("worker filled every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn results_keep_item_order_for_any_worker_count() {
        let items: Vec<u64> = (0..1000).collect();
        let serial: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x)).collect();
        for workers in [1, 2, 3, 7, 32] {
            let out = map(workers, items.clone(), |x: u64| x.wrapping_mul(x));
            assert_eq!(out, serial, "workers={workers}");
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let hits = AtomicU64::new(0);
        let out = map(4, (0..333u64).collect(), |x| {
            hits.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.iter().sum::<u64>(), (0..333).sum::<u64>());
        assert_eq!(hits.load(Ordering::Relaxed), 333);
    }

    #[test]
    fn heterogeneous_boxed_closures_run() {
        let a = 7u64;
        let jobs: Vec<Box<dyn FnOnce() -> u64 + Send>> =
            vec![Box::new(|| 1), Box::new(move || a), Box::new(|| 40 + 2)];
        assert_eq!(map(2, jobs, |job| job()), vec![1, 7, 42]);
    }

    #[test]
    fn empty_input_yields_nothing() {
        for workers in [1, 4] {
            assert!(map(workers, Vec::<u8>::new(), |b| b).is_empty());
        }
    }

    #[test]
    fn a_panicking_item_reaches_the_caller_inline_and_threaded() {
        for workers in [1, 4] {
            let caught = std::panic::catch_unwind(|| {
                map(workers, (0..8u32).collect(), |x| {
                    assert_ne!(x, 5, "item 5 fails");
                    x
                })
            });
            assert!(caught.is_err(), "workers={workers}: the panic was swallowed");
        }
    }
}
