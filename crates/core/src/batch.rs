//! Parallel fan-out for batch compilation.
//!
//! Batch compilation over one shared [`ssync_arch::Device`] is
//! embarrassingly parallel: every circuit compiles independently, reading
//! the same immutable device artifact. This module provides the shared
//! worker-pool primitive — a deterministic, index-preserving parallel map
//! over `std::thread::scope` — plus the worker-count resolution used by
//! [`crate::SSyncCompiler::compile_batch`] and the bench harness.
//!
//! Determinism: results are written back by item index, so the output
//! order (and every individual result) is independent of the worker count
//! and of thread scheduling.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Environment variable overriding the batch worker count.
pub const WORKERS_ENV: &str = "SSYNC_BATCH_WORKERS";

/// Resolves the number of batch workers: the `SSYNC_BATCH_WORKERS`
/// environment variable wins when set to a positive integer, then a
/// positive `configured` count (0 means "auto"), then
/// [`std::thread::available_parallelism`].
pub fn resolve_workers(configured: usize) -> usize {
    if let Some(n) = std::env::var(WORKERS_ENV).ok().and_then(|v| v.trim().parse::<usize>().ok()) {
        if n >= 1 {
            return n;
        }
    }
    if configured >= 1 {
        return configured;
    }
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Applies `f` to every item, fanning out over `workers` scoped threads,
/// and returns the results **in item order** regardless of worker count.
/// Items are handed out through a shared atomic cursor, so long and short
/// compilations load-balance naturally. With one worker (or at most one
/// item) everything runs on the calling thread — no spawn overhead for
/// the degenerate cases.
///
/// Every worker thread calls `init` exactly once and threads the
/// resulting value through each of its `f` invocations. This is how batch
/// workers carry a reusable [`crate::CompileScratch`] across their share
/// of a batch — the state recycles allocations and must never influence
/// results (determinism is enforced by the batch golden tests, which hold
/// at any worker count).
///
/// # Panics
///
/// Re-raises a panic from `init` or `f` on the calling thread.
pub fn parallel_map_with<T, R, S, I, F>(workers: usize, items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    let workers = workers.max(1).min(items.len());
    if workers <= 1 {
        let mut state = init();
        return items.iter().enumerate().map(|(i, item)| f(&mut state, i, item)).collect();
    }
    let cursor = AtomicUsize::new(0);
    let worker_outputs: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init();
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        local.push((i, f(&mut state, i, item)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
            .collect()
    });
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for (i, r) in worker_outputs.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots.into_iter().map(|r| r.expect("every item is processed exactly once")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_item_order_for_any_worker_count() {
        let items: Vec<usize> = (0..37).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * 2).collect();
        for workers in [1, 2, 3, 8, 64] {
            let got = parallel_map_with(
                workers,
                &items,
                || (),
                |(), i, &x| {
                    assert_eq!(i, x);
                    x * 2
                },
            );
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs_run_inline() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map_with(8, &empty, || (), |(), _, &x| x).is_empty());
        assert_eq!(parallel_map_with(8, &[41u32], || (), |(), _, &x| x + 1), vec![42]);
    }

    #[test]
    fn per_worker_state_is_initialised_once_per_worker() {
        let items: Vec<usize> = (0..64).collect();
        for workers in [1usize, 4] {
            // Each worker counts how many items it processed through its
            // own state; the counts must cover every item exactly once.
            let results = parallel_map_with(
                workers,
                &items,
                || 0usize,
                |seen, i, &x| {
                    *seen += 1;
                    (i, x, *seen)
                },
            );
            assert_eq!(results.len(), items.len(), "workers = {workers}");
            for (slot, &(i, x, seen)) in results.iter().enumerate() {
                assert_eq!(slot, i);
                assert_eq!(i, x);
                assert!(seen >= 1 && seen <= items.len());
            }
        }
    }

    #[test]
    fn resolve_workers_prefers_config_over_auto() {
        if std::env::var(WORKERS_ENV).is_err() {
            // Only meaningful when the process-global override is unset
            // (it deliberately wins over the configured count).
            assert_eq!(resolve_workers(3), 3);
        }
        assert!(resolve_workers(0) >= 1);
    }
}
