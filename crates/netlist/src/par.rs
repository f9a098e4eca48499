//! Minimal scoped thread-pool helper for sharded characterization.
//!
//! The batched testbench [`crate::tb::run_batched_activity`], which
//! characterizes both the vector MACs of `bsc-mac` and the gate-level
//! array of `bsc-systolic`, splits its stimulus into independent 64-lane
//! batches, each evaluated on a worker's own [`crate::Simulator`].
//! [`run_indexed_with`] fans those batches out over a work-stealing index
//! with `std::thread::scope`, returning results in job-index order so the
//! caller's merge is deterministic regardless of worker count or
//! scheduling.
//!
//! No external dependencies (the repo builds offline); `available_parallelism`
//! caps the worker count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of workers [`run_indexed`] uses for `jobs` jobs when the caller
/// does not override it: `min(jobs, available_parallelism)`.
pub fn default_workers(jobs: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    jobs.clamp(1, hw.max(1)).min(jobs.max(1))
}

/// Runs `f(0), f(1), …, f(jobs - 1)` across a scoped thread pool and
/// returns the results **in job-index order**.
///
/// Jobs are claimed from a shared atomic counter (work-stealing), so
/// uneven job durations do not idle workers.  `workers` overrides the
/// pool size (`None` → `min(jobs, available_parallelism)`); with one
/// worker everything runs on the calling thread — handy for determinism
/// tests comparing threaded and single-threaded runs.
///
/// The output vector depends only on `f` and `jobs`, never on the worker
/// count: a panicking job propagates the panic to the caller.
pub fn run_indexed<T, F>(jobs: usize, workers: Option<usize>, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_with(jobs, workers, || (), move |(), i| f(i))
}

/// [`run_indexed`] with per-worker reusable state: each worker thread calls
/// `init` exactly once and threads the value through every job it claims.
///
/// This is how the batched testbench amortizes expensive per-batch
/// setup — a [`crate::Simulator`] costs a full levelization + tape build,
/// so workers construct one each and reset it between batches instead of
/// rebuilding it per batch.  For determinism the jobs themselves must not
/// depend on state carried across batches (callers reset the simulator),
/// and results still come back in job-index order.
pub fn run_indexed_with<S, T, I, F>(jobs: usize, workers: Option<usize>, init: I, f: F) -> Vec<T>
where
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    if jobs == 0 {
        return Vec::new();
    }
    let workers = workers.unwrap_or_else(|| default_workers(jobs)).clamp(1, jobs);
    if workers == 1 {
        let mut state = init();
        return (0..jobs).map(|i| f(&mut state, i)).collect();
    }

    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..jobs).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs {
                        break;
                    }
                    let out = f(&mut state, i);
                    slots.lock().expect("result store poisoned")[i] = Some(out);
                }
            });
        }
    });
    slots
        .into_inner()
        .expect("result store poisoned")
        .into_iter()
        .map(|s| s.expect("every job index filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_index_order() {
        let out = run_indexed(17, None, |i| i * i);
        assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_matches_threaded() {
        let seq = run_indexed(9, Some(1), |i| i as u64 * 3 + 1);
        let par = run_indexed(9, Some(4), |i| i as u64 * 3 + 1);
        assert_eq!(seq, par);
    }

    #[test]
    fn zero_jobs_is_empty() {
        let out: Vec<u32> = run_indexed(0, None, |_| unreachable!());
        assert!(out.is_empty());
    }

    #[test]
    fn per_worker_state_is_initialized_once_per_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let out = run_indexed_with(
            12,
            Some(3),
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |jobs_on_this_worker, i| {
                *jobs_on_this_worker += 1;
                i * 2
            },
        );
        assert_eq!(out, (0..12).map(|i| i * 2).collect::<Vec<_>>());
        // One init per worker, not per job.
        assert!(inits.load(Ordering::Relaxed) <= 3);
    }
}
