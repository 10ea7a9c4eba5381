//! The worker-thread runner: [`fan_out`] spreads independent jobs across
//! scoped threads and hands the results back in job order.
//!
//! Its one caller is the `mdz-store` archive writer. Its decide pass runs
//! one job per axis stream; its encode pass one per (epoch, axis) stretch,
//! which anchors (drops the MT reference) and takes up the decisions in
//! force at its start ([`crate::Compressor::resume`]). So the jobs of a
//! pass share nothing and the writer's bytes do not depend on the worker
//! count.

use std::sync::atomic::{AtomicUsize, Ordering};

use mdz_obs::Obs;

/// Runs `run` over `jobs` on up to `workers` scoped threads, returning the
/// results in job order.
///
/// Each worker owns one context built by `make_ctx` (scratch buffers,
/// compressors, decoders, …) for its whole lifetime. Jobs are claimed
/// through a shared atomic cursor, so a worker that finishes early
/// immediately takes the next unclaimed job — coarse-grained work stealing
/// without a deque. With `workers <= 1` or fewer than two jobs everything
/// runs inline on the caller thread. A panic in `run` is re-raised on the
/// caller thread.
///
/// `obs` records one `core.parallel.worker_jobs` observation per worker
/// (the inline path counts as a single worker), exposing how evenly the
/// atomic-cursor scheduler spread the batch.
///
/// # Examples
///
/// ```
/// use mdz_core::{fan_out, Obs};
///
/// let squares = fan_out(&[1, 2, 3, 4], 2, &Obs::noop(), || (), |_, &j| j * j);
/// assert_eq!(squares, [1, 4, 9, 16]);
/// ```
pub fn fan_out<J, C, R>(
    jobs: &[J],
    workers: usize,
    obs: &Obs,
    make_ctx: impl Fn() -> C + Sync,
    run: impl Fn(&mut C, &J) -> R + Sync,
) -> Vec<R>
where
    J: Sync,
    R: Send,
{
    if workers <= 1 || jobs.len() <= 1 {
        let mut ctx = make_ctx();
        if !jobs.is_empty() {
            obs.observe("core.parallel.worker_jobs", jobs.len() as f64);
        }
        return jobs.iter().map(|j| run(&mut ctx, j)).collect();
    }
    let threads = workers.min(jobs.len());
    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(jobs.len());
    slots.resize_with(jobs.len(), || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut ctx = make_ctx();
                    let mut local: Vec<(usize, R)> = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs.len() {
                            break;
                        }
                        local.push((i, run(&mut ctx, &jobs[i])));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(local) => {
                    obs.observe("core.parallel.worker_jobs", local.len() as f64);
                    for (i, r) in local {
                        slots[i] = Some(r);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    slots.into_iter().map(|s| s.expect("every job claimed exactly once")).collect()
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use mdz_obs::Registry;

    use super::*;

    #[test]
    fn results_come_back_in_job_order_for_every_worker_count() {
        let jobs: Vec<u64> = (0..37).collect();
        let expected: Vec<u64> = jobs.iter().map(|j| j * j).collect();
        for workers in 0..=5 {
            let got = fan_out(&jobs, workers, &Obs::noop(), || (), |_, &j| j * j);
            assert_eq!(got, expected, "{workers} workers");
        }
        assert!(fan_out(&[] as &[u64], 4, &Obs::noop(), || (), |_, &j| j).is_empty());
    }

    #[test]
    fn each_worker_keeps_its_context_and_reports_its_jobs() {
        let registry = Arc::new(Registry::new());
        let obs = Obs::new(registry.clone());
        // A context counts the jobs its worker has run, so only a worker's
        // first job sees 1.
        let ran = fan_out(
            &[(); 9],
            3,
            &obs,
            || 0usize,
            |ran, _| {
                *ran += 1;
                *ran
            },
        );
        let firsts = ran.iter().filter(|&&n| n == 1).count();
        assert!((1..=3).contains(&firsts), "{ran:?}");
        let snapshot = registry.snapshot();
        let jobs = snapshot.histogram("core.parallel.worker_jobs").unwrap();
        assert_eq!((jobs.count, jobs.sum), (3, 9.0));
    }
}
