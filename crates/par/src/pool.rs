//! The scoped thread pool: deterministic parallel maps and folds, `scope`.

use crate::deque::WorkDeque;
use std::cell::{Cell, RefCell};

thread_local! {
    /// Index of the pool worker running on this thread, if any.
    static WORKER: Cell<Option<usize>> = const { Cell::new(None) };
}

/// The index of the pool worker executing the current job (`w0` is the
/// calling thread when it doubles as a worker). `None` outside a pool —
/// callers labeling per-worker telemetry treat that as worker 0.
#[must_use]
pub fn current_worker() -> Option<usize> {
    WORKER.with(Cell::get)
}

/// Marks the current thread as worker `w` for the guard's lifetime,
/// restoring the previous value on drop (nested pools, caller-as-worker).
struct WorkerGuard {
    prev: Option<usize>,
}

impl WorkerGuard {
    fn enter(w: usize) -> WorkerGuard {
        WorkerGuard {
            prev: WORKER.with(|c| c.replace(Some(w))),
        }
    }
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        WORKER.with(|c| c.set(prev));
    }
}

/// One worker's schedule: drain the own deque (back), then scan the other
/// deques round-robin and steal (front); exit when every deque is empty.
/// No job is ever added after seeding, so empty-everywhere is final.
fn worker_loop<J, E: FnMut(J)>(deques: &[WorkDeque<J>], w: usize, mut execute: E) {
    let _guard = WorkerGuard::enter(w);
    // Root profiler frame for this worker: everything a job does on this
    // thread is attributed under `par.worker` unless a deeper scope opens.
    let _prof = mtd_telemetry::prof::scope("par.worker");
    let own = &deques[w];
    let mut tasks: u64 = 0;
    let mut steals: u64 = 0;
    let mut scans: u64 = 0;
    loop {
        let job = own.pop().or_else(|| {
            scans += 1;
            steal_scan(deques, w, scans, &mut steals)
        });
        let Some(job) = job else { break };
        tasks += 1;
        mtd_telemetry::observe("par.queue.depth", own.len() as f64);
        execute(job);
    }
    let label = format!("w{w}");
    mtd_telemetry::count_labeled("par.worker.tasks", &label, tasks);
    if steals > 0 {
        mtd_telemetry::count_labeled("par.worker.steals", &label, steals);
    }
}

/// One steal sweep over the other workers' deques in the fixed
/// round-robin order `(w+1 .. w+n) mod n`. Under an active fault plan
/// the order may be reshuffled and the worker stalled — both decisions
/// seeded and pure in `(worker, scan)` — to prove that *which* worker
/// steals *what* never leaks into ordered results. The fast path is the
/// plain loop; `mtd_fault::par_perturb_enabled()` compiles to `false`
/// without the `fault-inject` feature.
fn steal_scan<J>(deques: &[WorkDeque<J>], w: usize, scan: u64, steals: &mut u64) -> Option<J> {
    if mtd_fault::par_perturb_enabled() {
        let mut order: Vec<usize> = (1..deques.len())
            .map(|off| (w + off) % deques.len())
            .collect();
        mtd_fault::steal_order_perturb(w, scan, &mut order);
        mtd_fault::steal_stall(w, scan);
        return order.into_iter().find_map(|victim| {
            let stolen = deques[victim].steal();
            if stolen.is_some() {
                *steals += 1;
            }
            stolen
        });
    }
    (1..deques.len()).find_map(|off| {
        let victim = &deques[(w + off) % deques.len()];
        let stolen = victim.steal();
        if stolen.is_some() {
            *steals += 1;
        }
        stolen
    })
}

/// Seeds `n` indexed jobs round-robin across `threads` deques, pushed in
/// descending order so each owner pops its share in ascending order.
fn seed_indices(n: usize, threads: usize) -> Vec<WorkDeque<usize>> {
    let deques: Vec<WorkDeque<usize>> = (0..threads).map(|_| WorkDeque::new()).collect();
    for i in (0..n).rev() {
        deques[i % threads].push(i);
    }
    deques
}

/// A fixed-size scoped thread pool. Cheap to construct: threads are
/// spawned per call and joined before the call returns, so borrowed data
/// (`&Dataset`, `&Engine`) flows into jobs without `'static` bounds.
#[derive(Debug, Clone, Copy)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool running jobs on up to `threads` workers (min 1).
    #[must_use]
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: threads.max(1),
        }
    }

    /// Configured worker count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `0..n` in parallel, returning results in input
    /// order: [`Pool::par_fold`] with no per-worker state. With one
    /// worker (or one job) this *is* the sequential loop — same thread,
    /// same order — so output is bit-identical across thread counts by
    /// construction.
    ///
    /// # Panics
    /// Propagates the first worker panic after all workers stop.
    pub fn par_map_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.par_fold(n, &mut vec![(); self.threads], |(), i| f(i))
    }

    /// Runs `step(state, i)` for every `i` in `0..n`, each worker `w`
    /// folding into its own `states[w]`, and returns the steps' results
    /// in input order. It runs on `min(threads, states.len(), n)`
    /// workers, the calling thread being worker 0; with one worker it
    /// *is* the sequential loop over `states[0]`.
    ///
    /// Every index runs exactly once, but which worker runs it depends on
    /// scheduling, so each state holds an unpredictable share of the
    /// indices. The states merged in any order equal the sequential fold
    /// whenever folding and merging are associative and commutative
    /// (integer sums, disjoint keyed maps); anything that must follow
    /// input order belongs in the per-index results.
    ///
    /// # Panics
    /// Panics when `states` is empty; propagates the first worker panic
    /// after all workers stop.
    pub fn par_fold<S, T, F>(&self, n: usize, states: &mut [S], step: F) -> Vec<T>
    where
        S: Send,
        T: Send,
        F: Fn(&mut S, usize) -> T + Sync,
    {
        let workers = self.threads.min(states.len()).min(n.max(1));
        let (first, rest) = states
            .split_first_mut()
            .expect("par_fold needs a state per worker");
        if workers <= 1 {
            return (0..n).map(|i| step(first, i)).collect();
        }
        let deques = seed_indices(n, workers);
        let mut slots: Vec<Option<T>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        std::thread::scope(|scope| {
            let deques = &deques;
            let step = &step;
            let handles: Vec<_> = rest[..workers - 1]
                .iter_mut()
                .enumerate()
                .map(|(k, state)| {
                    scope.spawn(move || {
                        let mut local: Vec<(usize, T)> = Vec::new();
                        worker_loop(deques, k + 1, |i| local.push((i, step(state, i))));
                        mtd_telemetry::flush_thread();
                        local
                    })
                })
                .collect();
            // The calling thread doubles as worker 0.
            let mut local: Vec<(usize, T)> = Vec::new();
            worker_loop(deques, 0, |i| local.push((i, step(first, i))));
            for (i, v) in local {
                slots[i] = Some(v);
            }
            for h in handles {
                match h.join() {
                    Ok(pairs) => {
                        for (i, v) in pairs {
                            slots[i] = Some(v);
                        }
                    }
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
        });
        slots
            .into_iter()
            .map(|s| s.expect("every seeded job ran"))
            .collect()
    }

    /// A grain size that splits `n` jobs into roughly four contiguous
    /// chunks per worker — small enough for the stealing scheduler to
    /// balance stragglers, large enough to amortize per-job scheduling
    /// overhead when the jobs themselves are tiny.
    #[must_use]
    pub fn auto_grain(&self, n: usize) -> usize {
        (n / (self.threads * 4)).max(1)
    }

    /// Coarsened variant of [`Pool::par_map_indexed`]: indices are
    /// dispatched as contiguous runs of `grain` (the last run may be
    /// shorter), each run computed in ascending order on one worker.
    /// Results come back in input order, bit-identical to the sequential
    /// loop for every `(threads, grain)` — only the scheduling unit
    /// changes. Use [`Pool::auto_grain`] when in doubt.
    pub fn par_map_chunked<T, F>(&self, n: usize, grain: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        let grain = grain.max(1);
        if n == 0 {
            return Vec::new();
        }
        let chunks = n.div_ceil(grain);
        if self.threads <= 1 || chunks <= 1 {
            return (0..n).map(f).collect();
        }
        let f = &f;
        let per_chunk = self.par_map_indexed(chunks, |c| {
            let start = c * grain;
            (start..(start + grain).min(n)).map(f).collect::<Vec<T>>()
        });
        let mut out: Vec<T> = Vec::with_capacity(n);
        for mut chunk in per_chunk {
            out.append(&mut chunk);
        }
        out
    }

    /// Collects heterogeneous jobs via [`Scope::spawn`], then runs them
    /// all over the work-stealing deques before returning. Jobs may
    /// borrow anything outliving the `scope` call.
    pub fn scope<'env, R>(&self, body: impl FnOnce(&Scope<'env>) -> R) -> R {
        let sc = Scope {
            jobs: RefCell::new(Vec::new()),
        };
        let result = body(&sc);
        let jobs = sc.jobs.into_inner();
        let n = jobs.len();
        let threads = self.threads.min(n.max(1));
        if threads <= 1 {
            for job in jobs {
                job();
            }
            return result;
        }
        let deques: Vec<WorkDeque<Job<'env>>> = (0..threads).map(|_| WorkDeque::new()).collect();
        for (i, job) in jobs.into_iter().enumerate().rev() {
            deques[i % threads].push(job);
        }
        std::thread::scope(|scope| {
            let deques = &deques;
            let handles: Vec<_> = (1..threads)
                .map(|w| {
                    scope.spawn(move || {
                        worker_loop(deques, w, |job: Job<'env>| job());
                        mtd_telemetry::flush_thread();
                    })
                })
                .collect();
            worker_loop(deques, 0, |job: Job<'env>| job());
            for h in handles {
                if let Err(panic) = h.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });
        result
    }
}

/// A deferred job captured by [`Pool::scope`].
type Job<'env> = Box<dyn FnOnce() + Send + 'env>;

/// Spawn collector handed to the [`Pool::scope`] body.
pub struct Scope<'env> {
    jobs: RefCell<Vec<Job<'env>>>,
}

impl<'env> Scope<'env> {
    /// Queues a job; it runs when the `scope` body returns.
    pub fn spawn<F: FnOnce() + Send + 'env>(&self, f: F) {
        self.jobs.borrow_mut().push(Box::new(f));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn map_is_input_ordered_for_every_thread_count() {
        let expect: Vec<u64> = (0..97u64).map(|i| i * i).collect();
        for threads in 1..=8 {
            let got = Pool::new(threads).par_map_indexed(97, |i| (i as u64) * (i as u64));
            assert_eq!(got, expect, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_job_maps() {
        let pool = Pool::new(4);
        assert_eq!(pool.par_map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(pool.par_map_indexed(1, |i| i + 10), vec![10]);
    }

    #[test]
    fn chunked_map_matches_indexed_map_for_every_grain() {
        let expect: Vec<u64> = (0..103u64).map(|i| i.wrapping_mul(i) ^ 5).collect();
        for threads in [1, 2, 4, 8] {
            let pool = Pool::new(threads);
            for grain in [0, 1, 3, 16, 103, 500] {
                let got =
                    pool.par_map_chunked(103, grain, |i| (i as u64).wrapping_mul(i as u64) ^ 5);
                assert_eq!(got, expect, "threads={threads} grain={grain}");
            }
            let auto = pool.auto_grain(103);
            assert!(auto >= 1);
            assert_eq!(pool.par_map_chunked(0, auto, |i| i), Vec::<usize>::new());
        }
    }

    #[test]
    fn scope_runs_every_job_with_borrows() {
        let total = AtomicU64::new(0);
        for threads in [1, 3] {
            total.store(0, Ordering::SeqCst);
            Pool::new(threads).scope(|s| {
                for i in 1..=20u64 {
                    let total = &total;
                    s.spawn(move || {
                        total.fetch_add(i, Ordering::SeqCst);
                    });
                }
            });
            assert_eq!(total.load(Ordering::SeqCst), 210, "threads={threads}");
        }
    }

    #[test]
    fn worker_index_is_set_inside_jobs_and_clear_outside() {
        assert_eq!(current_worker(), None);
        let workers = Pool::new(3).par_map_indexed(12, |_| current_worker());
        assert!(workers.iter().all(|w| matches!(w, Some(0..=2))));
        assert_eq!(current_worker(), None);
    }

    #[test]
    fn each_worker_folds_into_its_own_state() {
        // Four states but three workers: the spare state stays untouched.
        let mut states = vec![Vec::new(); 4];
        Pool::new(3).par_fold(40, &mut states, |seen: &mut Vec<Option<usize>>, _| {
            seen.push(current_worker());
        });
        for (w, seen) in states.iter().enumerate() {
            assert!(seen.iter().all(|&at| at == Some(w)), "state {w}: {seen:?}");
        }
        assert!(states[3].is_empty());
        assert_eq!(states.iter().map(Vec::len).sum::<usize>(), 40);
    }

    #[test]
    #[should_panic(expected = "job 7 exploded")]
    fn map_propagates_worker_panics() {
        Pool::new(4).par_map_indexed(16, |i| {
            if i == 7 {
                panic!("job 7 exploded");
            }
            i
        });
    }
}
