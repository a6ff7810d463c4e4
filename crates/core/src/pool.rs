//! Deterministic in-tree thread pool for the packed-kernel channel loops.
//!
//! The paper's accelerator keeps every PE lane busy by decoding 8 clusters
//! per block in parallel; the software mirror of that is keeping every CPU
//! core busy across the **channel** dimension, which is embarrassingly
//! parallel: each output channel of `matvec`/`matmul_t` is an
//! independent accumulation over its own packed block stream. This module
//! supplies the worker substrate (the build container has no crates.io
//! access, so it is `std`-only: long-lived `std::thread` workers draining a
//! chunked index-range queue behind a `Mutex`/`Condvar` pair).
//!
//! **Determinism guarantee**: the pool only ever distributes *whole* work
//! items (channels) across workers. Every channel's accumulation runs the
//! same serial code in the same order no matter which worker executes it,
//! and each worker writes to a disjoint output range — so kernel output is
//! **bit-identical to the serial path at any thread count** (asserted by
//! the parallel-kernels test suite). Scheduling order affects only timing,
//! never arithmetic.
//!
//! A [`ThreadPool`] is cheap to share: the serving path builds one per
//! model (`Arc<ThreadPool>`, see `fineq-lm`) and every forward pass borrows
//! it. `ThreadPool::new(1)` spawns no workers and runs callers inline, so a
//! single code path covers serial and parallel execution.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Environment variable overriding the serving thread count
/// (`FINEQ_THREADS=8`). Values that fail to parse, or `0`, are ignored.
pub const THREADS_ENV: &str = "FINEQ_THREADS";

/// The thread count the serving path uses when the caller does not pick
/// one: [`THREADS_ENV`] if set to a positive integer, otherwise the
/// machine's available parallelism (1 if that cannot be determined).
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// A borrowed parallel-for body (`body(worker, start, end)`), smuggled to
/// the workers as a raw pointer.
///
/// Soundness: [`ThreadPool::run`] does not return until every chunk of the
/// job has completed (`pending_chunks == 0`), so the pointee outlives every
/// dereference; workers only dereference after claiming a chunk of the
/// *current* job under the state lock.
type RawBody = *const (dyn Fn(usize, usize, usize) + Sync);

/// One in-flight parallel-for: a body plus its chunked index range.
struct Job {
    body: RawBody,
    n_items: usize,
    chunk: usize,
    n_chunks: usize,
}

// The raw body pointer crosses threads inside the job descriptor; see the
// soundness note on [`RawBody`].
unsafe impl Send for Job {}

struct State {
    /// Bumped once per submitted job, so sleeping workers can tell a new
    /// job from the one they already finished.
    epoch: u64,
    job: Option<Job>,
    next_chunk: usize,
    pending_chunks: usize,
    panicked: bool,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Workers sleep here between jobs.
    work: Condvar,
    /// The submitting thread sleeps here until `pending_chunks == 0`.
    done: Condvar,
}

impl Shared {
    /// Claims and executes chunks of the epoch-`epoch` job until none
    /// remain. Runs on workers and on the submitting thread alike; `who`
    /// is the executing thread's stable worker index, handed to the body
    /// so callers can keep raceless per-worker scratch.
    fn drain(&self, epoch: u64, who: usize, job: (RawBody, usize, usize, usize)) {
        let (body, n_items, chunk, n_chunks) = job;
        loop {
            let c = {
                let mut st = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
                if st.epoch != epoch || st.next_chunk >= n_chunks {
                    return;
                }
                let c = st.next_chunk;
                st.next_chunk += 1;
                c
            };
            let start = c * chunk;
            let end = (start + chunk).min(n_items);
            // A panicking body must not wedge the pool: record it, keep
            // the chunk accounting correct, and let the submitter re-panic.
            let ok = catch_unwind(AssertUnwindSafe(|| {
                let body = unsafe { &*body };
                body(who, start, end);
            }))
            .is_ok();
            let mut st = self.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            if !ok {
                st.panicked = true;
            }
            st.pending_chunks -= 1;
            if st.pending_chunks == 0 {
                self.done.notify_all();
            }
        }
    }
}

fn worker_loop(shared: Arc<Shared>, who: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let claimed = {
            let mut st = shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    if let Some(job) = &st.job {
                        seen_epoch = st.epoch;
                        break (seen_epoch, (job.body, job.n_items, job.chunk, job.n_chunks));
                    }
                    // The job we missed already finished; wait for the next.
                    seen_epoch = st.epoch;
                }
                st = shared.work.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        shared.drain(claimed.0, who, claimed.1);
    }
}

/// A fixed-size pool of `threads - 1` workers plus the submitting thread.
///
/// See the module docs for the determinism guarantee. The pool is `Sync`:
/// concurrent [`ThreadPool::run`] calls from different threads serialize on
/// an internal submission lock (one job in flight at a time).
pub struct ThreadPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// Only one job may be in flight; submitters queue here.
    submit: Mutex<()>,
    threads: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool").field("threads", &self.threads).finish()
    }
}

impl ThreadPool {
    /// A pool executing parallel-for bodies on `threads` threads total:
    /// `threads - 1` spawned workers plus the thread that calls
    /// [`ThreadPool::run`]. `new(1)` spawns nothing and runs inline.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "a thread pool needs at least one thread");
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                epoch: 0,
                job: None,
                next_chunk: 0,
                pending_chunks: 0,
                panicked: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (0..threads.saturating_sub(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fineq-pool-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        Self { shared, workers, submit: Mutex::new(()), threads }
    }

    /// Total compute threads (workers + the submitting thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `body(worker, start, end)` over disjoint chunks covering
    /// `0..n_items`, distributed across the pool, and returns once every
    /// chunk has completed. Chunks are contiguous ranges of at least
    /// `min_chunk` items **and a multiple of it** (the final chunk may be
    /// shorter), so a whole work item — or work *group*, when the caller
    /// processes items several at a time — is never split across chunks.
    /// `worker` is the executing thread's stable index in `0..threads()`
    /// — at most one live chunk per index at any time, so bodies may keep
    /// per-worker scratch without locking.
    ///
    /// Falls back to a single inline `body(0, 0, n_items)` call when the
    /// pool has one thread or the range is too small to split — the serial
    /// and parallel paths execute the same per-item code either way.
    ///
    /// # Panics
    ///
    /// Re-raises (as a new panic) any panic raised by `body` on a worker.
    pub fn run(
        &self,
        n_items: usize,
        min_chunk: usize,
        body: &(dyn Fn(usize, usize, usize) + Sync),
    ) {
        if n_items == 0 {
            return;
        }
        // Over-chunk by 4x the thread count so early-finishing workers
        // steal the tail instead of idling (channel costs are uneven:
        // outlier-heavy channels decode the same bytes but different MACs).
        // Rounding up to a multiple of `min_chunk` keeps caller work
        // groups whole in every chunk, not just the ones `max` sized.
        let target_chunks = self.threads * 4;
        let min_chunk = min_chunk.max(1);
        let chunk = n_items.div_ceil(target_chunks).max(min_chunk).next_multiple_of(min_chunk);
        let n_chunks = n_items.div_ceil(chunk);
        if self.threads == 1 || n_chunks <= 1 {
            body(0, 0, n_items);
            return;
        }

        // Erase the borrow lifetime so the descriptor can sit in shared
        // state; see the soundness note on [`RawBody`] — `run` does not
        // return until every chunk has completed.
        let raw: RawBody = unsafe {
            std::mem::transmute::<*const (dyn Fn(usize, usize, usize) + Sync), RawBody>(body)
        };
        let _submit = self.submit.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let epoch = {
            let mut st =
                self.shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            debug_assert!(st.job.is_none(), "one job in flight at a time");
            st.job = Some(Job { body: raw, n_items, chunk, n_chunks });
            st.next_chunk = 0;
            st.pending_chunks = n_chunks;
            st.panicked = false;
            st.epoch += 1;
            self.shared.work.notify_all();
            st.epoch
        };
        // The submitting thread is a full participant, taking the one
        // worker index (`threads - 1`) no spawned worker holds.
        self.shared.drain(epoch, self.threads - 1, (raw, n_items, chunk, n_chunks));
        let panicked = {
            let mut st =
                self.shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            while st.pending_chunks > 0 {
                st = self.shared.done.wait(st).unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            st.job = None;
            st.panicked
        };
        if panicked {
            panic!("fineq thread pool: a parallel kernel body panicked on a worker");
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st =
                self.shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn covers_every_index_exactly_once() {
        for threads in [1usize, 2, 4, 7] {
            let pool = ThreadPool::new(threads);
            for n in [0usize, 1, 2, 3, 16, 97, 256] {
                let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                pool.run(n, 1, &|_, start, end| {
                    for h in &hits[start..end] {
                        h.fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "threads {threads} n {n}"
                );
            }
        }
    }

    #[test]
    fn disjoint_chunk_writes_reassemble_the_range() {
        let pool = ThreadPool::new(4);
        let n = 1000;
        let mut out = vec![0usize; n];
        // Disjoint-range writes through a raw pointer, the exact pattern
        // the kernels use.
        struct Ptr(*mut usize);
        unsafe impl Send for Ptr {}
        unsafe impl Sync for Ptr {}
        impl Ptr {
            fn get(&self) -> *mut usize {
                self.0
            }
        }
        let ptr = Ptr(out.as_mut_ptr());
        pool.run(n, 1, &|_, start, end| {
            for i in start..end {
                unsafe { ptr.get().add(i).write(i * i) };
            }
        });
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i * i);
        }
    }

    #[test]
    fn pool_is_reusable_across_jobs() {
        let pool = ThreadPool::new(3);
        for round in 0..20usize {
            let sum = AtomicUsize::new(0);
            pool.run(round + 1, 1, &|_, start, end| {
                sum.fetch_add((start..end).sum::<usize>(), Ordering::Relaxed);
            });
            assert_eq!(sum.into_inner(), (0..=round).sum::<usize>(), "round {round}");
        }
    }

    #[test]
    fn min_chunk_is_respected() {
        let pool = ThreadPool::new(4);
        let starts = Mutex::new(Vec::new());
        pool.run(100, 40, &|_, start, end| {
            starts.lock().unwrap().push((start, end));
        });
        let mut ranges = starts.into_inner().unwrap();
        ranges.sort_unstable();
        // 100 items at >=40 per chunk: at most 3 chunks, contiguous cover.
        assert!(ranges.len() <= 3);
        assert_eq!(ranges.first().unwrap().0, 0);
        assert_eq!(ranges.last().unwrap().1, 100);
        for w in ranges.windows(2) {
            assert_eq!(w[0].1, w[1].0, "chunks must tile the range");
        }
        assert!(ranges[..ranges.len() - 1].iter().all(|(s, e)| e - s >= 40));
    }

    #[test]
    fn chunks_are_whole_multiples_of_min_chunk() {
        // Callers that process items in fixed-size groups (the grouped
        // GEMV) rely on every chunk but the last being a whole number of
        // groups — otherwise group remainders leak into slow paths.
        let pool = ThreadPool::new(7);
        let starts = Mutex::new(Vec::new());
        pool.run(256, 4, &|_, start, end| {
            starts.lock().unwrap().push((start, end));
        });
        let mut ranges = starts.into_inner().unwrap();
        ranges.sort_unstable();
        assert_eq!(ranges.first().unwrap().0, 0);
        assert_eq!(ranges.last().unwrap().1, 256);
        for w in ranges.windows(2) {
            assert_eq!(w[0].1, w[1].0, "chunks must tile the range");
        }
        for &(s, e) in &ranges[..ranges.len() - 1] {
            assert_eq!((e - s) % 4, 0, "chunk {s}..{e} must be a whole number of groups");
        }
    }

    #[test]
    fn worker_panic_propagates_to_the_submitter() {
        let pool = ThreadPool::new(4);
        let hit = catch_unwind(AssertUnwindSafe(|| {
            pool.run(64, 1, &|_, start, _| {
                if start == 0 {
                    panic!("boom");
                }
            });
        }));
        assert!(hit.is_err(), "panic must surface");
        // The pool stays usable afterwards.
        let sum = AtomicUsize::new(0);
        pool.run(10, 1, &|_, start, end| {
            sum.fetch_add(end - start, Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 10);
    }

    #[test]
    fn worker_indices_are_stable_and_exclusive() {
        // Every chunk reports a worker index < threads, and no two chunks
        // run under the same index concurrently — the contract that lets
        // kernel bodies keep lock-free per-worker scratch.
        for threads in [2usize, 4, 7] {
            let pool = ThreadPool::new(threads);
            let live: Vec<AtomicUsize> = (0..threads).map(|_| AtomicUsize::new(0)).collect();
            let bad = AtomicUsize::new(0);
            pool.run(512, 1, &|worker, start, end| {
                if worker >= threads || live[worker].fetch_add(1, Ordering::SeqCst) != 0 {
                    bad.fetch_add(1, Ordering::SeqCst);
                }
                // A little work so chunks overlap in time.
                let mut acc = 0u64;
                for i in start..end {
                    acc = acc.wrapping_mul(31).wrapping_add(i as u64);
                }
                std::hint::black_box(acc);
                live[worker].fetch_sub(1, Ordering::SeqCst);
            });
            assert_eq!(bad.load(Ordering::SeqCst), 0, "threads {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_is_rejected() {
        let _ = ThreadPool::new(0);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
