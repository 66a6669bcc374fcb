//! Offline stand-in for `rayon`: the data-parallel subset the planning
//! hot path uses (`par_iter` on slices, `into_par_iter` on ranges and
//! vectors, `map`/`filter_map`/`collect`/`for_each`, [`join`], and
//! [`scope_fifo`]), executed on `std::thread::scope`.
//!
//! Scheduling is **dynamic claiming**: a parallel call with `T` threads
//! spawns `T − 1` scoped workers and the calling thread works alongside
//! them; every thread takes the next unclaimed index from one shared
//! atomic counter until none is left. Uneven items therefore balance by
//! themselves — with three items of cost `6, 5, 2` on two threads, one
//! thread runs the `6` while the other runs `5` and then `2`, where
//! contiguous chunking would pair `6 + 5` on one thread and leave the
//! other idle after `2`. [`scope_fifo`] claims the same way from a queue
//! rather than a counter, so a running task can queue more work: its
//! threads pop tasks in spawn order until the queue is empty and no task
//! is left running.
//!
//! Semantics match rayon where it matters for the planner:
//! * results are returned in input order regardless of thread count or
//!   which thread claimed which index (each thread keeps its
//!   `(index, result)` pairs and they are placed by index at the join);
//! * closures run exactly once per element;
//! * `ThreadPool::install` bounds the worker count for the enclosed call,
//!   and nested parallel calls inside a worker — or inside the calling
//!   thread while it works — run serially, so total concurrency never
//!   exceeds the bound. Both are a thread-local cap rather than a
//!   persistent pool, restored by a drop guard so a panic cannot leave a
//!   thread capped.
//!
//! There is deliberately no persistent pool: every parallel call spawns
//! its `T − 1` helpers. The spawn's own cost is small (a scoped spawn +
//! join measured 39–49 µs on a 2-vCPU x86-64 VM), but a helper can *start*
//! late: inside a loaded planner, the pricing pass's `join` helper began
//! on average 0.48 ms after the join on the `short-store` benchmark
//! workload and 0.11 ms on `fig17-gpt`, against about 1.5 ms of pricing.
//! So the planner's parallel calls do not hand a helper a fixed share of
//! the work: the pricing pass's two sides claim chunks from one cursor,
//! and the §7 recompute-mode sweep and its finishing are `scope_fifo`
//! tasks any thread claims, so a late helper costs only the work it did
//! not take. A pool's parking, wake-up and shutdown logic would shave the
//! start latency, at the price of threads that outlive every call.
//!
//! Thread count defaults to `std::thread::available_parallelism`, tunable
//! via the `RAYON_NUM_THREADS` environment variable like real rayon.

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParallelIterator};
}

thread_local! {
    static POOL_CAP: Cell<usize> = const { Cell::new(0) };
}

/// Number of worker threads parallel operations will use.
pub fn current_num_threads() -> usize {
    let cap = POOL_CAP.with(Cell::get);
    if cap > 0 {
        return cap;
    }
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Sets this thread's `POOL_CAP` and restores the previous value on drop,
/// including when the guarded code unwinds.
struct CapGuard {
    prev: usize,
}

impl CapGuard {
    fn set(cap: usize) -> CapGuard {
        CapGuard {
            prev: POOL_CAP.with(|c| c.replace(cap)),
        }
    }
}

impl Drop for CapGuard {
    fn drop(&mut self) {
        POOL_CAP.with(|c| c.set(self.prev));
    }
}

/// Evaluate `f(0..n)` in parallel, preserving index order in the output.
fn run_indexed<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let threads = current_num_threads().min(n).max(1);
    if threads == 1 {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let work = || {
        // Real rayon runs nested parallel work on the same bounded pool.
        // The shim's equivalent: each of the T threads holds one slot, so
        // nested par_iter calls inside `f` run serially rather than
        // multiplying the thread count past the pool/cap bound.
        let _cap = CapGuard::set(1);
        let mut done = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return done;
            }
            done.push((i, f(i)));
        }
    };
    let mut slots: Vec<Option<U>> = std::iter::repeat_with(|| None).take(n).collect();
    std::thread::scope(|s| {
        let workers: Vec<_> = (1..threads).map(|_| s.spawn(work)).collect();
        let mut parts = vec![work()];
        for w in workers {
            parts.push(w.join().unwrap_or_else(|e| std::panic::resume_unwind(e)));
        }
        for (i, u) in parts.into_iter().flatten() {
            slots[i] = Some(u);
        }
    });
    slots
        .into_iter()
        .map(|u| u.expect("every index is claimed exactly once"))
        .collect()
}

/// Run `oper_a` and `oper_b`, potentially in parallel, and return both
/// results in argument order, like `rayon::join`.
///
/// With more than one thread, `oper_b` runs on one scoped helper thread
/// while the calling thread runs `oper_a`; under a cap of 1 both run on the
/// calling thread, `oper_a` first. Either way each side holds one slot, so
/// parallel calls nested inside either closure run serially. A panic on
/// either side propagates once both sides have finished.
pub fn join<A, B, RA, RB>(oper_a: A, oper_b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    let serial = current_num_threads() == 1;
    let _cap = CapGuard::set(1);
    if serial {
        return (oper_a(), oper_b());
    }
    std::thread::scope(|s| {
        let b = s.spawn(|| {
            let _cap = CapGuard::set(1);
            oper_b()
        });
        let a = oper_a();
        (a, b.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
    })
}

/// A task of a [`ScopeFifo`].
type FifoTask<'scope> = Box<dyn FnOnce(&ScopeFifo<'scope>) + Send + 'scope>;

/// What the threads of a [`scope_fifo`] share: the task queue, how many
/// tasks (the scope's own `op` included) are still running, and the first
/// panic any of them raised.
struct FifoState<'scope> {
    queue: std::collections::VecDeque<FifoTask<'scope>>,
    running: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// A scope whose tasks run in the order they were spawned, like
/// `rayon::ScopeFifo`. Created by [`scope_fifo`].
pub struct ScopeFifo<'scope> {
    state: std::sync::Mutex<FifoState<'scope>>,
    /// Signalled when a task is queued or the scope's work runs out.
    wake: std::sync::Condvar,
}

impl<'scope> ScopeFifo<'scope> {
    /// Queue `body` behind every task spawned before it. It runs before
    /// [`scope_fifo`] returns, on the caller or on one of the scope's
    /// helper threads, and may spawn further tasks.
    pub fn spawn_fifo<BODY>(&self, body: BODY)
    where
        BODY: FnOnce(&ScopeFifo<'scope>) + Send + 'scope,
    {
        self.lock().queue.push_back(Box::new(body));
        self.wake.notify_one();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FifoState<'scope>> {
        // A task's panic is caught before it can poison the lock.
        self.state.lock().expect("scope_fifo state lock poisoned")
    }

    /// Run `f` as one of the scope's running tasks, keeping its panic.
    fn run(&self, f: impl FnOnce()) {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
        let mut st = self.lock();
        st.running -= 1;
        if let Err(e) = result {
            st.panic.get_or_insert(e);
        }
        if st.running == 0 && st.queue.is_empty() {
            self.wake.notify_all();
        }
    }

    /// Pop and run tasks until the queue is empty and no task is running,
    /// so none can spawn more.
    fn work(&self) {
        let _cap = CapGuard::set(1);
        let mut st = self.lock();
        loop {
            if let Some(task) = st.queue.pop_front() {
                st.running += 1;
                drop(st);
                self.run(|| task(self));
                st = self.lock();
            } else if st.running == 0 {
                return;
            } else {
                st = self.wake.wait(st).expect("scope_fifo state lock poisoned");
            }
        }
    }
}

/// Run `op` with a [`ScopeFifo`] and return its result once every task it
/// spawned, directly or from another task, has run, like
/// `rayon::scope_fifo`.
///
/// With `T` threads, `T − 1` scoped helpers and the calling thread pop one
/// shared queue in spawn order; the caller joins them once `op` returns.
/// Under a cap of 1 no thread is spawned: `op` runs, then every task in
/// spawn order, all on the caller. `op` and every task hold one slot, so
/// parallel calls nested in them run serially. A panic in `op` or a task
/// propagates once every task has run and every helper has stopped.
pub fn scope_fifo<'scope, OP, R>(op: OP) -> R
where
    OP: FnOnce(&ScopeFifo<'scope>) -> R + Send,
    R: Send,
{
    let helpers = current_num_threads().saturating_sub(1);
    let _cap = CapGuard::set(1);
    let scope = ScopeFifo {
        state: std::sync::Mutex::new(FifoState {
            queue: std::collections::VecDeque::new(),
            // `op` counts as running until it returns, so helpers that
            // find the queue empty wait for what it spawns.
            running: 1,
            panic: None,
        }),
        wake: std::sync::Condvar::new(),
    };
    let mut result = None;
    std::thread::scope(|s| {
        for _ in 0..helpers {
            s.spawn(|| scope.work());
        }
        scope.run(|| result = Some(op(&scope)));
        scope.work();
    });
    if let Some(e) = scope.lock().panic.take() {
        std::panic::resume_unwind(e);
    }
    result.expect("op returned without panicking")
}

/// A bounded worker pool: `install` caps the parallelism of everything the
/// closure runs on this thread.
#[derive(Debug, Clone)]
pub struct ThreadPool {
    num_threads: usize,
}

impl ThreadPool {
    /// The pool's worker count.
    pub fn current_num_threads(&self) -> usize {
        self.num_threads
    }

    /// Run `f` with this pool's thread count governing parallel operations.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        let _cap = CapGuard::set(self.num_threads);
        f()
    }
}

/// Builder matching `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

/// Pool construction error (the shim never fails; kept for API parity).
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread pool build error")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

impl ThreadPoolBuilder {
    /// New builder with default (auto) thread count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the worker count (0 = auto).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Build the pool.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let n = if self.num_threads > 0 {
            self.num_threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        };
        Ok(ThreadPool { num_threads: n })
    }
}

/// Conversion into a parallel iterator (by value).
pub trait IntoParallelIterator {
    /// Element type.
    type Item;
    /// The parallel iterator.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Convert.
    fn into_par_iter(self) -> Self::Iter;
}

/// `.par_iter()` on `&collection`.
pub trait IntoParallelRefIterator<'a> {
    /// Element type (a reference).
    type Item;
    /// The parallel iterator.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Borrowing conversion.
    fn par_iter(&'a self) -> Self::Iter;
}

/// The executable side of the shim's parallel iterators.
///
/// Unlike real rayon this is an *eager, indexed* model: every adapter knows
/// its length and how to produce element `i`; consumers run `run_indexed`.
pub trait ParallelIterator: Sized + Sync
where
    Self::Item: Send,
{
    /// Element type.
    type Item;

    /// Number of elements.
    fn len(&self) -> usize;

    /// Whether the iterator is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Produce element `i` (called at most once per index).
    fn get(&self, i: usize) -> Self::Item;

    /// Map each element through `f` in parallel.
    fn map<U: Send, F: Fn(Self::Item) -> U + Sync>(self, f: F) -> Map<Self, F> {
        Map { inner: self, f }
    }

    /// Run `f` on every element in parallel.
    fn for_each<F: Fn(Self::Item) + Sync>(self, f: F) {
        run_indexed(self.len(), |i| f(self.get(i)));
    }

    /// Collect all elements in input order.
    fn collect<C: From<Vec<Self::Item>>>(self) -> C {
        C::from(run_indexed(self.len(), |i| self.get(i)))
    }

    /// Collect, dropping `None` results of `f`, preserving input order.
    fn filter_map<U: Send, F: Fn(Self::Item) -> Option<U> + Sync>(
        self,
        f: F,
    ) -> FilterMap<Self, F> {
        FilterMap { inner: self, f }
    }
}

/// Parallel iterator over a slice.
pub struct SliceIter<'a, T> {
    data: &'a [T],
}

impl<'a, T: Sync + 'a> ParallelIterator for SliceIter<'a, T> {
    type Item = &'a T;

    fn len(&self) -> usize {
        self.data.len()
    }

    fn get(&self, i: usize) -> &'a T {
        &self.data[i]
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = SliceIter<'a, T>;
    fn par_iter(&'a self) -> SliceIter<'a, T> {
        SliceIter { data: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = SliceIter<'a, T>;
    fn par_iter(&'a self) -> SliceIter<'a, T> {
        SliceIter { data: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelIterator for &'a [T] {
    type Item = &'a T;
    type Iter = SliceIter<'a, T>;
    fn into_par_iter(self) -> SliceIter<'a, T> {
        SliceIter { data: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelIterator for &'a Vec<T> {
    type Item = &'a T;
    type Iter = SliceIter<'a, T>;
    fn into_par_iter(self) -> SliceIter<'a, T> {
        SliceIter { data: self }
    }
}

/// Parallel iterator over `Range<usize>`.
pub struct RangeIter {
    start: usize,
    end: usize,
}

impl ParallelIterator for RangeIter {
    type Item = usize;

    fn len(&self) -> usize {
        self.end - self.start
    }

    fn get(&self, i: usize) -> usize {
        self.start + i
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    type Iter = RangeIter;
    fn into_par_iter(self) -> RangeIter {
        RangeIter {
            start: self.start,
            end: self.end.max(self.start),
        }
    }
}

/// Owning parallel iterator over a `Vec` (elements are cloned out by
/// index; real rayon moves them, but clone-on-get keeps the indexed model
/// simple and every use site hands in cheap items).
pub struct VecIter<T> {
    data: Vec<T>,
}

impl<T: Clone + Send + Sync> ParallelIterator for VecIter<T> {
    type Item = T;

    fn len(&self) -> usize {
        self.data.len()
    }

    fn get(&self, i: usize) -> T {
        self.data[i].clone()
    }
}

impl<T: Clone + Send + Sync> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = VecIter<T>;
    fn into_par_iter(self) -> VecIter<T> {
        VecIter { data: self }
    }
}

/// Map adapter.
pub struct Map<I, F> {
    inner: I,
    f: F,
}

impl<I, U, F> ParallelIterator for Map<I, F>
where
    I: ParallelIterator,
    I::Item: Send,
    U: Send,
    F: Fn(I::Item) -> U + Sync,
{
    type Item = U;

    fn len(&self) -> usize {
        self.inner.len()
    }

    fn get(&self, i: usize) -> U {
        (self.f)(self.inner.get(i))
    }
}

/// FilterMap adapter. Because the shim's model is indexed, this adapter is
/// terminal-only: call `collect` on it (element count is unknown until
/// execution).
pub struct FilterMap<I, F> {
    inner: I,
    f: F,
}

impl<I, U, F> FilterMap<I, F>
where
    I: ParallelIterator,
    I::Item: Send,
    U: Send,
    F: Fn(I::Item) -> Option<U> + Sync,
{
    /// Collect the `Some` results in input order.
    pub fn collect<C: From<Vec<U>>>(self) -> C {
        let opts = run_indexed(self.inner.len(), |i| (self.f)(self.inner.get(i)));
        C::from(opts.into_iter().flatten().collect::<Vec<U>>())
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    #[test]
    fn map_collect_preserves_order() {
        let v: Vec<usize> = (0..1000).collect();
        let out: Vec<usize> = v.par_iter().map(|&x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn range_filter_map() {
        let out: Vec<usize> = (0..100usize)
            .into_par_iter()
            .filter_map(|x| (x % 3 == 0).then_some(x))
            .collect();
        assert_eq!(out, (0..100).step_by(3).collect::<Vec<_>>());
    }

    #[test]
    fn pool_install_caps_threads() {
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        pool.install(|| {
            assert_eq!(current_num_threads(), 2);
            let out: Vec<usize> = (0..64usize).into_par_iter().map(|x| x + 1).collect();
            assert_eq!(out.len(), 64);
        });
    }

    #[test]
    fn nested_parallelism_stays_within_pool_bound() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Inner par_iter calls run inside pool workers; total concurrency
        // must stay at the pool width, not workers x inner threads.
        let peak = AtomicUsize::new(0);
        let live = AtomicUsize::new(0);
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let results: Vec<usize> = pool.install(|| {
            (0..8usize)
                .into_par_iter()
                .map(|i| {
                    let inner: Vec<usize> = (0..16usize)
                        .into_par_iter()
                        .map(|j| {
                            let now = live.fetch_add(1, Ordering::SeqCst) + 1;
                            peak.fetch_max(now, Ordering::SeqCst);
                            std::thread::yield_now();
                            live.fetch_sub(1, Ordering::SeqCst);
                            i + j
                        })
                        .collect();
                    inner.len()
                })
                .collect()
        });
        assert_eq!(results, vec![16usize; 8]);
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "nested work exceeded the pool bound: peak {}",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn cap_is_restored_when_the_closure_panics() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let before = current_num_threads();
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let r = catch_unwind(|| pool.install(|| panic!("panic inside install")));
        assert!(r.is_err());
        assert_eq!(current_num_threads(), before, "install leaked its cap");

        pool.install(|| {
            // Every item panics and each thread stops at its first panic,
            // so with 8 items on 4 threads the calling thread is sure to
            // claim (and unwind out of) at least one.
            let r = catch_unwind(AssertUnwindSafe(|| {
                (0..8usize)
                    .into_par_iter()
                    .for_each(|_| panic!("panic inside par_iter"))
            }));
            assert!(r.is_err());
            assert_eq!(current_num_threads(), 4, "par_iter leaked its cap");
        });
        assert_eq!(current_num_threads(), before);
    }

    #[test]
    fn idle_thread_claims_the_items_behind_a_slow_one() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::{Duration, Instant};
        // Item 0 blocks until the fast items 1 and 2 are done (or a
        // timeout passes). Dynamic claiming hands both to the other
        // thread; contiguous chunking would queue item 1 behind item 0.
        let fast_done = AtomicUsize::new(0);
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let ran_on: Vec<std::thread::ThreadId> = pool.install(|| {
            (0..3usize)
                .into_par_iter()
                .map(|i| {
                    if i == 0 {
                        let deadline = Instant::now() + Duration::from_secs(2);
                        while fast_done.load(Ordering::SeqCst) < 2 && Instant::now() < deadline {
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    } else {
                        fast_done.fetch_add(1, Ordering::SeqCst);
                    }
                    std::thread::current().id()
                })
                .collect()
        });
        assert_ne!(ran_on[1], ran_on[0], "item 1 waited behind the slow item");
        assert_ne!(ran_on[2], ran_on[0], "item 2 waited behind the slow item");
    }

    #[test]
    fn calling_thread_evaluates_items() {
        use std::sync::Barrier;
        // Each item waits until both are running, so neither thread can
        // claim both: the two threads of the call run one item each, and
        // one of those threads must be the caller.
        let both_running = Barrier::new(2);
        let caller = std::thread::current().id();
        let pool = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        let ran_on: Vec<std::thread::ThreadId> = pool.install(|| {
            (0..2usize)
                .into_par_iter()
                .map(|_| {
                    both_running.wait();
                    std::thread::current().id()
                })
                .collect()
        });
        assert!(ran_on.contains(&caller), "the caller evaluated no item");
        assert_ne!(ran_on[0], ran_on[1]);
    }

    #[test]
    fn join_runs_each_side_once_and_returns_in_argument_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for threads in [1, 2, 4] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let (a_runs, b_runs) = (AtomicUsize::new(0), AtomicUsize::new(0));
            let (a, b) = pool.install(|| {
                join(
                    || {
                        a_runs.fetch_add(1, Ordering::SeqCst);
                        "a"
                    },
                    || {
                        b_runs.fetch_add(1, Ordering::SeqCst);
                        vec![1u8, 2]
                    },
                )
            });
            assert_eq!((a, b), ("a", vec![1u8, 2]), "threads={threads}");
            assert_eq!(a_runs.load(Ordering::SeqCst), 1, "threads={threads}");
            assert_eq!(b_runs.load(Ordering::SeqCst), 1, "threads={threads}");
        }
    }

    #[test]
    fn join_propagates_a_panic_from_either_side() {
        use std::panic::catch_unwind;
        for threads in [1, 2] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                let left = catch_unwind(|| join(|| panic!("left"), || 1));
                let right = catch_unwind(|| join(|| 1, || panic!("right")));
                for (side, r) in [("left", left), ("right", right)] {
                    let msg = *r.expect_err(side).downcast::<&str>().unwrap();
                    assert_eq!(msg, side, "threads={threads}");
                }
                assert_eq!(current_num_threads(), threads, "join leaked its cap");
            });
        }
    }

    #[test]
    fn join_runs_nested_parallel_calls_serially() {
        // Inside either side a nested par_iter sees one thread and runs
        // every item on that side's own thread.
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let side = || {
            let me = std::thread::current().id();
            let ran_on: Vec<std::thread::ThreadId> = (0..16usize)
                .into_par_iter()
                .map(|_| std::thread::current().id())
                .collect();
            (current_num_threads(), ran_on.iter().all(|&id| id == me))
        };
        let (a, b) = pool.install(|| join(side, side));
        assert_eq!(a, (1, true), "left side ran nested work in parallel");
        assert_eq!(b, (1, true), "right side ran nested work in parallel");
    }

    #[test]
    fn join_under_a_cap_of_one_runs_both_sides_on_the_caller() {
        let caller = std::thread::current().id();
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let id = || std::thread::current().id();
        let (a, b) = pool.install(|| join(id, id));
        assert_eq!((a, b), (caller, caller));
    }

    #[test]
    fn scope_fifo_runs_every_task_once_including_tasks_spawned_by_tasks() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for threads in [1, 2, 4] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            // 8 root tasks, each spawning 3 children, each spawning one
            // grandchild: 8 · (1 + 3 + 3) runs, each slot bumped once.
            let runs: Vec<AtomicUsize> = (0..8 * 7).map(|_| AtomicUsize::new(0)).collect();
            let runs = &runs;
            let out = pool.install(|| {
                scope_fifo(|s| {
                    for r in 0..8 {
                        s.spawn_fifo(move |s| {
                            runs[r * 7].fetch_add(1, Ordering::SeqCst);
                            for c in 0..3 {
                                s.spawn_fifo(move |s| {
                                    runs[r * 7 + 1 + c].fetch_add(1, Ordering::SeqCst);
                                    s.spawn_fifo(move |_| {
                                        runs[r * 7 + 4 + c].fetch_add(1, Ordering::SeqCst);
                                    });
                                });
                            }
                        });
                    }
                    "op result"
                })
            });
            assert_eq!(out, "op result", "threads={threads}");
            for (i, n) in runs.iter().enumerate() {
                assert_eq!(n.load(Ordering::SeqCst), 1, "threads={threads} task {i}");
            }
            pool.install(|| assert_eq!(current_num_threads(), threads));
        }
    }

    #[test]
    fn scope_fifo_under_a_cap_of_one_runs_in_spawn_order_on_the_caller() {
        use std::sync::Mutex;
        let caller = std::thread::current().id();
        let pool = ThreadPoolBuilder::new().num_threads(1).build().unwrap();
        let log = Mutex::new(Vec::new());
        let log = &log;
        let push = move |tag: &'static str| {
            assert_eq!(std::thread::current().id(), caller, "{tag} left the caller");
            log.lock().unwrap().push(tag);
        };
        pool.install(|| {
            scope_fifo(|s| {
                s.spawn_fifo(move |s| {
                    push("a");
                    s.spawn_fifo(move |_| push("a.child"));
                });
                s.spawn_fifo(move |_| push("b"));
                push("op");
                s.spawn_fifo(move |_| push("c"));
            })
        });
        // `op` runs to its end first; then the queue in spawn order, with
        // a's child behind the tasks queued before it.
        assert_eq!(*log.lock().unwrap(), ["op", "a", "b", "c", "a.child"]);
    }

    #[test]
    fn scope_fifo_propagates_a_panic_from_a_root_or_nested_task() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicUsize, Ordering};
        for threads in [1, 2, 4] {
            let pool = ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            for nested in [false, true] {
                let others = AtomicUsize::new(0);
                let others = &others;
                pool.install(|| {
                    let r = catch_unwind(AssertUnwindSafe(|| {
                        scope_fifo(|s| {
                            s.spawn_fifo(move |s| {
                                if nested {
                                    s.spawn_fifo(|_| panic!("nested task"));
                                } else {
                                    panic!("root task");
                                }
                            });
                            for _ in 0..6 {
                                s.spawn_fifo(move |_| {
                                    others.fetch_add(1, Ordering::SeqCst);
                                });
                            }
                        })
                    }));
                    let msg = *r
                        .expect_err("the panic was lost")
                        .downcast::<&str>()
                        .unwrap();
                    let want = if nested { "nested task" } else { "root task" };
                    assert_eq!(msg, want, "threads={threads}");
                    // The scope returned only after every other task ran.
                    assert_eq!(others.load(Ordering::SeqCst), 6, "threads={threads}");
                    assert_eq!(current_num_threads(), threads, "scope_fifo leaked its cap");
                });
            }
        }
    }

    #[test]
    fn scope_fifo_runs_nested_parallel_calls_serially() {
        use std::sync::Mutex;
        // Inside a task, join and par_iter see one thread and run on the
        // task's own thread.
        let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
        let seen = Mutex::new(Vec::new());
        let seen = &seen;
        let check = move || {
            let me = std::thread::current().id();
            let ran_on: Vec<std::thread::ThreadId> = (0..16usize)
                .into_par_iter()
                .map(|_| std::thread::current().id())
                .collect();
            let (a, b) = join(
                || std::thread::current().id(),
                || std::thread::current().id(),
            );
            let serial = ran_on.iter().all(|&id| id == me) && a == me && b == me;
            seen.lock().unwrap().push((current_num_threads(), serial));
        };
        pool.install(|| {
            scope_fifo(|s| {
                for _ in 0..8 {
                    s.spawn_fifo(move |s| {
                        check();
                        s.spawn_fifo(move |_| check());
                    });
                }
            })
        });
        let seen = seen.lock().unwrap();
        assert_eq!(seen.len(), 16);
        assert!(seen.iter().all(|&x| x == (1, true)), "{seen:?}");
    }

    #[test]
    fn for_each_runs_every_element() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let count = AtomicUsize::new(0);
        let v: Vec<usize> = (0..257).collect();
        v.par_iter().for_each(|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 257);
    }
}
