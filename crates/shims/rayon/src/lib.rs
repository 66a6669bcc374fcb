//! Offline stand-in for `rayon`: the data-parallel subset the planning
//! hot path uses (`par_iter` on slices, `into_par_iter` on ranges and
//! vectors, `map`/`filter_map`/`collect`/`for_each`, [`join`], and
//! [`scope_fifo`]), executed on one process-wide pool of parked helper
//! threads.
//!
//! Scheduling is **dynamic claiming**: a parallel call with `T` threads
//! asks the pool for `T − 1` helpers and the calling thread works
//! alongside them; every thread takes the next unclaimed index from one
//! shared atomic counter until none is left. Uneven items therefore
//! balance by themselves — with three items of cost `6, 5, 2` on two
//! threads, one thread runs the `6` while the other runs `5` and then `2`,
//! where contiguous chunking would pair `6 + 5` on one thread and leave the
//! other idle after `2`. [`scope_fifo`] claims the same way from a queue
//! rather than a counter, so a running task can queue more work: its
//! threads pop tasks in spawn order until the queue is empty and no task
//! is left running.
//!
//! Semantics match rayon where it matters for the planner:
//! * results are returned in input order regardless of thread count or
//!   which thread claimed which index (each thread keeps its
//!   `(index, result)` pairs and they are placed by index at the end);
//! * closures run exactly once per element;
//! * `ThreadPool::install` bounds the worker count for the enclosed call,
//!   and nested parallel calls inside a helper — or inside the calling
//!   thread while it works — run serially, so total concurrency never
//!   exceeds the bound. Both are a thread-local cap, restored by a drop
//!   guard so a panic cannot leave a thread capped.
//!
//! **The pool.** Helper threads are spawned on demand, park between
//! calls and never exit. A call posts itself for its `T − 1` helpers, and
//! each idle helper joins the oldest call still short of helpers. When
//! fewer helpers are idle and not yet promised to another call, the call
//! spawns the shortfall, so it gets as many helpers as a spawn per call
//! gave it, no call waits for a helper it cannot get, and the pool grows
//! only to the peak number of helpers wanted at once. A call is open
//! while its caller works: helpers join only then, and once the caller's
//! own share returns the call closes and the caller waits only for the
//! helpers already inside. A helper's panic resumes on the caller.
//!
//! A parked helper still starts late, only less so. Inside a loaded
//! planner, the pricing pass's `join` helper began on average 0.06–0.12 ms
//! after the join on the `short-store` benchmark workload and 0.03 ms on
//! `fig17-gpt`, where a helper spawned per call began 0.41–0.69 ms and
//! 0.79–1.53 ms after it (per-run means of 2,000 or more joins, four 15 s
//! runs per side on `short-store` and two on `fig17-gpt`, 2-vCPU x86-64
//! VM; in up to 5% of the joins no helper had come when `oper_a` returned,
//! and the caller ran `oper_b`). Pricing takes well under a millisecond
//! there. So the
//! planner's parallel calls do not hand a helper a fixed share of the
//! work: the pricing pass's two sides claim chunks from one cursor, and
//! the §7 recompute-mode sweep and its finishing are `scope_fifo` tasks
//! any thread claims, so a late helper costs only the work it did not
//! take.
//!
//! Thread count defaults to `std::thread::available_parallelism`, or to
//! the `RAYON_NUM_THREADS` environment variable like real rayon; either
//! is read once, at the first parallel call.

use std::any::Any;
use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

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
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
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

type Panic = Box<dyn Any + Send>;

/// Helper threads shared by every parallel call of the process.
struct Pool {
    state: Mutex<PoolState>,
    /// Signalled when a call is posted; idle helpers wait on it.
    posted: Condvar,
    /// Signalled when the last helper leaves a closed call; its caller
    /// waits on it.
    left: Condvar,
}

struct PoolState {
    /// Calls posted and not yet closed and left, oldest first.
    calls: Vec<Call>,
    /// Identity of the next call posted.
    next_id: u64,
    /// Helper threads inside no call, those spawned but not started
    /// included. At least the sum of every call's `wanted`.
    idle: usize,
    /// Helper threads ever spawned.
    #[cfg(test)]
    spawned: usize,
}

/// A posted call, as its helpers see it.
struct Call {
    id: u64,
    /// The work each helper runs, borrowed from the caller's frame with its
    /// lifetime erased (see [`Pool::run`]).
    work: &'static (dyn Fn() + Sync),
    /// Helpers the call still waits for; 0 once it closes.
    wanted: usize,
    /// Whether the caller is still running its own share.
    open: bool,
    /// Helpers running `work`.
    inside: usize,
    /// The first panic a helper raised in `work`.
    panic: Option<Panic>,
}

static POOL: Pool = Pool::new();

/// The pool this thread's parallel calls post to.
fn pool() -> &'static Pool {
    #[cfg(test)]
    if let Some(own) = tests::OWN_POOL.with(Cell::get) {
        return own;
    }
    &POOL
}

impl Pool {
    const fn new() -> Pool {
        Pool {
            state: Mutex::new(PoolState {
                calls: Vec::new(),
                next_id: 0,
                idle: 0,
                #[cfg(test)]
                spawned: 0,
            }),
            posted: Condvar::new(),
            left: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, PoolState> {
        // Nothing panics while holding the lock, and `run` must not unwind
        // before its helpers leave, so a poisoned lock is taken as is.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Run `own` on the calling thread while up to `helpers` pool threads
    /// each run `work`, and return `own`'s result once every helper that
    /// joined has left. A panic of `own` resumes first, else the first of
    /// the helpers'.
    fn run<R>(
        &'static self,
        helpers: usize,
        work: &(dyn Fn() + Sync),
        own: impl FnOnce() -> R,
    ) -> R {
        if helpers == 0 {
            return own();
        }
        // SAFETY: `work` is read only while this call borrows it. `post`
        // stores it in this call's entry; a helper copies it out only while
        // the call is open and counts itself `inside` until its copy is
        // spent; `close` removes the entry only once the call is closed and
        // no helper is inside. Between `post` and `close` nothing unwinds
        // out of this function (`catch_unwind` holds a panic of `own` or
        // of a spawn until `close` returns, and the lock is taken even when
        // poisoned), so no thread reads `work` after it goes out of scope.
        // lint:allow(unsafe-block): the caller catches its own panic and neither returns nor unwinds until every helper has left, so no helper reads the borrowed work after the borrow ends
        let work = unsafe {
            std::mem::transmute::<&(dyn Fn() + Sync + '_), &'static (dyn Fn() + Sync)>(work)
        };
        let (id, spawn) = self.post(helpers, work);
        let own = catch_unwind(AssertUnwindSafe(|| {
            for _ in 0..spawn {
                self.spawn_helper();
            }
            own()
        }));
        let helper_panic = self.close(id);
        match (own, helper_panic) {
            (Ok(r), None) => r,
            (Err(e), _) | (Ok(_), Some(e)) => resume_unwind(e),
        }
    }

    /// Post a call for `helpers` helpers and wake as many idle ones.
    /// Returns the call's id and how many helpers the caller must spawn:
    /// those the idle helpers not promised to other calls fall short of.
    fn post(&self, helpers: usize, work: &'static (dyn Fn() + Sync)) -> (u64, usize) {
        let mut st = self.lock();
        let promised: usize = st.calls.iter().map(|c| c.wanted).sum();
        let spawn = helpers.saturating_sub(st.idle.saturating_sub(promised));
        st.idle += spawn;
        #[cfg(test)]
        {
            st.spawned += spawn;
        }
        let id = st.next_id;
        st.next_id += 1;
        st.calls.push(Call {
            id,
            work,
            wanted: helpers,
            open: true,
            inside: 0,
            panic: None,
        });
        drop(st);
        for _ in spawn..helpers {
            self.posted.notify_one();
        }
        (id, spawn)
    }

    /// Start one helper thread, counted in `idle` by `post`. It is never
    /// joined: it lives as long as the process, and `help` catches every
    /// panic of the work it runs and hands it to that work's caller.
    fn spawn_helper(&'static self) {
        let spawned = std::thread::Builder::new()
            .name("rayon-shim-helper".to_string())
            .spawn(move || self.help());
        if let Err(e) = spawned {
            self.lock().idle -= 1;
            panic!("cannot spawn a rayon shim helper thread: {e}");
        }
    }

    /// A helper thread's life: join the oldest call short of helpers, run
    /// its work, and park when no call wants a helper.
    fn help(&self) {
        let mut st = self.lock();
        loop {
            let Some(call) = st.calls.iter_mut().find(|c| c.wanted > 0) else {
                st = self.posted.wait(st).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            call.wanted -= 1;
            call.inside += 1;
            let (id, work) = (call.id, call.work);
            st.idle -= 1;
            drop(st);
            let result = catch_unwind(AssertUnwindSafe(work));
            st = self.lock();
            st.idle += 1;
            let i = Self::index(&st, id);
            let call = &mut st.calls[i];
            call.inside -= 1;
            if let Err(e) = result {
                call.panic.get_or_insert(e);
            }
            if !call.open && call.inside == 0 {
                self.left.notify_all();
            }
        }
    }

    /// Close call `id` to helpers that have not joined, wait until every
    /// helper inside has left, and return the first panic they raised.
    fn close(&self, id: u64) -> Option<Panic> {
        let mut st = self.lock();
        let i = Self::index(&st, id);
        st.calls[i].open = false;
        st.calls[i].wanted = 0;
        while st.calls[Self::index(&st, id)].inside > 0 {
            st = self.left.wait(st).unwrap_or_else(PoisonError::into_inner);
        }
        let i = Self::index(&st, id);
        st.calls.remove(i).panic
    }

    fn index(st: &PoolState, id: u64) -> usize {
        st.calls
            .iter()
            .position(|c| c.id == id)
            .expect("a call stays posted until its caller closes it")
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
    let claim = || {
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
    let helped = Mutex::new(Vec::new());
    let lock = "a helper's claims are pushed whole";
    let own = pool().run(
        threads - 1,
        &|| {
            let done = claim();
            helped.lock().expect(lock).push(done);
        },
        claim,
    );
    let mut slots: Vec<Option<U>> = std::iter::repeat_with(|| None).take(n).collect();
    for (i, u) in own
        .into_iter()
        .chain(helped.into_inner().expect(lock).into_iter().flatten())
    {
        slots[i] = Some(u);
    }
    slots
        .into_iter()
        .map(|u| u.expect("every index is claimed exactly once"))
        .collect()
}

/// Run `oper_a` and `oper_b`, potentially in parallel, and return both
/// results in argument order, like `rayon::join`.
///
/// With more than one thread, the calling thread runs `oper_a` while
/// `oper_b` waits for a pool helper; if none has taken it by the time
/// `oper_a` returns, the caller runs it too. Under a cap of 1 both run on
/// the calling thread, `oper_a` first. Either way each side holds one slot,
/// so parallel calls nested inside either closure run serially. A panic of
/// `oper_a` propagates once a helper running `oper_b` has finished; a
/// panic of `oper_b` propagates once `oper_a` has returned.
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
    let oper_b = Mutex::new(Some(oper_b));
    let helped = Mutex::new(None);
    let lock = "join's locks are held only to move a value";
    let a = pool().run(
        1,
        &|| {
            let b = oper_b.lock().expect(lock).take();
            if let Some(b) = b {
                let _cap = CapGuard::set(1);
                let rb = b();
                *helped.lock().expect(lock) = Some(rb);
            }
        },
        oper_a,
    );
    let b = match oper_b.into_inner().expect(lock) {
        Some(b) => b(),
        None => helped
            .into_inner()
            .expect(lock)
            .expect("the helper that took oper_b returned"),
    };
    (a, b)
}

/// A task of a [`ScopeFifo`].
type FifoTask<'scope> = Box<dyn FnOnce(&ScopeFifo<'scope>) + Send + 'scope>;

/// What the threads of a [`scope_fifo`] share: the task queue, how many
/// tasks (the scope's own `op` included) are still running, and the first
/// panic any of them raised.
struct FifoState<'scope> {
    queue: std::collections::VecDeque<FifoTask<'scope>>,
    running: usize,
    panic: Option<Panic>,
}

/// A scope whose tasks run in the order they were spawned, like
/// `rayon::ScopeFifo`. Created by [`scope_fifo`].
pub struct ScopeFifo<'scope> {
    state: Mutex<FifoState<'scope>>,
    /// Signalled when a task is queued or the scope's work runs out.
    wake: Condvar,
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

    fn lock(&self) -> MutexGuard<'_, FifoState<'scope>> {
        // A task's panic is caught before it can poison the lock.
        self.state.lock().expect("scope_fifo state lock poisoned")
    }

    /// Run `f` as one of the scope's running tasks, keeping its panic.
    fn run(&self, f: impl FnOnce()) {
        let result = catch_unwind(AssertUnwindSafe(f));
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
/// With `T` threads, `T − 1` pool helpers and the calling thread pop one
/// shared queue in spawn order, the caller once `op` returns. Under a cap
/// of 1 no helper is asked for: `op` runs, then every task in spawn order,
/// all on the caller. `op` and every task hold one slot, so parallel calls
/// nested in them run serially. A panic in `op` or a task propagates once
/// every task has run and every helper has left.
pub fn scope_fifo<'scope, OP, R>(op: OP) -> R
where
    OP: FnOnce(&ScopeFifo<'scope>) -> R + Send,
    R: Send,
{
    let helpers = current_num_threads().saturating_sub(1);
    let _cap = CapGuard::set(1);
    let scope = ScopeFifo {
        state: Mutex::new(FifoState {
            queue: std::collections::VecDeque::new(),
            // `op` counts as running until it returns, so helpers that
            // find the queue empty wait for what it spawns.
            running: 1,
            panic: None,
        }),
        wake: Condvar::new(),
    };
    let result = pool().run(helpers, &|| scope.work(), || {
        let mut result = None;
        scope.run(|| result = Some(op(&scope)));
        scope.work();
        result
    });
    if let Some(e) = scope.lock().panic.take() {
        resume_unwind(e);
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
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;
    use std::thread::ThreadId;

    thread_local! {
        /// A pool of the test's own that this thread's parallel calls post
        /// to instead of the process-wide one, so concurrently running
        /// tests cannot add helpers to it.
        pub(super) static OWN_POOL: Cell<Option<&'static Pool>> = const { Cell::new(None) };
    }

    /// Run `f` at a cap of 2 with this thread's parallel calls posted to
    /// `pool`.
    fn at_cap_2_on<R>(pool: &'static Pool, f: impl FnOnce() -> R) -> R {
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                OWN_POOL.with(|p| p.set(None));
            }
        }
        OWN_POOL.with(|p| p.set(Some(pool)));
        let _restore = Restore;
        let cap2 = ThreadPoolBuilder::new().num_threads(2).build().unwrap();
        cap2.install(f)
    }

    fn new_pool() -> &'static Pool {
        Box::leak(Box::new(Pool::new()))
    }

    fn spawned(pool: &Pool) -> usize {
        pool.lock().spawned
    }

    /// Two items that each wait at `barrier`, so with a barrier of 2 the
    /// call completes only once a helper runs one of them; returns the
    /// thread of each.
    fn on_two_threads(barrier: &Barrier) -> Vec<ThreadId> {
        (0..2usize)
            .into_par_iter()
            .map(|_| {
                barrier.wait();
                std::thread::current().id()
            })
            .collect()
    }

    #[test]
    fn the_pool_spawns_only_up_to_the_peak_concurrent_demand() {
        let pool = new_pool();
        at_cap_2_on(pool, || {
            for i in 0..250usize {
                assert_eq!(join(|| i, || i + 1), (i, i + 1));
                let out: Vec<usize> = (0..8usize).into_par_iter().map(|x| x * i).collect();
                assert_eq!(out, (0..8).map(|x| x * i).collect::<Vec<_>>());
                // These two wait for their helper to join, so it leaves
                // each just before the next call posts.
                let both = Barrier::new(2);
                let wait = |r| {
                    both.wait();
                    r
                };
                assert_eq!(join(|| wait(i), || wait(i + 1)), (i, i + 1));
                let ids = on_two_threads(&Barrier::new(2));
                assert_ne!(ids[0], ids[1]);
            }
        });
        assert_eq!(
            spawned(pool),
            1,
            "one caller at a cap of 2 never wants more than one helper"
        );
    }

    #[test]
    fn concurrent_callers_each_get_their_helper_and_their_results() {
        let pool = new_pool();
        // Every item of a round's four calls waits for the other seven, so
        // a round completes only if each call has its own helper at once.
        let rounds: Vec<Barrier> = (0..100).map(|_| Barrier::new(8)).collect();
        let rounds = &rounds;
        let caller = |k: usize| {
            at_cap_2_on(pool, || {
                for (i, all) in rounds.iter().enumerate() {
                    let ids = on_two_threads(all);
                    assert_ne!(ids[0], ids[1], "caller {k}");
                    assert_eq!(join(|| k * i, || k + i), (k * i, k + i));
                    let out: Vec<usize> = (0..32usize).into_par_iter().map(|x| x ^ k).collect();
                    assert_eq!(out, (0..32).map(|x| x ^ k).collect::<Vec<_>>());
                }
            })
        };
        std::thread::scope(|s| {
            for k in 1..4 {
                s.spawn(move || caller(k));
            }
            caller(0);
        });
        assert!(
            (1..=4).contains(&spawned(pool)),
            "4 callers at a cap of 2 want at most 4 helpers at once: {}",
            spawned(pool)
        );
    }

    #[test]
    fn a_helper_panic_resumes_on_the_caller_and_the_pool_serves_the_next_call() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let pool = new_pool();
        let caller = std::thread::current().id();
        at_cap_2_on(pool, || {
            let both = Barrier::new(2);
            let r = catch_unwind(AssertUnwindSafe(|| {
                (0..2usize).into_par_iter().for_each(|_| {
                    both.wait();
                    if std::thread::current().id() != caller {
                        panic!("helper item");
                    }
                })
            }));
            let msg = *r.expect_err("lost").downcast::<&str>().unwrap();
            assert_eq!(msg, "helper item");
            // `oper_a` waits for `oper_b` to start, so a helper runs it.
            let both = Barrier::new(2);
            let r = catch_unwind(AssertUnwindSafe(|| {
                join(
                    || both.wait(),
                    || {
                        both.wait();
                        panic!("helper side")
                    },
                )
            }));
            let msg = *r.expect_err("lost").downcast::<&str>().unwrap();
            assert_eq!(msg, "helper side");
            assert_eq!(current_num_threads(), 2, "a helper panic leaked the cap");
            let ids = on_two_threads(&Barrier::new(2));
            assert!(ids.contains(&caller) && ids[0] != ids[1], "{ids:?}");
        });
        assert_eq!(spawned(pool), 1, "the helper outlived its panics");
    }

    #[test]
    fn the_caller_returns_only_after_its_helper_leaves() {
        use std::sync::mpsc;
        use std::time::Duration;
        let pool = new_pool();
        let (returned, helper_sees) = mpsc::channel::<()>();
        let helper_done = &AtomicBool::new(false);
        let both = &Barrier::new(2);
        at_cap_2_on(pool, || {
            join(
                || {
                    both.wait();
                },
                move || {
                    both.wait();
                    // A caller that returned now would signal before
                    // this wait ends.
                    let early = helper_sees.recv_timeout(Duration::from_millis(200));
                    helper_done.store(early.is_err(), Ordering::SeqCst);
                },
            )
        });
        let done = helper_done.load(Ordering::SeqCst);
        let _ = returned.send(());
        assert!(done, "join returned while its helper was inside oper_b");
    }

    #[test]
    fn join_runs_oper_b_exactly_once_under_contention() {
        let pool = new_pool();
        // `oper_a` returns at once, so the caller closes the call while
        // its helper may be taking `oper_b`.
        let contend = || {
            at_cap_2_on(pool, || {
                for i in 0..2000usize {
                    let runs = AtomicUsize::new(0);
                    let (a, b) = join(
                        || i,
                        || {
                            runs.fetch_add(1, Ordering::SeqCst);
                            i + 1
                        },
                    );
                    assert_eq!((a, b, runs.load(Ordering::SeqCst)), (i, i + 1, 1));
                }
            })
        };
        std::thread::scope(|s| {
            s.spawn(contend);
            contend();
        });
    }

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
