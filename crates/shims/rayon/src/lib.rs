//! Offline stand-in for the `rayon` crate — genuinely multithreaded.
//!
//! Unlike the first-generation shim (which resolved `par_iter` to the
//! sequential iterator), this version executes parallel regions on real OS
//! threads: the input is split into contiguous chunks, one
//! [`std::thread::scope`] worker per chunk maps its slice, and the per-chunk
//! results are concatenated **in chunk order**. Because every item is mapped
//! by the same pure function and the output order is the input order, results
//! are byte-identical to a sequential run at any thread count — the property
//! the serving stack's thread-count parity suite enforces.
//!
//! Semantics the workspace relies on:
//!
//! * **`RAYON_NUM_THREADS`** is honored like the real rayon: it caps the
//!   worker count of every parallel region. `0`, unset or unparsable falls
//!   back to [`std::thread::available_parallelism`]. The variable is re-read
//!   at every region, so benches and tests can sweep thread counts within a
//!   single process.
//! * **Deterministic order.** Chunks are contiguous and joined in order;
//!   `collect` observes items exactly as a sequential `map` would.
//! * **Nested regions run inline.** A parallel region entered from inside a
//!   worker executes sequentially on that worker (the real rayon schedules
//!   nested work onto the same pool; spawning threads quadratically instead
//!   would oversubscribe). The outermost region — session fan-out in
//!   `ServeEngine::decode_batch` — therefore owns the hardware.
//! * **[`with_min_len`](ParIter::with_min_len)** bounds the split: every
//!   worker receives at least `min_len` items, so cheap per-item work (e.g.
//!   scoring a few dozen centroids) is not swamped by thread-spawn overhead.
//!
//! Only the API surface the workspace consumes is provided: the two
//! `IntoParallel*` traits of the prelude, `map`/`collect`/`for_each`/`sum`,
//! `with_min_len`, [`current_num_threads`] and [`current_thread_index`].
//! Swapping in the real rayon remains a manifest-only change.

use std::cell::Cell;

thread_local! {
    /// Whether the current thread is already executing inside a parallel
    /// region (worker or region-owning caller). Nested regions run inline.
    static IN_PARALLEL_REGION: Cell<bool> = const { Cell::new(false) };
}

/// Restores the region flag on drop so a panicking mapper cannot leave the
/// calling thread permanently marked as "inside a region".
struct RegionGuard {
    prev: bool,
}

impl RegionGuard {
    fn enter() -> Self {
        let prev = IN_PARALLEL_REGION.with(|f| f.replace(true));
        Self { prev }
    }
}

impl Drop for RegionGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_PARALLEL_REGION.with(|f| f.set(prev));
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The thread cap of the next parallel region: `RAYON_NUM_THREADS` when set
/// to a positive integer, the machine's available parallelism otherwise.
///
/// Re-read on every call (the lookup is cheap next to spawning a thread), so
/// changing the variable mid-process — as the scaling bench and the parity
/// tests do — takes effect at the next region.
pub fn current_num_threads() -> usize {
    match std::env::var("RAYON_NUM_THREADS") {
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => default_threads(),
        },
        Err(_) => default_threads(),
    }
}

/// `Some` when the calling thread is executing inside a parallel region
/// (mirroring rayon's "index of this worker in its pool"), `None` otherwise.
/// A region entered from such a thread runs inline, so code that can avoid
/// building a region — and the allocations that come with one — asks here
/// first. Reads a thread-local flag: no environment lookup, no allocation.
pub fn current_thread_index() -> Option<usize> {
    IN_PARALLEL_REGION.with(|f| f.get()).then_some(0)
}

/// Number of workers a region over `n` items with the given `min_len` uses.
fn plan_threads(n: usize, min_len: usize) -> usize {
    if n <= 1 || IN_PARALLEL_REGION.with(|f| f.get()) {
        return 1;
    }
    let by_work = if min_len <= 1 { n } else { n.div_ceil(min_len) };
    current_num_threads().min(by_work).max(1)
}

/// Split `items` into `chunks` contiguous pieces of near-equal length.
fn split_chunks<T>(items: Vec<T>, chunks: usize) -> Vec<Vec<T>> {
    let per_chunk = items.len().div_ceil(chunks).max(1);
    let mut out = Vec::with_capacity(chunks);
    let mut rest = items;
    while rest.len() > per_chunk {
        let tail = rest.split_off(per_chunk);
        out.push(std::mem::replace(&mut rest, tail));
    }
    out.push(rest);
    out
}

/// Map `f` over `items`, splitting across scoped threads, preserving order.
fn run_chunked<T, R, F>(items: Vec<T>, f: &F, min_len: usize) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = plan_threads(n, min_len);
    if threads <= 1 {
        let _guard = RegionGuard::enter();
        return items.into_iter().map(f).collect();
    }
    let mut chunks = split_chunks(items, threads).into_iter();
    let first = chunks.next().expect("non-empty input has a first chunk");
    let mut out: Vec<R> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .map(|chunk| {
                scope.spawn(move || {
                    let _guard = RegionGuard::enter();
                    chunk.into_iter().map(f).collect::<Vec<R>>()
                })
            })
            .collect();
        // The calling thread works the first chunk instead of idling, which
        // also keeps the 1-thread and N-thread floating-point environments
        // identical (not that f32 arithmetic depends on the thread).
        {
            let _guard = RegionGuard::enter();
            out.extend(first.into_iter().map(f));
        }
        for handle in handles {
            match handle.join() {
                Ok(part) => out.extend(part),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    out
}

/// A materialised parallel iterator: the items of a region, pre-collected.
///
/// Produced by [`IntoParallelIterator::into_par_iter`] /
/// [`IntoParallelRefIterator::par_iter`]; consumed by [`map`](Self::map),
/// [`for_each`](Self::for_each), [`sum`](Self::sum) or
/// [`collect`](Self::collect).
#[derive(Debug)]
pub struct ParIter<T: Send> {
    items: Vec<T>,
    min_len: usize,
}

impl<T: Send> ParIter<T> {
    fn new(items: Vec<T>) -> Self {
        Self { items, min_len: 1 }
    }

    /// Guarantee every worker at least `min_len` items (rayon's
    /// `IndexedParallelIterator::with_min_len`): regions whose per-item work
    /// is small use this to stay sequential below a worthwhile size.
    pub fn with_min_len(mut self, min_len: usize) -> Self {
        self.min_len = min_len.max(1);
        self
    }

    /// Map every item through `f` in parallel.
    pub fn map<R, F>(self, f: F) -> ParMap<T, F>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        ParMap {
            items: self.items,
            f,
            min_len: self.min_len,
        }
    }

    /// Run `f` on every item in parallel (no results).
    pub fn for_each<F>(self, f: F)
    where
        F: Fn(T) + Sync,
    {
        run_chunked(self.items, &|item| f(item), self.min_len);
    }

    /// Sum the items (sequentially — the items already exist, so there is no
    /// parallel work left; the order of summation matches a sequential run).
    pub fn sum<S>(self) -> S
    where
        S: std::iter::Sum<T>,
    {
        self.items.into_iter().sum()
    }

    /// Collect the items in order.
    pub fn collect<C>(self) -> C
    where
        C: FromIterator<T>,
    {
        self.items.into_iter().collect()
    }
}

/// A mapped parallel region: executes on [`collect`](Self::collect) /
/// [`for_each`](Self::for_each).
#[derive(Debug)]
pub struct ParMap<T: Send, F> {
    items: Vec<T>,
    f: F,
    min_len: usize,
}

impl<T: Send, F> ParMap<T, F> {
    /// See [`ParIter::with_min_len`].
    pub fn with_min_len(mut self, min_len: usize) -> Self {
        self.min_len = min_len.max(1);
        self
    }

    /// Execute the region and collect the mapped items in input order.
    pub fn collect<R, C>(self) -> C
    where
        R: Send,
        F: Fn(T) -> R + Sync,
        C: FromIterator<R>,
    {
        run_chunked(self.items, &self.f, self.min_len)
            .into_iter()
            .collect()
    }

    /// Execute the region for its effects, discarding the mapped values.
    pub fn for_each<R>(self)
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        run_chunked(self.items, &self.f, self.min_len);
    }

    /// Execute the region and sum the mapped items in input order (the
    /// parallel part is the mapping; the reduction is sequential and
    /// therefore deterministic).
    pub fn sum<R, S>(self) -> S
    where
        R: Send,
        F: Fn(T) -> R + Sync,
        S: std::iter::Sum<R>,
    {
        run_chunked(self.items, &self.f, self.min_len)
            .into_iter()
            .sum()
    }
}

/// Multithreaded drop-in for `rayon::prelude`.
pub mod prelude {
    pub use super::{IntoParallelIterator, IntoParallelRefIterator};
}

/// Stand-in for `rayon::prelude::IntoParallelIterator`.
pub trait IntoParallelIterator {
    /// Item type.
    type Item: Send;
    /// Open a parallel region over the items.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<I> IntoParallelIterator for I
where
    I: IntoIterator,
    I::Item: Send,
{
    type Item = I::Item;
    fn into_par_iter(self) -> ParIter<I::Item> {
        ParIter::new(self.into_iter().collect())
    }
}

/// Stand-in for `rayon::prelude::IntoParallelRefIterator`.
pub trait IntoParallelRefIterator<'data> {
    /// Item type (a reference).
    type Item: Send + 'data;
    /// Open a parallel region over references to the items.
    fn par_iter(&'data self) -> ParIter<Self::Item>;
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for [T] {
    type Item = &'data T;
    fn par_iter(&'data self) -> ParIter<&'data T> {
        ParIter::new(self.iter().collect())
    }
}

impl<'data, T: Sync + 'data> IntoParallelRefIterator<'data> for Vec<T> {
    type Item = &'data T;
    fn par_iter(&'data self) -> ParIter<&'data T> {
        ParIter::new(self.iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    /// Serialises tests that mutate `RAYON_NUM_THREADS` (process-global).
    static ENV_LOCK: Mutex<()> = Mutex::new(());

    /// Restores (or removes) `RAYON_NUM_THREADS` on drop, so a panicking
    /// test body — `worker_panics_propagate` panics on purpose — cannot
    /// leak its thread count into concurrently queued tests.
    struct EnvRestore {
        prev: Option<String>,
    }

    impl Drop for EnvRestore {
        fn drop(&mut self) {
            match self.prev.take() {
                Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
                None => std::env::remove_var("RAYON_NUM_THREADS"),
            }
        }
    }

    fn with_threads<R>(n: usize, body: impl FnOnce() -> R) -> R {
        // A previous panicking holder poisons the mutex but leaves the data
        // (unit) intact — recover instead of cascading a PoisonError.
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _restore = EnvRestore {
            prev: std::env::var("RAYON_NUM_THREADS").ok(),
        };
        std::env::set_var("RAYON_NUM_THREADS", n.to_string());
        body()
    }

    fn worker_ids(n_items: usize, min_len: usize) -> HashSet<std::thread::ThreadId> {
        (0..n_items)
            .into_par_iter()
            .with_min_len(min_len)
            .map(|_| std::thread::current().id())
            .collect()
    }

    #[test]
    fn into_par_iter_matches_sequential() {
        let doubled: Vec<usize> = (0..10).into_par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, (0..10).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_over_slice() {
        let v = vec![1, 2, 3];
        let sum: i32 = v.par_iter().sum();
        assert_eq!(sum, 6);
    }

    #[test]
    fn order_is_preserved_at_every_thread_count() {
        let expected: Vec<usize> = (0..1000).map(|x| x * x).collect();
        for threads in [1, 2, 3, 4, 7] {
            let got: Vec<usize> = with_threads(threads, || {
                (0..1000usize).into_par_iter().map(|x| x * x).collect()
            });
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn multiple_workers_actually_run() {
        let ids = with_threads(4, || worker_ids(64, 1));
        assert!(
            ids.len() >= 2,
            "4 configured threads over 64 items must use several workers, got {}",
            ids.len()
        );
    }

    #[test]
    fn one_thread_stays_on_the_caller() {
        let ids = with_threads(1, || worker_ids(64, 1));
        assert_eq!(ids.len(), 1);
        assert!(ids.contains(&std::thread::current().id()));
    }

    #[test]
    fn min_len_bounds_the_split() {
        // 10 items with min_len 100: a single chunk on the calling thread.
        let ids = with_threads(4, || worker_ids(10, 100));
        assert_eq!(ids.len(), 1);
        assert!(ids.contains(&std::thread::current().id()));
    }

    #[test]
    fn nested_regions_run_inline_on_the_worker() {
        let nested_counts: Vec<usize> = with_threads(4, || {
            (0..8usize)
                .into_par_iter()
                .map(|_| worker_ids(64, 1).len())
                .collect()
        });
        assert!(
            nested_counts.iter().all(|&c| c == 1),
            "nested regions must not spawn: {nested_counts:?}"
        );
        // After the region ends the same thread may parallelise again.
        let after = with_threads(4, || worker_ids(64, 1));
        assert!(after.len() >= 2);
    }

    #[test]
    fn for_each_visits_every_item() {
        let hits = std::sync::atomic::AtomicUsize::new(0);
        with_threads(3, || {
            (0..100usize).into_par_iter().for_each(|_| {
                hits.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            });
        });
        assert_eq!(hits.load(std::sync::atomic::Ordering::Relaxed), 100);
    }

    #[test]
    fn mapped_sum_is_deterministic() {
        let expected: u64 = (0..500u64).map(|x| x * 3).sum();
        for threads in [1, 4] {
            let got: u64 =
                with_threads(threads, || (0..500u64).into_par_iter().map(|x| x * 3).sum());
            assert_eq!(got, expected);
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::<u32>::new().into_par_iter().map(|x| x + 1).collect();
        assert!(empty.is_empty());
        let one: Vec<u32> = vec![41u32].into_par_iter().map(|x| x + 1).collect();
        assert_eq!(one, vec![42]);
    }

    #[test]
    fn worker_panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            with_threads(4, || {
                let _: Vec<usize> = (0..64usize)
                    .into_par_iter()
                    .map(|x| {
                        assert!(x != 63, "boom");
                        x
                    })
                    .collect();
            })
        });
        assert!(result.is_err(), "a worker panic must reach the caller");
    }

    #[test]
    fn current_num_threads_reads_the_env() {
        let n = with_threads(7, super::current_num_threads);
        assert_eq!(n, 7);
        let _guard = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _restore = EnvRestore {
            prev: std::env::var("RAYON_NUM_THREADS").ok(),
        };
        std::env::set_var("RAYON_NUM_THREADS", "not-a-number");
        assert!(super::current_num_threads() >= 1);
        std::env::set_var("RAYON_NUM_THREADS", "0");
        assert!(super::current_num_threads() >= 1);
    }
}
