//! Deterministic scoped worker pool for candidate evaluation.
//!
//! The paper's flow spends nearly all of its wall-clock time scoring
//! candidate substitutions, and every score is independent of every
//! other — "the inherent parallelism of GWO". This module is the one
//! place in the workspace that turns that independence into threads: a
//! hand-rolled pool over [`std::thread::scope`] (the build environment
//! has no registry access, so no rayon) that the DCGWO offspring pool,
//! the seeding phase, and the baseline population loops all share.
//!
//! # Determinism contract
//!
//! For a pure per-item function `f`, [`par_map_with`] returns
//! exactly `items.map(f)` — same values, same order — for **every** thread
//! count, including 1. Workers claim items from an atomic cursor, so
//! *which worker* computes an item is scheduling-dependent, but each
//! result lands in the slot of its input index and the caller's
//! reduction runs single-threaded over the slots in input order.
//! Nothing about worker scheduling can leak into the result, which is
//! what lets `OptimizerConfig::threads` promise bit-identical
//! [`FlowOutcome`](crate::api::FlowOutcome)s at any width.
//!
//! Callers that own an RNG keep it out of the pool entirely: random
//! decisions are drawn in a serial phase (or from per-item streams split
//! off the run seed with [`split_seed`]), and only the deterministic
//! evaluation work goes behind the pool.
//!
//! # Cancellation
//!
//! [`par_map_with`] opens one fan-out per call, with the
//! calling thread working as one of the workers, and consults a `poll`
//! callback on that thread before the helpers start and after each item
//! it finishes. A raised [`CancelFlag`](crate::api::CancelFlag) or an
//! expired deadline therefore stops every worker's claims within about
//! one item instead of after the whole item set — cancellation latency
//! stays bounded as thread count grows.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use tdals_obs::{clock, trace};

/// Number of worker threads the host can actually run in parallel
/// (`std::thread::available_parallelism`, 1 when unknown).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Normalizes a thread-count knob: `0` means "one worker per available
/// core", anything else is taken literally.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        available_threads()
    } else {
        threads
    }
}

/// Result of a [`par_map_with`] run: the completed prefix of the
/// map, in input order, and whether the whole item set was processed.
#[derive(Debug)]
pub struct ParMap<R> {
    /// Results for the processed prefix of the input, in input order.
    pub results: Vec<R>,
    /// `false` when `poll` stopped the run before the last item.
    pub completed: bool,
}

/// Maps `items` through `f` over `threads` workers, with a cancellation
/// poll after every item the calling thread finishes, returning the
/// results in input order.
///
/// One call is one fan-out: the calling thread is the first worker and
/// `threads - 1` scoped helpers join it (none with `threads <= 1` or
/// fewer than two items), every worker claiming the next item from one
/// shared cursor until none is left. Each worker borrows one element of
/// `scratch` for every item it processes, the calling thread the first;
/// `scratch` grows to the worker count with `S::default()` and never
/// shrinks, so a caller that keeps it across calls reuses its buffers.
/// Which worker, and so which element, serves an item depends on
/// scheduling: `f`'s result must not depend on the scratch's contents.
///
/// `poll` runs on the calling thread only: once before any helper
/// starts, and again after each item the calling thread finishes. When
/// it returns `false`, no worker claims another item; the items already
/// claimed finish, and the claimed prefix of the input is returned with
/// `completed == false` unless it covers every item. Where the stop
/// lands depends on the thread count and on scheduling, so callers must
/// not tie *deterministic* stop decisions (evaluation budgets) to it —
/// poll only the non-deterministic interrupts (cancellation, wall-clock
/// deadline) and enforce deterministic caps in the serial reduction,
/// per item, in input order.
pub fn par_map_with<S, T, R, F, P>(
    threads: usize,
    scratch: &mut Vec<S>,
    items: Vec<T>,
    f: F,
    mut poll: P,
) -> ParMap<R>
where
    S: Default + Send,
    T: Send,
    R: Send,
    F: Fn(&mut S, T) -> R + Sync,
    P: FnMut() -> bool,
{
    let count = items.len();
    let workers = resolve_threads(threads).min(count).max(1);
    if scratch.len() < workers {
        scratch.resize_with(workers, S::default);
    }
    let _span = (workers > 1).then(|| {
        trace::span(trace::cat::PAR, "par_map")
            .arg("items", count as u64)
            .arg("workers", workers as u64)
    });
    // Per-slot mutexes instead of one big lock: workers only ever touch
    // disjoint indices, so the locks are uncontended by construction,
    // and the crate-wide `forbid(unsafe_code)` stays intact.
    let jobs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let slots: Vec<Mutex<Option<R>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    // Both atomics publish no data: jobs and results pass through their
    // mutexes, and the scope's join hands the slots back to this thread.
    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    // Claims the next item and runs it into its slot; `false` once every
    // item is claimed. Claims are handed out in input order, so the
    // claimed items are always a prefix of the input.
    let run_next = |own: &mut S| {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(job) = jobs.get(i) else {
            return false;
        };
        let item = job
            .lock()
            .expect("job mutex is never poisoned")
            .take()
            .expect("each job is claimed exactly once");
        let result = f(own, item);
        *slots[i].lock().expect("slot mutex is never poisoned") = Some(result);
        true
    };
    let (run_next, stop) = (&run_next, &stop);
    let (own, helpers) = scratch[..workers]
        .split_first_mut()
        .expect("at least one worker");
    if poll() {
        std::thread::scope(|scope| {
            for helper in helpers {
                scope.spawn(move || while !stop.load(Ordering::Relaxed) && run_next(helper) {});
            }
            while run_next(own) {
                if !poll() {
                    stop.store(true, Ordering::Relaxed);
                    break;
                }
            }
        });
    }
    let claimed = cursor.into_inner().min(count);
    let results: Vec<R> = slots
        .into_iter()
        .take(claimed)
        .map(|slot| {
            slot.into_inner()
                .expect("slot mutex is never poisoned")
                .expect("every claimed job fills its slot")
        })
        .collect();
    ParMap {
        completed: claimed == count,
        results,
    }
}

/// Splits a per-item RNG seed off a run seed (SplitMix64 finalizer).
///
/// Parallel phases that need randomness *inside* the fanned-out work —
/// the DCGWO seeding phase chains LACs whose switch selection depends
/// on the member's own evolving simulation state, and each search child
/// proposes from its own base's simulation and timing — give each item
/// its own stream derived from `(seed, index)`, so the draws are
/// identical whether the items run on one worker or eight.
pub fn split_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

// ---------------------------------------------------------------------
// Slot leasing: the shared pool budget behind multi-session scheduling
// ---------------------------------------------------------------------

/// A request to [`SlotPool::lease`] that can never be granted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum LeaseError {
    /// The minimum width is zero: a lease of no slots runs nothing.
    ZeroWidth,
    /// The minimum width exceeds the pool's total capacity, so the
    /// request would wait forever.
    ExceedsPool {
        /// Slots the caller insisted on.
        requested: usize,
        /// Slots the pool owns in total.
        total: usize,
    },
    /// `max < min`: the requested width range is empty.
    EmptyRange {
        /// Lower end of the rejected range.
        min: usize,
        /// Upper end of the rejected range.
        max: usize,
    },
}

impl fmt::Display for LeaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LeaseError::ZeroWidth => f.write_str("a lease of zero slots runs nothing"),
            LeaseError::ExceedsPool { requested, total } => write!(
                f,
                "lease of {requested} slot(s) exceeds the pool total of {total}"
            ),
            LeaseError::EmptyRange { min, max } => {
                write!(f, "lease range [{min}, {max}] is empty")
            }
        }
    }
}

impl std::error::Error for LeaseError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Waiter {
    priority: u8,
    ticket: u64,
}

#[derive(Debug)]
struct PoolState {
    free: usize,
    next_ticket: u64,
    /// Grants issued so far; stamped onto each lease *under this lock*,
    /// so [`SlotLease::sequence`] reflects the true grant order.
    next_grant: u64,
    /// Pending requests, kept sorted: higher priority first, FIFO
    /// within a priority. Only the head may be granted slots (no
    /// barging), so a wide request cannot be starved by narrow ones.
    waiting: Vec<Waiter>,
}

#[derive(Debug)]
struct PoolInner {
    total: usize,
    state: Mutex<PoolState>,
    cv: Condvar,
}

impl PoolInner {
    fn state(&self) -> std::sync::MutexGuard<'_, PoolState> {
        // A panic while holding the lock leaves a consistent counter
        // (slots are only moved under the lock), so poisoning is
        // recoverable by construction.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A capacity-bounded budget of worker slots shared by many sessions.
///
/// This is the pool-budget hook behind multi-tenant scheduling
/// (`tdals-server`): the scheduler owns one `SlotPool` sized to the
/// host's thread budget, and every session must hold a [`SlotLease`] of
/// 1..=cap slots while its flow runs. Because every optimizer returns a
/// bit-identical [`FlowOutcome`](crate::api::FlowOutcome) at any thread
/// count, the pool is free to size leases for *throughput* — fairness
/// decisions can never leak into results.
///
/// # Granting policy
///
/// Requests queue in (priority, arrival) order — higher [`u8`] priority
/// first, FIFO within a priority — and only the queue head is ever
/// granted (no barging, so wide requests cannot starve). The head is
/// granted as soon as at least `min` slots are free, at a width of
///
/// ```text
/// clamp(ceil(free / waiters), min, max)
/// ```
///
/// — an even share of what is free across everyone currently in line,
/// so N simultaneous submissions split the pool ~evenly, while a lone
/// session may take everything up to its `max`.
///
/// Cloning the pool clones a handle to the same shared budget.
#[derive(Debug, Clone)]
pub struct SlotPool {
    inner: Arc<PoolInner>,
}

impl SlotPool {
    /// A pool owning `total` worker slots. A zero-slot pool is legal to
    /// construct (every `lease` fails with [`LeaseError::ExceedsPool`]);
    /// schedulers reject that configuration up front with their own
    /// typed error.
    pub fn new(total: usize) -> SlotPool {
        SlotPool {
            inner: Arc::new(PoolInner {
                total,
                state: Mutex::new(PoolState {
                    free: total,
                    next_ticket: 0,
                    next_grant: 0,
                    waiting: Vec::new(),
                }),
                cv: Condvar::new(),
            }),
        }
    }

    /// Total slots the pool owns.
    pub fn total(&self) -> usize {
        self.inner.total
    }

    /// Slots not currently leased.
    pub fn available(&self) -> usize {
        self.inner.state().free
    }

    /// Slots currently out on leases.
    pub fn leased(&self) -> usize {
        self.inner.total - self.inner.state().free
    }

    /// Requests currently waiting in line for a lease.
    pub fn waiting(&self) -> usize {
        self.inner.state().waiting.len()
    }

    /// Blocks until this request reaches the head of the line and at
    /// least `min` slots are free, then leases between `min` and `max`
    /// slots (the fair share of what is free — see the type-level
    /// granting policy). Dropping the returned [`SlotLease`] returns
    /// its slots.
    ///
    /// # Errors
    ///
    /// [`LeaseError`] when the request could never be granted: zero
    /// width, an empty range, or `min` beyond the pool total.
    pub fn lease(&self, min: usize, max: usize, priority: u8) -> Result<SlotLease, LeaseError> {
        let lease = self.lease_or_abort(min, max, priority, &|| false)?;
        Ok(lease.expect("the abort predicate never fires"))
    }

    /// [`SlotPool::lease`] with an escape hatch: while the request
    /// waits in line, `abort` is polled (a few hundred times per
    /// second) and a `true` withdraws the request — the waiter leaves
    /// the line and `Ok(None)` is returned. This is how a scheduler
    /// keeps *queued* cancellations bounded: a cancelled session must
    /// not sit blocked behind a long-running co-tenant just to learn it
    /// should stop.
    ///
    /// # Errors
    ///
    /// The same [`LeaseError`]s as [`SlotPool::lease`].
    pub fn lease_or_abort(
        &self,
        min: usize,
        max: usize,
        priority: u8,
        abort: &dyn Fn() -> bool,
    ) -> Result<Option<SlotLease>, LeaseError> {
        if min == 0 {
            return Err(LeaseError::ZeroWidth);
        }
        if max < min {
            return Err(LeaseError::EmptyRange { min, max });
        }
        if min > self.inner.total {
            return Err(LeaseError::ExceedsPool {
                requested: min,
                total: self.inner.total,
            });
        }
        let mut state = self.inner.state();
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        let me = Waiter { priority, ticket };
        // Insert behind every waiter of the same or higher priority:
        // FIFO within a priority class, higher classes first.
        let at = state
            .waiting
            .iter()
            .position(|w| w.priority < priority)
            .unwrap_or(state.waiting.len());
        state.waiting.insert(at, me);
        let m = tdals_obs::metrics();
        m.queue_depth.set(state.waiting.len() as u64);
        // Lazily stamped the first time this request actually blocks,
        // so uncontended grants stay clock-free.
        let mut wait_start: Option<clock::Instant> = None;
        loop {
            if abort() {
                if let Some(pos) = state.waiting.iter().position(|w| w.ticket == ticket) {
                    state.waiting.remove(pos);
                }
                m.queue_depth.set(state.waiting.len() as u64);
                // Leaving the line may expose a grantable new head.
                self.inner.cv.notify_all();
                return Ok(None);
            }
            if state.waiting.first() == Some(&me) && state.free >= min {
                let share = state.free.div_ceil(state.waiting.len());
                let width = share.clamp(min, max).min(state.free);
                state.free -= width;
                state.waiting.remove(0);
                let sequence = state.next_grant;
                state.next_grant += 1;
                m.queue_depth.set(state.waiting.len() as u64);
                m.grant_width.record(width as u64);
                if let Some(start) = wait_start {
                    m.lease_waits.incr();
                    m.lease_wait_us.record(start.elapsed().as_micros() as u64);
                }
                // The next head may also be grantable from what's left.
                self.inner.cv.notify_all();
                return Ok(Some(SlotLease {
                    inner: Arc::clone(&self.inner),
                    width,
                    sequence,
                }));
            }
            wait_start.get_or_insert_with(clock::now);
            // A short timed wait bounds how stale the abort poll can
            // get: releases notify the condvar, but nothing notifies on
            // an abort flag flipping.
            state = self
                .inner
                .cv
                .wait_timeout(state, std::time::Duration::from_millis(5))
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    /// Non-blocking [`SlotPool::lease`]: `None` when the pool has fewer
    /// than `min` free slots **or** anyone is already waiting in line
    /// (barging past the queue would defeat the no-starvation order).
    pub fn try_lease(&self, min: usize, max: usize) -> Option<SlotLease> {
        if min == 0 || max < min || min > self.inner.total {
            return None;
        }
        let mut state = self.inner.state();
        if !state.waiting.is_empty() || state.free < min {
            return None;
        }
        let width = state.free.clamp(min, max).min(state.free);
        state.free -= width;
        let sequence = state.next_grant;
        state.next_grant += 1;
        tdals_obs::metrics().grant_width.record(width as u64);
        Some(SlotLease {
            inner: Arc::clone(&self.inner),
            width,
            sequence,
        })
    }
}

/// A held allotment of [`SlotPool`] slots; returns them on drop (and on
/// panic — the lease is just a value on the session's stack), so slots
/// cannot leak whatever way the holder exits.
#[derive(Debug)]
pub struct SlotLease {
    inner: Arc<PoolInner>,
    width: usize,
    sequence: u64,
}

impl SlotLease {
    /// Number of slots held: the worker-thread width the holder may run
    /// at (feed it to `Flow::threads` / `Optimizer::set_threads`).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grant order of this lease within its pool, 0-based. Stamped
    /// under the pool lock at grant time, so comparing sequences of two
    /// leases reflects the order the pool actually admitted them —
    /// unlike anything derived after `lease` returns, which would race.
    pub fn sequence(&self) -> u64 {
        self.sequence
    }
}

impl Drop for SlotLease {
    fn drop(&mut self) {
        let mut state = self.inner.state();
        state.free += self.width;
        debug_assert!(state.free <= self.inner.total, "lease over-release");
        self.inner.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A map with no scratch that must complete.
    fn map<T: Send, R: Send>(threads: usize, items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
        let out = map_polled(threads, items, f, || true);
        assert!(out.completed);
        out.results
    }

    /// A map with no scratch, through [`par_map_with`].
    fn map_polled<T: Send, R: Send>(
        threads: usize,
        items: Vec<T>,
        f: impl Fn(T) -> R + Sync,
        poll: impl FnMut() -> bool,
    ) -> ParMap<R> {
        par_map_with(
            threads,
            &mut Vec::<()>::new(),
            items,
            |(), item| f(item),
            poll,
        )
    }

    #[test]
    fn par_map_matches_serial_for_every_width() {
        let items: Vec<u64> = (0..57).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x + 1).collect();
        for threads in [0, 1, 2, 3, 8, 64] {
            let got = map(threads, items.clone(), |x| x * x + 1);
            assert_eq!(got, serial, "threads {threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(map(4, Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(map(4, vec![7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_lends_one_scratch_per_worker_and_keeps_it() {
        let items: Vec<u64> = (0..57).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * 3).collect();
        for threads in [1, 2, 3, 8] {
            // Each element counts the items its worker processed.
            let mut scratch: Vec<u64> = Vec::new();
            for round in 1..=2u64 {
                let got = par_map_with(
                    threads,
                    &mut scratch,
                    items.clone(),
                    |seen, x| {
                        *seen += 1;
                        x * 3
                    },
                    || true,
                );
                assert_eq!(got.results, serial, "threads {threads}");
                assert_eq!(scratch.len(), threads, "one element per worker");
                assert_eq!(scratch.iter().sum::<u64>(), round * 57, "kept across calls");
            }
        }
        let mut scratch = vec![0u64; 5];
        let out = par_map_with(2, &mut scratch, items.clone(), |_, x| x * 3, || true);
        assert_eq!(out.results, serial);
        assert_eq!(scratch.len(), 5, "scratch never shrinks");
    }

    #[test]
    fn par_map_completes_when_poll_allows() {
        let items: Vec<usize> = (0..100).collect();
        let out = map_polled(3, items.clone(), |x| x * 2, || true);
        assert!(out.completed);
        assert_eq!(out.results, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    /// Blocks until `flag` is raised; panics after a minute, so a pool
    /// that never raises it fails instead of hanging.
    fn wait_for(flag: &AtomicBool) {
        let start = std::time::Instant::now();
        while !flag.load(Ordering::SeqCst) {
            assert!(start.elapsed().as_secs() < 60, "flag never raised");
            std::thread::yield_now();
        }
    }

    #[test]
    fn par_map_stops_within_an_item_per_worker() {
        const THREADS: usize = 2;
        for k in [1, 3, 10] {
            let caller = std::thread::current().id();
            let (helper_started, turned_false) = (AtomicBool::new(false), AtomicBool::new(false));
            let ran = AtomicUsize::new(0);
            let mut polls = 0;
            let out = map_polled(
                THREADS,
                (0..100usize).collect(),
                |x| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    if std::thread::current().id() == caller {
                        // The helper holds an item while the calling
                        // thread runs its own.
                        wait_for(&helper_started);
                    } else {
                        // A helper's item finishes only once the poll has
                        // turned, so the helper cannot run ahead of the
                        // calling thread. The pause covers the window
                        // between the poll returning `false` and the stop
                        // flag being raised, which nothing outside the
                        // pool can observe.
                        helper_started.store(true, Ordering::SeqCst);
                        wait_for(&turned_false);
                        std::thread::sleep(std::time::Duration::from_millis(20));
                    }
                    x
                },
                || {
                    polls += 1;
                    let go = polls <= k;
                    if !go {
                        turned_false.store(true, Ordering::SeqCst);
                    }
                    go
                },
            );
            assert!(!out.completed, "k = {k}");
            assert_eq!(polls, k + 1, "no poll after the first false one");
            let ran = ran.into_inner();
            assert_eq!(out.results, (0..ran).collect::<Vec<_>>(), "k = {k}");
            // The calling thread's k items, and the one the helper held.
            assert_eq!(ran, k + THREADS - 1, "k = {k}");
        }
    }

    #[test]
    fn par_map_can_stop_before_any_work() {
        let ran = AtomicBool::new(false);
        let out = map_polled(
            4,
            vec![1, 2, 3],
            |x| {
                ran.store(true, Ordering::SeqCst);
                x
            },
            || false,
        );
        assert!(!out.completed);
        assert!(out.results.is_empty());
        assert!(!ran.into_inner(), "f never ran");
    }

    #[test]
    fn calling_thread_runs_items() {
        let caller = std::thread::current().id();
        for threads in [2, 3] {
            let caller_ran = AtomicBool::new(false);
            let out = map_polled(
                threads,
                (0..20usize).collect(),
                |x| {
                    let id = std::thread::current().id();
                    if id == caller {
                        caller_ran.store(true, Ordering::SeqCst);
                    } else {
                        // Helpers hold their first items until the
                        // calling thread has run one of its own.
                        wait_for(&caller_ran);
                    }
                    (x, id)
                },
                || true,
            );
            assert!(out.completed);
            let ids: Vec<_> = out.results.iter().map(|&(_, id)| id).collect();
            assert_eq!(
                out.results.iter().map(|&(x, _)| x).collect::<Vec<_>>(),
                (0..20).collect::<Vec<_>>()
            );
            assert!(ids.contains(&caller), "threads {threads}");
            let distinct: std::collections::HashSet<_> = ids.iter().collect();
            assert!(distinct.len() <= threads, "threads {threads}: {distinct:?}");
        }
    }

    #[test]
    fn split_seed_decorrelates_indices() {
        let a = split_seed(42, 0);
        let b = split_seed(42, 1);
        let c = split_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // And is a pure function of (seed, index).
        assert_eq!(split_seed(42, 1), b);
    }

    #[test]
    fn resolve_zero_means_available() {
        assert_eq!(resolve_threads(0), available_threads());
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn lease_requests_that_can_never_be_granted_are_typed_errors() {
        let pool = SlotPool::new(4);
        assert_eq!(pool.lease(0, 4, 0).unwrap_err(), LeaseError::ZeroWidth);
        assert_eq!(
            pool.lease(5, 8, 0).unwrap_err(),
            LeaseError::ExceedsPool {
                requested: 5,
                total: 4
            }
        );
        assert_eq!(
            pool.lease(3, 2, 0).unwrap_err(),
            LeaseError::EmptyRange { min: 3, max: 2 }
        );
        // Overflow-shaped requests fail the same typed way.
        assert_eq!(
            pool.lease(usize::MAX, usize::MAX, 0).unwrap_err(),
            LeaseError::ExceedsPool {
                requested: usize::MAX,
                total: 4
            }
        );
        // A zero-slot pool can never grant anything.
        let empty = SlotPool::new(0);
        assert_eq!(
            empty.lease(1, 1, 0).unwrap_err(),
            LeaseError::ExceedsPool {
                requested: 1,
                total: 0
            }
        );
        assert_eq!(pool.available(), 4, "failed requests lease nothing");
    }

    #[test]
    fn lone_lease_takes_up_to_max_and_returns_on_drop() {
        let pool = SlotPool::new(4);
        let lease = pool.lease(1, 3, 0).expect("grantable");
        assert_eq!(lease.width(), 3, "lone request gets everything up to max");
        assert_eq!(pool.available(), 1);
        assert_eq!(pool.leased(), 3);
        drop(lease);
        assert_eq!(pool.available(), 4, "drop returns every slot");
        assert_eq!(pool.waiting(), 0);
    }

    #[test]
    fn simultaneous_requests_split_the_pool_fairly() {
        // Two requests queued behind a blocker that owns the whole
        // pool: on release, the head sees ceil(4/2)=2 and the second
        // sees ceil(2/1)=2 while the first still holds its share.
        let pool = SlotPool::new(4);
        let blocker = pool.lease(1, 4, 0).expect("grantable");
        assert_eq!(blocker.width(), 4, "lone request takes everything");
        let widths = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| {
                    let lease = pool.lease(1, 4, 0).expect("grantable");
                    widths.lock().expect("no panic").push(lease.width());
                    // Hold until everyone in line has been granted, so
                    // released slots cannot inflate later widths.
                    while pool.waiting() > 0 {
                        std::thread::yield_now();
                    }
                });
            }
            while pool.waiting() < 2 {
                std::thread::yield_now();
            }
            drop(blocker);
        });
        assert_eq!(widths.into_inner().expect("no panic"), vec![2, 2]);
        assert_eq!(pool.available(), 4);
    }

    #[test]
    fn priority_orders_the_line_and_fifo_breaks_ties() {
        let pool = SlotPool::new(1);
        let blocker = pool.lease(1, 1, 0).expect("grantable");
        let order = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            // Low priority enters the line first, high priority second.
            scope.spawn(|| {
                let _l = pool.lease(1, 1, 0).expect("grantable");
                order.lock().expect("no panic").push("low");
            });
            while pool.waiting() < 1 {
                std::thread::yield_now();
            }
            scope.spawn(|| {
                let _l = pool.lease(1, 1, 7).expect("grantable");
                order.lock().expect("no panic").push("high");
            });
            while pool.waiting() < 2 {
                std::thread::yield_now();
            }
            drop(blocker);
        });
        assert_eq!(
            order.into_inner().expect("no panic"),
            vec!["high", "low"],
            "higher priority is admitted first"
        );
        assert_eq!(pool.available(), 1);
    }

    #[test]
    fn aborted_waits_leave_the_line_without_a_grant() {
        let pool = SlotPool::new(1);
        let blocker = pool.lease(1, 1, 0).expect("grantable");
        let aborted = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let got = pool
                    .lease_or_abort(1, 1, 0, &|| aborted.load(Ordering::Relaxed))
                    .expect("valid range");
                assert!(got.is_none(), "aborted request must not be granted");
            });
            while pool.waiting() < 1 {
                std::thread::yield_now();
            }
            aborted.store(true, Ordering::Relaxed);
        });
        assert_eq!(pool.waiting(), 0, "aborted waiter left the line");
        drop(blocker);
        assert_eq!(pool.available(), 1);
        // An immediate abort never even enters the line.
        assert!(pool
            .lease_or_abort(1, 1, 0, &|| true)
            .expect("valid")
            .is_none());
    }

    #[test]
    fn lease_sequences_record_grant_order() {
        let pool = SlotPool::new(2);
        let first = pool.lease(1, 1, 0).expect("grantable");
        let second = pool.lease(1, 1, 0).expect("grantable");
        assert_eq!(first.sequence(), 0);
        assert_eq!(second.sequence(), 1);
        drop(first);
        let third = pool.try_lease(1, 1).expect("one slot free");
        assert_eq!(third.sequence(), 2, "sequences never repeat");
    }

    #[test]
    fn try_lease_never_barges_past_the_line() {
        let pool = SlotPool::new(2);
        let hold = pool.lease(1, 1, 0).expect("grantable");
        assert!(pool.try_lease(2, 2).is_none(), "not enough free slots");
        let second = pool.try_lease(1, 2).expect("one slot is free");
        assert_eq!(second.width(), 1);
        drop(second);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _wide = pool.lease(2, 2, 0).expect("grantable");
            });
            while pool.waiting() < 1 {
                std::thread::yield_now();
            }
            // One slot is free, but a waiter is in line: no barging.
            assert!(pool.try_lease(1, 1).is_none());
            drop(hold);
        });
        assert_eq!(pool.available(), 2);
    }
}
