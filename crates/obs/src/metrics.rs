//! Process-wide metric registry: sharded atomic counters, gauges, and
//! fixed-bucket histograms.
//!
//! The registry is a fixed struct of named metrics — no dynamic
//! registration, no locks, no allocation on the hot path. A counter
//! increment is one relaxed `fetch_add` on a thread-striped shard
//! (16 cache-line-padded cells, so concurrent workers do not bounce
//! one cache line); a histogram record is two. Everything is
//! monotone-write / racy-read: [`Metrics::snapshot`] sums the shards
//! without stopping writers, which is exactly the consistency a stats
//! endpoint needs and all it promises.
//!
//! Nothing here reads the clock and nothing feeds back into
//! computation, so the counters can stay **always on** without
//! touching the determinism contract. The one escape hatch is
//! [`set_counters_enabled`], which exists solely so the overhead
//! benchmark (`bench_delta_sim`'s `obs` section) can measure the
//! instrumented hot paths against a disarmed registry in one process.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

/// Number of counter stripes. A power of two around the worker-thread
/// counts the pool actually runs.
const SHARDS: usize = 16;

/// Histogram bucket count: upper bounds 2^0 .. 2^20, plus overflow.
const BUCKETS: usize = 22;

/// Global arm switch for the whole registry (counters *and* histogram
/// records). On by default; only the observability overhead benchmark
/// flips it, to time the hot paths with the registry disarmed.
static COUNTERS_ENABLED: AtomicBool = AtomicBool::new(true);

/// Arms or disarms every counter and histogram in the process.
/// Testing/benchmarking hook — production paths never call this.
pub fn set_counters_enabled(enabled: bool) {
    COUNTERS_ENABLED.store(enabled, Ordering::Relaxed);
}

/// Monotonically increasing stripe index per thread: spreads writers
/// over counter shards without hashing opaque `ThreadId`s.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static STRIPE: usize = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % SHARDS;
}

/// One cache line per shard so concurrent increments from different
/// workers do not false-share.
#[repr(align(64))]
#[derive(Debug)]
struct PaddedCell(AtomicU64);

impl PaddedCell {
    const fn zero() -> PaddedCell {
        PaddedCell(AtomicU64::new(0))
    }
}

/// A monotone counter striped over `SHARDS` padded atomics.
#[derive(Debug)]
pub struct Counter {
    shards: [PaddedCell; SHARDS],
}

impl Counter {
    /// A zeroed counter.
    pub const fn new() -> Counter {
        Counter {
            shards: [const { PaddedCell::zero() }; SHARDS],
        }
    }

    /// Adds `n` on the calling thread's stripe.
    #[inline]
    pub fn add(&self, n: u64) {
        if !COUNTERS_ENABLED.load(Ordering::Relaxed) {
            return;
        }
        STRIPE.with(|&s| self.shards[s].0.fetch_add(n, Ordering::Relaxed));
    }

    /// Adds 1.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Racy-read total over all stripes.
    pub fn get(&self) -> u64 {
        self.shards
            .iter()
            .map(|c| c.0.load(Ordering::Relaxed))
            .sum()
    }
}

impl Default for Counter {
    fn default() -> Counter {
        Counter::new()
    }
}

/// A last-write-wins instantaneous value (e.g. queue depth).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A zeroed gauge.
    pub const fn new() -> Gauge {
        Gauge {
            value: AtomicU64::new(0),
        }
    }

    /// Stores the current value.
    #[inline]
    pub fn set(&self, v: u64) {
        if !COUNTERS_ENABLED.load(Ordering::Relaxed) {
            return;
        }
        self.value.store(v, Ordering::Relaxed);
    }

    /// Reads the last stored value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket power-of-two histogram: upper bounds
/// 1, 2, 4, …, 2^20, plus an overflow bucket, with a running count and
/// sum. Bucket boundaries are compiled in, so recording is two relaxed
/// atomic adds and a `leading_zeros`.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// A zeroed histogram.
    pub const fn new() -> Histogram {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Index of the first bucket whose upper bound holds `v`.
    fn bucket_of(v: u64) -> usize {
        if v <= 1 {
            return 0;
        }
        // Smallest i with 2^i >= v.
        let ceil_log2 = 64 - (v - 1).leading_zeros() as usize;
        ceil_log2.min(BUCKETS - 1)
    }

    /// Upper bound of bucket `i`, `None` for the overflow bucket.
    fn bound_of(i: usize) -> Option<u64> {
        (i < BUCKETS - 1).then(|| 1u64 << i)
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        if !COUNTERS_ENABLED.load(Ordering::Relaxed) {
            return;
        }
        self.buckets[Histogram::bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Racy-read snapshot of this histogram.
    pub fn snapshot(&self, name: &'static str) -> HistogramSnapshot {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let n = c.load(Ordering::Relaxed);
                (n > 0).then_some((Histogram::bound_of(i), n))
            })
            .collect();
        HistogramSnapshot {
            name,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

/// The fixed registry: every metric the stack maintains, named here
/// once so the snapshot order (and therefore every serialized stats
/// frame) is stable.
#[derive(Debug)]
#[non_exhaustive]
pub struct Metrics {
    /// Candidate evaluations recorded by budget trackers.
    pub evaluations: Counter,
    /// LACs accepted by an optimizer (the `lac-accepted` flow event).
    pub lacs_accepted: Counter,
    /// `DeltaSim` cone previews.
    pub delta_previews: Counter,
    /// `DeltaSim` incremental commits.
    pub delta_commits: Counter,
    /// `DeltaEval` scoring bases built or rebuilt (one full simulation
    /// plus one full STA pass each).
    pub scoring_bases: Counter,
    /// `SlotPool` lease requests that had to wait in line.
    pub lease_waits: Counter,
    /// Wire frames read by the daemon.
    pub frames_read: Counter,
    /// Wire frames written by the daemon.
    pub frames_written: Counter,
    /// Finished sessions converted to reaped records by the daemon.
    pub sessions_reaped: Counter,
    /// Crashed shard workers restarted by the cluster supervisor.
    pub shard_restarts: Counter,
    /// Sessions currently waiting in the slot-pool line.
    pub queue_depth: Gauge,
    /// Affected-cone sizes (changed gates) per delta preview/commit.
    pub delta_cone_gates: Histogram,
    /// Slot widths granted by the pool.
    pub grant_width: Histogram,
    /// Microseconds a granted lease spent waiting in line.
    pub lease_wait_us: Histogram,
}

impl Metrics {
    const fn new() -> Metrics {
        Metrics {
            evaluations: Counter::new(),
            lacs_accepted: Counter::new(),
            delta_previews: Counter::new(),
            delta_commits: Counter::new(),
            scoring_bases: Counter::new(),
            lease_waits: Counter::new(),
            frames_read: Counter::new(),
            frames_written: Counter::new(),
            sessions_reaped: Counter::new(),
            shard_restarts: Counter::new(),
            queue_depth: Gauge::new(),
            delta_cone_gates: Histogram::new(),
            grant_width: Histogram::new(),
            lease_wait_us: Histogram::new(),
        }
    }

    /// Racy-read snapshot of every metric, in registry order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![
                ("evaluations", self.evaluations.get()),
                ("lacs_accepted", self.lacs_accepted.get()),
                ("delta_previews", self.delta_previews.get()),
                ("delta_commits", self.delta_commits.get()),
                ("scoring_bases", self.scoring_bases.get()),
                ("lease_waits", self.lease_waits.get()),
                ("frames_read", self.frames_read.get()),
                ("frames_written", self.frames_written.get()),
                ("sessions_reaped", self.sessions_reaped.get()),
                ("shard_restarts", self.shard_restarts.get()),
            ],
            gauges: vec![("queue_depth", self.queue_depth.get())],
            histograms: vec![
                self.delta_cone_gates.snapshot("delta_cone_gates"),
                self.grant_width.snapshot("grant_width"),
                self.lease_wait_us.snapshot("lease_wait_us"),
            ],
        }
    }
}

/// The process registry. Counters are striped atomics, so handing out
/// a shared reference everywhere is the whole synchronization story.
pub fn metrics() -> &'static Metrics {
    static METRICS: Metrics = Metrics::new();
    &METRICS
}

/// One histogram's racy-read state: name, totals, and the non-empty
/// buckets as `(upper bound, count)` — `None` is the overflow bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Registry name.
    pub name: &'static str,
    /// Observations recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Non-empty `(upper bound, count)` buckets, ascending; a `None`
    /// bound is the overflow bucket.
    pub buckets: Vec<(Option<u64>, u64)>,
}

/// Every metric's value at one racy-read instant, in registry order —
/// the neutral shape downstream layers (the `stats` wire verb, the
/// CLI) serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// `(name, total)` for every counter.
    pub counters: Vec<(&'static str, u64)>,
    /// `(name, value)` for every gauge.
    pub gauges: Vec<(&'static str, u64)>,
    /// Every histogram's snapshot.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// The counter named `name`, if the snapshot has it.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_powers_of_two_with_overflow() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 2);
        assert_eq!(Histogram::bucket_of(5), 3);
        assert_eq!(Histogram::bucket_of(1 << 20), 20);
        assert_eq!(Histogram::bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(Histogram::bound_of(0), Some(1));
        assert_eq!(Histogram::bound_of(20), Some(1 << 20));
        assert_eq!(Histogram::bound_of(BUCKETS - 1), None);
    }

    #[test]
    fn histogram_snapshot_keeps_totals() {
        let h = Histogram::new();
        for v in [0, 1, 2, 700, u64::MAX / 2] {
            h.record(v);
        }
        let snap = h.snapshot("t");
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 703 + u64::MAX / 2);
        assert_eq!(snap.buckets.iter().map(|&(_, n)| n).sum::<u64>(), 5);
        assert_eq!(snap.buckets.last().expect("overflow hit").0, None);
    }

    #[test]
    fn registry_snapshot_is_stably_ordered() {
        let a = metrics().snapshot();
        let b = metrics().snapshot();
        let names = |s: &MetricsSnapshot| s.counters.iter().map(|&(n, _)| n).collect::<Vec<_>>();
        assert_eq!(names(&a), names(&b));
        assert_eq!(a.counters[0].0, "evaluations");
        assert!(a.counter("no-such-metric").is_none());
    }
}
