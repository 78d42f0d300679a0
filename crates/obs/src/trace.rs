//! Ring-buffered hierarchical span recorder.
//!
//! A [`Span`] is an RAII guard: opening one stamps a start timestamp
//! (through the [`crate::clock`] facade — the recorder owns no clock
//! reads of its own), dropping it records a completed
//! `(ts, dur, thread)` interval into a bounded ring. Guards on one
//! thread drop LIFO, so a parent interval always encloses its
//! children — exactly the containment rule Chrome's trace viewer (and
//! Perfetto) uses to rebuild the hierarchy, no explicit parent ids
//! needed.
//!
//! The recorder is **off by default**: `span()` then returns a
//! disarmed guard after one relaxed atomic load, and no timestamp is
//! read at all. `--trace out.json` on the CLI enables it for the run
//! and drains the ring into a Chrome trace-event artifact afterwards
//! (serialization lives in [`crate::report`]; this crate stays
//! dependency-free).
//!
//! The ring is bounded: when full, the **oldest** record is dropped
//! and counted, so a long daemon run keeps its most recent window
//! instead of growing without limit.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::clock;

/// Span category tags: the four levels of the tdals hierarchy.
pub mod cat {
    /// A whole `Flow::run`.
    pub const FLOW: &str = "flow";
    /// A flow phase (optimize, post-opt, …).
    pub const PHASE: &str = "phase";
    /// One optimizer iteration.
    pub const ITERATION: &str = "iteration";
    /// One fan-out over the worker pool (one pool call).
    pub const PAR: &str = "par";
}

/// One completed span: a closed interval on one thread's timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Display name (e.g. the optimizer or phase name).
    pub name: String,
    /// Category tag (one of [`cat`]'s constants).
    pub cat: &'static str,
    /// Start, microseconds since the process trace epoch.
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Recording thread's stable small id.
    pub tid: u64,
    /// Small key/value details (counts, widths — never timestamps).
    pub args: Vec<(&'static str, u64)>,
}

/// Default ring capacity when [`enable`] is called with 0.
const DEFAULT_CAPACITY: usize = 1 << 16;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

struct Ring {
    records: VecDeque<SpanRecord>,
    capacity: usize,
    dropped: u64,
}

fn ring() -> &'static Mutex<Ring> {
    static RING: Mutex<Ring> = Mutex::new(Ring {
        records: VecDeque::new(),
        capacity: DEFAULT_CAPACITY,
        dropped: 0,
    });
    &RING
}

/// Turns the recorder on with the given ring capacity (0 takes the
/// default, 64Ki records). Clears any previous contents.
pub fn enable(capacity: usize) {
    let mut ring = ring().lock().unwrap_or_else(PoisonError::into_inner);
    ring.records.clear();
    ring.capacity = if capacity == 0 {
        DEFAULT_CAPACITY
    } else {
        capacity
    };
    ring.dropped = 0;
    ENABLED.store(true, Ordering::Release);
}

/// Turns the recorder off; already-recorded spans stay drainable.
pub fn disable() {
    ENABLED.store(false, Ordering::Release);
}

/// Whether spans are currently being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Removes and returns every recorded span, oldest first (and within
/// one instant, in recording order).
pub fn drain() -> Vec<SpanRecord> {
    let mut ring = ring().lock().unwrap_or_else(PoisonError::into_inner);
    let mut records: Vec<SpanRecord> = ring.records.drain(..).collect();
    records.sort_by_key(|r| r.ts_us);
    records
}

/// Spans the ring had to discard (oldest-first) since [`enable`].
pub fn dropped() -> u64 {
    ring()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .dropped
}

/// Opens a span. When the recorder is disabled this is one relaxed
/// atomic load — no clock read, no allocation beyond the name the
/// caller already built.
pub fn span(category: &'static str, name: impl Into<String>) -> Span {
    if !enabled() {
        return Span { open: None };
    }
    Span {
        open: Some(OpenSpan {
            name: name.into(),
            cat: category,
            start_us: clock::micros_since_epoch(),
            args: Vec::new(),
        }),
    }
}

#[derive(Debug)]
struct OpenSpan {
    name: String,
    cat: &'static str,
    start_us: u64,
    args: Vec<(&'static str, u64)>,
}

/// An in-flight span; records itself on drop. Obtained from [`span`].
#[derive(Debug)]
#[must_use = "a span measures the scope it lives in; binding it to _ drops it immediately"]
pub struct Span {
    open: Option<OpenSpan>,
}

impl Span {
    /// Attaches a small numeric detail (no-op when disarmed).
    pub fn arg(mut self, key: &'static str, value: u64) -> Span {
        if let Some(open) = &mut self.open {
            open.args.push((key, value));
        }
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        let end_us = clock::micros_since_epoch();
        let record = SpanRecord {
            name: open.name,
            cat: open.cat,
            ts_us: open.start_us,
            dur_us: end_us.saturating_sub(open.start_us),
            tid: TID.with(|&t| t),
            args: open.args,
        };
        let mut ring = ring().lock().unwrap_or_else(PoisonError::into_inner);
        if ring.records.len() >= ring.capacity {
            ring.records.pop_front();
            ring.dropped += 1;
        }
        ring.records.push_back(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder is process-global, so its tests run as one unit —
    // Rust runs #[test]s of one module concurrently otherwise.
    #[test]
    fn recorder_lifecycle() {
        // Disabled: no clock read, no records.
        disable();
        drop(span(cat::FLOW, "ignored"));
        assert!(drain().iter().all(|r| r.name != "ignored"));

        // Enabled: nested guards record child-within-parent.
        enable(8);
        {
            let _parent = span(cat::FLOW, "unit-parent").arg("gates", 3);
            let _child = span(cat::PHASE, "unit-child");
        }
        let records = drain();
        let child = records
            .iter()
            .find(|r| r.name == "unit-child")
            .expect("child recorded");
        let parent = records
            .iter()
            .find(|r| r.name == "unit-parent")
            .expect("parent recorded");
        assert!(parent.ts_us <= child.ts_us);
        assert!(child.ts_us + child.dur_us <= parent.ts_us + parent.dur_us);
        assert_eq!(parent.args, vec![("gates", 3)]);

        // The ring drops oldest-first at capacity.
        enable(2);
        for i in 0..5 {
            drop(span(cat::ITERATION, format!("unit-ring-{i}")));
        }
        let records = drain();
        assert_eq!(records.len(), 2);
        assert_eq!(dropped(), 3);
        assert_eq!(records[1].name, "unit-ring-4", "newest survives");
        disable();
    }
}
