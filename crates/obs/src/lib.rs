//! # tdals-obs
//!
//! Hand-rolled, zero-dependency observability for the tdals stack:
//! the layer that explains *where time and evaluations go* without
//! perturbing the determinism contract the rest of the workspace is
//! built on. Four pieces:
//!
//! * [`metrics`](mod@metrics) — a process-wide registry of sharded atomic counters
//!   and fixed-bucket histograms for the facts the hot paths already
//!   know (evaluations, delta-sim previews/commits and cone
//!   sizes, lease waits and grant widths, daemon frame traffic, shard
//!   restarts). Counters are always on; an increment is one relaxed
//!   atomic add on a thread-striped shard.
//! * [`trace`] — a ring-buffered hierarchical span recorder
//!   (flow → phase → iteration → pool fan-out). Disabled by default;
//!   when off, opening a span is a single relaxed atomic load. The
//!   drained records serialize to Chrome trace-event JSON through
//!   [`report`], loadable in Perfetto.
//! * [`clock`] — the **one audited wall-clock facade**. Every
//!   `Instant::now()` in the workspace outside this module (and the
//!   benchmark binaries) is a determinism-lint violation; routing all
//!   reads through here is what makes "timings never enter results
//!   files or digests" an auditable property of one file instead of a
//!   promise scattered over ten.
//! * [`json`] and [`report`] — the workspace's one JSON codec and the
//!   rendering of metric snapshots and span rings through it. Results
//!   files, wire frames, lint findings and benchmark reports all use
//!   this codec, so no production crate depends on the benchmark
//!   crate for it.
//!
//! Nothing the hot paths record feeds back into computation: metrics and
//! spans are write-only from the hot paths' point of view, so enabling
//! or disabling them cannot change a single byte of a results file —
//! the CI determinism soak (`ci/determinism-soak.sh`) diffs exactly
//! that.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod clock;
pub mod json;
pub mod metrics;
pub mod report;
pub mod trace;

pub use metrics::{metrics, Metrics, MetricsSnapshot};
pub use trace::{span, Span, SpanRecord};
