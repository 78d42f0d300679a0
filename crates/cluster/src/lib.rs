//! # tdals-cluster
//!
//! The multi-process shard coordinator: fan one `serve-batch`
//! [`Manifest`](tdals_server::Manifest) across N worker processes and
//! merge the per-shard results back into a file **byte-identical to
//! the single-process run**.
//!
//! The stack's determinism ladder makes this almost free: one flow is
//! bit-identical at any thread count (PR 4), a batch's results file is
//! byte-identical at any pool width (PR 5), and a wire-reassembled
//! results file is byte-identical to `serve-batch`'s (PR 7). Every
//! result record is a pure function of its job description — seeds
//! drive all randomness and wall-clock never enters a record — so
//! *where* a job runs cannot change its bytes. What a coordinator must
//! add is exactly three things, and they are the three modules here:
//!
//! * [`plan`](mod@plan) — split the manifest into per-shard index sets
//!   ([`ShardPlan`]) under a [`ShardPolicy`], recorded in a JSON shard
//!   map so the merge is order-reconstructible;
//! * [`supervisor`] — run one `tdals serve` daemon per shard and drive
//!   it over the wire protocol: daemons the supervisor spawns itself
//!   ([`run_children`]) or daemons already running at given addresses
//!   ([`run_daemons`]), with per-shard timeouts and one restart for a
//!   spawned daemon that dies (safe to re-run precisely because results
//!   are seed-driven);
//! * [`merge`](mod@merge) — stitch the per-shard, submission-ordered
//!   result records back into manifest order ([`merge()`]).
//!
//! Everything failure-shaped surfaces as a typed [`ClusterError`].
//!
//! # Example
//!
//! ```
//! use tdals_circuits::Benchmark;
//! use tdals_cluster::{merge, plan, ShardPolicy};
//! use tdals_server::{BatchOptions, BatchRun, FlowJob, Manifest};
//!
//! let jobs: Vec<FlowJob> = [3u64, 5, 7]
//!     .iter()
//!     .map(|&seed| {
//!         FlowJob::benchmark(Benchmark::Int2float)
//!             .with_bound(0.05)
//!             .with_scale(4, 1)
//!             .with_vectors(256)
//!             .with_seed(seed)
//!             .with_name(format!("job-{seed}"))
//!     })
//!     .collect();
//! let manifest = Manifest::new(jobs);
//! let plan = plan(&manifest, 2, ShardPolicy::RoundRobin).expect("plannable");
//!
//! // Run each shard in-process through the `serve-batch` engine (the
//! // supervisor runs each on a `tdals serve` daemon: the same bytes).
//! let opts = BatchOptions::new().with_total_threads(1);
//! let docs: Vec<String> = (0..plan.shard_count())
//!     .map(|s| {
//!         let run = BatchRun::prepare(&plan.manifest_for(&manifest, s), &opts).unwrap();
//!         format!("{}\n", run.run(&mut |_, _, _| {}).unwrap().document())
//!     })
//!     .collect();
//! let merged = merge(&plan, &docs).expect("merges");
//!
//! // Byte-identical to the unsharded run.
//! let solo = BatchRun::prepare(&manifest, &opts).unwrap();
//! let solo_doc = format!("{}\n", solo.run(&mut |_, _, _| {}).unwrap().document());
//! assert_eq!(merged, solo_doc);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod merge;
pub mod plan;
pub mod supervisor;

pub use merge::merge;
pub use plan::{plan, ShardPlan, ShardPolicy, SHARD_MAP_SCHEMA};
pub use supervisor::{run_children, run_daemons, SupervisorOptions};

/// Why a sharded run failed. Each variant names the layer that broke:
/// planning, process management, the wire protocol, or the merge
/// invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ClusterError {
    /// The shard plan (or a shard map being parsed) is invalid.
    Plan {
        /// What is wrong.
        what: String,
    },
    /// A filesystem or process-spawn operation failed.
    Io {
        /// What failed, with the OS error.
        what: String,
    },
    /// A spawned worker process died, even after the bounded restart.
    Worker {
        /// Which shard's worker.
        shard: usize,
        /// The exit status (or how the process died).
        status: String,
        /// Diagnosis, including the worker's last stderr lines.
        what: String,
    },
    /// A daemon conversation failed (dial, error frame, or a malformed
    /// reply).
    Protocol {
        /// Which shard's daemon.
        shard: usize,
        /// The protocol-level error.
        what: String,
    },
    /// A shard blew its per-shard timeout.
    Timeout {
        /// Which shard.
        shard: usize,
        /// The limit that fired, in seconds.
        seconds: u64,
    },
    /// The per-shard documents cannot be stitched back into manifest
    /// order (count/index/schema mismatch).
    Merge {
        /// Which invariant broke.
        what: String,
    },
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Plan { what } => write!(f, "shard plan: {what}"),
            ClusterError::Io { what } => write!(f, "cluster i/o: {what}"),
            ClusterError::Worker {
                shard,
                status,
                what,
            } => write!(f, "shard {shard} worker died ({status}): {what}"),
            ClusterError::Protocol { shard, what } => {
                write!(f, "shard {shard} protocol error: {what}")
            }
            ClusterError::Timeout { shard, seconds } => {
                write!(f, "shard {shard} timed out after {seconds}s")
            }
            ClusterError::Merge { what } => write!(f, "merge: {what}"),
        }
    }
}

impl std::error::Error for ClusterError {}
