//! The `serve-batch` engine as a library: run every job of a
//! [`Manifest`] as concurrent sessions over one shared pool and produce
//! the deterministic results document.
//!
//! `tdals serve-batch` is a thin shell over this module, and the shard
//! coordinator (`tdals-cluster`) runs the *same* engine inside each
//! worker process — which is what makes a sharded run's merged results
//! file byte-identical to the unsharded run by construction: every
//! record is produced by this one code path, and the pool shape
//! (`total`/`session_cap`) is width-invariant by the PR 4/5 contract.
//!
//! The two-step shape ([`BatchRun::prepare`] then [`BatchRun::run`])
//! exists so a front end can announce the computed pool shape before
//! any session starts, and so the whole batch is validated before any
//! of it runs — one inadmissible job never produces a partial results
//! file.

use std::time::Duration;

use tdals_core::api::{FlowEvent, FlowOutcome};
use tdals_obs::json::Json;

use crate::job::{results_document, FlowJob, Manifest};
use crate::scheduler::{Scheduler, SchedulerConfig, ServerError, SessionError};

/// Pool-shape overrides for one batch run: the CLI flags. Manifest
/// hints fill whatever is `None`, and the machine's core count backs
/// the rest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct BatchOptions {
    /// Total worker slots (`--total-threads`); wins over the manifest's
    /// `total_threads` hint.
    pub total_threads: Option<usize>,
    /// Per-session lease cap (`--session-threads`); default is an even
    /// static split across the batch.
    pub session_threads: Option<usize>,
}

impl BatchOptions {
    /// Options taking every default (manifest hint, then core count).
    pub fn new() -> BatchOptions {
        BatchOptions::default()
    }

    /// Sets the total worker-slot count.
    pub fn with_total_threads(mut self, total: impl Into<Option<usize>>) -> BatchOptions {
        self.total_threads = total.into();
        self
    }

    /// Sets the per-session lease cap.
    pub fn with_session_threads(mut self, cap: impl Into<Option<usize>>) -> BatchOptions {
        self.session_threads = cap.into();
        self
    }
}

/// A validated, ready-to-run batch: the jobs (thread hints clamped to
/// the pool) plus the computed pool shape.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct BatchRun {
    /// The jobs in manifest order, per-job `threads` hints clamped to
    /// the pool.
    pub jobs: Vec<FlowJob>,
    /// Total worker slots the pool will hold.
    pub total_threads: usize,
    /// Most slots one session may lease.
    pub session_cap: usize,
}

/// One finished batch: per-job results in manifest order plus the
/// completed/failed tally.
#[derive(Debug)]
#[non_exhaustive]
pub struct BatchReport {
    /// The jobs, exactly as run (manifest order).
    pub jobs: Vec<FlowJob>,
    /// Each job's outcome or typed failure, in manifest order.
    pub results: Vec<Result<FlowOutcome, SessionError>>,
    /// How many sessions completed.
    pub completed: usize,
    /// How many sessions failed or panicked.
    pub failed: usize,
}

impl BatchReport {
    /// The schema-1 results document, in manifest order — the exact
    /// bytes-modulo-trailing-newline `tdals serve-batch` writes.
    pub fn document(&self) -> Json {
        results_document(self.jobs.iter().zip(self.results.iter()))
    }
}

impl BatchRun {
    /// Computes the pool shape and validates every job against it.
    ///
    /// The shape rules are the CLI's: `options.total_threads` wins over
    /// the manifest's hint, which wins over the machine's core count;
    /// per-job `threads` hints are clamped to the pool (results are
    /// width-invariant, so clamping cannot change them, and the same
    /// manifest stays admissible at every pool width); the default
    /// per-session cap is an even static split across the batch,
    /// widened to the largest per-job hint.
    ///
    /// # Errors
    ///
    /// The scheduler's typed configuration/admission errors — reported
    /// for the whole batch before any session starts.
    pub fn prepare(manifest: &Manifest, options: &BatchOptions) -> Result<BatchRun, ServerError> {
        let total = options
            .total_threads
            .or(manifest.total_threads)
            .unwrap_or_else(tdals_core::par::available_threads)
            .max(1);
        // `0` stays 0 so the scheduler's typed ZeroThreads error still
        // reaches the caller.
        let mut jobs = manifest.jobs.clone();
        for job in &mut jobs {
            if let Some(t) = job.threads {
                job.threads = Some(t.min(total));
            }
        }
        let concurrency = jobs.len().min(total).max(1);
        let session_cap = match options.session_threads {
            Some(cap) => cap,
            None => {
                let hinted = jobs.iter().filter_map(|j| j.threads).max().unwrap_or(1);
                total.div_ceil(concurrency).max(hinted).min(total)
            }
        };
        let scheduler = Scheduler::new(SchedulerConfig::new(total).with_session_cap(session_cap))?;
        // Reject the whole batch before running any of it.
        for job in &jobs {
            scheduler.validate(job)?;
        }
        Ok(BatchRun {
            jobs,
            total_threads: total,
            session_cap,
        })
    }

    /// Runs the batch to completion, streaming every session's events
    /// through `on_event` as `(submission index, job name, event)`.
    /// Events are drained even when the callback ignores them, so
    /// session buffers stay flat over long batches; results land in
    /// submission order whatever order sessions finish.
    ///
    /// # Errors
    ///
    /// Admission errors from submission (prepare already validated the
    /// batch, so these indicate a shape change between the two calls).
    pub fn run(
        &self,
        on_event: &mut dyn FnMut(usize, &str, &FlowEvent),
    ) -> Result<BatchReport, ServerError> {
        let scheduler = Scheduler::new(
            SchedulerConfig::new(self.total_threads).with_session_cap(self.session_cap),
        )?;
        let handles = self
            .jobs
            .iter()
            .cloned()
            .map(|job| scheduler.submit(job))
            .collect::<Result<Vec<_>, _>>()?;

        let mut results: Vec<Option<Result<FlowOutcome, SessionError>>> = Vec::new();
        results.resize_with(handles.len(), || None);
        loop {
            let mut pending = false;
            for (i, handle) in handles.iter().enumerate() {
                for ev in handle.poll_events() {
                    on_event(i, handle.name(), &ev);
                }
                if results[i].is_none() {
                    match handle.try_result() {
                        Some(result) => results[i] = Some(result),
                        None => pending = true,
                    }
                }
            }
            if !pending {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        scheduler.drain();
        // Final drain: events that landed between the last poll and the
        // session's completion.
        for (i, handle) in handles.iter().enumerate() {
            for ev in handle.poll_events() {
                on_event(i, handle.name(), &ev);
            }
        }

        let results: Vec<Result<FlowOutcome, SessionError>> =
            results.into_iter().map(|r| r.expect("all done")).collect();
        let completed = results.iter().filter(|r| r.is_ok()).count();
        Ok(BatchReport {
            jobs: self.jobs.clone(),
            failed: results.len() - completed,
            completed,
            results,
        })
    }
}
