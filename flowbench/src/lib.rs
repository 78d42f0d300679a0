//! # tdals-flowbench
//!
//! End-to-end flow benchmark for tdals. One run executes one named
//! workload ([`workload::WORKLOADS`]) through the public `tdals` API as
//! a closed loop — one client, each flow starting after the previous
//! one ends — checks every output independently ([`check`]), and
//! reports either the end-to-end metrics or, in a traced run, the
//! per-layer metrics ([`runner::END_TO_END`], [`runner::PER_LAYER`]).
//!
//! It measures from outside the program: it times calls into each
//! layer's public functions ([`probe`]) and reads the spans and
//! counters `tdals-obs` records ([`spans`], [`measure`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod check;
pub mod host;
pub mod measure;
pub mod probe;
pub mod runner;
pub mod spans;
pub mod stats;
pub mod workload;
