//! # tdals-sta
//!
//! Static timing analysis and timing-driven gate sizing — the workspace's
//! substitute for the Synopsys PrimeTime (analysis) and Design Compiler
//! (re-sizing) calls in the paper's flow.
//!
//! * [`analyze`] propagates arrival times and logic depth through a
//!   netlist under a linear delay model, producing a [`TimingReport`]
//!   with per-gate and per-PO timing, the critical path delay (`CPD`),
//!   and the maximum depth (`Depth` in the paper's fitness, Eq. 8);
//! * [`critical_path`] / [`critical_path_to_po`] extract the worst paths
//!   that circuit searching targets, one [`worst_fanin`] step at a time;
//! * [`size_for_timing`] implements the post-optimization sizing step
//!   (§III-C): greedy drive-strength upsizing under an area constraint.
//!
//! # Examples
//!
//! ```
//! use tdals_netlist::Netlist;
//! use tdals_netlist::cell::{Cell, CellFunc, Drive};
//! use tdals_sta::{analyze, critical_path, TimingConfig};
//!
//! let mut n = Netlist::new("mini");
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let g1 = n.add_gate("g1", Cell::new(CellFunc::And2, Drive::X1),
//!                     vec![a.into(), b.into()])?;
//! let g2 = n.add_gate("g2", Cell::new(CellFunc::Xor2, Drive::X1),
//!                     vec![g1.into(), b.into()])?;
//! n.add_output("y", g2.into());
//!
//! let report = analyze(&n, &TimingConfig::default());
//! assert_eq!(report.max_depth(), 2);
//! assert_eq!(critical_path(&n, &report).len(), 2);
//! # Ok::<(), tdals_netlist::NetlistError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod analysis;
mod incremental;
mod report;
mod sizing;

pub use analysis::{
    analyze, critical_path, critical_path_to_po, worst_fanin, Arrivals, TimingConfig, TimingReport,
};
pub use incremental::{IncrementalSta, TimingDelta};
pub use report::{timing_report_text, ReportOptions};
pub use sizing::{size_for_timing, SizingConfig, SizingResult};
