//! # tdals-netlist
//!
//! Gate-level netlist substrate for the timing-driven approximate logic
//! synthesis (ALS) framework of *"Timing-driven Approximate Logic
//! Synthesis Based on Double-chase Grey Wolf Optimizer"* (DATE 2025).
//!
//! The crate provides the three foundations everything else builds on:
//!
//! * [`cell`] — a synthetic 28nm-class standard-cell library with
//!   discrete drive strengths and a linear delay model (substitute for
//!   the proprietary TSMC 28nm library used in the paper);
//! * [`Netlist`] — circuits stored as **gate fan-in adjacency lists**
//!   (§III-A of the paper) with a topological id invariant that makes
//!   local approximate changes loop-free by construction;
//! * [`verilog`] — a structural Verilog reader/writer for the
//!   post-synthesis `.v` files the flow consumes and produces.
//!
//! # Examples
//!
//! ```
//! use tdals_netlist::{Netlist, SignalRef};
//! use tdals_netlist::cell::{Cell, CellFunc, Drive};
//!
//! // Build `y = !(a & b)`, then apply a wire-by-constant LAC.
//! let mut n = Netlist::new("demo");
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let g = n.add_gate("u1", Cell::new(CellFunc::And2, Drive::X1),
//!                    vec![a.into(), b.into()])?;
//! let inv = n.add_gate("u2", Cell::new(CellFunc::Inv, Drive::X1),
//!                      vec![g.into()])?;
//! n.add_output("y", inv.into());
//!
//! // Substitute the AND gate's output wire with constant 0.
//! n.substitute(g, SignalRef::Const0)?;
//! assert!(!n.live_mask()[g.index()]); // the AND gate is now dangling
//! # Ok::<(), tdals_netlist::NetlistError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod builder;
pub mod cell;
mod error;
pub mod liberty;
mod netlist;
pub mod verilog;

pub use cell::{Cell, CellFunc, Drive};
pub use error::{Loc, NetlistError, ParseVerilogError};
pub use netlist::{Fanouts, Gate, GateId, Netlist, Output, SignalRef};
