//! # tdals-sim
//!
//! Bit-parallel Monte-Carlo logic simulation and error estimation — the
//! workspace's substitute for VECBEE, the "versatile
//! efficiency–accuracy configurable batch error estimation" engine the
//! paper uses to measure circuit error and output similarities.
//!
//! Four pieces:
//!
//! * [`Patterns`] — packed random or exhaustive input stimulus;
//! * [`simulate`] / [`SimResult`] — evaluate every gate 64 vectors at a
//!   time ([`simulate_reusing`] writes into a recycled word buffer);
//!   similarity queries ([`SimWords::similarity`]) drive the paper's
//!   switch-gate selection;
//! * [`DeltaSim`] / [`DeltaView`] — incremental cone re-simulation:
//!   score or commit a single-gate substitution by re-evaluating only
//!   its transitive fan-out, bit-identical to a full [`simulate`];
//! * [`ErrorMetric`], [`error_rate`], [`nmed`], [`ErrorEvaluator`] —
//!   the ER (Eq. 1) and NMED (Eq. 2) constraint metrics, generic over
//!   the [`SimWords`] view trait so full and incremental results mix.
//!
//! Every gate kernel evaluates eight 64-bit words (512 vectors) per
//! inner-loop trip: one compile-time block width, described by
//! [`SimdWidth`]. [`simulate_reference`] runs the same kernel one word
//! at a time and stores the same bits; it is the oracle the blocked
//! kernels are tested and benchmarked against.
//!
//! # Examples
//!
//! ```
//! use tdals_netlist::{Netlist, SignalRef};
//! use tdals_netlist::cell::{Cell, CellFunc, Drive};
//! use tdals_sim::{ErrorEvaluator, ErrorMetric, Patterns};
//!
//! // y = a | b, approximated by y = a.
//! let mut n = Netlist::new("or");
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let g = n.add_gate("u", Cell::new(CellFunc::Or2, Drive::X1),
//!                    vec![a.into(), b.into()])?;
//! n.add_output("y", g.into());
//!
//! let mut approx = n.clone();
//! approx.substitute(g, a.into())?;
//!
//! let eval = ErrorEvaluator::new(&n, Patterns::exhaustive(2), ErrorMetric::ErrorRate);
//! // Differs only on (a,b) = (0,1): ER = 1/4.
//! assert!((eval.error_of(&approx) - 0.25).abs() < 1e-12);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod block;
mod delta;
mod engine;
mod metrics;
mod patterns;
mod view;

pub use block::SimdWidth;
pub use delta::{DeltaSim, DeltaStats, DeltaView};
pub use engine::{simulate, simulate_reference, simulate_reusing, SimResult};
pub use metrics::{error_rate, nmed, po_flip_rates, ErrorEvaluator, ErrorMetric};
pub use patterns::Patterns;
pub use view::SimWords;
