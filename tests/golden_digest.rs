//! Golden flow digests.
//!
//! Each constant below fingerprints one complete [`FlowOutcome`] — the
//! method name, `ratio_cpd`, error, area, best fitness and evaluation
//! count (as exact bit patterns), and the final and best netlists as
//! Verilog text — for every method on one small suite circuit, under
//! both error metrics. The kernels under the optimizers (circuit
//! reproduction, target collection, similarity, NMED, simulation,
//! timing) may be rewritten for speed, but they must not move a single
//! bit of any result: a change that does fails here. A deliberate
//! change of results has to re-record these constants, visibly, in the
//! same commit.
//!
//! The `Nmed` row was last re-recorded when NMED became an exact
//! integer sum of `|V_ori − V_app|`, rounded once (the earlier `f64`
//! walk rounded at every vector). For VECBEE-S, GWO and DCGWO only the
//! last bits of the returned `error` moved; their netlists,
//! `ratio_cpd`, area, fitness and evaluation counts stayed the same.
//! HEDALS and VaACS did not move at all, and neither did the
//! `ErrorRate` row.
//!
//! A second set of constants fingerprints the whole [`FlowEvent`]
//! stream of the same runs: every event's [`FlowEvent::kind`] and each
//! of its fields as bits, in emission order. Only `runtime_s`, the one
//! wall-clock field, is left out. Moving an event between the optimizer
//! and the flow that runs it must not change a byte of the stream.

use std::cell::RefCell;

use tdals::baselines::{Method, MethodConfig, ALL_METHODS};
use tdals::circuits::Benchmark;
use tdals::core::api::{Flow, FlowEvent, FlowOutcome};
use tdals::core::EvalContext;
use tdals::netlist::verilog::to_verilog;
use tdals::sim::{ErrorMetric, Patterns};
use tdals::sta::TimingConfig;

/// Golden digests per `(metric, method)`, in [`ALL_METHODS`] order.
const GOLDEN: [(ErrorMetric, [u64; 5]); 2] = [
    (
        ErrorMetric::ErrorRate,
        [
            0x1e44_c108_0359_7dd2,
            0xdc64_fb74_d434_19b2,
            0x737a_0129_c17d_ade9,
            0xb333_b30f_55d5_4859,
            0x9f12_d0de_a69a_a336,
        ],
    ),
    (
        ErrorMetric::Nmed,
        [
            0xbaa7_e6d0_4e1a_bcc0,
            0xdc64_fb74_d434_19b2,
            0xf777_fc2a_c1f0_bb59,
            0x4cf3_ed08_3f2f_d149,
            0xee3a_987f_c6c7_b0cd,
        ],
    ),
];

/// Golden event-stream digests per `(metric, method)`, in
/// [`ALL_METHODS`] order.
const GOLDEN_EVENTS: [(ErrorMetric, [u64; 5]); 2] = [
    (
        ErrorMetric::ErrorRate,
        [
            0xe17d_1bd8_cec0_23a2,
            0xf5c8_e9b6_3aa5_8a03,
            0x5158_65ef_c6c7_6b8a,
            0x0045_3a64_7535_3f85,
            0x07da_de2a_3cf2_830b,
        ],
    ),
    (
        ErrorMetric::Nmed,
        [
            0x4e20_e20b_c46b_7407,
            0xb24a_1a7f_c413_2fd8,
            0x2d11_aeb8_e698_f20a,
            0x2f1b_4954_03bc_2b20,
            0x5804_e45e_abd4_9a90,
        ],
    ),
];

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn count(&mut self, n: usize) {
        self.write(&(n as u64).to_le_bytes());
    }

    fn float(&mut self, x: f64) {
        self.write(&x.to_bits().to_le_bytes());
    }

    /// One event: its kind, then every field but `runtime_s`.
    fn event(&mut self, event: &FlowEvent) {
        self.write(event.kind().as_bytes());
        match event {
            FlowEvent::FlowStarted {
                optimizer,
                gates,
                cpd_ori,
                area_ori,
                metric,
                error_bound,
            } => {
                self.write(optimizer.as_bytes());
                self.count(*gates);
                self.float(*cpd_ori);
                self.float(*area_ori);
                self.write(format!("{metric:?}").as_bytes());
                self.float(*error_bound);
            }
            FlowEvent::IterationStarted {
                iteration,
                constraint,
            } => {
                self.count(*iteration);
                self.float(*constraint);
            }
            FlowEvent::BestImproved {
                iteration,
                fitness,
                error,
                depth,
                area,
            } => {
                self.count(*iteration);
                self.float(*fitness);
                self.float(*error);
                self.count(*depth as usize);
                self.float(*area);
            }
            FlowEvent::LacAccepted {
                iteration,
                error,
                area,
            } => {
                self.count(*iteration);
                self.float(*error);
                self.float(*area);
            }
            FlowEvent::IterationFinished { stats } => {
                self.count(stats.iteration);
                self.float(stats.constraint);
                self.float(stats.best_fitness);
                self.count(stats.best_depth as usize);
                self.float(stats.best_area);
                self.count(stats.feasible);
            }
            FlowEvent::OptimizeFinished { stop, evaluations } => {
                self.write(stop.wire_name().as_bytes());
                self.write(&evaluations.to_le_bytes());
            }
            FlowEvent::PostOptStarted { area_con } => self.float(*area_con),
            FlowEvent::PostOptFinished { report } => {
                self.count(report.gates_removed);
                self.float(report.cpd_before);
                self.float(report.cpd_after_sweep);
                self.float(report.cpd_final);
                self.float(report.area_final);
                self.count(report.sizing_moves);
            }
            FlowEvent::FlowFinished {
                ratio_cpd, error, ..
            } => {
                self.float(*ratio_cpd);
                self.float(*error);
            }
            other => panic!("no digest for event {other:?}"),
        }
    }
}

fn digest(outcome: &FlowOutcome) -> u64 {
    let mut hash = Fnv::new();
    hash.write(outcome.method.as_bytes());
    for value in [
        outcome.ratio_cpd,
        outcome.error,
        outcome.area,
        outcome.optimize.best.fitness,
    ] {
        hash.write(&value.to_bits().to_le_bytes());
    }
    hash.write(&outcome.optimize.evaluations.to_le_bytes());
    hash.write(to_verilog(&outcome.netlist).as_bytes());
    hash.write(to_verilog(&outcome.optimize.best.netlist).as_bytes());
    hash.0
}

/// The outcome digest and the event-stream digest of one flow.
fn run(metric: ErrorMetric, method: Method) -> (u64, u64) {
    let accurate = Benchmark::Max16.build();
    // 1000 vectors: a ragged final word (40 valid bits) on every signal.
    let ctx = EvalContext::new(
        &accurate,
        Patterns::random(accurate.input_count(), 1000, 11),
        metric,
        TimingConfig::default(),
        0.8,
    );
    let bound = match metric {
        ErrorMetric::ErrorRate => 0.05,
        ErrorMetric::Nmed => 0.01,
    };
    let cfg = MethodConfig::default()
        .with_population(8)
        .with_iterations(5)
        .with_seed(5)
        .with_threads(1);
    let events = RefCell::new(Fnv::new());
    let outcome = Flow::for_context(&ctx)
        .error_bound(bound)
        .optimizer(method.optimizer(&cfg))
        .observe(|event: &FlowEvent| events.borrow_mut().event(event))
        .run()
        .expect("valid session");
    (digest(&outcome), events.into_inner().0)
}

/// Every `(metric, method)` digest that differs from `golden`'s.
fn mismatches(golden: [(ErrorMetric, [u64; 5]); 2], pick: fn((u64, u64)) -> u64) -> Vec<String> {
    let mut mismatches = Vec::new();
    for (metric, golden) in golden {
        for (method, want) in ALL_METHODS.into_iter().zip(golden) {
            let got = pick(run(metric, method));
            if got != want {
                mismatches.push(format!(
                    "{metric:?} {method:?}: got {got:#018x}, golden {want:#018x}"
                ));
            }
        }
    }
    mismatches
}

#[test]
fn flow_digests_match_the_golden_record() {
    let mismatches = mismatches(GOLDEN, |(outcome, _)| outcome);
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}

#[test]
fn event_stream_digests_match_the_golden_record() {
    let mismatches = mismatches(GOLDEN_EVENTS, |(_, events)| events);
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
