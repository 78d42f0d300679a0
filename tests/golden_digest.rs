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

use tdals::baselines::{Method, MethodConfig, ALL_METHODS};
use tdals::circuits::Benchmark;
use tdals::core::api::{Flow, FlowOutcome};
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

fn run(metric: ErrorMetric, method: Method) -> u64 {
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
    let outcome = Flow::for_context(&ctx)
        .error_bound(bound)
        .optimizer(method.optimizer(&cfg))
        .run()
        .expect("valid session");
    digest(&outcome)
}

#[test]
fn flow_digests_match_the_golden_record() {
    let mut mismatches = Vec::new();
    for (metric, golden) in GOLDEN {
        for (method, want) in ALL_METHODS.into_iter().zip(golden) {
            let got = run(metric, method);
            if got != want {
                mismatches.push(format!(
                    "{metric:?} {method:?}: got {got:#018x}, golden {want:#018x}"
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
