//! Independent output check: every flow result is re-measured along
//! paths the optimizer did not use for its own answer.

use tdals_core::api::FlowOutcome;
use tdals_core::EvalContext;
use tdals_netlist::verilog;
use tdals_sim::{simulate, Patterns, SimResult};
use tdals_sta::analyze;

/// Slack for comparing floating-point quantities that two code paths
/// compute from the same inputs.
const TOLERANCE: f64 = 1e-9;

/// Reference data the checks compare against, built once per context.
pub struct Checker<'a> {
    ctx: &'a EvalContext,
    bound: f64,
    golden: SimResult,
}

impl<'a> Checker<'a> {
    /// A checker for flows on `ctx` under `bound`. The accurate
    /// circuit is simulated afresh, not taken from the context.
    pub fn new(ctx: &'a EvalContext, bound: f64) -> Checker<'a> {
        let golden = simulate(ctx.accurate(), ctx.evaluator().patterns());
        Checker { ctx, bound, golden }
    }

    fn patterns(&self) -> &Patterns {
        self.ctx.evaluator().patterns()
    }

    /// Checks one flow result and returns its outcome digest, or the
    /// first failed check.
    ///
    /// # Errors
    ///
    /// A message naming the check that failed.
    pub fn check(&self, outcome: &FlowOutcome) -> Result<u64, String> {
        let netlist = &outcome.netlist;
        netlist
            .check_invariants()
            .map_err(|e| format!("netlist invariants: {e}"))?;
        let lint = tdals_lint::lint_netlist(netlist);
        if !lint.has_no_errors() {
            return Err(format!("lint errors:\n{lint}"));
        }

        // Error, re-measured by a full simulation.
        let sim = simulate(netlist, self.patterns());
        let error = self.ctx.metric().compute(&self.golden, &sim);
        if error > self.bound {
            return Err(format!("error {error} exceeds the bound {}", self.bound));
        }
        if (error - outcome.error).abs() > TOLERANCE {
            return Err(format!(
                "reported error {} but a full simulation measures {error}",
                outcome.error
            ));
        }

        // Timing, re-measured by a full analysis.
        let cpd = analyze(netlist, self.ctx.timing()).critical_path_delay();
        if (cpd - outcome.cpd_fac).abs() > TOLERANCE * cpd.max(1.0) {
            return Err(format!(
                "reported CPD {} but a full analysis gives {cpd}",
                outcome.cpd_fac
            ));
        }
        if outcome.ratio_cpd > 1.0 + TOLERANCE {
            return Err(format!("ratio_cpd {} is above 1", outcome.ratio_cpd));
        }
        let area = netlist.area_live();
        if area > outcome.area_con + TOLERANCE {
            return Err(format!(
                "area {area} exceeds the constraint {}",
                outcome.area_con
            ));
        }

        // Verilog round trip: write, re-parse, simulate to the same
        // primary-output words.
        let text = verilog::to_verilog(netlist);
        let parsed = verilog::parse(&text).map_err(|e| format!("Verilog re-parse: {e}"))?;
        let resim = simulate(&parsed, self.patterns());
        if !same_outputs(&sim, &resim) {
            return Err("re-parsed Verilog simulates to different outputs".to_owned());
        }

        Ok(digest(outcome, &text))
    }
}

fn same_outputs(a: &SimResult, b: &SimResult) -> bool {
    a.output_count() == b.output_count()
        && a.word_count() == b.word_count()
        && (0..a.output_count())
            .all(|po| (0..a.word_count()).all(|w| a.po_word(po, w) == b.po_word(po, w)))
}

/// FNV-1a digest of what a flow returns: ratio, error, area,
/// evaluations and the netlist as Verilog. Equal seeds must give equal
/// digests on every run and build.
pub fn digest(outcome: &FlowOutcome, verilog_text: &str) -> u64 {
    let mut hash = Fnv::new();
    hash.write(outcome.method.as_bytes());
    for value in [outcome.ratio_cpd, outcome.error, outcome.area] {
        hash.write(&value.to_bits().to_le_bytes());
    }
    hash.write(&outcome.optimize.evaluations.to_le_bytes());
    hash.write(verilog_text.as_bytes());
    hash.0
}

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
