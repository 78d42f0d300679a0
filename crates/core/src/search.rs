//! The *circuit searching* approximate action (§III-B): pick a target
//! gate from the critical-path target set and substitute it with its
//! most similar TFI signal or constant, shortening the critical path.

use rand::Rng;
use tdals_netlist::Netlist;
use tdals_sim::{DeltaSim, SimWords};

use crate::fitness::EvalContext;
use crate::lac::{collect_targets, select_switch_in, Lac, SearchScratch};

/// Tunables for circuit searching.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchConfig {
    /// How many worst-PO paths feed the target set `T_c`. The paper
    /// stores the maximum-arrival path of *every* PO (Fig. 5), which is
    /// the default here (`usize::MAX` is clamped to the PO count);
    /// smaller values focus the search on the global critical path.
    pub path_count: usize,
    /// Cap on TFI switch candidates scored per target. The paper scans
    /// the whole transitive fan-in (VECBEE similarity tables), which is
    /// the default; a finite cap trades quality for speed on very large
    /// cones.
    pub max_switch_candidates: usize,
}

impl Default for SearchConfig {
    fn default() -> SearchConfig {
        SearchConfig {
            path_count: usize::MAX,
            max_switch_candidates: usize::MAX,
        }
    }
}

/// Picks one circuit-searching LAC for `netlist` **without applying
/// it**: collect critical-path gates (plus sampled fan-ins) into `T_c`,
/// pick a target uniformly, and select the highest-similarity switch
/// from its TFI or a constant.
///
/// `sim` is any [`SimWords`] view of `netlist` — a full simulation or
/// the incremental engine's current state. Returns `None` when the
/// circuit offers no target (e.g. all outputs constant).
pub fn propose_lac<R: Rng, V: SimWords>(
    ctx: &EvalContext,
    netlist: &Netlist,
    sim: &V,
    cfg: &SearchConfig,
    rng: &mut R,
) -> Option<Lac> {
    let report = ctx.analyze(netlist);
    propose_lac_with(netlist, &report, sim, cfg, rng)
}

/// [`propose_lac`] when a timing report of `netlist` is already
/// available (e.g. snapshotted from an incremental engine), so no full
/// STA pass is needed.
pub fn propose_lac_with<R: Rng, V: SimWords>(
    netlist: &Netlist,
    report: &tdals_sta::TimingReport,
    sim: &V,
    cfg: &SearchConfig,
    rng: &mut R,
) -> Option<Lac> {
    propose_lac_in(
        netlist,
        report,
        sim,
        cfg,
        &mut SearchScratch::default(),
        rng,
    )
}

/// [`propose_lac_with`] with reusable switch-selection buffers: the same
/// LAC from the same random draws.
pub(crate) fn propose_lac_in<R: Rng, V: SimWords>(
    netlist: &Netlist,
    report: &tdals_sta::TimingReport,
    sim: &V,
    cfg: &SearchConfig,
    scratch: &mut SearchScratch,
    rng: &mut R,
) -> Option<Lac> {
    let targets = collect_targets(netlist, report, cfg.path_count, rng);
    if targets.is_empty() {
        return None;
    }
    let target = targets[rng.gen_range(0..targets.len())];
    select_switch_in(
        netlist,
        sim,
        target,
        cfg.max_switch_candidates,
        scratch,
        rng,
    )
}

/// Applies one circuit-searching step to `netlist`, returning the LAC
/// that was applied (or `None` when the circuit offers no target, e.g.
/// all outputs constant).
///
/// This is the full-resimulation convenience wrapper around
/// [`propose_lac`]; the optimizer's hot path goes through
/// [`search_step_delta`] instead.
pub fn search_step<R: Rng>(
    ctx: &EvalContext,
    netlist: &mut Netlist,
    cfg: &SearchConfig,
    rng: &mut R,
) -> Option<Lac> {
    let sim = ctx.simulate(netlist);
    let lac = propose_lac(ctx, netlist, &sim, cfg, rng)?;
    lac.apply(netlist)
        .expect("TFI-drawn switches respect the id invariant");
    Some(lac)
}

/// One circuit-searching step on an incremental simulation state: the
/// LAC is proposed from the engine's current words (no full
/// re-simulation) and committed through the engine's O(cone) update.
pub fn search_step_delta<R: Rng>(
    ctx: &EvalContext,
    delta: &mut DeltaSim,
    cfg: &SearchConfig,
    rng: &mut R,
) -> Option<Lac> {
    let lac = propose_lac(ctx, delta.netlist(), delta, cfg, rng)?;
    delta
        .substitute(lac.target(), lac.switch())
        .expect("TFI-drawn switches respect the id invariant");
    Some(lac)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tdals_netlist::builder::Builder;
    use tdals_netlist::SignalRef;
    use tdals_sim::{ErrorMetric, Patterns};
    use tdals_sta::TimingConfig;

    fn setup() -> (Netlist, EvalContext) {
        let mut b = Builder::new("t");
        let a = b.inputs("a", 4);
        let x = b.inputs("b", 4);
        let (s, c) = b.ripple_add(&a, &x, SignalRef::Const0);
        b.outputs("s", &s);
        b.output("c", c);
        let n = b.finish();
        let ctx = EvalContext::new(
            &n,
            Patterns::exhaustive(8),
            ErrorMetric::ErrorRate,
            TimingConfig::default(),
            0.8,
        );
        (n, ctx)
    }

    #[test]
    fn search_produces_valid_circuits() {
        let (n, ctx) = setup();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..20 {
            let mut approx = n.clone();
            let lac = search_step(&ctx, &mut approx, &SearchConfig::default(), &mut rng);
            assert!(lac.is_some());
            approx.check_invariants().expect("valid after search");
        }
    }

    #[test]
    fn search_targets_live_on_worst_paths() {
        let (n, ctx) = setup();
        let mut rng = StdRng::seed_from_u64(12);
        let live = n.live_mask();
        for _ in 0..20 {
            let mut approx = n.clone();
            let lac =
                search_step(&ctx, &mut approx, &SearchConfig::default(), &mut rng).expect("lac");
            assert!(live[lac.target().index()], "targets are live gates");
        }
    }

    #[test]
    fn repeated_search_tends_to_reduce_depth_or_area() {
        let (n, ctx) = setup();
        let mut rng = StdRng::seed_from_u64(13);
        let base = ctx.evaluate(n.clone());
        let mut improved = 0usize;
        for _ in 0..30 {
            let mut approx = n.clone();
            for _ in 0..3 {
                search_step(&ctx, &mut approx, &SearchConfig::default(), &mut rng);
            }
            let cand = ctx.evaluate(approx);
            if cand.fitness > base.fitness {
                improved += 1;
            }
        }
        assert!(
            improved > 15,
            "search should usually improve fitness ({improved}/30)"
        );
    }
}
