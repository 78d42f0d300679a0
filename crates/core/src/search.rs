//! The *circuit searching* approximate action (§III-B): pick a target
//! gate from the critical-path target set and substitute it with its
//! most similar TFI signal or constant, shortening the critical path.

use rand::Rng;
use tdals_netlist::Netlist;
use tdals_sim::SimWords;
use tdals_sta::Arrivals;

use crate::lac::{collect_targets, select_switch, Lac, SearchScratch};

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
/// `timing` is the timing of `netlist` — a
/// [`TimingReport`](tdals_sta::TimingReport), or the live state of an
/// incremental engine — and `sim` any [`SimWords`] view of it: a full
/// simulation or the incremental engine's current state. Returns `None`
/// when the circuit offers no target (e.g. all outputs constant).
pub fn propose_lac_with<R: Rng, V: SimWords, A: Arrivals + ?Sized>(
    netlist: &Netlist,
    timing: &A,
    sim: &V,
    cfg: &SearchConfig,
    rng: &mut R,
) -> Option<Lac> {
    propose_lac_in(
        netlist,
        timing,
        sim,
        cfg,
        &mut SearchScratch::default(),
        rng,
    )
}

/// [`propose_lac_with`] with reusable switch-selection buffers: the same
/// LAC from the same random draws.
pub(crate) fn propose_lac_in<R: Rng, V: SimWords, A: Arrivals + ?Sized>(
    netlist: &Netlist,
    timing: &A,
    sim: &V,
    cfg: &SearchConfig,
    scratch: &mut SearchScratch,
    rng: &mut R,
) -> Option<Lac> {
    let targets = collect_targets(netlist, timing, cfg.path_count, rng);
    if targets.is_empty() {
        return None;
    }
    let target = targets[rng.gen_range(0..targets.len())];
    select_switch(
        netlist,
        sim,
        target,
        cfg.max_switch_candidates,
        scratch,
        rng,
    )
}

/// One circuit-searching step on a fresh simulation and STA of
/// `netlist`: the proposed LAC is applied and returned.
#[cfg(test)]
pub(crate) fn search_step<R: Rng>(
    ctx: &crate::fitness::EvalContext,
    netlist: &mut Netlist,
    cfg: &SearchConfig,
    rng: &mut R,
) -> Option<Lac> {
    let sim = ctx.simulate(netlist);
    let lac = propose_lac_with(netlist, &ctx.analyze(netlist), &sim, cfg, rng)?;
    lac.apply(netlist)
        .expect("TFI-drawn switches respect the id invariant");
    Some(lac)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fitness::EvalContext;
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
