//! Gate sizing on the incremental timing engine against a reference
//! sizer that re-runs full STA after every trial move.
//!
//! `size_for_timing` applies each trial upsize through an exact
//! `IncrementalSta`, undoes it from the engine's journal when it does
//! not help, and ranks the critical path once per accepted move. The reference below is the plain greedy loop: full
//! `analyze` per trial, and a fresh critical path and ranking after
//! every trial, accepted or not. Both must make the same moves, leave the
//! same drives and report the same CPD and area bits, on netlists that
//! a pinned DCGWO run hands to post-optimization.

use std::collections::HashMap;

use tdals::circuits::Benchmark;
use tdals::core::api::{Dcgwo, Flow};
use tdals::netlist::cell::Drive;
use tdals::netlist::{GateId, Netlist, SignalRef};
use tdals::sim::ErrorMetric;
use tdals::sta::{
    analyze, critical_path, size_for_timing, SizingConfig, SizingResult, TimingConfig, TimingReport,
};

/// The sizer's local estimate of a one-step upsize, from a full report.
fn estimate_upsize_delta(
    netlist: &Netlist,
    report: &TimingReport,
    gate: GateId,
) -> Option<(Drive, f64)> {
    let g = netlist.gate(gate);
    if g.is_input() {
        return None;
    }
    let cell = g.cell();
    let up = cell.drive().upsize()?;
    let bigger = cell.with_drive(up);
    let load = report.load(gate);
    let mut delta = bigger.delay(load) - cell.delay(load);
    let cap_increase = bigger.input_cap() - cell.input_cap();
    for fanin in g.fanins() {
        if let SignalRef::Gate(src) = fanin {
            let drv = netlist.gate(src);
            if !drv.is_input() {
                delta += drv.cell().resistance() * cap_increase;
            }
        }
    }
    Some((up, delta))
}

/// Greedy TILOS sizing with one full `analyze` per trial move and a
/// re-extracted, re-ranked critical path before every trial.
fn reference_size(
    netlist: &mut Netlist,
    cfg: &TimingConfig,
    area_con: f64,
    sizing: &SizingConfig,
) -> SizingResult {
    let mut report = analyze(netlist, cfg);
    let cpd_before = report.critical_path_delay();
    let mut cpd = cpd_before;
    let mut area = netlist.area_live();
    let mut moves = 0usize;
    let live = netlist.live_mask();
    let mut rejected: HashMap<GateId, Drive> = HashMap::new();

    while moves < sizing.max_moves {
        let path = critical_path(netlist, &report);
        if path.is_empty() {
            break;
        }
        let mut candidates: Vec<GateId> = path.clone();
        if sizing.include_fanins {
            for &g in &path {
                for fanin in netlist.gate(g).fanins() {
                    if let SignalRef::Gate(src) = fanin {
                        if live[src.index()] && !netlist.gate(src).is_input() {
                            candidates.push(src);
                        }
                    }
                }
            }
        }
        candidates.sort_unstable();
        candidates.dedup();

        let mut best: Option<(GateId, Drive, f64, f64)> = None;
        for &g in &candidates {
            if rejected.get(&g) == Some(&netlist.gate(g).cell().drive()) {
                continue;
            }
            let Some((up, delta)) = estimate_upsize_delta(netlist, &report, g) else {
                continue;
            };
            if delta >= 0.0 {
                continue;
            }
            let cell = netlist.gate(g).cell();
            let extra_area = cell.with_drive(up).area() - cell.area();
            if area + extra_area > area_con {
                continue;
            }
            let score = delta / extra_area.max(1e-9);
            if best.is_none_or(|(_, _, _, s)| score < s) {
                best = Some((g, up, extra_area, score));
            }
        }
        let Some((g, up, extra_area, _)) = best else {
            break;
        };

        let old_drive = netlist.gate(g).cell().drive();
        netlist.set_drive(g, up);
        let new_report = analyze(netlist, cfg);
        let new_cpd = new_report.critical_path_delay();
        if new_cpd < cpd {
            cpd = new_cpd;
            area += extra_area;
            report = new_report;
            moves += 1;
        } else {
            netlist.set_drive(g, old_drive);
            rejected.insert(g, old_drive);
        }
    }

    SizingResult {
        cpd_before,
        cpd_after: cpd,
        area_after: netlist.area_live(),
        moves,
    }
}

/// Runs a pinned one-thread DCGWO flow on `bench`, then sizes its
/// optimized netlist (after the dangling sweep, as post-optimization
/// does) with the reference sizer, and checks that the flow's own
/// post-optimization made exactly the same moves.
fn check_against_reference(
    bench: Benchmark,
    metric: ErrorMetric,
    bound: f64,
    vectors: usize,
    (population, iterations): (usize, usize),
) {
    let accurate = bench.build();
    let outcome = Flow::for_netlist(&accurate)
        .metric(metric)
        .error_bound(bound)
        .vectors(vectors)
        .pattern_seed(3)
        .threads(1)
        .optimizer(Dcgwo::paper_for(metric).quick(population, iterations))
        .run()
        .expect("valid flow");

    let cfg = TimingConfig::default();
    let mut reference = outcome.optimize.best.netlist.clone();
    reference.sweep_dangling();
    let mut sized = reference.clone();
    let want = reference_size(
        &mut reference,
        &cfg,
        outcome.area_con,
        &SizingConfig::default(),
    );
    assert!(
        want.moves > 0,
        "{bench:?}: the reference sizer made no move"
    );

    let got = size_for_timing(&mut sized, &cfg, outcome.area_con, &SizingConfig::default());
    assert_eq!(got.moves, want.moves, "{bench:?}: accepted moves");
    assert_eq!(got.cpd_before.to_bits(), want.cpd_before.to_bits());
    assert_eq!(got.cpd_after.to_bits(), want.cpd_after.to_bits());
    assert_eq!(got.area_after.to_bits(), want.area_after.to_bits());
    assert_eq!(sized, reference, "{bench:?}: drives after sizing");

    // The flow's post-optimization is the same sizer on the same netlist.
    assert_eq!(outcome.post_opt.sizing_moves, want.moves);
    assert_eq!(outcome.cpd_fac.to_bits(), want.cpd_after.to_bits());
    assert_eq!(outcome.netlist, reference);
}

#[test]
fn incremental_sizing_matches_full_analysis_sizer_on_sin() {
    check_against_reference(Benchmark::Sin, ErrorMetric::Nmed, 0.02, 512, (12, 10));
}

#[test]
fn incremental_sizing_matches_full_analysis_sizer_on_c5315() {
    check_against_reference(
        Benchmark::C5315,
        ErrorMetric::ErrorRate,
        0.05,
        512,
        (12, 10),
    );
}

/// Sqrt at the CLI's default configuration (population 30, 20
/// iterations, 4,096 vectors), whose deep cones are where a cone
/// preview could cost more than a full pass. The release-mode
/// `smoke-ignored` CI job runs it.
#[test]
#[ignore = "the reference sizer takes seconds on Sqrt; run with --ignored in release mode"]
fn incremental_sizing_matches_full_analysis_sizer_on_sqrt() {
    check_against_reference(Benchmark::Sqrt, ErrorMetric::Nmed, 0.02, 4096, (30, 20));
}
