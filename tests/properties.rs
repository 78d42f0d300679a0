//! Property-based tests (proptest) over the core invariants of the
//! workspace: netlist structure under random LAC sequences, Verilog
//! round-trips, dangling-sweep function preservation, error-metric
//! bounds, STA monotonicity, sizing legality, and Pareto-front
//! consistency.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use tdals::circuits::random_logic::{grow, RandomLogicSpec};
use tdals::core::pareto::{crowding_distance, non_dominated_sort, select, Objectives};
use tdals::core::{random_lac, EvalContext, SearchScratch};
use tdals::netlist::builder::Builder;
use tdals::netlist::{verilog, Netlist, SignalRef};
use tdals::sim::{error_rate, nmed, simulate, ErrorMetric, Patterns};
use tdals::sta::{analyze, size_for_timing, SizingConfig, TimingConfig};

/// Deterministic random netlist from a seed: a handful of inputs plus a
/// seeded random-logic cone.
fn random_netlist(seed: u64, inputs: usize, gates: usize, outputs: usize) -> Netlist {
    let mut b = Builder::new(format!("rand{seed}"));
    let ins = b.inputs("x", inputs);
    let mut spec = RandomLogicSpec::new(gates, outputs, seed);
    spec.window = 12;
    let outs = grow(&mut b, &ins, &spec);
    b.outputs("y", &outs);
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_netlists_satisfy_invariants(seed in 0u64..500) {
        let n = random_netlist(seed, 5, 40, 4);
        prop_assert!(n.check_invariants().is_ok());
    }

    #[test]
    fn verilog_round_trip_preserves_structure(seed in 0u64..200) {
        let n = random_netlist(seed, 4, 30, 3);
        let text = verilog::to_verilog(&n);
        let again = verilog::parse(&text).expect("reparse");
        prop_assert_eq!(again.logic_gate_count(), n.logic_gate_count());
        prop_assert_eq!(again.input_count(), n.input_count());
        prop_assert_eq!(again.output_count(), n.output_count());
        // Function equivalence on shared stimulus.
        let p = Patterns::random(n.input_count(), 256, seed);
        let a = simulate(&n, &p);
        let b = simulate(&again, &p);
        for po in 0..n.output_count() {
            for w in 0..p.word_count() {
                prop_assert_eq!(a.po_word(po, w), b.po_word(po, w));
            }
        }
    }

    #[test]
    fn lac_sequences_never_create_cycles(seed in 0u64..200, lacs in 1usize..8) {
        let mut n = random_netlist(seed, 5, 40, 4);
        let p = Patterns::random(5, 128, seed ^ 0xABCD);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..lacs {
            let sim = simulate(&n, &p);
            if let Some(lac) = random_lac(&n, &sim, 16, &mut SearchScratch::default(), &mut rng) {
                lac.apply(&mut n).expect("legal LAC");
            }
        }
        prop_assert!(n.check_invariants().is_ok());
    }

    #[test]
    fn dangling_sweep_preserves_every_output(seed in 0u64..200) {
        let mut n = random_netlist(seed, 5, 40, 4);
        let p = Patterns::random(5, 256, seed ^ 0x55);
        // Inject a couple of LACs so there is something to sweep.
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..3 {
            let sim = simulate(&n, &p);
            if let Some(lac) = random_lac(&n, &sim, 16, &mut SearchScratch::default(), &mut rng) {
                lac.apply(&mut n).expect("legal LAC");
            }
        }
        let before = simulate(&n, &p);
        let removed = n.sweep_dangling();
        let after = simulate(&n, &p);
        prop_assert!(n.check_invariants().is_ok());
        for po in 0..n.output_count() {
            for w in 0..p.word_count() {
                prop_assert_eq!(before.po_word(po, w), after.po_word(po, w));
            }
        }
        // Sweeping twice is idempotent.
        prop_assert_eq!(n.sweep_dangling(), 0);
        let _ = removed;
    }

    #[test]
    fn error_metrics_are_bounded_and_zero_on_self(seed in 0u64..200) {
        let n = random_netlist(seed, 5, 30, 4);
        let p = Patterns::random(5, 256, seed);
        let golden = simulate(&n, &p);
        prop_assert_eq!(error_rate(&golden, &golden), 0.0);
        prop_assert_eq!(nmed(&golden, &golden), 0.0);

        let mut approx = n.clone();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x77);
        if let Some(lac) = random_lac(&approx, &golden, 16, &mut SearchScratch::default(), &mut rng) {
            lac.apply(&mut approx).expect("legal LAC");
        }
        let app = simulate(&approx, &p);
        let er = error_rate(&golden, &app);
        let m = nmed(&golden, &app);
        prop_assert!((0.0..=1.0).contains(&er), "er {}", er);
        prop_assert!((0.0..=1.0).contains(&m), "nmed {}", m);
        // ER bounds the per-PO flip rate from above.
        for f in tdals::sim::po_flip_rates(&golden, &app) {
            prop_assert!(f <= er + 1e-12);
        }
    }

    #[test]
    fn arrival_times_increase_along_paths(seed in 0u64..200) {
        let n = random_netlist(seed, 5, 40, 4);
        let report = analyze(&n, &TimingConfig::default());
        for (id, gate) in n.iter() {
            for fanin in gate.fanins() {
                if let SignalRef::Gate(src) = fanin {
                    prop_assert!(report.arrival(*src) < report.arrival(id));
                }
            }
        }
    }

    #[test]
    fn sizing_respects_budget_and_function(seed in 0u64..100) {
        let mut n = random_netlist(seed, 5, 30, 4);
        let p = Patterns::random(5, 128, seed);
        let before = simulate(&n, &p);
        let budget = n.area_live() * 1.4;
        let cfg = TimingConfig::default();
        let result = size_for_timing(&mut n, &cfg, budget, &SizingConfig::default());
        prop_assert!(result.area_after <= budget + 1e-9);
        prop_assert!(result.cpd_after <= result.cpd_before + 1e-9);
        let after = simulate(&n, &p);
        for po in 0..n.output_count() {
            for w in 0..p.word_count() {
                prop_assert_eq!(before.po_word(po, w), after.po_word(po, w));
            }
        }
    }

    #[test]
    fn pareto_fronts_partition_and_do_not_dominate(
        coords in prop::collection::vec((0.5f64..3.0, 0.5f64..3.0), 1..40)
    ) {
        let pts: Vec<Objectives> = coords
            .iter()
            .map(|&(fd, fa)| Objectives::new(fd, fa))
            .collect();
        let fronts = non_dominated_sort(&pts);
        let total: usize = fronts.iter().map(Vec::len).sum();
        prop_assert_eq!(total, pts.len());
        for front in &fronts {
            for (k, &i) in front.iter().enumerate() {
                for &j in &front[k + 1..] {
                    prop_assert!(!pts[i].dominates(pts[j]));
                    prop_assert!(!pts[j].dominates(pts[i]));
                }
            }
            // Crowding distances are non-negative.
            for d in crowding_distance(&pts, front) {
                prop_assert!(d >= 0.0);
            }
        }
        // Selection returns distinct indices of the requested size.
        let want = (pts.len() / 2).max(1);
        let mut sel = select(&pts, want);
        let len = sel.len();
        prop_assert_eq!(len, want.min(pts.len()));
        sel.sort_unstable();
        sel.dedup();
        prop_assert_eq!(sel.len(), len);
    }

    #[test]
    fn incremental_sta_tracks_lac_sequences(seed in 0u64..60, lacs in 1usize..6) {
        use tdals::sta::IncrementalSta;
        let mut n = random_netlist(seed, 5, 35, 4);
        let mut rows = n.fanouts();
        let cfg = TimingConfig::default();
        let mut engine = IncrementalSta::new(&n, cfg);
        let p = Patterns::random(5, 128, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x11);
        for _ in 0..lacs {
            let sim = simulate(&n, &p);
            if let Some(lac) = random_lac(&n, &sim, 16, &mut SearchScratch::default(), &mut rng) {
                engine
                    .substitute(&mut n, &mut rows, lac.target(), lac.switch())
                    .expect("legal LAC");
            }
        }
        let full = analyze(&n, &cfg);
        for (id, _) in n.iter() {
            prop_assert_eq!(engine.arrival(id).to_bits(), full.arrival(id).to_bits());
            prop_assert_eq!(engine.depth(id), full.depth(id));
        }
        prop_assert_eq!(
            engine.critical_path_delay(&n).to_bits(),
            full.critical_path_delay().to_bits()
        );
    }

    /// Exactness of the incremental engine under mixed edit sequences:
    /// after every `substitute` or `set_drive` commit, and after every
    /// `undo_drive`, arrival, load and depth equal a fresh
    /// `IncrementalSta::new` of the netlist by `to_bits`, and every
    /// `preview_substitute` equals `analyze` of the applied netlist by
    /// `to_bits`.
    #[test]
    fn incremental_sta_is_bit_exact_under_edit_sequences(seed in 0u64..80, edits in 1usize..12) {
        use rand::Rng;
        use tdals::netlist::cell::Drive;
        use tdals::netlist::GateId;
        use tdals::sta::IncrementalSta;
        const DRIVES: [Drive; 5] = [Drive::X0, Drive::X1, Drive::X2, Drive::X4, Drive::X8];
        let mut n = random_netlist(seed, 6, 60, 5);
        let mut rows = n.fanouts();
        let cfg = TimingConfig::default();
        let mut engine = IncrementalSta::new(&n, cfg);
        let p = Patterns::random(6, 128, seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xe7ac);
        let assert_fresh = |engine: &IncrementalSta, n: &Netlist| {
            let fresh = IncrementalSta::new(n, cfg);
            for (id, _) in n.iter() {
                assert_eq!(engine.arrival(id).to_bits(), fresh.arrival(id).to_bits(), "{}", id);
                assert_eq!(engine.load(id).to_bits(), fresh.load(id).to_bits(), "{}", id);
                assert_eq!(engine.depth(id), fresh.depth(id), "{}", id);
            }
        };
        for _ in 0..edits {
            let logic: Vec<GateId> = n
                .iter()
                .filter(|(_, g)| !g.is_input())
                .map(|(id, _)| id)
                .collect();
            let gate = logic[rng.gen_range(0..logic.len())];
            let drive = DRIVES[rng.gen_range(0..DRIVES.len())];
            // A trial drive change, then its undo.
            engine.set_drive(&mut n, &rows, gate, drive);
            assert_fresh(&engine, &n);
            engine.undo_drive(&mut n);
            assert_fresh(&engine, &n);

            let sim = simulate(&n, &p);
            let lac = random_lac(&n, &sim, 16, &mut SearchScratch::default(), &mut rng);
            if let Some(lac) = lac {
                let mut mutated = n.clone();
                lac.apply(&mut mutated).expect("legal LAC");
                let delta = engine.preview_substitute(&n, &rows, lac.target(), lac.switch());
                let full = analyze(&mutated, &cfg);
                for po in 0..mutated.output_count() {
                    prop_assert_eq!(delta.po_arrivals[po].to_bits(), full.po_arrival(po).to_bits());
                    prop_assert_eq!(delta.po_depths[po], full.po_depth(po));
                }
                assert_fresh(&engine, &n);
            }
            match lac {
                Some(lac) if rng.gen_bool(0.5) => {
                    engine
                        .substitute(&mut n, &mut rows, lac.target(), lac.switch())
                        .expect("legal LAC");
                }
                _ => engine.set_drive(&mut n, &rows, gate, drive),
            }
            assert_fresh(&engine, &n);
        }
    }

    #[test]
    fn error_metric_relationships(seed in 0u64..60) {
        let n = random_netlist(seed, 5, 30, 5);
        let p = Patterns::random(5, 256, seed);
        let golden = simulate(&n, &p);
        let mut approx = n.clone();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x33);
        for _ in 0..2 {
            let sim = simulate(&approx, &p);
            if let Some(lac) = random_lac(&approx, &sim, 16, &mut SearchScratch::default(), &mut rng) {
                lac.apply(&mut approx).expect("legal LAC");
            }
        }
        let app = simulate(&approx, &p);
        let er = error_rate(&golden, &app);
        let ned = nmed(&golden, &app);
        // Both constraint metrics are fractions.
        prop_assert!((0.0..=1.0).contains(&er), "er {}", er);
        prop_assert!((0.0..=1.0).contains(&ned), "nmed {}", ned);
        // A vector is wrong iff some output bit differs, which makes its
        // error distance positive: NMED is zero iff ER is zero.
        prop_assert_eq!(ned == 0.0, er == 0.0);
    }

    #[test]
    fn delta_eval_refcounts_survive_commit_sequences(seed in 0u64..60, lacs in 1usize..6) {
        let n = random_netlist(seed, 5, 35, 4);
        let ctx = EvalContext::new(
            &n,
            Patterns::random(5, 128, seed),
            ErrorMetric::ErrorRate,
            TimingConfig::default(),
            0.8,
        );
        let mut base = ctx.delta_eval(n);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x99);
        for _ in 0..lacs {
            let Some(lac) = random_lac(base.netlist(), base.sim(), 16, &mut SearchScratch::default(), &mut rng) else {
                break;
            };
            let (target, switch) = (lac.target(), lac.switch());
            // Previews must not disturb the base state.
            let _ = ctx.score_lac(&base, lac);
            let switch_live = match switch {
                SignalRef::Gate(sw) => base.live()[sw.index()],
                _ => true,
            };
            let predicted = base.area_after(target, switch);
            base.commit(target, switch).expect("legal LAC");
            // The dead-cone preview models shrinking cones only; a dead
            // switch resurrects its cone, which previews cannot see.
            if switch_live {
                prop_assert!(
                    (predicted - base.area_live()).abs() < 1e-9,
                    "previewed area {} vs committed {}",
                    predicted,
                    base.area_live()
                );
            }
            // The incrementally-maintained counts must match a
            // from-scratch reachability recount after every commit.
            let report = tdals::lint::refcount_consistency(
                base.netlist(),
                base.live(),
                base.live_refs(),
            );
            prop_assert!(report.is_clean(), "{}", report);
            let (live, refs) = tdals::lint::refcount_expected(base.netlist());
            prop_assert_eq!(base.live(), &live[..]);
            let _ = refs;
            // And the derived area must match a fresh evaluator's.
            let fresh = ctx.delta_eval(base.netlist().clone());
            prop_assert!((base.area_live() - fresh.area_live()).abs() < 1e-9);
        }
    }

    #[test]
    fn evaluated_error_matches_direct_measurement(seed in 0u64..60) {
        let n = random_netlist(seed, 5, 25, 3);
        let ctx = EvalContext::new(
            &n,
            Patterns::random(5, 256, seed),
            ErrorMetric::ErrorRate,
            TimingConfig::default(),
            0.8,
        );
        let mut approx = n.clone();
        let sim = ctx.simulate(&approx);
        let mut rng = StdRng::seed_from_u64(seed);
        if let Some(lac) = random_lac(&approx, &sim, 16, &mut SearchScratch::default(), &mut rng) {
            lac.apply(&mut approx).expect("legal LAC");
        }
        let cand = ctx.evaluate(approx.clone());
        prop_assert_eq!(cand.error, ctx.evaluator().error_of(&approx));
        prop_assert!(cand.fd >= 0.0 && cand.fa > 0.0);
    }
}
