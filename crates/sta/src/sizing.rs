//! Timing-driven gate sizing under an area constraint.
//!
//! This is the workspace's substitute for the paper's post-optimization
//! call into Design Compiler: "resize its remaining gates without
//! adjusting any circuit structure under area constraints `Area_con`"
//! (§III-C). The approximate circuit is smaller than the accurate one,
//! so the freed area budget is spent upsizing gates on (near-)critical
//! paths, converting area reduction into drive-strength — and hence
//! critical-path-delay — improvement.
//!
//! The algorithm is a classic greedy TILOS-style sizer:
//!
//! 1. extract the critical path;
//! 2. for every gate on it, locally estimate the CPD change of a one-step
//!    upsize (self speeds up, its drivers slow down under the higher pin
//!    capacitance), and rank the moves that fit the area budget;
//! 3. try the ranked moves in order, each applied through an
//!    [`IncrementalSta`] and taken back unless it improves the measured
//!    CPD, and keep the first that does;
//! 4. re-rank after each accepted move; stop when no move fits or helps.
//!
//! A rejected trial leaves the drives, the timing and the area as they
//! were, so the ranking it was drawn from still holds and the next trial
//! is the next ranked move. The engine's timing equals a full
//! [`analyze`](crate::analyze) bit for bit after every trial and every
//! undo, so the moves are exactly those of a sizer that re-runs full
//! STA after every trial.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use tdals_netlist::cell::Drive;
use tdals_netlist::{Fanouts, GateId, Netlist, SignalRef};

use crate::analysis::TimingConfig;
use crate::incremental::IncrementalSta;

/// Options for [`size_for_timing`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizingConfig {
    /// Upper bound on accepted sizing moves (safety valve; the greedy
    /// loop normally stops on its own).
    pub max_moves: usize,
    /// Also consider upsizing the fan-ins of critical-path gates (their
    /// delay is on the path through the loading term).
    pub include_fanins: bool,
}

impl Default for SizingConfig {
    fn default() -> SizingConfig {
        SizingConfig {
            max_moves: 10_000,
            include_fanins: true,
        }
    }
}

/// Outcome of a sizing run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SizingResult {
    /// Critical path delay before sizing, ps.
    pub cpd_before: f64,
    /// Critical path delay after sizing, ps.
    pub cpd_after: f64,
    /// Live area after sizing, µm².
    pub area_after: f64,
    /// Number of accepted upsize moves.
    pub moves: usize,
}

/// Estimated CPD benefit of upsizing `gate` one step, using local delay
/// arithmetic only (no STA).
///
/// Negative values predict improvement. The estimate sums the gate's own
/// delay change at its current load with the slowdown of each fan-in
/// driver caused by the increased pin capacitance.
fn estimate_upsize_delta(
    netlist: &Netlist,
    sta: &IncrementalSta,
    gate: GateId,
) -> Option<(Drive, f64)> {
    let g = netlist.gate(gate);
    if g.is_input() {
        return None;
    }
    let cell = g.cell();
    let up = cell.drive().upsize()?;
    let bigger = cell.with_drive(up);
    let load = sta.load(gate);
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

/// One candidate upsize: the gate, its next drive, the area it adds,
/// and its rank score (estimated CPD change per added area).
#[derive(Debug, Clone, Copy)]
struct Move {
    score: f64,
    gate: GateId,
    drive: Drive,
    extra_area: f64,
}

/// Heap order: the better move is the greater one, so a max-heap pops
/// the lowest score first and, on a tie, the lower gate id.
impl Ord for Move {
    fn cmp(&self, other: &Move) -> Ordering {
        other
            .score
            .total_cmp(&self.score)
            .then(other.gate.cmp(&self.gate))
    }
}

impl PartialOrd for Move {
    fn partial_cmp(&self, other: &Move) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Move {
    fn eq(&self, other: &Move) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Move {}

/// Per-gate bookkeeping of one sizing run.
///
/// Upsize estimates are kept across rankings. An estimate reads only
/// the gate's cell and load and its fan-in drivers' cells, so an
/// accepted move at `g` stales just the estimates of `g`, of its fan-in
/// drivers (their loads moved) and of its readers (a driver's
/// resistance moved); a trial that is undone stales nothing.
struct Candidates {
    /// Liveness; sizing never changes it.
    live: Vec<bool>,
    /// The drive at which the gate's last trial upsize failed; it is
    /// retried only after an accepted move changes its drive.
    rejected: Vec<Option<Drive>>,
    estimate: Vec<Option<(Drive, f64)>>,
    fresh: Vec<bool>,
    /// Dedup marks of one ranking, all `false` between rankings.
    seen: Vec<bool>,
}

impl Candidates {
    fn new(netlist: &Netlist) -> Candidates {
        let n = netlist.gate_count();
        Candidates {
            live: netlist.live_mask(),
            rejected: vec![None; n],
            estimate: vec![None; n],
            fresh: vec![false; n],
            seen: vec![false; n],
        }
    }

    fn estimate(
        &mut self,
        netlist: &Netlist,
        sta: &IncrementalSta,
        gate: GateId,
    ) -> Option<(Drive, f64)> {
        let i = gate.index();
        if !self.fresh[i] {
            self.estimate[i] = estimate_upsize_delta(netlist, sta, gate);
            self.fresh[i] = true;
        }
        self.estimate[i]
    }

    /// The upsizes worth trying on the current critical path, as a heap
    /// that pops the best first: by estimated CPD change per added area,
    /// then by gate id. Candidates are the path's gates (plus, optionally,
    /// their live fan-ins), minus those rejected at their current drive,
    /// those not predicted to help, and those that would take the live
    /// area `area` past `area_con`. A run tries only a few moves per
    /// ranking, so the heap orders no more of them than are popped.
    fn rank(
        &mut self,
        netlist: &Netlist,
        sta: &IncrementalSta,
        area: f64,
        area_con: f64,
        sizing: &SizingConfig,
    ) -> BinaryHeap<Move> {
        let path = sta.critical_path(netlist);
        let mut candidates: Vec<GateId> = Vec::with_capacity(path.len() * 3);
        for &g in &path {
            candidates.push(g);
            if sizing.include_fanins {
                for fanin in netlist.gate(g).fanins() {
                    if let SignalRef::Gate(src) = fanin {
                        if self.live[src.index()] && !netlist.gate(src).is_input() {
                            candidates.push(src);
                        }
                    }
                }
            }
        }

        let mut ranked = Vec::with_capacity(candidates.len());
        for &g in &candidates {
            if std::mem::replace(&mut self.seen[g.index()], true) {
                continue;
            }
            let cell = netlist.gate(g).cell();
            if self.rejected[g.index()] == Some(cell.drive()) {
                continue;
            }
            let Some((up, delta)) = self.estimate(netlist, sta, g) else {
                continue;
            };
            if delta >= 0.0 {
                continue;
            }
            let extra_area = cell.with_drive(up).area() - cell.area();
            if area + extra_area > area_con {
                continue;
            }
            ranked.push(Move {
                score: delta / extra_area.max(1e-9),
                gate: g,
                drive: up,
                extra_area,
            });
        }
        for g in candidates {
            self.seen[g.index()] = false;
        }
        BinaryHeap::from(ranked)
    }

    /// Stales the estimates an accepted move at `gate` changes.
    fn moved(&mut self, netlist: &Netlist, rows: &Fanouts, gate: GateId) {
        self.fresh[gate.index()] = false;
        for fanin in netlist.gate(gate).fanins() {
            if let SignalRef::Gate(src) = fanin {
                self.fresh[src.index()] = false;
            }
        }
        for &reader in rows.readers(gate) {
            self.fresh[reader.index()] = false;
        }
    }
}

/// Greedily upsizes gates to minimize critical path delay while keeping
/// the live area at or below `area_con` µm².
///
/// The circuit structure is never modified — only drive strengths change
/// — so the function is function-preserving by construction. If the
/// circuit already exceeds `area_con`, no upsizing is performed (the
/// paper never encounters this case because approximate circuits shrink).
///
/// One [`IncrementalSta`] serves the whole run: each trial re-times its
/// move's cone, a rejected one is undone from the engine's journal, and
/// only an accepted move is re-ranked.
///
/// # Examples
///
/// ```
/// use tdals_netlist::Netlist;
/// use tdals_netlist::cell::{Cell, CellFunc, Drive};
/// use tdals_sta::{analyze, size_for_timing, SizingConfig, TimingConfig};
///
/// let mut n = Netlist::new("chain");
/// let a = n.add_input("a");
/// let mut prev = a.into();
/// for i in 0..6 {
///     prev = n.add_gate(format!("g{i}"), Cell::new(CellFunc::Nand2, Drive::X0),
///                       vec![prev, a.into()])?.into();
/// }
/// n.add_output("y", prev);
///
/// let cfg = TimingConfig::default();
/// let budget = n.area_live() * 2.0;
/// let result = size_for_timing(&mut n, &cfg, budget, &SizingConfig::default());
/// assert!(result.cpd_after <= result.cpd_before);
/// assert!(result.area_after <= budget);
/// assert_eq!(result.cpd_after.to_bits(), analyze(&n, &cfg).critical_path_delay().to_bits());
/// # Ok::<(), tdals_netlist::NetlistError>(())
/// ```
pub fn size_for_timing(
    netlist: &mut Netlist,
    cfg: &TimingConfig,
    area_con: f64,
    sizing: &SizingConfig,
) -> SizingResult {
    // Sizing never rewires, so one set of fan-out rows serves every call.
    let rows = netlist.fanouts();
    let mut sta = IncrementalSta::new(netlist, *cfg);
    let cpd_before = sta.critical_path_delay(netlist);
    let mut cpd = cpd_before;
    let mut area = netlist.area_live();
    let mut moves = 0usize;
    let mut candidates = Candidates::new(netlist);

    'rank: while moves < sizing.max_moves {
        let mut ranked = candidates.rank(netlist, &sta, area, area_con, sizing);
        while let Some(mv) = ranked.pop() {
            sta.set_drive(netlist, &rows, mv.gate, mv.drive);
            let new_cpd = sta.critical_path_delay(netlist);
            if new_cpd < cpd {
                cpd = new_cpd;
                area += mv.extra_area;
                moves += 1;
                candidates.moved(netlist, &rows, mv.gate);
                continue 'rank;
            }
            // Local estimate was optimistic: take the move back, remember
            // the failure at this drive, and let the next ranked move
            // compete.
            sta.undo_drive(netlist);
            candidates.rejected[mv.gate.index()] = Some(netlist.gate(mv.gate).cell().drive());
        }
        break;
    }

    SizingResult {
        cpd_before,
        cpd_after: cpd,
        area_after: netlist.area_live(),
        moves,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdals_netlist::cell::{Cell, CellFunc};

    fn weak_chain(len: usize, width: usize) -> Netlist {
        // A chain of NAND2X0 gates with `width` parallel side-loads per
        // stage, so upsizing has real work to do.
        let mut n = Netlist::new("weak");
        let a = n.add_input("a");
        let b = n.add_input("b");
        let mut prev: SignalRef = a.into();
        for i in 0..len {
            let g = n
                .add_gate(
                    format!("g{i}"),
                    Cell::new(CellFunc::Nand2, Drive::X0),
                    vec![prev, b.into()],
                )
                .expect("gate");
            for j in 0..width {
                let s = n
                    .add_gate(
                        format!("side{i}_{j}"),
                        Cell::new(CellFunc::Inv, Drive::X1),
                        vec![g.into()],
                    )
                    .expect("gate");
                n.add_output(format!("o{i}_{j}"), s.into());
            }
            prev = g.into();
        }
        n.add_output("y", prev);
        n
    }

    #[test]
    fn sizing_improves_cpd_within_budget() {
        let mut n = weak_chain(8, 2);
        let cfg = TimingConfig::default();
        let budget = n.area_live() * 1.5;
        let r = size_for_timing(&mut n, &cfg, budget, &SizingConfig::default());
        assert!(r.moves > 0, "expected at least one accepted move");
        assert!(r.cpd_after < r.cpd_before);
        assert!(r.area_after <= budget + 1e-9);
        n.check_invariants().expect("structure untouched");
    }

    #[test]
    fn sizing_is_function_preserving() {
        use tdals_sim::{simulate, Patterns};
        let mut n = weak_chain(4, 1);
        let p = Patterns::random(2, 512, 5);
        let before = simulate(&n, &p);
        let cfg = TimingConfig::default();
        let budget = n.area_live() * 2.0;
        size_for_timing(&mut n, &cfg, budget, &SizingConfig::default());
        let after = simulate(&n, &p);
        for po in 0..n.output_count() {
            for w in 0..p.word_count() {
                assert_eq!(before.po_word(po, w), after.po_word(po, w));
            }
        }
    }

    #[test]
    fn zero_headroom_budget_means_no_moves() {
        let mut n = weak_chain(4, 1);
        let cfg = TimingConfig::default();
        let area = n.area_live();
        let r = size_for_timing(&mut n, &cfg, area, &SizingConfig::default());
        assert_eq!(r.moves, 0);
        assert_eq!(r.cpd_after, r.cpd_before);
    }

    #[test]
    fn larger_budget_never_hurts() {
        let cfg = TimingConfig::default();
        let base = weak_chain(8, 2);
        let mut tight = base.clone();
        let mut loose = base.clone();
        let area = base.area_live();
        let rt = size_for_timing(&mut tight, &cfg, area * 1.1, &SizingConfig::default());
        let rl = size_for_timing(&mut loose, &cfg, area * 2.0, &SizingConfig::default());
        assert!(rl.cpd_after <= rt.cpd_after + 1e-9);
    }

    #[test]
    fn move_cap_is_respected() {
        let mut n = weak_chain(8, 2);
        let cfg = TimingConfig::default();
        let sizing = SizingConfig {
            max_moves: 1,
            ..SizingConfig::default()
        };
        let budget = n.area_live() * 3.0;
        let r = size_for_timing(&mut n, &cfg, budget, &sizing);
        assert!(r.moves <= 1);
    }
}
