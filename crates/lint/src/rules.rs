//! The rule registry and the standard structural rules.
//!
//! Each [`Rule`] inspects one aspect of a [`Netlist`] and emits every
//! violation it can see (unlike `Netlist::check_invariants`, which
//! stops at the first). [`Registry::standard`] bundles the seven
//! netlist-level rules; callers with extra context plug in
//! [`refcount_consistency`] (incremental-evaluator state) and
//! [`check_lac`] (prospective substitutions) as free functions, since
//! those need inputs a bare netlist does not carry.

use std::collections::HashMap;

use tdals_netlist::{GateId, Netlist, SignalRef};

use crate::{LintFinding, LintReport, RuleId};

/// One structural check over a netlist.
pub trait Rule {
    /// The defect class this rule reports under.
    fn id(&self) -> RuleId;
    /// One-line description (surfaced by tooling).
    fn description(&self) -> &'static str;
    /// Emits every violation into `report`.
    fn check(&self, netlist: &Netlist, report: &mut LintReport);
}

/// An ordered collection of rules; running it yields one merged
/// [`LintReport`] with deterministic finding order (registration order,
/// then gate order within a rule).
#[derive(Default)]
pub struct Registry {
    rules: Vec<Box<dyn Rule>>,
}

impl Registry {
    /// A registry with no rules.
    pub fn empty() -> Registry {
        Registry::default()
    }

    /// The standard seven netlist-level rules.
    pub fn standard() -> Registry {
        let mut r = Registry::empty();
        r.register(CycleRule);
        r.register(UndrivenRule);
        r.register(MultiDrivenRule);
        r.register(PrimaryIoRule);
        r.register(DanglingWireRule);
        r.register(UnreachableRule);
        r.register(FanoutRule);
        r
    }

    /// Appends a rule; it runs after every rule registered before it.
    pub fn register(&mut self, rule: impl Rule + 'static) {
        self.rules.push(Box::new(rule));
    }

    /// `(id, description)` of every registered rule, in run order.
    pub fn rules(&self) -> impl Iterator<Item = (RuleId, &'static str)> + '_ {
        self.rules.iter().map(|r| (r.id(), r.description()))
    }

    /// Runs every rule over `netlist`.
    pub fn run(&self, netlist: &Netlist) -> LintReport {
        let mut report = LintReport::new();
        for rule in &self.rules {
            rule.check(netlist, &mut report);
        }
        report
    }
}

/// `gate <name> (id <n>)` — the standard way findings name a gate.
fn label(netlist: &Netlist, id: GateId) -> String {
    format!("gate `{}` (id {})", netlist.gate(id).name(), id.index())
}

/// Topological id invariant: every fan-in id is strictly below its
/// reader, so a represented netlist is acyclic by construction. Any
/// violation is the combinational-cycle defect class.
struct CycleRule;

impl Rule for CycleRule {
    fn id(&self) -> RuleId {
        RuleId::Cycle
    }

    fn description(&self) -> &'static str {
        "fan-in ids are strictly below their reader (acyclic by construction)"
    }

    fn check(&self, netlist: &Netlist, report: &mut LintReport) {
        for (id, gate) in netlist.iter() {
            for fanin in gate.fanins() {
                let SignalRef::Gate(src) = fanin else {
                    continue;
                };
                if src.index() < netlist.gate_count() && src >= id {
                    report.push(
                        LintFinding::error(
                            RuleId::Cycle,
                            format!(
                                "{} reads {} — fan-in id not below reader; \
                                 a combinational cycle becomes representable",
                                label(netlist, id),
                                label(netlist, src),
                            ),
                        )
                        .at_gate(id),
                    );
                }
            }
        }
    }
}

/// Undriven nets: fan-in rows that do not match the cell arity, and
/// references (pin or primary output) to gates outside the netlist.
struct UndrivenRule;

impl Rule for UndrivenRule {
    fn id(&self) -> RuleId {
        RuleId::UndrivenNet
    }

    fn description(&self) -> &'static str {
        "every pin and primary output reads a net some gate drives"
    }

    fn check(&self, netlist: &Netlist, report: &mut LintReport) {
        for (id, gate) in netlist.iter() {
            let expected = gate.cell().arity();
            let actual = gate.fanins().len();
            if actual != expected {
                report.push(
                    LintFinding::error(
                        RuleId::UndrivenNet,
                        format!(
                            "{} drives {} with {actual} fan-ins, expected {expected} \
                             — missing pins read nothing",
                            label(netlist, id),
                            gate.cell(),
                        ),
                    )
                    .at_gate(id),
                );
            }
            for fanin in gate.fanins() {
                let SignalRef::Gate(src) = fanin else {
                    continue;
                };
                if src.index() >= netlist.gate_count() {
                    report.push(
                        LintFinding::error(
                            RuleId::UndrivenNet,
                            format!(
                                "{} reads gate id {} outside the netlist \
                                 ({} gates)",
                                label(netlist, id),
                                src.index(),
                                netlist.gate_count(),
                            ),
                        )
                        .at_gate(id),
                    );
                }
            }
        }
        for (po, (name, driver)) in netlist.outputs().enumerate() {
            let SignalRef::Gate(src) = driver else {
                continue;
            };
            if src.index() >= netlist.gate_count() {
                report.push(
                    LintFinding::error(
                        RuleId::UndrivenNet,
                        format!(
                            "output `{name}` reads gate id {} outside the netlist",
                            src.index()
                        ),
                    )
                    .at_output(po),
                );
            }
        }
    }
}

/// Multi-driven nets. In the fan-in adjacency representation every
/// gate id names exactly one output wire, so the defect surfaces as
/// duplicate gate names: after a Verilog round-trip two same-named
/// instances collapse onto one net with two drivers.
struct MultiDrivenRule;

impl Rule for MultiDrivenRule {
    fn id(&self) -> RuleId {
        RuleId::MultiDrivenNet
    }

    fn description(&self) -> &'static str {
        "gate names are unique (no net gains two drivers on round-trip)"
    }

    fn check(&self, netlist: &Netlist, report: &mut LintReport) {
        let mut first_by_name: HashMap<&str, GateId> = HashMap::new();
        for (id, gate) in netlist.iter() {
            if let Some(&first) = first_by_name.get(gate.name()) {
                report.push(
                    LintFinding::error(
                        RuleId::MultiDrivenNet,
                        format!(
                            "{} duplicates the name of {} — one net, two drivers \
                             after a Verilog round-trip",
                            label(netlist, id),
                            label(netlist, first),
                        ),
                    )
                    .at_gate(id),
                );
            } else {
                first_by_name.insert(gate.name(), id);
            }
        }
    }
}

/// Primary-I/O consistency: the input registry and the `Input` cells
/// must agree, port names must be unique, and a module without ports
/// cannot be simulated or timed.
struct PrimaryIoRule;

impl Rule for PrimaryIoRule {
    fn id(&self) -> RuleId {
        RuleId::PrimaryIo
    }

    fn description(&self) -> &'static str {
        "primary inputs/outputs are registered consistently and uniquely"
    }

    fn check(&self, netlist: &Netlist, report: &mut LintReport) {
        let mut registered = vec![false; netlist.gate_count()];
        for &pi in netlist.inputs() {
            if pi.index() >= netlist.gate_count() {
                report.push(LintFinding::error(
                    RuleId::PrimaryIo,
                    format!(
                        "input registry names gate id {} outside the netlist",
                        pi.index()
                    ),
                ));
                continue;
            }
            registered[pi.index()] = true;
            if !netlist.gate(pi).is_input() {
                report.push(
                    LintFinding::error(
                        RuleId::PrimaryIo,
                        format!(
                            "{} is registered as a primary input but is not an Input cell",
                            label(netlist, pi)
                        ),
                    )
                    .at_gate(pi),
                );
            }
        }
        for (id, gate) in netlist.iter() {
            if gate.is_input() && !registered[id.index()] {
                report.push(
                    LintFinding::error(
                        RuleId::PrimaryIo,
                        format!(
                            "{} is an Input cell missing from the input registry",
                            label(netlist, id)
                        ),
                    )
                    .at_gate(id),
                );
            }
        }
        let mut seen_pi: HashMap<&str, GateId> = HashMap::new();
        for &pi in netlist.inputs() {
            if pi.index() >= netlist.gate_count() {
                continue;
            }
            let name = netlist.gate(pi).name();
            if seen_pi.insert(name, pi).is_some() {
                report.push(
                    LintFinding::error(
                        RuleId::PrimaryIo,
                        format!("duplicate primary input name `{name}`"),
                    )
                    .at_gate(pi),
                );
            }
        }
        let mut seen_po: HashMap<&str, usize> = HashMap::new();
        for (po, (name, _)) in netlist.outputs().enumerate() {
            if seen_po.insert(name, po).is_some() {
                report.push(
                    LintFinding::error(
                        RuleId::PrimaryIo,
                        format!("duplicate primary output name `{name}`"),
                    )
                    .at_output(po),
                );
            }
        }
        if netlist.input_count() == 0 {
            report.push(LintFinding::warning(
                RuleId::PrimaryIo,
                "module has no primary inputs",
            ));
        }
        if netlist.output_count() == 0 {
            report.push(LintFinding::warning(
                RuleId::PrimaryIo,
                "module has no primary outputs",
            ));
        }
    }
}

/// Dangling wires: logic gates whose output nothing reads — the normal
/// residue of substitution, flagged as warnings until post-opt sweeps
/// them.
struct DanglingWireRule;

impl Rule for DanglingWireRule {
    fn id(&self) -> RuleId {
        RuleId::DanglingWire
    }

    fn description(&self) -> &'static str {
        "every logic gate's output is read by some pin or primary output"
    }

    fn check(&self, netlist: &Netlist, report: &mut LintReport) {
        let fanouts = netlist.fanout_counts();
        for (id, gate) in netlist.iter() {
            if !gate.is_input() && fanouts[id.index()] == 0 {
                report.push(
                    LintFinding::warning(
                        RuleId::DanglingWire,
                        format!("{} drives a wire nothing reads", label(netlist, id)),
                    )
                    .at_gate(id),
                );
            }
        }
    }
}

/// Unreachable gates: gates that do have readers but no path to any
/// primary output (an entire dead cone below a dangling root).
struct UnreachableRule;

impl Rule for UnreachableRule {
    fn id(&self) -> RuleId {
        RuleId::UnreachableGate
    }

    fn description(&self) -> &'static str {
        "every gate with readers reaches a primary output"
    }

    fn check(&self, netlist: &Netlist, report: &mut LintReport) {
        let live = netlist.live_mask();
        let fanouts = netlist.fanout_counts();
        for (id, gate) in netlist.iter() {
            if !gate.is_input() && !live[id.index()] && fanouts[id.index()] > 0 {
                report.push(
                    LintFinding::warning(
                        RuleId::UnreachableGate,
                        format!(
                            "{} feeds only gates with no path to a primary output",
                            label(netlist, id)
                        ),
                    )
                    .at_gate(id),
                );
            }
        }
    }
}

/// Fan-out count consistency: `Netlist::fanout_counts` against an
/// independent recount over pins and output drivers. Tautological
/// today (both derive from the same rows), this is the tripwire for
/// the planned arena/copy-on-write refactor where counts become cached
/// state.
struct FanoutRule;

impl Rule for FanoutRule {
    fn id(&self) -> RuleId {
        RuleId::FanoutConsistency
    }

    fn description(&self) -> &'static str {
        "reported fan-out counts match a from-scratch recount"
    }

    fn check(&self, netlist: &Netlist, report: &mut LintReport) {
        let reported = netlist.fanout_counts();
        let mut counted = vec![0usize; netlist.gate_count()];
        for (_, gate) in netlist.iter() {
            for fanin in gate.fanins() {
                if let SignalRef::Gate(src) = fanin {
                    if src.index() < counted.len() {
                        counted[src.index()] += 1;
                    }
                }
            }
        }
        for (_, driver) in netlist.outputs() {
            if let SignalRef::Gate(src) = driver {
                if src.index() < counted.len() {
                    counted[src.index()] += 1;
                }
            }
        }
        for (id, _) in netlist.iter() {
            let (r, c) = (reported[id.index()], counted[id.index()]);
            if r != c {
                report.push(
                    LintFinding::error(
                        RuleId::FanoutConsistency,
                        format!(
                            "{} reports {r} fan-outs but a recount finds {c}",
                            label(netlist, id)
                        ),
                    )
                    .at_gate(id),
                );
            }
        }
    }
}

/// From-scratch liveness reference counts for `netlist`: per gate, the
/// number of live reader pins plus primary-output driver references
/// (0 for dead gates) — exactly the state incremental evaluators carry
/// for O(dead cone) area updates. Returns `(live, live_refs)`.
pub fn refcount_expected(netlist: &Netlist) -> (Vec<bool>, Vec<u32>) {
    let live = netlist.live_mask();
    let mut refs = vec![0u32; netlist.gate_count()];
    for (id, gate) in netlist.iter() {
        if !live[id.index()] {
            continue;
        }
        for fanin in gate.fanins() {
            if let SignalRef::Gate(src) = fanin {
                refs[src.index()] += 1;
            }
        }
    }
    for (_, driver) in netlist.outputs() {
        if let SignalRef::Gate(src) = driver {
            refs[src.index()] += 1;
        }
    }
    (live, refs)
}

/// Checks an incremental evaluator's liveness reference counts against
/// a from-scratch recount ([`refcount_expected`]). Every disagreement
/// — a stale liveness bit or a drifted count — is an error finding
/// under [`RuleId::FanoutConsistency`]: drifting counts silently
/// corrupt every subsequent dead-cone area figure.
pub fn refcount_consistency(netlist: &Netlist, live: &[bool], live_refs: &[u32]) -> LintReport {
    let mut report = LintReport::new();
    let (want_live, want_refs) = refcount_expected(netlist);
    if live.len() != netlist.gate_count() || live_refs.len() != netlist.gate_count() {
        report.push(LintFinding::error(
            RuleId::FanoutConsistency,
            format!(
                "liveness state tracks {} gates but the netlist has {}",
                live.len().min(live_refs.len()),
                netlist.gate_count()
            ),
        ));
        return report;
    }
    for (id, _) in netlist.iter() {
        let i = id.index();
        if live[i] != want_live[i] {
            report.push(
                LintFinding::error(
                    RuleId::FanoutConsistency,
                    format!(
                        "{} liveness is {} but reachability says {}",
                        label(netlist, id),
                        live[i],
                        want_live[i]
                    ),
                )
                .at_gate(id),
            );
        }
        // Dead gates may carry any residual count; only live counts
        // feed the cascade.
        if want_live[i] && live_refs[i] != want_refs[i] {
            report.push(
                LintFinding::error(
                    RuleId::FanoutConsistency,
                    format!(
                        "{} carries {} live references but a recount finds {}",
                        label(netlist, id),
                        live_refs[i],
                        want_refs[i]
                    ),
                )
                .at_gate(id),
            );
        }
    }
    report
}

/// Legality of a prospective LAC `target := switch` **before** it is
/// applied: the target must be a logic gate inside the netlist, and a
/// gate-valued switch must be a distinct, in-range gate with a
/// strictly smaller id (so every rewired reader still satisfies the
/// topological id invariant — the substituted cone stays acyclic).
/// Widths are compatible by construction (every net is one bit), so a
/// same-arity check is not needed; a switch outside the target's
/// transitive fan-in is legal but earns a warning, because the
/// dead-cone area cascade and switch-similarity scoring both assume
/// TFI membership.
pub fn check_lac(netlist: &Netlist, target: GateId, switch: SignalRef) -> LintReport {
    let mut report = LintReport::new();
    if target.index() >= netlist.gate_count() {
        report.push(LintFinding::error(
            RuleId::LacLegality,
            format!(
                "substitution target id {} is outside the netlist",
                target.index()
            ),
        ));
        return report;
    }
    if netlist.gate(target).is_input() {
        report.push(
            LintFinding::error(
                RuleId::LacLegality,
                format!(
                    "{} is a primary input and cannot be substituted",
                    label(netlist, target)
                ),
            )
            .at_gate(target),
        );
    }
    let SignalRef::Gate(sw) = switch else {
        return report; // constants are always legal switches
    };
    if sw.index() >= netlist.gate_count() {
        report.push(
            LintFinding::error(
                RuleId::LacLegality,
                format!("switch id {} is outside the netlist", sw.index()),
            )
            .at_gate(target),
        );
        return report;
    }
    if sw == target {
        report.push(
            LintFinding::error(
                RuleId::LacLegality,
                format!("{} cannot be its own switch", label(netlist, target)),
            )
            .at_gate(target),
        );
        return report;
    }
    if sw > target {
        report.push(
            LintFinding::error(
                RuleId::LacLegality,
                format!(
                    "switch {} has a larger id than target {} — rewiring its readers \
                     would break the topological id invariant",
                    label(netlist, sw),
                    label(netlist, target),
                ),
            )
            .at_gate(target),
        );
        return report;
    }
    if !netlist.tfi_mask(target)[sw.index()] {
        report.push(
            LintFinding::warning(
                RuleId::LacLegality,
                format!(
                    "switch {} is outside the transitive fan-in of target {} — legal, \
                     but similarity scoring and the dead-cone area cascade assume \
                     TFI membership",
                    label(netlist, sw),
                    label(netlist, target),
                ),
            )
            .at_gate(target),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lint_netlist, Severity};
    use tdals_netlist::builder::Builder;
    use tdals_netlist::cell::{Cell, CellFunc, Drive};

    fn two_cone() -> Netlist {
        // a0─┐
        //    ├ and ── xor ── y        (plus a1 into both)
        // a1─┘        │
        //      inv ───┘ (of a0)
        let mut b = Builder::new("t");
        let ins = b.inputs("a", 2);
        let g1 = b.and(ins[0], ins[1]);
        let g2 = b.not(ins[0]);
        let g3 = b.xor(g1, g2);
        b.output("y", g3);
        b.finish()
    }

    #[test]
    fn substitution_residue_is_warnings_not_errors() {
        let mut n = two_cone();
        let g3 = n.find_gate("u3").expect("xor gate");
        // Kill the xor: its whole cone dangles.
        n.substitute(g3, SignalRef::Const0).expect("legal");
        let report = lint_netlist(&n);
        assert!(report.has_no_errors(), "{report}");
        assert!(report.warning_count() > 0, "{report}");
        assert!(report.warnings().any(|f| f.rule == RuleId::DanglingWire));
        assert!(report.warnings().any(|f| f.rule == RuleId::UnreachableGate));
    }

    #[test]
    fn duplicate_gate_names_are_multi_driven() {
        let mut n = Netlist::new("dup");
        let a = n.add_input("a");
        let c = Cell::new(CellFunc::Inv, Drive::X1);
        let g1 = n.add_gate("u1", c, vec![a.into()]).expect("g1");
        let g2 = n.add_gate("u1", c, vec![g1.into()]).expect("g2");
        n.add_output("y", g2.into());
        let report = lint_netlist(&n);
        assert_eq!(report.error_count(), 1, "{report}");
        assert_eq!(
            report.errors().next().expect("one").rule,
            RuleId::MultiDrivenNet
        );
    }

    #[test]
    fn refcounts_match_reality_or_are_flagged() {
        let n = two_cone();
        let (live, refs) = refcount_expected(&n);
        assert!(refcount_consistency(&n, &live, &refs).is_clean());
        let mut bad = refs.clone();
        bad[0] += 1; // a0 is live (PI), so its count is checked
        let report = refcount_consistency(&n, &live, &bad);
        assert_eq!(report.error_count(), 1, "{report}");
        let mut dead_live = live.clone();
        dead_live[n.gate_count() - 1] = false;
        let report = refcount_consistency(&n, &dead_live, &refs);
        assert!(report.error_count() >= 1, "{report}");
    }

    #[test]
    fn lac_legality_catches_each_illegal_shape() {
        let n = two_cone();
        let and = n.find_gate("u1").expect("and");
        let xor = n.find_gate("u3").expect("xor");
        // Constants are always fine.
        assert!(check_lac(&n, xor, SignalRef::Const0).is_clean());
        // Forward reference: switch id above target.
        assert!(!check_lac(&n, and, xor.into()).has_no_errors());
        // Self-substitution.
        assert!(!check_lac(&n, xor, xor.into()).has_no_errors());
        // A PI target.
        let pi = n.inputs()[0];
        assert!(!check_lac(&n, pi, SignalRef::Const0).has_no_errors());
        // Out-of-range target.
        assert!(!check_lac(&n, GateId::new(999), SignalRef::Const0).has_no_errors());
        // Legal but outside the TFI: warning only. `u1` (the AND) has a
        // smaller id than `u2` (the inverter) but is not in its fan-in cone.
        let inv = n.find_gate("u2").expect("inv");
        let report = check_lac(&n, inv, and.into());
        assert!(report.has_no_errors(), "{report}");
        assert_eq!(report.warning_count(), 1, "{report}");
    }

    #[test]
    fn standard_registry_reports_every_rule_once() {
        let ids: Vec<RuleId> = Registry::standard().rules().map(|(id, _)| id).collect();
        assert_eq!(ids.len(), 7);
        for id in [
            RuleId::Cycle,
            RuleId::UndrivenNet,
            RuleId::MultiDrivenNet,
            RuleId::PrimaryIo,
            RuleId::DanglingWire,
            RuleId::UnreachableGate,
            RuleId::FanoutConsistency,
        ] {
            assert!(ids.contains(&id), "missing {id}");
        }
    }

    #[test]
    fn severity_orders_warning_below_error() {
        assert!(Severity::Warning < Severity::Error);
    }
}
