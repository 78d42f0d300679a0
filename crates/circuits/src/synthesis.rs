//! Post-synthesis drive assignment.
//!
//! The paper's benchmarks come out of Design Compiler under area
//! pressure: cells are at (near-)minimum size except where fan-out
//! forces a stronger buffer. That sizing profile is what gives the
//! post-optimization its leverage — deleting gates frees area that the
//! sizer can spend upsizing critical cells. This module applies the
//! same profile to generated netlists.

use tdals_netlist::cell::Drive;
use tdals_netlist::Netlist;

/// Assigns area-optimized drive strengths by fan-out: minimum size for
/// local nets, one/two steps up for high-fanout nets, as an
/// area-constrained synthesis run would leave them.
///
/// | fan-out | drive |
/// |---------|-------|
/// | 0–2     | X0    |
/// | 3–6     | X1    |
/// | ≥ 7     | X2    |
///
/// # Examples
///
/// ```
/// use tdals_circuits::synthesis::assign_synthesis_drives;
/// use tdals_netlist::builder::Builder;
/// use tdals_netlist::cell::Drive;
///
/// let mut b = Builder::new("t");
/// let a = b.input("a");
/// let x = b.input("x");
/// let g = b.and(a, x);
/// b.output("y", g);
/// let mut n = b.finish();
/// assign_synthesis_drives(&mut n);
/// let gate = g.gate().expect("gate");
/// assert_eq!(n.gate(gate).cell().drive(), Drive::X0); // fan-out 1
/// ```
pub fn assign_synthesis_drives(netlist: &mut Netlist) {
    let counts = netlist.fanout_counts();
    let ids: Vec<_> = netlist
        .iter()
        .filter(|(_, g)| !g.is_input())
        .map(|(id, _)| id)
        .collect();
    netlist.set_drives(ids.into_iter().map(|id| {
        let drive = match counts[id.index()] {
            0..=2 => Drive::X0,
            3..=6 => Drive::X1,
            _ => Drive::X2,
        };
        (id, drive)
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use tdals_netlist::builder::Builder;

    #[test]
    fn drives_follow_fanout() {
        let mut b = Builder::new("t");
        let a = b.input("a");
        // `hub` drives 8 readers; each reader drives one output.
        let hub = b.not(a);
        for i in 0..8 {
            let r = b.not(hub);
            b.output(format!("y{i}"), r);
        }
        let mut n = b.finish();
        assign_synthesis_drives(&mut n);
        let hub_gate = hub.gate().expect("gate");
        assert_eq!(n.gate(hub_gate).cell().drive(), Drive::X2, "hub upsized");
        for (id, gate) in n.iter() {
            if !gate.is_input() && id != hub_gate {
                assert_eq!(gate.cell().drive(), Drive::X0, "leaf at min size");
            }
        }
    }

    #[test]
    fn assignment_reduces_area_vs_uniform_x1() {
        let n = crate::Benchmark::C880.build();
        // Benchmarks already carry synthesis drives; re-uniform to X1
        // and compare.
        let mut uniform = n.clone();
        let ids: Vec<_> = uniform
            .iter()
            .filter(|(_, g)| !g.is_input())
            .map(|(id, _)| id)
            .collect();
        for id in ids {
            uniform.set_drive(id, Drive::X1);
        }
        assert!(
            n.area_live() < uniform.area_live(),
            "area-optimized sizing is smaller"
        );
    }
}
