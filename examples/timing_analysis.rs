//! Timing-analysis tooling tour: full STA, a PrimeTime-style report,
//! incremental what-if analysis of a LAC, and a Liberty export of the
//! cell library.
//!
//! ```sh
//! cargo run --release --example timing_analysis
//! ```

use tdals::circuits::Benchmark;
use tdals::netlist::{liberty, SignalRef};
use tdals::sta::{
    analyze, critical_path, timing_report_text, IncrementalSta, ReportOptions, TimingConfig,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut netlist = Benchmark::C880.build();
    let cfg = TimingConfig::default();

    // Full analysis + report.
    let report = analyze(&netlist, &cfg);
    println!(
        "{}",
        timing_report_text(
            &netlist,
            &report,
            &ReportOptions {
                path_count: 2,
                max_gates_per_path: 8,
            }
        )
    );

    // What-if: substitute the midpoint of the critical path with
    // constant 0 and watch the incremental engine track the change.
    let path = critical_path(&netlist, &report);
    let target = path[path.len() / 2];
    println!(
        "what-if: substitute critical-path gate `{}` with 1'b0",
        netlist.gate(target).name()
    );
    let mut engine = IncrementalSta::new(&netlist, cfg);
    let mut rows = netlist.fanouts();
    let before = engine.critical_path_delay(&netlist);
    engine.substitute(&mut netlist, &mut rows, target, SignalRef::Const0)?;
    let after = engine.critical_path_delay(&netlist);
    println!("  CPD {before:.2} ps -> {after:.2} ps (incremental update)");

    // Cross-check against a from-scratch run.
    let full = analyze(&netlist, &cfg);
    println!(
        "  from-scratch STA agrees: {:.2} ps",
        full.critical_path_delay()
    );

    // Library export.
    let lib = liberty::to_liberty("tdals28");
    let (name, cells) = liberty::parse_liberty(&lib)?;
    println!(
        "\nliberty export: library `{name}` with {} cells",
        cells.len()
    );
    for cell in cells.iter().take(3) {
        println!(
            "  {:<10} area {:>6.2} um2, cin {:>5.2} fF, R {:>5.2} ps/fF",
            cell.name, cell.area, cell.input_cap, cell.resistance
        );
    }
    Ok(())
}
