//! Bit-parallel simulation throughput — the inner loop behind every
//! error evaluation in TABLEs II/III.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tdals_circuits::Benchmark;
use tdals_sim::{error_rate, simulate, Patterns, SimWords};

fn bench_simulate(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate");
    for bench in [Benchmark::C880, Benchmark::Adder16, Benchmark::C6288] {
        let netlist = bench.build();
        let patterns = Patterns::random(netlist.input_count(), 4096, 1);
        group.throughput(Throughput::Elements(
            (netlist.gate_count() * patterns.word_count()) as u64,
        ));
        group.bench_with_input(
            BenchmarkId::from_parameter(bench.name()),
            &netlist,
            |b, n| b.iter(|| simulate(n, &patterns)),
        );
    }
    group.finish();
}

fn bench_error_metrics(c: &mut Criterion) {
    let netlist = Benchmark::Adder16.build();
    let patterns = Patterns::random(netlist.input_count(), 4096, 2);
    let golden = simulate(&netlist, &patterns);
    let mut approx = netlist.clone();
    let target = approx.output_driver(3).gate().expect("gate-driven PO");
    approx
        .substitute(target, tdals_netlist::SignalRef::Const0)
        .expect("lac");
    let app_sim = simulate(&approx, &patterns);

    c.bench_function("error_rate/adder16", |b| {
        b.iter(|| error_rate(&golden, &app_sim))
    });
    c.bench_function("nmed/adder16", |b| {
        b.iter(|| tdals_sim::nmed(&golden, &app_sim))
    });
}

fn bench_similarity(c: &mut Criterion) {
    let netlist = Benchmark::C880.build();
    let patterns = Patterns::random(netlist.input_count(), 4096, 3);
    let sim = simulate(&netlist, &patterns);
    let a = tdals_netlist::SignalRef::Gate(tdals_netlist::GateId::new(80));
    let b_sig = tdals_netlist::SignalRef::Gate(tdals_netlist::GateId::new(120));
    c.bench_function("similarity/c880", |b| b.iter(|| sim.similarity(a, b_sig)));
}

criterion_group!(
    benches,
    bench_simulate,
    bench_error_metrics,
    bench_similarity
);
criterion_main!(benches);
