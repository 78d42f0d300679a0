//! Observability acceptance suite.
//!
//! Two halves:
//!
//! 1. **Registry** — the sharded counters and histograms lose nothing
//!    under concurrent writers (the scheduler's workers hammer them
//!    from many threads at once).
//! 2. **Tracing** — a traced flow of *every* optimizer method emits the
//!    flow → phase → iteration span hierarchy, and the serialized
//!    document is valid Chrome trace-event JSON with monotone,
//!    properly-nested timestamps.
//!
//! The trace recorder is process-global, so everything trace-shaped
//! lives in one `#[test]` — Rust runs the tests of one binary
//! concurrently, and a second enable/drain would race this one.

use tdals::baselines::ALL_METHODS;
use tdals::circuits::Benchmark;
use tdals::obs::json::Json;
use tdals::obs::metrics::{Counter, Histogram};
use tdals::obs::report::trace_to_json;
use tdals::obs::trace;
use tdals::server::FlowJob;

#[test]
fn counters_and_histograms_lose_nothing_under_concurrent_writers() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 10_000;

    // Private instances, not the process registry: other tests in this
    // binary increment the global counters, so only a counter this test
    // owns can be asserted *exactly*.
    let counter = Counter::new();
    let hist = Histogram::new();
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                for i in 0..PER_THREAD {
                    counter.incr();
                    hist.record(i & 1023);
                }
            });
        }
    });

    assert_eq!(counter.get(), THREADS * PER_THREAD);
    let snap = hist.snapshot("contended");
    assert_eq!(snap.count, THREADS * PER_THREAD);
    let expected_sum: u64 = (0..PER_THREAD).map(|i| i & 1023).sum::<u64>() * THREADS;
    assert_eq!(snap.sum, expected_sum);
    let bucket_total: u64 = snap.buckets.iter().map(|(_, n)| n).sum();
    assert_eq!(bucket_total, THREADS * PER_THREAD, "every record bucketed");
}

fn traced_job(method: tdals::baselines::Method) -> FlowJob {
    FlowJob::benchmark(Benchmark::Int2float)
        .with_bound(0.05)
        .with_scale(4, 2)
        .with_vectors(256)
        .with_seed(5)
        .with_method(method)
}

/// The span records of one category, sorted by start time.
fn of_cat<'r>(records: &'r [trace::SpanRecord], cat: &str) -> Vec<&'r trace::SpanRecord> {
    let mut spans: Vec<_> = records.iter().filter(|r| r.cat == cat).collect();
    spans.sort_by_key(|r| r.ts_us);
    spans
}

/// `inner` lies entirely within `outer`'s interval.
fn nested(inner: &trace::SpanRecord, outer: &trace::SpanRecord) -> bool {
    outer.ts_us <= inner.ts_us && inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us
}

#[test]
fn traced_flows_nest_spans_and_serialize_to_chrome_json() {
    trace::enable(16 * 1024);
    for method in ALL_METHODS {
        traced_job(method).run_direct(1).expect("traced flow runs");
    }
    let records = trace::drain();
    let dropped = trace::dropped();
    trace::disable();
    assert_eq!(dropped, 0, "the ring was sized for the workload");

    // One flow span per method, non-overlapping and in submission order.
    let flows = of_cat(&records, trace::cat::FLOW);
    assert_eq!(flows.len(), ALL_METHODS.len(), "one flow span per method");
    for pair in flows.windows(2) {
        assert!(
            pair[0].ts_us + pair[0].dur_us <= pair[1].ts_us,
            "sequential flows do not overlap: {} vs {}",
            pair[0].name,
            pair[1].name
        );
    }

    // Every flow contains the three phases in order, and at least one
    // iteration span inside its optimize phase.
    let phases = of_cat(&records, trace::cat::PHASE);
    let iterations = of_cat(&records, trace::cat::ITERATION);
    for flow in &flows {
        let inside: Vec<_> = phases.iter().filter(|p| nested(p, flow)).collect();
        let names: Vec<&str> = inside.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(
            names,
            ["setup", "optimize", "post-opt"],
            "{}: phases present, ordered, and non-interleaved",
            flow.name
        );
        let optimize = inside[1];
        let iters = iterations.iter().filter(|i| nested(i, optimize)).count();
        assert!(iters > 0, "{}: iteration spans inside optimize", flow.name);
    }
    // Iteration spans never leak outside an optimize phase.
    for iter in &iterations {
        assert!(
            phases
                .iter()
                .any(|p| p.name == "optimize" && nested(iter, p)),
            "{} is inside an optimize phase",
            iter.name
        );
    }

    // The serialized document is valid Chrome trace-event JSON: parse
    // it back with the same codec the tooling uses and check the
    // contract fields event by event.
    let doc = trace_to_json(&records, dropped);
    let parsed = Json::parse(&doc.to_string()).expect("document round-trips");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert_eq!(events.len(), records.len(), "every span becomes an event");
    for event in events {
        assert_eq!(event.get("ph").and_then(Json::as_str), Some("X"));
        assert!(event.get("name").and_then(Json::as_str).is_some());
        assert!(event.get("cat").and_then(Json::as_str).is_some());
        for field in ["ts", "dur", "pid", "tid"] {
            assert!(
                event.get(field).and_then(Json::as_f64).is_some(),
                "complete event carries {field}: {event}"
            );
        }
    }
    assert_eq!(
        parsed
            .get("otherData")
            .and_then(|o| o.get("dropped_spans"))
            .and_then(Json::as_f64),
        Some(0.0)
    );
}
