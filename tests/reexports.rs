//! Pins the umbrella crate's re-export surface: every module advertised
//! in the `tdals` crate docs (`netlist`, `sim`, `sta`, `circuits`,
//! `core`, `baselines`, `server`) must resolve and expose its
//! documented types.
//! Everything here goes through `tdals::…` paths only — no direct
//! `tdals_*` crate imports — so a broken re-export is a compile error.

use tdals::baselines::{Genetic, Greedy, Hedals, Method, MethodConfig, ALL_METHODS};
use tdals::circuits::{Benchmark, CircuitClass, ALL_BENCHMARKS};
use tdals::cluster::{
    merge, plan, ClusterError, ShardPlan, ShardPolicy, SupervisorOptions, SHARD_MAP_SCHEMA,
};
use tdals::core::api::{
    Budget, CancelFlag, Dcgwo, Flow, FlowError, FlowEvent, FlowOutcome, NopObserver, Observer,
    OptimizeOutcome, Optimizer, StopReason,
};
use tdals::core::{ChaseStrategy, EvalContext, OptimizerConfig, PostOptConfig};
use tdals::netlist::builder::Builder;
use tdals::netlist::cell::{Cell, CellFunc, Drive};
use tdals::netlist::{verilog, GateId, Netlist, SignalRef};
use tdals::server::{
    error_frame, event_from_json, event_to_json, BatchOptions, BatchRun, Connection, Daemon,
    DaemonConfig, ErrorCode, FlowJob, FrameError, JobBudget, Manifest, Request, Scheduler,
    SchedulerConfig, ServerError, SessionStatus, DEFAULT_MAX_FRAME_LEN, PROTOCOL_SCHEMA,
};
use tdals::sim::{simulate, simulate_reference, ErrorMetric, Patterns, SimdWidth};
use tdals::sta::{analyze, SizingConfig, TimingConfig};

#[test]
fn netlist_surface_resolves() {
    let mut b = Builder::new("reexport");
    let a = b.input("a");
    let x = b.input("x");
    let g = b.and(a, x);
    b.output("y", g);
    let n: Netlist = b.finish();
    assert_eq!(n.input_count(), 2);
    assert_eq!(n.output_count(), 1);

    // Low-level types are reachable through the umbrella too.
    let cell = Cell::new(CellFunc::And2, Drive::X1);
    assert!(cell.area() > 0.0);
    let _id: GateId = GateId::new(0);
    let _const0: SignalRef = SignalRef::Const0;

    // Verilog I/O round-trips through the re-exported module.
    let text = verilog::to_verilog(&n);
    let again = verilog::parse(&text).expect("umbrella verilog parses");
    assert_eq!(again.input_count(), n.input_count());
}

#[test]
fn sim_surface_resolves() {
    let n = Benchmark::Int2float.build();
    let p = Patterns::random(n.input_count(), 256, 3);
    let r = simulate(&n, &p);
    assert_eq!(tdals::sim::error_rate(&r, &r), 0.0);
    assert_eq!(tdals::sim::nmed(&r, &r), 0.0);
    assert_eq!(ErrorMetric::Nmed.compute(&r, &r), 0.0);

    // The block width description and the scalar reference engine.
    assert_eq!(SimdWidth::auto().lanes(), 8);
    let reference = simulate_reference(&n, &p);
    assert_eq!(tdals::sim::error_rate(&r, &reference), 0.0);
}

#[test]
fn sta_surface_resolves() {
    let n = Benchmark::Adder16.build();
    let report = analyze(&n, &TimingConfig::default());
    assert!(report.critical_path_delay() > 0.0);
    let _sizing = SizingConfig::default();
}

#[test]
fn circuits_surface_resolves() {
    assert_eq!(ALL_BENCHMARKS.len(), 15, "TABLE I has 15 circuits");
    assert_eq!(Benchmark::C880.class(), CircuitClass::RandomControl);
    assert_eq!(Benchmark::Max16.class(), CircuitClass::Arithmetic);
}

#[test]
fn core_surface_resolves() {
    let opt = OptimizerConfig::default();
    assert_eq!(opt.chase, ChaseStrategy::DoubleChase);
    let n = Benchmark::Int2float.build();
    let _post = PostOptConfig::new(n.area_live());
    let ctx = EvalContext::new(
        &n,
        Patterns::random(n.input_count(), 256, 4),
        ErrorMetric::Nmed,
        TimingConfig::default(),
        0.8,
    );
    assert!(ctx.cpd_ori() > 0.0);
}

#[test]
fn baselines_surface_resolves() {
    assert!(ALL_METHODS.contains(&Method::Dcgwo));
    let cfg = MethodConfig::default()
        .with_population(4)
        .with_iterations(2)
        .with_level_we(0.2)
        .with_seed(1);
    assert_eq!(cfg.population, 4);

    // The baseline Optimizer adapters are reachable through the
    // umbrella and usable as trait objects.
    let adapters: Vec<Box<dyn Optimizer>> = vec![
        Box::new(Greedy::default()),
        Box::new(Genetic::default()),
        Box::new(Hedals::default()),
        Method::Vaacs.optimizer(&cfg),
    ];
    assert_eq!(adapters.len(), 4);
}

#[test]
fn par_surface_resolves() {
    // The deterministic worker pool is reachable through the umbrella
    // and honors its order/identity contract.
    assert!(tdals::core::par::available_threads() >= 1);
    assert_eq!(tdals::core::par::resolve_threads(0), {
        tdals::core::par::available_threads()
    });
    let doubled = tdals::core::par::par_map(4, vec![1, 2, 3], |x: i32| x * 2);
    assert_eq!(doubled, vec![2, 4, 6]);
    let batched = tdals::core::par::par_map_batched(2, vec![1, 2, 3], |x: i32| x + 1, || true);
    assert!(batched.completed);
    assert_eq!(batched.results, vec![2, 3, 4]);
    // The thread knobs thread through every configuration layer.
    assert_eq!(OptimizerConfig::default().with_threads(4).threads, 4);
    assert_eq!(MethodConfig::default().with_threads(4).threads, 4);
}

#[test]
fn api_surface_resolves() {
    // Session API types reachable through the umbrella.
    let budget: Budget = Budget::unlimited()
        .with_max_iterations(3)
        .with_max_evaluations(1000);
    let flag: CancelFlag = budget.cancel_flag();
    assert!(!flag.is_cancelled());
    assert_eq!(budget.max_iterations(), Some(3));

    let mut obs: NopObserver = NopObserver;
    obs.on_event(&FlowEvent::PostOptStarted { area_con: 1.0 });
    let _stop: StopReason = StopReason::Completed;
    let _err: FlowError = FlowError::MissingErrorBound;

    let mut dcgwo: Dcgwo = Dcgwo::paper_for(ErrorMetric::Nmed).quick(4, 2);
    assert_eq!(Optimizer::name(&dcgwo), "DCGWO");
    assert_eq!(Dcgwo::single_chase().name(), "GWO");

    let accurate = Benchmark::Int2float.build();
    let ctx = EvalContext::new(
        &accurate,
        Patterns::random(accurate.input_count(), 256, 4),
        ErrorMetric::Nmed,
        TimingConfig::default(),
        0.8,
    );
    let outcome: OptimizeOutcome = dcgwo.optimize(&ctx, 0.02, &budget, &mut obs);
    assert!(outcome.best.error <= 0.02 + 1e-12);

    let session: FlowOutcome = Flow::for_context(&ctx)
        .error_bound(0.02)
        .optimizer(dcgwo)
        .run()
        .expect("valid session");
    assert!(session.ratio_cpd <= 1.0 + 1e-9);
}

#[test]
fn server_surface_resolves() {
    // The slot-leasing primitive behind the scheduler.
    let pool = tdals::core::par::SlotPool::new(2);
    assert_eq!(pool.total(), 2);
    let lease = pool.lease(1, 2, 0).expect("grantable");
    assert_eq!(lease.width(), 2);
    drop(lease);
    assert_eq!(pool.available(), 2);

    // The scheduler itself, end to end through the umbrella.
    assert_eq!(
        Scheduler::new(SchedulerConfig::new(0)).err(),
        Some(ServerError::NoWorkers)
    );
    let scheduler = Scheduler::new(SchedulerConfig::new(2)).expect("valid config");
    let job = FlowJob::benchmark(Benchmark::Int2float)
        .with_bound(0.05)
        .with_scale(4, 2)
        .with_vectors(256)
        .with_budget(JobBudget {
            max_iterations: Some(2),
            ..JobBudget::default()
        });
    let text = Manifest::new(vec![job.clone()]).to_json().to_string();
    let parsed = Manifest::parse(&text, &|p| Err(format!("no files: {p}"))).expect("round-trips");
    assert_eq!(parsed.jobs, vec![job.clone()]);
    let handle = scheduler.submit(job).expect("admitted");
    let outcome = handle.result().expect("completed");
    scheduler.drain();
    assert_eq!(handle.status(), SessionStatus::Completed);
    assert!(outcome.error <= 0.05 + 1e-12);
    assert_eq!(Method::parse("hedals"), Some(Method::Hedals));
    assert_eq!(Method::Dcgwo.cli_name(), "dcgwo");
}

#[test]
fn protocol_surface_resolves() {
    // The daemon's wire layer, end to end through the umbrella: frame a
    // request, parse it back, run it against a transport-free daemon,
    // and round-trip a flow event.
    assert_eq!(PROTOCOL_SCHEMA, 1);
    let _default_limit: usize = DEFAULT_MAX_FRAME_LEN;
    assert_eq!(ErrorCode::parse("queue-full"), Some(ErrorCode::QueueFull));
    let _err: FrameError = FrameError::Truncated { bytes: 3 };
    let boom = error_frame(ErrorCode::BadRequest, "nope");
    assert_eq!(
        tdals::server::as_error(&boom),
        Some(("bad-request", "nope"))
    );

    let request = Request::Health;
    assert_eq!(
        Request::from_json(&request.to_json()).expect("round-trips"),
        request
    );

    let daemon = Daemon::new(DaemonConfig::new(1)).expect("valid config");
    let reply = daemon.handle(&request.to_json());
    assert_eq!(reply.get("ok").and_then(|v| v.as_str()), Some("health"));

    let event = FlowEvent::PostOptStarted { area_con: 2.5 };
    assert_eq!(event_from_json(&event_to_json(&event)).as_ref(), Ok(&event));

    // Connection is generic over any duplex byte stream.
    let _conn: Connection<std::io::Cursor<Vec<u8>>> =
        Connection::new(std::io::Cursor::new(Vec::new()));
}

#[test]
fn cluster_surface_resolves() {
    // The shard coordinator, end to end through the umbrella: plan a
    // manifest, round-trip the shard map, run both shards in-process
    // through the batch engine, and merge byte-identically.
    assert_eq!(SHARD_MAP_SCHEMA, 1);
    assert_eq!(
        ShardPolicy::parse("round-robin"),
        Some(ShardPolicy::RoundRobin)
    );
    assert_eq!(ShardPolicy::SizeWeighted.cli_name(), "size-weighted");
    let _opts = SupervisorOptions::new()
        .with_retries(1)
        .with_total_threads(2);
    let _err: ClusterError = ClusterError::Merge { what: "x".into() };

    let jobs: Vec<FlowJob> = [3u64, 5, 7]
        .iter()
        .map(|&seed| {
            FlowJob::benchmark(Benchmark::Int2float)
                .with_bound(0.05)
                .with_scale(4, 1)
                .with_vectors(256)
                .with_seed(seed)
                .with_name(format!("job-{seed}"))
        })
        .collect();
    let manifest = Manifest::new(jobs);
    let shard_plan = plan(&manifest, 2, ShardPolicy::RoundRobin).expect("plannable");
    let round_trip = ShardPlan::from_json(&shard_plan.to_json()).expect("map round-trips");
    assert_eq!(round_trip, shard_plan);

    let opts = BatchOptions::new().with_total_threads(1);
    let docs: Vec<String> = (0..shard_plan.shard_count())
        .map(|s| {
            let run = BatchRun::prepare(&shard_plan.manifest_for(&manifest, s), &opts)
                .expect("shard prepares");
            format!(
                "{}\n",
                run.run(&mut |_, _, _| {}).expect("shard runs").document()
            )
        })
        .collect();
    let merged = merge(&shard_plan, &docs).expect("merges");

    let solo = BatchRun::prepare(&manifest, &opts).expect("solo prepares");
    let solo_doc = format!(
        "{}\n",
        solo.run(&mut |_, _, _| {}).expect("solo runs").document()
    );
    assert_eq!(merged, solo_doc);
}

#[test]
fn quickstart_types_compose_across_reexports() {
    // The crate-docs quickstart in miniature: umbrella paths from every
    // module cooperating in one session invocation.
    let accurate = Benchmark::Int2float.build();
    let result = Flow::for_netlist(&accurate)
        .metric(ErrorMetric::Nmed)
        .error_bound(0.02)
        .vectors(256)
        .optimizer(Dcgwo::paper_for(ErrorMetric::Nmed).quick(4, 2))
        .run()
        .expect("valid session");
    assert!(result.error <= 0.02 + 1e-12);
    assert!(result.ratio_cpd <= 1.0 + 1e-9);
    result.netlist.check_invariants().expect("valid result");
}
