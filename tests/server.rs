//! Multi-tenant scheduler acceptance suite.
//!
//! The `tdals-server` scheduler promises *isolation with determinism*:
//! a [`FlowJob`] run through the scheduler — any pool width, any
//! co-tenant mix, any cancellation pattern around it — produces a
//! digest (outcome numbers, final netlists, history, full event stream
//! minus the one wall-clock field) bit-identical to the same job run
//! directly via `Flow` on the calling thread. This suite holds it to
//! that under {mixed methods} × {with/without budgets} ×
//! {cancel-subset}, checks that slots never leak, that admission
//! follows priority-then-FIFO order, that thread over-asks are typed
//! errors, that panics stay contained, and that the `serve-batch` CLI
//! output is byte-identical across `--total-threads 1` vs `4`.

use std::process::Command;
use std::time::Duration;

use tdals::obs::clock;

use tdals::baselines::{Method, ALL_METHODS};
use tdals::circuits::Benchmark;
use tdals::core::api::{FlowEvent, FlowOutcome, Observer, StopReason};
use tdals::netlist::Netlist;
use tdals::server::{
    FlowJob, JobBudget, Manifest, ManifestError, Scheduler, SchedulerConfig, ServerError,
    SessionError, SessionStatus,
};

/// A comparable fingerprint of one event (the `tests/parallel.rs`
/// convention): `{:?}` on `f64` is shortest-round-trip, so keys match
/// iff values are bit-identical; `FlowFinished::runtime_s` — the one
/// wall-clock field — is stripped.
fn event_key(ev: &FlowEvent) -> String {
    match ev {
        FlowEvent::FlowFinished {
            ratio_cpd, error, ..
        } => format!("done {ratio_cpd:?} {error:?}"),
        other => format!("{other:?}"),
    }
}

/// Collects event keys; the solo-run counterpart of
/// `SessionHandle::poll_events`.
#[derive(Default)]
struct Keys(Vec<String>);

impl Observer for Keys {
    fn on_event(&mut self, event: &FlowEvent) {
        self.0.push(event_key(event));
    }
}

/// Everything observable about one job's run that co-tenancy must not
/// perturb.
#[derive(Debug, PartialEq)]
struct Digest {
    method: String,
    final_netlist: Netlist,
    best_fitness: f64,
    error: f64,
    area: f64,
    ratio_cpd: f64,
    evaluations: u64,
    stop: StopReason,
    history_len: usize,
    events: Vec<String>,
}

fn digest(outcome: &FlowOutcome, events: Vec<String>) -> Digest {
    Digest {
        method: outcome.method.clone(),
        final_netlist: outcome.netlist.clone(),
        best_fitness: outcome.optimize.best.fitness,
        error: outcome.error,
        area: outcome.area,
        ratio_cpd: outcome.ratio_cpd,
        evaluations: outcome.optimize.evaluations,
        stop: outcome.stop(),
        history_len: outcome.optimize.history.len(),
        events,
    }
}

/// The reference semantics: the job run directly on this thread.
fn solo_digest(job: &FlowJob) -> Digest {
    let mut keys = Keys::default();
    let outcome = job
        .run_with(1, job.budget.to_budget(), &mut keys)
        .expect("valid job");
    digest(&outcome, keys.0)
}

/// Waits for `cond` with a generous deadline so a broken scheduler
/// fails the test instead of hanging CI.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = clock::now() + Duration::from_secs(120);
    while !cond() {
        assert!(clock::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn quick_job(method: Method, seed: u64) -> FlowJob {
    FlowJob::benchmark(Benchmark::Int2float)
        .with_method(method)
        .with_bound(0.05)
        .with_scale(6, 3)
        .with_vectors(512)
        .with_seed(seed)
}

#[test]
fn concurrent_mixed_methods_match_solo_digests() {
    // K = 6 sessions (all five methods + one extra DCGWO), half with
    // deterministic budgets, sharing a 4-slot pool — up to 4 run at
    // once. Every digest must equal its solo run bit-for-bit.
    let mut jobs: Vec<FlowJob> = ALL_METHODS
        .into_iter()
        .enumerate()
        .map(|(i, method)| {
            let job = quick_job(method, 11 + i as u64);
            match i % 3 {
                0 => job,
                1 => job.with_budget(JobBudget {
                    max_evaluations: Some(10),
                    ..JobBudget::default()
                }),
                _ => job.with_budget(JobBudget {
                    max_iterations: Some(1),
                    ..JobBudget::default()
                }),
            }
        })
        .collect();
    jobs.push(
        quick_job(Method::Dcgwo, 99)
            .with_metric(tdals::sim::ErrorMetric::Nmed)
            .with_bound(0.02),
    );
    let solo: Vec<Digest> = jobs.iter().map(solo_digest).collect();

    let scheduler = Scheduler::new(SchedulerConfig::new(4)).expect("valid config");
    let handles: Vec<_> = jobs
        .iter()
        .map(|job| scheduler.submit(job.clone()).expect("admitted"))
        .collect();
    scheduler.drain();
    assert_eq!(scheduler.active_sessions(), 0);
    assert_eq!(scheduler.waiting_sessions(), 0);
    assert_eq!(
        scheduler.available_threads(),
        scheduler.total_threads(),
        "every slot returned to the pool"
    );

    for ((job, handle), solo) in jobs.iter().zip(&handles).zip(&solo) {
        assert_eq!(handle.status(), SessionStatus::Completed, "{}", job.name);
        let outcome = handle.result().expect("completed");
        let events: Vec<String> = handle.poll_events().iter().map(event_key).collect();
        assert_eq!(
            &digest(&outcome, events),
            solo,
            "{} ({}) diverged from its solo run under co-tenancy",
            job.name,
            job.method.cli_name()
        );
    }
}

/// Every optimizer run owns its scoring scratch (recycled bases and
/// simulation buffers), so no buffer outlives its run or crosses
/// sessions. Two flows of different geometry (circuit and vector
/// count) run back to back on this thread, in both orders, and two
/// concurrent sessions of them, all reproduce the digests of their
/// first runs: a scratch kept past a run would hand the second flow a
/// stale geometry, and one shared between sessions would mix their
/// words.
#[test]
fn scoring_scratch_is_isolated_across_flows_and_sessions() {
    let jobs: Vec<FlowJob> = [Method::Dcgwo, Method::Vaacs]
        .into_iter()
        .flat_map(|method| {
            [
                quick_job(method, 31),
                FlowJob::benchmark(Benchmark::Max16)
                    .with_method(method)
                    .with_metric(tdals::sim::ErrorMetric::Nmed)
                    .with_bound(0.02)
                    .with_scale(6, 3)
                    .with_vectors(1000)
                    .with_seed(32),
            ]
        })
        .collect();
    let first: Vec<Digest> = jobs.iter().map(solo_digest).collect();
    for (job, want) in jobs.iter().zip(&first).rev() {
        assert_eq!(
            &solo_digest(job),
            want,
            "{} re-run after the others",
            job.name
        );
    }

    // Four slots for two sessions at a time: each DCGWO session runs
    // at two workers, on the prebuilt member-base path.
    for (pair, want) in jobs.chunks(2).zip(first.chunks(2)) {
        let scheduler = Scheduler::new(SchedulerConfig::new(4)).expect("valid config");
        let handles: Vec<_> = pair
            .iter()
            .map(|job| scheduler.submit(job.clone()).expect("admitted"))
            .collect();
        scheduler.drain();
        for ((job, handle), want) in pair.iter().zip(&handles).zip(want) {
            assert_eq!(handle.status(), SessionStatus::Completed, "{}", job.name);
            let outcome = handle.result().expect("completed");
            let events: Vec<String> = handle.poll_events().iter().map(event_key).collect();
            assert_eq!(
                &digest(&outcome, events),
                want,
                "{} diverged in a concurrent session",
                job.name
            );
        }
    }
}

#[test]
fn cancelled_subset_never_perturbs_survivors() {
    // Three long-running victims and three normal survivors (pinned
    // seeds) contend for 2 slots; victims are cancelled mid-flight (one
    // before it can start). Survivors must match their solo digests
    // bit-for-bit, victims must stop as cancelled within an iteration,
    // and the pool must drain back to idle with no slot leaked.
    let victims: Vec<FlowJob> = (0..3)
        .map(|i| {
            FlowJob::benchmark(Benchmark::Int2float)
                .with_bound(0.05)
                .with_scale(4, 400)
                .with_vectors(256)
                .with_seed(1000 + i)
        })
        .collect();
    let survivors: Vec<FlowJob> = [Method::Dcgwo, Method::Hedals, Method::Vaacs]
        .into_iter()
        .enumerate()
        .map(|(i, m)| quick_job(m, 21 + i as u64))
        .collect();
    let solo: Vec<Digest> = survivors.iter().map(solo_digest).collect();

    let scheduler = Scheduler::new(SchedulerConfig::new(2)).expect("valid config");
    // Interleave: victim, survivor, victim, survivor, victim, survivor.
    let v0 = scheduler.submit(victims[0].clone()).expect("admitted");
    let s0 = scheduler.submit(survivors[0].clone()).expect("admitted");
    let v1 = scheduler.submit(victims[1].clone()).expect("admitted");
    let s1 = scheduler.submit(survivors[1].clone()).expect("admitted");
    let v2 = scheduler.submit(victims[2].clone()).expect("admitted");
    let s2 = scheduler.submit(survivors[2].clone()).expect("admitted");

    // v2 is cancelled immediately — most likely still queued.
    v2.cancel();
    // v0 and v1 are each cancelled as soon as it is seen running an
    // iteration. Both are watched at once: the pool admits sessions in
    // whatever order their threads reach it, and waiting on a victim
    // admitted late would let one admitted early run to completion.
    let mut running = vec![&v0, &v1];
    wait_for("victims to run an iteration", || {
        running.retain(|victim| {
            let ran = victim
                .poll_events()
                .iter()
                .any(|ev| matches!(ev, FlowEvent::IterationFinished { .. }));
            if ran {
                victim.cancel();
            }
            !ran
        });
        running.is_empty()
    });

    scheduler.drain();
    assert_eq!(scheduler.active_sessions(), 0);
    assert_eq!(scheduler.waiting_sessions(), 0);
    assert_eq!(
        scheduler.available_threads(),
        scheduler.total_threads(),
        "cancellation leaked pool slots"
    );

    for victim in [&v0, &v1, &v2] {
        let outcome = victim.result().expect("cancelled runs still report a best");
        assert_eq!(outcome.stop(), StopReason::Cancelled, "{}", victim.name());
        assert!(
            outcome.optimize.history.len() < 400,
            "victim ran to completion despite cancellation"
        );
        assert!(outcome.error <= 0.05 + 1e-12, "best is still feasible");
    }
    for ((job, handle), solo) in survivors.iter().zip([&s0, &s1, &s2]).zip(&solo) {
        let outcome = handle.result().expect("completed");
        let events: Vec<String> = handle.poll_events().iter().map(event_key).collect();
        assert_eq!(
            &digest(&outcome, events),
            solo,
            "survivor {} ({}) perturbed by cancelled co-tenants",
            job.name,
            job.method.cli_name()
        );
    }
}

#[test]
fn cancelled_queued_session_does_not_wait_for_a_slot() {
    // A cancelled session that never got a lease must not sit blocked
    // behind a long-running co-tenant: it abandons the line promptly
    // and winds down, reporting Cancelled while the blocker still runs.
    let scheduler = Scheduler::new(SchedulerConfig::new(1)).expect("valid config");
    let blocker = scheduler
        .submit(
            FlowJob::benchmark(Benchmark::Int2float)
                .with_bound(0.05)
                .with_scale(4, 500)
                .with_vectors(256)
                .with_seed(1),
        )
        .expect("admitted");
    wait_for("blocker to hold the only slot", || {
        matches!(blocker.status(), SessionStatus::Running { .. })
    });
    let queued = scheduler
        .submit(quick_job(Method::Dcgwo, 8))
        .expect("admitted");
    wait_for("queued session to enter the line", || {
        scheduler.waiting_sessions() == 1
    });
    queued.cancel();
    let outcome = queued.result().expect("cancelled runs still report a best");
    assert_eq!(outcome.stop(), StopReason::Cancelled);
    assert!(
        outcome.optimize.history.is_empty(),
        "never ran an iteration"
    );
    assert_eq!(
        queued.admission_index(),
        None,
        "a cancelled-while-queued session was never admitted"
    );
    assert!(
        matches!(blocker.status(), SessionStatus::Running { .. }),
        "the queued cancellation waited for the blocker to finish"
    );
    blocker.cancel();
    scheduler.drain();
    assert_eq!(scheduler.available_threads(), 1, "no slot leaked");
}

#[test]
fn deadline_sessions_stop_and_cotenants_hold_their_digests() {
    let slow = FlowJob::benchmark(Benchmark::Int2float)
        .with_bound(0.05)
        .with_scale(4, 400)
        .with_vectors(256)
        .with_seed(5)
        .with_budget(JobBudget {
            deadline: Some(Duration::from_millis(60)),
            ..JobBudget::default()
        });
    let steady = quick_job(Method::Dcgwo, 33);
    let solo = solo_digest(&steady);

    let scheduler = Scheduler::new(SchedulerConfig::new(2)).expect("valid config");
    let slow_handle = scheduler.submit(slow).expect("admitted");
    let steady_handle = scheduler.submit(steady.clone()).expect("admitted");
    scheduler.drain();

    let outcome = slow_handle.result().expect("deadline still reports a best");
    assert_eq!(outcome.stop(), StopReason::DeadlineExpired);
    assert!(outcome.optimize.history.len() < 400);

    let outcome = steady_handle.result().expect("completed");
    let events: Vec<String> = steady_handle.poll_events().iter().map(event_key).collect();
    assert_eq!(
        digest(&outcome, events),
        solo,
        "a co-tenant's deadline leaked into a healthy session"
    );
    assert_eq!(scheduler.available_threads(), 2);
}

#[test]
fn admission_follows_priority_then_fifo() {
    let scheduler = Scheduler::new(SchedulerConfig::new(1)).expect("valid config");
    let blocker = scheduler
        .submit(
            FlowJob::benchmark(Benchmark::Int2float)
                .with_bound(0.05)
                .with_scale(4, 500)
                .with_vectors(256)
                .with_seed(1),
        )
        .expect("admitted");
    wait_for("blocker to hold the only slot", || {
        matches!(blocker.status(), SessionStatus::Running { .. })
    });

    let low = scheduler
        .submit(quick_job(Method::Dcgwo, 2).with_priority(0))
        .expect("admitted");
    wait_for("low-priority to enter the line", || {
        scheduler.waiting_sessions() == 1
    });
    let high = scheduler
        .submit(quick_job(Method::Dcgwo, 3).with_priority(9))
        .expect("admitted");
    wait_for("high-priority to enter the line", || {
        scheduler.waiting_sessions() == 2
    });

    blocker.cancel();
    scheduler.drain();

    assert_eq!(blocker.admission_index(), Some(0));
    assert_eq!(
        high.admission_index(),
        Some(1),
        "higher priority jumped the FIFO line"
    );
    assert_eq!(low.admission_index(), Some(2));
    assert_eq!(
        blocker.result().expect("best").stop(),
        StopReason::Cancelled
    );
    assert_eq!(high.status(), SessionStatus::Completed);
    assert_eq!(low.status(), SessionStatus::Completed);
}

#[test]
fn thread_over_asks_are_typed_errors() {
    assert_eq!(
        Scheduler::new(SchedulerConfig::new(0)).err(),
        Some(ServerError::NoWorkers)
    );
    assert_eq!(
        Scheduler::new(SchedulerConfig::new(4).with_session_cap(0)).err(),
        Some(ServerError::ZeroSessionCap)
    );

    let scheduler =
        Scheduler::new(SchedulerConfig::new(4).with_session_cap(2)).expect("valid config");
    assert_eq!(scheduler.lease_cap(), 2);

    let zero = quick_job(Method::Dcgwo, 1).with_threads(0);
    assert!(matches!(
        scheduler.submit(zero).unwrap_err(),
        ServerError::ZeroThreads { .. }
    ));
    let over = quick_job(Method::Dcgwo, 1).with_threads(3);
    assert_eq!(
        scheduler.submit(over).unwrap_err(),
        ServerError::ThreadsExceedLease {
            job: "Int2float".into(),
            requested: 3,
            lease_cap: 2,
        }
    );
    // Overflow-shaped requests take the same typed path.
    let huge = quick_job(Method::Dcgwo, 1).with_threads(usize::MAX);
    assert!(matches!(
        scheduler.submit(huge).unwrap_err(),
        ServerError::ThreadsExceedLease {
            requested: usize::MAX,
            ..
        }
    ));
    // A cap wider than the pool clamps to the pool instead of lying.
    let wide = Scheduler::new(SchedulerConfig::new(2).with_session_cap(100)).expect("valid");
    assert_eq!(wide.lease_cap(), 2);

    // An in-cap request is admitted and still matches its solo run.
    let job = quick_job(Method::Dcgwo, 41).with_threads(2);
    let solo = solo_digest(&job);
    let handle = scheduler.submit(job).expect("admitted");
    let outcome = handle.result().expect("completed");
    let events: Vec<String> = handle.poll_events().iter().map(event_key).collect();
    scheduler.drain();
    assert_eq!(digest(&outcome, events), solo);
}

#[test]
fn failures_and_panics_stay_contained() {
    let scheduler = Scheduler::new(SchedulerConfig::new(2)).expect("valid config");
    let steady = quick_job(Method::Hedals, 51);
    let solo = solo_digest(&steady);

    // A job whose Verilog does not parse fails with the typed error...
    let broken = scheduler
        .submit(
            FlowJob::verilog("broken", "module oops(")
                .with_bound(0.05)
                .with_vectors(256),
        )
        .expect("admission does not parse Verilog");
    // ...and a panicking tenant observer is contained on its thread.
    struct Bomb;
    impl Observer for Bomb {
        fn on_event(&mut self, event: &FlowEvent) {
            if matches!(event, FlowEvent::IterationStarted { .. }) {
                panic!("tenant observer exploded");
            }
        }
    }
    let bomb = scheduler
        .submit_observed(quick_job(Method::Dcgwo, 52), Bomb)
        .expect("admitted");
    let steady_handle = scheduler.submit(steady.clone()).expect("admitted");
    scheduler.drain();

    match broken.result() {
        Err(SessionError::Flow(e)) => {
            assert!(e.to_string().contains("Verilog"), "{e}");
        }
        other => panic!("expected a typed flow error, got {other:?}"),
    }
    assert_eq!(broken.status(), SessionStatus::Failed);

    match bomb.result() {
        Err(SessionError::Panicked(message)) => {
            assert!(message.contains("exploded"), "{message}");
        }
        other => panic!("expected a contained panic, got {other:?}"),
    }
    assert_eq!(bomb.status(), SessionStatus::Panicked);

    let outcome = steady_handle.result().expect("completed");
    let events: Vec<String> = steady_handle.poll_events().iter().map(event_key).collect();
    assert_eq!(
        digest(&outcome, events),
        solo,
        "a co-tenant's failure/panic perturbed a healthy session"
    );
    assert_eq!(
        scheduler.available_threads(),
        scheduler.total_threads(),
        "failure or panic leaked pool slots"
    );
}

#[test]
fn manifest_and_jobs_round_trip_through_json() {
    let jobs = vec![
        quick_job(Method::Hedals, 7)
            .with_priority(3)
            .with_budget(JobBudget {
                max_iterations: Some(5),
                max_evaluations: Some(500),
                deadline: Some(Duration::from_millis(1500)),
            }),
        FlowJob::verilog(
            "inline",
            "module m(a, y); input a; output y; assign y = a; endmodule",
        )
        .with_bound(0.01)
        .with_threads(2)
        .with_area_con(77.5),
    ];
    let manifest = Manifest::new(jobs).with_total_threads(4);
    let text = manifest.to_json().to_string();
    let again = Manifest::parse(&text, &|path| Err(format!("no files in this test: {path}")))
        .expect("round-trip parses");
    assert_eq!(again, manifest);

    // Seeds are the determinism anchor: values past f64's exact-integer
    // range must survive the round-trip bit-for-bit (they travel as
    // JSON strings).
    let big_seed = Manifest::new(vec![quick_job(Method::Dcgwo, u64::MAX)]);
    let text = big_seed.to_json().to_string();
    let again = Manifest::parse(&text, &|_| Err("no".into())).expect("round-trip parses");
    assert_eq!(again.jobs[0].seed, u64::MAX);
    assert_eq!(again, big_seed);

    // Typed manifest rejections.
    let err = Manifest::parse("{", &|_| Err("no".into())).unwrap_err();
    assert!(err.to_string().contains("not valid JSON"), "{err}");
    let err = Manifest::parse(r#"{"jobs": []}"#, &|_| Err("no".into())).unwrap_err();
    assert!(err.to_string().contains("empty"), "{err}");
    let bad_method = r#"{"jobs": [{"circuit": "bench:Max16", "metric": "er",
                         "bound": 0.05, "method": "annealer"}]}"#;
    let err = Manifest::parse(bad_method, &|_| Err("no".into())).unwrap_err();
    assert!(
        err.to_string().contains("unknown method `annealer`"),
        "{err}"
    );
    let bad_bench = r#"{"jobs": [{"circuit": "bench:NoSuch", "metric": "er",
                        "bound": 0.05, "method": "dcgwo"}]}"#;
    let err = Manifest::parse(bad_bench, &|_| Err("no".into())).unwrap_err();
    assert!(
        err.to_string().contains("unknown benchmark `NoSuch`"),
        "{err}"
    );

    // Strict fields: a typo'd budget knob must not silently run an
    // unbudgeted job, and a zero pool budget must not silently become 1.
    let typo = r#"{"jobs": [{"circuit": "bench:Max16", "metric": "er",
                   "bound": 0.05, "method": "dcgwo", "deadline": 60000}]}"#;
    let err = Manifest::parse(typo, &|_| Err("no".into())).unwrap_err();
    assert!(
        err.to_string().contains("unknown field `deadline`"),
        "{err}"
    );
    let top = r#"{"total_thread": 4, "jobs": [{"circuit": "bench:Max16",
                  "metric": "er", "bound": 0.05, "method": "dcgwo"}]}"#;
    let err = Manifest::parse(top, &|_| Err("no".into())).unwrap_err();
    assert!(
        err.to_string()
            .contains("unknown top-level field `total_thread`"),
        "{err}"
    );
    let zero = r#"{"total_threads": 0, "jobs": [{"circuit": "bench:Max16",
                   "metric": "er", "bound": 0.05, "method": "dcgwo"}]}"#;
    let err = Manifest::parse(zero, &|_| Err("no".into())).unwrap_err();
    assert!(err.to_string().contains("at least 1 worker"), "{err}");
}

#[test]
fn manifest_rejects_empty_and_duplicate_names_with_typed_errors() {
    // Result records are keyed by job name downstream (shard merges,
    // post-mortems), so a manifest where two jobs share a name is
    // rejected at parse time — naming both offending positions — and an
    // empty manifest is a typed error rather than a zero-job run.
    let err = Manifest::parse(r#"{"jobs": []}"#, &|_| Err("no".into())).unwrap_err();
    assert!(matches!(err, ManifestError::Empty), "{err:?}");

    let dup = r#"{"jobs": [
        {"circuit": "bench:Int2float", "metric": "er", "bound": 0.05, "method": "dcgwo"},
        {"circuit": "bench:Max16", "name": "other", "metric": "er", "bound": 0.05,
         "method": "dcgwo"},
        {"circuit": "bench:Int2float", "metric": "er", "bound": 0.05, "method": "hedals"}
    ]}"#;
    let err = Manifest::parse(dup, &|_| Err("no".into())).unwrap_err();
    // Both defaulted to the circuit name `Int2float`: positions 0 and 2.
    match &err {
        ManifestError::DuplicateName {
            name,
            first,
            second,
        } => {
            assert_eq!(name, "Int2float");
            assert_eq!((*first, *second), (0, 2));
        }
        other => panic!("expected DuplicateName, got {other:?}"),
    }
    let msg = err.to_string();
    assert!(msg.contains("jobs 0 and 2"), "{msg}");
    assert!(msg.contains("unique `name`"), "{msg}");

    // Explicit unique names fix it — `with_name` is the programmatic
    // spelling of the same knob.
    let named = r#"{"jobs": [
        {"circuit": "bench:Int2float", "name": "a", "metric": "er", "bound": 0.05,
         "method": "dcgwo"},
        {"circuit": "bench:Int2float", "name": "b", "metric": "er", "bound": 0.05,
         "method": "hedals"}
    ]}"#;
    let manifest = Manifest::parse(named, &|_| Err("no".into())).expect("unique names parse");
    assert_eq!(manifest.jobs[0].name, "a");
    assert_eq!(manifest.jobs[1].name, "b");
    let renamed = manifest.jobs[0].clone().with_name("c");
    assert_eq!(renamed.name, "c");

    // subset() keeps the selected jobs in the given order and carries
    // the batch-wide defaults — it is the shard sub-manifest primitive.
    let sub = manifest.subset(&[1]);
    assert_eq!(sub.jobs.len(), 1);
    assert_eq!(sub.jobs[0].name, "b");
    assert_eq!(sub.total_threads, manifest.total_threads);
}

fn tdals() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tdals"))
}

#[test]
fn serve_batch_cli_output_is_byte_identical_across_pool_widths() {
    // The acceptance criterion's CLI face: the same manifest at
    // --total-threads 1 vs 4 produces byte-identical results files.
    let dir = std::env::temp_dir().join(format!("tdals-serve-batch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let manifest_path = dir.join("jobs.json");
    let manifest = r#"{
  "jobs": [
    {"circuit": "bench:Int2float", "name": "i2f-dcgwo", "metric": "er", "bound": 0.05,
     "method": "dcgwo", "population": 6, "iterations": 3, "vectors": 512, "seed": 11},
    {"circuit": "bench:Int2float", "name": "i2f-hedals", "metric": "er", "bound": 0.05,
     "method": "hedals", "iterations": 1, "vectors": 512, "seed": 7, "priority": 5,
     "threads": 2},
    {"circuit": "bench:Max16", "metric": "nmed", "bound": 0.0244,
     "method": "vaacs", "population": 6, "iterations": 2, "vectors": 512, "seed": 5,
     "max_evaluations": 60},
    {"circuit": "bench:Int2float", "name": "i2f-greedy", "metric": "er", "bound": 0.05,
     "method": "greedy", "iterations": 1, "vectors": 512, "seed": 3,
     "max_iterations": 4}
  ]
}"#;
    std::fs::write(&manifest_path, manifest).expect("write manifest");

    let run = |threads: &str, file: &str| -> String {
        let out_path = dir.join(file);
        let out = tdals()
            .args([
                "serve-batch",
                "--manifest",
                manifest_path.to_str().expect("utf8 path"),
                "--total-threads",
                threads,
                "--out",
                out_path.to_str().expect("utf8 path"),
            ])
            .output()
            .expect("run tdals serve-batch");
        assert!(
            out.status.success(),
            "threads {threads}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(&out_path).expect("results written")
    };
    // The second job's `threads: 2` hint also proves admission is
    // width-invariant: at --total-threads 1 the hint clamps to the pool
    // instead of rejecting the batch.
    let narrow = run("1", "results_t1.json");
    let wide = run("4", "results_t4.json");
    assert_eq!(narrow, wide, "results diverged across pool widths");
    assert!(narrow.contains("\"status\": \"completed\""));
    assert!(narrow.contains("\"schema\": 1"));
    std::fs::remove_dir_all(&dir).ok();
}
