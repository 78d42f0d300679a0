//! Tests of the benchmark's own code: every workload passes the output
//! check at a reduced size, metric names are well formed and match
//! `BENCHMARK.json`, and the output round-trips through the JSON codec.

use std::path::Path;

use tdals_bench::json::Json;
use tdals_flowbench::runner::{self, Report, END_TO_END, MIN_DISTINCT, PER_LAYER};
use tdals_flowbench::workload::{Job, Seeds, WORKLOADS};

fn unit_exe() -> &'static Path {
    Path::new(env!("CARGO_BIN_EXE_tdals-flowbench"))
}

fn run_reduced(job: &Job, traced: bool) -> Report {
    runner::run(
        &job.reduced(),
        Seeds::from_run(7),
        0.001,
        traced,
        unit_exe(),
    )
}

fn assert_clean(job: &Job, report: &Report, flows_per_unit: usize) {
    assert_eq!(report.failed, 0, "{}: {:?}", job.name, report.record);
    let units = report
        .record
        .get("units")
        .and_then(Json::as_array)
        .map_or(0, <[Json]>::len);
    assert!(units >= 1, "{}: no unit ran", job.name);
    assert_eq!(
        report.attempted,
        (units * flows_per_unit * job.methods.len()) as u64,
        "{}: every method runs in every unit",
        job.name
    );
    for &(name, _, value) in &report.metrics {
        assert!(value.is_finite(), "{}: {name} = {value}", job.name);
    }
}

#[test]
fn every_workload_passes_the_output_check_at_reduced_size() {
    for job in &WORKLOADS {
        let report = run_reduced(job, false);
        assert_clean(job, &report, 1);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
        let expected: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names, expected, "{}", job.name);
        for &(name, _, value) in &report.metrics {
            assert!(
                value > 0.0,
                "{}: end-to-end {name} must never be 0",
                job.name
            );
        }
    }
}

#[test]
fn traced_runs_report_every_layer_without_dropped_spans() {
    for job in &WORKLOADS {
        // A traced unit process runs its sub-seed untraced, then traced.
        let report = run_reduced(job, true);
        assert_clean(job, &report, 2);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
        let expected: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names, expected, "{}", job.name);
        let value = |name: &str| {
            report
                .metrics
                .iter()
                .find(|m| m.0 == name)
                .map(|m| m.2)
                .expect("metric present")
        };
        assert_eq!(value("obs.spans_dropped"), 0.0, "{}", job.name);
        assert!(value("core.optimize_s") > 0.0, "{}", job.name);
        assert!(value("core.evaluations") > 0.0, "{}", job.name);
        if job.threads > 1 {
            assert!(
                value("par.calls") > 0.0,
                "{}: the pool must fan out",
                job.name
            );
        }
    }
}

#[test]
fn the_same_seed_gives_the_same_outcome_digests() {
    let job = Job::named("dcgwo-sin").expect("workload exists").reduced();
    let flows = |r: &Report| -> Vec<Json> {
        let units = r
            .record
            .get("units")
            .and_then(Json::as_array)
            .expect("units");
        units
            .iter()
            .filter_map(|u| u.get("flows").cloned())
            .collect()
    };
    let a = runner::run(&job, Seeds::from_run(3), 0.001, false, unit_exe());
    let b = runner::run(&job, Seeds::from_run(3), 0.001, false, unit_exe());
    assert_eq!(flows(&a), flows(&b));
}

#[test]
fn a_run_measures_a_fixed_set_of_sub_seeds_that_fits_its_length() {
    for job in &WORKLOADS {
        let untraced = runner::planned_units(job, 54.0, false);
        assert!(untraced >= MIN_DISTINCT, "{}", job.name);
        // The measured sub-seeds and the repeat fit at the reference speed.
        assert!((untraced + 1) as f64 * job.unit_s <= 54.0, "{}", job.name);
        let traced = runner::planned_units(job, 54.0, true);
        assert!(
            traced >= 1 && traced as f64 * runner::TRACED_UNIT_FACTOR * job.unit_s <= 54.0,
            "{}",
            job.name
        );
        assert_eq!(runner::planned_units(job, 0.001, false), MIN_DISTINCT);
        assert_eq!(runner::planned_units(job, 0.001, true), 1);
    }
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|m| m.0)
        .collect();
    for name in &names {
        assert!(well_formed(name), "bad metric name {name:?}");
    }
    for job in &WORKLOADS {
        assert!(well_formed(job.name), "bad workload name {:?}", job.name);
    }
    let total = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), total, "metric names repeat");
}

#[test]
fn benchmark_json_lists_exactly_these_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Json::as_array)
            .expect("array")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let ours = |table: &[(&str, &str)]| -> Vec<(String, String)> {
        table
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), ours(&END_TO_END));
    assert_eq!(listed("per_layer"), ours(&PER_LAYER));
    let workloads: Vec<String> = listed("workloads").into_iter().map(|w| w.0).collect();
    let ours: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_owned()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn output_round_trips_through_the_json_codec() {
    let job = Job::named("dcgwo-sin").expect("workload exists");
    let report = run_reduced(&job, false);
    let line = report.result_json().to_compact();
    assert!(!line.contains('\n'));
    let parsed = Json::parse(&line).expect("result line parses");
    assert_eq!(parsed, report.result_json());
    let keys: Vec<&str> = match &parsed {
        Json::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("result is an object"),
    };
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(parsed.get("correct").and_then(Json::as_bool), Some(true));
    let record = report.record.to_compact();
    assert_eq!(Json::parse(&record).expect("record parses"), report.record);
}
