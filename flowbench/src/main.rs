//! `flowbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a record line (seed, host, build, per-unit outcomes and
//! digests) and, as the last line, the result object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits 2 on bad arguments and 3
//! when the workload needs more threads than the host has (not run).
//!
//! Each unit runs in a child process of this binary, started with
//! `--unit <sub-seed>` in place of `--seconds`; a child prints one JSON
//! line with what its unit measured. `--reduced` runs the workload at
//! test size.

use std::process::ExitCode;

use tdals_bench::json::Json;
use tdals_flowbench::host::Host;
use tdals_flowbench::runner;
use tdals_flowbench::workload::{Job, Seeds, WORKLOADS};

struct Args {
    job: Job,
    seed: u64,
    /// Run length, or the sub-seed of a unit process.
    mode: Mode,
    trace: bool,
}

enum Mode {
    Seconds(f64),
    Unit(u64),
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut unit = None;
    let mut reduced = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--reduced" {
            reduced = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--unit" => unit = Some(value.parse::<u64>().map_err(|e| format!("--unit: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let job = Job::named(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let job = if reduced { job.reduced() } else { job };
    let mode = match (unit, seconds) {
        (Some(sub), _) => Mode::Unit(sub),
        (None, Some(s)) => Mode::Seconds(s),
        (None, None) => return Err("--seconds is required".into()),
    };
    Ok(Args {
        job,
        seed: seed.ok_or("--seed is required")?,
        mode,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!(
                "flowbench: {e}\nusage: flowbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let host = Host::detect();
    if args.job.threads > host.nproc {
        eprintln!(
            "flowbench: workload {} not run: it needs {} threads and the host has {}",
            args.job.name, args.job.threads, host.nproc
        );
        return ExitCode::from(3);
    }
    let seeds = Seeds::from_run(args.seed);
    let seconds = match args.mode {
        Mode::Unit(sub) => {
            println!(
                "{}",
                runner::run_unit(&args.job, seeds, sub, args.trace).to_compact()
            );
            return ExitCode::SUCCESS;
        }
        Mode::Seconds(seconds) => seconds,
    };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("flowbench: cannot locate this binary to start unit processes: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = runner::run(&args.job, seeds, seconds, args.trace, &exe);
    let mut record = vec![
        ("trace".to_owned(), Json::Bool(args.trace)),
        ("seconds".to_owned(), Json::Num(seconds)),
        ("host".to_owned(), host.to_json()),
    ];
    if let Json::Obj(members) = report.record.clone() {
        record.extend(members);
    }
    println!(
        "{}",
        Json::Obj(vec![("flowbench".into(), Json::Obj(record))]).to_compact()
    );
    println!("{}", report.result_json().to_compact());
    ExitCode::SUCCESS
}
