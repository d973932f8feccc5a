//! Command line of the benchmark:
//!
//! ```text
//! qbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--data-seed <n>]
//! ```
//!
//! Prints the run's context and one line per metric, then, as the last line
//! of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. While it runs, one busy-poll
//! process per core keeps the host's vCPUs out of halt (see `poll.rs`).

mod poll;

use qbench::{run, Options, Report, Workload};
use std::process::ExitCode;

fn usage() -> String {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    format!(
        "usage: qbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--data-seed <n>]",
        names.join("|")
    )
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut data_seed = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad value for --trace: {value}")),
                }
            }
            "--data-seed" => data_seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds must be in (0, 600], got {seconds}"));
    }
    let mut opts = Options::experiment(
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds,
        trace,
    );
    if let Some(s) = data_seed {
        opts.data_seed = s;
    }
    Ok(opts)
}

/// The result line. `{:?}` prints an `f64` with every digit it has.
fn json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(poll::POLL_FLAG) {
        poll::poll_until_parent_exits();
    }
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let pollers = match poll::Pollers::start(cores) {
        Ok(pollers) => pollers,
        Err(e) => {
            eprintln!("cannot start the busy-poll processes: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = match run(&opts) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if report.metrics.iter().any(|m| !m.value.is_finite()) {
        eprintln!("benchmark produced a non-finite metric: {:?}", report.metrics);
        return ExitCode::FAILURE;
    }
    println!("# busy-poll processes (nice 19) running: {}", pollers.len());
    drop(pollers);
    for note in &report.notes {
        println!("# {note}");
    }
    for m in &report.metrics {
        println!("{:<48} {:>14.4} {}", m.name, m.value, m.unit);
    }
    println!("{}", json(&report));
    ExitCode::SUCCESS
}
