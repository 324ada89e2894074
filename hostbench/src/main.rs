//! Command line of the host-time benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload exchange_par --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--workload all` runs the three workloads one after another, each in
//! its own process. The last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`; the exit code is
//! nonzero when any output check failed.

use anton_hostbench::workloads::Size;
use anton_hostbench::{run, Opts, Report, WORKLOADS};
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: hostbench --workload <md_anton|exchange_par|allreduce_par|all> \
[--seed N] [--seconds S] [--trace 0|1]";

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: None,
        seconds: 30.0,
        trace: false,
        size: Size::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = value()?.clone(),
            "--seed" => opts.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if opts.seconds.is_nan() || opts.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".to_owned());
    }
    Ok(opts)
}

fn print_report(workload: &str, report: &Report) {
    println!("workload: {workload}");
    for (k, v) in &report.facts {
        println!("  {k}: {v}");
    }
    for e in &report.errors {
        println!("  error: {e}");
    }
    for m in &report.metrics {
        println!("  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  ops: {} attempted, {} failed",
        report.attempted, report.failed
    );
}

/// `--workload all`: one child process per workload, so peak memory
/// and CPU time stay per workload. Metrics are keyed `workload.metric`.
fn run_all(args: &[String]) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut total = Report::default();
    for w in WORKLOADS {
        let mut child_args: Vec<String> = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--workload" {
                it.next();
            } else {
                child_args.push(a.clone());
            }
        }
        child_args.extend(["--workload".to_owned(), w.to_owned()]);
        let out = Command::new(&exe)
            .args(&child_args)
            .output()
            .map_err(|e| format!("{w}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("");
        for l in lines {
            println!("{l}");
        }
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        let child = parse_result(last).ok_or(format!("{w}: no result line"))?;
        total.attempted += child.attempted;
        total.failed += child.failed;
        if !out.status.success() {
            total.errors.push(format!("{w} exited with {}", out.status));
        }
        for m in child.metrics {
            total.metric(&format!("{w}.{}", m.name), m.value, &m.unit);
        }
    }
    Ok(total)
}

/// Read back a child's result line (the format `Report::json_line`
/// writes: flat objects, no nesting beyond `metrics`).
fn parse_result(line: &str) -> Option<Report> {
    let field = |key: &str| -> Option<&str> {
        let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
        let rest = &line[at..];
        Some(&rest[..rest.find([',', '}'])?])
    };
    let mut r = Report {
        attempted: field("attempted")?.parse().ok()?,
        failed: field("failed")?.parse().ok()?,
        ..Report::default()
    };
    let metrics = &line[line.find("\"metrics\": {")? + 12..];
    for entry in metrics.split("}, ") {
        let name = entry.split('"').nth(1)?;
        let value = entry.split("\"value\": ").nth(1)?.split(',').next()?;
        let unit = entry.split("\"unit\": \"").nth(1)?.split('"').next()?;
        r.metric(name, value.parse().ok()?, unit);
    }
    Some(r)
}

fn main() -> ExitCode {
    // The library reads ANTON_* knobs (threads, shards, lookahead,
    // observation) from the environment; the benchmark fixes them all.
    for (k, _) in std::env::vars() {
        if k.starts_with("ANTON_") {
            std::env::remove_var(k);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = if opts.workload == "all" {
        run_all(&args)
    } else {
        run(&opts).inspect(|r| print_report(&opts.workload, r))
    };
    match report {
        Ok(report) => {
            for e in &report.errors {
                eprintln!("error: {e}");
            }
            println!("{}", report.json_line());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
