//! # anton-hostbench — host-time benchmark of the simulator
//!
//! Times the simulator itself, end to end and layer by layer, on three
//! workloads (`md_anton`, `exchange_par`, `allreduce_par`). An untraced
//! run reports the end-to-end metrics with observation off; a traced run
//! opens spans around the benchmark's calls into each crate's public
//! functions and reports the per-layer metrics. Every operation's
//! simulated output is checked; a failed check is counted, never fatal.
//! See `README.md` for the metric table.

pub mod host;
pub mod suite;
pub mod trace;
pub mod workloads;

use host::{cpu_seconds, median, peak_rss_mb, HostSnapshot};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use workloads::{AllReduce, Exchange, MdAnton, Size, Workload};

/// The workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 3] = ["md_anton", "exchange_par", "allreduce_par"];

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, e.g. `ms`, `s`, `count`.
    pub unit: String,
}

/// What one run prints.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Operations attempted (timed ops plus, when traced, probe ops).
    pub attempted: u64,
    /// Operations whose output check failed, panicked or stalled.
    pub failed: u64,
    /// Failures outside any op (set-up and end-of-run checks).
    pub errors: Vec<String>,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
    /// Diagnostic `key: value` facts (host noise, fingerprints).
    pub facts: Vec<(String, String)>,
}

impl Report {
    /// No failed op and no failed run-level check.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    /// Add a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit: unit.to_owned(),
        });
    }

    /// Count one checked operation's result.
    pub fn count(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("op failed: {e}");
            }
        }
    }

    /// The contract's result line: one JSON object.
    pub fn json_line(&self) -> String {
        let mut m = String::new();
        for (i, metric) in self.metrics.iter().enumerate() {
            if i > 0 {
                m.push_str(", ");
            }
            let _ = write!(
                m,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                metric.name,
                json_number(metric.value),
                metric.unit
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        )
    }
}

/// A finite JSON number (non-finite values become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Run one op, turning a panic into a failure.
pub fn guarded(f: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(p) => Err(p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| (*s).to_owned()))
            .map_or("panic".to_owned(), |s| format!("panic: {s}"))),
    }
}

/// Ops in the timed phase: the nominal rate times the run length, at
/// least three. Fixed for a given workload, size and `--seconds`.
pub fn ops_for(w: &dyn Workload, seconds: f64) -> usize {
    ((w.nominal_ops_per_s() * seconds).round() as usize).max(3)
}

/// The timed phase's measurements.
#[derive(Debug, Clone, Default)]
pub struct Timed {
    /// Host ms of every op run.
    pub op_ms: Vec<f64>,
    /// Host seconds for the planned op count.
    pub wall_s: f64,
    /// Process CPU seconds over the phase.
    pub cpu_s: f64,
    /// Whether the phase stopped early at its time cap.
    pub capped: bool,
}

/// Run `n` untraced ops, each checked, counting results into `report`.
/// Stops early past `cap_s` seconds; `wall_s` and `cpu_s` are then
/// scaled to `n` ops.
pub fn timed_phase(w: &mut dyn Workload, n: usize, cap_s: f64, report: &mut Report) -> Timed {
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let mut op_ms = Vec::with_capacity(n);
    for _ in 0..n {
        if t0.elapsed().as_secs_f64() > cap_s {
            break;
        }
        let t = Instant::now();
        let r = guarded(|| w.op());
        op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        report.count(r);
    }
    let scale = n as f64 / op_ms.len().max(1) as f64;
    Timed {
        wall_s: t0.elapsed().as_secs_f64() * scale,
        cpu_s: (cpu_seconds() - cpu0) * scale,
        capped: op_ms.len() < n,
        op_ms,
    }
}

/// Set the workload up [`SETUP_REPS`] times (dropping each before the
/// next), returning the last one and every set-up's seconds. Set-ups of
/// the same inputs must agree on their signature.
fn setup_reps<W: Workload>(
    reps: usize,
    mut make: impl FnMut() -> Result<W, String>,
    report: &mut Report,
) -> Option<(W, Vec<f64>)> {
    let mut secs = Vec::with_capacity(reps);
    let mut kept: Option<W> = None;
    let mut signature: Option<String> = None;
    for _ in 0..reps {
        drop(kept.take());
        let t = Instant::now();
        let built = catch_unwind(AssertUnwindSafe(&mut make));
        secs.push(t.elapsed().as_secs_f64());
        match built {
            Ok(Ok(w)) => {
                let sig = w.setup_signature();
                if let Some(first) = &signature {
                    if *first != sig {
                        report
                            .errors
                            .push(format!("set-up not deterministic: {first} vs {sig}"));
                    }
                }
                signature = Some(sig);
                kept = Some(w);
            }
            Ok(Err(e)) => {
                report.errors.push(format!("set-up failed: {e}"));
                return None;
            }
            Err(_) => {
                report.errors.push("set-up panicked".to_owned());
                return None;
            }
        }
    }
    kept.map(|w| (w, secs))
}

/// Options of one benchmark run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed; `None` takes the workload's default.
    pub seed: Option<u64>,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
    /// Problem size.
    pub size: Size,
}

/// The seed a workload runs with.
pub fn effective_seed(opts: &Opts) -> u64 {
    opts.seed.unwrap_or(match opts.workload.as_str() {
        "md_anton" => workloads::MD_DEFAULT_SEED,
        _ => workloads::ALLREDUCE_DEFAULT_SEED,
    })
}

/// Run one workload. `Err` for an unknown workload name.
pub fn run(opts: &Opts) -> Result<Report, String> {
    let seed = effective_seed(opts);
    let size = opts.size;
    let mut report = Report::default();
    let start = HostSnapshot::take();
    match opts.workload.as_str() {
        "md_anton" => run_with(opts, || MdAnton::setup(size, seed), &mut report),
        "exchange_par" => run_with(opts, || Exchange::setup(size), &mut report),
        "allreduce_par" => run_with(opts, || AllReduce::setup(size, seed), &mut report),
        other => return Err(format!("unknown workload `{other}`")),
    }
    let end = HostSnapshot::take();
    report
        .facts
        .insert(0, ("host".to_owned(), start.diagnostics_json(&end)));
    report
        .facts
        .insert(0, ("seed".to_owned(), seed.to_string()));
    Ok(report)
}

fn run_with<W: Workload>(
    opts: &Opts,
    make: impl FnMut() -> Result<W, String>,
    report: &mut Report,
) {
    if opts.trace {
        trace::enable();
    }
    let reps = if opts.trace { 1 } else { SETUP_REPS };
    let Some((mut w, setup_s)) = setup_reps(reps, make, report) else {
        return;
    };
    if let Err(e) = guarded(|| w.check_setup()) {
        report.errors.push(format!("set-up check failed: {e}"));
    }
    if opts.trace {
        suite::traced_run(&mut w, opts, report);
    } else {
        // On a host running slower than nominal the phase stops at a
        // quarter over `--seconds`, so a run's length stays bounded.
        let cap_s = (opts.seconds * 1.25).max(opts.seconds + 5.0);
        let n = ops_for(&w, opts.seconds);
        let timed = timed_phase(&mut w, n, cap_s, report);
        report.metric("setup_s", median(&setup_s), "s");
        report.metric("wall_s", timed.wall_s, "s");
        report.metric("op_ms_p50", median(&timed.op_ms), "ms");
        report.metric("cpu_s", timed.cpu_s, "s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
        report
            .facts
            .push(("ops".to_owned(), timed.op_ms.len().to_string()));
        report.facts.push((
            "op_ms".to_owned(),
            timed
                .op_ms
                .iter()
                .map(|v| format!("{v:.0}"))
                .collect::<Vec<_>>()
                .join(" "),
        ));
        report
            .facts
            .push(("capped".to_owned(), timed.capped.to_string()));
    }
    if let Err(e) = guarded(|| w.finish()) {
        report.errors.push(format!("end-of-run check failed: {e}"));
    }
    report.facts.extend(w.facts());
}
