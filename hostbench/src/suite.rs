//! The traced run. It first measures the tracing overhead on the chosen
//! workload (untraced and traced ops alternated), then runs the layer
//! suite: spans around the benchmark's calls into each crate's public
//! functions, from which every per-layer metric is computed. The suite
//! is the same for every workload, so every traced run reports every
//! per-layer metric; metric names say which workload's op they measure.

use crate::host::median;
use crate::trace::{self, Span};
use crate::workloads::{
    AllReduce, Exchange, MdAnton, ProfiledOp, StepRecord, Workload, ALLREDUCE_DEFAULT_SEED,
    MD_DEFAULT_SEED, THREADS,
};
use crate::{guarded, ops_for, Opts, Report};
use anton_core::{
    run_md_exchange_par_mode, run_md_exchange_streamed_par_timed, run_md_exchange_timed,
};
use anton_fft::{distributed_fft3d, Complex, Direction, GridMap};
use anton_md::longrange::{long_range_forces, LongRangeParams};
use anton_md::pair::{range_limited_forces, PairParams};
use anton_md::Vec3;
use anton_net::{Fabric, FaultPlan, Timing};
use anton_obs::StreamConfig;
use anton_topo::TorusDims;
use std::time::Instant;

/// Repetitions of each probe in the layer suite.
const REPS: usize = 5;

/// Where the span file of a traced run goes.
pub fn span_path(workload: &str) -> std::path::PathBuf {
    crate::workloads::repo_root()
        .join("hostbench")
        .join("out")
        .join(format!("spans-{workload}.json"))
}

/// What the layer suite hands to the metric computation besides spans.
#[derive(Default)]
struct SuiteData {
    steps: Vec<StepRecord>,
    exchange: Vec<ProfiledOp>,
    allreduce: Vec<ProfiledOp>,
    collective_traffic: (u64, u64),
}

/// The traced run of workload `w`: overhead, then the layer suite, then
/// the spans written once to [`span_path`].
pub fn traced_run(w: &mut dyn Workload, opts: &Opts, report: &mut Report) {
    let k = (ops_for(w, opts.seconds) / 4).max(3);
    let (mut plain, mut traced) = (Vec::with_capacity(k), Vec::with_capacity(k));
    {
        let _s = trace::span("harness.overhead");
        for _ in 0..k {
            let t = Instant::now();
            let r = guarded(|| w.op());
            plain.push(t.elapsed().as_secs_f64());
            report.count(r);
            let t = Instant::now();
            let r = guarded(|| w.traced_op());
            traced.push(t.elapsed().as_secs_f64());
            report.count(r);
        }
    }

    let data = {
        let _s = trace::span("harness.suite");
        layer_suite(opts, report)
    };
    let spans = trace::take();
    let suite_start = spans
        .iter()
        .find(|s| s.name == "harness.suite")
        .map_or(0, |s| s.start_ns);
    let suite_spans: Vec<Span> = spans
        .iter()
        .filter(|s| s.start_ns >= suite_start)
        .cloned()
        .collect();
    layer_metrics(&suite_spans, &data, report);
    report.metric(
        "trace_overhead_pct",
        100.0 * (median(&traced) / median(&plain) - 1.0),
        "%",
    );

    let path = span_path(&opts.workload);
    let written = path
        .parent()
        .and_then(|dir| std::fs::create_dir_all(dir).ok())
        .and_then(|()| std::fs::write(&path, trace::to_json(&spans)).ok());
    report.facts.push((
        "spans".to_owned(),
        match written {
            Some(()) => format!("{} spans written to {}", spans.len(), path.display()),
            None => format!("{} spans, not written", spans.len()),
        },
    ));
}

/// Run `f` `reps` times, each inside a span named `name`, counting each
/// checked result.
fn probe(report: &mut Report, name: &str, reps: usize, mut f: impl FnMut() -> Result<(), String>) {
    for _ in 0..reps {
        let _s = trace::span(name);
        let r = guarded(&mut f);
        report.count(r);
    }
}

/// Every layer's probes. Spans carry the timings; profiles, step
/// records and traffic counts come back in [`SuiteData`].
fn layer_suite(opts: &Opts, report: &mut Report) -> SuiteData {
    let size = opts.size;
    let md_seed = opts.seed.unwrap_or(MD_DEFAULT_SEED);
    let ar_seed = opts.seed.unwrap_or(ALLREDUCE_DEFAULT_SEED);
    let mut data = SuiteData::default();

    // core: the bootstrap span opens inside `MdAnton::setup`.
    let mut md = None;
    for _ in 0..3 {
        drop(md.take());
        md = guarded_setup(report, || MdAnton::setup(size, md_seed));
    }
    let Some(mut md) = md else {
        report
            .errors
            .push("md_anton set-up failed in the suite".to_owned());
        return data;
    };
    report.count(guarded(|| md.check_forces()));

    // core / net / md on the machine: two traced migration intervals.
    for _ in 0..2 {
        let r = guarded(|| md.traced_op());
        report.count(r);
    }
    data.steps = std::mem::take(&mut md.steps);

    // md kernels on the engine's current positions.
    let sys = md.engine.system();
    let positions: Vec<Vec3> = sys.atoms.iter().map(|a| a.pos).collect();
    let pair = PairParams {
        cutoff: md.md.cutoff,
        ewald_sigma: Some(md.md.ewald_sigma),
    };
    let lr = LongRangeParams::new(md.md.grid, md.md.ewald_sigma);
    let mut first_rl: Option<f64> = None;
    probe(report, "md.range_limited", REPS, || {
        let mut forces = vec![Vec3::ZERO; positions.len()];
        let e = range_limited_forces(&sys, &positions, pair, &mut forces);
        let total = e.lj + e.coulomb_real;
        let same = *first_rl.get_or_insert(total) == total;
        if same && total.is_finite() {
            Ok(())
        } else {
            Err(format!("range-limited energy {total} not repeatable"))
        }
    });
    let mut first_lr: Option<f64> = None;
    probe(report, "md.long_range", REPS, || {
        let mut forces = vec![Vec3::ZERO; positions.len()];
        let e = long_range_forces(&sys, &positions, &lr, &mut forces).energy;
        let same = *first_lr.get_or_insert(e) == e;
        if same && e.is_finite() {
            Ok(())
        } else {
            Err(format!("long-range energy {e} not repeatable"))
        }
    });

    // fft: the pencil kernels on the engine's grid map, forward + inverse.
    let map = GridMap::new(md.md.grid, md.engine.state.borrow().decomp.dims);
    let n: usize = md.md.grid.iter().product();
    let input: Vec<Complex> = (0..n)
        .map(|i| {
            Complex::new(
                ((i * 7919) % 101) as f64 - 50.0,
                ((i * 104_729) % 37) as f64,
            )
        })
        .collect();
    probe(report, "fft.fft3d", 4 * REPS, || {
        let mut data = input.clone();
        distributed_fft3d(&map, &mut data, Direction::Forward);
        distributed_fft3d(&map, &mut data, Direction::Inverse);
        let err = data
            .iter()
            .zip(&input)
            .map(|(a, b)| (a.re - b.re).abs().max((a.im - b.im).abs()))
            .fold(0.0, f64::max);
        if err < 1e-9 {
            Ok(())
        } else {
            Err(format!("fft round trip error {err}"))
        }
    });
    drop(md);

    // des / obs on the exchange op.
    match guarded_setup(report, || Exchange::setup(size)) {
        Some(mut ex) => {
            for _ in 0..REPS {
                let r = guarded(|| ex.traced_op());
                report.count(r);
            }
            data.exchange = std::mem::take(&mut ex.profiled);
            let timing = Timing::anton1();
            probe(report, "des.exchange.seq_op", REPS, || {
                ex.verify(&run_md_exchange_timed(ex.dims, ex.params, timing.clone()))
            });
            probe(report, "des.exchange.par1_op", REPS, || {
                ex.verify(&run_md_exchange_par_mode(ex.dims, ex.params, 1, ex.mode))
            });
            probe(report, "obs.stream_op", 3, || {
                let (out, _summary) = run_md_exchange_streamed_par_timed(
                    ex.dims,
                    ex.params,
                    THREADS,
                    StreamConfig::default(),
                    timing.clone(),
                );
                ex.verify(&out)
            });
        }
        None => report
            .errors
            .push("exchange set-up failed in the suite".to_owned()),
    }

    // des / collectives on the all-reduce op.
    match guarded_setup(report, || AllReduce::setup(size, ar_seed)) {
        Some(mut ar) => {
            for _ in 0..REPS {
                let r = guarded(|| ar.traced_op());
                report.count(r);
            }
            data.allreduce = std::mem::take(&mut ar.profiled);
            data.collective_traffic = ar.traffic;
            probe(report, "des.allreduce.seq_op", REPS, || {
                let out = ar.run_seq();
                ar.verify(&out)
            });
            probe(report, "des.allreduce.par1_op", REPS, || {
                let out = ar.run_par(1);
                ar.verify(&out)
            });
        }
        None => report
            .errors
            .push("all-reduce set-up failed in the suite".to_owned()),
    }

    // net: fabric construction at both machine sizes.
    for (name, dims, reps) in [
        ("net.fabric_build_4x4x4", TorusDims::new(4, 4, 4), 40),
        ("net.fabric_build_8x8x8", TorusDims::new(8, 8, 8), 20),
    ] {
        probe(report, name, reps, || {
            let fabric = Fabric::with_faults(dims, Timing::anton1(), FaultPlan::none());
            if fabric.dims() == dims {
                Ok(())
            } else {
                Err("fabric built for other dims".to_owned())
            }
        });
    }
    data
}

fn guarded_setup<W>(report: &mut Report, make: impl FnOnce() -> Result<W, String>) -> Option<W> {
    let mut out = None;
    let r = guarded(|| {
        out = Some(make()?);
        Ok(())
    });
    report.count(r);
    out
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn span_median_ms(spans: &[Span], name: &str) -> f64 {
    median(&trace::durations_ms(spans, name))
}

fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// Sums over a profile's workers: (busy, merge, barrier) ns.
fn worker_sums(op: &ProfiledOp) -> (u64, u64, u64) {
    op.profile.workers.iter().fold((0, 0, 0), |(b, m, w), p| {
        (
            b + p.busy_ns,
            m + p.merge_ns,
            w + p.barrier_publish_ns + p.barrier_window_ns,
        )
    })
}

/// The deterministic counts must repeat exactly across ops.
fn repeat_exactly(report: &mut Report, what: &str, ops: &[ProfiledOp]) {
    let Some(first) = ops.first() else {
        report.errors.push(format!("no profiled {what} ops"));
        return;
    };
    let key = |o: &ProfiledOp| {
        (
            o.profile.windows,
            o.profile.events,
            o.profile.cross_shard_events(),
        )
    };
    if ops.iter().any(|o| key(o) != key(first)) {
        report
            .errors
            .push(format!("{what} window/event counts differ between ops"));
    }
    // The window loop runs inside the call span, so loop + outside
    // telescopes to the span with outside >= 0.
    if ops.iter().any(|o| o.profile.wall_ns > o.span_ns) {
        report
            .errors
            .push(format!("{what} loop time exceeds its call span"));
    }
}

/// The op with the median call span (REPS is odd, so a real op). Its
/// loop and outside-loop times add up to its span exactly.
fn median_op(ops: &[ProfiledOp]) -> ProfiledOp {
    let mut sorted: Vec<&ProfiledOp> = ops.iter().collect();
    sorted.sort_by_key(|o| o.span_ns);
    sorted
        .get(sorted.len() / 2)
        .map(|o| (*o).clone())
        .unwrap_or(ProfiledOp {
            span_ns: 0,
            profile: Default::default(),
        })
}

/// Loop / outside-loop split of the median op under `prefix`, with the
/// telescoping residual (span − loop − outside) as a fact.
fn loop_split(report: &mut Report, prefix: &str, what: &str, op: &ProfiledOp) {
    let loop_ns = op.profile.wall_ns;
    let outside_ns = op.span_ns.saturating_sub(loop_ns);
    report.metric(&format!("{prefix}.loop_ms"), ms(loop_ns), "ms");
    report.metric(&format!("{prefix}.outside_loop_ms"), ms(outside_ns), "ms");
    report.facts.push((
        format!("{what}_telescoping"),
        format!(
            "span {:.3} ms = loop {:.3} + outside {:.3}, residual {} ns",
            ms(op.span_ns),
            ms(loop_ns),
            ms(outside_ns),
            op.span_ns as i64 - (loop_ns + outside_ns) as i64
        ),
    ));
}

fn layer_metrics(spans: &[Span], d: &SuiteData, report: &mut Report) {
    repeat_exactly(report, "exchange", &d.exchange);
    repeat_exactly(report, "all-reduce", &d.allreduce);

    // des on exchange_par, from the median op.
    let ex = median_op(&d.exchange);
    let par2 = ms(ex.span_ns);
    let seq = span_median_ms(spans, "des.exchange.seq_op");
    let par1 = span_median_ms(spans, "des.exchange.par1_op");
    let (busy, merge, barrier) = worker_sums(&ex);
    let p = &ex.profile;
    loop_split(report, "des.par", "exchange", &ex);
    report.metric("des.par.busy_ms", ms(busy), "ms");
    report.metric("des.par.merge_ms", ms(merge), "ms");
    report.metric("des.par.barrier_ms", ms(barrier), "ms");
    report.metric(
        "des.host_ns_per_event",
        busy as f64 / p.events.max(1) as f64,
        "ns",
    );
    report.metric("des.par.windows", p.windows as f64, "count");
    report.metric("des.par.events", p.events as f64, "count");
    report.metric("des.par.events_per_window", p.events_per_window(), "count");
    report.metric(
        "des.par.cross_shard_fraction",
        p.cross_shard_events() as f64 / p.events.max(1) as f64,
        "ratio",
    );
    report.metric("des.seq_op_ms", seq, "ms");
    report.metric("des.par1_op_ms", par1, "ms");
    report.metric("des.par1_over_seq", par1 / seq, "ratio");
    report.metric("des.par2_speedup", seq / par2, "ratio");

    // des on allreduce_par, from the median op.
    let ar = median_op(&d.allreduce);
    let ar_par2 = ms(ar.span_ns);
    let ar_seq = span_median_ms(spans, "des.allreduce.seq_op");
    let ar_par1 = span_median_ms(spans, "des.allreduce.par1_op");
    loop_split(report, "des.allreduce", "allreduce", &ar);
    report.metric(
        "des.allreduce.outside_loop_share",
        1.0 - ar.profile.wall_ns as f64 / ar.span_ns.max(1) as f64,
        "ratio",
    );
    report.metric("des.allreduce.windows", ar.profile.windows as f64, "count");
    report.metric("des.allreduce.seq_op_ms", ar_seq, "ms");
    report.metric("des.allreduce.par1_op_ms", ar_par1, "ms");
    report.metric("des.allreduce.par1_over_seq", ar_par1 / ar_seq, "ratio");
    report.metric("des.allreduce.par2_speedup", ar_seq / ar_par2, "ratio");

    // net.
    report.metric(
        "net.fabric_build_4x4x4_ms",
        span_median_ms(spans, "net.fabric_build_4x4x4"),
        "ms",
    );
    report.metric(
        "net.fabric_build_8x8x8_ms",
        span_median_ms(spans, "net.fabric_build_8x8x8"),
        "ms",
    );
    let (rl, lr): (Vec<StepRecord>, Vec<StepRecord>) = d.steps.iter().partition(|s| !s.long_range);
    report.metric(
        "net.rl_packets",
        median_of(&rl, |s| s.packets as f64),
        "count",
    );
    report.metric(
        "net.lr_packets",
        median_of(&lr, |s| s.packets as f64),
        "count",
    );
    report.metric(
        "net.rl_host_ns_per_packet",
        median_of(&rl, |s| s.host_ns as f64 / s.packets.max(1) as f64),
        "ns",
    );
    report.metric(
        "net.lr_host_ns_per_packet",
        median_of(&lr, |s| s.host_ns as f64 / s.packets.max(1) as f64),
        "ns",
    );

    // md, fft, core.
    report.metric(
        "md.range_limited_ms",
        span_median_ms(spans, "md.range_limited"),
        "ms",
    );
    report.metric(
        "md.long_range_ms",
        span_median_ms(spans, "md.long_range"),
        "ms",
    );
    report.metric("fft.fft3d_ms", span_median_ms(spans, "fft.fft3d"), "ms");
    report.metric(
        "core.bootstrap_ms",
        span_median_ms(spans, "core.bootstrap"),
        "ms",
    );
    report.metric("rl_step_ms_p50", median_of(&rl, |s| ms(s.host_ns)), "ms");
    report.metric("lr_step_ms_p50", median_of(&lr, |s| ms(s.host_ns)), "ms");

    // collectives.
    report.metric(
        "collectives.packets",
        d.collective_traffic.0 as f64,
        "count",
    );
    report.metric(
        "collectives.link_traversals",
        d.collective_traffic.1 as f64,
        "count",
    );

    // obs.
    let stream = span_median_ms(spans, "obs.stream_op");
    report.metric("obs.stream_op_ms", stream, "ms");
    report.metric("obs.stream_overhead_ratio", stream / par2, "ratio");
}
