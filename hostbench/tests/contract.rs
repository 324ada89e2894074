//! The benchmark's own contract: metric names and units, checks that
//! really fire, and a tiny-size smoke run of every workload. Run with
//! `cargo test --release --manifest-path hostbench/Cargo.toml`.

use anton_hostbench::workloads::{AllReduce, Exchange, MdAnton, Size, Workload};
use anton_hostbench::{run, timed_phase, Opts, Report, WORKLOADS};
use std::collections::BTreeSet;

fn opts(workload: &str, trace: bool) -> Opts {
    Opts {
        workload: workload.to_owned(),
        seed: Some(7),
        seconds: 0.5,
        trace,
        size: Size::Tiny,
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The `name`s listed under `section` in BENCHMARK.json.
fn declared(section: &str) -> BTreeSet<String> {
    let path = anton_hostbench::workloads::repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\":")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_owned())
        .collect()
}

fn names(report: &Report) -> BTreeSet<String> {
    report.metrics.iter().map(|m| m.name.clone()).collect()
}

fn assert_well_formed(report: &Report) {
    for m in &report.metrics {
        assert!(valid_name(&m.name), "bad metric name {:?}", m.name);
        assert!(!m.unit.is_empty(), "{} has no unit", m.name);
        assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
    }
}

#[test]
fn tiny_untraced_runs_pass_and_report_every_end_to_end_metric() {
    let want = declared("end_to_end");
    for w in WORKLOADS {
        let report = run(&opts(w, false)).expect("known workload");
        assert!(report.correct(), "{w}: {:?}", report.errors);
        assert!(report.attempted >= 3, "{w} ran {} ops", report.attempted);
        assert_well_formed(&report);
        assert_eq!(names(&report), want, "{w}");
        for m in &report.metrics {
            assert!(m.value > 0.0, "{w}: {} = {}", m.name, m.value);
        }
    }
}

#[test]
fn tiny_traced_run_reports_every_per_layer_metric() {
    let report = run(&opts("allreduce_par", true)).expect("known workload");
    assert!(report.correct(), "{:?}", report.errors);
    assert_well_formed(&report);
    assert_eq!(names(&report), declared("per_layer"));
}

#[test]
fn a_wrong_expected_exchange_fingerprint_fails_every_op() {
    // Set-up does not check, so a wrong program still runs every op.
    let mut w = Exchange::setup(Size::Tiny).expect("tiny exchange sets up");
    w.expected = "0000000000000000".to_owned();
    let mut report = Report::default();
    timed_phase(&mut w, 3, 60.0, &mut report);
    assert_eq!(report.attempted, 3);
    assert_eq!(report.failed, 3);
    assert!(!report.correct());
}

#[test]
fn a_wrong_expected_allreduce_fingerprint_fails_every_op() {
    let mut w = AllReduce::setup(Size::Tiny, 42).expect("tiny all-reduce sets up");
    w.fingerprint = "0000000000000000".to_owned();
    let mut report = Report::default();
    timed_phase(&mut w, 2, 60.0, &mut report);
    assert_eq!((report.attempted, report.failed), (2, 2));
}

#[test]
fn corrupted_md_forces_fail_the_reference_check() {
    let w = MdAnton::setup(Size::Tiny, 3).expect("tiny md sets up");
    assert!(w.check_setup().is_ok());
    w.engine.state.borrow_mut().forces_prev[0].x += 1.0;
    assert!(w.check_setup().is_err());
}

#[test]
fn a_panicking_op_is_counted_not_fatal() {
    struct Boom;
    impl Workload for Boom {
        fn op(&mut self) -> Result<(), String> {
            panic!("boom")
        }
        fn traced_op(&mut self) -> Result<(), String> {
            self.op()
        }
        fn setup_signature(&self) -> String {
            String::new()
        }
        fn nominal_ops_per_s(&self) -> f64 {
            1.0
        }
    }
    let mut report = Report::default();
    timed_phase(&mut Boom, 2, 60.0, &mut report);
    assert_eq!((report.attempted, report.failed), (2, 2));
}

#[test]
fn seeds_change_inputs_and_repeat_them() {
    let a = AllReduce::setup(Size::Tiny, 1).expect("seed 1");
    let b = AllReduce::setup(Size::Tiny, 1).expect("seed 1 again");
    let c = AllReduce::setup(Size::Tiny, 2).expect("seed 2");
    assert_eq!(a.inputs, b.inputs);
    assert_ne!(a.inputs, c.inputs);
}

#[test]
fn result_line_is_the_contract_json() {
    let mut r = Report::default();
    r.count(Ok(()));
    r.metric("setup_s", 0.25, "s");
    r.metric("op_ms_p50", 12.5, "ms");
    assert_eq!(
        r.json_line(),
        "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
         {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
         \"op_ms_p50\": {\"value\": 12.5, \"unit\": \"ms\"}}}"
    );
}
