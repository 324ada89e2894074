//! The three benchmark workloads. Each one builds its inputs in
//! `setup`, runs one operation per `op` call and verifies that
//! operation's simulated output, returning `Err` with the reason when a
//! check fails. `traced_op` is the same operation with spans opened
//! around the calls into each layer (and, on the parallel engine, the
//! runtime profile switched on) for the traced run.

use crate::trace;
use anton_bench::scenario::md_fingerprint;
use anton_collectives::{
    random_inputs, run_all_reduce, run_all_reduce_par, run_all_reduce_par_profiled, Algorithm,
    AllReduceOutcome, CollectiveParams,
};
use anton_core::{
    run_md_exchange_par_mode, run_md_exchange_par_mode_profiled_timed, run_md_exchange_timed,
    AntonConfig, AntonMdEngine, MdExchangeOutcome, MdExchangeParams,
};
use anton_des::{LookaheadMode, ParProfile};
use anton_md::{MdParams, ReferenceEngine, SystemBuilder, Vec3};
use anton_net::Timing;
use anton_obs::Fingerprint;
use anton_scenario::{LedgerIndex, ScenarioSpec, TimingProfile};
use anton_topo::TorusDims;
use std::path::PathBuf;

/// Worker threads of every parallel-engine op: the host has two cores.
pub const THREADS: usize = 2;

/// Default `md_anton` system seed (`md_on_anton`'s).
pub const MD_DEFAULT_SEED: u64 = 11;
/// Default `allreduce_par` input seed (the `allreduce_888` preset's).
pub const ALLREDUCE_DEFAULT_SEED: u64 = 42;
/// Steps in one `md_anton` op: one migration interval of
/// `AntonConfig::new` (a migration every 8 steps), which holds four
/// range-limited and four long-range steps, so every op does the same
/// mix of work.
pub const MD_OP_STEPS: u64 = 8;
/// Fingerprint of the simulated totals of the first op's steps of the
/// full-size `md_anton` system at the default seed.
pub const MD_DEFAULT_STEPS_FP: &str = "547fa715225a4106";
/// Fingerprint of the full-size `allreduce_par` op at the default seed.
pub const ALLREDUCE_DEFAULT_FP: &str = "87dc21b5b1de38d0";

/// Problem size: the benchmark's own, or a tiny one for smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes the benchmark measures.
    Full,
    /// Seconds-scale sizes that exercise the same code for tests.
    Tiny,
}

/// The repository root (the benchmark lives one level below it).
pub fn repo_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().map(PathBuf::from).unwrap_or(manifest)
}

/// One benchmark workload.
pub trait Workload {
    /// Run one operation with observation off and verify its output.
    fn op(&mut self) -> Result<(), String>;
    /// The same operation with spans around each layer call.
    fn traced_op(&mut self) -> Result<(), String>;
    /// Checks of what set-up built.
    fn check_setup(&self) -> Result<(), String> {
        Ok(())
    }
    /// Checks that need the whole timed phase behind them.
    fn finish(&mut self) -> Result<(), String> {
        Ok(())
    }
    /// A digest of what set-up built, identical across set-ups of the
    /// same inputs.
    fn setup_signature(&self) -> String;
    /// Operations per second on a 2-core host; sizes the timed phase.
    fn nominal_ops_per_s(&self) -> f64;
    /// Extra `key: value` facts for the run's diagnostics line.
    fn facts(&self) -> Vec<(String, String)> {
        Vec::new()
    }
}

fn check(cond: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(what())
    }
}

// ---------------------------------------------------------------- md_anton

/// Host time and traffic of one traced MD step.
#[derive(Debug, Clone, Copy)]
pub struct StepRecord {
    /// Whether the step evaluated long-range forces.
    pub long_range: bool,
    /// Host nanoseconds of `AntonMdEngine::try_step`.
    pub host_ns: u64,
    /// Packets the step sent (diff of `stats_total`).
    pub packets: u64,
}

/// `md_anton`: the full MD-on-Anton machine with real physics on the
/// sequential engine. One op is [`MD_OP_STEPS`] steps, alternating
/// range-limited and long-range.
pub struct MdAnton {
    /// The engine, bootstrapped by set-up.
    pub engine: AntonMdEngine,
    /// MD parameters the engine runs (the reference engine reuses them).
    pub md: MdParams,
    size: Size,
    seed: u64,
    in_step: bool,
    totals: Fingerprint,
    ops: u64,
    /// Per-step records of traced ops.
    pub steps: Vec<StepRecord>,
}

/// `md_on_anton`'s default configuration, or a tiny one.
pub fn md_config(size: Size, seed: u64) -> (SystemBuilder, TorusDims, MdParams) {
    match size {
        Size::Full => {
            let mut md = MdParams::new(6.0, [16; 3]);
            md.dt = 1.0;
            (
                SystemBuilder::tiny(1500, 36.0, seed),
                TorusDims::new(4, 4, 4),
                md,
            )
        }
        Size::Tiny => {
            let mut md = MdParams::new(4.5, [16; 3]);
            md.dt = 0.5;
            (
                SystemBuilder::tiny(240, 22.0, seed),
                TorusDims::new(2, 2, 2),
                md,
            )
        }
    }
}

/// `physics_equivalence.rs`'s tolerance: fixed-point quantization in
/// the accumulation memories plus a relative term.
pub fn force_close(a: Vec3, b: Vec3) -> bool {
    let tol = 2e-3 + 1e-3 * b.norm();
    (a - b).norm() < tol
}

impl MdAnton {
    /// Build the system and bootstrap the engine.
    pub fn setup(size: Size, seed: u64) -> Result<MdAnton, String> {
        let (builder, dims, md) = md_config(size, seed);
        let config = AntonConfig::new(md.clone());
        check(
            u64::from(config.migration_interval) == MD_OP_STEPS && md.long_range_interval == 2,
            || "md_anton ops assume migration every 8 steps, long range every 2".to_owned(),
        )?;
        let sys = builder.build();
        let engine = {
            let _s = trace::span("core.bootstrap");
            AntonMdEngine::new(sys, config, dims)
        };
        Ok(MdAnton {
            engine,
            md,
            size,
            seed,
            in_step: false,
            totals: Fingerprint::new(),
            ops: 0,
            steps: Vec::new(),
        })
    }

    /// The engine's forces against `ReferenceEngine::evaluate_forces` at
    /// the same positions. Valid after bootstrap or a long-range step,
    /// when no long-range force is carried over from older positions.
    pub fn check_forces(&self) -> Result<(), String> {
        let got = self.engine.current_forces();
        let want = ReferenceEngine::new(self.engine.system(), self.md.clone()).evaluate_forces();
        check(got.len() == want.forces.len(), || {
            "force vector length differs from the reference".to_owned()
        })?;
        let bad = got
            .iter()
            .zip(&want.forces)
            .filter(|(g, w)| !force_close(**g, **w))
            .count();
        check(bad == 0, || {
            format!(
                "{bad} of {} atoms' forces differ from the reference engine after {} steps",
                got.len(),
                self.engine.steps()
            )
        })
    }

    fn interval(&mut self, traced: bool) -> Result<(), String> {
        check(!self.in_step, || {
            "engine unusable after an earlier failed step".to_owned()
        })?;
        for k in 1..=MD_OP_STEPS {
            let want_lr = k % 2 == 0;
            self.in_step = true;
            let before = self.engine.stats_total.packets_sent;
            let span = trace::span(if want_lr {
                "core.lr_step"
            } else {
                "core.rl_step"
            });
            let t = self
                .engine
                .try_step()
                .map_err(|e| format!("MD step stalled: {e}"))?;
            let host_ns = span.elapsed_ns();
            drop(span);
            self.in_step = false;
            if traced {
                self.steps.push(StepRecord {
                    long_range: t.long_range,
                    host_ns,
                    packets: self.engine.stats_total.packets_sent - before,
                });
            }
            check(t.long_range == want_lr, || {
                format!("step {} long_range = {}", self.engine.steps(), t.long_range)
            })?;
            check(t.total.as_ns_f64() > 0.0, || {
                format!("step {} took no simulated time", self.engine.steps())
            })?;
            self.totals.update(&t.total);
        }
        self.ops += 1;
        if self.ops == 1 && self.size == Size::Full && self.seed == MD_DEFAULT_SEED {
            let fp = self.totals.hex();
            check(fp == MD_DEFAULT_STEPS_FP, || {
                format!("step totals fingerprint {fp} != recorded {MD_DEFAULT_STEPS_FP}")
            })?;
        }
        Ok(())
    }
}

impl Workload for MdAnton {
    fn op(&mut self) -> Result<(), String> {
        self.interval(false)
    }

    fn traced_op(&mut self) -> Result<(), String> {
        self.interval(true)
    }

    fn check_setup(&self) -> Result<(), String> {
        self.check_forces()
    }

    fn finish(&mut self) -> Result<(), String> {
        check(!self.in_step, || "engine stopped mid-step".to_owned())?;
        self.check_forces()
    }

    fn setup_signature(&self) -> String {
        let mut fp = Fingerprint::new();
        fp.update(&self.engine.stats_total.packets_sent);
        fp.update(&self.engine.stats_total.link_traversals);
        for f in self.engine.current_forces() {
            fp.update(&[f.x.to_bits(), f.y.to_bits(), f.z.to_bits()]);
        }
        fp.hex()
    }

    fn nominal_ops_per_s(&self) -> f64 {
        match self.size {
            Size::Full => 0.75,
            Size::Tiny => 5.0,
        }
    }

    fn facts(&self) -> Vec<(String, String)> {
        vec![
            ("md_seed".to_owned(), self.seed.to_string()),
            ("md_steps".to_owned(), self.engine.steps().to_string()),
            ("md_step_totals_fp".to_owned(), self.totals.hex()),
        ]
    }
}

// ------------------------------------------------------------ exchange_par

/// A profiled parallel-engine op: the host span around the library call
/// and the engine's own runtime profile.
#[derive(Debug, Clone)]
pub struct ProfiledOp {
    /// Host ns of the whole call (construction, run, teardown).
    pub span_ns: u64,
    /// The engine's profile (`wall_ns` covers the window loop only).
    pub profile: ParProfile,
}

/// `exchange_par`: the committed `specs/md_skewed.toml` on `ParEngine`
/// at [`THREADS`] threads with the spec's lookahead mode. One op is one
/// full run.
pub struct Exchange {
    /// Torus the spec names.
    pub dims: TorusDims,
    /// Exchange parameters the spec names.
    pub params: MdExchangeParams,
    /// Window-bound mode the spec names.
    pub mode: LookaheadMode,
    /// Fingerprint every op must reproduce.
    pub expected: String,
    /// Profiles of traced ops.
    pub profiled: Vec<ProfiledOp>,
}

impl Exchange {
    /// Load the spec (full size) or a 4×4×4, 3-step variant (tiny), find
    /// the expected fingerprint, and run one warm-up op. The warm-up is
    /// not checked here: a wrong program fails every timed op instead of
    /// aborting the run.
    pub fn setup(size: Size) -> Result<Exchange, String> {
        let (dims, params, mode, expected) = match size {
            Size::Full => {
                let root = repo_root();
                let ledger = LedgerIndex::load(&root.join("LEDGER.json"))?;
                let entry = ledger
                    .resolve("md_skewed")
                    .ok_or("LEDGER.json has no md_skewed entry")?
                    .clone();
                let text = std::fs::read_to_string(root.join(&entry.spec_path))
                    .map_err(|e| format!("{}: {e}", entry.spec_path))?;
                let spec = ScenarioSpec::from_toml_str(&text)?;
                check(spec.hash_hex() == entry.hash, || {
                    format!("spec hash {} != ledger {}", spec.hash_hex(), entry.hash)
                })?;
                check(spec.timing == TimingProfile::Anton1, || {
                    "exchange_par expects the anton1 timing profile".to_owned()
                })?;
                let params = spec.md_params().ok_or("md_skewed is not an MD exchange")?;
                (spec.torus_dims(), params, spec.lookahead, entry.fingerprint)
            }
            Size::Tiny => {
                let dims = TorusDims::new(4, 4, 4);
                let params = MdExchangeParams {
                    steps: 3,
                    values_per_msg: 4,
                    compute_ns: 250.0,
                    compute_skew_ns: 40.0,
                };
                // The sequential engine is the oracle.
                let oracle = run_md_exchange_timed(dims, params, Timing::anton1());
                (
                    dims,
                    params,
                    LookaheadMode::Adaptive,
                    md_fingerprint(&oracle),
                )
            }
        };
        run_md_exchange_par_mode(dims, params, THREADS, mode);
        Ok(Exchange {
            dims,
            params,
            mode,
            expected,
            profiled: Vec::new(),
        })
    }

    /// Compare an outcome's fingerprint with the expected one.
    pub fn verify(&self, out: &MdExchangeOutcome) -> Result<(), String> {
        let fp = md_fingerprint(out);
        check(fp == self.expected, || {
            format!("md_fingerprint {fp} != expected {}", self.expected)
        })
    }
}

impl Workload for Exchange {
    fn op(&mut self) -> Result<(), String> {
        let out = run_md_exchange_par_mode(self.dims, self.params, THREADS, self.mode);
        self.verify(&out)
    }

    fn traced_op(&mut self) -> Result<(), String> {
        let span = trace::span("des.exchange.par2_op");
        let (out, profile) = run_md_exchange_par_mode_profiled_timed(
            self.dims,
            self.params,
            THREADS,
            self.mode,
            Timing::anton1(),
        );
        let span_ns = span.elapsed_ns();
        drop(span);
        self.profiled.push(ProfiledOp { span_ns, profile });
        self.verify(&out)
    }

    fn setup_signature(&self) -> String {
        self.expected.clone()
    }

    fn nominal_ops_per_s(&self) -> f64 {
        5.5
    }

    fn facts(&self) -> Vec<(String, String)> {
        vec![("exchange_fp".to_owned(), self.expected.clone())]
    }
}

// ----------------------------------------------------------- allreduce_par

/// `allreduce_par`: one dimension-ordered all-reduce of 4 seeded values
/// per node on `ParEngine` at [`THREADS`] threads. One op is one
/// collective.
pub struct AllReduce {
    /// Torus the collective runs on.
    pub dims: TorusDims,
    /// Per-node inputs, generated from the seed.
    pub inputs: Vec<Vec<f64>>,
    expected: Vec<f64>,
    tolerance: Vec<f64>,
    /// Fingerprint of the warm-up op; every later op must match it.
    pub fingerprint: String,
    /// The recorded fingerprint, when the inputs are the defaults.
    recorded: Option<&'static str>,
    /// Packets and link traversals of the last op.
    pub traffic: (u64, u64),
    /// Profiles of traced ops.
    pub profiled: Vec<ProfiledOp>,
}

/// The all-reduce fingerprint recipe of the scenario runner.
pub fn allreduce_fingerprint(out: &AllReduceOutcome) -> String {
    let mut fp = Fingerprint::new();
    fp.update(&out.latency);
    fp.update(&out.results);
    fp.update(&out.packets_sent);
    fp.update(&out.link_traversals);
    fp.hex()
}

impl AllReduce {
    /// Generate the inputs and their host-side sums, then run one
    /// warm-up op whose fingerprint later ops must repeat. The warm-up
    /// is not checked here: a wrong program fails every timed op instead
    /// of aborting the run.
    pub fn setup(size: Size, seed: u64) -> Result<AllReduce, String> {
        let dims = match size {
            Size::Full => TorusDims::new(8, 8, 8),
            Size::Tiny => TorusDims::new(4, 4, 4),
        };
        let inputs = random_inputs(dims, 4, seed);
        let mut expected = vec![0.0; 4];
        let mut tolerance = vec![0.0; 4];
        for v in &inputs {
            for (k, x) in v.iter().enumerate() {
                expected[k] += x;
                tolerance[k] += x.abs();
            }
        }
        for t in &mut tolerance {
            *t *= 1e-9;
        }
        let mut w = AllReduce {
            dims,
            inputs,
            expected,
            tolerance,
            fingerprint: String::new(),
            recorded: (size == Size::Full && seed == ALLREDUCE_DEFAULT_SEED)
                .then_some(ALLREDUCE_DEFAULT_FP),
            traffic: (0, 0),
            profiled: Vec::new(),
        };
        w.fingerprint = allreduce_fingerprint(&w.run_par(THREADS));
        Ok(w)
    }

    /// One collective on the parallel engine at `threads` threads.
    pub fn run_par(&self, threads: usize) -> AllReduceOutcome {
        run_all_reduce_par(
            self.dims,
            Algorithm::DimensionOrdered,
            CollectiveParams::default(),
            &self.inputs,
            threads,
        )
    }

    /// One collective on the sequential engine.
    pub fn run_seq(&self) -> AllReduceOutcome {
        run_all_reduce(
            self.dims,
            Algorithm::DimensionOrdered,
            CollectiveParams::default(),
            &self.inputs,
        )
    }

    /// Every node holds the sum within tolerance, and the fingerprint
    /// repeats the warm-up op's (and the recorded one at the defaults).
    pub fn verify(&mut self, out: &AllReduceOutcome) -> Result<(), String> {
        check(out.results.len() == self.inputs.len(), || {
            format!(
                "{} results for {} nodes",
                out.results.len(),
                self.inputs.len()
            )
        })?;
        for (node, r) in out.results.iter().enumerate() {
            let ok = r.len() == self.expected.len()
                && r.iter()
                    .zip(&self.expected)
                    .zip(&self.tolerance)
                    .all(|((g, w), t)| (g - w).abs() <= *t);
            check(ok, || {
                format!("node {node} result {r:?} != sum {:?}", self.expected)
            })?;
        }
        let fp = allreduce_fingerprint(out);
        check(fp == self.fingerprint, || {
            format!(
                "all-reduce fingerprint {fp} != first op's {}",
                self.fingerprint
            )
        })?;
        if let Some(want) = self.recorded {
            check(fp == want, || {
                format!("all-reduce fingerprint {fp} != recorded {want}")
            })?;
        }
        self.traffic = (out.packets_sent, out.link_traversals);
        Ok(())
    }
}

impl Workload for AllReduce {
    fn op(&mut self) -> Result<(), String> {
        let out = self.run_par(THREADS);
        self.verify(&out)
    }

    fn traced_op(&mut self) -> Result<(), String> {
        let span = trace::span("des.allreduce.par2_op");
        let (out, profile) = run_all_reduce_par_profiled(
            self.dims,
            Algorithm::DimensionOrdered,
            CollectiveParams::default(),
            &self.inputs,
            THREADS,
        );
        let span_ns = span.elapsed_ns();
        drop(span);
        self.profiled.push(ProfiledOp { span_ns, profile });
        self.verify(&out)
    }

    fn setup_signature(&self) -> String {
        self.fingerprint.clone()
    }

    fn nominal_ops_per_s(&self) -> f64 {
        10.0
    }

    fn facts(&self) -> Vec<(String, String)> {
        vec![("allreduce_fp".to_owned(), self.fingerprint.clone())]
    }
}
