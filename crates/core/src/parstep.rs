//! A `Send`-able MD time-step skeleton for the parallel engine.
//!
//! The full per-node MD program ([`MdNode`](crate::program::MdNode))
//! shares one `Rc<RefCell<MachineState>>` across all nodes, which pins
//! it to the sequential simulation. This module distills the *shape* of
//! an MD step that matters for parallel-engine benchmarking — the
//! position-export / force-return neighbor exchange of Figure 2, with
//! its counted remote writes and per-step compute phase — into a
//! self-contained program whose only state is per-node, so it runs
//! unchanged (and bit-identically) on either engine a [`Run`] selects.
//!
//! Per step, every node:
//!
//! 1. multicasts nothing — it sends one counted remote write to each of
//!    its six torus neighbors (±x, ±y, ±z), carrying a position payload;
//! 2. waits on a synchronization counter for the six inbound writes
//!    (communication–synchronization fusion, §IV.A);
//! 3. folds the received values and models the pairwise-force compute
//!    time on the Tensilica cores;
//! 4. starts the next step.
//!
//! All payload values are pure functions of `(node, step, direction)`,
//! so every run — sequential or sharded, any thread count — produces
//! identical folds and identical completion times.

use anton_des::{LookaheadMode, ParProfile, SimDuration, SimTime};
use anton_net::{
    execute, ClientAddr, ClientKind, CounterId, Ctx, NetStats, NodeProgram, ObsMode, Observed,
    Packet, Payload, ProgEvent, Run, Timing,
};
use anton_obs::{StreamConfig, StreamSummary};
use anton_topo::{Dim, NodeId, TorusDims};

/// Counter the six neighbor writes of each step land on.
const C_EXCH: CounterId = CounterId(30);
/// Receive-buffer base address; one slot per inbound direction.
const A_EXCH: u64 = 0x0600_0000;
const A_DIR_STRIDE: u64 = 0x100;

/// Workload parameters for the exchange skeleton.
#[derive(Debug, Clone, Copy)]
pub struct MdExchangeParams {
    /// Number of simulated time steps.
    pub steps: u32,
    /// f64 values per neighbor message (32 B = 4 values matches the
    /// paper's fine-grained message regime).
    pub values_per_msg: usize,
    /// Modeled per-step force-computation time, ns.
    pub compute_ns: f64,
    /// Extra compute per unit of the node's Z coordinate, ns — a
    /// deterministic stand-in for spatial load imbalance (real MD boxes
    /// have denser and sparser regions). Nonzero skew staggers the
    /// per-slab event streams, which is exactly the regime where the
    /// parallel engine's adaptive per-pair lookahead recovers windows a
    /// uniform global bound would force; 0 (the default) keeps every
    /// node identical. Simulated results stay bit-identical across
    /// engines and modes either way.
    pub compute_skew_ns: f64,
}

impl Default for MdExchangeParams {
    fn default() -> Self {
        MdExchangeParams {
            steps: 10,
            values_per_msg: 4,
            compute_ns: 250.0,
            compute_skew_ns: 0.0,
        }
    }
}

/// Result of an exchange run.
#[derive(Debug, Clone)]
pub struct MdExchangeOutcome {
    /// Time at which the last node finished its last step.
    pub makespan: SimTime,
    /// Per-node checksum of every folded value (order-fixed, so it is
    /// bitwise identical across runs and thread counts).
    pub checksums: Vec<f64>,
    /// Machine-wide fabric statistics.
    pub stats: NetStats,
    /// Total DES events processed.
    pub events: u64,
}

/// The six (dim, direction) neighbor slots in fixed order.
fn directions() -> [(Dim, i32); 6] {
    [
        (Dim::ALL[0], -1),
        (Dim::ALL[0], 1),
        (Dim::ALL[1], -1),
        (Dim::ALL[1], 1),
        (Dim::ALL[2], -1),
        (Dim::ALL[2], 1),
    ]
}

fn neighbor(node: NodeId, dims: TorusDims, dim: Dim, dir: i32) -> NodeId {
    let me = node.coord(dims);
    let n = dims.len(dim);
    let c = (me.get(dim) as i64 + dir as i64).rem_euclid(n as i64) as u32;
    me.with(dim, c).node_id(dims)
}

/// Deterministic stand-in for a position payload.
fn payload_values(node: NodeId, step: u32, slot: usize, n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (node.0 as f64) + 0.001 * step as f64 + 0.0001 * (slot * n + i) as f64)
        .collect()
}

/// One node of the exchange skeleton. Plain owned state — `Send`.
pub struct MdExchangeNode {
    params: MdExchangeParams,
    step: u32,
    checksum: f64,
    /// Set when the final step's fold completes.
    pub finished_at: Option<SimTime>,
}

impl MdExchangeNode {
    fn start_step(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        let dims = ctx.dims();
        let me = ClientAddr::new(node, ClientKind::Slice(0));
        ctx.watch_counter(me, C_EXCH, 6);
        for (slot, (dim, dir)) in directions().into_iter().enumerate() {
            let peer = neighbor(node, dims, dim, dir);
            // The receiver files us under the *inbound* slot: the packet
            // we send in direction (dim, +1) arrives from its (dim, −1)
            // side, i.e. slot with the direction flipped.
            let inbound = slot ^ 1;
            let vs = payload_values(node, self.step, slot, self.params.values_per_msg);
            let pkt = Packet::write(
                me,
                ClientAddr::new(peer, ClientKind::Slice(0)),
                A_EXCH + inbound as u64 * A_DIR_STRIDE,
                Payload::F64s(vs),
            )
            .with_payload_bytes((self.params.values_per_msg * 8) as u32)
            .with_counter(C_EXCH);
            ctx.send(pkt);
        }
    }

    fn finish_step(&mut self, node: NodeId, ctx: &mut Ctx<'_, '_>) {
        let me = ClientAddr::new(node, ClientKind::Slice(0));
        // Fold inbound contributions in fixed slot order.
        for slot in 0..6 {
            match ctx.mem_take(me, A_EXCH + slot as u64 * A_DIR_STRIDE) {
                Some(Payload::F64s(vs)) => {
                    for v in vs {
                        self.checksum += v;
                    }
                }
                other => panic!("missing neighbor write in slot {slot}: {other:?}"),
            }
        }
        ctx.reset_counter(me, C_EXCH);
        let z = node.coord(ctx.dims()).get(Dim::ALL[2]) as f64;
        let cost =
            SimDuration::from_ns_f64(self.params.compute_ns + self.params.compute_skew_ns * z);
        ctx.set_timer(node, ClientKind::Slice(0), cost, self.step as u64);
    }
}

impl NodeProgram for MdExchangeNode {
    fn on_event(&mut self, node: NodeId, pe: ProgEvent, ctx: &mut Ctx<'_, '_>) {
        match pe {
            ProgEvent::Start => self.start_step(node, ctx),
            ProgEvent::CounterReached { .. } => self.finish_step(node, ctx),
            ProgEvent::Timer { .. } => {
                self.step += 1;
                if self.step < self.params.steps {
                    self.start_step(node, ctx);
                } else {
                    self.finished_at = Some(ctx.now());
                }
            }
            ProgEvent::FifoMessage { .. } => {
                unreachable!("exchange skeleton uses no FIFO traffic")
            }
        }
    }
}

fn make_node(params: MdExchangeParams) -> impl FnMut(NodeId) -> MdExchangeNode {
    move |_| MdExchangeNode {
        params,
        step: 0,
        checksum: 0.0,
        finished_at: None,
    }
}

/// Run the exchange workload under `run`: the engine, timing and fault
/// plan it names, with its observers attached. The outcome is
/// bit-identical on every engine, thread count and observer setting.
///
/// Packet uids are node-scoped on both engines, so flight streams and
/// the stream observer's deterministic reservoir compare exactly across
/// engines (uid assignment never affects simulated outcomes).
pub fn md_exchange(
    dims: TorusDims,
    params: MdExchangeParams,
    run: &Run,
) -> (MdExchangeOutcome, Observed) {
    let mut fabric = run.fabric(dims);
    fabric.enable_node_scoped_uids();
    let ex = execute(run, fabric, make_node(params), 1_000_000_000);
    assert!(ex.report.is_completed(), "exchange workload completes");
    let mut makespan = SimTime::ZERO;
    let mut checksums = Vec::with_capacity(dims.node_count() as usize);
    for i in 0..dims.node_count() {
        let p = ex.program(NodeId(i));
        makespan = makespan.max(p.finished_at.expect("completed"));
        checksums.push(p.checksum);
    }
    let out = MdExchangeOutcome {
        makespan,
        checksums,
        stats: ex.stats(),
        events: ex.events(),
    };
    (out, ex.into_observed())
}

/// Sequential [`md_exchange`] under `timing`. Kept by name because the
/// host-time benchmark calls it.
pub fn run_md_exchange_timed(
    dims: TorusDims,
    params: MdExchangeParams,
    timing: Timing,
) -> MdExchangeOutcome {
    md_exchange(
        dims,
        params,
        &Run {
            timing,
            ..Run::default()
        },
    )
    .0
}

/// Sharded [`md_exchange`] at `threads` workers under `mode`. Kept by
/// name because the host-time benchmark calls it.
pub fn run_md_exchange_par_mode(
    dims: TorusDims,
    params: MdExchangeParams,
    threads: usize,
    mode: LookaheadMode,
) -> MdExchangeOutcome {
    md_exchange(dims, params, &Run::sharded(threads, mode)).0
}

/// Sharded, stream-observed [`md_exchange`] under `timing` and the
/// ambient `ANTON_LOOKAHEAD` mode. Kept by name because the host-time
/// benchmark calls it.
pub fn run_md_exchange_streamed_par_timed(
    dims: TorusDims,
    params: MdExchangeParams,
    threads: usize,
    cfg: StreamConfig,
    timing: Timing,
) -> (MdExchangeOutcome, StreamSummary) {
    let run = Run {
        timing,
        obs: ObsMode::Stream,
        stream: cfg,
        ..Run::sharded(threads, anton_net::lookahead_mode_from_env())
    };
    let (out, observed) = md_exchange(dims, params, &run);
    (out, observed.stream.expect("stream observers attached"))
}

/// Sharded, profiled [`md_exchange`] under `mode` and `timing`. Kept by
/// name because the host-time benchmark calls it.
pub fn run_md_exchange_par_mode_profiled_timed(
    dims: TorusDims,
    params: MdExchangeParams,
    threads: usize,
    mode: LookaheadMode,
    timing: Timing,
) -> (MdExchangeOutcome, ParProfile) {
    let run = Run {
        timing,
        profile: true,
        ..Run::sharded(threads, mode)
    };
    let (out, observed) = md_exchange(dims, params, &run);
    (out, observed.profile.expect("profiling was enabled"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use anton_net::EngineKind;

    fn plain(dims: TorusDims, params: MdExchangeParams) -> MdExchangeOutcome {
        md_exchange(dims, params, &Run::default()).0
    }

    /// Every engine the equivalence table sweeps.
    fn engines() -> Vec<EngineKind> {
        let mut out = vec![EngineKind::Sequential];
        for threads in [1, 2, 4] {
            for lookahead in [LookaheadMode::Global, LookaheadMode::Adaptive] {
                out.push(EngineKind::Sharded { threads, lookahead });
            }
        }
        out
    }

    /// The runner's equivalence table: the skewed 4³ exchange on every
    /// engine × observer × profile setting gives one outcome; observed
    /// runs equal unobserved ones; every flight stream folds to the
    /// sequential lifecycles and every stream summary equals the exact
    /// fold; and the skew lets adaptive windows recover events the
    /// global bound cannot.
    #[test]
    fn md_exchange_is_identical_on_every_engine_and_observer() {
        let dims = TorusDims::new(4, 4, 4);
        let params = MdExchangeParams {
            steps: 3,
            compute_skew_ns: 60.0,
            ..Default::default()
        };
        let reference = plain(dims, params);
        let (_, seq_flight) = md_exchange(
            dims,
            params,
            &Run {
                obs: ObsMode::Flight,
                ..Run::default()
            },
        );
        let (lcs, fold) = anton_obs::fold_lifecycles(seq_flight.flight.iter());
        let exact = anton_obs::BreakdownSummary::from_lifecycles(&lcs);
        let mut seq_summary = None;
        let mut sharded_events = None;
        let mut windows = std::collections::BTreeMap::new();
        for engine in engines() {
            let unobserved = md_exchange(
                dims,
                params,
                &Run {
                    engine,
                    ..Run::default()
                },
            )
            .0;
            for obs in [ObsMode::Off, ObsMode::Flight, ObsMode::Stream] {
                for profile in [false, true] {
                    let run = Run {
                        engine,
                        obs,
                        profile,
                        ..Run::default()
                    };
                    let (out, seen) = md_exchange(dims, params, &run);
                    let tag = format!("{engine:?} {obs} profile={profile}");
                    assert_eq!(out.makespan, reference.makespan, "{tag}");
                    assert_eq!(out.checksums, reference.checksums, "{tag}");
                    assert_eq!(out.stats, reference.stats, "{tag}");
                    // Zero observer effect, down to the event count.
                    assert_eq!(out.events, unobserved.events, "{tag}");
                    assert_eq!(out.stats, unobserved.stats, "{tag}");
                    match obs {
                        ObsMode::Off => {
                            assert!(seen.flight.is_empty() && seen.stream.is_none(), "{tag}")
                        }
                        ObsMode::Flight => assert_eq!(
                            anton_obs::fold_lifecycles(seen.flight.iter()),
                            (lcs.clone(), fold),
                            "{tag}"
                        ),
                        ObsMode::Stream => {
                            let summary = seen.stream.expect("stream summary");
                            assert_eq!(summary.breakdown(), exact, "{tag}");
                            assert_eq!(summary.fold, fold, "{tag}");
                            let first = seq_summary.get_or_insert_with(|| summary.clone());
                            assert_eq!(&summary, first, "{tag}");
                            let footprint = seen.footprint.expect("footprint");
                            assert!(footprint.peak_bytes > 0 && footprint.peak_partials > 0);
                        }
                    }
                    if let EngineKind::Sharded { .. } = engine {
                        // One `Start` per shard, and the shard count never
                        // depends on threads or window mode.
                        let first = *sharded_events.get_or_insert(out.events);
                        assert_eq!(out.events, first, "{tag}");
                    }
                    match (engine, profile) {
                        (EngineKind::Sharded { threads, lookahead }, true) => {
                            let p = seen.profile.expect("profile");
                            // Window accounting is thread-invariant.
                            let w = (p.windows, p.recovered_events, p.extended_shard_windows);
                            let first = windows.entry(format!("{lookahead:?}")).or_insert(w);
                            assert_eq!(w, *first, "{tag} at {threads} threads");
                        }
                        _ => assert!(seen.profile.is_none(), "{tag}"),
                    }
                }
            }
        }
        let (pg, pa) = (windows["Global"], windows["Adaptive"]);
        assert!(
            pa.0 < pg.0,
            "skewed workload should need fewer adaptive windows ({} vs {})",
            pa.0,
            pg.0
        );
        assert!(pa.1 > 0 && pa.2 > 0, "adaptive windows recover events");
        assert_eq!((pg.1, pg.2), (0, 0), "the global bound recovers nothing");
    }

    #[test]
    fn checksums_match_the_analytic_fold() {
        // Every node receives, per step, the six slot payloads its
        // neighbors emitted; totals are a pure function of the schedule.
        let dims = TorusDims::new(2, 2, 2);
        let params = MdExchangeParams {
            steps: 2,
            values_per_msg: 2,
            compute_ns: 100.0,
            compute_skew_ns: 0.0,
        };
        let out = plain(dims, params);
        let mut want = vec![0.0f64; dims.node_count() as usize];
        for step in 0..params.steps {
            for node in 0..dims.node_count() {
                for (slot, (dim, dir)) in directions().into_iter().enumerate() {
                    let peer = neighbor(NodeId(node), dims, dim, dir);
                    for v in payload_values(peer, step, slot ^ 1, params.values_per_msg) {
                        want[node as usize] += v;
                    }
                }
            }
        }
        for (got, want) in out.checksums.iter().zip(&want) {
            assert!((got - want).abs() < 1e-9, "{got} vs {want}");
        }
    }

    #[test]
    fn adaptive_and_global_windows_agree_and_adaptive_never_needs_more() {
        let dims = TorusDims::new(4, 4, 4);
        let params = MdExchangeParams {
            steps: 3,
            ..Default::default()
        };
        let profiled = |threads, mode| {
            run_md_exchange_par_mode_profiled_timed(dims, params, threads, mode, Timing::default())
        };
        let seq = plain(dims, params);
        let (glob, pg) = profiled(2, LookaheadMode::Global);
        let (adap, pa) = profiled(2, LookaheadMode::Adaptive);
        // Same simulated machine in all three executions.
        assert_eq!(glob.makespan, seq.makespan);
        assert_eq!(adap.makespan, seq.makespan);
        assert_eq!(adap.checksums, glob.checksums);
        assert_eq!(adap.checksums, seq.checksums);
        assert_eq!(adap.events, glob.events);
        // Adaptive windows are never narrower than global ones, and the
        // recovered-events accounting is zero by construction under the
        // global bound.
        assert!(pa.windows <= pg.windows, "{} vs {}", pa.windows, pg.windows);
        assert_eq!(pg.recovered_events, 0);
        assert_eq!(pg.extended_shard_windows, 0);
        // Window counts (and recovered accounting) are thread-invariant.
        let (_, pa4) = profiled(4, LookaheadMode::Adaptive);
        assert_eq!(pa4.windows, pa.windows);
        assert_eq!(pa4.recovered_events, pa.recovered_events);
        assert_eq!(pa4.extended_shard_windows, pa.extended_shard_windows);
    }

    #[test]
    fn makespan_scales_with_steps() {
        let dims = TorusDims::new(2, 2, 2);
        let steps = |steps| {
            plain(
                dims,
                MdExchangeParams {
                    steps,
                    ..Default::default()
                },
            )
        };
        assert!(steps(5).makespan > steps(1).makespan);
    }
}
