//! One execution path for every workload.
//!
//! A [`Run`] is the run configuration as data: which engine executes the
//! machine, under which timing table, fault plan and recovery policy,
//! and which observers attach. [`execute`] turns it into a sequential
//! [`Simulation`] or a sharded [`ParSimulation`], runs that under the
//! stall guard, and returns an [`Executed`] view that reads results the
//! same way on both engines. Each workload (MD exchange, all-reduce,
//! recovering all-reduce, ping-pong) has one runner over this helper,
//! so engine choice and observer wiring live here and nowhere else.
//!
//! Observation never changes simulated results: an observed run is
//! bit-identical to the unobserved one on either engine.

use crate::fabric::{Fabric, NetStats};
use crate::par::{ObsMode, ParSimulation};
use crate::recovery::{FailureVerdict, RecoveryConfig, RecoveryStats};
use crate::timing::Timing;
use crate::world::{NodeProgram, RunReport, Simulation};
use crate::FaultPlan;
use anton_des::{LookaheadMode, ParProfile, SimTime};
use anton_obs::{FlightEvent, StreamConfig, StreamFootprint, StreamSummary};
use anton_topo::{NodeId, TorusDims};

/// Which engine executes a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// The single-threaded reference engine.
    #[default]
    Sequential,
    /// The sharded conservative-window engine. Every thread count, one
    /// included, runs the same window protocol, so it is *not* a
    /// stand-in for [`EngineKind::Sequential`], though on the 8³
    /// all-reduce one thread costs about the same host time
    /// (`des.allreduce.par1_over_seq` 0.99 in the host-time benchmark on
    /// a 2-core host).
    Sharded {
        /// Worker threads; never affects simulated results.
        threads: usize,
        /// Window-bound mode; never affects simulated results.
        lookahead: LookaheadMode,
    },
}

/// How to run a workload: engine, machine model and observers.
#[derive(Debug, Clone)]
pub struct Run {
    /// Which engine executes the run.
    pub engine: EngineKind,
    /// The calibrated latency model.
    pub timing: Timing,
    /// Fault injection (fault-free by default).
    pub fault: FaultPlan,
    /// Runtime fault-recovery policy (disabled by default).
    pub recovery: RecoveryConfig,
    /// Which recorder attaches to the fabric (or to every shard).
    pub obs: ObsMode,
    /// Sizing of the [`ObsMode::Stream`] observer.
    pub stream: StreamConfig,
    /// Collect the sharded engine's [`ParProfile`]. The sequential
    /// engine has no runtime profile, so this is a no-op there.
    pub profile: bool,
}

impl Default for Run {
    /// Sequential, Anton-1 timing, fault-free, unobserved.
    fn default() -> Run {
        Run {
            engine: EngineKind::Sequential,
            timing: Timing::default(),
            fault: FaultPlan::none(),
            recovery: RecoveryConfig::disabled(),
            obs: ObsMode::Off,
            stream: StreamConfig::default(),
            profile: false,
        }
    }
}

impl Run {
    /// A default run on the sharded engine.
    pub fn sharded(threads: usize, lookahead: LookaheadMode) -> Run {
        Run {
            engine: EngineKind::Sharded { threads, lookahead },
            ..Run::default()
        }
    }

    /// The fabric every workload starts from: this run's timing, fault
    /// plan and recovery policy on a `dims` torus.
    pub fn fabric(&self, dims: TorusDims) -> Fabric {
        Fabric::with_recovery(dims, self.timing.clone(), self.fault.clone(), self.recovery)
    }
}

/// What the observers of a run saw. Fields stay empty for observers
/// the [`Run`] did not ask for.
#[derive(Debug, Clone, Default)]
pub struct Observed {
    /// The sharded engine's runtime profile ([`Run::profile`]).
    pub profile: Option<ParProfile>,
    /// The finalized streaming summary ([`ObsMode::Stream`]); sharded
    /// summaries are merged and equal the sequential one exactly.
    pub stream: Option<StreamSummary>,
    /// Memory footprint of the stream observer(s).
    pub footprint: Option<StreamFootprint>,
    /// Every flight-recorder event in time order ([`ObsMode::Flight`]);
    /// sharded streams are merged by `(time, shard)`.
    pub flight: Vec<FlightEvent>,
}

// One value per run, never stored in bulk: boxing a variant would only
// add a heap allocation to every run.
#[allow(clippy::large_enum_variant)]
enum Sim<P: NodeProgram> {
    Seq(Simulation<P>),
    Par(ParSimulation<P>),
}

/// A finished run, read the same way on either engine.
pub struct Executed<P: NodeProgram> {
    sim: Sim<P>,
    obs: ObsMode,
    /// How the guarded run ended.
    pub report: RunReport,
}

/// Run the machine `run` describes on `fabric` (built once; the
/// sharded engine gives each shard a [`Fabric::replica`] of it) with
/// `make_node` (a pure function of the node id) as the node programs:
/// attach the observers and run to quiescence under the stall guard
/// with an event budget of `max_events`.
pub fn execute<P: NodeProgram + Send>(
    run: &Run,
    mut fabric: Fabric,
    make_node: impl FnMut(NodeId) -> P,
    max_events: u64,
) -> Executed<P> {
    let mut sim = match run.engine {
        EngineKind::Sequential => {
            match run.obs {
                ObsMode::Off => {}
                ObsMode::Flight => fabric.attach_owned_flight_recorder(),
                ObsMode::Stream => fabric.attach_stream_observer(run.stream),
            }
            Sim::Seq(Simulation::new(fabric, make_node))
        }
        EngineKind::Sharded { threads, lookahead } => {
            let mut sim = ParSimulation::new(threads, fabric, make_node);
            sim.set_lookahead_mode(lookahead);
            if run.profile {
                sim.enable_runtime_profiling();
            }
            match run.obs {
                ObsMode::Off => {}
                ObsMode::Flight => sim.attach_flight_recorders(),
                ObsMode::Stream => sim.attach_stream_observers(run.stream),
            }
            Sim::Par(sim)
        }
    };
    let horizon = SimTime(u64::MAX / 2);
    let report = match &mut sim {
        Sim::Seq(s) => s.run_guarded(horizon, max_events),
        Sim::Par(s) => s.run_guarded(horizon, max_events),
    };
    Executed {
        sim,
        obs: run.obs,
        report,
    }
}

impl<P: NodeProgram + Send> Executed<P> {
    /// Total DES events processed (the sharded engine counts one extra
    /// `Start` per shard).
    pub fn events(&self) -> u64 {
        match &self.sim {
            Sim::Seq(s) => s.events_processed(),
            Sim::Par(s) => s.events_processed(),
        }
    }

    /// Machine-wide fabric statistics (merged across shards).
    pub fn stats(&self) -> NetStats {
        match &self.sim {
            Sim::Seq(s) => s.world.fabric.stats.clone(),
            Sim::Par(s) => s.merged_stats(),
        }
    }

    /// Machine-wide recovery counters (summed across shards).
    pub fn recovery_stats(&self) -> RecoveryStats {
        match &self.sim {
            Sim::Seq(s) => *s.world.fabric.recovery_stats(),
            Sim::Par(s) => s.merged_recovery_stats(),
        }
    }

    /// Failure verdicts ordered by `(time, node, link)` on the sharded
    /// engine, in reach order on the sequential one.
    pub fn verdicts(&self) -> Vec<FailureVerdict> {
        match &self.sim {
            Sim::Seq(s) => s.world.fabric.verdicts().to_vec(),
            Sim::Par(s) => s.merged_verdicts(),
        }
    }

    /// The program instance that ran for `node`.
    pub fn program(&self, node: NodeId) -> &P {
        match &self.sim {
            Sim::Seq(s) => s.world.program(node),
            Sim::Par(s) => s.program(node),
        }
    }

    /// Hand over what the observers saw.
    pub fn into_observed(self) -> Observed {
        match self.sim {
            Sim::Seq(s) => {
                let fabric = &s.world.fabric;
                let stream = fabric.stream_observer();
                Observed {
                    profile: None,
                    stream: stream.map(|o| {
                        let mut summary = o.summary();
                        summary.finalize();
                        summary
                    }),
                    footprint: stream.map(|o| o.footprint()),
                    flight: fabric
                        .flight_recorder()
                        .map(|r| r.events().cloned().collect())
                        .unwrap_or_default(),
                }
            }
            Sim::Par(mut s) => Observed {
                profile: s.take_runtime_profile(),
                stream: s.merged_stream_summary(),
                footprint: s.stream_footprint(),
                flight: if self.obs == ObsMode::Flight {
                    s.merged_flight_events()
                } else {
                    Vec::new()
                },
            },
        }
    }
}
