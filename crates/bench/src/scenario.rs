//! Execute a [`ScenarioSpec`] on the engine and reduce the run to its
//! provenance pair: a thread-invariant engine fingerprint plus an
//! [`ObservatoryReport`] of everything observed.
//!
//! This is the glue between `anton-scenario` (which owns the spec
//! model and ledger formats but none of the workload wiring) and the
//! simulation crates. The `scenario` CLI and the ported bench binaries
//! both run workloads through here, so a spec hash always denotes the
//! same execution.
//!
//! Fingerprint recipes are chosen to be **thread-invariant**: they
//! cover only observables the sequential and sharded engines agree on
//! bit-for-bit (simulated times, per-node checksums and traffic
//! counts), never bookkeeping like total DES event counts, which differ
//! by one `Start` event per shard. `scenario run` exploits this by
//! executing every spec at 1 and 4 threads and refusing to write a
//! ledger record unless the fingerprints match.

use anton_collectives::{
    all_reduce, all_reduce_recovering, random_inputs, CollectiveParams, RecoveringParams,
};
use anton_core::{md_exchange, MdExchangeOutcome};
use anton_des::SimTime;
use anton_net::{EngineKind, ObsMode, Run};
use anton_obs::runtime::RuntimeSummary;
use anton_obs::{
    fold_lifecycles, BreakdownSummary, Fingerprint, ObservatoryReport, Section, Stage, SEC_RECOVERY,
};
use anton_scenario::{ScenarioSpec, Workload};
use std::collections::BTreeMap;

use crate::microbench::ping_pong;

/// The provenance-relevant result of executing one spec.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Thread-invariant engine fingerprint, 16-hex.
    pub fingerprint: String,
    /// Everything observed during the run.
    pub observatory: ObservatoryReport,
}

/// Run `spec`'s workload at the given worker-thread count and reduce
/// it to a [`ScenarioOutcome`]. The spec's own `threads` field is the
/// *default* run configuration; callers probing determinism pass
/// explicit counts.
pub fn run_scenario(spec: &ScenarioSpec, threads: usize) -> ScenarioOutcome {
    let dims = spec.torus_dims();
    let run = spec.run(threads);
    let label = format!("scenario {} ({})", spec.name, spec.hash_hex());
    let mut obs = ObservatoryReport::new(&label);

    let fingerprint = match &spec.workload {
        Workload::MdExchange { .. } => {
            let params = spec.md_params().expect("md workload");
            let profiled = Run {
                obs: ObsMode::Off,
                profile: true,
                ..run.clone()
            };
            let (out, seen) = md_exchange(dims, params, &profiled);
            let profile = seen.profile.expect("profiling was enabled");
            obs.metrics
                .set("md_makespan_us", (out.makespan - SimTime::ZERO).as_us_f64());
            RuntimeSummary::from_profile(&profile).record_into(&mut obs.metrics, "md");
            let mut runtime = BTreeMap::new();
            runtime.insert("windows".to_owned(), profile.windows as f64);
            runtime.insert(
                "recovered_events".to_owned(),
                profile.recovered_events as f64,
            );
            runtime.insert(
                "extended_shard_windows".to_owned(),
                profile.extended_shard_windows as f64,
            );
            obs.set_section("runtime", Section::values(runtime));

            if run.obs == ObsMode::Stream {
                // Re-run under the bounded-memory observer: the summary
                // feeds a section, and the zero-observer-effect contract
                // is asserted right here.
                let (sout, seen) = md_exchange(dims, params, &run);
                let summary = seen.stream.expect("stream observers attached");
                assert_eq!(sout.makespan, out.makespan, "stream observer effect");
                assert_eq!(sout.checksums, out.checksums, "stream observer effect");
                let mut stream = BTreeMap::new();
                stream.insert("complete_folds".to_owned(), summary.fold.complete as f64);
                stream.insert("retransmits".to_owned(), summary.retransmits as f64);
                stream.insert(
                    "e2e_p99_ns".to_owned(),
                    summary.e2e_sketch.quantile_ns(0.99),
                );
                obs.set_section("stream", Section::values(stream));
            }
            md_fingerprint(&out)
        }
        Workload::AllReduce {
            algorithm,
            vlen,
            seed,
            reps,
        } => {
            let inputs = random_inputs(dims, *vlen as usize, *seed);
            let mut out = None;
            for _ in 0..(*reps).max(1) {
                out = all_reduce(
                    dims,
                    algorithm.algorithm(),
                    CollectiveParams::default(),
                    &inputs,
                    &run,
                )
                .0;
            }
            let out = out.expect("all-reduce completes");
            obs.metrics
                .set("allreduce_latency_us", out.latency.as_us_f64());
            obs.metrics
                .set("allreduce_packets", out.packets_sent as f64);
            obs.metrics
                .set("allreduce_link_traversals", out.link_traversals as f64);
            let mut fp = Fingerprint::new();
            fp.update(&out.latency);
            fp.update(&out.results);
            fp.update(&out.packets_sent);
            fp.update(&out.link_traversals);
            fp.hex()
        }
        Workload::Recovering { vlen, seed, .. } => {
            let inputs = random_inputs(dims, *vlen as usize, *seed);
            let deaths = spec.deaths();
            let (out, _) =
                all_reduce_recovering(dims, &inputs, &deaths, RecoveringParams::default(), &run);
            assert!(out.completed, "recovering collective wedged");
            obs.metrics
                .set("recovering_latency_us", out.latency.as_us_f64());
            let mut values = BTreeMap::new();
            values.insert("latency_us".to_owned(), out.latency.as_us_f64());
            values.insert("verdicts".to_owned(), out.verdicts as f64);
            values.insert("reinjections".to_owned(), out.recovery.reinjections as f64);
            values.insert(
                "duplicates_suppressed".to_owned(),
                out.recovery.duplicates_suppressed as f64,
            );
            values.insert(
                "packets_lost_unrecovered".to_owned(),
                out.recovery.packets_lost_unrecovered as f64,
            );
            obs.set_section(SEC_RECOVERY, Section::values(values));
            format!("{:016x}", out.fingerprint())
        }
        Workload::PingPong {
            from,
            to,
            payload_bytes,
            bidirectional,
            reps,
        } => {
            // The microbenchmark runs sequentially (its breakdown folds
            // the sequential engine's packet numbering), so its
            // fingerprint is trivially thread-invariant.
            let recorded = Run {
                engine: EngineKind::Sequential,
                obs: ObsMode::Flight,
                ..run
            };
            let (latency, seen) = ping_pong(
                dims,
                anton_topo::Coord::new(from.0, from.1, from.2),
                anton_topo::Coord::new(to.0, to.1, to.2),
                *payload_bytes,
                *bidirectional,
                *reps,
                &recorded,
            );
            let latency = latency.expect("ping-pong completes");
            let (lifecycles, _) = fold_lifecycles(seen.flight.iter());
            let summary = BreakdownSummary::from_lifecycles(&lifecycles);
            obs.metrics.set("one_way_ns", latency.as_ns_f64());
            let mut breakdown = BTreeMap::new();
            for stage in Stage::ALL {
                breakdown.insert(format!("{}_ns", stage.name()), summary.mean_ns(stage));
            }
            obs.set_section("breakdown", Section::values(breakdown));
            let mut fp = Fingerprint::new();
            fp.update(&latency);
            fp.update(&summary.packets);
            for stage in Stage::ALL {
                fp.update(&summary.mean_ns(stage).to_bits());
            }
            fp.hex()
        }
    };

    ScenarioOutcome {
        fingerprint,
        observatory: obs,
    }
}

/// The thread-invariant MD-exchange fingerprint: simulated times,
/// checksums, and traffic counts shared bit-exactly by the sequential
/// and sharded engines (total event counts excluded — the sharded
/// engine seeds one `Start` per shard, a bookkeeping difference).
pub fn md_fingerprint(md: &MdExchangeOutcome) -> String {
    let mut fp = Fingerprint::new();
    fp.update(&md.makespan);
    fp.update(&md.checksums);
    fp.update(&md.stats.packets_sent);
    fp.update(&md.stats.packets_delivered);
    fp.update(&md.stats.link_traversals);
    fp.update(&md.stats.sent_by_node);
    fp.update(&md.stats.delivered_by_node);
    fp.hex()
}
