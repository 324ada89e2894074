//! Property tests: the parallel engine is bit-identical to its 1-thread
//! run at every thread count, under randomized
//! workloads with same-timestamp chains, `now_event` calls, and
//! cross-shard traffic at the lookahead bound.

use anton_des::par::{LookaheadMatrix, LookaheadMode, ParEngine, ShardMap};
use anton_des::{EventHandler, RunOutcome, Scheduler, SimDuration, SimTime};
use proptest::prelude::*;

const LOOK_NS: u64 = 54;

#[derive(Debug, Clone)]
struct Msg {
    shard: usize,
    depth: u32,
    tag: u64,
}

struct Map {
    n: usize,
}

impl ShardMap<Msg> for Map {
    fn shard_count(&self) -> usize {
        self.n
    }
    fn shard_of(&self, ev: &Msg) -> usize {
        ev.shard
    }
    fn lookahead(&self) -> SimDuration {
        SimDuration::from_ns(LOOK_NS)
    }
}

/// Splittable hash so handler behavior is a pure function of the event —
/// the "randomness" in the workload reproduces identically however the
/// event reaches the handler.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Each event spawns 0–2 children: possibly a local child at a small
/// (often zero) delay, possibly a cross-shard child at the lookahead
/// bound plus jitter. Every shard logs (time, tag, depth).
struct World {
    shard: usize,
    nshards: usize,
    log: Vec<(u64, u64, u32)>,
}

impl EventHandler<Msg> for World {
    fn handle(&mut self, ev: Msg, sched: &mut Scheduler<Msg>) {
        assert_eq!(ev.shard, self.shard);
        self.log.push((sched.now().as_ps(), ev.tag, ev.depth));
        if ev.depth == 0 {
            return;
        }
        let h = mix(ev.tag, sched.now().as_ps());
        if h & 1 == 0 {
            // Local child; delay 0 exercises same-timestamp FIFO chains.
            let delay = SimDuration::from_ps((h >> 8) % 3_000);
            sched.after(
                delay,
                Msg {
                    shard: self.shard,
                    depth: ev.depth - 1,
                    tag: mix(h, 11),
                },
            );
        }
        if h & 2 == 0 && self.nshards > 1 {
            let dst = (self.shard + 1 + (h >> 16) as usize % (self.nshards - 1)) % self.nshards;
            let delay = SimDuration::from_ps(LOOK_NS * 1_000 + (h >> 24) % 40_000);
            sched.after(
                delay,
                Msg {
                    shard: dst,
                    depth: ev.depth - 1,
                    tag: mix(h, 13),
                },
            );
        }
        if h & 4 == 0 {
            sched.now_event(Msg {
                shard: self.shard,
                depth: 0,
                tag: mix(h, 17),
            });
        }
    }
}

#[allow(clippy::type_complexity)]
fn run(
    threads: usize,
    nshards: usize,
    seeds: &[(u64, usize, u32)],
    horizon: SimTime,
    budget: u64,
) -> (RunOutcome, Vec<Vec<(u64, u64, u32)>>, u64, SimTime) {
    let mut eng = ParEngine::new(Map { n: nshards }, threads);
    let mut worlds: Vec<World> = (0..nshards)
        .map(|s| World {
            shard: s,
            nshards,
            log: Vec::new(),
        })
        .collect();
    for (i, &(t_ns, shard, depth)) in seeds.iter().enumerate() {
        eng.schedule_at(
            SimTime::from_ns(t_ns),
            Msg {
                shard: shard % nshards,
                depth,
                tag: mix(i as u64, 997),
            },
        );
    }
    let out = eng.run_until(&mut worlds, horizon, budget);
    (
        out,
        worlds.into_iter().map(|w| w.log).collect(),
        eng.events_processed(),
        eng.now(),
    )
}

/// A map with randomized per-pair direct bounds along a forward ring
/// (everything else unreachable), at least the global floor. The bounds
/// are a pure function of `(salt, src)`, so the paired world can respect
/// them exactly.
struct JitterMap {
    n: usize,
    salt: u64,
}

impl JitterMap {
    fn bound_ps(&self, src: usize) -> u64 {
        LOOK_NS * 1_000 + mix(self.salt, src as u64) % 50_000
    }
}

impl ShardMap<Msg> for JitterMap {
    fn shard_count(&self) -> usize {
        self.n
    }
    fn shard_of(&self, ev: &Msg) -> usize {
        ev.shard
    }
    fn lookahead(&self) -> SimDuration {
        SimDuration::from_ns(LOOK_NS)
    }
    fn lookahead_matrix(&self) -> LookaheadMatrix {
        let mut m = LookaheadMatrix::unreachable(self.n);
        for a in 0..self.n {
            m.set(a, (a + 1) % self.n, SimDuration(self.bound_ps(a)));
        }
        m
    }
}

/// Like [`World`] but cross-shard children go only forward along the
/// ring, delayed by that pair's declared bound plus jitter — so the
/// engine's per-pair runtime assertion stays armed and never fires.
struct MatrixWorld {
    shard: usize,
    nshards: usize,
    salt: u64,
    log: Vec<(u64, u64, u32)>,
}

impl EventHandler<Msg> for MatrixWorld {
    fn handle(&mut self, ev: Msg, sched: &mut Scheduler<Msg>) {
        assert_eq!(ev.shard, self.shard);
        self.log.push((sched.now().as_ps(), ev.tag, ev.depth));
        if ev.depth == 0 {
            return;
        }
        let h = mix(ev.tag, sched.now().as_ps());
        if h & 1 == 0 {
            sched.after(
                SimDuration::from_ps((h >> 8) % 3_000),
                Msg {
                    shard: self.shard,
                    depth: ev.depth - 1,
                    tag: mix(h, 11),
                },
            );
        }
        if h & 2 == 0 && self.nshards > 1 {
            let bound = JitterMap {
                n: self.nshards,
                salt: self.salt,
            }
            .bound_ps(self.shard);
            sched.after(
                SimDuration(bound + (h >> 24) % 40_000),
                Msg {
                    shard: (self.shard + 1) % self.nshards,
                    depth: ev.depth - 1,
                    tag: mix(h, 13),
                },
            );
        }
    }
}

#[allow(clippy::type_complexity)]
fn run_matrix(
    threads: usize,
    nshards: usize,
    salt: u64,
    mode: LookaheadMode,
    seeds: &[(u64, usize, u32)],
) -> (RunOutcome, Vec<Vec<(u64, u64, u32)>>, u64, SimTime) {
    let mut eng = ParEngine::new(JitterMap { n: nshards, salt }, threads);
    eng.set_lookahead_mode(mode);
    let mut worlds: Vec<MatrixWorld> = (0..nshards)
        .map(|s| MatrixWorld {
            shard: s,
            nshards,
            salt,
            log: Vec::new(),
        })
        .collect();
    for (i, &(t_ns, shard, depth)) in seeds.iter().enumerate() {
        eng.schedule_at(
            SimTime::from_ns(t_ns),
            Msg {
                shard: shard % nshards,
                depth,
                tag: mix(i as u64, 997),
            },
        );
    }
    let out = eng.run_until(&mut worlds, SimTime(u64::MAX), u64::MAX);
    (
        out,
        worlds.into_iter().map(|w| w.log).collect(),
        eng.events_processed(),
        eng.now(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Unbounded runs agree bit-for-bit at 1, 2, 4, and 8 threads.
    #[test]
    fn parallel_matches_sequential(
        nshards in 1usize..6,
        s0 in 0u64..200, s1 in 0u64..200, s2 in 0u64..200,
        d0 in 1u32..12, d1 in 1u32..12, d2 in 1u32..12,
        p0 in 0usize..6, p1 in 0usize..6, p2 in 0usize..6,
    ) {
        let seeds = [(s0, p0, d0), (s1, p1, d1), (s2, p2, d2)];
        let reference = run(1, nshards, &seeds, SimTime(u64::MAX), u64::MAX);
        for threads in [2, 4, 8] {
            let par = run(threads, nshards, &seeds, SimTime(u64::MAX), u64::MAX);
            prop_assert_eq!(&reference, &par, "diverged at {} threads", threads);
        }
        prop_assert_eq!(reference.0, RunOutcome::Drained);
    }

    /// Bounded runs (horizon and event budget) stop at the same point and
    /// with the same state at every thread count.
    #[test]
    fn bounded_runs_agree(
        nshards in 2usize..5,
        s0 in 0u64..100, s1 in 0u64..100,
        d0 in 4u32..14, d1 in 4u32..14,
        horizon_ns in 50u64..600,
        budget in 1u64..60,
    ) {
        let seeds = [(s0, 0, d0), (s1, 1, d1)];
        let h = SimTime::from_ns(horizon_ns);
        let by_horizon = run(1, nshards, &seeds, h, u64::MAX);
        let by_budget = run(1, nshards, &seeds, SimTime(u64::MAX), budget);
        for threads in [2, 4] {
            prop_assert_eq!(&by_horizon, &run(threads, nshards, &seeds, h, u64::MAX));
            prop_assert_eq!(&by_budget, &run(threads, nshards, &seeds, SimTime(u64::MAX), budget));
        }
        // Nothing past the horizon fired.
        for &(t, _, _) in by_horizon.1.iter().flatten() {
            prop_assert!(t <= h.as_ps());
        }
    }

    /// Under random per-pair matrices, adaptive and global-bound windows
    /// produce bit-identical results at every thread count — and the
    /// per-pair runtime assertion (armed in both modes) never fires,
    /// i.e. no event crosses shards faster than the matrix claims.
    #[test]
    fn adaptive_matrix_matches_global_at_every_thread_count(
        nshards in 2usize..6,
        salt in 0u64..u64::MAX,
        s0 in 0u64..200, s1 in 0u64..200,
        d0 in 1u32..12, d1 in 1u32..12,
        p0 in 0usize..6, p1 in 0usize..6,
    ) {
        let seeds = [(s0, p0, d0), (s1, p1, d1)];
        let reference = run_matrix(1, nshards, salt, LookaheadMode::Global, &seeds);
        for threads in [1, 2, 4, 8] {
            let adaptive = run_matrix(threads, nshards, salt, LookaheadMode::Adaptive, &seeds);
            prop_assert_eq!(&reference, &adaptive, "adaptive diverged at {} threads", threads);
            if threads > 1 {
                let global = run_matrix(threads, nshards, salt, LookaheadMode::Global, &seeds);
                prop_assert_eq!(&reference, &global, "global diverged at {} threads", threads);
            }
        }
        // Every adaptive per-pair bound dominates the global floor, so
        // the closure the windows use can never dip below it.
        let m = JitterMap { n: nshards, salt }.lookahead_matrix();
        let dist = m.closure_ps();
        for a in 0..nshards {
            for b in 0..nshards {
                if a != b {
                    prop_assert!(dist[a * nshards + b] >= LOOK_NS * 1_000);
                }
            }
        }
    }
}
