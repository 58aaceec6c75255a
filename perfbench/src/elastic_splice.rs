//! `elastic-splice`: one 512-layer gpt3-28b-geometry engine on 64 servers,
//! driven through a seeded cycle of `splice_resize` targets and back to 64,
//! then `run_online` over seeded `fault::mtbf_cluster_events`.
//!
//! The only workload where the incremental `Planner` replans at scale. Each
//! splice re-runs Trace and Shard before the Planner, so it uses the
//! planning layers incrementally where `plan-cold` uses them cold. The seed
//! orders the splice targets (each size twice, so every seed times the same
//! set of splices) and draws the cluster events. The timed cycle repeats
//! until the measuring time is spent; the `run_online` passes follow it.

use crate::host::{HostRef, Series};
use crate::plan_cold::{by_layers, geometry};
use crate::stages::{
    growth, plan_stages, probe_engine_layers, service_probe, splice_config, Layers,
};
use crate::stats::{timed, Rng, Samples};
use crate::{Opts, Report};
use angel_core::fault::mtbf_cluster_events;
use angel_core::{ClusterEvent, Engine, EngineConfig, IterStats};
use angel_model::TransformerConfig;
use angel_service::JobSpec;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

const FLEET: usize = 64;
const TARGETS: [usize; 4] = [32, 40, 48, 56];
const ONLINE_ITERS: usize = 200;
/// Independent event streams `run_online` is driven through; their pooled
/// goodput is the workload's simulated throughput.
const ONLINE_STREAMS: usize = 4;
/// Fleet mean time to failure, in iterations of the 64-server plan.
const MTTF_ITERS: f64 = 20.0;
const SETUP_REPS: usize = 9;

/// Every target twice in a seeded order with no size repeated back to
/// back, starting from and returning to the full fleet.
fn cycle(rng: &mut Rng) -> Vec<usize> {
    loop {
        let mut order: Vec<usize> = TARGETS.iter().chain(&TARGETS).copied().collect();
        rng.shuffle(&mut order);
        if order.windows(2).all(|w| w[0] != w[1]) {
            order.push(FLEET);
            return order;
        }
    }
}

/// Set-up: plan the full-fleet engine, run its first iteration, draw the
/// seeded splice order and cluster-event streams.
fn set_up(
    seed: u64,
    model: &TransformerConfig,
    config: &EngineConfig,
) -> (Engine, IterStats, Vec<usize>, Vec<Vec<ClusterEvent>>) {
    let mut engine = Engine::initialize(model, config).expect("elastic geometry plans");
    let first = engine.train_iteration();
    let mut rng = Rng::new(seed);
    let targets = cycle(&mut rng);
    let iter_s = first.iter_time_ns as f64 / 1e9;
    let streams = (0..ONLINE_STREAMS)
        .map(|_| {
            mtbf_cluster_events(
                rng.next_u64(),
                ONLINE_ITERS,
                first.iter_time_ns,
                MTTF_ITERS * iter_s,
                FLEET,
            )
        })
        .collect();
    (engine, first, targets, streams)
}

pub fn run(opts: &Opts, r: &mut Report) {
    let (model, config) = geometry(FLEET);
    // The traced run reports raw wall times; only the untraced one is
    // scaled to the host reference.
    let mut host = HostRef::new(!opts.trace);
    let mut setup = Series::default();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        last = Some(host.set_up(&mut setup, || set_up(opts.seed, &model, &config)));
    }
    let (mut engine, first, targets, streams) = last.expect("at least one set-up");
    r.note(format!(
        "splice targets {targets:?}; cluster events per stream {:?} over {ONLINE_ITERS} iterations",
        streams.iter().map(Vec::len).collect::<Vec<_>>()
    ));

    let mut layers = Layers::default();
    // The engine's planner session, mirrored for the staged rebuilds.
    let mut planner = None;
    if opts.trace {
        let cold_ms = timed(|| Engine::initialize(&model, &config)).1;
        let (s, staged_ms) = timed(|| plan_stages(&model, &config, &mut planner));
        r.check(s.schedule.as_ref().ok() == Some(engine.schedule()), || {
            "staged rebuild differs from Engine::initialize".into()
        });
        layers.schedule_ms.push(s.schedule_ms);
        r.note(format!(
            "set-up initialize {cold_ms:.3} ms, staged rebuild {staged_ms:.3} ms"
        ));
    }
    // Per fleet size, the stats of the first iteration after a splice to it.
    let mut after: BTreeMap<usize, IterStats> = BTreeMap::from([(FLEET, first)]);
    let (mut untraced, mut traced) = (Series::default(), Samples::default());
    let budget = Duration::from_secs_f64(opts.seconds);
    let t0 = Instant::now();
    let mut boundary = 0;
    while boundary == 0 || t0.elapsed() < budget {
        for &servers in &targets {
            let config = splice_config(&engine, servers);
            let spliced = host.measure(&mut untraced, || engine.splice_resize(boundary, servers));
            boundary += 1;
            if let Err(e) = spliced {
                r.check(false, || format!("splice_resize to {servers}: {e}"));
                continue;
            }
            let stats = engine.train_iteration();
            let expected = *after.entry(servers).or_insert(stats);
            r.check(stats == expected, || {
                format!("iteration after a splice to {servers} servers differs from the first one")
            });
            if opts.trace {
                let (s, ms) = match config {
                    Ok(c) => timed(|| plan_stages(&model, &c, &mut planner)),
                    Err(e) => {
                        r.check(false, || format!("splice config: {e}"));
                        continue;
                    }
                };
                traced.push(ms);
                r.check(s.schedule.as_ref().ok() == Some(engine.schedule()), || {
                    format!("staged replan to {servers} servers differs from splice_resize")
                });
                layers.add_plan(&s);
            }
        }
    }
    let t1 = Instant::now();
    host.settle();
    if !opts.trace {
        r.op_latency("Engine::splice_resize", &untraced, &host);
        r.throughput(untraced.len(), &host, t0, t1);
        let goodput = online_goodput(&mut engine, &streams, boundary, r);
        r.metric("sim_samples_per_s", goodput);
        r.common(&setup, &host);
        return;
    }

    let op = untraced.raw().median("splice_resize");
    let stage_sum = layers.trace_ms.median("trace")
        + layers.shard_ms.median("shard")
        + layers.memory_ms.median("memory")
        + layers.replan_ms.median("replan");
    layers.residual_ms = Some(op - stage_sum);
    layers.tracing_overhead_ms = Some(traced.median("staged splice") - op);
    layers.growth = Some(growth(by_layers, 8 * FLEET, 3));
    probe_engine_layers(&mut layers, &mut engine, &model, FLEET / 2, r);
    let spec = JobSpec::new("elastic-splice", model, 2).with_servers(FLEET, FLEET / 2);
    layers.service = Some(service_probe(spec, FLEET, first.iter_time_ns, true, r));
    layers.emit(r);
}

/// Drive `run_online` through every event stream from the full fleet and
/// return the pooled goodput (samples over simulated time). The first
/// stream runs twice: both runs must report the same iterations.
fn online_goodput(
    engine: &mut Engine,
    streams: &[Vec<ClusterEvent>],
    mut boundary: usize,
    r: &mut Report,
) -> f64 {
    let (mut samples, mut time_ns) = (0.0, 0.0);
    let mut first_run = None;
    for (k, events) in streams.iter().chain(streams.first()).enumerate() {
        if let Err(e) = engine.splice_resize(boundary, FLEET) {
            r.check(false, || format!("splice back to {FLEET} servers: {e}"));
            continue;
        }
        boundary += 1;
        match engine.run_online(ONLINE_ITERS, events) {
            Ok(rep) => {
                r.check(rep.per_iter.len() == ONLINE_ITERS, || {
                    "run_online cut short".into()
                });
                if k == streams.len() {
                    r.check(Some(&rep.per_iter) == first_run.as_ref(), || {
                        "run_online differs on a repeated event stream".into()
                    });
                    continue;
                }
                if k == 0 {
                    first_run = Some(rep.per_iter.clone());
                }
                let t = rep.total_time_ns as f64;
                samples += rep.samples_per_sec * t / 1e9;
                time_ns += t;
            }
            Err(e) => r.check(false, || format!("run_online: {e}")),
        }
    }
    samples / (time_ns / 1e9)
}
