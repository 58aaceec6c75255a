//! `plan-cold`: repeated cold `Engine::initialize` of BENCH_scale's
//! weak-scaled gpt3-28b point at 128 servers (1024 layers, batch 1, ZeRO-3).
//!
//! Planning dominates (ShardPlan most of all); the one `train_iteration`
//! after each plan is an output check, and lowering plus the simulator do
//! under 1% of the work. The geometry has no random part: the seed does not
//! change the inputs.

use crate::host::{HostRef, Series};
use crate::stages::{growth, plan_stages, probe_engine_layers, service_probe, Layers};
use crate::stats::{timed, Samples};
use crate::{Opts, Report};
use angel_core::{Engine, EngineConfig, IterStats};
use angel_model::TransformerConfig;
use angel_service::JobSpec;
use std::time::{Duration, Instant};

const SERVERS: usize = 128;
const SETUP_REPS: usize = 3;

/// BENCH_scale's weak-scaled geometry: 8 gpt3-28b layers per server.
pub fn geometry(servers: usize) -> (TransformerConfig, EngineConfig) {
    (
        TransformerConfig::gpt3_28b().with_layers(8 * servers),
        EngineConfig::servers(servers).with_batch_size(1),
    )
}

/// [`geometry`] by layer count.
pub fn by_layers(layers: usize) -> (TransformerConfig, EngineConfig) {
    geometry(layers / 8)
}

/// Set-up: plan the reference engine and run its first iteration, the
/// output every timed plan is checked against. Repeated `SETUP_REPS` times.
fn setup(host: &mut HostRef) -> (Engine, IterStats, Series) {
    let (model, config) = geometry(SERVERS);
    let mut setup = Series::default();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        last = Some(host.set_up(&mut setup, || {
            let mut engine = Engine::initialize(&model, &config).expect("benchmark geometry plans");
            let stats = engine.train_iteration();
            (engine, stats)
        }));
    }
    let (engine, stats) = last.expect("at least one set-up");
    (engine, stats, setup)
}

pub fn run(opts: &Opts, r: &mut Report) {
    let (model, config) = geometry(SERVERS);
    // The traced run reports raw wall times; only the untraced one is
    // scaled to the host reference.
    let mut host = HostRef::new(!opts.trace);
    let (mut reference, ref_stats, setup) = setup(&mut host);
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut layers = Layers::default();
    let (mut untraced, mut traced) = (Series::default(), Samples::default());
    let t0 = Instant::now();
    let mut attempts = 0;
    while attempts == 0 || t0.elapsed() < budget {
        attempts += 1;
        let planned = host.measure(&mut untraced, || Engine::initialize(&model, &config));
        let mut engine = match planned {
            Ok(e) => e,
            Err(e) => {
                r.check(false, || format!("Engine::initialize: {e}"));
                continue;
            }
        };
        let same_plan = engine.schedule() == reference.schedule();
        let stats = engine.train_iteration();
        r.check(same_plan && stats == ref_stats, || {
            "cold plan or its iteration differs from the reference".into()
        });
        if opts.trace {
            let (stages, ms) = timed(|| plan_stages(&model, &config, &mut None));
            traced.push(ms);
            r.check(
                stages.schedule.as_ref().ok() == Some(engine.schedule()),
                || "staged rebuild differs from Engine::initialize".into(),
            );
            layers.add_plan(&stages);
        }
    }
    let t1 = Instant::now();
    host.settle();
    if !opts.trace {
        r.op_latency("Engine::initialize", &untraced, &host);
        r.throughput(untraced.len(), &host, t0, t1);
        r.metric("sim_samples_per_s", ref_stats.samples_per_sec);
        r.common(&setup, &host);
        return;
    }

    let stage_sum = layers.trace_ms.median("trace")
        + layers.shard_ms.median("shard")
        + layers.memory_ms.median("memory")
        + layers.schedule_ms.median("schedule");
    let op = untraced.raw().median("initialize");
    layers.residual_ms = Some(op - stage_sum);
    layers.tracing_overhead_ms = Some(traced.median("staged initialize") - op);
    layers.growth = Some(growth(by_layers, 8 * SERVERS, 3));
    probe_engine_layers(&mut layers, &mut reference, &model, SERVERS / 2, r);
    let spec = JobSpec::new("plan-cold", model, 2).with_servers(SERVERS, SERVERS);
    layers.service = Some(service_probe(
        spec,
        SERVERS,
        ref_stats.iter_time_ns,
        true,
        r,
    ));
    layers.emit(r);
}
