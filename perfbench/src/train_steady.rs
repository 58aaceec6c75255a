//! `train-steady`: back-to-back `train_iteration` calls on one T5-MoE-1.2T
//! engine on 8 servers with SSD, batch 8 (the Table 6 regime), planned
//! during set-up.
//!
//! Lowering and the simulator do almost all the timed work and planning
//! none, so this is where planning changes should show no change and where
//! lowering, simulator and recorder changes show. The configuration has no
//! random part: the seed does not change the inputs.

use crate::host::{HostRef, Series};
use crate::stages::{growth, iter_stages, plan_stages, probe_engine_layers, service_probe, Layers};
use crate::stats::{timed, Samples};
use crate::{Opts, Report};
use angel_core::{Engine, EngineConfig};
use angel_model::TransformerConfig;
use angel_service::JobSpec;
use std::time::{Duration, Instant};

const SERVERS: usize = 8;
const BATCH: u64 = 8;
const SETUP_REPS: usize = 9;

fn geometry(layers: usize) -> (TransformerConfig, EngineConfig) {
    (
        TransformerConfig::t5_moe_1_2t().with_layers(layers),
        EngineConfig::servers(SERVERS)
            .with_batch_size(BATCH)
            .with_ssd(true),
    )
}

pub fn run(opts: &Opts, r: &mut Report) {
    let layers_full = TransformerConfig::t5_moe_1_2t().layers;
    let (model, config) = geometry(layers_full);
    // The traced run reports raw wall times; only the untraced one is
    // scaled to the host reference.
    let mut host = HostRef::new(!opts.trace);
    let mut setup = Series::default();
    let mut layers = Layers::default();
    let mut init_ms = Samples::default();
    let mut staged_init_ms = Samples::default();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let (engine, first) = host.set_up(&mut setup, || {
            let mut engine = Engine::initialize(&model, &config).expect("MoE engine plans");
            let first = engine.train_iteration();
            (engine, first)
        });
        if opts.trace {
            // The plan half of set-up, decomposed: Engine::initialize
            // against its staged rebuild.
            init_ms.push(timed(|| Engine::initialize(&model, &config)).1);
            let (stages, ms) = timed(|| plan_stages(&model, &config, &mut None));
            staged_init_ms.push(ms);
            r.check(
                stages.schedule.as_ref().ok() == Some(engine.schedule()),
                || "staged rebuild differs from Engine::initialize".into(),
            );
            layers.add_plan(&stages);
        }
        last = Some((engine, first));
    }
    let (mut engine, first) = last.expect("at least one set-up");

    let budget = Duration::from_secs_f64(opts.seconds);
    let (mut untraced, mut traced) = (Series::default(), Samples::default());
    let t0 = Instant::now();
    while untraced.len() == 0 || t0.elapsed() < budget {
        let stats = host.measure(&mut untraced, || engine.train_iteration());
        r.check(stats == first, || {
            "iteration stats differ from the first iteration's".into()
        });
        if opts.trace {
            let (s, ms) = timed(|| iter_stages(&engine));
            traced.push(ms);
            r.check(s.iter_time_ns == first.iter_time_ns, || {
                "staged iteration time differs from train_iteration".into()
            });
            layers.add_iter(s);
        }
    }
    let t1 = Instant::now();
    host.settle();
    if !opts.trace {
        r.op_latency("Engine::train_iteration", &untraced, &host);
        r.throughput(untraced.len(), &host, t0, t1);
        r.metric("sim_samples_per_s", first.samples_per_sec);
        r.common(&setup, &host);
        return;
    }

    let op = untraced.raw().median("train_iteration");
    layers.residual_ms = Some(op - layers.lower_ms.median("lower") - layers.sim_ms.median("sim"));
    layers.tracing_overhead_ms = Some(traced.median("staged iteration") - op);
    r.note(format!(
        "set-up initialize: {:.3} ms, staged rebuild {:.3} ms",
        init_ms.median("initialize"),
        staged_init_ms.median("staged initialize")
    ));
    layers.growth = Some(growth(geometry, layers_full, 3));
    probe_engine_layers(&mut layers, &mut engine, &model, 2 * SERVERS, r);
    // Service slices carry no SSD, so the service cannot place this model:
    // the probe measures a typed rejection.
    let spec = JobSpec::new("train-steady", model, 2)
        .with_servers(SERVERS, SERVERS)
        .with_batch_size(BATCH);
    layers.service = Some(service_probe(spec, SERVERS, first.iter_time_ns, false, r));
    layers.emit(r);
}
