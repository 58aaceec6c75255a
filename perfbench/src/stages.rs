//! Stage-by-stage rebuilds of the engine's operations, timed from outside.
//!
//! Each rebuild calls the same public stage APIs, in the same order, as the
//! engine operation it mirrors (`Engine::initialize`, the splice behind
//! `Engine::splice_resize`, `Engine::train_iteration`, the service's
//! `certify`), timing every call. Callers assert the rebuilt result equals
//! the engine's, so the stage times decompose the real operation rather
//! than a look-alike.

use crate::host::{HostRef, Series};
use crate::stats::{timed, Samples};
use crate::Report;
use angel_core::plan::{MemoryPlan, SchedulePlan, ShardPlan, TracePlan};
use angel_core::scheduler::Schedule;
use angel_core::{Engine, EngineConfig, Error, PlanGraph, Planner, Recorder, ReplanOutcome};
use angel_hw::DeviceId;
use angel_model::TransformerConfig;
use angel_service::{ControlPlane, JobEventKind, JobSpec, ServiceConfig, ServiceReport};

const GIB: f64 = (1u64 << 30) as f64;

/// Timed stages of one plan (initialize or splice). Stages after a failing
/// one read 0 ms.
pub struct PlanStages {
    pub trace_ms: f64,
    pub shard_ms: f64,
    /// `MemoryPlan::build` + `place` + `materialize`.
    pub memory_ms: f64,
    pub schedule_ms: f64,
    pub tensors: usize,
    pub shard_pages: usize,
    pub memory_pages: usize,
    /// What the planner session reused, when this plan was a replan.
    pub replan: Option<ReplanOutcome>,
    pub schedule: Result<Schedule, Error>,
}

/// Rebuild one plan through the staged pipeline. A `planner` holding a
/// session makes this the incremental replan of a splice; `None` makes it
/// the cold plan of `Engine::initialize`.
pub fn plan_stages(
    model: &TransformerConfig,
    config: &EngineConfig,
    planner: &mut Option<Planner>,
) -> PlanStages {
    let mut s = PlanStages {
        trace_ms: 0.0,
        shard_ms: 0.0,
        memory_ms: 0.0,
        schedule_ms: 0.0,
        tensors: 0,
        shard_pages: 0,
        memory_pages: 0,
        replan: None,
        schedule: Err(Error::InvalidParallelism("not planned".into())),
    };
    let (traced, ms) = timed(|| TracePlan::build(model, config));
    s.trace_ms = ms;
    let traced = match traced {
        Ok(t) => t,
        Err(e) => {
            return PlanStages {
                schedule: Err(e),
                ..s
            }
        }
    };
    s.tensors = traced.trace.tensors.len();
    let (shard, ms) = timed(|| ShardPlan::build(model, config, &traced));
    s.shard_ms = ms;
    s.shard_pages = shard.input.layers.iter().map(|l| l.shard_pages.len()).sum();
    let (mem, ms) = timed(|| MemoryPlan::build(config, &shard));
    s.memory_ms = ms;
    let mem = match mem {
        Ok(m) => m,
        Err(e) => {
            return PlanStages {
                schedule: Err(e),
                ..s
            }
        }
    };
    let warm = planner.is_some();
    let (planned, ms) =
        timed(|| SchedulePlan::build_with_planner(config, &shard, &mem, &traced.zero, planner));
    s.schedule_ms = ms;
    let planned = match planned {
        Ok(p) => p,
        Err(e) => {
            return PlanStages {
                schedule: Err(e),
                ..s
            }
        }
    };
    if warm {
        s.replan = planner.as_ref().map(Planner::last_outcome);
    }
    let (allocator, ms) = timed(|| {
        mem.place(config, &shard, &planned)
            .and_then(|placed| mem.materialize(config, model.layers, &placed))
    });
    s.memory_ms += ms;
    match allocator {
        Ok(a) => {
            s.memory_pages = [DeviceId::gpu(0), DeviceId::CPU, DeviceId::SSD]
                .into_iter()
                .filter(|&d| a.has_pool(d))
                .map(|d| a.stats(d).used_pages)
                .sum();
            s.schedule = Ok(planned.schedule);
        }
        Err(e) => s.schedule = Err(e),
    }
    s
}

/// The configuration `Engine::splice_resize` replans onto.
pub fn splice_config(engine: &Engine, servers: usize) -> Result<EngineConfig, Error> {
    let mut config = engine.config().clone();
    config.cluster = config.cluster.resized(servers);
    config.gpu_reserved = engine.baseline_gpu_reserved();
    config.parallelism = config.parallelism.refit(config.cluster.total_gpus())?;
    Ok(config)
}

/// Timed stages of one `train_iteration`: lowering, then the simulator.
pub struct IterStages {
    pub lower_ms: f64,
    pub sim_ms: f64,
    pub tasks: usize,
    /// `report.makespan × pipeline slots`, which `train_iteration` reports
    /// as `iter_time_ns`.
    pub iter_time_ns: u64,
    /// Busy share of each simulated resource, by resource name.
    pub busy: Vec<(String, f64)>,
    pub gpu_idle: f64,
    pub sim_peak_gpu_bytes: u64,
}

pub fn iter_stages(engine: &Engine) -> IterStages {
    let (lowered, lower_ms) = timed(|| engine.lower_iteration());
    let (report, sim_ms) = timed(|| lowered.sim.run());
    let config = engine.config();
    let slots = config.micro_batches + config.parallelism.pp as u64 - 1;
    let busy = lowered
        .sim
        .resources()
        .iter()
        .map(|(id, name)| (name.to_string(), report.utilization(id)))
        .collect();
    IterStages {
        lower_ms,
        sim_ms,
        tasks: lowered.sim.num_tasks(),
        iter_time_ns: (report.makespan * slots).max(1),
        busy,
        gpu_idle: report.idle_fraction(lowered.gpu),
        sim_peak_gpu_bytes: gpu_domain(&lowered.sim, &report.peak_mem),
    }
}

/// The value of the `gpu-mem` domain in a per-domain vector.
fn gpu_domain(sim: &angel_sim::Simulation, per_domain: &[u64]) -> u64 {
    sim.resources()
        .mem_domains()
        .find(|(_, name)| *name == "gpu-mem")
        .and_then(|(d, _)| per_domain.get(d.0).copied())
        .unwrap_or(0)
}

/// Timed plan-graph verification and SPMD certification of one lowering.
pub struct VerifyStages {
    pub plan_ms: f64,
    pub spmd_ms: f64,
    pub peak_bound_bytes: u64,
    pub clean: bool,
}

pub fn verify_stages(engine: &Engine) -> VerifyStages {
    let lowered = engine.lower_iteration();
    let (report, plan_ms) = timed(|| PlanGraph::from_sim(&lowered.sim).verify());
    let mesh = engine.config().device_mesh();
    let (spmd, spmd_ms) =
        timed(|| mesh.map(|m| angel_core::verify::spmd::certify(&lowered.comm_log, &m)));
    let certified = spmd.map(|r| r.is_certified()).unwrap_or(false);
    VerifyStages {
        plan_ms,
        spmd_ms,
        peak_bound_bytes: gpu_domain(&lowered.sim, &report.peak_bounds),
        clean: report.is_clean() && certified,
    }
}

/// Relative cost of an enabled recorder on `train_iteration`: median
/// iteration time with `Recorder::enabled()` attached over the median with
/// it disabled, minus one, over `pairs` alternating pairs.
pub fn recorder_overhead(engine: &mut Engine, pairs: usize) -> f64 {
    let recorder = Recorder::enabled();
    let (mut off, mut on) = (Samples::default(), Samples::default());
    for _ in 0..pairs {
        engine.set_recorder(Recorder::disabled());
        off.push(timed(|| engine.train_iteration()).1);
        engine.set_recorder(recorder.clone());
        on.push(timed(|| engine.train_iteration()).1);
    }
    engine.set_recorder(Recorder::disabled());
    on.median("recorded iteration") / off.median("unrecorded iteration") - 1.0
}

/// A `ControlPlane` driven from outside: one wall time per `advance_to` and
/// per `submit`, then the drained report.
pub struct ServiceRun {
    pub submit_ms: Samples,
    pub advance_ms: Samples,
    pub report: ServiceReport,
}

/// Submit `jobs` (arrival time, spec) in order to a fresh control plane on
/// `servers` servers and drain it. Each submission is also timed into
/// `submits`, and the host reference runs its share of all the work.
pub fn drive_service(
    servers: usize,
    jobs: &[(u64, JobSpec)],
    host: &mut HostRef,
    submits: &mut Series,
) -> ServiceRun {
    let mut cp = ControlPlane::new(&ServiceConfig::new(servers).with_max_queue(jobs.len().max(1)));
    let (mut submit_ms, mut advance_ms) = (Samples::default(), Samples::default());
    for (at_ns, spec) in jobs {
        let ms = timed(|| cp.advance_to(*at_ns)).1;
        advance_ms.push(ms);
        host.pace(ms);
        host.measure(submits, || cp.submit(spec.clone(), *at_ns));
        submit_ms.push(submits.last_ms());
    }
    let (report, ms) = timed(|| cp.into_report());
    host.pace(ms);
    ServiceRun {
        submit_ms,
        advance_ms,
        report,
    }
}

/// Failure accounting of one drained service run, one check per job: a
/// job flagged `feasible` must be admitted under a certificate that fits
/// and complete; any other job must be rejected and never admitted.
pub fn check_service(run: &ServiceRun, feasible: &[bool], r: &mut Report) {
    let n = feasible.len();
    let (mut admitted, mut completed, mut rejected) =
        (vec![false; n], vec![false; n], vec![false; n]);
    for ev in &run.report.events {
        let Some(i) = usize::try_from(ev.job.0).ok().filter(|&i| i < n) else {
            continue;
        };
        match &ev.kind {
            JobEventKind::Admitted { .. } => admitted[i] = true,
            JobEventKind::Completed { .. } => completed[i] = true,
            JobEventKind::Rejected { .. } => rejected[i] = true,
            _ => {}
        }
    }
    let mut unfit = vec![false; n];
    for a in &run.report.admissions {
        if let Some(i) = usize::try_from(a.job.0).ok().filter(|&i| i < n) {
            unfit[i] |= !a.certificate.fits();
        }
    }
    for (i, &ok) in feasible.iter().enumerate() {
        let good = if ok {
            admitted[i] && completed[i] && !rejected[i] && !unfit[i]
        } else {
            rejected[i] && !admitted[i]
        };
        r.check(good, || {
            format!(
                "job {i} (feasible={ok}): admitted={} completed={} rejected={} unfit certificate={}",
                admitted[i], completed[i], rejected[i], unfit[i]
            )
        });
    }
}

/// Per-layer measurements of one traced run. Every field must be filled by
/// the workload: empty sample sets abort the run instead of printing a
/// made-up value.
#[derive(Default)]
pub struct Layers {
    pub trace_ms: Samples,
    pub tensors: usize,
    pub shard_ms: Samples,
    pub shard_pages: usize,
    pub memory_ms: Samples,
    pub memory_pages: usize,
    pub schedule_ms: Samples,
    pub schedule_tasks: usize,
    pub schedule_peak_gpu_bytes: u64,
    pub growth: Option<(f64, f64)>,
    pub replan_ms: Samples,
    pub replans: Vec<ReplanOutcome>,
    pub lower_ms: Samples,
    pub iter: Option<IterStages>,
    pub sim_ms: Samples,
    pub verify_plan_ms: Samples,
    pub verify_spmd_ms: Samples,
    pub peak_bound_bytes: u64,
    pub residual_ms: Option<f64>,
    pub tracing_overhead_ms: Option<f64>,
    pub recorder_overhead: Option<f64>,
    pub service: Option<ServiceRun>,
    /// Summarize the stage samples by their mean instead of their median:
    /// for a mix of operations, the mean is the per-operation share of the
    /// work.
    pub by_mean: bool,
}

impl Layers {
    pub fn add_plan(&mut self, s: &PlanStages) {
        self.trace_ms.push(s.trace_ms);
        self.shard_ms.push(s.shard_ms);
        self.memory_ms.push(s.memory_ms);
        match s.replan {
            Some(outcome) => {
                self.replan_ms.push(s.schedule_ms);
                self.replans.push(outcome);
            }
            None => self.schedule_ms.push(s.schedule_ms),
        }
        // Counts describe the last plan that succeeded.
        if let Ok(schedule) = &s.schedule {
            self.tensors = s.tensors;
            self.shard_pages = s.shard_pages;
            self.memory_pages = s.memory_pages;
            self.schedule_tasks = schedule.tasks.len();
            self.schedule_peak_gpu_bytes = schedule.stats.peak_gpu_bytes;
        }
    }

    /// Record only the replan step of a probe splice.
    pub fn add_replan(&mut self, s: &PlanStages) {
        let outcome = s.replan.expect("a replan through a planner session");
        self.replan_ms.push(s.schedule_ms);
        self.replans.push(outcome);
    }

    pub fn add_iter(&mut self, s: IterStages) {
        self.lower_ms.push(s.lower_ms);
        self.sim_ms.push(s.sim_ms);
        self.iter = Some(s);
    }

    pub fn add_verify(&mut self, v: &VerifyStages) {
        self.verify_plan_ms.push(v.plan_ms);
        self.verify_spmd_ms.push(v.spmd_ms);
        self.peak_bound_bytes = v.peak_bound_bytes;
    }

    /// The summary statistic of a stage's samples.
    pub fn stat(&self, s: &Samples, what: &str) -> f64 {
        if self.by_mean {
            s.mean(what)
        } else {
            s.median(what)
        }
    }

    /// Write every per-layer metric into the report.
    pub fn emit(self, r: &mut Report) {
        let (trace_2x, shard_2x) = self.growth.expect("growth ratios measured");
        r.metric("trace.ms", self.stat(&self.trace_ms, "trace"));
        r.metric("trace.tensors", self.tensors as f64);
        r.metric("trace.growth_2x", trace_2x);
        r.metric("shard.ms", self.stat(&self.shard_ms, "shard"));
        r.metric("shard.pages", self.shard_pages as f64);
        r.metric("shard.growth_2x", shard_2x);
        r.metric("memory.ms", self.stat(&self.memory_ms, "memory"));
        r.metric("memory.pages", self.memory_pages as f64);
        r.metric("schedule.ms", self.stat(&self.schedule_ms, "schedule"));
        r.metric("schedule.tasks", self.schedule_tasks as f64);
        r.metric(
            "schedule.peak_gpu_gib",
            self.schedule_peak_gpu_bytes as f64 / GIB,
        );
        r.metric("replan.ms", self.stat(&self.replan_ms, "replan"));
        assert!(!self.replans.is_empty(), "no replans measured");
        let n = self.replans.len() as f64;
        let in_place = self.replans.iter().filter(|o| o.patched_in_place).count() as f64;
        let reused: usize = self.replans.iter().map(|o| o.layers_reused).sum();
        let layers: usize = self
            .replans
            .iter()
            .map(|o| o.layers_reused + o.layers_touched)
            .sum();
        r.metric("replan.in_place_ratio", in_place / n);
        r.metric(
            "replan.layers_reused_ratio",
            reused as f64 / layers.max(1) as f64,
        );
        r.metric("lower.ms", self.stat(&self.lower_ms, "lower"));
        let iter = self.iter.as_ref().expect("iteration measured");
        r.metric("lower.tasks", iter.tasks as f64);
        r.metric("sim.run_ms", self.stat(&self.sim_ms, "sim"));
        for (metric, resource) in [
            ("sim.busy_share.gpu", "executor:gpu-stream"),
            ("sim.busy_share.cpu", "executor:cpu-stream"),
            ("sim.busy_share.h2d", "pcie-h2d"),
            ("sim.busy_share.d2h", "pcie-d2h"),
            ("sim.busy_share.comm", "communicator:dp-channel"),
            ("sim.busy_share.ssd", "ssd-channel"),
        ] {
            let share = iter
                .busy
                .iter()
                .find(|(name, _)| name == resource)
                .map_or(0.0, |(_, s)| *s);
            r.metric(metric, share);
        }
        r.metric("sim.gpu_idle_share", iter.gpu_idle);
        r.metric("sim.peak_gpu_gib", iter.sim_peak_gpu_bytes as f64 / GIB);
        r.metric("verify.plan_ms", self.stat(&self.verify_plan_ms, "verify"));
        r.metric("verify.spmd_ms", self.stat(&self.verify_spmd_ms, "spmd"));
        r.metric("verify.peak_bound_gib", self.peak_bound_bytes as f64 / GIB);
        r.metric(
            "engine.residual_ms",
            self.residual_ms.expect("residual measured"),
        );
        r.metric(
            "bench.tracing_overhead_ms",
            self.tracing_overhead_ms.expect("tracing overhead measured"),
        );
        r.metric(
            "obs.recorder_overhead_frac",
            self.recorder_overhead.expect("recorder overhead measured"),
        );
        let svc = self.service.expect("service layer measured");
        let rep = &svc.report;
        r.metric("service.admit_ms_p50", svc.submit_ms.median("submit"));
        r.metric("service.admit_ms_max", svc.submit_ms.max("submit"));
        r.metric("service.advance_ms_p50", svc.advance_ms.median("advance"));
        r.metric("service.admitted", rep.admitted as f64);
        r.metric("service.rejected", rep.rejected as f64);
        r.metric("service.preemptions", rep.preemptions as f64);
        r.metric("service.resumes", rep.resumes as f64);
        r.metric("service.utilization", rep.utilization);
        r.metric("service.jobs_per_hour", jobs_per_hour(rep));
        let mut ttfi = Samples::default();
        for &ns in &rep.ttfi_ns {
            ttfi.push(ns as f64 / 1e6);
        }
        let ttfi_tail = if ttfi.len() == 0 {
            0.0
        } else {
            ttfi.tail("ttfi").1
        };
        r.metric("service.ttfi_ms_tail", ttfi_tail);
    }
}

/// Completed jobs per hour of virtual time.
pub fn jobs_per_hour(rep: &ServiceReport) -> f64 {
    rep.completed as f64 / (rep.makespan_ns.max(1) as f64 / 3.6e12)
}

/// `trace.growth_2x` and `shard.growth_2x`: median stage time of the plan
/// at `at(layers)` over the plan at `at(layers / 2)`, `reps` cold plans each.
pub fn growth(
    at: impl Fn(usize) -> (TransformerConfig, EngineConfig),
    layers: usize,
    reps: usize,
) -> (f64, f64) {
    let stage = |l: usize| {
        let (model, config) = at(l);
        let (mut trace, mut shard) = (Samples::default(), Samples::default());
        for _ in 0..reps {
            let s = plan_stages(&model, &config, &mut None);
            trace.push(s.trace_ms);
            shard.push(s.shard_ms);
        }
        (trace.median("trace"), shard.median("shard"))
    };
    let (t_full, s_full) = stage(layers);
    let (t_half, s_half) = stage(layers / 2);
    (t_full / t_half, s_full / s_half)
}

/// The workload's own job through a control plane of `servers` servers:
/// the service layer for a workload that does not otherwise run it. The
/// job must be admitted and complete when `feasible`, else be rejected.
pub fn service_probe(
    spec: JobSpec,
    servers: usize,
    iter_ns: u64,
    feasible: bool,
    r: &mut Report,
) -> ServiceRun {
    let iters = spec.iters as u64;
    let mut cp = ControlPlane::new(&ServiceConfig::new(servers));
    let (mut submit_ms, mut advance_ms) = (Samples::default(), Samples::default());
    submit_ms.push(timed(|| cp.submit(spec, 0)).1);
    for k in 1..=iters {
        advance_ms.push(timed(|| cp.advance_to(k * iter_ns)).1);
    }
    let run = ServiceRun {
        submit_ms,
        advance_ms,
        report: cp.into_report(),
    };
    check_service(&run, &[feasible], r);
    run
}

/// The layers every workload measures on its own engine: a replan probe
/// (splice to `probe_servers` and back, each mirrored by a staged rebuild
/// through a persistent planner), plan-graph and SPMD verification,
/// lowering and the simulator, and the recorder's overhead.
pub fn probe_engine_layers(
    layers: &mut Layers,
    engine: &mut Engine,
    model: &TransformerConfig,
    probe_servers: usize,
    r: &mut Report,
) {
    let servers = engine.config().cluster.num_servers;
    let iter_ns = engine.train_iteration().iter_time_ns;
    let mut planner = None;
    let cold = plan_stages(model, engine.config(), &mut planner);
    r.check(
        cold.schedule.as_ref().ok() == Some(engine.schedule()),
        || "staged cold plan differs from the engine's".into(),
    );
    for target in [probe_servers, servers] {
        let staged = splice_config(engine, target).map(|c| plan_stages(model, &c, &mut planner));
        let spliced = engine.splice_resize(0, target);
        match (staged, spliced) {
            (Ok(s), Ok(_)) => {
                r.check(s.schedule.as_ref().ok() == Some(engine.schedule()), || {
                    format!("staged replan to {target} servers differs from splice_resize")
                });
                layers.add_replan(&s);
            }
            (s, e) => r.check(false, || {
                format!(
                    "replan probe to {target} servers: staged ok={} splice ok={}",
                    s.is_ok(),
                    e.is_ok()
                )
            }),
        }
    }
    for _ in 0..3 {
        let v = verify_stages(engine);
        r.check(v.clean, || "lowered iteration failed verification".into());
        layers.add_verify(&v);
    }
    for _ in 0..30 {
        let s = iter_stages(engine);
        r.check(s.iter_time_ns == iter_ns, || {
            "staged iteration time differs from train_iteration".into()
        });
        layers.add_iter(s);
    }
    layers.recorder_overhead = Some(recorder_overhead(engine, 30));
}
