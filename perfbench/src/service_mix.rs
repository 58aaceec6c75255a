//! `service-mix`: a `ControlPlane` on a 16-server fleet fed a seeded
//! open-loop stream of 300 submissions in virtual time at a fixed offered
//! load, then drained.
//!
//! The mix: small 1.7B-geometry jobs, elastic gpt3-13b 2→1-server jobs,
//! rigid high-priority preemptors, 128-layer 28b-geometry 16→8-server jobs,
//! and 5% infeasible 1024-layer 120b-geometry "whales" that must be
//! rejected. Every admission plans the job and runs the plan-graph
//! verifier, so this workload makes many small plans instead of one big
//! one, splices small engines on preemption and steps thousands of tiny
//! iterations. A whale costs a full Trace + Shard before `MemoryPlan`
//! rejects it. Whales outnumber the 4% of samples beyond the tail
//! percentile of even a single pass, so `op_ms_tail` is a whale rejection
//! however many passes a run makes.
//!
//! Arrivals are a Poisson process conditioned on its count: the seed draws
//! the class order and the arrival instants (uniform over a window sized
//! so the offered load is exactly `LOAD`). The same submissions repeat in
//! every pass until the measuring time is spent.

use crate::host::{HostRef, Series};
use crate::stages::{
    check_service, drive_service, growth, plan_stages, probe_engine_layers, Layers, ServiceRun,
};
use crate::stats::{timed, Rng, Samples};
use crate::{Opts, Report};
use angel_core::{EngineConfig, PlanGraph};
use angel_model::TransformerConfig;
use angel_service::{admit_at, slice_config, JobSpec};
use std::time::{Duration, Instant};

const FLEET: usize = 16;
/// Offered load: requested server-seconds of work per server-second.
const LOAD: f64 = 0.7;
const SETUP_REPS: usize = 15;
/// Decomposed admissions per job class in the traced run.
const CLASS_REPS: usize = 2;

/// One job class of the mix: submissions per pass and the spec.
struct Class {
    name: &'static str,
    count: usize,
    spec: JobSpec,
    feasible: bool,
}

fn small() -> TransformerConfig {
    TransformerConfig::gpt3_1_7b()
        .with_layers(4)
        .with_seq_len(256)
}

fn whale(layers: usize) -> TransformerConfig {
    TransformerConfig::gpt3_120b().with_layers(layers)
}

fn classes() -> Vec<Class> {
    vec![
        Class {
            name: "small",
            count: 140,
            spec: JobSpec::new("small", small(), 6),
            feasible: true,
        },
        Class {
            name: "elastic",
            count: 67,
            spec: JobSpec::new("elastic", TransformerConfig::gpt3_13b(), 4).with_servers(2, 1),
            feasible: true,
        },
        Class {
            name: "urgent",
            count: 40,
            spec: JobSpec::new("urgent", small(), 3)
                .with_servers(2, 2)
                .with_priority(5),
            feasible: true,
        },
        Class {
            name: "big",
            count: 38,
            spec: JobSpec::new("big", TransformerConfig::gpt3_28b().with_layers(128), 3)
                .with_servers(FLEET, FLEET / 2),
            feasible: true,
        },
        Class {
            name: "whale",
            count: 15,
            spec: JobSpec::new("whale", whale(1024), 1).with_servers(FLEET, FLEET),
            feasible: false,
        },
    ]
}

/// The submissions of one pass: (arrival ns, spec) plus each one's class.
struct Mix {
    classes: Vec<Class>,
    jobs: Vec<(u64, JobSpec)>,
    class_of: Vec<usize>,
    /// Global samples of every feasible job at its requested size.
    nominal_samples: f64,
}

/// Set-up: calibrate each feasible class's simulated work (iterations ×
/// iteration time × servers at its requested size, admitted through the
/// service's own admission path), size the arrival window for `LOAD`, and
/// draw the seeded submissions.
fn setup(seed: u64) -> Mix {
    let classes = classes();
    let mut work = 0.0;
    let mut nominal_samples = 0.0;
    for c in classes.iter().filter(|c| c.feasible) {
        let (mut engine, _) = admit_at(&c.spec, c.spec.servers).expect("feasible class admits");
        let iter_s = engine.train_iteration().iter_time_ns as f64 / 1e9;
        work += (c.count * c.spec.iters * c.spec.servers) as f64 * iter_s;
        let batch = slice_config(&c.spec, c.spec.servers).global_batch();
        nominal_samples += (c.count * c.spec.iters) as f64 * batch as f64;
    }
    let window_ns = work / (FLEET as f64 * LOAD) * 1e9;
    let mut rng = Rng::new(seed);
    let mut class_of: Vec<usize> = classes
        .iter()
        .enumerate()
        .flat_map(|(i, c)| std::iter::repeat_n(i, c.count))
        .collect();
    rng.shuffle(&mut class_of);
    let mut arrivals: Vec<u64> = (0..class_of.len())
        .map(|_| (rng.unit() * window_ns) as u64)
        .collect();
    arrivals.sort_unstable();
    let jobs = arrivals
        .into_iter()
        .zip(&class_of)
        .enumerate()
        .map(|(k, (at, &c))| {
            let mut spec = classes[c].spec.clone();
            spec.name = format!("{}-{k}", classes[c].name);
            (at, spec)
        })
        .collect();
    Mix {
        classes,
        jobs,
        class_of,
        nominal_samples,
    }
}

pub fn run(opts: &Opts, r: &mut Report) {
    // The traced run reports raw wall times; only the untraced one is
    // scaled to the host reference.
    let mut host = HostRef::new(!opts.trace);
    let mut setup_ops = Series::default();
    let mut mix = None;
    for _ in 0..SETUP_REPS {
        mix = Some(host.set_up(&mut setup_ops, || setup(opts.seed)));
    }
    let mix = mix.expect("at least one set-up");
    let feasible: Vec<bool> = mix
        .class_of
        .iter()
        .map(|&c| mix.classes[c].feasible)
        .collect();

    let budget = Duration::from_secs_f64(opts.seconds);
    let (mut submit_ms, mut advance_ms) = (Samples::default(), Samples::default());
    let mut per_class = vec![Samples::default(); mix.classes.len()];
    let mut submits = Series::default();
    let mut last: Option<ServiceRun> = None;
    let t0 = Instant::now();
    while last.is_none() || t0.elapsed() < budget {
        let run = drive_service(FLEET, &mix.jobs, &mut host, &mut submits);
        check_service(&run, &feasible, r);
        if let Some(prev) = &last {
            let same = prev.report.makespan_ns == run.report.makespan_ns
                && prev.report.ttfi_ns == run.report.ttfi_ns;
            r.check(same, || "service report differs between passes".into());
        }
        for (k, &ms) in run.submit_ms.values().iter().enumerate() {
            per_class[mix.class_of[k]].push(ms);
            submit_ms.push(ms);
            advance_ms.push(run.advance_ms.values()[k]);
        }
        last = Some(run);
    }
    let t1 = Instant::now();
    host.settle();
    let all = ServiceRun {
        submit_ms,
        advance_ms,
        report: last.expect("one pass").report,
    };
    let rep = &all.report;
    let makespan_s = rep.makespan_ns as f64 / 1e9;
    r.note(format!(
        "admitted {} rejected {} completed {} preemptions {} resumes {} utilization {:.4}",
        rep.admitted, rep.rejected, rep.completed, rep.preemptions, rep.resumes, rep.utilization
    ));
    let mut ttfi = Samples::default();
    for &ns in &rep.ttfi_ns {
        ttfi.push(ns as f64 / 1e6);
    }
    let (p, ttfi_tail, _) = ttfi.tail("ttfi");
    r.note(format!(
        "jobs/hour {:.3}, TTFI p{p} {ttfi_tail:.3} ms, makespan {makespan_s:.3} s (virtual time)",
        crate::stages::jobs_per_hour(rep)
    ));
    for (c, s) in mix.classes.iter().zip(&per_class) {
        r.note(format!(
            "submit {:<8} p50 {:>10.3} ms  max {:>10.3} ms  ({} samples)",
            c.name,
            s.median(c.name),
            s.max(c.name),
            s.len()
        ));
    }
    if !opts.trace {
        r.op_latency("ControlPlane::submit", &submits, &host);
        r.throughput(submits.len(), &host, t0, t1);
        r.metric("sim_samples_per_s", mix.nominal_samples / makespan_s);
        r.common(&setup_ops, &host);
        return;
    }

    // Each class's admission, decomposed: the staged plan plus the lowering
    // and plan-graph verification `certify` runs, against `admit_at`. Each
    // rep counts once per submission of its class, so the stage means are
    // per-submission means over the mix.
    let mut layers = Layers {
        by_mean: true,
        ..Layers::default()
    };
    let (mut admission_ms, mut overhead_ms) = (0.0, 0.0);
    let mut big = None;
    for (i, c) in mix.classes.iter().enumerate() {
        let config = slice_config(&c.spec, c.spec.servers);
        let n = mix.class_of.iter().filter(|&&k| k == i).count();
        let (mut untraced, mut traced) = (Samples::default(), Samples::default());
        for _ in 0..CLASS_REPS {
            let (admitted, ms) = timed(|| admit_at(&c.spec, c.spec.servers));
            untraced.push(ms);
            let (s, plan_ms) = timed(|| plan_stages(&c.spec.model, &config, &mut None));
            let mut total = plan_ms;
            match (admitted, &s.schedule) {
                (Ok((engine, _)), Ok(schedule)) => {
                    r.check(schedule == engine.schedule(), || {
                        format!("staged plan of {} differs from admit_at", c.name)
                    });
                    let (lowered, lower_ms) = timed(|| engine.lower_iteration());
                    let verify_ms = timed(|| PlanGraph::from_sim(&lowered.sim).verify()).1;
                    total += lower_ms + verify_ms;
                    if c.name == "big" {
                        big = Some((engine, c.spec.model.clone()));
                    }
                }
                (Err(_), Err(_)) => r.check(!c.feasible, || {
                    format!("feasible class {} rejected", c.name)
                }),
                _ => r.check(false, || {
                    format!("staged plan and admit_at disagree on {}", c.name)
                }),
            }
            traced.push(total);
            for _ in 0..n {
                layers.add_plan(&s);
            }
        }
        let staged = traced.mean("staged admission");
        admission_ms += n as f64 * staged;
        overhead_ms += n as f64 * (staged - untraced.mean("admit_at"));
    }
    let jobs = mix.jobs.len() as f64;
    layers.residual_ms = Some(all.submit_ms.mean("submit") - admission_ms / jobs);
    layers.tracing_overhead_ms = Some(overhead_ms / jobs);
    layers.growth = Some(growth(
        |l| (whale(l), EngineConfig::servers(FLEET).with_batch_size(1)),
        1024,
        2,
    ));
    let (mut engine, model) = big.expect("big class admits");
    probe_engine_layers(&mut layers, &mut engine, &model, FLEET / 2, r);
    layers.service = Some(all);
    layers.emit(r);
}
