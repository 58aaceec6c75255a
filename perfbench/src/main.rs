//! Repeatable benchmark of the Angel-PTM reproduction: the planner, the
//! simulator, elastic splicing and the multi-job service, measured end to
//! end (`--trace 0`) and stage by stage (`--trace 1`).
//!
//! ```text
//! perfbench --workload <plan-cold|train-steady|elastic-splice|service-mix>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Human-readable lines come first; the last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`. See
//! `perfbench/README.md` for the workloads and what each metric means.

mod elastic_splice;
mod host;
mod plan_cold;
mod service_mix;
mod stages;
mod stats;
mod train_steady;

use host::{HostRef, Series, REF_KERNEL_MS};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics (`--trace 0`): name and unit. Every workload reports
/// every one of them.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("ops_per_s", "1/s"),
    ("sim_samples_per_s", "samples/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit.
const PER_LAYER: &[(&str, &str)] = &[
    ("trace.ms", "ms"),
    ("trace.tensors", "count"),
    ("trace.growth_2x", "ratio"),
    ("shard.ms", "ms"),
    ("shard.pages", "count"),
    ("shard.growth_2x", "ratio"),
    ("memory.ms", "ms"),
    ("memory.pages", "count"),
    ("schedule.ms", "ms"),
    ("schedule.tasks", "count"),
    ("schedule.peak_gpu_gib", "GiB"),
    ("replan.ms", "ms"),
    ("replan.in_place_ratio", "ratio"),
    ("replan.layers_reused_ratio", "ratio"),
    ("lower.ms", "ms"),
    ("lower.tasks", "count"),
    ("sim.run_ms", "ms"),
    ("sim.busy_share.gpu", "ratio"),
    ("sim.busy_share.cpu", "ratio"),
    ("sim.busy_share.h2d", "ratio"),
    ("sim.busy_share.d2h", "ratio"),
    ("sim.busy_share.comm", "ratio"),
    ("sim.busy_share.ssd", "ratio"),
    ("sim.gpu_idle_share", "ratio"),
    ("sim.peak_gpu_gib", "GiB"),
    ("verify.plan_ms", "ms"),
    ("verify.spmd_ms", "ms"),
    ("verify.peak_bound_gib", "GiB"),
    ("engine.residual_ms", "ms"),
    ("bench.tracing_overhead_ms", "ms"),
    ("obs.recorder_overhead_frac", "ratio"),
    ("service.admit_ms_p50", "ms"),
    ("service.admit_ms_max", "ms"),
    ("service.advance_ms_p50", "ms"),
    ("service.admitted", "count"),
    ("service.rejected", "count"),
    ("service.preemptions", "count"),
    ("service.resumes", "count"),
    ("service.utilization", "ratio"),
    ("service.jobs_per_hour", "1/h"),
    ("service.ttfi_ms_tail", "sim_ms"),
];

/// Command-line options of one run.
pub struct Opts {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one run prints: operations attempted and failed, metrics, notes.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<&'static str, (f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    /// Record metric `name`, which must be one of the declared metrics.
    pub fn metric(&mut self, name: &str, value: f64) {
        let &(name, unit) = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("undeclared metric {name}"));
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.insert(name, (value, unit));
    }

    /// A human-readable line printed before the result.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Count one attempted operation; `ok == false` counts it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let line = format!("FAIL {}", what());
            self.notes.push(line);
        }
    }

    /// Record the setup-time and peak-memory metrics every workload shares,
    /// and note the host reference's median kernel time.
    pub fn common(&mut self, setup: &Series, host: &HostRef) {
        let (raw, scaled) = (setup.raw(), host.scaled(setup));
        self.metric("setup_s", scaled.median("setup") / 1e3);
        self.note(format!(
            "set-up: {} reps, wall median {:.6} s",
            raw.len(),
            raw.median("setup") / 1e3
        ));
        if let Some((near, far)) = host.kernel_medians_ms() {
            self.note(format!(
                "host reference kernel: near {near:.6} + far {far:.6} ms (nominal {REF_KERNEL_MS} ms), \
                 {:.1} ms in all",
                host.kernel_ms()
            ));
        }
        let rss = stats::peak_rss_mib().expect("VmHWM readable from /proc/self/status");
        self.metric("peak_rss_mib", rss);
    }

    /// Record `op_ms_p50`/`op_ms_tail` from the scaled times of `ops`, and
    /// note the tail's percentile, the sample and window counts, and the
    /// wall-clock figures beside them.
    pub fn op_latency(&mut self, op: &str, ops: &Series, host: &HostRef) {
        let (raw, scaled) = (ops.raw(), host.scaled(ops));
        let (p, tail, windows) = scaled.tail(op);
        let (run_p, run_tail) = stats::window_tail(scaled.values());
        self.metric("op_ms_p50", scaled.median(op));
        self.metric("op_ms_tail", tail);
        self.note(format!(
            "op = {op}: {} samples; op_ms_tail is p{p}, lower quartile of {windows} \
             window(s); whole-run p{run_p} = {run_tail:.6} ms",
            scaled.len()
        ));
        let (_, raw_tail, _) = raw.tail(op);
        self.note(format!(
            "wall clock: p50 {:.6} ms, tail {raw_tail:.6} ms",
            raw.median(op)
        ));
    }

    /// Record `ops_per_s`: `count` operations over the loop from `t0` to
    /// `t1`, less the host reference's bursts, scaled.
    pub fn throughput(&mut self, count: usize, host: &HostRef, t0: Instant, t1: Instant) {
        let (wall_s, scaled_s) = host.work_span(t0, t1);
        self.metric("ops_per_s", count as f64 / scaled_s);
        self.note(format!("wall clock: {:.6} ops/s", count as f64 / wall_s));
    }
}

fn parse(args: &[String]) -> Result<(String, Opts), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok((
        workload.ok_or("--workload is required")?,
        Opts {
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
        },
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut r = Report::default();
    match workload.as_str() {
        "plan-cold" => plan_cold::run(&opts, &mut r),
        "train-steady" => train_steady::run(&opts, &mut r),
        "elastic-splice" => elastic_splice::run(&opts, &mut r),
        "service-mix" => service_mix::run(&opts, &mut r),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    }
    let expected = if opts.trace { PER_LAYER } else { END_TO_END };
    for (name, _) in expected {
        assert!(
            r.metrics.contains_key(name),
            "metric {name} was not measured"
        );
    }
    assert!(r.attempted >= 1, "no operation was attempted");

    println!(
        "workload {workload} seed {} trace {}",
        opts.seed, opts.trace as u8
    );
    for line in &r.notes {
        println!("  {line}");
    }
    let mut fields = Vec::new();
    for (name, (value, unit)) in &r.metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!("  failed/attempted = {}/{}", r.failed, r.attempted);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
