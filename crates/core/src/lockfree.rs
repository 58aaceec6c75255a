//! The Lock-Free Updating Mechanism — Section 4.3 and Algorithm 2 of the
//! paper, implemented with real OS threads moving real bytes.
//!
//! "We design a novel Lock-Free Updating Mechanism, which decouples the GPU
//! computation from the CPU optimizer operations through a novel
//! asynchronous consistency control protocol. The essential idea is to
//! employ two buffers in CPU memory to store the FP16 parameters and
//! gradients respectively, and leverage an auxiliary buffering thread to
//! maintain the buffers."
//!
//! Three roles, exactly as in Algorithm 2:
//!
//! * the **training loop** (the paper's GPU): fetches buffered parameters
//!   `p'₁₆(l)` with [`LockFreeTrainer::read_params`], computes, and offloads
//!   gradients `g₁₆(l)` with [`LockFreeTrainer::push_grads`] (lines 18–24);
//! * the **buffering thread**: accumulates arriving gradients into the
//!   gradient buffer (line 15) and, when updated parameters arrive from the
//!   updating thread, clears the gradient buffer and casts the FP32
//!   parameters into the parameter buffer (lines 11–13);
//! * the **updating thread**: while uncleared gradients exist, walks layers
//!   in reverse, fetches the FP32 parameters and Adam moments from the
//!   [`StateStore`] (the SSD), updates them with the buffered gradients,
//!   passes the new parameters to the buffering thread, and offloads the
//!   state back (lines 2–7).
//!
//! The decoupling means GPU iterations never wait for the SSD-bound update
//! cycle; the cost is **staleness** (parameters lag the pushed gradients)
//! and — in the paper's protocol, where the gradient buffer is cleared only
//! when the *completed* update's parameters arrive — gradients that land
//! during an update window are **dropped with the clear**. Both effects are
//! measured ([`LockFreeStats`]); Section 6.5's convergence experiment
//! (reproduced in `angel-train`) shows they do not harm model quality.
//! [`ClearPolicy::TakeAtSnapshot`] additionally provides a lossless variant
//! that consumes the buffer atomically at snapshot time, for the ablation.
//!
//! # Fault tolerance
//!
//! The store is SSD-backed in production and storage hiccups are routine at
//! Tencent's fleet sizes (Section 3.1), so the update path must survive I/O
//! faults without stalling the GPUs:
//!
//! * [`StateStore`] operations are fallible ([`StoreError`]); transient
//!   errors are retried with exponential backoff ([`RetryPolicy`]);
//! * a layer whose store fails permanently (or keeps failing past the retry
//!   budget) is **parked**: its buffered gradients are dropped-and-counted,
//!   further pushes to it settle immediately, the rest of the model keeps
//!   training, and a typed [`TrainerEvent::LayerParked`] is emitted on the
//!   status channel instead of a panic;
//! * shutdown and `Drop` are panic-free even when a worker thread died: join
//!   errors surface as [`TrainerError::WorkerPanicked`], never as a
//!   double-panic abort.
//!
//! Every fault is accounted: `grads_pushed == grads_applied + grads_dropped`
//! holds across retries, parking and worker death (tested with the seeded
//! [`crate::fault::FaultyStore`] injector).
//!
//! # Memory-ordering audit
//!
//! All atomics go through [`crate::sync`] and carry the *weakest* ordering
//! the protocol needs; every site cites one of the invariants below. The
//! claims are validated three ways: the bounded model checker in
//! [`crate::verify::model`] exhaustively explores the protocol's
//! interleavings, the `--cfg angel_model_check` build perturbs thread
//! schedules at every atomic op, and the Miri CI job checks the relaxed
//! orderings against the real memory model.
//!
//! * **I1 (counters are diagnostics)** — the seven stat counters are
//!   monotonic event tallies. No control decision inside the protocol reads
//!   them except quiescence (I2); exact-accounting tests read them after
//!   `join()`, which synchronizes-with the worker's entire history, so
//!   `Relaxed` increments are exact there. Snapshot reads while threads run
//!   are documented as approximate.
//! * **I2 (quiescence never over-reports settled)** — `pending_grads` must
//!   not transiently report 0 while a pushed micro-batch is unsettled.
//!   Every `grads_settled` increment is `Release` and the quiescence read
//!   is `Acquire`, *and* `settled` is loaded before `pushed`: the `Acquire`
//!   load anchors a snapshot in which every settle's matching push (which
//!   happens-before the settle through the channel send and the grad-buf
//!   mutex) is already visible, so `pushed ≥ settled` holds in the
//!   snapshot and the subtraction never under-reports pending work.
//! * **I3 (shutdown signal)** — `running` is a plain termination flag:
//!   `Release` store in `stop_threads`, `Acquire` load in the updating
//!   loop. No protocol data is published *through* the flag (the channel
//!   and mutexes carry all data), but Release/Acquire keeps the flag's
//!   semantics independent of that argument.
//!
//! Data-carrying synchronization is entirely on the crossbeam channel and
//! the `parking_lot` mutexes; the version protocol that prevents double
//! application (`GradBuf::version` / `last_snapshot_version`) runs wholly
//! under the grad-buf mutex and needs no atomics at all.

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock};
use std::sync::Arc;
use std::time::Duration;

use crate::obs::{Counter, Gauge, ObsThread, Recorder};
use crate::sync::thread::JoinHandle;
use crate::sync::{thread, AtomicBool, AtomicU64, Ordering};

pub use crate::error::{StoreError, StoreErrorKind, StoreOp, TrainerError};

/// FP32 master state of one layer: parameters plus Adam moments — the
/// `p₃₂, m₃₂, v₃₂` of Algorithm 2.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerState {
    pub p32: Vec<f32>,
    pub m32: Vec<f32>,
    pub v32: Vec<f32>,
}

impl LayerState {
    /// Fresh state with zero moments.
    pub fn new(p32: Vec<f32>) -> Self {
        let n = p32.len();
        Self {
            p32,
            m32: vec![0.0; n],
            v32: vec![0.0; n],
        }
    }
}

/// Where FP32 states live between updates — the SSD in Section 6.5. The
/// store is owned by the updating thread; implementations may inject real
/// I/O latency to emulate SSD bandwidth, and real I/O *faults* to emulate
/// production storage ([`crate::fault::FaultyStore`]).
pub trait StateStore: Send {
    fn fetch(&mut self, layer: usize) -> Result<LayerState, StoreError>;
    fn offload(&mut self, layer: usize, state: LayerState) -> Result<(), StoreError>;
}

/// In-memory store, optionally throttled to an SSD-like bandwidth by
/// sleeping proportionally to the bytes moved.
pub struct MemoryStore {
    states: Vec<Option<LayerState>>,
    /// Simulated bandwidth in bytes/second; `None` = unthrottled.
    pub throttle_bytes_per_sec: Option<u64>,
}

impl MemoryStore {
    pub fn new(initial: Vec<LayerState>) -> Self {
        Self {
            states: initial.into_iter().map(Some).collect(),
            throttle_bytes_per_sec: None,
        }
    }

    pub fn throttled(initial: Vec<LayerState>, bytes_per_sec: u64) -> Self {
        let mut s = Self::new(initial);
        s.throttle_bytes_per_sec = Some(bytes_per_sec);
        s
    }

    fn delay(&self, bytes: usize) {
        if let Some(bw) = self.throttle_bytes_per_sec {
            let ns = bytes as u64 * 1_000_000_000 / bw.max(1);
            thread::sleep(std::time::Duration::from_nanos(ns));
        }
    }
}

impl StateStore for MemoryStore {
    fn fetch(&mut self, layer: usize) -> Result<LayerState, StoreError> {
        let state = self
            .states
            .get_mut(layer)
            .ok_or_else(|| StoreError::permanent(layer, StoreOp::Fetch, "layer out of range"))?
            .take()
            .ok_or_else(|| {
                StoreError::permanent(layer, StoreOp::Fetch, "state fetched twice without offload")
            })?;
        self.delay(state.p32.len() * 12);
        Ok(state)
    }

    fn offload(&mut self, layer: usize, state: LayerState) -> Result<(), StoreError> {
        if layer >= self.states.len() {
            return Err(StoreError::permanent(
                layer,
                StoreOp::Offload,
                "layer out of range",
            ));
        }
        self.delay(state.p32.len() * 12);
        self.states[layer] = Some(state);
        Ok(())
    }
}

/// The optimizer applied by the updating thread (line 5 of Algorithm 2).
/// `micro_batches` is how many gradient micro-batches were accumulated into
/// `grads` (for averaging).
pub trait Optimizer: Send {
    fn update(&mut self, layer: usize, state: &mut LayerState, grads: &[f32], micro_batches: u32);
}

/// Plain averaged-SGD, used by unit tests; `angel-train` provides
/// mixed-precision Adam.
pub struct SgdOptimizer {
    pub lr: f32,
}

impl Optimizer for SgdOptimizer {
    fn update(&mut self, _layer: usize, state: &mut LayerState, grads: &[f32], micro: u32) {
        let scale = self.lr / micro.max(1) as f32;
        for (p, g) in state.p32.iter_mut().zip(grads) {
            *p -= scale * g;
        }
    }
}

/// When the gradient buffer is consumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClearPolicy {
    /// The paper's protocol: the buffering thread clears the buffer when the
    /// updated parameters arrive (Algorithm 2 line 12). Gradients landing
    /// between the updating thread's read and the clear are dropped (and
    /// counted).
    OnUpdateReceipt,
    /// Lossless variant: the updating thread takes-and-clears the buffer
    /// atomically at snapshot time.
    TakeAtSnapshot,
}

/// Retry discipline for transient [`StateStore`] faults on the update path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation (first try included); at least 1.
    pub max_attempts: u32,
    /// Sleep before the first retry; doubles per subsequent retry.
    pub base_backoff: Duration,
    /// Backoff ceiling, so a long retry burst cannot stall shutdown.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff: Duration::from_micros(500),
            max_backoff: Duration::from_millis(20),
        }
    }
}

impl RetryPolicy {
    fn backoff(&self, retry: u32) -> Duration {
        // retry = 1 for the first retry; exponential, saturating at the cap.
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << retry.min(16).saturating_sub(1));
        exp.min(self.max_backoff)
    }
}

/// Retry `op` under `policy`, invoking `on_retry(retry_number, error)` before
/// each backoff sleep. Returns the first permanent error or the last
/// transient one once attempts are exhausted.
fn with_retry<T>(
    policy: &RetryPolicy,
    mut op: impl FnMut() -> Result<T, StoreError>,
    mut on_retry: impl FnMut(u32, &StoreError),
) -> Result<T, StoreError> {
    let attempts = policy.max_attempts.max(1);
    let mut attempt = 1;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if e.is_transient() && attempt < attempts => {
                on_retry(attempt, &e);
                thread::sleep(policy.backoff(attempt));
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// Casting function applied when buffering parameters (`cast(p₃₂, FP16)` in
/// line 13). `angel-train` passes BF16 truncation; tests may use identity.
pub type CastFn = fn(f32) -> f32;

/// Shared per-layer gradient buffer (`g'₁₆` of Algorithm 2).
struct GradBuf {
    g: Vec<f32>,
    micro: u32,
    /// Bumped on every clear; used by the updating thread to keep at most
    /// one in-flight update per layer (preventing double application).
    version: u64,
    /// Set (under this mutex) when the layer is parked after unrecoverable
    /// store faults: arriving gradients are dropped-and-settled instead of
    /// accumulated, so quiescence accounting stays exact.
    parked: bool,
}

/// Shared per-layer parameter buffer (`p'₁₆` of Algorithm 2).
struct ParamBuf {
    p: Vec<f32>,
    version: u64,
}

/// Counters exposing the mechanism's behaviour.
#[derive(Debug, Clone, Default)]
pub struct LockFreeStats {
    /// Gradient micro-batches pushed by the training loop.
    pub grads_pushed: u64,
    /// Micro-batches consumed by an optimizer update.
    pub grads_applied: u64,
    /// Micro-batches cleared without being applied (the OnUpdateReceipt race
    /// window, parked layers, or a dead buffering thread).
    pub grads_dropped: u64,
    /// Completed per-layer optimizer updates.
    pub updates_applied: u64,
    /// Store operations that returned an error (before retry accounting).
    pub store_faults: u64,
    /// Retries performed after transient store errors.
    pub store_retries: u64,
    /// Layers parked in degraded mode after unrecoverable store faults.
    pub layers_parked: u64,
}

#[derive(Default)]
struct AtomicStats {
    grads_pushed: AtomicU64,
    grads_applied: AtomicU64,
    grads_dropped: AtomicU64,
    updates_applied: AtomicU64,
    store_faults: AtomicU64,
    store_retries: AtomicU64,
    layers_parked: AtomicU64,
    grads_settled: AtomicU64, // applied-or-dropped, for quiescence
}

/// Typed status events surfaced by the worker threads — the panic-free
/// replacement for `expect()` on the hot update path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TrainerEvent {
    /// A transient store fault was retried.
    StoreRetry {
        layer: usize,
        op: StoreOp,
        /// 1-based retry number (1 = first retry after the initial failure).
        retry: u32,
    },
    /// A layer was parked: its store failed permanently or exhausted the
    /// retry budget; training continues without it.
    LayerParked { layer: usize, error: StoreError },
}

enum BufMsg {
    /// Gradients offloaded from the training loop (line 24).
    Grads { layer: usize, g: Vec<f32> },
    /// Updated parameters from the updating thread (line 6), tagged with how
    /// many micro-batches the update consumed.
    Updated {
        layer: usize,
        p32: Vec<f32>,
        applied_micro: u32,
    },
}

/// Observability handles for the trainer's hot paths. All fields are no-op
/// when built from a disabled recorder (the default), so the per-layer
/// update loop pays one branch per operation — the `lockfree` bench's
/// < 2% disabled-overhead budget.
struct TrainerObs {
    rec: Recorder,
    /// `BufMsg`s in flight toward the buffering thread.
    queue_depth: Gauge,
    grads_pushed: Counter,
    grads_applied: Counter,
    grads_dropped: Counter,
    updates_applied: Counter,
    store_retries: Counter,
    layers_parked: Counter,
}

impl TrainerObs {
    fn new(rec: Recorder) -> Self {
        TrainerObs {
            queue_depth: rec.gauge("trainer.queue_depth"),
            grads_pushed: rec.counter("trainer.grads_pushed"),
            grads_applied: rec.counter("trainer.grads_applied"),
            grads_dropped: rec.counter("trainer.grads_dropped"),
            updates_applied: rec.counter("trainer.updates_applied"),
            store_retries: rec.counter("trainer.store_retries"),
            layers_parked: rec.counter("trainer.layers_parked"),
            rec,
        }
    }
}

struct Shared {
    grad_bufs: Vec<Mutex<GradBuf>>,
    param_bufs: Vec<RwLock<ParamBuf>>,
    stats: AtomicStats,
    running: AtomicBool,
    cast: CastFn,
    clear_policy: ClearPolicy,
    retry: RetryPolicy,
    events: Sender<TrainerEvent>,
    /// Receiver end of `events`, owned by the shared state (not the
    /// trainer) so terminal events are never stranded when the trainer is
    /// dropped: [`StatsHandle::drain_events`] reads them post-join.
    events_rx: Mutex<Receiver<TrainerEvent>>,
    /// Events pumped out of `events_rx` but not yet handed to a caller.
    event_stash: Mutex<Vec<TrainerEvent>>,
    obs: TrainerObs,
}

impl Shared {
    /// Pushed-but-not-yet-settled micro-batches (see
    /// [`LockFreeTrainer::pending_grads`] for the ordering argument).
    fn pending_now(&self) -> u64 {
        let settled = self.stats.grads_settled.load(Ordering::Acquire);
        let pushed = self.stats.grads_pushed.load(Ordering::Relaxed);
        pushed.saturating_sub(settled)
    }

    /// Move everything currently queued on the event channel into the
    /// stash. Called from `drain`/`take` sites and at shutdown (after the
    /// worker joins) so no terminal event is ever lost with the channel.
    fn pump_events(&self) {
        let rx = self.events_rx.lock();
        let mut stash = self.event_stash.lock();
        while let Ok(e) = rx.try_recv() {
            stash.push(e);
        }
    }

    /// Pump and take all accumulated events.
    fn take_events(&self) -> Vec<TrainerEvent> {
        self.pump_events();
        std::mem::take(&mut *self.event_stash.lock())
    }

    fn degraded_layers(&self) -> Vec<usize> {
        self.grad_bufs
            .iter()
            .enumerate()
            .filter(|(_, b)| b.lock().parked)
            .map(|(l, _)| l)
            .collect()
    }

    fn snapshot_stats(&self) -> LockFreeStats {
        // I1: an approximate snapshot while threads run; exact once the
        // workers have joined (join synchronizes-with their whole history).
        let s = &self.stats;
        LockFreeStats {
            grads_pushed: s.grads_pushed.load(Ordering::Relaxed),
            grads_applied: s.grads_applied.load(Ordering::Relaxed),
            grads_dropped: s.grads_dropped.load(Ordering::Relaxed),
            updates_applied: s.updates_applied.load(Ordering::Relaxed),
            store_faults: s.store_faults.load(Ordering::Relaxed),
            store_retries: s.store_retries.load(Ordering::Relaxed),
            layers_parked: s.layers_parked.load(Ordering::Relaxed),
        }
    }

    /// Mark `layer` parked so later gradient arrivals settle immediately.
    /// Serialized with the buffering thread by the grad-buf mutex.
    ///
    /// `drop` decides who settles the micro-batches currently in the
    /// buffer: [`protocol::ParkDrop::Always`] (fetch failed, no update in
    /// flight) drops them here; on the offload-failure path an `Updated`
    /// message was sent *before* the park, and whether its receipt still
    /// settles the buffer depends on a race with the buffering thread —
    /// [`protocol::ParkDrop::UnlessReceiptInFlight`] resolves it under the
    /// grad mutex via the buffer version. (The bounded model checker found
    /// the interleaving where the unconditional keep strands a micro-batch:
    /// receipt processed, new gradient buffered, then the park — see
    /// `verify::model` and DESIGN.md §8.)
    fn park_layer(&self, layer: usize, error: StoreError, drop: protocol::ParkDrop) {
        let newly_parked = {
            let mut buf = self.grad_bufs[layer].lock();
            let newly = !buf.parked;
            buf.parked = true;
            let stranded = buf.micro;
            if protocol::park_should_drop(drop, buf.version) && stranded > 0 {
                // I1: diagnostic tally.
                self.stats
                    .grads_dropped
                    .fetch_add(stranded as u64, Ordering::Relaxed);
                // I2: settles must be Release so the quiescence Acquire load
                // observes the pushes that produced these micro-batches.
                self.stats
                    .grads_settled
                    .fetch_add(stranded as u64, Ordering::Release);
                buf.g.iter_mut().for_each(|x| *x = 0.0);
                buf.micro = 0;
                buf.version += 1;
            }
            newly
        };
        if newly_parked {
            // I1: diagnostic tally.
            self.stats.layers_parked.fetch_add(1, Ordering::Relaxed);
            self.obs.layers_parked.inc();
            self.obs
                .rec
                .instant(ObsThread::Updating, "layer_parked", layer as i64);
            let _ = self.events.send(TrainerEvent::LayerParked { layer, error });
        }
    }
}

/// Cloneable view onto a trainer's counters that outlives the trainer —
/// obtained from [`LockFreeTrainer::stats_handle`]; read it after
/// [`LockFreeTrainer::shutdown`] for final, stable statistics.
#[derive(Clone)]
pub struct StatsHandle {
    shared: Arc<Shared>,
}

impl StatsHandle {
    pub fn stats(&self) -> LockFreeStats {
        self.shared.snapshot_stats()
    }

    /// Layers parked in degraded mode (stable once the trainer is shut down).
    pub fn degraded_layers(&self) -> Vec<usize> {
        self.shared.degraded_layers()
    }

    /// Drain status events, including terminal events emitted right before
    /// shutdown: `stop_threads` pumps the channel after the workers join,
    /// so events survive the trainer being dropped and stay readable here.
    pub fn drain_events(&self) -> Vec<TrainerEvent> {
        self.shared.take_events()
    }
}

/// What the updating thread hands back at join time.
struct UpdaterFinal {
    store: Box<dyn StateStore>,
    /// States orphaned by permanent offload failures, kept so shutdown can
    /// still return the freshest parameters for parked layers.
    orphaned: Vec<Option<LayerState>>,
}

/// The running mechanism: owns the buffering and updating threads.
pub struct LockFreeTrainer {
    shared: Arc<Shared>,
    to_buffering: Sender<BufMsg>,
    buffering: Option<JoinHandle<()>>,
    updating: Option<JoinHandle<UpdaterFinal>>,
}

impl LockFreeTrainer {
    /// Spawn the mechanism over `initial` per-layer parameters with the
    /// default [`RetryPolicy`]. The `store` is pre-populated with
    /// `LayerState::new(initial[l])` and owned by the updating thread.
    pub fn spawn(
        initial: Vec<Vec<f32>>,
        store: Box<dyn StateStore>,
        optimizer: Box<dyn Optimizer>,
        cast: CastFn,
        clear_policy: ClearPolicy,
    ) -> Self {
        Self::spawn_with(
            initial,
            store,
            optimizer,
            cast,
            clear_policy,
            RetryPolicy::default(),
        )
    }

    /// [`LockFreeTrainer::spawn`] with an explicit retry discipline.
    pub fn spawn_with(
        initial: Vec<Vec<f32>>,
        store: Box<dyn StateStore>,
        optimizer: Box<dyn Optimizer>,
        cast: CastFn,
        clear_policy: ClearPolicy,
        retry: RetryPolicy,
    ) -> Self {
        Self::spawn_observed(
            initial,
            store,
            optimizer,
            cast,
            clear_policy,
            retry,
            Recorder::disabled(),
        )
    }

    /// [`LockFreeTrainer::spawn_with`] plus an observability recorder: the
    /// worker threads emit queue-depth gauges, push/apply/park/retry
    /// counters and wall-clock-timestamped events into it (see
    /// [`crate::obs`]). Pass [`Recorder::disabled`] for the permanent
    /// near-zero-cost no-op.
    pub fn spawn_observed(
        initial: Vec<Vec<f32>>,
        mut store: Box<dyn StateStore>,
        mut optimizer: Box<dyn Optimizer>,
        cast: CastFn,
        clear_policy: ClearPolicy,
        retry: RetryPolicy,
        recorder: Recorder,
    ) -> Self {
        let layers = initial.len();
        let (events_tx, events_rx) = unbounded();
        let shared = Arc::new(Shared {
            grad_bufs: initial
                .iter()
                .map(|p| {
                    Mutex::new(GradBuf {
                        g: vec![0.0; p.len()],
                        micro: 0,
                        version: 0,
                        parked: false,
                    })
                })
                .collect(),
            param_bufs: initial
                .iter()
                .map(|p| {
                    RwLock::new(ParamBuf {
                        p: p.iter().map(|&x| cast(x)).collect(),
                        version: 0,
                    })
                })
                .collect(),
            stats: AtomicStats::default(),
            running: AtomicBool::new(true),
            cast,
            clear_policy,
            retry,
            events: events_tx,
            events_rx: Mutex::new(events_rx),
            event_stash: Mutex::new(Vec::new()),
            obs: TrainerObs::new(recorder),
        });

        let (tx, rx): (Sender<BufMsg>, Receiver<BufMsg>) = unbounded();

        // ---- Buffering thread (Algorithm 2 lines 9–15) -------------------
        let buf_shared = Arc::clone(&shared);
        // Thread spawn only fails on OS resource exhaustion; the trainer
        // has no degraded single-threaded mode to fall back to.
        #[allow(clippy::disallowed_methods)]
        let buffering = thread::Builder::new()
            .name("angel-buffering".into())
            .spawn(move || buffering_loop(buf_shared, rx))
            .expect("spawn buffering thread");

        // ---- Updating thread (Algorithm 2 lines 1–7) ----------------------
        let upd_shared = Arc::clone(&shared);
        let upd_tx = tx.clone();
        // Same justification as the buffering thread above.
        #[allow(clippy::disallowed_methods)]
        let updating = thread::Builder::new()
            .name("angel-updating".into())
            .spawn(move || {
                let orphaned =
                    updating_loop(upd_shared, upd_tx, &mut store, optimizer.as_mut(), layers);
                UpdaterFinal { store, orphaned }
            })
            .expect("spawn updating thread");

        Self {
            shared,
            to_buffering: tx,
            buffering: Some(buffering),
            updating: Some(updating),
        }
    }

    /// Line 20: fetch the buffered FP16 parameters of a layer (plus their
    /// version, monotonically increasing with each completed update).
    pub fn read_params(&self, layer: usize) -> (Vec<f32>, u64) {
        let buf = self.shared.param_bufs[layer].read();
        (buf.p.clone(), buf.version)
    }

    /// Line 24: offload a layer's gradients toward the buffering thread.
    ///
    /// Never panics: if the buffering thread is gone the micro-batch is
    /// counted as dropped-and-settled so accounting and quiescence hold.
    pub fn push_grads(&self, layer: usize, g: Vec<f32>) {
        // I2: the increment is sequenced before the channel send, and the
        // send/recv pair orders it before the receiver's eventual settle
        // (whose Release publishes it to the quiescence reader) — Relaxed
        // suffices on the push side.
        self.shared
            .stats
            .grads_pushed
            .fetch_add(1, Ordering::Relaxed);
        let obs = &self.shared.obs;
        obs.grads_pushed.inc();
        obs.queue_depth.add(1);
        if obs.rec.is_enabled() {
            obs.rec
                .instant(ObsThread::TrainLoop, "push_grads", layer as i64);
            obs.rec.counter_sample(
                ObsThread::TrainLoop,
                "trainer.pending_grads",
                self.shared.pending_now(),
            );
        }
        if self.to_buffering.send(BufMsg::Grads { layer, g }).is_err() {
            obs.queue_depth.sub(1);
            obs.grads_dropped.inc();
            // I1: diagnostic tally.
            self.shared
                .stats
                .grads_dropped
                .fetch_add(1, Ordering::Relaxed);
            // I2: settle on the push-failure path; Release pairs with the
            // quiescence Acquire (same thread as the push, so the snapshot
            // argument is trivial here, but the invariant is per-site).
            self.shared
                .stats
                .grads_settled
                .fetch_add(1, Ordering::Release);
        }
    }

    pub fn stats(&self) -> LockFreeStats {
        self.shared.snapshot_stats()
    }

    /// A cloneable handle onto the live counters that survives
    /// [`Self::shutdown`]. Counters only stop moving once the worker
    /// threads have joined, so exact-accounting assertions (conservation,
    /// fault counts) should read through a handle *after* shutdown.
    pub fn stats_handle(&self) -> StatsHandle {
        StatsHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Drain all pending status events (non-blocking).
    pub fn drain_events(&self) -> Vec<TrainerEvent> {
        self.shared.take_events()
    }

    /// Layers currently parked in degraded mode.
    pub fn degraded_layers(&self) -> Vec<usize> {
        self.shared.degraded_layers()
    }

    /// Staleness proxy: pushed-but-not-yet-settled gradient micro-batches.
    ///
    /// I2: `Shared::pending_now` loads `settled` FIRST, with Acquire.
    /// Every settle is a Release increment that happens-after the matching
    /// push (channel + mutex), so the later Relaxed `pushed` load sees at
    /// least the pushes of everything settled in the snapshot:
    /// `pushed ≥ settled`, and the difference can only over-report pending
    /// work, never hide it. (Loading `pushed` first could miss concurrent
    /// settles *and* their pushes in a way that transiently under-counts
    /// pending.)
    pub fn pending_grads(&self) -> u64 {
        self.shared.pending_now()
    }

    /// Block until every pushed gradient has been applied or dropped (test
    /// helper; the production loop never waits — that is the whole point).
    ///
    /// Returns `true` if quiescence was reached, `false` if a worker thread
    /// died first (in which case the remaining gradients can never settle).
    pub fn wait_quiescent(&self) -> bool {
        loop {
            if self.pending_grads() == 0 {
                return true;
            }
            #[allow(clippy::unnecessary_map_or)] // is_none_or needs Rust 1.82 (MSRV 1.75)
            let worker_dead = self.buffering.as_ref().map_or(true, |h| h.is_finished())
                || self.updating.as_ref().map_or(true, |h| h.is_finished());
            if worker_dead {
                return self.pending_grads() == 0;
            }
            thread::yield_now();
        }
    }

    /// Stop both threads and return the final FP32 states from the store
    /// (orphaned states of parked layers are returned from the updating
    /// thread's stash). Panic-free: worker deaths and store failures surface
    /// as [`TrainerError`].
    pub fn shutdown(mut self, layers: usize) -> Result<Vec<LayerState>, TrainerError> {
        let (fin, err) = self.stop_threads();
        if let Some(e) = err {
            return Err(e);
        }
        let mut fin = fin.ok_or(TrainerError::WorkerPanicked {
            thread: "angel-updating",
        })?;
        // Shutdown is not latency-sensitive: retry transient faults much
        // harder than the hot path does before giving up on a layer.
        let retry = RetryPolicy {
            max_attempts: self.shared.retry.max_attempts.max(12),
            ..self.shared.retry
        };
        let stats = &self.shared.stats;
        (0..layers)
            .map(|l| {
                if let Some(state) = fin.orphaned.get_mut(l).and_then(Option::take) {
                    return Ok(state);
                }
                // Shutdown fetches go through the same store, so they feed
                // the same fault/retry counters as the hot path.
                with_retry(
                    &retry,
                    || match fin.store.fetch(l) {
                        Ok(s) => Ok(s),
                        Err(e) => {
                            // I1: diagnostic tally.
                            stats.store_faults.fetch_add(1, Ordering::Relaxed);
                            Err(e)
                        }
                    },
                    |_, _| {
                        // I1: diagnostic tally.
                        stats.store_retries.fetch_add(1, Ordering::Relaxed);
                    },
                )
                .map_err(TrainerError::from)
            })
            .collect()
    }

    /// Stop the updating thread, close the channel, join the buffering
    /// thread. Swallows nothing silently: a panicked worker is reported as
    /// an error value (second slot), never re-panicked — so the `Drop` path
    /// cannot double-panic and abort the process.
    fn stop_threads(&mut self) -> (Option<UpdaterFinal>, Option<TrainerError>) {
        // I3: termination flag; Release pairs with the updating loop's
        // Acquire load.
        self.shared.running.store(false, Ordering::Release);
        let mut error = None;
        let fin = match self.updating.take() {
            Some(h) => match h.join() {
                Ok(f) => Some(f),
                Err(_) => {
                    error = Some(TrainerError::WorkerPanicked {
                        thread: "angel-updating",
                    });
                    None
                }
            },
            None => None,
        };
        // Drop every sender so the buffering thread's recv() ends after
        // draining (the updating thread's clone died with its join above).
        let (dummy, _rx) = unbounded();
        drop(std::mem::replace(&mut self.to_buffering, dummy));
        if let Some(b) = self.buffering.take() {
            if b.join().is_err() && error.is_none() {
                error = Some(TrainerError::WorkerPanicked {
                    thread: "angel-buffering",
                });
            }
        }
        // Both workers are gone: everything they ever sent is now queued on
        // the event channel. Pump it into the stash so terminal events
        // (e.g. a park during the final offload) survive the trainer and
        // remain readable through [`StatsHandle::drain_events`].
        self.shared.pump_events();
        (fin, error)
    }
}

impl Drop for LockFreeTrainer {
    fn drop(&mut self) {
        // Tolerate users who never call shutdown(): stop cleanly anyway.
        // Join errors are discarded — Drop may already be running during an
        // unwind, where a second panic would abort the process.
        let _ = self.stop_threads();
    }
}

fn buffering_loop(shared: Arc<Shared>, rx: Receiver<BufMsg>) {
    // The loop exits when all senders are dropped (shutdown) after draining.
    while let Ok(msg) = rx.recv() {
        shared.obs.queue_depth.sub(1);
        match msg {
            BufMsg::Grads { layer, g } => {
                shared
                    .obs
                    .rec
                    .instant(ObsThread::Buffering, "grad_buffered", layer as i64);
                let mut buf = shared.grad_bufs[layer].lock();
                if buf.parked {
                    // Degraded mode: the layer's store is gone; settle the
                    // micro-batch as dropped instead of stranding it.
                    // I1 (dropped) / I2 (settled: Release, pairs with the
                    // quiescence Acquire; the push happens-before via the
                    // channel recv).
                    shared.stats.grads_dropped.fetch_add(1, Ordering::Relaxed);
                    shared.stats.grads_settled.fetch_add(1, Ordering::Release);
                    shared.obs.grads_dropped.inc();
                    shared.obs.rec.instant(
                        ObsThread::Buffering,
                        "grad_dropped_parked",
                        layer as i64,
                    );
                    continue;
                }
                // Line 15: g'₁₆(l) ← g'₁₆(l) + g₁₆(l).
                for (acc, x) in buf.g.iter_mut().zip(&g) {
                    *acc += x;
                }
                buf.micro += 1;
            }
            BufMsg::Updated {
                layer,
                p32,
                applied_micro,
            } => {
                let t0 = shared.obs.rec.now_ns();
                // Lines 12–13: clear buffered gradients, cast parameters.
                if shared.clear_policy == ClearPolicy::OnUpdateReceipt {
                    let mut buf = shared.grad_bufs[layer].lock();
                    // Everything present is cleared with the receipt. Of the
                    // cleared micro-batches, `applied_micro` were consumed by
                    // the update; the rest arrived during the update window
                    // and are dropped. The arithmetic is shared with the
                    // model checker (`verify::model`) via `protocol`.
                    let s = protocol::settle_receipt(buf.micro, applied_micro);
                    // I1 (dropped) / I2 (settled: Release; the cleared
                    // micro-batches' pushes happen-before through the grad
                    // mutex and the channel).
                    shared
                        .stats
                        .grads_dropped
                        .fetch_add(s.late as u64, Ordering::Relaxed);
                    shared
                        .stats
                        .grads_settled
                        .fetch_add(s.cleared as u64, Ordering::Release);
                    buf.g.iter_mut().for_each(|x| *x = 0.0);
                    buf.micro = 0;
                    buf.version += 1;
                }
                {
                    let mut pbuf = shared.param_bufs[layer].write();
                    pbuf.p.clear();
                    pbuf.p.extend(p32.iter().map(|&x| (shared.cast)(x)));
                    pbuf.version += 1;
                }
                if shared.obs.rec.is_enabled() {
                    shared
                        .obs
                        .rec
                        .span(ObsThread::Buffering, "apply_receipt", layer as i64, t0);
                    shared.obs.rec.counter_sample(
                        ObsThread::Buffering,
                        "trainer.pending_grads",
                        shared.pending_now(),
                    );
                }
            }
        }
    }
}

fn updating_loop(
    shared: Arc<Shared>,
    tx: Sender<BufMsg>,
    store: &mut Box<dyn StateStore>,
    optimizer: &mut dyn Optimizer,
    layers: usize,
) -> Vec<Option<LayerState>> {
    // Version of the buffer at our last snapshot per layer; a second update
    // of the same layer waits until the buffering thread has cleared the
    // previous one (version bump), so gradients are never applied twice.
    let mut last_snapshot_version: Vec<Option<u64>> = vec![None; layers];
    // States that could not be offloaded back after a permanent store
    // failure; kept so shutdown can still return them.
    let mut orphaned: Vec<Option<LayerState>> = (0..layers).map(|_| None).collect();
    let retry = shared.retry;
    let count_retry = |layer: usize, op: StoreOp| {
        let shared = &shared;
        move |r: u32, _e: &StoreError| {
            // I1: diagnostic tally.
            shared.stats.store_retries.fetch_add(1, Ordering::Relaxed);
            shared.obs.store_retries.inc();
            shared
                .obs
                .rec
                .instant(ObsThread::Updating, "store_retry", layer as i64);
            let _ = shared.events.send(TrainerEvent::StoreRetry {
                layer,
                op,
                retry: r,
            });
        }
    };
    // Line 2: while there are uncleared buffered gradients (we poll until
    // shutdown, idling when nothing is pending).
    // I3: Acquire pairs with the Release store in stop_threads.
    while shared.running.load(Ordering::Acquire) {
        let mut did_work = false;
        // Line 3: for l_i ∈ reverse(model) — gradients appear in reverse
        // layer order during backward, so reverse iteration updates the
        // layers whose gradients arrived first.
        for layer in (0..layers).rev() {
            let t0 = shared.obs.rec.now_ns();
            let snapshot = {
                let buf = shared.grad_bufs[layer].lock();
                // Snapshot gate shared with the model checker: under
                // OnUpdateReceipt the version protocol keeps at most one
                // update per layer in flight so gradients are never applied
                // twice.
                if !protocol::may_snapshot(
                    shared.clear_policy,
                    buf.micro,
                    buf.parked,
                    last_snapshot_version[layer],
                    buf.version,
                ) {
                    continue;
                }
                match shared.clear_policy {
                    ClearPolicy::OnUpdateReceipt => {
                        last_snapshot_version[layer] = Some(buf.version);
                        (buf.g.clone(), buf.micro)
                    }
                    ClearPolicy::TakeAtSnapshot => {
                        let mut buf = buf;
                        let g = buf.g.clone();
                        let micro = buf.micro;
                        buf.g.iter_mut().for_each(|x| *x = 0.0);
                        buf.micro = 0;
                        buf.version += 1;
                        // I2: settled Release; the snapshot consumed these
                        // micro-batches under the grad mutex, so their
                        // pushes happen-before this increment.
                        shared
                            .stats
                            .grads_settled
                            .fetch_add(micro as u64, Ordering::Release);
                        (g, micro)
                    }
                }
            };
            let (grads, micro) = snapshot;
            // Line 4: fetch p₃₂, m₃₂, v₃₂ from SSD storage — with retries;
            // an unrecoverable fault parks the layer instead of panicking.
            let fetched = with_retry(
                &retry,
                || match store.fetch(layer) {
                    Ok(s) => Ok(s),
                    Err(e) => {
                        // I1: diagnostic tally.
                        shared.stats.store_faults.fetch_add(1, Ordering::Relaxed);
                        Err(e)
                    }
                },
                count_retry(layer, StoreOp::Fetch),
            );
            let mut state = match fetched {
                Ok(state) => state,
                Err(e) => {
                    if shared.clear_policy == ClearPolicy::TakeAtSnapshot {
                        // The snapshot already settled these micro-batches;
                        // they will never be applied, so they are dropped.
                        // I1: diagnostic tally.
                        shared
                            .stats
                            .grads_dropped
                            .fetch_add(micro as u64, Ordering::Relaxed);
                        shared.obs.grads_dropped.add(micro as u64);
                    }
                    // (OnUpdateReceipt: the micro-batches are still in the
                    // buffer and no `Updated` receipt is in flight — the
                    // version protocol guarantees the previous clear landed
                    // before this snapshot — so park drops-and-settles them.)
                    shared.park_layer(layer, e, protocol::ParkDrop::Always);
                    did_work = true;
                    continue;
                }
            };
            // Line 5: update via g'₁₆.
            optimizer.update(layer, &mut state, &grads, micro);
            // I1: diagnostic tallies; conservation is asserted post-join.
            shared
                .stats
                .grads_applied
                .fetch_add(micro as u64, Ordering::Relaxed);
            shared.stats.updates_applied.fetch_add(1, Ordering::Relaxed);
            shared.obs.grads_applied.add(micro as u64);
            shared.obs.updates_applied.inc();
            // Line 6: pass p₃₂ to the buffering thread.
            shared.obs.queue_depth.add(1);
            let _ = tx.send(BufMsg::Updated {
                layer,
                p32: state.p32.clone(),
                applied_micro: micro,
            });
            // Line 7: offload back to SSD (overlapped with the buffering
            // thread's work — it is already processing the message). The
            // store consumes the state by value, so each attempt offloads a
            // clone and the original survives for retries / the orphan
            // stash.
            let offloaded = with_retry(
                &retry,
                || match store.offload(layer, state.clone()) {
                    Ok(()) => Ok(()),
                    Err(e) => {
                        // I1: diagnostic tally.
                        shared.stats.store_faults.fetch_add(1, Ordering::Relaxed);
                        Err(e)
                    }
                },
                count_retry(layer, StoreOp::Offload),
            );
            if let Err(e) = offloaded {
                // The update was applied and its parameters are buffered,
                // but the store lost the layer: park it and stash the state
                // so shutdown can still return the freshest masters. Under
                // OnUpdateReceipt the `Updated` message sent above may still
                // be in flight; if so its receipt settles everything
                // buffered and the park must NOT drop (double-count) — but
                // if the buffering thread already processed it (buffer
                // version advanced past our snapshot), anything buffered
                // since would be stranded forever, so the park must drop.
                // Under TakeAtSnapshot the receipt does not touch the grad
                // buffer, so arrivals since the snapshot are always dropped
                // by the park itself.
                orphaned[layer] = Some(state);
                let drop = match shared.clear_policy {
                    ClearPolicy::TakeAtSnapshot => protocol::ParkDrop::Always,
                    // Protocol invariant (Algorithm 2): an update under
                    // OnUpdateReceipt is always preceded by the snapshot
                    // that produced it, which recorded its version here.
                    #[allow(clippy::disallowed_methods)]
                    ClearPolicy::OnUpdateReceipt => protocol::ParkDrop::UnlessReceiptInFlight {
                        snapshot_version: last_snapshot_version[layer]
                            .expect("OnUpdateReceipt update implies a recorded snapshot"),
                    },
                };
                shared.park_layer(layer, e, drop);
            }
            if shared.obs.rec.is_enabled() {
                shared
                    .obs
                    .rec
                    .span(ObsThread::Updating, "update_layer", layer as i64, t0);
                shared.obs.rec.counter_sample(
                    ObsThread::Updating,
                    "trainer.pending_grads",
                    shared.pending_now(),
                );
            }
            did_work = true;
        }
        if !did_work {
            thread::yield_now();
        }
    }
    orphaned
}

/// The pure arithmetic of the consistency-control protocol, extracted so
/// the production threads (`buffering_loop`, `updating_loop`) and the
/// bounded model checker ([`crate::verify::model`]) execute the *same*
/// decision logic — a checker over a diverged copy would prove nothing.
pub mod protocol {
    use super::ClearPolicy;

    /// Accounting outcome of clearing the gradient buffer when an
    /// `Updated` receipt arrives (Algorithm 2 lines 12–13).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct ReceiptSettlement {
        /// Micro-batches removed from the buffer (all of them).
        pub cleared: u32,
        /// Of those, how many arrived during the update window and were
        /// never applied — the paper protocol's intentional loss.
        pub late: u32,
    }

    /// Settle a receipt: everything buffered clears; `applied_micro` of it
    /// was consumed by the update, the rest is dropped. Saturating because
    /// a park may already have drained the buffer under the receipt.
    pub fn settle_receipt(buffered_micro: u32, applied_micro: u32) -> ReceiptSettlement {
        ReceiptSettlement {
            cleared: buffered_micro,
            late: buffered_micro.saturating_sub(applied_micro),
        }
    }

    /// May the updating thread take a new snapshot of a layer's gradient
    /// buffer? Under [`ClearPolicy::OnUpdateReceipt`] the version gate
    /// keeps at most one update per layer in flight: a second snapshot of
    /// the same buffer version would apply the same gradients twice.
    pub fn may_snapshot(
        policy: ClearPolicy,
        buffered_micro: u32,
        parked: bool,
        last_snapshot: Option<u64>,
        version: u64,
    ) -> bool {
        if buffered_micro == 0 || parked {
            return false;
        }
        match policy {
            ClearPolicy::OnUpdateReceipt => last_snapshot != Some(version),
            ClearPolicy::TakeAtSnapshot => true,
        }
    }

    /// Who settles the micro-batches buffered at park time.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ParkDrop {
        /// No receipt can be in flight for this layer (fetch failure, or
        /// [`ClearPolicy::TakeAtSnapshot`] where receipts never touch the
        /// grad buffer): the park drops-and-settles the buffer.
        Always,
        /// An `Updated` receipt was sent before the park
        /// ([`ClearPolicy::OnUpdateReceipt`] offload failure). If it has
        /// not been processed yet it will settle everything buffered, so
        /// dropping here would double-count; if it *has* been processed,
        /// anything buffered since would be stranded forever, so the park
        /// must drop. The buffer version, read under the grad mutex,
        /// distinguishes the two: the receipt's clear bumps it past
        /// `snapshot_version`.
        ///
        /// The bounded model checker ([`crate::verify::model`]) found the
        /// stranding interleaving when this was an unconditional "never
        /// drop": receipt processed → new gradient buffered → park; the
        /// stranded micro-batch kept `pending_grads() > 0` forever.
        UnlessReceiptInFlight { snapshot_version: u64 },
    }

    /// Resolve a [`ParkDrop`] against the buffer version observed under
    /// the grad mutex at park time.
    pub fn park_should_drop(drop: ParkDrop, current_version: u64) -> bool {
        match drop {
            ParkDrop::Always => true,
            ParkDrop::UnlessReceiptInFlight { snapshot_version } => {
                current_version != snapshot_version
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultyStore};

    fn identity(x: f32) -> f32 {
        x
    }

    fn trainer(layers: usize, n: usize, policy: ClearPolicy) -> (LockFreeTrainer, Vec<Vec<f32>>) {
        let initial: Vec<Vec<f32>> = (0..layers)
            .map(|l| (0..n).map(|i| (l * n + i) as f32 * 0.01).collect())
            .collect();
        let store = MemoryStore::new(initial.iter().cloned().map(LayerState::new).collect());
        let t = LockFreeTrainer::spawn(
            initial.clone(),
            Box::new(store),
            Box::new(SgdOptimizer { lr: 0.1 }),
            identity,
            policy,
        );
        (t, initial)
    }

    /// A quick retry discipline so fault tests don't sleep for real.
    fn fast_retry() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_micros(10),
            max_backoff: Duration::from_micros(100),
        }
    }

    #[test]
    fn initial_params_readable() {
        let (t, initial) = trainer(3, 8, ClearPolicy::OnUpdateReceipt);
        for (l, expected) in initial.iter().enumerate() {
            let (p, v) = t.read_params(l);
            assert_eq!(&p, expected);
            assert_eq!(v, 0);
        }
        t.shutdown(3).unwrap();
    }

    #[test]
    fn single_gradient_applied() {
        let (t, initial) = trainer(1, 4, ClearPolicy::OnUpdateReceipt);
        t.push_grads(0, vec![1.0; 4]);
        t.wait_quiescent();
        let states = t.shutdown(1).unwrap();
        // SGD with lr 0.1, one micro-batch: p -= 0.1 * 1.0.
        for (p, p0) in states[0].p32.iter().zip(&initial[0]) {
            assert!((p - (p0 - 0.1)).abs() < 1e-6, "{p} vs {p0}");
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "timing-sensitive / too slow under Miri")]
    fn buffered_params_eventually_refresh() {
        let (t, _) = trainer(1, 4, ClearPolicy::OnUpdateReceipt);
        let (_, v0) = t.read_params(0);
        t.push_grads(0, vec![1.0; 4]);
        // Wait for the parameter buffer version to advance.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        loop {
            let (_, v) = t.read_params(0);
            if v > v0 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "param buffer never refreshed"
            );
            std::thread::yield_now();
        }
        t.shutdown(1).unwrap();
    }

    #[test]
    fn gradients_accumulate_across_microbatches() {
        // TakeAtSnapshot is lossless: pushing k micro-batches applies the
        // averaged sum exactly once each.
        let (t, initial) = trainer(1, 2, ClearPolicy::TakeAtSnapshot);
        for _ in 0..10 {
            t.push_grads(0, vec![2.0, 4.0]);
        }
        t.wait_quiescent();
        let stats = t.stats();
        assert_eq!(stats.grads_pushed, 10);
        assert_eq!(stats.grads_applied + stats.grads_dropped, 10);
        assert_eq!(stats.grads_dropped, 0);
        let states = t.shutdown(1).unwrap();
        // Every update applies lr * mean(grad); the mean is 2.0 / 4.0
        // regardless of how micro-batches were grouped into updates, so the
        // total displacement is stats.updates * lr * mean — with grouping
        // unknown, check direction and bound.
        let d0 = initial[0][0] - states[0].p32[0];
        let d1 = initial[0][1] - states[0].p32[1];
        assert!(d0 > 0.0 && d1 > 0.0);
        assert!(
            (d1 / d0 - 2.0).abs() < 1e-4,
            "proportional to gradient: {d1}/{d0}"
        );
    }

    #[test]
    fn multi_layer_updates_all_layers() {
        let (t, initial) = trainer(4, 4, ClearPolicy::OnUpdateReceipt);
        for l in 0..4 {
            t.push_grads(l, vec![1.0; 4]);
        }
        t.wait_quiescent();
        let states = t.shutdown(4).unwrap();
        for l in 0..4 {
            assert!(
                states[l].p32[0] < initial[l][0],
                "layer {l} parameters must move"
            );
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "timing-sensitive / too slow under Miri")]
    fn paper_policy_accounts_for_every_gradient() {
        let (t, _) = trainer(2, 16, ClearPolicy::OnUpdateReceipt);
        for i in 0..200 {
            t.push_grads(i % 2, vec![0.01; 16]);
        }
        t.wait_quiescent();
        let s = t.stats();
        assert_eq!(s.grads_pushed, 200);
        assert_eq!(s.grads_applied + s.grads_dropped, 200);
        assert!(s.updates_applied > 0);
        t.shutdown(2).unwrap();
    }

    #[test]
    #[cfg_attr(miri, ignore = "timing-sensitive / too slow under Miri")]
    fn training_never_blocks_on_slow_store() {
        // A severely throttled store: pushes must return immediately anyway
        // — the decoupling property the mechanism exists for. The bound is
        // *relative*: we first measure what synchronous coupling costs on an
        // identical store on this very machine, so a loaded CI runner slows
        // both measurements alike instead of tripping an absolute constant.
        let initial = vec![vec![0.0f32; 256]; 2];
        let bw = 200_000; // 200 KB/s: each fetch/offload takes ~15 ms
        let sync_rounds = 4u32;
        let mut probe =
            MemoryStore::throttled(initial.iter().cloned().map(LayerState::new).collect(), bw);
        let sync_start = std::time::Instant::now();
        for i in 0..sync_rounds as usize {
            let state = probe.fetch(i % 2).unwrap();
            probe.offload(i % 2, state).unwrap();
        }
        // What 50 synchronously-coupled pushes would cost at measured speed.
        let sync_50 = sync_start.elapsed() * 50 / sync_rounds;

        let store =
            MemoryStore::throttled(initial.iter().cloned().map(LayerState::new).collect(), bw);
        let t = LockFreeTrainer::spawn(
            initial,
            Box::new(store),
            Box::new(SgdOptimizer { lr: 0.1 }),
            identity,
            ClearPolicy::OnUpdateReceipt,
        );
        let start = std::time::Instant::now();
        for i in 0..50 {
            t.push_grads(i % 2, vec![1.0; 256]);
            let _ = t.read_params(i % 2);
        }
        let elapsed = start.elapsed();
        // Decoupled pushes must beat synchronous coupling by a wide margin
        // (4× here; the real gap is orders of magnitude).
        assert!(
            elapsed < sync_50 / 4,
            "pushes blocked: {elapsed:?} vs synchronous estimate {sync_50:?}"
        );
        t.wait_quiescent();
        let s = t.stats();
        assert_eq!(s.grads_applied + s.grads_dropped, 50);
        // The slow store forces accumulation: far fewer updates than pushes.
        assert!(s.updates_applied < 50, "updates = {}", s.updates_applied);
        t.shutdown(2).unwrap();
    }

    #[test]
    fn stale_reads_are_consistent_snapshots() {
        // read_params must never observe a torn write. Use identical
        // initial elements so lockstep SGD keeps them equal at every
        // consistent snapshot.
        let initial = vec![vec![0.5f32; 64]];
        let store = MemoryStore::new(initial.iter().cloned().map(LayerState::new).collect());
        let t = LockFreeTrainer::spawn(
            initial,
            Box::new(store),
            Box::new(SgdOptimizer { lr: 0.1 }),
            identity,
            ClearPolicy::TakeAtSnapshot,
        );
        for _ in 0..20 {
            t.push_grads(0, vec![1.0; 64]);
            let (p, _) = t.read_params(0);
            // All elements updated in lockstep by SGD: they must be equal.
            assert!(p.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-9));
        }
        t.wait_quiescent();
        t.shutdown(1).unwrap();
    }

    // ---- Fault-path tests ------------------------------------------------

    /// A store whose fetch panics — simulating a bug in a store
    /// implementation, the worst case the Drop path must survive.
    struct PanickyStore;

    impl StateStore for PanickyStore {
        fn fetch(&mut self, _layer: usize) -> Result<LayerState, StoreError> {
            panic!("store bug");
        }
        fn offload(&mut self, _layer: usize, _state: LayerState) -> Result<(), StoreError> {
            Ok(())
        }
    }

    #[test]
    fn drop_survives_worker_panic() {
        // A panicked updating thread must not abort the process when the
        // trainer is dropped (the old join().expect() double-panicked).
        let t = LockFreeTrainer::spawn(
            vec![vec![0.0f32; 4]],
            Box::new(PanickyStore),
            Box::new(SgdOptimizer { lr: 0.1 }),
            identity,
            ClearPolicy::OnUpdateReceipt,
        );
        t.push_grads(0, vec![1.0; 4]);
        // Give the updating thread time to hit the panic.
        while !t.updating.as_ref().unwrap().is_finished() {
            std::thread::yield_now();
        }
        drop(t); // must not abort
    }

    #[test]
    fn shutdown_reports_worker_panic_as_error() {
        let t = LockFreeTrainer::spawn(
            vec![vec![0.0f32; 4]],
            Box::new(PanickyStore),
            Box::new(SgdOptimizer { lr: 0.1 }),
            identity,
            ClearPolicy::OnUpdateReceipt,
        );
        t.push_grads(0, vec![1.0; 4]);
        while !t.updating.as_ref().unwrap().is_finished() {
            std::thread::yield_now();
        }
        let err = t.shutdown(1).unwrap_err();
        assert_eq!(
            err,
            TrainerError::WorkerPanicked {
                thread: "angel-updating"
            }
        );
    }

    #[test]
    fn wait_quiescent_returns_false_when_worker_died() {
        let t = LockFreeTrainer::spawn(
            vec![vec![0.0f32; 4]],
            Box::new(PanickyStore),
            Box::new(SgdOptimizer { lr: 0.1 }),
            identity,
            ClearPolicy::OnUpdateReceipt,
        );
        t.push_grads(0, vec![1.0; 4]);
        while !t.updating.as_ref().unwrap().is_finished() {
            std::thread::yield_now();
        }
        // The worker died with the gradient possibly unsettled; the waiter
        // must not spin forever.
        let _ = t.wait_quiescent();
    }

    /// Terminal events must not be stranded when the trainer is dropped
    /// before `drain_events`: shutdown pumps the channel post-join and the
    /// stash stays readable through the [`StatsHandle`].
    #[test]
    #[cfg_attr(miri, ignore = "timing-sensitive / too slow under Miri")]
    fn terminal_events_survive_drop_via_stats_handle() {
        let initial = vec![vec![0.5f32; 8]; 2];
        let inner = MemoryStore::new(initial.iter().cloned().map(LayerState::new).collect());
        let plan = FaultPlan::seeded(3).with_dead_layer(1, StoreOp::Fetch);
        let store = FaultyStore::new(inner, plan);
        let t = LockFreeTrainer::spawn_with(
            initial,
            Box::new(store),
            Box::new(SgdOptimizer { lr: 0.1 }),
            identity,
            ClearPolicy::OnUpdateReceipt,
            fast_retry(),
        );
        for l in 0..2 {
            t.push_grads(l, vec![1.0; 8]);
        }
        assert!(t.wait_quiescent());
        let handle = t.stats_handle();
        // Drop without ever draining: the park event is still queued.
        drop(t);
        let events = handle.drain_events();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, TrainerEvent::LayerParked { layer: 1, .. })),
            "park event stranded at shutdown: {events:?}"
        );
        // Drained means drained: a second call returns nothing.
        assert!(handle.drain_events().is_empty());
    }

    /// `spawn_observed` threads a live recorder through both worker
    /// threads: mirror counters match the protocol stats and the event
    /// ring holds wall-clock-stamped spans from the updating thread.
    #[test]
    #[cfg_attr(miri, ignore = "timing-sensitive / too slow under Miri")]
    fn observed_trainer_records_metrics_and_events() {
        use crate::obs::{ObsEventKind, Recorder};
        let rec = Recorder::enabled();
        let initial = vec![vec![0.5f32; 8]; 2];
        let store = MemoryStore::new(initial.iter().cloned().map(LayerState::new).collect());
        let t = LockFreeTrainer::spawn_observed(
            initial,
            Box::new(store),
            Box::new(SgdOptimizer { lr: 0.1 }),
            identity,
            ClearPolicy::TakeAtSnapshot,
            RetryPolicy::default(),
            rec.clone(),
        );
        for i in 0..20 {
            t.push_grads(i % 2, vec![1.0; 8]);
        }
        assert!(t.wait_quiescent());
        let handle = t.stats_handle();
        t.shutdown(2).unwrap();
        let stats = handle.stats();
        let snap = rec.snapshot();
        assert_eq!(snap.counters["trainer.grads_pushed"], 20);
        assert_eq!(snap.counters["trainer.grads_applied"], stats.grads_applied);
        assert_eq!(
            snap.counters["trainer.updates_applied"],
            stats.updates_applied
        );
        // Queue fully drained at shutdown.
        assert_eq!(snap.gauges["trainer.queue_depth"], 0);
        let events = rec.events();
        assert!(events.iter().any(|e| {
            e.thread == ObsThread::Updating
                && matches!(
                    e.kind,
                    ObsEventKind::Span {
                        name: "update_layer",
                        ..
                    }
                )
        }));
        assert!(events.iter().any(|e| {
            e.thread == ObsThread::TrainLoop
                && matches!(
                    e.kind,
                    ObsEventKind::Instant {
                        name: "push_grads",
                        ..
                    }
                )
        }));
        assert!(events.iter().any(|e| {
            matches!(
                e.kind,
                ObsEventKind::Counter {
                    name: "trainer.pending_grads",
                    ..
                }
            )
        }));
        // Wall-clock timestamps: at least one event strictly after epoch.
        assert!(events.iter().any(|e| e.ts_ns > 0));
    }

    #[test]
    #[cfg_attr(miri, ignore = "timing-sensitive / too slow under Miri")]
    fn transient_faults_are_retried_and_counted() {
        let initial = vec![vec![0.5f32; 8]; 2];
        let inner = MemoryStore::new(initial.iter().cloned().map(LayerState::new).collect());
        let plan = FaultPlan::seeded(7).with_transient_prob(0.3, 0.3);
        let store = FaultyStore::new(inner, plan);
        let counters = store.counters();
        let t = LockFreeTrainer::spawn_with(
            initial,
            Box::new(store),
            Box::new(SgdOptimizer { lr: 0.1 }),
            identity,
            ClearPolicy::TakeAtSnapshot,
            fast_retry(),
        );
        for i in 0..100 {
            t.push_grads(i % 2, vec![1.0; 8]);
        }
        assert!(t.wait_quiescent());
        // Counters only stop moving once the workers have joined (an offload
        // retry can still be in flight at quiescence), so the exact
        // accounting is asserted post-shutdown through the handle.
        let handle = t.stats_handle();
        t.shutdown(2).unwrap();
        let s = handle.stats();
        assert_eq!(s.grads_pushed, 100);
        assert_eq!(s.grads_applied + s.grads_dropped, 100);
        let injected = counters.injected();
        // With p=0.3 over hundreds of ops, faults certainly fired; every
        // observed fault is counted, and retries happened.
        assert!(injected > 0, "no faults injected");
        assert_eq!(s.store_faults, injected);
        assert!(s.store_retries > 0);
    }

    #[test]
    #[cfg_attr(miri, ignore = "timing-sensitive / too slow under Miri")]
    fn permanent_fetch_failure_parks_layer_and_training_continues() {
        let initial = vec![vec![0.5f32; 8]; 3];
        let inner = MemoryStore::new(initial.iter().cloned().map(LayerState::new).collect());
        // Layer 1's backing storage dies on its first fetch.
        let plan = FaultPlan::seeded(11).with_dead_layer(1, StoreOp::Fetch);
        let store = FaultyStore::new(inner, plan);
        let t = LockFreeTrainer::spawn_with(
            initial.clone(),
            Box::new(store),
            Box::new(SgdOptimizer { lr: 0.1 }),
            identity,
            ClearPolicy::OnUpdateReceipt,
            fast_retry(),
        );
        for round in 0..30 {
            for l in 0..3 {
                t.push_grads(l, vec![1.0; 8]);
            }
            // Let some updates land between pushes.
            if round % 10 == 9 {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        assert!(t.wait_quiescent(), "must quiesce despite the parked layer");
        let s = t.stats();
        assert_eq!(s.grads_pushed, 90);
        assert_eq!(s.grads_applied + s.grads_dropped, 90);
        assert_eq!(s.layers_parked, 1);
        assert_eq!(t.degraded_layers(), vec![1]);
        let events = t.drain_events();
        assert!(
            events.iter().any(|e| matches!(
                e,
                TrainerEvent::LayerParked { layer: 1, error }
                    if error.kind == StoreErrorKind::Permanent
            )),
            "park event must surface: {events:?}"
        );
        // Healthy layers kept learning.
        let (p0, _) = t.read_params(0);
        let (p2, _) = t.read_params(2);
        assert!(p0[0] < initial[0][0]);
        assert!(p2[0] < initial[2][0]);
        // The parked layer's state is unreachable (its storage died), so
        // shutdown reports the typed error instead of panicking.
        let err = t.shutdown(3).unwrap_err();
        assert!(matches!(
            err,
            TrainerError::Store(StoreError {
                layer: 1,
                kind: StoreErrorKind::Permanent,
                ..
            })
        ));
    }

    #[test]
    fn permanent_offload_failure_orphans_state_into_shutdown() {
        let initial = vec![vec![0.5f32; 8]; 2];
        let inner = MemoryStore::new(initial.iter().cloned().map(LayerState::new).collect());
        // Layer 0 dies on offload: the fetched+updated state would be lost
        // without the orphan stash.
        let plan = FaultPlan::seeded(13).with_dead_layer(0, StoreOp::Offload);
        let store = FaultyStore::new(inner, plan);
        let t = LockFreeTrainer::spawn_with(
            initial.clone(),
            Box::new(store),
            Box::new(SgdOptimizer { lr: 0.1 }),
            identity,
            ClearPolicy::OnUpdateReceipt,
            fast_retry(),
        );
        t.push_grads(0, vec![1.0; 8]);
        t.push_grads(1, vec![1.0; 8]);
        assert!(t.wait_quiescent());
        // The park lands only after the offload failure, which can trail
        // quiescence (the receipt settles first) — check post-shutdown.
        let handle = t.stats_handle();
        // Shutdown returns both layers: layer 0 from the orphan stash (with
        // its one applied update), layer 1 from the store.
        let states = t.shutdown(2).unwrap();
        assert_eq!(handle.degraded_layers(), vec![0]);
        assert!((states[0].p32[0] - (0.5 - 0.1)).abs() < 1e-6);
        assert!(states[1].p32[0] < 0.5);
    }

    #[test]
    #[cfg_attr(miri, ignore = "timing-sensitive / too slow under Miri")]
    fn seeded_fault_stress_accounting_invariant() {
        // The satellite stress test: across many seeds, injected transient
        // faults, retries and degraded-mode parking, the conservation law
        // grads_pushed == grads_applied + grads_dropped always holds, the
        // parameter buffers stay readable and un-torn, and nothing panics.
        for seed in 0..8u64 {
            let layers = 4;
            let n = 16;
            let initial: Vec<Vec<f32>> = (0..layers).map(|_| vec![0.25f32; n]).collect();
            let inner = MemoryStore::new(initial.iter().cloned().map(LayerState::new).collect());
            let mut plan = FaultPlan::seeded(seed).with_transient_prob(0.25, 0.25);
            // Half the seeds also kill one layer permanently mid-run.
            if seed % 2 == 0 {
                plan = plan.with_dead_layer_after((seed as usize) % layers, StoreOp::Fetch, 5);
            }
            let store = FaultyStore::new(inner, plan);
            let counters = store.counters();
            let t = LockFreeTrainer::spawn_with(
                initial,
                Box::new(store),
                Box::new(SgdOptimizer { lr: 0.05 }),
                identity,
                if seed % 3 == 0 {
                    ClearPolicy::TakeAtSnapshot
                } else {
                    ClearPolicy::OnUpdateReceipt
                },
                fast_retry(),
            );
            for i in 0..200 {
                t.push_grads(i % layers, vec![0.5; n]);
                if i % 32 == 0 {
                    // Reads interleaved with faults must stay consistent:
                    // lockstep SGD keeps equal elements equal.
                    let (p, _) = t.read_params((i + 1) % layers);
                    assert_eq!(p.len(), n);
                    assert!(
                        p.windows(2).all(|w| (w[0] - w[1]).abs() < 1e-9),
                        "torn read under faults (seed {seed})"
                    );
                }
            }
            assert!(t.wait_quiescent(), "seed {seed} failed to quiesce");
            let handle = t.stats_handle();
            // Shutdown is panic-free; it may legitimately fail typed if the
            // dead layer's state is unreachable.
            match t.shutdown(layers) {
                Ok(states) => assert_eq!(states.len(), layers),
                Err(TrainerError::Store(e)) => assert_eq!(e.kind, StoreErrorKind::Permanent),
                Err(other) => panic!("unexpected shutdown error at seed {seed}: {other}"),
            }
            // Post-join the counters are final: exact accounting holds.
            let s = handle.stats();
            assert_eq!(s.grads_pushed, 200, "seed {seed}");
            assert_eq!(
                s.grads_applied + s.grads_dropped,
                200,
                "conservation violated at seed {seed}: {s:?}"
            );
            assert_eq!(s.store_faults, counters.injected(), "seed {seed}");
            assert_eq!(s.layers_parked as usize, handle.degraded_layers().len());
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "timing-sensitive / too slow under Miri")]
    fn latency_spikes_do_not_block_pushes() {
        // Spikes on the store only slow the updating thread; pushes stay
        // non-blocking and all gradients settle.
        let initial = vec![vec![0.5f32; 8]; 2];
        let inner = MemoryStore::new(initial.iter().cloned().map(LayerState::new).collect());
        let plan = FaultPlan::seeded(23).with_latency_spikes(0.5, Duration::from_millis(2));
        let store = FaultyStore::new(inner, plan);
        let counters = store.counters();
        let t = LockFreeTrainer::spawn(
            initial,
            Box::new(store),
            Box::new(SgdOptimizer { lr: 0.1 }),
            identity,
            ClearPolicy::OnUpdateReceipt,
        );
        for i in 0..40 {
            t.push_grads(i % 2, vec![1.0; 8]);
        }
        assert!(t.wait_quiescent());
        let s = t.stats();
        assert_eq!(s.grads_applied + s.grads_dropped, 40);
        assert!(counters.spikes() > 0, "spikes must have fired");
        t.shutdown(2).unwrap();
    }
}
