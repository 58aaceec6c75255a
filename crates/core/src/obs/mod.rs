//! Unified observability: metrics registry, runtime event ring, and the
//! merged Perfetto timeline export.
//!
//! Angel-PTM's evaluation is about *seeing* resource overlap (Section 4.2)
//! and hierarchical-memory peaks (Table 4). The simulator has had a
//! chrome-trace export since PR 1; this module gives the *real* runtime —
//! [`PageAllocator`](crate::PageAllocator), the
//! [`LockFreeTrainer`](crate::lockfree::LockFreeTrainer)'s OS threads, the
//! [`Engine`](crate::Engine) iteration loop — the same visibility, and
//! merges both halves into one Perfetto file.
//!
//! Three pieces:
//!
//! * [`registry`] — [`Recorder`], a cloneable handle to named atomic
//!   [`Counter`]s, [`Gauge`]s and fixed-bucket [`Histogram`]s. Disabled
//!   recorders (the default everywhere) cost one branch per operation.
//! * [`events`] — [`ObsEvent`], wall-clock-timestamped spans / instants /
//!   counter samples in a bounded drop-oldest ring.
//! * [`export`] — [`MetricsSnapshot`] (deterministic JSON round-trip) and
//!   [`merged_perfetto`] (simulated tracks `pid 1`, runtime tracks
//!   `pid 2`).

pub mod events;
pub mod export;
pub mod registry;

pub use events::{ObsEvent, ObsEventKind, ObsThread, DEFAULT_RING_CAPACITY};
pub use export::{
    merged_perfetto, runtime_trace_events, HistogramSnapshot, MetricsSnapshot, RUNTIME_PID, SIM_PID,
};
pub use registry::{Counter, Gauge, Histogram, Recorder};
