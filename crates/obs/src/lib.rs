//! `atsq-obs` — observability primitives for the serving stack.
//!
//! The engine crates count their work in process-lifetime atomics
//! ([`atsq_gat::IoStats`]-style counters); that answers "how much work
//! has this index done", never "how much work did *this* query do".
//! This crate provides the missing per-request layer, with no
//! dependencies beyond `std`:
//!
//! * [`counters`] — a **per-query counter context**: a thread-local
//!   accumulator plus a [`CounterScope`] guard that flushes the delta
//!   observed inside the scope into an [`Arc`]'d [`CounterSink`].
//!   Engine hot paths call the free `record_*` functions (one
//!   thread-local read and branch when no scope is active); concurrent
//!   queries each carry their own sink, so their numbers never smear
//!   the way global-snapshot diffs would.
//! * [`span`] — monotone **stage clocks**: a [`StageClock`] marks
//!   request stages (admission → queue → cache → assembly → engine →
//!   reply) whose durations telescope exactly to the end-to-end
//!   latency, and a [`TraceReport`] carries the breakdown together
//!   with the query's counter delta and per-shard busy time.
//! * [`slowlog`] — a bounded **slow-query ring buffer** with a
//!   latency threshold and a force flag for always-sampling the tail.
//! * [`prom`] — a tiny **Prometheus text-format** writer (counters,
//!   gauges, histograms, labels).
//!
//! [`atsq_gat::IoStats`]: https://docs.rs/atsq-gat
//! [`Arc`]: std::sync::Arc

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod counters;
pub mod prom;
pub mod slowlog;
pub mod span;

pub use counters::{
    record_apl_read, record_candidate, record_cold_read, record_distance_eval, record_shard_busy,
    record_tas_check, record_tas_false_positive, CounterScope, CounterSink, QueryCounters,
};
pub use prom::PromText;
pub use slowlog::{SlowEntry, SlowLog};
pub use span::{Stage, StageClock, TraceReport, STAGES};
