//! Per-query work-counter contexts.
//!
//! The engines' own counters are process-lifetime atomics shared by
//! every concurrent query; diffing snapshots around one query's
//! execution attributes *everyone's* work to it. The scheme here keeps
//! attribution exact under concurrency:
//!
//! 1. The engine hot paths call the free `record_*` functions below at
//!    the same call sites that bump the lifetime atomics. Each call is
//!    one thread-local increment — no atomics, no locks.
//! 2. A request's executor wraps the query in a
//!    [`CounterScope::enter`] guard pointing at the request's own
//!    [`CounterSink`]. On drop, the guard flushes the thread-local
//!    *delta* accumulated since entry into the sink.
//! 3. A query runs on the thread that entered its scope; a sink may
//!    still be shared, since scopes on several threads can target it
//!    and their deltas sum.
//!
//! Scopes nest (inner work is visible to outer scopes, since an outer
//! baseline is older), and when no scope is active a `record_*` call
//! is a thread-local flag test — cheap enough to leave enabled on
//! every engine path.

use atsq_model::atomic::{AtomicU64, Ordering};
use atsq_model::sync::Mutex;
use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::Arc;

/// One query's work-counter delta. Field names follow
/// `EngineCounters` in `atsq-core`, with the raw TAS check count kept
/// (the derived "pruned" figure is checks minus APL reads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryCounters {
    /// Candidate trajectories entering the candidate set.
    pub candidates: u64,
    /// Full match-distance evaluations.
    pub distance_evals: u64,
    /// TAS containment checks performed.
    pub tas_checks: u64,
    /// TAS passes later refuted by the APL.
    pub tas_false_positives: u64,
    /// APL posting-list fetches.
    pub apl_reads: u64,
    /// Cold HICL accesses.
    pub cold_reads: u64,
}

impl QueryCounters {
    /// Component-wise saturating difference (`self - earlier`).
    fn delta_since(&self, earlier: &QueryCounters) -> QueryCounters {
        QueryCounters {
            candidates: self.candidates.saturating_sub(earlier.candidates),
            distance_evals: self.distance_evals.saturating_sub(earlier.distance_evals),
            tas_checks: self.tas_checks.saturating_sub(earlier.tas_checks),
            tas_false_positives: self
                .tas_false_positives
                .saturating_sub(earlier.tas_false_positives),
            apl_reads: self.apl_reads.saturating_sub(earlier.apl_reads),
            cold_reads: self.cold_reads.saturating_sub(earlier.cold_reads),
        }
    }

    /// Component-wise sum.
    pub fn add(&self, other: &QueryCounters) -> QueryCounters {
        QueryCounters {
            candidates: self.candidates + other.candidates,
            distance_evals: self.distance_evals + other.distance_evals,
            tas_checks: self.tas_checks + other.tas_checks,
            tas_false_positives: self.tas_false_positives + other.tas_false_positives,
            apl_reads: self.apl_reads + other.apl_reads,
            cold_reads: self.cold_reads + other.cold_reads,
        }
    }

    /// Whether every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self == QueryCounters::default()
    }
}

/// The destination of one query's counter deltas. Atomic because
/// scopes on several threads may flush into the same sink
/// concurrently.
#[derive(Debug, Default)]
pub struct CounterSink {
    candidates: AtomicU64,
    distance_evals: AtomicU64,
    tas_checks: AtomicU64,
    tas_false_positives: AtomicU64,
    apl_reads: AtomicU64,
    cold_reads: AtomicU64,
    /// Busy nanoseconds per engine shard for this query, indexed by
    /// shard. Cold path (one update per shard per query), so a mutex
    /// is fine.
    shard_busy_ns: Mutex<Vec<u64>>,
}

impl CounterSink {
    /// A fresh shared sink.
    pub fn new() -> Arc<CounterSink> {
        Arc::new(CounterSink::default())
    }

    fn flush(&self, delta: &QueryCounters) {
        if delta.is_zero() {
            return;
        }
        // ordering: Relaxed — independent monotone tallies; the sink
        // is read after the flushing scopes have dropped (and their
        // threads joined), which provides the happens-before edge.
        self.candidates
            .fetch_add(delta.candidates, Ordering::Relaxed);
        self.distance_evals
            .fetch_add(delta.distance_evals, Ordering::Relaxed);
        // ordering: Relaxed — as above.
        self.tas_checks
            .fetch_add(delta.tas_checks, Ordering::Relaxed);
        self.tas_false_positives
            .fetch_add(delta.tas_false_positives, Ordering::Relaxed);
        // ordering: Relaxed — as above.
        self.apl_reads.fetch_add(delta.apl_reads, Ordering::Relaxed);
        self.cold_reads
            .fetch_add(delta.cold_reads, Ordering::Relaxed);
    }

    /// Adds busy time for one engine shard.
    pub fn add_shard_busy(&self, shard: usize, ns: u64) {
        let mut busy = self.shard_busy_ns.lock();
        if busy.len() <= shard {
            busy.resize(shard + 1, 0);
        }
        busy[shard] += ns;
    }

    /// The accumulated counter delta.
    pub fn counters(&self) -> QueryCounters {
        // coherence: not a point-in-time cut across the six counters —
        // callers read the sink after joining (or dropping the scopes
        // of) the threads that flush into it, so by then the values
        // are quiescent; mid-flight reads are advisory progress only.
        // ordering: Relaxed — see the coherence note above.
        QueryCounters {
            candidates: self.candidates.load(Ordering::Relaxed),
            distance_evals: self.distance_evals.load(Ordering::Relaxed),
            tas_checks: self.tas_checks.load(Ordering::Relaxed),
            tas_false_positives: self.tas_false_positives.load(Ordering::Relaxed),
            apl_reads: self.apl_reads.load(Ordering::Relaxed),
            cold_reads: self.cold_reads.load(Ordering::Relaxed),
        }
    }

    /// The accumulated per-shard busy time (empty for unsharded
    /// engines).
    pub fn shard_busy_ns(&self) -> Vec<u64> {
        self.shard_busy_ns.lock().clone()
    }
}

struct Frame {
    sink: Arc<CounterSink>,
    baseline: QueryCounters,
}

struct LocalCtx {
    active: Cell<bool>,
    candidates: Cell<u64>,
    distance_evals: Cell<u64>,
    tas_checks: Cell<u64>,
    tas_false_positives: Cell<u64>,
    apl_reads: Cell<u64>,
    cold_reads: Cell<u64>,
    stack: RefCell<Vec<Frame>>,
}

impl LocalCtx {
    const fn new() -> LocalCtx {
        LocalCtx {
            active: Cell::new(false),
            candidates: Cell::new(0),
            distance_evals: Cell::new(0),
            tas_checks: Cell::new(0),
            tas_false_positives: Cell::new(0),
            apl_reads: Cell::new(0),
            cold_reads: Cell::new(0),
            stack: RefCell::new(Vec::new()),
        }
    }

    fn totals(&self) -> QueryCounters {
        QueryCounters {
            candidates: self.candidates.get(),
            distance_evals: self.distance_evals.get(),
            tas_checks: self.tas_checks.get(),
            tas_false_positives: self.tas_false_positives.get(),
            apl_reads: self.apl_reads.get(),
            cold_reads: self.cold_reads.get(),
        }
    }
}

thread_local! {
    static CTX: LocalCtx = const { LocalCtx::new() };
}

macro_rules! record_fn {
    ($(#[$doc:meta])* $name:ident, $field:ident) => {
        $(#[$doc])*
        #[inline]
        pub fn $name() {
            CTX.with(|c| {
                if c.active.get() {
                    c.$field.set(c.$field.get() + 1);
                }
            });
        }
    };
}

record_fn!(
    /// Records one candidate retrieval into the active scope (no-op
    /// without one).
    record_candidate,
    candidates
);
record_fn!(
    /// Records one full distance evaluation.
    record_distance_eval,
    distance_evals
);
record_fn!(
    /// Records one TAS containment check.
    record_tas_check,
    tas_checks
);
record_fn!(
    /// Records one TAS false positive.
    record_tas_false_positive,
    tas_false_positives
);
record_fn!(
    /// Records one APL posting-list fetch.
    record_apl_read,
    apl_reads
);
record_fn!(
    /// Records one cold HICL access.
    record_cold_read,
    cold_reads
);

/// Adds `ns` of busy time for engine shard `shard` to the innermost
/// active scope's sink. No-op without an active scope.
pub fn record_shard_busy(shard: usize, ns: u64) {
    CTX.with(|c| {
        if !c.active.get() {
            return;
        }
        let stack = c.stack.borrow();
        if let Some(frame) = stack.last() {
            frame.sink.add_shard_busy(shard, ns);
        }
    });
}

/// An RAII counter scope: everything recorded on this thread between
/// `enter` and drop is flushed into the given sink.
///
/// Scopes nest LIFO per thread; an outer scope's baseline is older, so
/// inner work is included in the outer delta as well (a query's total
/// includes its sub-spans). The guard is `!Send` — it must drop on the
/// thread that entered it.
#[must_use = "the scope flushes its delta on drop"]
pub struct CounterScope {
    _not_send: PhantomData<*const ()>,
}

impl CounterScope {
    /// Opens a scope targeting `sink` on the current thread.
    pub fn enter(sink: Arc<CounterSink>) -> CounterScope {
        CTX.with(|c| {
            c.stack.borrow_mut().push(Frame {
                sink,
                baseline: c.totals(),
            });
            c.active.set(true);
        });
        CounterScope {
            _not_send: PhantomData,
        }
    }
}

impl Drop for CounterScope {
    fn drop(&mut self) {
        CTX.with(|c| {
            let frame = c
                .stack
                .borrow_mut()
                .pop()
                .expect("counter scope stack underflow");
            frame.sink.flush(&c.totals().delta_since(&frame.baseline));
            c.active.set(!c.stack.borrow().is_empty());
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inactive_records_are_no_ops() {
        record_candidate();
        record_distance_eval();
        let sink = CounterSink::new();
        {
            let _scope = CounterScope::enter(sink.clone());
        }
        assert!(sink.counters().is_zero());
    }

    #[test]
    fn scope_captures_only_its_own_window() {
        // Counts recorded before the scope must not leak into it.
        record_candidate();
        let sink = CounterSink::new();
        {
            let _scope = CounterScope::enter(sink.clone());
            record_candidate();
            record_candidate();
            record_apl_read();
            record_tas_check();
            record_tas_false_positive();
            record_distance_eval();
            record_cold_read();
        }
        // And counts after it must not either.
        record_candidate();
        let c = sink.counters();
        assert_eq!(c.candidates, 2);
        assert_eq!(c.apl_reads, 1);
        assert_eq!(c.tas_checks, 1);
        assert_eq!(c.tas_false_positives, 1);
        assert_eq!(c.distance_evals, 1);
        assert_eq!(c.cold_reads, 1);
    }

    #[test]
    fn nested_scopes_both_see_inner_work() {
        let outer = CounterSink::new();
        let inner = CounterSink::new();
        {
            let _o = CounterScope::enter(outer.clone());
            record_candidate();
            {
                let _i = CounterScope::enter(inner.clone());
                record_candidate();
                record_candidate();
            }
            record_candidate();
        }
        assert_eq!(inner.counters().candidates, 2);
        assert_eq!(outer.counters().candidates, 4);
    }

    #[test]
    fn sink_propagates_across_threads() {
        let sink = CounterSink::new();
        {
            let _scope = CounterScope::enter(sink.clone());
            record_candidate();
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    let shared = sink.clone();
                    scope.spawn(move || {
                        let _s = CounterScope::enter(shared);
                        record_candidate();
                        record_distance_eval();
                        record_shard_busy(1, 10);
                    });
                }
            });
        }
        let c = sink.counters();
        assert_eq!(c.candidates, 5);
        assert_eq!(c.distance_evals, 4);
        assert_eq!(sink.shard_busy_ns(), vec![0, 40]);
    }

    #[test]
    fn records_after_the_scope_drops_are_no_ops() {
        let sink = CounterSink::new();
        let scope = CounterScope::enter(sink.clone());
        record_shard_busy(0, 5);
        drop(scope);
        record_candidate();
        record_shard_busy(0, 7);
        assert!(sink.counters().is_zero());
        assert_eq!(sink.shard_busy_ns(), vec![5]);
    }
}
