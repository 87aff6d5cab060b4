//! Per-request traces and the slow-trace ring.
//!
//! A [`Trace`] is one completed request: a trace id, a class label,
//! the total latency, and ns-resolution [`Span`]s — one per pipeline
//! stage — that tile the total exactly (spans are consecutive, so
//! their durations sum to `total_ns`).
//!
//! The [`SlowTraceRing`] retains the N slowest traces seen so far. It
//! is lock-cheap on the hot path: a relaxed atomic *floor* holds the
//! smallest total currently worth keeping, so the overwhelming
//! majority of requests are rejected with a single atomic load, never
//! touching the mutex or even materializing their trace (the trace is
//! built by a closure only after admission). Snapshots export as
//! stable [`TRACE_FORMAT`] (`gmc-traces/1`) JSON.

use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The stable JSON format identifier for exported traces.
pub const TRACE_FORMAT: &str = "gmc-traces/1";

/// One pipeline stage of a request: where it started (ns offset from
/// the request's enqueue instant) and how long it lasted. Serializes
/// as one [`TRACE_FORMAT`] span object, keys in field order.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct Span {
    /// Stage name (one of the server's fixed stage set).
    pub stage: &'static str,
    /// Offset of the stage start from the request start, in ns.
    pub start_ns: u64,
    /// Stage duration in ns.
    pub dur_ns: u64,
}

/// One completed request trace. Serializes as one [`TRACE_FORMAT`]
/// trace object, keys in field order.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct Trace {
    /// Monotone per-server trace id.
    pub id: u64,
    /// Request label (structure name as submitted).
    pub label: String,
    /// Outcome class (`hit`, `miss`, an error code, …).
    pub class: String,
    /// End-to-end latency in ns.
    pub total_ns: u64,
    /// Per-stage spans in pipeline order; durations sum to `total_ns`.
    pub spans: Vec<Span>,
}

/// A fixed-capacity ring retaining the slowest traces seen so far.
/// See the module docs for the admission fast path.
#[derive(Debug)]
pub struct SlowTraceRing {
    capacity: usize,
    /// Admission floor: totals at or below this are rejected without
    /// locking. 0 while the ring has room; `u64::MAX` when disabled.
    floor: AtomicU64,
    offered: AtomicU64,
    kept: AtomicU64,
    entries: Mutex<Vec<Trace>>,
}

impl SlowTraceRing {
    /// A ring keeping the `capacity` slowest traces (0 disables
    /// tracing entirely: every offer is rejected by the floor check).
    pub fn new(capacity: usize) -> SlowTraceRing {
        SlowTraceRing {
            capacity,
            floor: AtomicU64::new(if capacity == 0 { u64::MAX } else { 0 }),
            offered: AtomicU64::new(0),
            kept: AtomicU64::new(0),
            entries: Mutex::new(Vec::with_capacity(capacity)),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many completions were offered to the ring.
    pub fn offered(&self) -> u64 {
        self.offered.load(Ordering::Relaxed)
    }

    /// How many offers were admitted (slow enough at the time).
    pub fn kept(&self) -> u64 {
        self.kept.load(Ordering::Relaxed)
    }

    /// Offers a completion. `build` runs — and the trace is
    /// materialized — only if `total_ns` beats the current floor; the
    /// common fast request costs one relaxed load.
    pub fn offer_with(&self, total_ns: u64, build: impl FnOnce() -> Trace) {
        self.offered.fetch_add(1, Ordering::Relaxed);
        let floor = self.floor.load(Ordering::Relaxed);
        if floor > 0 && total_ns <= floor {
            return;
        }
        let mut entries = self
            .entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Re-check under the lock: the floor may have risen.
        if entries.len() == self.capacity {
            let (slowest_idx, min_total) = entries
                .iter()
                .enumerate()
                .min_by_key(|(_, t)| t.total_ns)
                .map(|(i, t)| (i, t.total_ns))
                .expect("capacity > 0");
            if total_ns <= min_total {
                self.floor.store(min_total, Ordering::Relaxed);
                return;
            }
            entries.swap_remove(slowest_idx);
        }
        entries.push(build());
        self.kept.fetch_add(1, Ordering::Relaxed);
        if entries.len() == self.capacity {
            let min_total = entries.iter().map(|t| t.total_ns).min().expect("non-empty");
            self.floor.store(min_total, Ordering::Relaxed);
        }
    }

    /// The retained traces, slowest first (ties broken by trace id).
    pub fn snapshot(&self) -> Vec<Trace> {
        let mut traces = self
            .entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        traces.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.id.cmp(&b.id)));
        traces
    }
}

/// A [`TRACE_FORMAT`] document.
#[derive(Serialize)]
struct TracesDoc {
    format: &'static str,
    count: usize,
    traces: Vec<Trace>,
}

/// Renders traces as a stable [`TRACE_FORMAT`] JSON document:
/// `{"format":"gmc-traces/1","count":N,"traces":[...]}`.
pub fn traces_json(traces: Vec<Trace>) -> String {
    let doc = TracesDoc {
        format: TRACE_FORMAT,
        count: traces.len(),
        traces,
    };
    serde_json::to_string(&doc).expect("trace JSON is finite")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(id: u64, total_ns: u64) -> Trace {
        Trace {
            id,
            label: format!("t{id}"),
            class: "hit".to_owned(),
            total_ns,
            spans: vec![
                Span {
                    stage: "queue",
                    start_ns: 0,
                    dur_ns: total_ns / 2,
                },
                Span {
                    stage: "solve",
                    start_ns: total_ns / 2,
                    dur_ns: total_ns - total_ns / 2,
                },
            ],
        }
    }

    #[test]
    fn keeps_the_n_slowest() {
        let ring = SlowTraceRing::new(3);
        for (id, total) in [(1, 50), (2, 10), (3, 80), (4, 20), (5, 99), (6, 5)] {
            ring.offer_with(total, || trace(id, total));
        }
        let kept: Vec<(u64, u64)> = ring.snapshot().iter().map(|t| (t.id, t.total_ns)).collect();
        assert_eq!(kept, vec![(5, 99), (3, 80), (1, 50)]);
        assert_eq!(ring.offered(), 6);
        // id=6 (5ns) was floor-rejected once the ring filled.
        assert!(ring.kept() >= 3);
    }

    #[test]
    fn floor_rejects_without_building() {
        let ring = SlowTraceRing::new(2);
        ring.offer_with(100, || trace(1, 100));
        ring.offer_with(200, || trace(2, 200));
        // Ring full; floor is now 100. A 50ns offer must not build.
        ring.offer_with(50, || panic!("fast request materialized a trace"));
        assert_eq!(ring.snapshot().len(), 2);
    }

    #[test]
    fn capacity_zero_disables_tracing() {
        let ring = SlowTraceRing::new(0);
        ring.offer_with(u64::MAX - 1, || panic!("disabled ring built a trace"));
        assert!(ring.snapshot().is_empty());
        assert_eq!(ring.offered(), 1);
        assert_eq!(ring.kept(), 0);
    }

    #[test]
    fn json_is_stable() {
        let t = Trace {
            id: 7,
            label: "chain".to_owned(),
            class: "miss".to_owned(),
            total_ns: 12,
            spans: vec![Span {
                stage: "solve",
                start_ns: 2,
                dur_ns: 10,
            }],
        };
        assert_eq!(
            traces_json(vec![t]),
            "{\"format\":\"gmc-traces/1\",\"count\":1,\"traces\":[{\"id\":7,\"label\":\"chain\",\"class\":\"miss\",\"total_ns\":12,\"spans\":[{\"stage\":\"solve\",\"start_ns\":2,\"dur_ns\":10}]}]}"
        );
    }
}
