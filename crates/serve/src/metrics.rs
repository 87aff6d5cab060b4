//! The serve layer's instruments and the scrape-time rendering of its
//! observability surfaces (`METRICS`, `CACHE`).
//!
//! Every fact has one owner, written once on the hot path. Plain
//! counters, gauges and histograms are handles into the server's
//! [`MetricsRegistry`] ([`ObsLayer`]), which `METRICS` renders as is.
//! Facts that need more than one atomic — the served counters, which
//! must balance in every reading, and the plan cache's per-shard and
//! per-structure counters — stay with their owners and are copied into
//! the exposition *at scrape time*, so serving never pays for a counter
//! it already keeps.
//!
//! Rendered families (all names are stable API):
//!
//! | family | kind | labels | owner |
//! |---|---|---|---|
//! | `gmc.serve.stage.latency.ns` | histogram | `stage` (see [`STAGES`](crate::STAGES)) | registry |
//! | `gmc.serve.latency.ns` | histogram | `scope` = `total`/`queue`/`expired` | registry |
//! | `gmc.serve.coalesced`, `gmc.serve.batches` | counter | — | registry |
//! | `gmc.serve.worker.panics`, `gmc.serve.worker.respawns` | counter | — | registry |
//! | `gmc.serve.workers.alive` | gauge | — | registry |
//! | `gmc.serve.class.overflow` | counter | — | registry |
//! | `gmc.serve.requests.completed` | counter | — | served-counter seqlock |
//! | `gmc.serve.requests.served` | counter | `class` = `hit`/`miss`/`failed` | served-counter seqlock |
//! | `gmc.serve.requests.rejected` | counter | `reason` = `overload`/`expired`/`other` | served-counter seqlock |
//! | `gmc.serve.class.latency.ns` | histogram | `structure`, `class` = `hit`/`miss` | each registration's latency pair |
//! | `gmc.serve.structures` | gauge | — | the registered-structure map |
//! | `gmc.cache.requests` | counter | `outcome` = `hit`/`miss_region`/`miss_structure` | plan cache |
//! | `gmc.cache.shard.*` | counter/gauge | `shard` | plan cache |
//! | `gmc.cache.structure.{hits,misses,regions}` | counter/gauge | `structure` | plan cache |
//! | `gmc.obs.slow_traces.{offered,kept,capacity}` | counter/gauge | — | slow-trace ring |
//!
//! Latency classes are fixed per name at [`Server::register`](crate::Server::register)
//! and only non-empty classes are rendered. Past the
//! [`MAX_LATENCY_CLASSES`](crate::MAX_LATENCY_CLASSES) cap, and for a
//! structure itself named `other`, requests share the `other` class;
//! `gmc.cache.structure.*` aggregates the same way past
//! [`DEFAULT_SERIES_CAP`] structures, so no `other` series is ever
//! rendered twice.

use crate::{Registration, Shared, STAGES};
use gmc_obs::registry::{DEFAULT_SERIES_CAP, OVERFLOW_LABEL};
use gmc_obs::trace::SlowTraceRing;
use gmc_obs::{Counter, Exposition, Gauge, Histogram, MetricsRegistry};
use gmc_plan::sync::read_lock;
use gmc_plan::ShardStats;
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The observability layer behind the server: the live metrics
/// registry and the handles of every plain instrument it owns, the
/// slow-trace ring, and the trace-id counter. `METRICS` renders the
/// registry directly; see the module docs for what is added at scrape time.
pub(crate) struct ObsLayer {
    pub(crate) registry: MetricsRegistry,
    /// Per-stage span histograms, in [`STAGES`] order.
    pub(crate) stages: [Histogram; STAGES.len()],
    /// `gmc.serve.latency.ns{scope="total"}`.
    pub(crate) total: Histogram,
    /// `gmc.serve.latency.ns{scope="queue"}`.
    pub(crate) queue: Histogram,
    /// `gmc.serve.latency.ns{scope="expired"}`.
    pub(crate) expired: Histogram,
    pub(crate) coalesced: Counter,
    pub(crate) batches: Counter,
    pub(crate) worker_panics: Counter,
    pub(crate) respawns: Counter,
    pub(crate) workers_alive: Gauge,
    pub(crate) class_overflow: Counter,
    /// The N slowest completed traces.
    pub(crate) ring: SlowTraceRing,
    pub(crate) trace_ids: AtomicU64,
}

impl ObsLayer {
    pub(crate) fn new(slow_trace_capacity: usize) -> ObsLayer {
        let registry = MetricsRegistry::new();
        let stages = STAGES.map(|stage| {
            registry.histogram(
                "gmc.serve.stage.latency.ns",
                "Per-stage request span duration in nanoseconds",
                &[("stage", stage)],
            )
        });
        let latency = |scope| {
            registry.histogram(
                "gmc.serve.latency.ns",
                "Request latency in nanoseconds by scope",
                &[("scope", scope)],
            )
        };
        let (total, queue, expired) = (latency("total"), latency("queue"), latency("expired"));
        let counter = |name, help| registry.counter(name, help, &[]);
        ObsLayer {
            coalesced: counter(
                "gmc.serve.coalesced",
                "Requests answered from another in-flight request's instantiate",
            ),
            batches: counter("gmc.serve.batches", "Batches dispatched to workers"),
            worker_panics: counter(
                "gmc.serve.worker.panics",
                "Worker threads that died by panic",
            ),
            respawns: counter(
                "gmc.serve.worker.respawns",
                "Workers the supervisor respawned",
            ),
            class_overflow: counter(
                "gmc.serve.class.overflow",
                "Latency-class lookups funneled into the shared `other` class",
            ),
            workers_alive: registry.gauge(
                "gmc.serve.workers.alive",
                "Worker threads currently alive",
                &[],
            ),
            registry,
            stages,
            total,
            queue,
            expired,
            ring: SlowTraceRing::new(slow_trace_capacity),
            trace_ids: AtomicU64::new(0),
        }
    }

    pub(crate) fn next_trace_id(&self) -> u64 {
        self.trace_ids.fetch_add(1, Ordering::Relaxed)
    }
}

/// Renders the full Prometheus text exposition for a running server.
pub(crate) fn render_prometheus(shared: &Shared) -> String {
    let mut expo = Exposition::new();
    // Live instruments first, so the snapshot below is no older than
    // any histogram (workers record histograms after the served
    // counters).
    shared.obs.registry.render_into(&mut expo);

    let stats = shared.stats();

    let served = stats.served;
    expo.add_counter(
        "gmc.serve.requests.completed",
        "Requests a worker answered (successfully or not)",
        &[],
        served.completed,
    );
    for (class, value) in [
        ("hit", served.hits),
        ("miss", served.misses),
        ("failed", served.failed),
    ] {
        expo.add_counter(
            "gmc.serve.requests.served",
            "Completed requests by outcome class",
            &[("class", class)],
            value,
        );
    }
    let other_rejected = served
        .rejected
        .saturating_sub(served.rejected_overload)
        .saturating_sub(served.expired);
    for (reason, value) in [
        ("overload", served.rejected_overload),
        ("expired", served.expired),
        ("other", other_rejected),
    ] {
        expo.add_counter(
            "gmc.serve.requests.rejected",
            "Requests answered before reaching a worker, by reason",
            &[("reason", reason)],
            value,
        );
    }
    expo.add_gauge(
        "gmc.serve.structures",
        "Registered structures",
        &[],
        stats.structures as f64,
    );
    for class in stats.latency.classes {
        expo.add_histogram(
            "gmc.serve.class.latency.ns",
            "Enqueue-to-complete latency per (structure, hit/miss) class",
            &[
                ("structure", &class.structure),
                ("class", if class.hit { "hit" } else { "miss" }),
            ],
            class.snapshot,
        );
    }
    for (outcome, value) in [
        ("hit", stats.cache.hits),
        ("miss_region", stats.cache.region_misses),
        ("miss_structure", stats.cache.structure_misses),
    ] {
        expo.add_counter(
            "gmc.cache.requests",
            "Plan-cache instantiates by outcome",
            &[("outcome", outcome)],
            value,
        );
    }
    for s in shared.cache.shard_stats() {
        let shard = s.shard.to_string();
        let labels: [(&str, &str); 1] = [("shard", &shard)];
        expo.add_gauge(
            "gmc.cache.shard.structures",
            "Distinct structures cached per shard",
            &labels,
            s.structures as f64,
        );
        expo.add_gauge(
            "gmc.cache.shard.regions",
            "Size regions recorded per shard",
            &labels,
            s.regions as f64,
        );
        for (name, help, value) in [
            ("gmc.cache.shard.hits", "Cache hits per shard", s.hits),
            (
                "gmc.cache.shard.region_misses",
                "New-region recordings per shard",
                s.region_misses,
            ),
            (
                "gmc.cache.shard.structure_misses",
                "New-structure recordings per shard",
                s.structure_misses,
            ),
            (
                "gmc.cache.shard.coalesced_waiters",
                "Misses served as hits after losing the recording race",
                s.coalesced_waiters,
            ),
            (
                "gmc.cache.shard.snapshot_swaps",
                "Region publications per shard (one per recorded or loaded region)",
                s.snapshot_swaps,
            ),
        ] {
            expo.add_counter(name, help, &labels, value);
        }
    }
    for s in structure_cache_stats(shared) {
        let labels: [(&str, &str); 1] = [("structure", &s.name)];
        expo.add_counter(
            "gmc.cache.structure.hits",
            "Cache hits per registered structure",
            &labels,
            s.hits,
        );
        expo.add_counter(
            "gmc.cache.structure.misses",
            "Cache misses per registered structure",
            &labels,
            s.misses,
        );
        expo.add_gauge(
            "gmc.cache.structure.regions",
            "Size regions cached per registered structure",
            &labels,
            s.regions as f64,
        );
    }

    expo.add_counter(
        "gmc.obs.slow_traces.offered",
        "Completed traces offered to the slow-trace ring",
        &[],
        shared.obs.ring.offered(),
    );
    expo.add_counter(
        "gmc.obs.slow_traces.kept",
        "Traces the slow-trace ring admitted",
        &[],
        shared.obs.ring.kept(),
    );
    expo.add_gauge(
        "gmc.obs.slow_traces.capacity",
        "Slow-trace ring capacity",
        &[],
        shared.obs.ring.capacity() as f64,
    );

    expo.render()
}

/// The `CACHE` document: cache totals, per-shard stats and
/// per-structure stats, keys in field order.
#[derive(Serialize)]
struct CacheDoc {
    totals: CacheTotals,
    shards: Vec<ShardStats>,
    structures: Vec<StructureCacheStats>,
}

/// The `totals` object of the `CACHE` document.
#[derive(Serialize)]
struct CacheTotals {
    requests: u64,
    hits: u64,
    region_misses: u64,
    structure_misses: u64,
}

/// Renders the `CACHE` introspection summary as one stable JSON object.
pub(crate) fn render_cache(shared: &Shared) -> String {
    let totals = shared.cache.stats();
    let doc = CacheDoc {
        totals: CacheTotals {
            requests: totals.requests(),
            hits: totals.hits,
            region_misses: totals.region_misses,
            structure_misses: totals.structure_misses,
        },
        shards: shared.cache.shard_stats(),
        structures: structure_cache_stats(shared),
    };
    serde_json::to_string(&doc).expect("cache counters are finite")
}

/// Per-structure cache counters, resolved through the server's own
/// structure registrations. Serializes as one `CACHE` structure
/// object, keys in field order.
#[derive(Serialize)]
struct StructureCacheStats {
    name: String,
    hits: u64,
    misses: u64,
    regions: usize,
}

/// Cache counters per registered structure, sorted by name. Like every
/// labeled family, the set is bounded: beyond
/// [`DEFAULT_SERIES_CAP`] structures the remainder is aggregated into
/// one `other` entry, so a client registering thousands of structures
/// cannot blow up the scrape. A structure that is itself named `other`
/// joins that aggregate rather than colliding with it.
fn structure_cache_stats(shared: &Shared) -> Vec<StructureCacheStats> {
    let structures = read_lock(&shared.structures);
    let mut names: Vec<(&String, &Arc<Registration>)> = structures.iter().collect();
    names.sort_by_key(|(name, _)| *name);
    let mut out = Vec::with_capacity(names.len().min(DEFAULT_SERIES_CAP + 1));
    let mut other: Option<StructureCacheStats> = None;
    for (name, registration) in names {
        let (hits, misses, regions) = match shared.cache.plan_keyed(&registration.key) {
            Some(plan) => (plan.hits(), plan.misses(), plan.region_count()),
            None => (0, 0, 0),
        };
        if out.len() < DEFAULT_SERIES_CAP && name != OVERFLOW_LABEL {
            out.push(StructureCacheStats {
                name: name.clone(),
                hits,
                misses,
                regions,
            });
        } else {
            let agg = other.get_or_insert_with(|| StructureCacheStats {
                name: OVERFLOW_LABEL.to_owned(),
                hits: 0,
                misses: 0,
                regions: 0,
            });
            agg.hits += hits;
            agg.misses += misses;
            agg.regions += regions;
        }
    }
    out.extend(other);
    out
}
