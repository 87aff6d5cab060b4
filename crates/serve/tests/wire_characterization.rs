//! Characterization of the wire-level introspection surfaces: one fixed
//! scenario over TCP, then the `METRICS`, `STATS`, `CACHE` and `SLOW`
//! replies pinned against literal expectations.
//!
//! Only the timing-dependent parts are masked: histogram buckets and
//! sums, and the `*_ns` quantiles and buckets of `STATS`. Everything
//! else — every `# HELP`/`# TYPE` line, every label set, every counter
//! and gauge value, every histogram `_count`, the `STATS` key order and
//! counts, the whole `CACHE` document — must match byte for byte, so a
//! refactor of where a fact is kept cannot silently change what the
//! wire reports.

use gmc_expr::{Dim, SymChain, SymFactor, SymOperand};
use gmc_kernels::KernelRegistry;
use gmc_serve::tcp::TcpFrontDoor;
use gmc_serve::{ServeConfig, Server};
use serde::Value;
use std::io::{BufRead, BufReader, Lines, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// `A(n×m) B(m×k) C(k×n)`: the structure served on demand.
fn on_demand() -> SymChain {
    let (n, m, k) = (Dim::var("wc_n"), Dim::var("wc_m"), Dim::var("wc_k"));
    SymChain::new(vec![
        SymFactor::plain(SymOperand::new("A", n, m)),
        SymFactor::plain(SymOperand::new("B", m, k)),
        SymFactor::plain(SymOperand::new("C", k, n)),
    ])
    .unwrap()
}

/// `D(p×q) E(q×p)`: the structure pre-enumerated at registration, so
/// every request for it is a hit.
fn pre_enumerated() -> SymChain {
    let (p, q) = (Dim::var("wc_p"), Dim::var("wc_q"));
    SymChain::new(vec![
        SymFactor::plain(SymOperand::new("D", p, q)),
        SymFactor::plain(SymOperand::new("E", q, p)),
    ])
    .unwrap()
}

/// One request line and the outcome (or error code) its reply carries.
const SCENARIO: [(&str, &str); 9] = [
    (
        "P wc_n=10,wc_m=200,wc_k=30",
        "\"outcome\":\"miss_structure\"",
    ),
    ("P wc_n=20,wc_m=400,wc_k=60", "\"outcome\":\"hit\""),
    ("P wc_n=10,wc_m=200,wc_k=30", "\"outcome\":\"hit\""),
    ("Q wc_p=100,wc_q=30", "\"outcome\":\"hit\""),
    ("Q wc_p=7,wc_q=90", "\"outcome\":\"hit\""),
    ("Q wc_p=50,wc_q=3", "\"outcome\":\"hit\""),
    ("Z wc_n=10", "\"code\":\"unknown_structure\""),
    ("P wc_n=10,nope=3", "\"code\":\"bad_request\""),
    (
        "P wc_n=10,wc_m=200,wc_k=30,deadline_ms=0",
        "\"code\":\"deadline_exceeded\"",
    ),
];

/// Sends one line and returns the reply (up to `# EOF` for `METRICS`).
fn ask(
    writer: &mut TcpStream,
    lines: &mut Lines<BufReader<TcpStream>>,
    line: &str,
    multi: bool,
) -> String {
    writer.write_all(line.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();
    if !multi {
        return lines.next().unwrap().unwrap();
    }
    let mut out = String::new();
    loop {
        let line = lines.next().unwrap().unwrap();
        if line == "# EOF" {
            return out;
        }
        out.push_str(&line);
        out.push('\n');
    }
}

/// Runs the scenario and returns the `METRICS`, `STATS`, `CACHE` and
/// `SLOW` replies, in that order.
fn run_scenario() -> [String; 4] {
    let server = Server::start(
        Arc::new(KernelRegistry::blas_lapack()),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    server.register("P", on_demand()).unwrap();
    server
        .register_pre_enumerated("Q", pre_enumerated())
        .unwrap();
    let door = TcpFrontDoor::bind(server.handle(), "127.0.0.1:0").unwrap();
    let stream = TcpStream::connect(door.local_addr()).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut lines = BufReader::new(stream).lines();
    for (request, expect) in SCENARIO {
        let reply = ask(&mut writer, &mut lines, request, false);
        assert!(reply.contains(expect), "`{request}` → {reply}");
    }
    let replies = [
        ask(&mut writer, &mut lines, "METRICS", true),
        ask(&mut writer, &mut lines, "STATS", false),
        ask(&mut writer, &mut lines, "CACHE", false),
        ask(&mut writer, &mut lines, "SLOW", false),
    ];
    drop(writer);
    drop(lines);
    door.shutdown();
    server.shutdown();
    replies
}

/// The exposition without its timing: `_bucket` lines dropped, `_sum`
/// values masked; headers, label sets, counters, gauges and `_count`s
/// kept verbatim.
fn mask_metrics(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        let series = line.rsplit_once(' ').map_or(line, |(series, _)| series);
        let name = series.split('{').next().unwrap_or(series);
        if line.starts_with('#') {
            out.push_str(line);
        } else if name.ends_with("_bucket") {
            continue;
        } else if name.ends_with("_sum") {
            out.push_str(series);
            out.push_str(" *");
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// The `STATS` document with every nanosecond figure (the `*_ns`
/// quantiles and the `buckets` pairs) replaced by `*`, re-rendered in
/// its original key order.
fn mask_stats(value: &Value) -> Value {
    match value {
        Value::Object(fields) => Value::Object(
            fields
                .iter()
                .map(|(key, v)| {
                    let masked = if key.ends_with("_ns") || key == "buckets" {
                        Value::String("*".to_owned())
                    } else {
                        mask_stats(v)
                    };
                    (key.clone(), masked)
                })
                .collect(),
        ),
        Value::Array(items) => Value::Array(items.iter().map(mask_stats).collect()),
        other => other.clone(),
    }
}

/// Compares line by line so a mismatch names the first differing line.
fn assert_lines_eq(what: &str, actual: &str, expected: &str) {
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(
            a,
            e,
            "{what}: line {} differs; full reply:\n{actual}",
            i + 1
        );
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "{what}: line count differs; full reply:\n{actual}"
    );
}

#[test]
fn introspection_replies_match_the_characterized_scenario() {
    let [metrics, stats, cache, slow] = run_scenario();

    assert_lines_eq("METRICS", &mask_metrics(&metrics), EXPECTED_METRICS);

    let stats: Value = serde_json::from_str(&stats).expect("STATS parses");
    let stats = serde_json::to_string(&mask_stats(&stats)).unwrap();
    assert_eq!(stats, EXPECTED_STATS);

    assert_eq!(cache, EXPECTED_CACHE);

    assert!(
        slow.starts_with("{\"format\":\"gmc-traces/1\","),
        "SLOW format tag: {slow}"
    );
}

const EXPECTED_METRICS: &str = r#"# HELP gmc_cache_requests Plan-cache instantiates by outcome
# TYPE gmc_cache_requests counter
gmc_cache_requests{outcome="hit"} 5
gmc_cache_requests{outcome="miss_region"} 0
gmc_cache_requests{outcome="miss_structure"} 1
# HELP gmc_cache_shard_coalesced_waiters Misses served as hits after losing the recording race
# TYPE gmc_cache_shard_coalesced_waiters counter
gmc_cache_shard_coalesced_waiters{shard="0"} 0
gmc_cache_shard_coalesced_waiters{shard="1"} 0
gmc_cache_shard_coalesced_waiters{shard="10"} 0
gmc_cache_shard_coalesced_waiters{shard="11"} 0
gmc_cache_shard_coalesced_waiters{shard="12"} 0
gmc_cache_shard_coalesced_waiters{shard="13"} 0
gmc_cache_shard_coalesced_waiters{shard="14"} 0
gmc_cache_shard_coalesced_waiters{shard="15"} 0
gmc_cache_shard_coalesced_waiters{shard="2"} 0
gmc_cache_shard_coalesced_waiters{shard="3"} 0
gmc_cache_shard_coalesced_waiters{shard="4"} 0
gmc_cache_shard_coalesced_waiters{shard="5"} 0
gmc_cache_shard_coalesced_waiters{shard="6"} 0
gmc_cache_shard_coalesced_waiters{shard="7"} 0
gmc_cache_shard_coalesced_waiters{shard="8"} 0
gmc_cache_shard_coalesced_waiters{shard="9"} 0
# HELP gmc_cache_shard_hits Cache hits per shard
# TYPE gmc_cache_shard_hits counter
gmc_cache_shard_hits{shard="0"} 2
gmc_cache_shard_hits{shard="1"} 0
gmc_cache_shard_hits{shard="10"} 0
gmc_cache_shard_hits{shard="11"} 0
gmc_cache_shard_hits{shard="12"} 0
gmc_cache_shard_hits{shard="13"} 0
gmc_cache_shard_hits{shard="14"} 0
gmc_cache_shard_hits{shard="15"} 3
gmc_cache_shard_hits{shard="2"} 0
gmc_cache_shard_hits{shard="3"} 0
gmc_cache_shard_hits{shard="4"} 0
gmc_cache_shard_hits{shard="5"} 0
gmc_cache_shard_hits{shard="6"} 0
gmc_cache_shard_hits{shard="7"} 0
gmc_cache_shard_hits{shard="8"} 0
gmc_cache_shard_hits{shard="9"} 0
# HELP gmc_cache_shard_region_misses New-region recordings per shard
# TYPE gmc_cache_shard_region_misses counter
gmc_cache_shard_region_misses{shard="0"} 0
gmc_cache_shard_region_misses{shard="1"} 0
gmc_cache_shard_region_misses{shard="10"} 0
gmc_cache_shard_region_misses{shard="11"} 0
gmc_cache_shard_region_misses{shard="12"} 0
gmc_cache_shard_region_misses{shard="13"} 0
gmc_cache_shard_region_misses{shard="14"} 0
gmc_cache_shard_region_misses{shard="15"} 0
gmc_cache_shard_region_misses{shard="2"} 0
gmc_cache_shard_region_misses{shard="3"} 0
gmc_cache_shard_region_misses{shard="4"} 0
gmc_cache_shard_region_misses{shard="5"} 0
gmc_cache_shard_region_misses{shard="6"} 0
gmc_cache_shard_region_misses{shard="7"} 0
gmc_cache_shard_region_misses{shard="8"} 0
gmc_cache_shard_region_misses{shard="9"} 0
# HELP gmc_cache_shard_regions Size regions recorded per shard
# TYPE gmc_cache_shard_regions gauge
gmc_cache_shard_regions{shard="0"} 1
gmc_cache_shard_regions{shard="1"} 0
gmc_cache_shard_regions{shard="10"} 0
gmc_cache_shard_regions{shard="11"} 0
gmc_cache_shard_regions{shard="12"} 0
gmc_cache_shard_regions{shard="13"} 0
gmc_cache_shard_regions{shard="14"} 0
gmc_cache_shard_regions{shard="15"} 6
gmc_cache_shard_regions{shard="2"} 0
gmc_cache_shard_regions{shard="3"} 0
gmc_cache_shard_regions{shard="4"} 0
gmc_cache_shard_regions{shard="5"} 0
gmc_cache_shard_regions{shard="6"} 0
gmc_cache_shard_regions{shard="7"} 0
gmc_cache_shard_regions{shard="8"} 0
gmc_cache_shard_regions{shard="9"} 0
# HELP gmc_cache_shard_snapshot_swaps Region publications per shard (one per recorded or loaded region)
# TYPE gmc_cache_shard_snapshot_swaps counter
gmc_cache_shard_snapshot_swaps{shard="0"} 1
gmc_cache_shard_snapshot_swaps{shard="1"} 0
gmc_cache_shard_snapshot_swaps{shard="10"} 0
gmc_cache_shard_snapshot_swaps{shard="11"} 0
gmc_cache_shard_snapshot_swaps{shard="12"} 0
gmc_cache_shard_snapshot_swaps{shard="13"} 0
gmc_cache_shard_snapshot_swaps{shard="14"} 0
gmc_cache_shard_snapshot_swaps{shard="15"} 6
gmc_cache_shard_snapshot_swaps{shard="2"} 0
gmc_cache_shard_snapshot_swaps{shard="3"} 0
gmc_cache_shard_snapshot_swaps{shard="4"} 0
gmc_cache_shard_snapshot_swaps{shard="5"} 0
gmc_cache_shard_snapshot_swaps{shard="6"} 0
gmc_cache_shard_snapshot_swaps{shard="7"} 0
gmc_cache_shard_snapshot_swaps{shard="8"} 0
gmc_cache_shard_snapshot_swaps{shard="9"} 0
# HELP gmc_cache_shard_structure_misses New-structure recordings per shard
# TYPE gmc_cache_shard_structure_misses counter
gmc_cache_shard_structure_misses{shard="0"} 1
gmc_cache_shard_structure_misses{shard="1"} 0
gmc_cache_shard_structure_misses{shard="10"} 0
gmc_cache_shard_structure_misses{shard="11"} 0
gmc_cache_shard_structure_misses{shard="12"} 0
gmc_cache_shard_structure_misses{shard="13"} 0
gmc_cache_shard_structure_misses{shard="14"} 0
gmc_cache_shard_structure_misses{shard="15"} 0
gmc_cache_shard_structure_misses{shard="2"} 0
gmc_cache_shard_structure_misses{shard="3"} 0
gmc_cache_shard_structure_misses{shard="4"} 0
gmc_cache_shard_structure_misses{shard="5"} 0
gmc_cache_shard_structure_misses{shard="6"} 0
gmc_cache_shard_structure_misses{shard="7"} 0
gmc_cache_shard_structure_misses{shard="8"} 0
gmc_cache_shard_structure_misses{shard="9"} 0
# HELP gmc_cache_shard_structures Distinct structures cached per shard
# TYPE gmc_cache_shard_structures gauge
gmc_cache_shard_structures{shard="0"} 1
gmc_cache_shard_structures{shard="1"} 0
gmc_cache_shard_structures{shard="10"} 0
gmc_cache_shard_structures{shard="11"} 0
gmc_cache_shard_structures{shard="12"} 0
gmc_cache_shard_structures{shard="13"} 0
gmc_cache_shard_structures{shard="14"} 0
gmc_cache_shard_structures{shard="15"} 1
gmc_cache_shard_structures{shard="2"} 0
gmc_cache_shard_structures{shard="3"} 0
gmc_cache_shard_structures{shard="4"} 0
gmc_cache_shard_structures{shard="5"} 0
gmc_cache_shard_structures{shard="6"} 0
gmc_cache_shard_structures{shard="7"} 0
gmc_cache_shard_structures{shard="8"} 0
gmc_cache_shard_structures{shard="9"} 0
# HELP gmc_cache_structure_hits Cache hits per registered structure
# TYPE gmc_cache_structure_hits counter
gmc_cache_structure_hits{structure="P"} 2
gmc_cache_structure_hits{structure="Q"} 3
# HELP gmc_cache_structure_misses Cache misses per registered structure
# TYPE gmc_cache_structure_misses counter
gmc_cache_structure_misses{structure="P"} 1
gmc_cache_structure_misses{structure="Q"} 0
# HELP gmc_cache_structure_regions Size regions cached per registered structure
# TYPE gmc_cache_structure_regions gauge
gmc_cache_structure_regions{structure="P"} 1
gmc_cache_structure_regions{structure="Q"} 6
# HELP gmc_obs_slow_traces_capacity Slow-trace ring capacity
# TYPE gmc_obs_slow_traces_capacity gauge
gmc_obs_slow_traces_capacity 32
# HELP gmc_obs_slow_traces_kept Traces the slow-trace ring admitted
# TYPE gmc_obs_slow_traces_kept counter
gmc_obs_slow_traces_kept 6
# HELP gmc_obs_slow_traces_offered Completed traces offered to the slow-trace ring
# TYPE gmc_obs_slow_traces_offered counter
gmc_obs_slow_traces_offered 6
# HELP gmc_serve_batches Batches dispatched to workers
# TYPE gmc_serve_batches counter
gmc_serve_batches 6
# HELP gmc_serve_class_latency_ns Enqueue-to-complete latency per (structure, hit/miss) class
# TYPE gmc_serve_class_latency_ns histogram
gmc_serve_class_latency_ns_sum{class="hit",structure="P"} *
gmc_serve_class_latency_ns_count{class="hit",structure="P"} 2
gmc_serve_class_latency_ns_sum{class="hit",structure="Q"} *
gmc_serve_class_latency_ns_count{class="hit",structure="Q"} 3
gmc_serve_class_latency_ns_sum{class="miss",structure="P"} *
gmc_serve_class_latency_ns_count{class="miss",structure="P"} 1
# HELP gmc_serve_class_overflow Latency-class lookups funneled into the shared `other` class
# TYPE gmc_serve_class_overflow counter
gmc_serve_class_overflow 0
# HELP gmc_serve_coalesced Requests answered from another in-flight request's instantiate
# TYPE gmc_serve_coalesced counter
gmc_serve_coalesced 0
# HELP gmc_serve_latency_ns Request latency in nanoseconds by scope
# TYPE gmc_serve_latency_ns histogram
gmc_serve_latency_ns_sum{scope="expired"} *
gmc_serve_latency_ns_count{scope="expired"} 1
gmc_serve_latency_ns_sum{scope="queue"} *
gmc_serve_latency_ns_count{scope="queue"} 6
gmc_serve_latency_ns_sum{scope="total"} *
gmc_serve_latency_ns_count{scope="total"} 6
# HELP gmc_serve_requests_completed Requests a worker answered (successfully or not)
# TYPE gmc_serve_requests_completed counter
gmc_serve_requests_completed 6
# HELP gmc_serve_requests_rejected Requests answered before reaching a worker, by reason
# TYPE gmc_serve_requests_rejected counter
gmc_serve_requests_rejected{reason="expired"} 1
gmc_serve_requests_rejected{reason="other"} 2
gmc_serve_requests_rejected{reason="overload"} 0
# HELP gmc_serve_requests_served Completed requests by outcome class
# TYPE gmc_serve_requests_served counter
gmc_serve_requests_served{class="failed"} 0
gmc_serve_requests_served{class="hit"} 5
gmc_serve_requests_served{class="miss"} 1
# HELP gmc_serve_stage_latency_ns Per-stage request span duration in nanoseconds
# TYPE gmc_serve_stage_latency_ns histogram
gmc_serve_stage_latency_ns_sum{stage="admit"} *
gmc_serve_stage_latency_ns_count{stage="admit"} 6
gmc_serve_stage_latency_ns_sum{stage="dispatch"} *
gmc_serve_stage_latency_ns_count{stage="dispatch"} 6
gmc_serve_stage_latency_ns_sum{stage="group"} *
gmc_serve_stage_latency_ns_count{stage="group"} 6
gmc_serve_stage_latency_ns_sum{stage="lookup"} *
gmc_serve_stage_latency_ns_count{stage="lookup"} 6
gmc_serve_stage_latency_ns_sum{stage="queue"} *
gmc_serve_stage_latency_ns_count{stage="queue"} 6
gmc_serve_stage_latency_ns_sum{stage="reply"} *
gmc_serve_stage_latency_ns_count{stage="reply"} 6
gmc_serve_stage_latency_ns_sum{stage="solve"} *
gmc_serve_stage_latency_ns_count{stage="solve"} 6
# HELP gmc_serve_structures Registered structures
# TYPE gmc_serve_structures gauge
gmc_serve_structures 2
# HELP gmc_serve_worker_panics Worker threads that died by panic
# TYPE gmc_serve_worker_panics counter
gmc_serve_worker_panics 0
# HELP gmc_serve_worker_respawns Workers the supervisor respawned
# TYPE gmc_serve_worker_respawns counter
gmc_serve_worker_respawns 0
# HELP gmc_serve_workers_alive Worker threads currently alive
# TYPE gmc_serve_workers_alive gauge
gmc_serve_workers_alive 1
"#;

const EXPECTED_STATS: &str = r#"{"requests":6,"hits":5,"region_misses":0,"structure_misses":1,"coalesced":0,"batches":6,"structures":2,"completed":6,"served_hits":5,"served_misses":1,"failed":0,"rejected":3,"rejected_overload":0,"expired":1,"worker_panics":0,"respawns":0,"workers_alive":1,"latency":{"unit":"ns","total":{"count":6,"p50_ns":"*","p90_ns":"*","p99_ns":"*","max_ns":"*","buckets":"*"},"queue":{"count":6,"p50_ns":"*","p90_ns":"*","p99_ns":"*","max_ns":"*"},"expired":{"count":1,"p50_ns":"*","p90_ns":"*","p99_ns":"*","max_ns":"*"},"classes":[{"structure":"P","class":"hit","count":2,"p50_ns":"*","p90_ns":"*","p99_ns":"*","max_ns":"*"},{"structure":"P","class":"miss","count":1,"p50_ns":"*","p90_ns":"*","p99_ns":"*","max_ns":"*"},{"structure":"Q","class":"hit","count":3,"p50_ns":"*","p90_ns":"*","p99_ns":"*","max_ns":"*"}],"stages":[{"stage":"admit","count":6,"p50_ns":"*","p90_ns":"*","p99_ns":"*","max_ns":"*"},{"stage":"queue","count":6,"p50_ns":"*","p90_ns":"*","p99_ns":"*","max_ns":"*"},{"stage":"group","count":6,"p50_ns":"*","p90_ns":"*","p99_ns":"*","max_ns":"*"},{"stage":"dispatch","count":6,"p50_ns":"*","p90_ns":"*","p99_ns":"*","max_ns":"*"},{"stage":"lookup","count":6,"p50_ns":"*","p90_ns":"*","p99_ns":"*","max_ns":"*"},{"stage":"solve","count":6,"p50_ns":"*","p90_ns":"*","p99_ns":"*","max_ns":"*"},{"stage":"reply","count":6,"p50_ns":"*","p90_ns":"*","p99_ns":"*","max_ns":"*"}]}}"#;

const EXPECTED_CACHE: &str = r#"{"totals":{"requests":6,"hits":5,"region_misses":0,"structure_misses":1},"shards":[{"shard":0,"structures":1,"regions":1,"hits":2,"region_misses":0,"structure_misses":1,"coalesced_waiters":0,"snapshot_swaps":1},{"shard":1,"structures":0,"regions":0,"hits":0,"region_misses":0,"structure_misses":0,"coalesced_waiters":0,"snapshot_swaps":0},{"shard":2,"structures":0,"regions":0,"hits":0,"region_misses":0,"structure_misses":0,"coalesced_waiters":0,"snapshot_swaps":0},{"shard":3,"structures":0,"regions":0,"hits":0,"region_misses":0,"structure_misses":0,"coalesced_waiters":0,"snapshot_swaps":0},{"shard":4,"structures":0,"regions":0,"hits":0,"region_misses":0,"structure_misses":0,"coalesced_waiters":0,"snapshot_swaps":0},{"shard":5,"structures":0,"regions":0,"hits":0,"region_misses":0,"structure_misses":0,"coalesced_waiters":0,"snapshot_swaps":0},{"shard":6,"structures":0,"regions":0,"hits":0,"region_misses":0,"structure_misses":0,"coalesced_waiters":0,"snapshot_swaps":0},{"shard":7,"structures":0,"regions":0,"hits":0,"region_misses":0,"structure_misses":0,"coalesced_waiters":0,"snapshot_swaps":0},{"shard":8,"structures":0,"regions":0,"hits":0,"region_misses":0,"structure_misses":0,"coalesced_waiters":0,"snapshot_swaps":0},{"shard":9,"structures":0,"regions":0,"hits":0,"region_misses":0,"structure_misses":0,"coalesced_waiters":0,"snapshot_swaps":0},{"shard":10,"structures":0,"regions":0,"hits":0,"region_misses":0,"structure_misses":0,"coalesced_waiters":0,"snapshot_swaps":0},{"shard":11,"structures":0,"regions":0,"hits":0,"region_misses":0,"structure_misses":0,"coalesced_waiters":0,"snapshot_swaps":0},{"shard":12,"structures":0,"regions":0,"hits":0,"region_misses":0,"structure_misses":0,"coalesced_waiters":0,"snapshot_swaps":0},{"shard":13,"structures":0,"regions":0,"hits":0,"region_misses":0,"structure_misses":0,"coalesced_waiters":0,"snapshot_swaps":0},{"shard":14,"structures":0,"regions":0,"hits":0,"region_misses":0,"structure_misses":0,"coalesced_waiters":0,"snapshot_swaps":0},{"shard":15,"structures":1,"regions":6,"hits":3,"region_misses":0,"structure_misses":0,"coalesced_waiters":0,"snapshot_swaps":6}],"structures":[{"name":"P","hits":2,"misses":1,"regions":1},{"name":"Q","hits":3,"misses":0,"regions":6}]}"#;
