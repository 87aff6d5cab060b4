//! The line protocol, and its one owner: the command parser, the
//! introspection payloads and every wire document live here. The TCP
//! front door ([`crate::tcp`]), the CLI batch driver and the
//! `gmcc request` client all go through this module.
//!
//! One request per line:
//!
//! ```text
//! <structure> [<var>=<size>[,<var>=<size>...]]
//! ```
//!
//! e.g. `X n=2000,m=200`. The reserved binding `deadline_ms=<n>` asks
//! the server to answer `deadline_exceeded` if the request is still
//! queued `n` milliseconds after it was read. A variable, and
//! `deadline_ms`, may be bound at most once per line.
//!
//! Four command lines ask for introspection instead of a solve:
//!
//! | line | reply |
//! |---|---|
//! | `STATS` | server counters and latency quantiles, one JSON line |
//! | `METRICS` | the Prometheus text exposition, several lines ending with a `# EOF` line ([`EOF_LINE`]) |
//! | `SLOW` | the slowest retained traces, one `gmc-traces/1` JSON line |
//! | `CACHE` | cache totals, per-shard and per-structure stats, one JSON line |
//!
//! `METRICS` is the only multi-line reply. A solve is answered with
//! one compact JSON object per line; an error carries a stable `code`
//! (see [`ServeError::code`]), and a malformed line is answered with a
//! `bad_request` error whose `structure` is empty:
//!
//! ```text
//! {"structure":"X","outcome":"hit","cost":9.68e8,"flops":9.68e8,
//!  "parenthesization":"((A^-1 B) C^T)","kernels":["TRMM_RLT","POSV_LN"]}
//! {"structure":"X","error":"unknown structure `X` (register it first)","code":"unknown_structure"}
//! ```

use crate::histogram::HistogramSnapshot;
use crate::{RawRequest, RequestOptions, ServeError, ServeHandle, ServeReply, ServerStats};
use serde::Serialize;
use std::time::Duration;

/// The line that ends a `METRICS` reply.
pub const EOF_LINE: &str = "# EOF";

/// One protocol line, parsed by [`parse_command`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Command {
    /// A solve request.
    Solve(ParsedRequest),
    /// An introspection command.
    Introspect(Introspection),
}

/// The introspection commands; [`Introspection::answer`] renders them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Introspection {
    /// `STATS`
    Stats,
    /// `METRICS`
    Metrics,
    /// `SLOW`
    Slow,
    /// `CACHE`
    Cache,
}

/// Parses one protocol line: an introspection keyword, else a solve
/// request (see [`parse_request_line`]).
///
/// # Errors
///
/// Returns a description of the malformed part.
pub fn parse_command(line: &str) -> Result<Command, String> {
    let introspection = match line.trim() {
        "STATS" => Introspection::Stats,
        "METRICS" => Introspection::Metrics,
        "SLOW" => Introspection::Slow,
        "CACHE" => Introspection::Cache,
        _ => return parse_request_line(line).map(Command::Solve),
    };
    Ok(Command::Introspect(introspection))
}

impl Command {
    /// Whether the reply spans several lines, the last one
    /// [`EOF_LINE`]; every other reply is one line.
    pub fn multi_line(&self) -> bool {
        matches!(self, Command::Introspect(Introspection::Metrics))
    }
}

impl Introspection {
    /// The command's exact wire payload as of now, without the final
    /// newline.
    pub fn answer(self, handle: &ServeHandle) -> String {
        match self {
            Introspection::Stats => stats_to_json(&handle.stats()),
            Introspection::Metrics => {
                let mut body = handle.metrics_prometheus();
                if !body.is_empty() && !body.ends_with('\n') {
                    body.push('\n');
                }
                body.push_str(EOF_LINE);
                body
            }
            Introspection::Slow => handle.slow_traces_json(),
            Introspection::Cache => handle.cache_introspection_json(),
        }
    }
}

/// A parsed request line: the structure name, the named dimension
/// sizes, and the optional `deadline_ms=` budget.
pub type ParsedRequest = (String, Vec<(String, usize)>, Option<u64>);

/// Parses a request line into `(structure, named sizes, deadline)`.
///
/// The reserved binding `deadline_ms=<n>` is split off rather than
/// treated as a dimension; [`raw_request`] turns it into a deadline.
///
/// Variable names stay plain strings here: `DimVar` interning is
/// process-wide and permanent, so untrusted client input must be
/// resolved against a registered structure's (bounded) variable
/// vocabulary — [`crate::ServeHandle::submit_raw_batch`] does that,
/// and rejects a variable bound twice — rather than interned wholesale.
///
/// # Errors
///
/// Returns a description of the malformed part.
pub fn parse_request_line(line: &str) -> Result<ParsedRequest, String> {
    let line = line.trim();
    let (name, rest) = match line.split_once(char::is_whitespace) {
        Some((name, rest)) => (name, rest.trim()),
        None => (line, ""),
    };
    if name.is_empty() {
        return Err("empty request line (expected `<structure> [var=size,...]`)".to_owned());
    }
    let mut vars = Vec::new();
    let mut deadline_ms = None;
    if !rest.is_empty() {
        for part in rest.split(',') {
            let part = part.trim();
            let Some((var, value)) = part.split_once('=') else {
                return Err(format!("bad binding `{part}` (expected `var=size`)"));
            };
            let var = var.trim();
            if var.is_empty() {
                return Err(format!("bad binding `{part}` (empty variable name)"));
            }
            if var == "deadline_ms" {
                if deadline_ms.is_some() {
                    return Err("`deadline_ms` bound twice".to_owned());
                }
                let ms: u64 = value
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad deadline in `{part}` (expected milliseconds)"))?;
                deadline_ms = Some(ms);
                continue;
            }
            let value: usize = value
                .trim()
                .parse()
                .map_err(|_| format!("bad size in `{part}` (expected an integer)"))?;
            vars.push((var.to_owned(), value));
        }
    }
    Ok((name.to_owned(), vars, deadline_ms))
}

/// A parsed request as [`ServeHandle::submit_raw_batch`] takes it; its
/// deadline, if any, counts from now.
pub fn raw_request((structure, vars, deadline_ms): ParsedRequest) -> RawRequest {
    let options = deadline_ms.map_or_else(RequestOptions::default, |ms| {
        RequestOptions::with_deadline_in(Duration::from_millis(ms))
    });
    (structure, vars, options)
}

/// A served request's reply line.
#[derive(Serialize)]
struct ServedLine {
    structure: String,
    outcome: &'static str,
    cost: f64,
    flops: f64,
    parenthesization: String,
    kernels: Vec<String>,
}

/// A failed request's reply line.
#[derive(Serialize)]
struct ErrorLine {
    structure: String,
    error: String,
    /// Stable and machine-readable, so clients can branch without
    /// parsing prose.
    code: &'static str,
}

/// Renders a reply as one compact JSON line (without the newline).
pub fn reply_to_json(reply: &ServeReply) -> String {
    let structure = reply.structure.clone();
    match &reply.result {
        Ok(served) => serde_json::to_string(&ServedLine {
            structure,
            outcome: served.outcome.label(),
            cost: served.cost,
            flops: served.flops,
            parenthesization: served.parenthesization.clone(),
            kernels: served.kernels.clone(),
        }),
        Err(e) => serde_json::to_string(&ErrorLine {
            structure,
            error: e.to_string(),
            code: e.code(),
        }),
    }
    .expect("reply values are finite")
}

/// The reply line to a malformed request line: a `bad_request` error
/// with an empty `structure`.
pub fn bad_request_json(message: String) -> String {
    reply_to_json(&ServeReply {
        structure: String::new(),
        result: Err(ServeError::BadRequest(message)),
    })
}

/// The `STATS` document, keys in field order.
#[derive(Serialize)]
struct StatsDoc {
    requests: u64,
    hits: u64,
    region_misses: u64,
    structure_misses: u64,
    coalesced: u64,
    batches: u64,
    structures: usize,
    completed: u64,
    served_hits: u64,
    served_misses: u64,
    failed: u64,
    rejected: u64,
    rejected_overload: u64,
    expired: u64,
    worker_panics: u64,
    respawns: u64,
    workers_alive: usize,
    latency: LatencyDoc,
}

/// The `latency` object of the `STATS` document.
#[derive(Serialize)]
struct LatencyDoc {
    unit: &'static str,
    total: TotalLatency,
    queue: Quantiles,
    expired: Quantiles,
    classes: Vec<ClassQuantiles>,
    stages: Vec<StageQuantiles>,
}

/// The quantile summary every latency entry carries (nanoseconds).
#[derive(Serialize)]
struct Quantiles {
    count: u64,
    p50_ns: u64,
    p90_ns: u64,
    p99_ns: u64,
    max_ns: u64,
}

impl Quantiles {
    fn of(snapshot: &HistogramSnapshot) -> Quantiles {
        Quantiles {
            count: snapshot.count(),
            p50_ns: snapshot.quantile(0.5),
            p90_ns: snapshot.quantile(0.9),
            p99_ns: snapshot.quantile(0.99),
            max_ns: snapshot.max(),
        }
    }
}

#[derive(Serialize)]
struct TotalLatency {
    #[serde(flatten)]
    quantiles: Quantiles,
    /// Non-empty buckets as `[upper_bound_ns, count]`, bounds strictly
    /// increasing.
    buckets: Vec<[u64; 2]>,
}

#[derive(Serialize)]
struct ClassQuantiles {
    structure: String,
    class: &'static str,
    #[serde(flatten)]
    quantiles: Quantiles,
}

#[derive(Serialize)]
struct StageQuantiles {
    stage: &'static str,
    #[serde(flatten)]
    quantiles: Quantiles,
}

/// Renders the server counters as one compact JSON line: the cache
/// counters (which count instantiates), the per-request `served`
/// counters (one consistent snapshot:
/// `served_hits + served_misses + failed == completed`), supervision,
/// and the latency layer — total and queue quantiles, the total
/// histogram's buckets, per-(structure, hit/miss) classes and
/// per-stage spans in [`crate::STAGES`] order.
pub fn stats_to_json(stats: &ServerStats) -> String {
    let latency = &stats.latency;
    let doc = StatsDoc {
        requests: stats.cache.requests(),
        hits: stats.cache.hits,
        region_misses: stats.cache.region_misses,
        structure_misses: stats.cache.structure_misses,
        coalesced: stats.coalesced,
        batches: stats.batches,
        structures: stats.structures,
        completed: stats.served.completed,
        served_hits: stats.served.hits,
        served_misses: stats.served.misses,
        failed: stats.served.failed,
        rejected: stats.served.rejected,
        rejected_overload: stats.served.rejected_overload,
        expired: stats.served.expired,
        worker_panics: stats.supervision.worker_panics,
        respawns: stats.supervision.respawns,
        workers_alive: stats.supervision.workers_alive,
        latency: LatencyDoc {
            unit: "ns",
            total: TotalLatency {
                quantiles: Quantiles::of(&latency.total),
                buckets: latency
                    .total
                    .buckets()
                    .map(|(upper, count)| [upper, count])
                    .collect(),
            },
            queue: Quantiles::of(&latency.queue),
            expired: Quantiles::of(&latency.expired),
            classes: latency
                .classes
                .iter()
                .map(|c| ClassQuantiles {
                    structure: c.structure.clone(),
                    class: if c.hit { "hit" } else { "miss" },
                    quantiles: Quantiles::of(&c.snapshot),
                })
                .collect(),
            stages: latency
                .stages
                .iter()
                .map(|s| StageQuantiles {
                    stage: s.stage,
                    quantiles: Quantiles::of(&s.snapshot),
                })
                .collect(),
        },
    };
    serde_json::to_string(&doc).expect("counters are finite")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_request_lines() {
        let (name, b, d) = parse_request_line("X n=2000,m=200").unwrap();
        assert_eq!(name, "X");
        assert_eq!(b, vec![("n".to_owned(), 2000), ("m".to_owned(), 200)]);
        assert_eq!(d, None);
        let (name, b, _) = parse_request_line("  Y  ").unwrap();
        assert_eq!(name, "Y");
        assert!(b.is_empty());
        let (_, b, _) = parse_request_line("Z n = 7 , m = 8").unwrap();
        assert_eq!(b.len(), 2);
        assert!(parse_request_line("").is_err());
        assert!(parse_request_line("X n=").is_err());
        assert!(parse_request_line("X n").is_err());
        assert!(parse_request_line("X =5").is_err());
    }

    #[test]
    fn splits_deadline_from_bindings() {
        let (name, b, d) = parse_request_line("X n=10,deadline_ms=250,m=20").unwrap();
        assert_eq!(name, "X");
        assert_eq!(b, vec![("n".to_owned(), 10), ("m".to_owned(), 20)]);
        assert_eq!(d, Some(250));
        let (_, b, d) = parse_request_line("X deadline_ms=0").unwrap();
        assert!(b.is_empty());
        assert_eq!(d, Some(0));
        assert!(parse_request_line("X deadline_ms=soon").is_err());
    }

    #[test]
    fn rejects_a_second_deadline() {
        let err = parse_request_line("X n=10,deadline_ms=0,deadline_ms=100000").unwrap_err();
        assert!(err.contains("`deadline_ms` bound twice"), "{err}");
    }

    #[test]
    fn keywords_are_commands_and_only_metrics_spans_lines() {
        for (line, what) in [
            ("STATS", Introspection::Stats),
            (" METRICS ", Introspection::Metrics),
            ("SLOW", Introspection::Slow),
            ("CACHE", Introspection::Cache),
        ] {
            let command = parse_command(line).unwrap();
            assert_eq!(command, Command::Introspect(what));
            assert_eq!(command.multi_line(), what == Introspection::Metrics);
        }
        let solve = parse_command("STATS n=1").unwrap();
        assert_eq!(
            solve,
            Command::Solve(("STATS".to_owned(), vec![("n".to_owned(), 1)], None))
        );
        assert!(!solve.multi_line());
        assert!(parse_command("X n").is_err());
    }
}
