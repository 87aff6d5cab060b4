//! One replay of a serving workload over the wire.
//!
//! Set-up starts an in-process `Server` with two workers, registers
//! the structures, records the warm regions, binds a `TcpFrontDoor` on
//! 127.0.0.1 and connects two clients. The timed phase is a closed
//! loop: each client sends its next request line only after the reply
//! to the previous one arrived. Every line goes out in a single write
//! on a `TCP_NODELAY` socket; a line split across writes stalls on
//! Nagle's algorithm plus delayed ACK for tens of milliseconds.

use crate::stats::nanos;
use crate::workloads::Serving;
use gmc_kernels::KernelRegistry;
use gmc_plan::ShardStats;
use gmc_serve::tcp::TcpFrontDoor;
use gmc_serve::{RequestOptions, ServeConfig, Server, ServerStats};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Worker threads of the server.
pub const WORKERS: usize = 2;
/// Closed-loop clients, one connection each.
pub const CLIENTS: usize = 2;
/// Requests timed through in-process `ServeHandle::solve_raw` after a
/// traced round.
const SOLVE_RAW_SAMPLES: usize = 1_000;

/// Server-side observations of a traced round.
pub struct ServerSide {
    /// Counters and histograms when the timed phase began.
    pub before: ServerStats,
    /// ... and when it ended.
    pub after: ServerStats,
    /// Per-shard cache counters at the same two points.
    pub shards_before: Vec<ShardStats>,
    /// Per-shard cache counters at the end of the timed phase.
    pub shards_after: Vec<ShardStats>,
    /// Latency of in-process `solve_raw` calls on the warm server, ns.
    pub solve_raw_ns: Vec<u64>,
    /// `solve_raw` calls that did not return a plan.
    pub solve_raw_failed: u64,
}

/// The result of one round.
pub struct Round {
    /// Set-up wall time, seconds.
    pub setup_s: f64,
    /// Timed-phase wall time, seconds.
    pub timed_s: f64,
    /// Set-up operations: warm recordings and connection warm-ups.
    pub setup_sent: u64,
    /// Set-up operations that failed.
    pub setup_failed: u64,
    /// Per request, in sequence order: client send and receive times,
    /// ns since the round's epoch (a request whose connection broke
    /// reads `(0, 0)`).
    pub spans: Vec<(u64, u64)>,
    /// Per request, in sequence order: the reply line (empty if the
    /// connection broke first).
    pub replies: Vec<String>,
    /// Server-side observations (traced rounds only).
    pub server: Option<ServerSide>,
}

/// A connected client.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one newline-terminated line in a single write and reads
    /// the one-line reply.
    fn call(&mut self, line: &str, reply: &mut String) -> std::io::Result<()> {
        self.writer.write_all(line.as_bytes())?;
        reply.clear();
        if self.reader.read_line(reply)? == 0 || !reply.ends_with('\n') {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        reply.pop();
        Ok(())
    }
}

/// A server ready for the timed phase.
struct Ready {
    server: Server,
    front: TcpFrontDoor,
    clients: Vec<Client>,
    setup_s: f64,
    setup_sent: u64,
    setup_failed: u64,
}

impl Ready {
    /// Closes the connections and stops the front door and the server.
    fn shut_down(self) {
        drop(self.clients);
        self.front.shutdown();
        self.server.shutdown();
    }
}

/// Set-up: start the server, register the structures, record the warm
/// regions, bind the front door and connect the clients.
fn set_up(inputs: &Serving) -> std::io::Result<Ready> {
    let setup_started = Instant::now();
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let server = Server::start(
        registry,
        ServeConfig {
            workers: WORKERS,
            ..ServeConfig::default()
        },
    );
    for s in &inputs.structures {
        server
            .register(&s.name, s.chain.clone())
            .expect("registration is infallible");
    }
    let mut setup_sent = 0;
    let mut setup_failed = 0;
    for r in &inputs.warm {
        setup_sent += 1;
        let chain = &inputs.structures[r.structure].chain;
        if server
            .cache()
            .solve(chain, &r.bindings(&inputs.structures))
            .is_err()
        {
            setup_failed += 1;
        }
    }
    let front = TcpFrontDoor::bind(server.handle(), "127.0.0.1:0")?;
    let mut clients = Vec::with_capacity(CLIENTS);
    let mut reply = String::new();
    for c in 0..CLIENTS {
        let mut client = Client::connect(front.local_addr())?;
        // One warm request per connection: the server's connection
        // thread is running before the timed phase starts.
        let warm = &inputs.warm[c % inputs.warm.len()];
        setup_sent += 1;
        if client.call(&warm.line, &mut reply).is_err() || reply.contains("\"error\"") {
            setup_failed += 1;
        }
        clients.push(client);
    }
    Ok(Ready {
        server,
        front,
        clients,
        setup_s: setup_started.elapsed().as_secs_f64(),
        setup_sent,
        setup_failed,
    })
}

/// Set-up alone, torn down again: one more `setup_s` sample. Returns
/// the set-up time and whether every set-up operation succeeded.
pub fn setup_only(inputs: &Serving) -> std::io::Result<(f64, bool)> {
    let ready = set_up(inputs)?;
    let result = (ready.setup_s, ready.setup_failed == 0);
    ready.shut_down();
    Ok(result)
}

/// Replays `inputs` once on a fresh server. `traced` additionally
/// snapshots the server's statistics around the timed phase and times
/// in-process `solve_raw` calls afterwards.
pub fn round(inputs: &Serving, traced: bool) -> std::io::Result<Round> {
    let mut ready = set_up(inputs)?;
    let snapshot = |server: &Server| (server.stats(), server.cache().shard_stats());
    let before = traced.then(|| snapshot(&ready.server));
    let n = inputs.requests.len();
    let barrier = Barrier::new(CLIENTS);
    let epoch = Instant::now();
    let per_client: Vec<Vec<(usize, u64, u64, String)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = ready
            .clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut out = Vec::with_capacity(n / CLIENTS + 1);
                    let mut reply = String::new();
                    barrier.wait();
                    for i in (c..n).step_by(CLIENTS) {
                        let sent = nanos(epoch, Instant::now());
                        if client.call(&inputs.requests[i].line, &mut reply).is_err() {
                            break;
                        }
                        out.push((i, sent, nanos(epoch, Instant::now()), reply.clone()));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    let after = traced.then(|| snapshot(&ready.server));

    let mut spans = vec![(0, 0); n];
    let mut replies = vec![String::new(); n];
    for (i, sent, received, reply) in per_client.into_iter().flatten() {
        spans[i] = (sent, received);
        replies[i] = reply;
    }
    let first_sent = spans.iter().map(|s| s.0).min().unwrap_or(0);
    let last_received = spans.iter().map(|s| s.1).max().unwrap_or(0);
    let timed_s = last_received.saturating_sub(first_sent) as f64 / 1e9;

    let server = match (before, after) {
        (Some((before, shards_before)), Some((after, shards_after))) => {
            let handle = ready.server.handle();
            let mut solve_raw_ns = Vec::new();
            let mut solve_raw_failed = 0;
            for r in inputs.requests.iter().take(SOLVE_RAW_SAMPLES) {
                let s = &inputs.structures[r.structure];
                let vars: Vec<(String, usize)> = s
                    .vars
                    .iter()
                    .cloned()
                    .zip(r.values.iter().copied())
                    .collect();
                let t = Instant::now();
                let reply = handle.solve_raw(&s.name, vars, RequestOptions::default());
                solve_raw_ns.push(nanos(t, Instant::now()));
                if reply.result.is_err() {
                    solve_raw_failed += 1;
                }
            }
            Some(ServerSide {
                before,
                after,
                shards_before,
                shards_after,
                solve_raw_ns,
                solve_raw_failed,
            })
        }
        _ => None,
    };
    let round = Round {
        setup_s: ready.setup_s,
        timed_s,
        setup_sent: ready.setup_sent,
        setup_failed: ready.setup_failed,
        spans,
        replies,
        server,
    };
    ready.shut_down();
    Ok(round)
}
