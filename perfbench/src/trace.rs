//! The traced run's span recorder and in-process layer replays.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions. A span holds a name, start, end,
//! parent and request id; spans stay in memory and are written out as
//! JSON lines when the run ends. A span's self time is its duration
//! minus that of its children.

use crate::check::Answer;
use crate::stats::nanos;
use crate::workloads::Serving;
use gmc::{FlopCount, GmcOptimizer, InferenceMode};
use gmc_codegen::{Emitter, JuliaEmitter};
use gmc_expr::{DimBindings, SymChain};
use gmc_kernels::KernelRegistry;
use gmc_obs::trace::{SlowTraceRing, Span as StageSpan, Trace};
use gmc_obs::MetricsRegistry;
use gmc_plan::{region_signature, structure_key, PlanCache, PlanOutcome};
use gmc_serve::protocol::{parse_request_line, reply_to_json};
use gmc_serve::{ServeReply, Served, STAGES};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `plan.solve`.
    pub name: &'static str,
    /// The request (or problem) it belongs to.
    pub request: u64,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// An in-memory span recorder.
pub struct Recorder {
    epoch: Instant,
    /// Every span, in the order it was opened.
    pub spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    /// Opens a span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        let start_ns = nanos(self.epoch, Instant::now());
        self.spans.push(Span {
            name,
            request,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`; returns its duration in ns.
    pub fn close(&mut self, id: usize) -> u64 {
        let span = &mut self.spans[id];
        span.end_ns = nanos(self.epoch, Instant::now());
        span.end_ns - span.start_ns
    }

    /// Records a span measured elsewhere (times relative to its own
    /// epoch, e.g. a client span of a wire round).
    pub fn push(&mut self, name: &'static str, request: u64, start_ns: u64, end_ns: u64) {
        self.spans.push(Span {
            name,
            request,
            start_ns,
            end_ns,
            parent: None,
        });
    }

    /// Runs `f` inside a span; returns its result and duration in ns.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = self.open(name, request, parent);
        let out = std::hint::black_box(f());
        (out, self.close(id))
    }

    /// Per span name: count, total time and self time, in ns.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(children);
        }
        out
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{id},"name":"{}","request":{},"start_ns":{},"end_ns":{},"parent":{parent}}}"#,
                s.name, s.request, s.start_ns, s.end_ns
            )
            .expect("string write");
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// What the in-process replay of a serving sequence measured.
#[derive(Default)]
pub struct Replay {
    /// Durations per layer call, ns.
    pub parse_ns: Vec<f64>,
    /// `SymChain::bind`.
    pub bind_ns: Vec<f64>,
    /// `structure_key`.
    pub key_ns: Vec<f64>,
    /// `region_signature`.
    pub sig_ns: Vec<f64>,
    /// `PlanCache::solve` that hit.
    pub hit_ns: Vec<f64>,
    /// `PlanCache::solve` that recorded (set-up recordings included).
    pub miss_ns: Vec<f64>,
    /// `reply_to_json`.
    pub render_ns: Vec<f64>,
    /// Julia emission of the served plan.
    pub emit_ns: Vec<f64>,
    /// Instructions of the emitted program.
    pub instructions: Vec<f64>,
    /// Cold concrete `GmcOptimizer::solve`.
    pub core_ns: Vec<f64>,
    /// Interior cell classes of each request's region plan.
    pub cells: [Vec<f64>; 3],
    /// Replayed requests whose answer differs from the oracle.
    pub failed: u64,
}

/// Replays `inputs` in process, single-threaded, through the public
/// calls of each layer in pipeline order — parse → bind → key →
/// signature → `PlanCache::solve` → render — with the cold concrete
/// solve as a sibling reference span. A fresh cache is warmed exactly
/// like the server, so the hit/miss pattern matches the wire rounds.
pub fn replay_serving(
    inputs: &Serving,
    oracle: &[Result<Answer, String>],
    recorder: &mut Recorder,
) -> (Replay, PlanCache) {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let mode = InferenceMode::default();
    let cache = PlanCache::new(Arc::clone(&registry), mode);
    let optimizer = GmcOptimizer::new(&registry, FlopCount).with_inference(mode);
    let mut out = Replay::default();
    let n = inputs.requests.len() as u64;
    for (k, r) in inputs.warm.iter().enumerate() {
        let chain = &inputs.structures[r.structure].chain;
        let b = r.bindings(&inputs.structures);
        let (result, ns) =
            recorder.time("plan.solve", n + k as u64, None, || cache.solve(chain, &b));
        if result.is_ok() {
            out.miss_ns.push(ns as f64);
        }
    }
    for (i, (r, expected)) in inputs.requests.iter().zip(oracle).enumerate() {
        let id = i as u64;
        let s = &inputs.structures[r.structure];
        let root = recorder.open("request", id, None);
        let (parsed, ns) = recorder.time("serve.protocol.parse", id, Some(root), || {
            parse_request_line(r.line.trim_end())
        });
        out.parse_ns.push(ns as f64);
        let mut bindings = DimBindings::new();
        for (var, value) in parsed.expect("generated lines parse").1 {
            bindings.set(&var, value);
        }
        let (concrete, ns) = recorder.time("expr.bind", id, Some(root), || s.chain.bind(&bindings));
        out.bind_ns.push(ns as f64);
        let concrete = concrete.expect("generated bindings bind");
        let (_, ns) = recorder.time("plan.key", id, Some(root), || structure_key(&s.chain, mode));
        out.key_ns.push(ns as f64);
        let (_, ns) = recorder.time("plan.region_sig", id, Some(root), || {
            region_signature(&concrete.sizes())
        });
        out.sig_ns.push(ns as f64);
        let (solved, ns) = recorder.time("plan.solve", id, Some(root), || {
            cache.solve(&s.chain, &bindings)
        });
        let Ok((solution, outcome)) = solved else {
            out.failed += 1;
            recorder.close(root);
            continue;
        };
        if outcome == PlanOutcome::Hit {
            out.hit_ns.push(ns as f64);
        } else {
            out.miss_ns.push(ns as f64);
        }
        let reply = ServeReply {
            structure: s.name.clone(),
            result: Ok(Served {
                outcome,
                cost: solution.cost(),
                flops: solution.flops(),
                parenthesization: solution.parenthesization().to_owned(),
                kernels: solution
                    .kernel_names()
                    .into_iter()
                    .map(str::to_owned)
                    .collect(),
            }),
        };
        let (_, ns) = recorder.time("serve.protocol.render", id, Some(root), || {
            reply_to_json(&reply)
        });
        out.render_ns.push(ns as f64);
        let program = solution.program();
        let (_, ns) = recorder.time("codegen.emit", id, Some(root), || {
            JuliaEmitter::default().emit(&program)
        });
        out.emit_ns.push(ns as f64);
        out.instructions.push(program.len() as f64);
        recorder.close(root);
        let (_, ns) = recorder.time("core.solve", id, None, || optimizer.solve(&concrete));
        out.core_ns.push(ns as f64);
        if expected.as_ref().ok() != Some(&Answer::of(&solution)) {
            out.failed += 1;
        }
        if let Some(summary) = cache.region_summary(&s.chain, &bindings) {
            out.cells[0].push(summary.deferred as f64);
            out.cells[1].push(summary.dynamic as f64);
            out.cells[2].push(summary.resolved as f64);
        }
    }
    (out, cache)
}

/// Median over alternating pairs of the overhead, in percent, of the
/// serving hot path's instrumentation: `solve_traced` plus one record
/// per stage histogram and a slow-trace ring offer, against a bare
/// `PlanCache::solve` of the same request. Every request must already
/// be a hit in `cache`. Runs for about `budget`.
pub fn obs_overhead_pct(
    cache: &PlanCache,
    requests: &[(&SymChain, DimBindings)],
    budget: Duration,
) -> f64 {
    let registry = MetricsRegistry::new();
    let stages = STAGES.map(|stage| {
        registry.histogram(
            "gmc.serve.stage.latency.ns",
            "Per-stage request span duration in nanoseconds",
            &[("stage", stage)],
        )
    });
    let ring = SlowTraceRing::new(32);
    let bare = |chain: &SymChain, b: &DimBindings| {
        let t = Instant::now();
        std::hint::black_box(cache.solve(chain, b).expect("warm request solves"));
        t.elapsed().as_nanos() as f64
    };
    let mut trace_id = 0u64;
    let mut instrumented = |chain: &SymChain, b: &DimBindings| {
        let t = Instant::now();
        let (solution, _, timing) = cache.solve_traced(chain, b).expect("warm request solves");
        std::hint::black_box(solution);
        let durs: [u64; STAGES.len()] = [50, 100, 80, 60, timing.lookup_ns, timing.work_ns, 120];
        for (h, d) in stages.iter().zip(durs) {
            h.record(d);
        }
        let total_ns: u64 = durs.iter().sum();
        trace_id += 1;
        ring.offer_with(total_ns, || Trace {
            id: trace_id,
            label: "bench".to_owned(),
            class: "hit".to_owned(),
            total_ns,
            spans: STAGES
                .iter()
                .zip(durs)
                .scan(0u64, |start, (stage, dur_ns)| {
                    let span = StageSpan {
                        stage,
                        start_ns: *start,
                        dur_ns,
                    };
                    *start += dur_ns;
                    Some(span)
                })
                .collect(),
        });
        t.elapsed().as_nanos() as f64
    };
    let started = Instant::now();
    let mut pcts = Vec::new();
    for (k, (chain, b)) in requests.iter().cycle().enumerate() {
        if k >= 200 && (started.elapsed() >= budget || k >= 20_000) {
            break;
        }
        // Alternate which side runs first, so drift favours neither.
        let (plain, instr) = if k % 2 == 0 {
            let p = bare(chain, b);
            (p, instrumented(chain, b))
        } else {
            let i = instrumented(chain, b);
            (bare(chain, b), i)
        };
        pcts.push((instr / plain - 1.0) * 100.0);
    }
    crate::stats::median(&pcts)
}
