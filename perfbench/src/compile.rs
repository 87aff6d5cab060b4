//! The `compile` workload: concrete Sec. 4 problems rendered as
//! problem text and compiled, in one thread, through the calls
//! `gmc_cli::compile` makes — `gmc_frontend::parse`,
//! `KernelRegistry::blas_lapack`, `GmcOptimizer::solve_with` and Julia
//! emission.

use crate::check::Answer;
use crate::stats::{nanos, Digest};
use crate::trace::Recorder;
use gmc::reference::solve_reference;
use gmc::{FlopCount, GmcOptimizer, GmcWorkspace, InferenceMode};
use gmc_codegen::{Emitter, JuliaEmitter, Program};
use gmc_experiments::generator::{random_chain, GeneratorConfig};
use gmc_expr::{Chain, PropertySet, SymChain, UnaryOp};
use gmc_kernels::KernelRegistry;
use gmc_runtime::{validate_against_reference, Env};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::time::Instant;

/// Problems at sizes ≤ 300 whose emitted programs are executed and
/// validated against the reference evaluation.
const VALIDATED: usize = 6;

/// One generated problem.
pub struct Problem {
    /// The generator's chain (the oracle's input).
    pub chain: Chain,
    /// Its rendering in the input language.
    pub text: String,
}

/// Renders the single assignment `X := f0 * f1 * …` as problem text in
/// the input language, declaring each factor's operand as
/// `Matrix name (rows, cols) <properties>`.
pub fn problem_text<'a, D: std::fmt::Display>(
    factors: impl IntoIterator<Item = (&'a str, D, D, PropertySet, UnaryOp)>,
) -> String {
    let mut text = String::new();
    let mut terms = Vec::new();
    for (name, rows, cols, properties, op) in factors {
        let props: Vec<&str> = properties.iter().map(|p| p.name()).collect();
        let props = if props.is_empty() {
            String::new()
        } else {
            format!(" <{}>", props.join(", "))
        };
        writeln!(text, "Matrix {name} ({rows}, {cols}){props}").expect("string write");
        let suffix = match op {
            UnaryOp::None => "",
            UnaryOp::Transpose => "^T",
            UnaryOp::Inverse => "^-1",
            UnaryOp::InverseTranspose => "^-T",
        };
        terms.push(format!("{name}{suffix}"));
    }
    writeln!(text, "X := {}", terms.join(" * ")).expect("string write");
    text
}

/// Renders a concrete chain as problem text.
pub fn render(chain: &Chain) -> String {
    problem_text(chain.factors().iter().map(|f| {
        let o = f.operand();
        let shape = o.shape();
        (o.name(), shape.rows(), shape.cols(), o.properties(), f.op())
    }))
}

/// Renders a symbolic chain as problem text, the way a `gmcc serve`
/// user writes a structure.
pub fn render_symbolic(chain: &SymChain) -> String {
    problem_text(chain.factors().iter().map(|f| {
        let o = f.operand();
        let shape = o.shape();
        (o.name(), shape.rows(), shape.cols(), o.properties(), f.op())
    }))
}

/// The seeded problem set: chains of 3–10 factors with the paper's
/// Sec. 4 distribution.
pub fn problems(config: &GeneratorConfig, count: usize, seed: u64) -> Vec<Problem> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0_4417E);
    (0..count)
        .map(|_| {
            let chain = random_chain(config, &mut rng);
            Problem {
                text: render(&chain),
                chain,
            }
        })
        .collect()
}

/// Digest of the problem texts.
pub fn digest(problems: &[Problem]) -> String {
    let mut d = Digest::default();
    for p in problems {
        d.update(p.text.as_bytes());
    }
    d.hex()
}

/// What compiling one problem produced.
pub struct Compiled {
    /// The chosen plan.
    pub answer: Answer,
    /// The emitted program.
    pub program: Program,
    /// The emitted Julia source.
    pub julia: String,
}

/// Runs `f` inside a span of `recorder`, when there is one.
fn within<T>(
    recorder: &mut Option<&mut Recorder>,
    name: &'static str,
    request: u64,
    parent: Option<usize>,
    f: impl FnOnce() -> T,
) -> T {
    match recorder {
        Some(r) => r.time(name, request, parent, f).0,
        None => f(),
    }
}

/// Compiles one problem text the way `gmc_cli::compile` does for its
/// single assignment, recording a span per layer when `recorder` is
/// given.
pub fn compile(
    text: &str,
    request: u64,
    mut recorder: Option<&mut Recorder>,
) -> Result<Compiled, String> {
    let root = recorder.as_mut().map(|r| r.open("compile", request, None));
    let rec = &mut recorder;
    let problem = within(rec, "frontend.parse", request, root, || {
        gmc_frontend::parse(text)
    })
    .map_err(|e| gmc_frontend::render_error(text, &e))?;
    let registry = within(rec, "kernels.registry_build", request, root, || {
        KernelRegistry::blas_lapack()
    });
    let (_, expr) = problem
        .assignments
        .first()
        .ok_or("problem has no assignment")?;
    let chain = Chain::from_expr(expr).map_err(|e| e.to_string())?;
    let solution = within(rec, "core.solve", request, root, || {
        GmcOptimizer::new(&registry, FlopCount).solve_with(&chain, &mut GmcWorkspace::new())
    })
    .map_err(|e| e.to_string())?;
    let program = solution.program();
    let julia = within(rec, "codegen.emit", request, root, || {
        JuliaEmitter::default().emit(&program)
    });
    if let (Some(r), Some(root)) = (recorder, root) {
        r.close(root);
    }
    Ok(Compiled {
        answer: Answer::of(&solution),
        program,
        julia,
    })
}

/// The reference solver's answer for each problem.
pub fn oracle(registry: &KernelRegistry, problems: &[Problem]) -> Vec<Result<Answer, String>> {
    problems
        .iter()
        .map(|p| {
            solve_reference(registry, &FlopCount, InferenceMode::default(), &p.chain)
                .map(|s| Answer::of(&s))
                .map_err(|e| format!("reference cannot solve: {e}"))
        })
        .collect()
}

/// Compiles a seeded sample of problems at sizes ≤ 300 and validates
/// each emitted program numerically against the reference evaluation
/// of its chain. Returns (validated, failures with the first reason).
pub fn validate_sample(seed: u64) -> (usize, u64, Option<String>) {
    let sample = problems(
        &GeneratorConfig::measured_scale(),
        VALIDATED,
        seed ^ 0x7A11D,
    );
    let mut failed = 0;
    let mut first = None;
    for (i, p) in sample.iter().enumerate() {
        let verdict = compile(&p.text, i as u64, None).and_then(|c| {
            let env = Env::random_for_chain(&p.chain, seed ^ i as u64);
            validate_against_reference(&c.program, &p.chain, &env, 1e-6).map_err(|e| e.to_string())
        });
        if let Err(e) = verdict {
            failed += 1;
            first.get_or_insert(format!("validated problem {i}: {e}"));
        }
    }
    (sample.len(), failed, first)
}

/// Times `KernelRegistry::blas_lapack` `reps` times; the median in µs.
pub fn registry_build_us(reps: usize) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(KernelRegistry::blas_lapack());
            nanos(t, Instant::now()) as f64 / 1e3
        })
        .collect();
    crate::stats::median(&times)
}
