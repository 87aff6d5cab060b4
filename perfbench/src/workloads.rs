//! The benchmark's workloads and their seeded inputs.
//!
//! Every serving workload is a fixed request sequence drawn from the
//! seed, so a faster build replays the same work rather than more of
//! it. Sizes are drawn from a bounded range and never grow with the
//! request index. A *region* is an ordering of a structure's distinct
//! dimension variables: fresh sizes that respect one ordering land in
//! one cached region plan, so they are hits once that region has been
//! recorded.

use crate::stats::Digest;
use gmc::{FlopCount, GmcOptimizer};
use gmc_bench::symbolic_length_chain;
use gmc_experiments::generator::{random_chain, GeneratorConfig};
use gmc_expr::{Chain, Dim, DimBindings, SymChain, SymFactor, SymOperand, UnaryOp};
use gmc_kernels::KernelRegistry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Smallest bound dimension of a request.
const SIZE_MIN: usize = 50;
/// Largest bound dimension of a request.
const SIZE_MAX: usize = 2000;

/// Short Sec. 4 structures registered on `wire_hot_short`.
const SHORT_STRUCTURES: usize = 32;
/// Warmed regions per structure on the hot workloads.
const HOT_REGIONS: usize = 3;
/// Chain lengths of `wire_hot_long`.
pub const LONG_LENGTHS: [usize; 4] = [12, 16, 24, 32];
/// On `wire_growth`, a request may only hit a region opened at least
/// this many positions earlier in the sequence, so that with two
/// closed-loop clients the opening request has almost surely been
/// answered before the hit is sent.
const GROWTH_LAG: usize = 256;
/// Share of `wire_growth` requests that open a new region.
const GROWTH_NEW_REGION: f64 = 0.5;

/// The named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Short Sec. 4 chains over the wire, every request a hit.
    HotShort,
    /// Long dense chains over the wire, every request a hit.
    HotLong,
    /// Half the requests open new regions; region count grows.
    Growth,
    /// Offline compilation of concrete Sec. 4 problems.
    Compile,
}

impl Workload {
    /// Every workload, in benchmark order.
    pub const ALL: [Workload; 4] = [
        Workload::HotShort,
        Workload::HotLong,
        Workload::Growth,
        Workload::Compile,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HotShort => "wire_hot_short",
            Workload::HotLong => "wire_hot_long",
            Workload::Growth => "wire_growth",
            Workload::Compile => "compile",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Requests (problems, on `compile`) in one replay of the sequence.
    pub fn round_len(self, toy: bool) -> usize {
        let full = match self {
            Workload::HotShort => 12_000,
            Workload::HotLong => 2_000,
            Workload::Growth => 4_000,
            Workload::Compile => 2_000,
        };
        if toy {
            (full / 60).max(20)
        } else {
            full
        }
    }
}

/// A registered chain structure.
pub struct Structure {
    /// Registration name (the first token of a request line).
    pub name: String,
    /// The symbolic chain.
    pub chain: SymChain,
    /// Names of the distinct dimension variables, in first-occurrence
    /// order; a request's values follow this order.
    pub vars: Vec<String>,
}

impl Structure {
    fn new(name: String, chain: SymChain) -> Structure {
        let vars = chain.vars().iter().map(|v| v.name().to_owned()).collect();
        Structure { name, chain, vars }
    }
}

/// One request of a sequence.
#[derive(Clone, Debug)]
pub struct Request {
    /// Index into the structure list.
    pub structure: usize,
    /// One size per variable of the structure.
    pub values: Vec<usize>,
    /// The wire line, newline included, so a client sends it in one
    /// write.
    pub line: String,
    /// Whether this request is the first of its region.
    pub opens_region: bool,
}

impl Request {
    fn new(structures: &[Structure], structure: usize, values: Vec<usize>, opens: bool) -> Self {
        let s = &structures[structure];
        let bindings: Vec<String> = s
            .vars
            .iter()
            .zip(&values)
            .map(|(var, v)| format!("{var}={v}"))
            .collect();
        Request {
            structure,
            line: format!("{} {}\n", s.name, bindings.join(",")),
            values,
            opens_region: opens,
        }
    }

    /// The request's bindings.
    pub fn bindings(&self, structures: &[Structure]) -> DimBindings {
        let mut b = DimBindings::new();
        for (var, &v) in structures[self.structure].vars.iter().zip(&self.values) {
            b.set(var, v);
        }
        b
    }
}

/// The generated inputs of a serving workload.
pub struct Serving {
    /// Registered structures.
    pub structures: Vec<Structure>,
    /// Recorded during set-up, before the timed phase.
    pub warm: Vec<Request>,
    /// The timed sequence.
    pub requests: Vec<Request>,
}

impl Serving {
    /// Digest of the structures and every request line.
    pub fn digest(&self) -> String {
        let mut d = Digest::default();
        for s in &self.structures {
            d.update(format!("{} {}", s.name, s.chain).as_bytes());
        }
        for r in self.warm.iter().chain(&self.requests) {
            d.update(r.line.as_bytes());
        }
        d.hex()
    }
}

/// Fresh sizes that realize the ordering `pattern` (`pattern[v]` is
/// the rank of variable `v`): distinct values from the size range,
/// sorted and handed out by rank.
fn sizes_for(pattern: &[usize], rng: &mut StdRng) -> Vec<usize> {
    let mut drawn: Vec<usize> = Vec::with_capacity(pattern.len());
    while drawn.len() < pattern.len() {
        let v = rng.gen_range(SIZE_MIN..=SIZE_MAX);
        if !drawn.contains(&v) {
            drawn.push(v);
        }
    }
    drawn.sort_unstable();
    pattern.iter().map(|&rank| drawn[rank]).collect()
}

/// A uniformly random ordering of `m` variables.
fn random_pattern(m: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..m).collect();
    for i in (1..m).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    perm
}

/// Up to `k` distinct orderings of `m` variables.
fn distinct_patterns(m: usize, k: usize, rng: &mut StdRng) -> Vec<Vec<usize>> {
    let mut out: Vec<Vec<usize>> = Vec::new();
    for _ in 0..k * 20 {
        if out.len() == k {
            break;
        }
        let p = random_pattern(m, rng);
        if !out.contains(&p) {
            out.push(p);
        }
    }
    out
}

/// The symbolic form of a concrete Sec. 4 chain: every boundary
/// dimension becomes a variable, and the two boundaries of a square
/// operand share one. `None` if the chain cannot be expressed (a
/// property the symbolic operand rejects).
fn symbolize(chain: &Chain) -> Option<SymChain> {
    let sizes = chain.sizes();
    // Union the two boundaries of every square factor.
    let mut root: Vec<usize> = (0..sizes.len()).collect();
    fn find(root: &mut [usize], mut i: usize) -> usize {
        while root[i] != i {
            root[i] = root[root[i]];
            i = root[i];
        }
        i
    }
    for i in 0..chain.len() {
        if sizes[i] == sizes[i + 1] {
            let (a, b) = (find(&mut root, i), find(&mut root, i + 1));
            root[b.max(a)] = a.min(b);
        }
    }
    let var = |root: &mut [usize], i: usize| Dim::var(&format!("d{}", find(root, i)));
    let mut factors = Vec::with_capacity(chain.len());
    for (i, f) in chain.factors().iter().enumerate() {
        let (row, col) = (var(&mut root, i), var(&mut root, i + 1));
        let transposed = matches!(f.op(), UnaryOp::Transpose | UnaryOp::InverseTranspose);
        let (r, c) = if transposed { (col, row) } else { (row, col) };
        let mut operand = SymOperand::new(f.operand().name(), r, c);
        for p in f.operand().properties().iter() {
            operand = operand.with_property(p).ok()?;
        }
        factors.push(SymFactor::new(operand, f.op()));
    }
    SymChain::new(factors).ok()
}

/// Whether the concrete optimizer solves `structure` at `values`.
fn solvable(registry: &KernelRegistry, s: &Structure, values: &[usize]) -> bool {
    let mut b = DimBindings::new();
    for (var, &v) in s.vars.iter().zip(values) {
        b.set(var, v);
    }
    s.chain
        .bind(&b)
        .is_ok_and(|chain| GmcOptimizer::new(registry, FlopCount).solve(&chain).is_ok())
}

/// Draws the structures and per-structure warm patterns of a hot
/// workload, keeping only patterns the optimizer can solve.
fn hot_structures(
    workload: Workload,
    registry: &KernelRegistry,
    rng: &mut StdRng,
) -> (Vec<Structure>, Vec<Vec<Vec<usize>>>) {
    let mut structures = Vec::new();
    match workload {
        Workload::HotShort => {
            let config = GeneratorConfig {
                len_min: 3,
                len_max: 6,
                p_vector: 0.0,
                ..GeneratorConfig::default()
            };
            while structures.len() < SHORT_STRUCTURES {
                if let Some(chain) = symbolize(&random_chain(&config, rng)) {
                    structures.push(Structure::new(format!("S{}", structures.len()), chain));
                }
            }
        }
        Workload::HotLong => {
            for n in LONG_LENGTHS {
                structures.push(Structure::new(format!("L{n}"), symbolic_length_chain(n)));
            }
        }
        _ => unreachable!("hot workloads only"),
    }
    let patterns = structures
        .iter()
        .map(|s| {
            distinct_patterns(s.vars.len(), HOT_REGIONS, rng)
                .into_iter()
                .filter(|p| solvable(registry, s, &sizes_for(p, rng)))
                .collect()
        })
        .collect();
    (structures, patterns)
}

/// The three 9–10 factor structures of `wire_growth`: two dense
/// chains and one with every other factor transposed.
fn growth_structures() -> Vec<Structure> {
    let transposed: Vec<SymFactor> = (0..10)
        .map(|i| {
            let (row, col) = (Dim::var(&format!("d{i}")), Dim::var(&format!("d{}", i + 1)));
            if i % 2 == 1 {
                SymFactor::new(
                    SymOperand::new(format!("M{i}"), col, row),
                    UnaryOp::Transpose,
                )
            } else {
                SymFactor::plain(SymOperand::new(format!("M{i}"), row, col))
            }
        })
        .collect();
    vec![
        Structure::new("G9".to_owned(), symbolic_length_chain(9)),
        Structure::new("G10".to_owned(), symbolic_length_chain(10)),
        Structure::new(
            "G10T".to_owned(),
            SymChain::new(transposed).expect("alternating transposes chain"),
        ),
    ]
}

/// Generates the inputs of a serving workload from `seed`.
pub fn serving(workload: Workload, seed: u64, toy: bool) -> Serving {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED_0000 ^ workload as u64);
    let registry = KernelRegistry::blas_lapack();
    let len = workload.round_len(toy);
    let mut seen: HashSet<String> = HashSet::new();
    match workload {
        Workload::HotShort | Workload::HotLong => {
            let (structures, patterns) = hot_structures(workload, &registry, &mut rng);
            let mut warm = Vec::new();
            for (s, ps) in patterns.iter().enumerate() {
                for p in ps {
                    let r = Request::new(&structures, s, sizes_for(p, &mut rng), true);
                    seen.insert(r.line.clone());
                    warm.push(r);
                }
            }
            let live: Vec<usize> = (0..structures.len())
                .filter(|&s| !patterns[s].is_empty())
                .collect();
            let mut requests = Vec::with_capacity(len);
            while requests.len() < len {
                let s = live[rng.gen_range(0..live.len())];
                let p = &patterns[s][rng.gen_range(0..patterns[s].len())];
                let r = Request::new(&structures, s, sizes_for(p, &mut rng), false);
                // No request repeats another, so nothing coalesces.
                if seen.insert(r.line.clone()) {
                    requests.push(r);
                }
            }
            Serving {
                structures,
                warm,
                requests,
            }
        }
        Workload::Growth => {
            let structures = growth_structures();
            // Per structure: every region opened so far, with the
            // sequence position that opened it (set-up regions at 0).
            let mut regions: Vec<Vec<(Vec<usize>, usize)>> = vec![Vec::new(); structures.len()];
            let mut warm = Vec::new();
            for (s, st) in structures.iter().enumerate() {
                let p = random_pattern(st.vars.len(), &mut rng);
                let r = Request::new(&structures, s, sizes_for(&p, &mut rng), true);
                seen.insert(r.line.clone());
                warm.push(r);
                regions[s].push((p, 0));
            }
            let mut requests = Vec::with_capacity(len);
            while requests.len() < len {
                let i = requests.len();
                let s = rng.gen_range(0..structures.len());
                let eligible: Vec<usize> = (0..regions[s].len())
                    .filter(|&k| regions[s][k].1 == 0 || regions[s][k].1 + GROWTH_LAG <= i)
                    .collect();
                let opens = eligible.is_empty() || rng.gen_bool(GROWTH_NEW_REGION);
                let pattern = if opens {
                    let p = loop {
                        let p = random_pattern(structures[s].vars.len(), &mut rng);
                        if regions[s].iter().all(|(q, _)| *q != p) {
                            break p;
                        }
                    };
                    regions[s].push((p.clone(), i));
                    p
                } else {
                    regions[s][eligible[rng.gen_range(0..eligible.len())]]
                        .0
                        .clone()
                };
                let r = Request::new(&structures, s, sizes_for(&pattern, &mut rng), opens);
                if seen.insert(r.line.clone()) {
                    requests.push(r);
                } else if opens {
                    regions[s].pop();
                }
            }
            Serving {
                structures,
                warm,
                requests,
            }
        }
        Workload::Compile => unreachable!("compile has no serving inputs"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmc_plan::region_signature;

    #[test]
    fn same_seed_same_sequence() {
        for w in [Workload::HotShort, Workload::HotLong, Workload::Growth] {
            let a = serving(w, 7, true);
            let b = serving(w, 7, true);
            assert_eq!(a.digest(), b.digest(), "{}", w.name());
            assert_ne!(a.digest(), serving(w, 8, true).digest(), "{}", w.name());
        }
    }

    #[test]
    fn hot_requests_stay_in_warmed_regions() {
        for w in [Workload::HotShort, Workload::HotLong] {
            let inputs = serving(w, 3, true);
            let warmed: HashSet<(usize, Vec<i8>)> = inputs
                .warm
                .iter()
                .map(|r| {
                    let sizes = inputs.structures[r.structure]
                        .chain
                        .bind_dims(&r.bindings(&inputs.structures))
                        .unwrap();
                    (r.structure, region_signature(&sizes))
                })
                .collect();
            for r in &inputs.requests {
                let sizes = inputs.structures[r.structure]
                    .chain
                    .bind_dims(&r.bindings(&inputs.structures))
                    .unwrap();
                assert!(warmed.contains(&(r.structure, region_signature(&sizes))));
            }
        }
    }

    #[test]
    fn sizes_stay_bounded() {
        let inputs = serving(Workload::Growth, 5, true);
        for r in &inputs.requests {
            assert!(r.values.iter().all(|&v| (SIZE_MIN..=SIZE_MAX).contains(&v)));
        }
    }
}
