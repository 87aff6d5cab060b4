//! Characterization of the region recorder: a fixed, seeded set of
//! regions is recorded for each case and the recorded plans are pinned
//! by a digest. Any change to a recorded plan — a candidate list, a
//! lowered formula, a cell classification, a deferred cell's per-split
//! properties — changes the digest, so a speed change to the recorder
//! must leave every digest as it is.
//!
//! The digest is 64-bit FNV-1a over the `Debug` rendering of every
//! recorded [`RegionPlan`](gmc_plan::RegionPlan), chain by chain in
//! signature order.

use gmc::InferenceMode;
use gmc_expr::{Dim, DimBindings, Property, SymChain, SymFactor, SymOperand, UnaryOp};
use gmc_kernels::KernelRegistry;
use gmc_plan::PlanCache;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues the FNV-1a digest `h` over `bytes`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A dense chain `M0 · … · M(n-1)` with `Mi : d<i> × d<i+1>`.
fn dense_chain(n: usize) -> SymChain {
    let factors = (0..n)
        .map(|i| {
            SymFactor::plain(SymOperand::new(
                format!("M{i}"),
                Dim::var(&format!("d{i}")),
                Dim::var(&format!("d{}", i + 1)),
            ))
        })
        .collect();
    SymChain::new(factors).expect("dense chain is well-formed")
}

/// A dense 10-factor chain with every other factor stored transposed.
fn alternating_transposes() -> SymChain {
    let factors = (0..10)
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
    SymChain::new(factors).expect("alternating transposes chain")
}

const PROPERTIES: [Property; 5] = [
    Property::Diagonal,
    Property::LowerTriangular,
    Property::UpperTriangular,
    Property::Symmetric,
    Property::SymmetricPositiveDefinite,
];

/// A random chain with constant and repeated variable dimensions,
/// properties, inverses and transposes.
fn random_chain(rng: &mut StdRng) -> SymChain {
    let n = rng.gen_range(3..=8usize);
    let pool = ["rc_a", "rc_b", "rc_c", "rc_d"];
    let dims: Vec<Dim> = (0..=n)
        .map(|_| {
            if rng.gen_bool(0.3) {
                if rng.gen_bool(0.25) {
                    Dim::Const(1)
                } else {
                    Dim::Const(rng.gen_range(2..=6usize) * 10)
                }
            } else {
                Dim::var(pool[rng.gen_range(0..pool.len())])
            }
        })
        .collect();
    let factors = (0..n)
        .map(|i| {
            let (r, c) = (dims[i], dims[i + 1]);
            let square = r == c;
            let transposed = rng.gen_bool(0.3);
            let (or, oc) = if transposed { (c, r) } else { (r, c) };
            let mut op = SymOperand::new(format!("M{i}"), or, oc);
            if square && rng.gen_bool(0.5) {
                let p = PROPERTIES[rng.gen_range(0..PROPERTIES.len())];
                op = op.with_property(p).expect("structurally square");
            }
            let unary = match (square && rng.gen_bool(0.35), transposed) {
                (true, true) => UnaryOp::InverseTranspose,
                (true, false) => UnaryOp::Inverse,
                (false, true) => UnaryOp::Transpose,
                (false, false) => UnaryOp::None,
            };
            SymFactor::new(op, unary)
        })
        .collect();
    SymChain::new(factors).expect("dims line up by construction")
}

/// A random palindromic chain `F1 ··· Fm [S] Fmᵀ ··· F1ᵀ` whose mirror
/// halves are the same operands, so products of its sub-chains are
/// symmetric or SPD by operand identity (the name-dependent branches
/// of property inference).
fn random_gram_chain(rng: &mut StdRng) -> SymChain {
    let m = rng.gen_range(1..=3usize);
    let dims: Vec<Dim> = (0..=m)
        .map(|t| {
            if rng.gen_bool(0.2) {
                Dim::Const(rng.gen_range(2..=5usize) * 10)
            } else {
                Dim::var(&format!("gc_{t}"))
            }
        })
        .collect();
    let operands: Vec<SymOperand> = (0..m)
        .map(|t| {
            let op = SymOperand::new(format!("F{t}"), dims[t], dims[t + 1]);
            if dims[t] == dims[t + 1] && rng.gen_bool(0.5) {
                op.with_property(Property::LowerTriangular)
                    .expect("structurally square")
            } else {
                op
            }
        })
        .collect();
    let mut factors: Vec<SymFactor> = operands.iter().cloned().map(SymFactor::plain).collect();
    if rng.gen_bool(0.6) {
        let p =
            [Property::SymmetricPositiveDefinite, Property::Symmetric][rng.gen_range(0..2usize)];
        let s = SymOperand::square("S", dims[m])
            .with_property(p)
            .expect("square");
        let unary = if rng.gen_bool(0.3) {
            UnaryOp::Inverse
        } else {
            UnaryOp::None
        };
        factors.push(SymFactor::new(s, unary));
    }
    factors.extend(
        operands
            .iter()
            .rev()
            .map(|op| SymFactor::new(op.clone(), UnaryOp::Transpose)),
    );
    SymChain::new(factors).expect("mirror halves line up")
}

/// A random chain over a small pool of operands that repeat, as in
/// `S⁻¹ S S Sᵀ R Rᵀ`: a temporary's inferred properties then depend on
/// the split that built it, which records per-split property sets and
/// dynamic cells.
fn random_pool_chain(rng: &mut StdRng) -> SymChain {
    let (n, m) = (Dim::var("pc_n"), Dim::var("pc_m"));
    let square: Vec<SymOperand> = [
        Property::LowerTriangular,
        Property::Symmetric,
        Property::SymmetricPositiveDefinite,
    ]
    .into_iter()
    .enumerate()
    .map(|(t, p)| {
        SymOperand::square(format!("P{t}"), n)
            .with_property(p)
            .expect("square")
    })
    .collect();
    let rect = SymOperand::new("R", n, m);
    let len = rng.gen_range(3..=7usize);
    let mut at_n = true;
    let mut factors = Vec::with_capacity(len);
    while factors.len() < len {
        if at_n && rng.gen_bool(0.7) {
            let op = square[rng.gen_range(0..square.len())].clone();
            let unary = [
                UnaryOp::None,
                UnaryOp::None,
                UnaryOp::Transpose,
                UnaryOp::Inverse,
                UnaryOp::InverseTranspose,
            ][rng.gen_range(0..5usize)];
            factors.push(SymFactor::new(op, unary));
        } else if at_n {
            factors.push(SymFactor::plain(rect.clone()));
            at_n = false;
        } else {
            factors.push(SymFactor::new(rect.clone(), UnaryOp::Transpose));
            at_n = true;
        }
    }
    SymChain::new(factors).expect("dims line up by construction")
}

/// A binding of `chain`'s variables: half the draws give every variable
/// a distinct size (a total order, as serving traffic does), the other
/// half draw from a few values, so ties and equalities with the
/// constants arise.
fn binding(chain: &SymChain, rng: &mut StdRng) -> DimBindings {
    let vars = chain.vars();
    let mut b = DimBindings::new();
    if rng.gen_bool(0.5) {
        let mut drawn: Vec<usize> = Vec::new();
        while drawn.len() < vars.len() {
            let v = rng.gen_range(2..=2000usize);
            if !drawn.contains(&v) {
                drawn.push(v);
            }
        }
        for (var, v) in vars.iter().zip(drawn) {
            b.set_var(*var, v);
        }
    } else {
        let values = [1usize, 2, 10, 20, 30, 40, 45, 60, 100];
        for var in vars {
            b.set_var(var, values[rng.gen_range(0..values.len())]);
        }
    }
    b
}

/// Records `draws` bindings of every chain (solve errors included: an
/// unsolvable region is recorded too) and digests the recorded plans.
fn digest(mode: InferenceMode, chains: &[SymChain], draws: usize, seed: u64) -> u64 {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let cache = PlanCache::new(registry, mode);
    let mut rng = StdRng::seed_from_u64(seed);
    for chain in chains {
        for _ in 0..draws {
            let _ = cache.solve(chain, &binding(chain, &mut rng));
        }
    }
    let mut plans = FNV_OFFSET;
    for chain in chains {
        let plan = cache.plan_for(chain).expect("every chain was recorded");
        for (_, region) in plan.sorted_regions() {
            plans = fnv1a(plans, format!("{region:?}").as_bytes());
        }
    }
    plans
}

fn check(case: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{case}: recorded plans changed (digest {got:#018x}, pinned {want:#018x})"
    );
}

#[test]
fn growth_nine_factor_dense_chain() {
    let got = digest(InferenceMode::Compositional, &[dense_chain(9)], 40, 9);
    check("G9", got, 0x6c7a895ff2865f9b);
}

#[test]
fn growth_ten_factor_dense_chain() {
    let got = digest(InferenceMode::Compositional, &[dense_chain(10)], 40, 10);
    check("G10", got, 0x4cc1066bc8e901ac);
}

#[test]
fn growth_alternating_transposes() {
    let got = digest(
        InferenceMode::Compositional,
        &[alternating_transposes()],
        40,
        11,
    );
    check("G10T", got, 0xa37c6297eda4b1b5);
}

#[test]
fn sixteen_factor_dense_chain() {
    let got = digest(InferenceMode::Compositional, &[dense_chain(16)], 3, 16);
    check("dense16", got, 0x45a8db9d4d519dd5);
}

fn seeded_chains(seed: u64) -> Vec<SymChain> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut chains: Vec<SymChain> = (0..24).map(|_| random_chain(&mut rng)).collect();
    chains.extend((0..8).map(|_| random_gram_chain(&mut rng)));
    chains.extend((0..16).map(|_| random_pool_chain(&mut rng)));
    chains
}

#[test]
fn seeded_chains_compositional() {
    let got = digest(InferenceMode::Compositional, &seeded_chains(0xC4A2), 6, 1);
    check("seeded/compositional", got, 0x52fbaaa86c2dc7d4);
}

#[test]
fn seeded_chains_deep() {
    let got = digest(InferenceMode::Deep, &seeded_chains(0xC4A2), 6, 2);
    check("seeded/deep", got, 0x43fd882310f053ad);
}
