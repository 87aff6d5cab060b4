//! Property-based tests (proptest) for the core invariants:
//! normalization, property-inference soundness against numeric checks,
//! DP optimality, and registry completeness.

use gmc::mcp::{brute_force_flops, matrix_chain_order};
use gmc::{FlopCount, GmcOptimizer};
use gmc_analysis::infer_properties;
use gmc_baselines::{all_strategies, Strategy as BaselineStrategy};
use gmc_experiments::generator::{random_chain, GeneratorConfig};
use gmc_expr::{Chain, Expr, Factor, Operand, Property, UnaryOp};
use gmc_kernels::KernelRegistry;
use gmc_linalg::{blas3, lapack, Matrix};
use gmc_runtime::materialize;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Square-operand strategy: a name, a size, and an optional property.
fn square_operand(n: usize) -> impl Strategy<Value = Operand> {
    (
        "[A-H]",
        prop::option::of(prop::sample::select(vec![
            Property::Diagonal,
            Property::LowerTriangular,
            Property::UpperTriangular,
            Property::Symmetric,
            Property::SymmetricPositiveDefinite,
            Property::Identity,
        ])),
        0u64..1_000_000,
    )
        .prop_map(move |(name, prop, uniq)| {
            // Unique names avoid accidental non-linear aliasing between
            // distinct random matrices.
            let op = Operand::square(format!("{name}{uniq}"), n);
            match prop {
                Some(p) => op.with_property(p),
                None => op,
            }
        })
}

/// A random square expression over `n×n` operands: products, sums and
/// unary operators, depth-bounded.
fn square_expr(n: usize) -> impl Strategy<Value = Expr> {
    let leaf = square_operand(n).prop_map(|op| op.expr());
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a * b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
            inner.clone().prop_map(Expr::transpose),
            inner.clone().prop_map(Expr::inverse),
            inner.prop_map(Expr::inverse_transpose),
        ]
    })
}

/// Numerically evaluates an all-square expression.
fn eval(
    expr: &Expr,
    rng: &mut StdRng,
    cache: &mut std::collections::HashMap<String, Matrix>,
) -> Option<Matrix> {
    match expr {
        Expr::Symbol(op) => Some(
            cache
                .entry(op.name().to_owned())
                .or_insert_with(|| materialize(op, rng))
                .clone(),
        ),
        Expr::Times(fs) => {
            let mut acc: Option<Matrix> = None;
            for f in fs {
                let v = eval(f, rng, cache)?;
                acc = Some(match acc {
                    None => v,
                    Some(p) => blas3::gemm(1.0, &p, false, &v, false),
                });
            }
            acc
        }
        Expr::Plus(ts) => {
            let mut acc: Option<Matrix> = None;
            for t in ts {
                let v = eval(t, rng, cache)?;
                acc = Some(match acc {
                    None => v,
                    Some(p) => {
                        let mut s = p.clone();
                        for (o, x) in s.as_mut_slice().iter_mut().zip(v.as_slice()) {
                            *o += x;
                        }
                        s
                    }
                });
            }
            acc
        }
        Expr::Transpose(e) => Some(eval(e, rng, cache)?.transposed()),
        Expr::Inverse(e) => lapack::getri(&eval(e, rng, cache)?).ok(),
        Expr::InverseTranspose(e) => Some(lapack::getri(&eval(e, rng, cache)?).ok()?.transposed()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Normalization is idempotent and preserves the shape.
    #[test]
    fn normalization_idempotent_and_shape_preserving(expr in square_expr(4)) {
        let n1 = expr.normalized().expect("square exprs are well-formed");
        let n2 = n1.normalized().expect("normal form is well-formed");
        prop_assert_eq!(&n1, &n2);
        prop_assert_eq!(expr.shape().unwrap(), n1.shape().unwrap());
    }

    /// Normalization preserves the *value* of the expression.
    #[test]
    fn normalization_preserves_value(expr in square_expr(4), seed in 0u64..1000) {
        let normalized = expr.normalized().expect("well-formed");
        let mut cache = std::collections::HashMap::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let v1 = eval(&expr, &mut rng, &mut cache);
        let v2 = eval(&normalized, &mut rng, &mut cache);
        if let (Some(v1), Some(v2)) = (v1, v2) {
            prop_assert!(
                v1.approx_eq(&v2, 1e-5),
                "normalization changed the value: max diff {}",
                v1.max_abs_diff(&v2)
            );
        }
    }

    /// Everything the inference engine claims is numerically true.
    #[test]
    fn inference_is_sound(expr in square_expr(5), seed in 0u64..1000) {
        let props = infer_properties(&expr);
        let mut cache = std::collections::HashMap::new();
        let mut rng = StdRng::seed_from_u64(seed);
        if let Some(value) = eval(&expr, &mut rng, &mut cache) {
            let tol = 1e-5 * (1.0 + value.frobenius_norm());
            if props.contains(Property::LowerTriangular) {
                prop_assert!(value.is_lower_triangular(tol), "not lower triangular");
            }
            if props.contains(Property::UpperTriangular) {
                prop_assert!(value.is_upper_triangular(tol), "not upper triangular");
            }
            if props.contains(Property::Diagonal) {
                prop_assert!(value.is_diagonal(tol), "not diagonal");
            }
            if props.contains(Property::Symmetric) {
                prop_assert!(value.is_symmetric(tol), "not symmetric");
            }
            if props.contains(Property::SymmetricPositiveDefinite) {
                let mut chol = value.clone();
                // Regularize the tolerance: Cholesky of a numerically
                // near-singular SPD product can fail; only flag clear
                // violations (indefinite leading minors).
                if lapack::potrf(&mut chol).is_err() {
                    let sym = value.is_symmetric(tol);
                    prop_assert!(sym, "claimed SPD but not even symmetric");
                }
            }
            if props.contains(Property::Identity) {
                prop_assert!(
                    value.approx_eq(&Matrix::identity(value.rows()), 1e-6),
                    "not the identity"
                );
            }
        }
    }

    /// The classic MCP DP matches brute-force enumeration.
    #[test]
    fn mcp_dp_is_optimal(sizes in prop::collection::vec(1usize..60, 3..9)) {
        let dp = matrix_chain_order(&sizes);
        let bf = brute_force_flops(&sizes);
        prop_assert_eq!(dp.flops(), bf);
    }

    /// Registry completeness: *every* binary product of two unary-op
    /// factors matches at least one kernel in the full registry — the
    /// paper's assumption that `K` makes all chains computable.
    #[test]
    fn registry_is_complete_for_binary_products(
        left_op in prop::sample::select(vec![
            UnaryOp::None, UnaryOp::Transpose, UnaryOp::Inverse, UnaryOp::InverseTranspose
        ]),
        right_op in prop::sample::select(vec![
            UnaryOp::None, UnaryOp::Transpose, UnaryOp::Inverse, UnaryOp::InverseTranspose
        ]),
        lp in prop::option::of(prop::sample::select(vec![
            Property::Diagonal, Property::LowerTriangular, Property::UpperTriangular,
            Property::Symmetric, Property::SymmetricPositiveDefinite,
        ])),
        rp in prop::option::of(prop::sample::select(vec![
            Property::Diagonal, Property::LowerTriangular, Property::UpperTriangular,
            Property::Symmetric, Property::SymmetricPositiveDefinite,
        ])),
    ) {
        let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
        let mut a = Operand::square("A", 8);
        if let Some(p) = lp { a = a.with_property(p); }
        let mut b = Operand::square("B", 8);
        if let Some(p) = rp { b = b.with_property(p); }
        let left = Factor::new(a, left_op);
        let right = Factor::new(b, right_op);
        let product = Expr::times([left.expr(), right.expr()]);
        let matches = registry.match_expr(&product);
        prop_assert!(
            !matches.is_empty(),
            "no kernel matches {product}"
        );
    }

    /// PropertySet closure is insertion-order independent.
    #[test]
    fn property_set_order_independent(
        props in prop::collection::vec(
            prop::sample::select(vec![
                Property::Diagonal, Property::LowerTriangular, Property::UpperTriangular,
                Property::Symmetric, Property::SymmetricPositiveDefinite,
                Property::Identity, Property::Zero, Property::Orthogonal,
                Property::Permutation, Property::UnitDiagonal, Property::FullRank,
            ]),
            0..6
        ),
        shuffle_seed in 0u64..100,
    ) {
        use gmc_expr::PropertySet;
        let forward: PropertySet = props.iter().copied().collect();
        let mut shuffled = props.clone();
        // Simple deterministic shuffle.
        let mut s = shuffle_seed;
        for i in (1..shuffled.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (s >> 33) as usize % (i + 1);
            shuffled.swap(i, j);
        }
        let backward: PropertySet = shuffled.into_iter().collect();
        prop_assert_eq!(forward, backward);
    }

    /// GMC never loses to any of the nine baseline strategies: on a
    /// random generalized chain (paper generator protocol), the
    /// optimizer's FLOP count is a lower bound on every baseline
    /// program's FLOP count, since all ten compile to the same kernel
    /// vocabulary and GMC minimizes over all parenthesizations.
    #[test]
    fn gmc_cost_is_a_lower_bound_on_all_baselines(seed in 0u64..1_000_000) {
        let config = GeneratorConfig::measured_scale();
        let mut rng = StdRng::seed_from_u64(seed);
        let chain = random_chain(&config, &mut rng);
        let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
        let gmc = GmcOptimizer::new(&registry, FlopCount)
            .solve(&chain)
            .expect("the full registry makes every generated chain computable");
        for strategy in all_strategies() {
            let program = strategy.compile(&chain);
            prop_assert!(
                gmc.flops() <= program.flops() * (1.0 + 1e-12),
                "GMC ({} flops) lost to {} ({} flops) on {chain}",
                gmc.flops(),
                strategy.label(),
                program.flops()
            );
        }
    }

    /// The allocation-free solver is bit-identical to the retained
    /// naive reference implementation (`gmc::reference`): same cost,
    /// same parenthesization, same kernel sequence — in both inference
    /// modes, and for the top-down formulation as well.
    #[test]
    fn solve_matches_naive_reference(seed in 0u64..1_000_000) {
        use gmc::{GmcWorkspace, InferenceMode};
        use gmc::reference::solve_reference;
        let config = GeneratorConfig::measured_scale();
        let mut rng = StdRng::seed_from_u64(seed);
        let chain = random_chain(&config, &mut rng);
        let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
        let mut ws = GmcWorkspace::new();
        for mode in [InferenceMode::Compositional, InferenceMode::Deep] {
            let optimizer = GmcOptimizer::new(&registry, FlopCount).with_inference(mode);
            let reference = solve_reference(&registry, &FlopCount, mode, &chain)
                .expect("full registry computes all chains");
            let fast = optimizer.solve_with(&chain, &mut ws)
                .expect("full registry computes all chains");
            prop_assert_eq!(fast.cost(), reference.cost(), "cost diverged ({:?}) on {}", mode, &chain);
            prop_assert_eq!(
                fast.parenthesization(),
                reference.parenthesization(),
                "parenthesization diverged ({:?}) on {}", mode, &chain
            );
            prop_assert_eq!(fast.kernel_names(), reference.kernel_names());
            let top_down = optimizer.solve_top_down_with(&chain, &mut ws)
                .expect("full registry computes all chains");
            prop_assert_eq!(top_down.cost(), reference.cost());
            prop_assert_eq!(top_down.parenthesization(), reference.parenthesization());
            prop_assert_eq!(top_down.kernel_names(), reference.kernel_names());
        }
    }

    /// On a classic chain — all operands dense, unstructured and
    /// un-operated — GMC degenerates exactly to the textbook MCP DP:
    /// both find the same minimal FLOP count (GEMM at `2mnk` matches
    /// the MCP cost convention, and the sums are integer-exact in f64).
    #[test]
    fn gmc_equals_mcp_on_dense_chains(sizes in prop::collection::vec(2usize..40, 4..10)) {
        let mcp = matrix_chain_order(&sizes);
        let factors: Vec<Factor> = sizes
            .windows(2)
            .enumerate()
            .map(|(i, w)| Factor::plain(Operand::matrix(format!("M{i}"), w[0], w[1])))
            .collect();
        let chain = Chain::new(factors).expect("dense factors form a valid chain");
        let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
        let gmc = GmcOptimizer::new(&registry, FlopCount)
            .solve(&chain)
            .expect("dense chains are computable");
        prop_assert_eq!(gmc.flops(), mcp.flops());
    }
}

/// A random symbolic chain for the plan-cache equivalence property:
/// boundary dimensions mix constants (including 1, producing vector
/// and outer-product sub-problems) with variables drawn from a small
/// pool (so variables repeat and structurally square factors arise),
/// factors randomly carry transposes, inverses and properties.
fn random_symbolic_chain(rng: &mut StdRng) -> gmc_expr::SymChain {
    use gmc_expr::{Dim, SymChain, SymFactor, SymOperand};
    use rand::Rng;
    let n = rng.gen_range(2..=8usize);
    let pool = ["sp_a", "sp_b", "sp_c"];
    let dims: Vec<Dim> = (0..=n)
        .map(|_| {
            if rng.gen_bool(0.35) {
                if rng.gen_bool(0.2) {
                    Dim::Const(1)
                } else {
                    Dim::Const(rng.gen_range(2..=6usize) * 10)
                }
            } else {
                Dim::var(pool[rng.gen_range(0..pool.len())])
            }
        })
        .collect();
    let factors: Vec<SymFactor> = (0..n)
        .map(|i| {
            let (r, c) = (dims[i], dims[i + 1]);
            let square = r == c;
            let transposed = rng.gen_bool(0.25);
            let (or, oc) = if transposed { (c, r) } else { (r, c) };
            let mut op = SymOperand::new(format!("M{i}"), or, oc);
            if square && rng.gen_bool(0.4) {
                let p = [
                    Property::Diagonal,
                    Property::LowerTriangular,
                    Property::UpperTriangular,
                    Property::Symmetric,
                    Property::SymmetricPositiveDefinite,
                ][rng.gen_range(0..5usize)];
                op = op.with_property(p).expect("structurally square");
            }
            let unary = if square && rng.gen_bool(0.3) {
                if transposed {
                    [UnaryOp::InverseTranspose, UnaryOp::Transpose][rng.gen_range(0..2usize)]
                } else {
                    [UnaryOp::Inverse, UnaryOp::None][rng.gen_range(0..2usize)]
                }
            } else if transposed {
                UnaryOp::Transpose
            } else {
                UnaryOp::None
            };
            SymFactor::new(op, unary)
        })
        .collect();
    SymChain::new(factors).expect("dims line up by construction")
}

proptest! {
    /// ISSUE 3 acceptance: for random chains with symbolic dimensions,
    /// binding the variables and instantiating the cached symbolic plan
    /// is bit-identical — cost, parenthesization, kernel sequence — to
    /// a from-scratch concrete solve, in both inference modes, across
    /// several bindings (different size regions included) and when the
    /// same binding is served again as a pure cache hit.
    #[test]
    fn symbolic_plan_matches_concrete_solve(seed in 0u64..1_000_000) {
        use gmc::InferenceMode;
        use gmc_expr::DimBindings;
        use gmc_plan::{PlanCache, PlanOutcome};
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eb011c);
        let chain = random_symbolic_chain(&mut rng);
        let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
        let sizes = [1usize, 2, 3, 7, 10, 40, 100];
        let bindings_list: Vec<DimBindings> = (0..3)
            .map(|_| {
                let mut b = DimBindings::new();
                for v in chain.vars() {
                    b.set_var(v, sizes[rng.gen_range(0..sizes.len())]);
                }
                b
            })
            .collect();
        for mode in [InferenceMode::Compositional, InferenceMode::Deep] {
            let optimizer = GmcOptimizer::new(&registry, FlopCount).with_inference(mode);
            let cache = PlanCache::new(registry.clone(), mode);
            for pass in 0..2 {
                for bindings in &bindings_list {
                    let concrete = chain.bind(bindings).expect("all variables bound");
                    let reference = optimizer.solve(&concrete);
                    match (reference, cache.solve(&chain, bindings)) {
                        (Ok(want), Ok((got, outcome))) => {
                            prop_assert_eq!(
                                want.cost().to_bits(), got.cost().to_bits(),
                                "cost diverged ({:?}, {}) on {}", mode, outcome, &concrete
                            );
                            prop_assert_eq!(
                                want.parenthesization(), got.parenthesization(),
                                "parenthesization diverged ({:?}) on {}", mode, &concrete
                            );
                            prop_assert_eq!(want.kernel_names(), got.kernel_names());
                            prop_assert_eq!(want.flops(), got.flops());
                            if pass == 1 {
                                prop_assert_eq!(outcome, PlanOutcome::Hit);
                            }
                        }
                        (Err(_), Err(_)) => {}
                        (want, got) => prop_assert!(
                            false,
                            "solvability diverged ({:?}) on {}: {:?} vs {:?}",
                            mode, &concrete, want.map(|s| s.cost()), got.map(|(s, o)| (s.cost(), o))
                        ),
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    /// ISSUE 5 acceptance: under multi-threaded mixed hit/miss traffic
    /// against one shared `PlanCache`, every response is bit-identical
    /// — cost, parenthesization, kernel sequence — to a from-scratch
    /// `GmcOptimizer::solve` of the bound chain, in both inference
    /// modes. Threads deliberately overlap on bindings (hits and
    /// racing misses) and also carry thread-private bindings (misses
    /// recorded while other threads are reading).
    #[test]
    fn concurrent_plan_cache_matches_concrete_solve(seed in 0u64..1_000_000) {
        use gmc::InferenceMode;
        use gmc_expr::DimBindings;
        use gmc_plan::PlanCache;
        use rand::Rng;
        use std::sync::Arc;
        const THREADS: usize = 6;
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC0C0);
        let chains: Vec<gmc_expr::SymChain> =
            (0..3).map(|_| random_symbolic_chain(&mut rng)).collect();
        let sizes = [1usize, 2, 3, 7, 10, 40, 100];
        let binding_for = |chain: &gmc_expr::SymChain, rng: &mut StdRng| {
            let mut b = DimBindings::new();
            for v in chain.vars() {
                b.set_var(v, sizes[rng.gen_range(0..sizes.len())]);
            }
            b
        };
        // Shared bindings every thread replays (hit + racing-miss
        // traffic) plus a few per-thread-only ones (pure misses).
        let shared: Vec<(usize, DimBindings)> = (0..6)
            .map(|i| {
                let ci = i % chains.len();
                (ci, binding_for(&chains[ci], &mut rng))
            })
            .collect();
        let private: Vec<Vec<(usize, DimBindings)>> = (0..THREADS)
            .map(|_| {
                (0..3)
                    .map(|_| {
                        let ci = rng.gen_range(0..chains.len());
                        (ci, binding_for(&chains[ci], &mut rng))
                    })
                    .collect()
            })
            .collect();

        let registry = Arc::new(KernelRegistry::blas_lapack());
        for mode in [InferenceMode::Compositional, InferenceMode::Deep] {
            let optimizer = GmcOptimizer::new(&registry, FlopCount).with_inference(mode);
            let cache = PlanCache::new(registry.clone(), mode);
            std::thread::scope(|scope| {
                for (t, mine) in private.iter().enumerate() {
                    let cache = &cache;
                    let chains = &chains;
                    let shared = &shared;
                    let optimizer = &optimizer;
                    scope.spawn(move || {
                        let mut order: Vec<&(usize, DimBindings)> =
                            shared.iter().chain(mine.iter()).collect();
                        // Stagger thread schedules so hits and misses
                        // interleave differently per thread.
                        let shift = t % order.len();
                        order.rotate_left(shift);
                        for pass in 0..2 {
                            for (ci, b) in &order {
                                let concrete = chains[*ci].bind(b).expect("bound");
                                let reference = optimizer.solve(&concrete);
                                match (reference, cache.solve(&chains[*ci], b)) {
                                    (Ok(want), Ok((got, _))) => {
                                        assert_eq!(
                                            want.cost().to_bits(),
                                            got.cost().to_bits(),
                                            "cost diverged ({mode:?}, pass {pass}) on {concrete}"
                                        );
                                        assert_eq!(
                                            want.parenthesization(),
                                            got.parenthesization(),
                                            "paren diverged ({mode:?}) on {concrete}"
                                        );
                                        assert_eq!(want.kernel_names(), got.kernel_names());
                                        assert_eq!(want.flops(), got.flops());
                                    }
                                    (Err(_), Err(_)) => {}
                                    (want, got) => panic!(
                                        "solvability diverged ({mode:?}) on {concrete}: {:?} vs {:?}",
                                        want.map(|s| s.cost()),
                                        got.map(|(s, o)| (s.cost(), o))
                                    ),
                                }
                            }
                        }
                    });
                }
            });
            // Accounting: every request was counted, and each recorded
            // region was recorded exactly once.
            let stats = cache.stats();
            prop_assert_eq!(
                stats.requests(),
                (THREADS * 2 * (shared.len() + 3)) as u64
            );
        }
    }
}

/// Random values for `chain`'s variables: each drawn log-uniformly
/// from `1..=2^max_log2`.
fn log_uniform_binding(
    chain: &gmc_expr::SymChain,
    max_log2: f64,
    rng: &mut StdRng,
) -> gmc_expr::DimBindings {
    use rand::Rng;
    let mut b = gmc_expr::DimBindings::new();
    for v in chain.vars() {
        b.set_var(v, 2f64.powf(rng.gen_range(0.0..max_log2)) as usize);
    }
    b
}

/// Another binding of `chain` in the size region of `first`: every
/// variable keeps its order against the other variables, against 1 and
/// against the chain's constants, but the values strictly between two
/// of those anchors are redrawn within their gap (up to twice the
/// largest of them above the last anchor).
fn same_region_binding(
    chain: &gmc_expr::SymChain,
    first: &gmc_expr::DimBindings,
    rng: &mut StdRng,
) -> gmc_expr::DimBindings {
    use rand::Rng;
    use std::collections::BTreeSet;
    let anchors: BTreeSet<usize> = chain
        .dims()
        .iter()
        .filter_map(gmc_expr::Dim::as_const)
        .chain([1])
        .collect();
    let vars = chain.vars();
    let old: BTreeSet<usize> = vars
        .iter()
        .map(|&v| first.get(v).expect("bound"))
        .filter(|v| !anchors.contains(v))
        .collect();
    // Old value → new value, gap by gap.
    let mut moved: Vec<(usize, usize)> = Vec::new();
    let mut rest: Vec<usize> = old.into_iter().collect();
    while let Some(&v) = rest.first() {
        let below = anchors.range(..v).next_back().copied().unwrap_or(0);
        let above = anchors.range(v..).next().copied();
        let gap: Vec<usize> = rest
            .iter()
            .copied()
            .take_while(|&x| above.is_none_or(|a| x < a))
            .collect();
        rest.drain(..gap.len());
        let top = gap.last().copied().expect("non-empty gap");
        let hi = above.map_or(top.saturating_mul(2), |a| a - 1);
        // `gap` itself lies in `below + 1 ..= hi`, so this terminates.
        let mut drawn: BTreeSet<usize> = BTreeSet::new();
        while drawn.len() < gap.len() {
            drawn.insert(rng.gen_range(below + 1..=hi));
        }
        moved.extend(gap.into_iter().zip(drawn));
    }
    let mut b = gmc_expr::DimBindings::new();
    for v in vars {
        let old = first.get(v).expect("bound");
        let new = moved.iter().find(|(o, _)| *o == old).map_or(old, |m| m.1);
        b.set_var(v, new);
    }
    b
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    /// A region's plan depends only on the structure, the inference
    /// mode and the region, never on the binding that opened it: two
    /// different bindings drawn inside one region record the same
    /// region plan (compared by its `Debug` rendering), in both
    /// inference modes.
    #[test]
    fn region_plans_do_not_depend_on_the_recording_binding(seed in 0u64..1_000_000) {
        use gmc::InferenceMode;
        use gmc_plan::{region_signature, PlanCache};
        let mut rng = StdRng::seed_from_u64(seed ^ 0x317_4E55);
        let chain = random_symbolic_chain(&mut rng);
        let first = log_uniform_binding(&chain, 12.0, &mut rng);
        let second = same_region_binding(&chain, &first, &mut rng);
        prop_assert_eq!(
            region_signature(&chain.bind_dims(&first).expect("bound")),
            region_signature(&chain.bind_dims(&second).expect("bound"))
        );
        let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
        for mode in [InferenceMode::Compositional, InferenceMode::Deep] {
            let plans: Vec<String> = [&first, &second]
                .into_iter()
                .map(|b| {
                    let cache = PlanCache::new(registry.clone(), mode);
                    let _ = cache.solve(&chain, b);
                    let plan = cache.plan_for(&chain).expect("recorded");
                    format!("{:?}", plan.sorted_regions())
                })
                .collect();
            prop_assert!(
                plans[0] == plans[1],
                "{:?}: {} recorded different plans at {:?} and {:?}",
                mode, &chain, first, second
            );
        }
    }

    /// Plan cache against a cold concrete solve at sizes up to 2^33,
    /// drawn log-uniformly, in both inference modes: every miss and
    /// every hit (at a second binding of the recorded region) is
    /// bit-identical in cost, parenthesization and kernel sequence.
    #[test]
    fn plan_cache_matches_concrete_solve_at_large_sizes(seed in 0u64..1_000_000) {
        use gmc::InferenceMode;
        use gmc_plan::{PlanCache, PlanOutcome};
        let mut rng = StdRng::seed_from_u64(seed ^ 0x2_0000_0033);
        let chain = random_symbolic_chain(&mut rng);
        let misses: Vec<gmc_expr::DimBindings> =
            (0..2).map(|_| log_uniform_binding(&chain, 33.0, &mut rng)).collect();
        let hits: Vec<gmc_expr::DimBindings> = misses
            .iter()
            .map(|b| same_region_binding(&chain, b, &mut rng))
            .collect();
        let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
        for mode in [InferenceMode::Compositional, InferenceMode::Deep] {
            let optimizer = GmcOptimizer::new(&registry, FlopCount).with_inference(mode);
            let cache = PlanCache::new(registry.clone(), mode);
            for (pass, bindings) in [&misses, &hits].into_iter().enumerate() {
                for b in bindings {
                    let concrete = chain.bind(b).expect("all variables bound");
                    match (optimizer.solve(&concrete), cache.solve(&chain, b)) {
                        (Ok(want), Ok((got, outcome))) => {
                            prop_assert_eq!(
                                want.cost().to_bits(), got.cost().to_bits(),
                                "cost diverged ({:?}, {}) on {}", mode, outcome, &concrete
                            );
                            prop_assert_eq!(want.parenthesization(), got.parenthesization());
                            prop_assert_eq!(want.kernel_names(), got.kernel_names());
                            prop_assert_eq!(want.flops().to_bits(), got.flops().to_bits());
                            if pass == 1 {
                                prop_assert_eq!(outcome, PlanOutcome::Hit);
                            }
                        }
                        (Err(_), Err(_)) => {}
                        (want, got) => prop_assert!(
                            false,
                            "solvability diverged ({:?}) on {}: {:?} vs {:?}",
                            mode, &concrete, want.map(|s| s.cost()), got.map(|(s, o)| (s.cost(), o))
                        ),
                    }
                }
            }
        }
    }
}

/// Serves `chain` at `b` from `cache` and checks the answer against a
/// cold concrete solve under the cache's registry and inference mode:
/// the same cost bits, parenthesization and kernel sequence, or an
/// error from both.
fn check_against_cold_solve(
    cache: &gmc_plan::PlanCache,
    chain: &gmc_expr::SymChain,
    b: &gmc_expr::DimBindings,
) {
    let concrete = chain.bind(b).expect("all variables bound");
    let optimizer =
        GmcOptimizer::new(cache.registry(), FlopCount).with_inference(cache.inference());
    match (optimizer.solve(&concrete), cache.solve(chain, b)) {
        (Ok(want), Ok((got, outcome))) => {
            assert_eq!(
                want.cost().to_bits(),
                got.cost().to_bits(),
                "cost diverged ({outcome}) on {concrete}"
            );
            assert_eq!(want.parenthesization(), got.parenthesization());
            assert_eq!(want.kernel_names(), got.kernel_names());
        }
        (Err(_), Err(_)) => {}
        (want, got) => panic!(
            "solvability diverged on {concrete}: {:?} vs {:?}",
            want.map(|s| s.cost()),
            got.map(|(s, o)| (s.cost(), o))
        ),
    }
}

/// `store` with one or two digits changed, or one structure-key field
/// (an operator code, a dimension, a property set, an operand class or
/// the mode flag) given another value.
fn tamper(store: &str, rng: &mut StdRng) -> String {
    use rand::Rng;
    if rng.gen_bool(0.5) {
        let digits: Vec<usize> = store
            .bytes()
            .enumerate()
            .filter_map(|(i, c)| c.is_ascii_digit().then_some(i))
            .collect();
        let mut bytes = store.as_bytes().to_vec();
        for _ in 0..rng.gen_range(1..=2) {
            bytes[digits[rng.gen_range(0..digits.len())]] = b'0' + rng.gen_range(0..10u8);
        }
        return String::from_utf8(bytes).expect("digits for digits");
    }
    let field = [
        "\"u\": ",
        "\"r\": ",
        "\"c\": ",
        "\"p\": ",
        "\"o\": ",
        "\"deep\": ",
    ][rng.gen_range(0..6usize)];
    let starts: Vec<usize> = store
        .match_indices(field)
        .map(|(i, _)| i + field.len())
        .collect();
    let at = starts[rng.gen_range(0..starts.len())];
    let end = at + store[at..].find([',', '\n']).expect("a field ends");
    let value = match field {
        "\"r\": " | "\"c\": " if rng.gen_bool(0.5) => format!("\"${}\"", rng.gen_range(0..4u32)),
        "\"r\": " | "\"c\": " => [1, 10, 20, 60][rng.gen_range(0..4usize)].to_string(),
        "\"p\": " => rng.gen_range(0..1024u32).to_string(),
        "\"deep\": " => rng.gen_bool(0.5).to_string(),
        _ => rng.gen_range(0..5u32).to_string(),
    };
    format!("{}{value}{}", &store[..at], &store[end..])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// A tampered plan store cannot change an answer: in both inference
    /// modes, every mutant of a few-region store either fails to load
    /// with `PlanError::Store`, recording nothing, or loads and serves
    /// every binding that opened a region of the original bit-identically
    /// to a cold concrete solve. No mutant panics.
    #[test]
    fn tampered_plan_stores_never_change_an_answer(seed in 0u64..1_000_000) {
        use gmc::InferenceMode;
        use gmc_plan::{PlanCache, PlanError};
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7A3_9E5);
        let chains: Vec<gmc_expr::SymChain> =
            (0..2).map(|_| random_symbolic_chain(&mut rng)).collect();
        let opened: Vec<(&gmc_expr::SymChain, gmc_expr::DimBindings)> = chains
            .iter()
            .flat_map(|c| [(c, log_uniform_binding(c, 12.0, &mut rng)),
                           (c, log_uniform_binding(c, 12.0, &mut rng))])
            .collect();
        let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
        for mode in [InferenceMode::Compositional, InferenceMode::Deep] {
            let warm = PlanCache::new(registry.clone(), mode);
            for (chain, b) in &opened {
                let _ = warm.solve(chain, b);
            }
            let store = warm.snapshot_json();
            for _ in 0..8 {
                let mutant = tamper(&store, &mut rng);
                let loaded = PlanCache::new(registry.clone(), mode);
                match loaded.load_snapshot_json(&mutant) {
                    Ok(_) => {
                        for (chain, b) in &opened {
                            check_against_cold_solve(&loaded, chain, b);
                        }
                    }
                    Err(PlanError::Store(_)) => {
                        prop_assert!(loaded.is_empty(), "a failed load recorded regions");
                    }
                    Err(e) => prop_assert!(false, "not a store error: {e}"),
                }
            }
        }
    }

    /// A plan store round-trips at sizes up to 2^33, drawn
    /// log-uniformly, in both inference modes: loaded into a fresh
    /// cache, it makes every binding that opened a region a hit,
    /// bit-identical to a cold concrete solve, and saving the loaded
    /// cache reproduces the store bytes.
    #[test]
    fn plan_store_round_trips_at_large_sizes(seed in 0u64..1_000_000) {
        use gmc::InferenceMode;
        use gmc_plan::PlanCache;
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5_70BE);
        let chain = random_symbolic_chain(&mut rng);
        let opened: Vec<gmc_expr::DimBindings> =
            (0..3).map(|_| log_uniform_binding(&chain, 33.0, &mut rng)).collect();
        let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
        for mode in [InferenceMode::Compositional, InferenceMode::Deep] {
            let warm = PlanCache::new(registry.clone(), mode);
            for b in &opened {
                let _ = warm.solve(&chain, b);
            }
            let store = warm.snapshot_json();
            let loaded = PlanCache::new(registry.clone(), mode);
            let recorded = loaded.load_snapshot_json(&store).expect("a saved store loads");
            prop_assert_eq!(recorded, warm.plan_for(&chain).expect("recorded").region_count());
            prop_assert_eq!(loaded.stats().requests(), 0, "loading is not a request");
            prop_assert!(loaded.snapshot_json() == store, "re-saving changed the store");
            for b in &opened {
                check_against_cold_solve(&loaded, &chain, b);
            }
            prop_assert_eq!(loaded.stats().hits, opened.len() as u64, "every request hits");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    /// The region recorder infers compositional property sets through a
    /// `ProductMemo`. On every split of a random chain and of its
    /// palindrome `C · Cᵀ` (whose mirrored operands make Gram products,
    /// where operand identity and shape decide symmetry and
    /// definiteness), with every temporary a child cell can hold (the
    /// property sets its splits infer, under either inference mode),
    /// the memo answers what direct inference answers.
    #[test]
    fn product_memo_matches_direct_inference_on_every_split(seed in 0u64..1_000_000) {
        use gmc::InferenceMode;
        use gmc_analysis::ProductMemo;
        use gmc_expr::{PropertySet, Shape};
        let mut rng = StdRng::seed_from_u64(seed ^ 0x3E30);
        let sym = random_symbolic_chain(&mut rng);
        let chain = sym
            .bind(&log_uniform_binding(&sym, 7.0, &mut rng))
            .expect("all variables bound");
        let mirrored = chain.factors().iter().rev().map(|f| {
            let op = match f.op() {
                UnaryOp::None => UnaryOp::Transpose,
                UnaryOp::Transpose => UnaryOp::None,
                UnaryOp::Inverse => UnaryOp::InverseTranspose,
                UnaryOp::InverseTranspose => UnaryOp::Inverse,
            };
            Factor::new(f.operand().clone(), op)
        });
        let palindrome = Chain::new(chain.factors().iter().cloned().chain(mirrored).collect())
            .expect("a chain times its transpose is well formed");
        // One memo across all cases, so products of different chains
        // meet under one key.
        thread_local! {
            static MEMO: std::cell::RefCell<ProductMemo> = Default::default();
        }
        for (chain, mode) in [&chain, &palindrome]
            .into_iter()
            .flat_map(|c| [(c, InferenceMode::Compositional), (c, InferenceMode::Deep)])
        {
            let n = chain.len();
            // cells[i][j]: the expressions cell (i, j) can hold.
            let mut cells: Vec<Vec<Vec<Expr>>> = vec![vec![Vec::new(); n]; n];
            for (i, row) in cells.iter_mut().enumerate() {
                row[i] = vec![chain.factor(i).expr()];
            }
            for l in 1..n {
                for i in 0..n - l {
                    let j = i + l;
                    let deep = infer_properties(&Expr::times(
                        (i..=j).map(|t| chain.factor(t).expr()).collect::<Vec<_>>(),
                    ));
                    let mut variants: Vec<PropertySet> = Vec::new();
                    for k in i..j {
                        for le in &cells[i][k] {
                            for re in &cells[k + 1][j] {
                                let direct =
                                    infer_properties(&Expr::times([le.clone(), re.clone()]));
                                let memoized = MEMO.with(|m| m.borrow_mut().infer(le, re));
                                prop_assert_eq!(memoized, direct, "{} · {} in {}", le, re, &chain);
                                let props = match mode {
                                    InferenceMode::Compositional => direct,
                                    InferenceMode::Deep => deep,
                                };
                                if !variants.contains(&props) {
                                    variants.push(props);
                                }
                            }
                        }
                    }
                    let shape = Shape::new(
                        chain.factor(i).shape().rows(),
                        chain.factor(j).shape().cols(),
                    );
                    cells[i][j] = variants
                        .into_iter()
                        .map(|p| Operand::temporary(format!("T{i}_{j}"), shape, p).expr())
                        .collect();
                }
            }
        }
    }
}
