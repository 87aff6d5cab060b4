//! Plan-cache vs concrete-optimizer equivalence on handcrafted chains:
//! every served solution must match a from-scratch `GmcOptimizer::solve`
//! bit for bit (cost, parenthesization, kernel sequence), across size
//! regions, inference modes and cache temperatures.

use gmc::{FlopCount, GmcOptimizer, InferenceMode};
use gmc_expr::{Dim, DimBindings, Property, SymChain, SymFactor, SymOperand, UnaryOp};
use gmc_kernels::KernelRegistry;
use gmc_plan::{PlanCache, PlanOutcome};

fn check_equivalent(chain: &SymChain, bindings_list: &[DimBindings]) {
    let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
    for mode in [InferenceMode::Compositional, InferenceMode::Deep] {
        let optimizer = GmcOptimizer::new(&registry, FlopCount).with_inference(mode);
        let cache = PlanCache::new(registry.clone(), mode);
        // Two passes so every binding is also exercised as a pure hit.
        for pass in 0..2 {
            for b in bindings_list {
                let concrete = chain.bind(b).expect("binding covers all variables");
                let reference = optimizer.solve(&concrete);
                let served = cache.solve(chain, b);
                match (reference, served) {
                    (Ok(want), Ok((got, outcome))) => {
                        assert_eq!(
                            want.cost().to_bits(),
                            got.cost().to_bits(),
                            "cost diverged for {concrete} under {mode:?} ({outcome})"
                        );
                        assert_eq!(
                            want.parenthesization(),
                            got.parenthesization(),
                            "paren diverged for {concrete} under {mode:?}"
                        );
                        assert_eq!(
                            want.kernel_names(),
                            got.kernel_names(),
                            "kernels diverged for {concrete} under {mode:?}"
                        );
                        assert_eq!(want.flops(), got.flops());
                        if pass == 1 {
                            assert_eq!(outcome, PlanOutcome::Hit, "second pass must hit");
                        }
                    }
                    (Err(_), Err(_)) => {}
                    (want, got) => {
                        panic!("solvability diverged for {concrete} under {mode:?}: concrete {want:?}, plan {got:?}")
                    }
                }
            }
        }
    }
}

fn plain(name: &str, r: Dim, c: Dim) -> SymFactor {
    SymFactor::plain(SymOperand::new(name, r, c))
}

#[test]
fn dense_chain_regions_flip_parenthesization() {
    let (n, m, k) = (Dim::var("eq_n"), Dim::var("eq_m"), Dim::var("eq_k"));
    let chain = SymChain::new(vec![plain("A", n, m), plain("B", m, k), plain("C", k, n)]).unwrap();
    let b = |nv, mv, kv| {
        DimBindings::new()
            .with("eq_n", nv)
            .with("eq_m", mv)
            .with("eq_k", kv)
    };
    check_equivalent(
        &chain,
        &[
            b(10, 200, 30),
            b(12, 240, 36), // same region, different sizes
            b(300, 20, 100),
            b(5, 5, 5),   // all-equal region
            b(1, 50, 20), // row-vector-ish boundary (dimension 1)
            b(40, 1, 7),
        ],
    );
}

#[test]
fn structured_chain_with_properties_and_inverse() {
    let (n, m) = (Dim::var("eq2_n"), Dim::var("eq2_m"));
    let a = SymOperand::square("A", n)
        .with_property(Property::SymmetricPositiveDefinite)
        .unwrap();
    let b = SymOperand::new("B", n, m);
    let c = SymOperand::square("C", m)
        .with_property(Property::LowerTriangular)
        .unwrap();
    let chain = SymChain::new(vec![
        SymFactor::new(a, UnaryOp::Inverse),
        SymFactor::plain(b),
        SymFactor::new(c, UnaryOp::Transpose),
    ])
    .unwrap();
    let bind = |nv, mv| DimBindings::new().with("eq2_n", nv).with("eq2_m", mv);
    check_equivalent(
        &chain,
        &[bind(2000, 200), bind(100, 800), bind(7, 7), bind(3, 1)],
    );
}

#[test]
fn aliased_gram_chain_uses_syrk() {
    // Aᵀ A B: SYRK applies only because both factors are the same A.
    let (n, m) = (Dim::var("eq3_n"), Dim::var("eq3_m"));
    let a = SymOperand::new("A", n, n);
    let b = SymOperand::new("B", n, m);
    let chain = SymChain::new(vec![
        SymFactor::new(a.clone(), UnaryOp::Transpose),
        SymFactor::plain(a),
        SymFactor::plain(b),
    ])
    .unwrap();
    let bind = |nv, mv| DimBindings::new().with("eq3_n", nv).with("eq3_m", mv);
    check_equivalent(&chain, &[bind(20, 15), bind(200, 3), bind(4, 400)]);
}

#[test]
fn vector_chain_gemv_cascade() {
    let (n, m) = (Dim::var("eq4_n"), Dim::var("eq4_m"));
    let chain = SymChain::new(vec![
        plain("M1", n, n),
        plain("M2", n, n),
        plain("v1", n, Dim::Const(1)),
        SymFactor::new(SymOperand::new("v2", m, Dim::Const(1)), UnaryOp::Transpose),
    ])
    .unwrap();
    let bind = |nv, mv| DimBindings::new().with("eq4_n", nv).with("eq4_m", mv);
    check_equivalent(&chain, &[bind(500, 400), bind(30, 700), bind(2, 2)]);
}

#[test]
fn triangular_propagation_chain() {
    // L1 L2 B with both factors lower triangular: temp property
    // propagation decides TRMM applicability downstream.
    let (n, m) = (Dim::var("eq5_n"), Dim::var("eq5_m"));
    let l1 = SymOperand::square("L1", n)
        .with_property(Property::LowerTriangular)
        .unwrap();
    let l2 = SymOperand::square("L2", n)
        .with_property(Property::LowerTriangular)
        .unwrap();
    let b = SymOperand::new("B", n, m);
    let chain = SymChain::new(vec![
        SymFactor::plain(l1),
        SymFactor::plain(l2),
        SymFactor::plain(b),
    ])
    .unwrap();
    let bind = |nv, mv| DimBindings::new().with("eq5_n", nv).with("eq5_m", mv);
    check_equivalent(&chain, &[bind(100, 80), bind(10, 1000), bind(50, 50)]);
}

#[test]
fn uncomputable_chains_stay_uncomputable() {
    let registry = std::sync::Arc::new(
        KernelRegistry::builder()
            .only_families([gmc_kernels::KernelFamily::Gemm])
            .build(),
    );
    let n = Dim::var("eq6_n");
    let a = SymOperand::square("A", n);
    let b = SymOperand::new("B", n, Dim::Const(4));
    let chain = SymChain::new(vec![
        SymFactor::new(a, UnaryOp::Inverse),
        SymFactor::plain(b),
    ])
    .unwrap();
    let cache = PlanCache::new(registry, InferenceMode::Compositional);
    let bindings = DimBindings::new().with("eq6_n", 10);
    assert!(cache.solve(&chain, &bindings).is_err());
    // The unsolvable region is cached; a second request errors again
    // (served from the cached region).
    assert!(cache.solve(&chain, &bindings).is_err());
    assert_eq!(cache.stats().requests(), 2);
    assert_eq!(cache.stats().hits, 1);
}

#[test]
fn longer_dense_chain_with_shared_vars() {
    let (n, m) = (Dim::var("eq7_n"), Dim::var("eq7_m"));
    let chain = SymChain::new(vec![
        plain("A", n, m),
        plain("B", m, n),
        plain("C", n, m),
        plain("D", m, n),
        plain("E", n, m),
    ])
    .unwrap();
    let bind = |nv, mv| DimBindings::new().with("eq7_n", nv).with("eq7_m", mv);
    check_equivalent(
        &chain,
        &[
            bind(10, 100),
            bind(100, 10),
            bind(33, 33),
            bind(1, 9),
            bind(17, 170),
        ],
    );
}

#[test]
fn renamed_variables_share_plans_correctly() {
    // Structure keys canonicalize variable names, so A(n,m)·B(m,k)·C(k,n)
    // and A(p,q)·B(q,r)·C(r,p) share one cached plan. The cached FLOP
    // formulas index the *recording* chain's variables by position;
    // serving the renamed chain must line its variables up with them,
    // not crash or mis-cost.
    let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
    let (n, m, k) = (Dim::var("rn_n"), Dim::var("rn_m"), Dim::var("rn_k"));
    let (p, q, r) = (Dim::var("rn_p"), Dim::var("rn_q"), Dim::var("rn_r"));
    let first = SymChain::new(vec![plain("A", n, m), plain("B", m, k), plain("C", k, n)]).unwrap();
    let renamed =
        SymChain::new(vec![plain("A", p, q), plain("B", q, r), plain("C", r, p)]).unwrap();
    for mode in [InferenceMode::Compositional, InferenceMode::Deep] {
        assert_eq!(
            gmc_plan::structure_key(&first, mode),
            gmc_plan::structure_key(&renamed, mode),
            "the chains must share a structure key for this test to bite"
        );
        let optimizer = GmcOptimizer::new(&registry, FlopCount).with_inference(mode);
        let cache = PlanCache::new(registry.clone(), mode);
        let b1 = DimBindings::new()
            .with("rn_n", 10)
            .with("rn_m", 200)
            .with("rn_k", 30);
        cache.solve(&first, &b1).unwrap();
        // Different sizes than the recording, same region ordering.
        let b2 = DimBindings::new()
            .with("rn_p", 13)
            .with("rn_q", 260)
            .with("rn_r", 39);
        let (got, outcome) = cache.solve(&renamed, &b2).unwrap();
        assert_eq!(
            outcome,
            PlanOutcome::Hit,
            "{mode:?}: renamed chain must hit"
        );
        let want = optimizer.solve(&renamed.bind(&b2).unwrap()).unwrap();
        assert_eq!(want.cost().to_bits(), got.cost().to_bits(), "{mode:?}");
        assert_eq!(want.parenthesization(), got.parenthesization());
        assert_eq!(want.kernel_names(), got.kernel_names());
    }
}

#[test]
fn renamed_variables_work_across_the_plan_store() {
    // Record under one naming, persist, load, serve a renamed chain.
    let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
    let (n, m) = (Dim::var("rs_n"), Dim::var("rs_m"));
    let recorded = SymChain::new(vec![plain("A", n, m), plain("B", m, n)]).unwrap();
    let warm = PlanCache::new(registry.clone(), InferenceMode::Compositional);
    warm.solve(
        &recorded,
        &DimBindings::new().with("rs_n", 10).with("rs_m", 80),
    )
    .unwrap();

    let cold = PlanCache::new(registry.clone(), InferenceMode::Compositional);
    cold.load_snapshot_json(&warm.snapshot_json()).unwrap();
    let (x, y) = (Dim::var("rs_x"), Dim::var("rs_y"));
    let renamed = SymChain::new(vec![plain("A", x, y), plain("B", y, x)]).unwrap();
    let b = DimBindings::new().with("rs_x", 7).with("rs_y", 900);
    let (got, outcome) = cold.solve(&renamed, &b).unwrap();
    assert_eq!(outcome, PlanOutcome::Hit);
    let want = GmcOptimizer::new(&registry, FlopCount)
        .solve(&renamed.bind(&b).unwrap())
        .unwrap();
    assert_eq!(want.cost().to_bits(), got.cost().to_bits());
    assert_eq!(want.kernel_names(), got.kernel_names());
}

#[test]
fn polynomial_tie_across_splits_is_ranked_numerically() {
    // A0ᵀ A0 A2⁻¹ A2⁻¹ A2 A5, every factor n×n. Recorded at n = 50,
    // cell (2,5) ties as a total polynomial between two splits; POSV's
    // 1/3 coefficient makes the later split round strictly cheaper at
    // n = 7, which is what the concrete DP picks. A plan that resolved
    // the cell on the tie served the earlier split there.
    let n = Dim::var("tie_n");
    let a0 = SymOperand::square("A0", n)
        .with_property(Property::Diagonal)
        .unwrap();
    let a2 = SymOperand::square("A2", n)
        .with_property(Property::SymmetricPositiveDefinite)
        .unwrap();
    let a5 = SymOperand::square("A5", n)
        .with_property(Property::Symmetric)
        .unwrap();
    let chain = SymChain::new(vec![
        SymFactor::new(a0.clone(), UnaryOp::Transpose),
        SymFactor::plain(a0),
        SymFactor::new(a2.clone(), UnaryOp::Inverse),
        SymFactor::new(a2.clone(), UnaryOp::Inverse),
        SymFactor::plain(a2),
        SymFactor::plain(a5),
    ])
    .unwrap();
    let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
    let mode = InferenceMode::Compositional;
    let optimizer = GmcOptimizer::new(&registry, FlopCount).with_inference(mode);
    let cache = PlanCache::new(registry.clone(), mode);
    let bind = |v| DimBindings::new().with("tie_n", v);
    let (_, outcome) = cache.solve(&chain, &bind(50)).unwrap();
    assert_eq!(outcome, PlanOutcome::MissStructure);
    let concrete = chain.bind(&bind(7)).unwrap();
    let want = optimizer.solve(&concrete).unwrap();
    assert_eq!(
        want.parenthesization(),
        "(A0^T (A0 ((A2^-1 (A2^-1 A2)) A5)))",
        "the concrete optimizer's answer this test pins"
    );
    let (got, outcome) = cache.solve(&chain, &bind(7)).unwrap();
    assert_eq!(outcome, PlanOutcome::Hit);
    assert_eq!(want.cost().to_bits(), got.cost().to_bits());
    assert_eq!(want.parenthesization(), got.parenthesization());
    assert_eq!(want.kernel_names(), got.kernel_names());
    // And across the rest of the region, both inference modes.
    check_equivalent(
        &chain,
        &[bind(50), bind(7), bind(2), bind(3), bind(13), bind(1000)],
    );
}

#[test]
fn dynamic_cells_match_the_concrete_solver_fresh_and_from_the_store() {
    // A0⁻¹ A1⁻¹ A1 A1 A1ᵀ A2ᵀ, every factor n×n, A0 and A1 symmetric,
    // A2 lower triangular. Under compositional inference a temporary's
    // properties depend on the split that built it, so five cells are
    // recorded Dynamic and re-matched live on every hit, over children
    // that the hit must materialize first.
    let n = Dim::var("dyn_n");
    let a0 = SymOperand::square("A0", n)
        .with_property(Property::Symmetric)
        .unwrap();
    let a1 = SymOperand::square("A1", n)
        .with_property(Property::Symmetric)
        .unwrap();
    let a2 = SymOperand::square("A2", n)
        .with_property(Property::LowerTriangular)
        .unwrap();
    let chain = SymChain::new(vec![
        SymFactor::new(a0, UnaryOp::Inverse),
        SymFactor::new(a1.clone(), UnaryOp::Inverse),
        SymFactor::plain(a1.clone()),
        SymFactor::plain(a1.clone()),
        SymFactor::new(a1, UnaryOp::Transpose),
        SymFactor::new(a2, UnaryOp::Transpose),
    ])
    .unwrap();
    let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
    let mode = InferenceMode::Compositional;
    let optimizer = GmcOptimizer::new(&registry, FlopCount).with_inference(mode);
    let bind = |v| DimBindings::new().with("dyn_n", v);
    let sizes = [50, 2, 3, 7, 64, 999];

    let fresh = PlanCache::new(registry.clone(), mode);
    fresh.solve(&chain, &bind(50)).unwrap();
    let summary = fresh.region_summary(&chain, &bind(50)).unwrap();
    assert!(
        summary.dynamic > 0,
        "the chain must record dynamic cells: {summary}"
    );
    assert!(summary.deferred > 0, "and deferred ones: {summary}");

    let loaded = PlanCache::new(registry.clone(), mode);
    assert!(loaded.load_snapshot_json(&fresh.snapshot_json()).unwrap() > 0);
    for (label, cache) in [("fresh", &fresh), ("loaded", &loaded)] {
        for v in sizes {
            let want = optimizer.solve(&chain.bind(&bind(v)).unwrap()).unwrap();
            let (got, outcome) = cache.solve(&chain, &bind(v)).unwrap();
            assert_eq!(outcome, PlanOutcome::Hit, "{label} n={v}");
            assert_eq!(want.cost().to_bits(), got.cost().to_bits(), "{label} n={v}");
            assert_eq!(want.parenthesization(), got.parenthesization(), "{label}");
            assert_eq!(want.kernel_names(), got.kernel_names(), "{label} n={v}");
            assert_eq!(want.flops().to_bits(), got.flops().to_bits(), "{label}");
        }
    }
    check_equivalent(&chain, &sizes.map(bind));
}
