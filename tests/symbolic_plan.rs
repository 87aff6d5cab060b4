//! End-to-end integration of the symbolic pipeline: input language with
//! identifier dimensions → `SymChain` → `gmc-plan` cache → solutions,
//! regions, and size-generic code emission.

use gmc::{FlopCount, GmcOptimizer, InferenceMode};
use gmc_codegen::emit_size_generic_rust;
use gmc_expr::{Dim, DimBindings, SymChain, SymFactor, SymOperand};
use gmc_frontend::{parse, render_problem};
use gmc_kernels::KernelRegistry;
use gmc_plan::{PlanCache, PlanOutcome};

const SYMBOLIC_MCP: &str = "\
Matrix A (n, k)
Matrix B (k, m)
Matrix C (m, n)
X := A * B * C
";

#[test]
fn regions_select_different_parenthesizations() {
    let problem = parse(SYMBOLIC_MCP).unwrap();
    let sym = problem.symbolic.as_ref().expect("symbolic problem");
    let (_, chain) = &sym.chains[0];
    let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
    let cache = PlanCache::new(registry.clone(), InferenceMode::Compositional);

    // Both parenthesizations share the 2nmk term, so the comparison is
    // n²m vs n²k: m < k → ((A B) C), m > k → (A (B C)).
    let b1 = DimBindings::new()
        .with("n", 10)
        .with("k", 1000)
        .with("m", 10);
    let (s1, o1) = cache.solve(chain, &b1).unwrap();
    assert_eq!(o1, PlanOutcome::MissStructure);
    assert_eq!(s1.parenthesization(), "((A B) C)");

    // Same region, scaled sizes: cache hit, same paren.
    let b2 = DimBindings::new()
        .with("n", 20)
        .with("k", 2000)
        .with("m", 20);
    let (s2, o2) = cache.solve(chain, &b2).unwrap();
    assert_eq!(o2, PlanOutcome::Hit);
    assert_eq!(s2.parenthesization(), "((A B) C)");

    // Flipped ordering: new region, the other paren.
    let b3 = DimBindings::new()
        .with("n", 10)
        .with("k", 20)
        .with("m", 1000);
    let (s3, o3) = cache.solve(chain, &b3).unwrap();
    assert_eq!(o3, PlanOutcome::MissRegion);
    assert_eq!(s3.parenthesization(), "(A (B C))");

    let stats = cache.stats();
    assert_eq!(stats.requests(), 3);
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.structure_misses, 1);
    assert_eq!(stats.region_misses, 1);
    assert_eq!(cache.plan_for(chain).unwrap().region_count(), 2);
}

#[test]
fn structured_symbolic_problem_resolves_fully() {
    // The symbolic Table 2 chain: with the SPD/triangular structure the
    // kernel choice and split are size-independent, so the whole plan
    // resolves symbolically and instantiation never scans candidates.
    let problem = parse(
        "Matrix A (n, n) <SPD>\nMatrix B (n, m)\nMatrix C (m, m) <LowerTriangular>\n\
         X := A^-1 * B * C^T\n",
    )
    .unwrap();
    let sym = problem.symbolic.as_ref().unwrap();
    let (_, chain) = &sym.chains[0];
    let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
    let cache = PlanCache::new(registry.clone(), InferenceMode::Compositional);
    let b = DimBindings::new().with("n", 2000).with("m", 200);
    let (sol, _) = cache.solve(chain, &b).unwrap();
    assert_eq!(sol.kernel_names(), vec!["TRMM_RLT", "POSV_LN"]);
    let summary = cache.region_summary(chain, &b).unwrap();
    assert_eq!(summary.dynamic, 0);
    assert_eq!(summary.unsolvable, 0);
    assert!(
        summary.resolved >= 1,
        "expected symbolically resolved cells, got {summary}"
    );
}

#[test]
fn frontend_plan_and_concrete_optimizer_agree() {
    let problem = parse(SYMBOLIC_MCP).unwrap();
    let sym = problem.symbolic.as_ref().unwrap();
    let (_, chain) = &sym.chains[0];
    let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
    let optimizer = GmcOptimizer::new(&registry, FlopCount);
    let cache = PlanCache::new(registry.clone(), InferenceMode::Compositional);
    for (n, k, m) in [(30, 40, 50), (50, 40, 30), (8, 8, 8), (1, 5, 9)] {
        let b = DimBindings::new().with("n", n).with("k", k).with("m", m);
        let concrete = chain.bind(&b).unwrap();
        let want = optimizer.solve(&concrete).unwrap();
        let (got, _) = cache.solve(chain, &b).unwrap();
        assert_eq!(want.cost().to_bits(), got.cost().to_bits());
        assert_eq!(want.parenthesization(), got.parenthesization());
        assert_eq!(want.kernel_names(), got.kernel_names());
    }
}

#[test]
fn size_generic_emission_from_cached_plan() {
    let problem = parse(SYMBOLIC_MCP).unwrap();
    let sym = problem.symbolic.as_ref().unwrap();
    let (_, chain) = &sym.chains[0];
    let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
    let cache = PlanCache::new(registry.clone(), InferenceMode::Compositional);
    let b = DimBindings::new().with("n", 10).with("k", 20).with("m", 30);
    let (sol, _) = cache.solve(chain, &b).unwrap();
    let code = emit_size_generic_rust(&sol.program(), chain);
    assert!(
        code.contains("pub fn compute(n: usize, k: usize, m: usize"),
        "{code}"
    );
    assert!(code.contains("A: n x k"), "{code}");
    assert!(code.contains("ops::gemm"), "{code}");
}

#[test]
fn render_problem_round_trips_through_plan() {
    let problem = parse(SYMBOLIC_MCP).unwrap();
    let rendered = render_problem(&problem);
    assert_eq!(rendered, SYMBOLIC_MCP);
    // The re-parsed problem produces the same structure key, so plans
    // recorded for one serve the other.
    let reparsed = parse(&rendered).unwrap();
    let c1 = &problem.symbolic.as_ref().unwrap().chains[0].1;
    let c2 = &reparsed.symbolic.as_ref().unwrap().chains[0].1;
    assert_eq!(
        gmc_plan::structure_key(c1, InferenceMode::Compositional),
        gmc_plan::structure_key(c2, InferenceMode::Compositional)
    );
}

#[test]
fn deep_inference_plans_are_cached_independently() {
    let problem = parse("Matrix A (p, q)\nMatrix B (p, q)\nX := A^T * B * B^T * A\n").unwrap();
    let sym = problem.symbolic.as_ref().unwrap();
    let (_, chain) = &sym.chains[0];
    let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
    for mode in [InferenceMode::Compositional, InferenceMode::Deep] {
        let optimizer = GmcOptimizer::new(&registry, FlopCount).with_inference(mode);
        let cache = PlanCache::new(registry.clone(), mode);
        for (p, q) in [(60, 4), (4, 60), (60, 4)] {
            let b = DimBindings::new().with("p", p).with("q", q);
            let want = optimizer.solve(&chain.bind(&b).unwrap()).unwrap();
            let (got, _) = cache.solve(chain, &b).unwrap();
            assert_eq!(want.cost().to_bits(), got.cost().to_bits(), "{mode:?}");
            assert_eq!(want.kernel_names(), got.kernel_names(), "{mode:?}");
        }
        assert_eq!(cache.stats().hits, 1, "{mode:?}");
    }
}

#[test]
fn length_32_chain_matches_concrete_and_mcp_optimum_across_ladders() {
    // The dense 32-factor chain `M0 ⋯ M31` with 33 distinct boundary
    // variables: nearly every interior cell is deferred, so a hit ranks
    // thousands of candidates. Each ladder (an ordering of the boundary
    // sizes) is its own region; a renamed twin of the chain shares its
    // structure key and is served from the first chain's regions.
    let n = 32;
    let chain = gmc_bench::symbolic_length_chain(n);
    let twin = SymChain::new(
        (0..n)
            .map(|i| {
                SymFactor::plain(SymOperand::new(
                    format!("N{i}"),
                    Dim::var(&format!("len32_e{i}")),
                    Dim::var(&format!("len32_e{}", i + 1)),
                ))
            })
            .collect(),
    )
    .unwrap();
    let mode = InferenceMode::Compositional;
    assert_eq!(
        gmc_plan::structure_key(&chain, mode),
        gmc_plan::structure_key(&twin, mode)
    );
    let registry = std::sync::Arc::new(KernelRegistry::blas_lapack());
    let optimizer = GmcOptimizer::new(&registry, FlopCount).with_inference(mode);
    let cache = PlanCache::new(registry.clone(), mode);

    let mut state = 0x5eed_u64;
    let mut shuffled: Vec<usize> = (0..=n).map(|i| 40 + 9 * i).collect();
    for i in (1..shuffled.len()).rev() {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        shuffled.swap(i, (state >> 33) as usize % (i + 1));
    }
    let ladders: Vec<Vec<usize>> = vec![
        (0..=n).map(|i| 100 + 50 * i).collect(),
        (0..=n).map(|i| 100 + 50 * (n - i)).collect(),
        (0..=n)
            .map(|i| if i % 2 == 0 { 30 + i } else { 400 - i })
            .collect(),
        (0..=n).map(|i| 10 * (i % 5 + 1)).collect(),
        shuffled,
    ];
    let bind = |prefix: &str, sizes: &[usize]| {
        let mut b = DimBindings::new();
        for (i, &v) in sizes.iter().enumerate() {
            b.set(&format!("{prefix}{i}"), v);
        }
        b
    };
    for ladder in &ladders {
        cache.solve(&chain, &bind("d", ladder)).unwrap();
        // Scaling every size keeps the ordering, so these are hits.
        for (scale, served, prefix) in [(1, &chain, "d"), (3, &chain, "d"), (7, &twin, "len32_e")] {
            let sizes: Vec<usize> = ladder.iter().map(|v| v * scale).collect();
            let bindings = bind(prefix, &sizes);
            let (got, outcome) = cache.solve(served, &bindings).unwrap();
            assert_eq!(outcome, PlanOutcome::Hit, "{prefix} ×{scale}");
            let want = optimizer.solve(&served.bind(&bindings).unwrap()).unwrap();
            assert_eq!(
                want.cost().to_bits(),
                got.cost().to_bits(),
                "{ladder:?} ×{scale}"
            );
            assert_eq!(want.parenthesization(), got.parenthesization());
            assert_eq!(want.kernel_names(), got.kernel_names());
            let optimum = gmc::mcp::matrix_chain_order(&sizes).flops();
            assert_eq!(
                optimum.to_bits(),
                got.cost().to_bits(),
                "{ladder:?} ×{scale}"
            );
        }
    }
    assert_eq!(cache.stats().hits, 3 * ladders.len() as u64);
}
