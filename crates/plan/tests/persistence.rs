//! Plan-store persistence: snapshots round-trip byte-for-byte, a
//! warm-started cache answers its first request as a hit with
//! bit-identical results, and mismatched or invalid stores are rejected
//! without recording anything.

use gmc::{FlopCount, GmcOptimizer, InferenceMode};
use gmc_expr::{Dim, DimBindings, Property, SymChain, SymFactor, SymOperand, UnaryOp};
use gmc_kernels::KernelRegistry;
use gmc_plan::{PlanCache, PlanError, PlanOutcome};
use std::sync::Arc;

fn plain(name: &str, r: Dim, c: Dim) -> SymFactor {
    SymFactor::plain(SymOperand::new(name, r, c))
}

fn sample_workload() -> Vec<(SymChain, Vec<DimBindings>)> {
    let (n, m, k) = (Dim::var("ps_n"), Dim::var("ps_m"), Dim::var("ps_k"));
    let dense = SymChain::new(vec![plain("A", n, m), plain("B", m, k), plain("C", k, n)]).unwrap();
    let dense_binds = vec![
        DimBindings::new()
            .with("ps_n", 10)
            .with("ps_m", 200)
            .with("ps_k", 30),
        DimBindings::new()
            .with("ps_n", 300)
            .with("ps_m", 20)
            .with("ps_k", 100),
        DimBindings::new()
            .with("ps_n", 5)
            .with("ps_m", 5)
            .with("ps_k", 5),
    ];
    let spd = SymOperand::square("S", n)
        .with_property(Property::SymmetricPositiveDefinite)
        .unwrap();
    let tri = SymOperand::square("L", m)
        .with_property(Property::LowerTriangular)
        .unwrap();
    let structured = SymChain::new(vec![
        SymFactor::new(spd, UnaryOp::Inverse),
        plain("B", n, m),
        SymFactor::new(tri, UnaryOp::Transpose),
    ])
    .unwrap();
    let structured_binds = vec![
        DimBindings::new().with("ps_n", 2000).with("ps_m", 200),
        DimBindings::new().with("ps_n", 100).with("ps_m", 800),
    ];
    vec![(dense, dense_binds), (structured, structured_binds)]
}

#[test]
fn snapshot_round_trips_and_warm_start_hits() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    for mode in [InferenceMode::Compositional, InferenceMode::Deep] {
        let work = sample_workload();
        let warm = PlanCache::new(registry.clone(), mode);
        for (chain, binds) in &work {
            for b in binds {
                warm.solve(chain, b).unwrap();
            }
        }
        let snapshot = warm.snapshot_json();

        // Loading into a fresh cache adopts every region…
        let cold = PlanCache::new(registry.clone(), mode);
        let adopted = cold.load_snapshot_json(&snapshot).unwrap();
        let recorded: u64 = {
            let s = warm.stats();
            s.structure_misses + s.region_misses
        };
        assert_eq!(adopted as u64, recorded);

        // …the loaded cache re-serializes to the identical bytes…
        assert_eq!(cold.snapshot_json(), snapshot, "snapshot must round-trip");

        // …and the warm-started cache answers its *first* request as a
        // hit, bit-identical to a from-scratch solve.
        let optimizer = GmcOptimizer::new(&registry, FlopCount).with_inference(mode);
        for (chain, binds) in &work {
            for b in binds {
                let (got, outcome) = cold.solve(chain, b).unwrap();
                assert_eq!(outcome, PlanOutcome::Hit, "warm start must hit");
                let want = optimizer.solve(&chain.bind(b).unwrap()).unwrap();
                assert_eq!(want.cost().to_bits(), got.cost().to_bits());
                assert_eq!(want.parenthesization(), got.parenthesization());
                assert_eq!(want.kernel_names(), got.kernel_names());
            }
        }
        // Scaled sizes in a stored region hit too.
        let (chain, binds) = &work[0];
        let scaled = DimBindings::new()
            .with("ps_n", 20)
            .with("ps_m", 400)
            .with("ps_k", 60);
        let (_, outcome) = cold.solve(chain, &scaled).unwrap();
        assert_eq!(outcome, PlanOutcome::Hit);
        assert!(binds.len() >= 2);
    }
}

#[test]
fn save_and_load_through_a_file() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let warm = PlanCache::new(registry.clone(), InferenceMode::Compositional);
    let (chain, binds) = &sample_workload()[0];
    for b in binds {
        warm.solve(chain, b).unwrap();
    }
    let path = std::env::temp_dir().join(format!("gmc_plan_store_{}.json", std::process::id()));
    warm.save(&path).unwrap();

    let cold = PlanCache::new(registry, InferenceMode::Compositional);
    let adopted = cold.load(&path).unwrap();
    assert!(adopted >= binds.len() - 1); // bindings may share regions
    let (_, outcome) = cold.solve(chain, &binds[0]).unwrap();
    assert_eq!(outcome, PlanOutcome::Hit);
    std::fs::remove_file(&path).ok();
}

#[test]
fn mismatched_snapshots_are_rejected() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let warm = PlanCache::new(registry.clone(), InferenceMode::Compositional);
    let (chain, binds) = &sample_workload()[0];
    warm.solve(chain, &binds[0]).unwrap();
    let snapshot = warm.snapshot_json();

    // Wrong inference mode.
    let deep = PlanCache::new(registry.clone(), InferenceMode::Deep);
    assert!(matches!(
        deep.load_snapshot_json(&snapshot),
        Err(PlanError::Store(_))
    ));

    // Wrong registry (different kernel list).
    let mcp = PlanCache::new(
        Arc::new(KernelRegistry::mcp_only()),
        InferenceMode::Compositional,
    );
    assert!(matches!(
        mcp.load_snapshot_json(&snapshot),
        Err(PlanError::Store(_))
    ));

    // Malformed input.
    let fresh = PlanCache::new(registry, InferenceMode::Compositional);
    assert!(matches!(
        fresh.load_snapshot_json("{ not json"),
        Err(PlanError::Store(_))
    ));
    assert!(matches!(
        fresh.load_snapshot_json("{\"format\": \"other/v9\"}"),
        Err(PlanError::Store(_))
    ));
    // A failed load adopts nothing.
    assert!(fresh.is_empty());
}

#[test]
fn reloading_a_snapshot_adopts_nothing_new() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let warm = PlanCache::new(registry.clone(), InferenceMode::Compositional);
    let (chain, binds) = &sample_workload()[0];
    for b in binds {
        warm.solve(chain, b).unwrap();
    }
    let snapshot = warm.snapshot_json();
    let cold = PlanCache::new(registry, InferenceMode::Compositional);
    let first = cold.load_snapshot_json(&snapshot).unwrap();
    assert!(first > 0);
    // Every region is already present now: nothing more to adopt.
    assert_eq!(cold.load_snapshot_json(&snapshot).unwrap(), 0);
}

/// `store` with its (only) structure's witness list replaced by
/// `witnesses`.
fn with_witnesses(store: &str, witnesses: &str) -> String {
    let at = store.find("\"witnesses\": ").expect("a witness list") + "\"witnesses\": ".len();
    let mut depth = 0;
    let len = store[at..]
        .char_indices()
        .find_map(|(i, c)| {
            match c {
                '[' => depth += 1,
                ']' => depth -= 1,
                _ => {}
            }
            (depth == 0).then_some(i + 1)
        })
        .expect("a closed witness list");
    format!("{}{witnesses}{}", &store[..at], &store[at + len..])
}

#[test]
fn invalid_witness_stores_are_rejected_at_load() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let warm = PlanCache::new(registry.clone(), InferenceMode::Compositional);
    let (chain, binds) = &sample_workload()[0];
    warm.solve(chain, &binds[0]).unwrap();
    let store = warm.snapshot_json();
    // ps_n = 10 < ps_k = 30 < ps_m = 200: the witness realizes that
    // order with the smallest sizes above 1, in first-occurrence order.
    let valid = with_witnesses(&store, "[[2, 4, 3]]");
    let loaded = PlanCache::new(registry.clone(), InferenceMode::Compositional);
    assert_eq!(loaded.load_snapshot_json(&valid).unwrap(), 1);
    assert_eq!(loaded.snapshot_json(), store);

    let v1 = store.replace("gmc-plan-store/v2", "gmc-plan-store/v1");
    let too_many = format!("[{}]", vec!["[2, 4, 3]"; 100_001].join(", "));
    let cases = [
        // Each bad witness follows a valid one: a failed load records
        // neither.
        (
            "zero witness value",
            with_witnesses(&store, "[[2, 4, 3], [0, 4, 3]]"),
        ),
        (
            "negative witness value",
            with_witnesses(&store, "[[2, 4, 3], [-2, 4, 3]]"),
        ),
        (
            "fractional witness value",
            with_witnesses(&store, "[[2, 4, 3], [2.5, 4, 3]]"),
        ),
        (
            "short witness",
            with_witnesses(&store, "[[2, 4, 3], [2, 4]]"),
        ),
        (
            "long witness",
            with_witnesses(&store, "[[2, 4, 3], [2, 4, 3, 5]]"),
        ),
        (
            "duplicate region",
            with_witnesses(&store, "[[2, 4, 3], [20, 400, 30]]"),
        ),
        ("region cap", with_witnesses(&store, &too_many)),
        // A key of the other mode, and a non-canonical variable
        // numbering, each differ from their recomputed key.
        (
            "other mode's key",
            store.replace("\"deep\": false", "\"deep\": true"),
        ),
        ("renumbered variable", store.replace("\"$1\"", "\"$5\"")),
        (
            "unknown unary code",
            store.replacen("\"u\": 0", "\"u\": 9", 1),
        ),
        ("v1 format", v1.clone()),
    ];
    for (case, corrupt) in cases {
        assert_ne!(corrupt, store, "{case}: the store must change");
        let fresh = PlanCache::new(registry.clone(), InferenceMode::Compositional);
        match fresh.load_snapshot_json(&corrupt) {
            Err(PlanError::Store(_)) => {}
            other => panic!("{case}: expected a store error, got {other:?}"),
        }
        assert!(fresh.is_empty(), "{case}: a failed load records nothing");
    }
    // A store in the old format is named as such.
    let fresh = PlanCache::new(registry, InferenceMode::Compositional);
    let msg = fresh.load_snapshot_json(&v1).unwrap_err().to_string();
    assert!(
        msg.contains("gmc-plan-store/v1") && msg.contains("gmc-plan-store/v2"),
        "{msg}"
    );
}

#[test]
fn missing_file_is_a_store_error() {
    let registry = Arc::new(KernelRegistry::blas_lapack());
    let cache = PlanCache::new(registry, InferenceMode::Compositional);
    assert!(matches!(
        cache.load("/nonexistent/gmc-plan-store.json"),
        Err(PlanError::Store(_))
    ));
}
