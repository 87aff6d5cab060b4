//! Plan persistence: a plan store holds *witnesses*, not plans.
//!
//! A region plan depends only on the structure key, the inference mode
//! and the size region, never on the binding that opened the region.
//! A store therefore keeps, per cached structure, its [`StructureKey`]
//! and one small **witness binding** per recorded region. Loading
//! rebuilds a canonical chain from each key (operand `M<class>` per
//! operand class, variable `v<i>` per canonical variable index) and
//! records every witness through the same recorder a cache miss uses,
//! so a loaded cache answers its first request for any stored region
//! as a **hit**, and loading costs about as much as recording.
//!
//! The store never holds a plan, so a tampered store can waste
//! recording time but cannot change an answer: whatever structure and
//! binding it names, the plan served for them is the one recorded for
//! them. Loading parses and validates the whole document before it
//! records anything, and rejects with [`PlanError::Store`]:
//!
//! * a key whose canonical chain is not a valid chain, or whose
//!   recomputed key differs from the stored one (non-canonical
//!   numbering, property bits that are not implication-closed, a key
//!   of the other inference mode);
//! * a witness value that is not a positive integer, or a witness
//!   whose length is not the key's variable count;
//! * two witnesses of one structure in the same region;
//! * more than [`MAX_STORE_REGIONS`] regions in all.
//!
//! A witness is the canonical realization of its region's signature:
//! walking the weak order of the boundary dimensions upwards, a class
//! equal to 1 or holding a constant takes that value and any other
//! class takes the previous value plus one. Witness values therefore
//! stay small and round-trip exactly through JSON numbers, and the
//! stored bytes depend only on the inference mode, the kernel registry
//! and the set of (structure, region) pairs — structures and regions
//! are sorted, so saving a loaded cache reproduces the stored bytes.
//!
//! A store also names the inference mode and the registry's kernel list
//! it was saved under, and loads only into a cache with both.

use crate::cache::{PlanCache, PlanError};
use crate::key::{region_signature, FactorSig, KeyDim, StructureKey};
use gmc::InferenceMode;
use gmc_expr::{Dim, DimBindings, Property, SymChain, SymFactor, SymOperand, UnaryOp};
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::HashSet;
use std::path::Path;

const FORMAT: &str = "gmc-plan-store/v2";

/// The most regions one store may hold. Loading records every region,
/// so the cap bounds the recording time a store can ask for.
const MAX_STORE_REGIONS: usize = 100_000;

/// The unary operators by their code in a [`FactorSig`].
const UNARY_OPS: [UnaryOp; 4] = [
    UnaryOp::None,
    UnaryOp::Transpose,
    UnaryOp::Inverse,
    UnaryOp::InverseTranspose,
];

fn key_dim_value(d: KeyDim) -> Value {
    match d {
        KeyDim::Const(v) => Value::Number(v as f64),
        KeyDim::Var(i) => Value::String(format!("${i}")),
    }
}

fn key_dim_from(v: &Value) -> Result<KeyDim, DeError> {
    match v {
        Value::Number(_) => Ok(KeyDim::Const(usize::from_value(v)?)),
        Value::String(s) => s
            .strip_prefix('$')
            .and_then(|i| i.parse::<u16>().ok())
            .map(KeyDim::Var)
            .ok_or_else(|| DeError(format!("bad key dimension `{s}`"))),
        other => Err(DeError(format!("expected key dimension, got {other:?}"))),
    }
}

impl Serialize for StructureKey {
    fn to_value(&self) -> Value {
        let factors: Vec<Value> = self
            .factors
            .iter()
            .map(|f| {
                Value::Object(vec![
                    ("u".to_owned(), Value::Number(f.unary as f64)),
                    ("r".to_owned(), key_dim_value(f.rows)),
                    ("c".to_owned(), key_dim_value(f.cols)),
                    ("p".to_owned(), Value::Number(f.props as f64)),
                    ("o".to_owned(), Value::Number(f.operand_class as f64)),
                ])
            })
            .collect();
        Value::Object(vec![
            ("deep".to_owned(), Value::Bool(self.deep_inference)),
            ("factors".to_owned(), Value::Array(factors)),
        ])
    }
}

impl Deserialize for StructureKey {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let factors = match v.get_field("factors")? {
            Value::Array(items) => items
                .iter()
                .map(|f| {
                    Ok(FactorSig {
                        unary: u8::from_value(f.get_field("u")?)?,
                        rows: key_dim_from(f.get_field("r")?)?,
                        cols: key_dim_from(f.get_field("c")?)?,
                        props: u16::from_value(f.get_field("p")?)?,
                        operand_class: u16::from_value(f.get_field("o")?)?,
                    })
                })
                .collect::<Result<Vec<_>, DeError>>()?,
            other => return Err(DeError(format!("expected factor array, got {other:?}"))),
        };
        Ok(StructureKey {
            deep_inference: bool::from_value(v.get_field("deep")?)?,
            factors,
        })
    }
}

/// The canonical chain of `key`: operand `M<class>` per operand class
/// and variable `v<i>` per canonical variable index `i`. Its structure
/// key is `key` whenever `key` came from a chain.
fn chain_of(key: &StructureKey) -> Result<SymChain, String> {
    let dim = |d: KeyDim| match d {
        KeyDim::Const(c) => Dim::Const(c),
        KeyDim::Var(i) => Dim::var(&format!("v{i}")),
    };
    let factors = key
        .factors
        .iter()
        .map(|f| {
            let unary = *UNARY_OPS
                .get(usize::from(f.unary))
                .ok_or_else(|| format!("unknown unary operator code {}", f.unary))?;
            let props = Property::all().filter(|&p| f.props & (1 << p as u16) != 0);
            let operand =
                SymOperand::new(format!("M{}", f.operand_class), dim(f.rows), dim(f.cols))
                    .with_properties(props)
                    .map_err(|e| e.to_string())?;
            Ok(SymFactor::new(operand, unary))
        })
        .collect::<Result<Vec<_>, String>>()?;
    SymChain::new(factors).map_err(|e| e.to_string())
}

/// The canonical witness of region `sig` of `chain`: one value per
/// variable of `chain`, in first-occurrence order (see the module docs).
fn witness(chain: &SymChain, sig: &[i8]) -> Vec<usize> {
    let dims = chain.dims();
    let n = dims.len();
    // `cmp[p * n + q]` orders dimension p against q; the pairwise part
    // of a signature follows its `n` comparisons against 1.
    let mut cmp = vec![0i8; n * n];
    let mut at = n;
    for p in 0..n {
        for q in p + 1..n {
            cmp[p * n + q] = sig[at];
            cmp[q * n + p] = -sig[at];
            at += 1;
        }
    }
    // A dimension's rank is the number of dimensions below it, so equal
    // dimensions share a rank.
    let rank: Vec<usize> = (0..n)
        .map(|p| (0..n).filter(|&q| cmp[q * n + p] < 0).count())
        .collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&p| rank[p]);
    let mut value = vec![0; n];
    let mut prev = 1;
    for class in order.chunk_by(|&a, &b| rank[a] == rank[b]) {
        let v = if class.iter().any(|&p| sig[p] == 0) {
            1
        } else if let Some(c) = class.iter().find_map(|&p| dims[p].as_const()) {
            c
        } else {
            prev + 1
        };
        for &p in class {
            value[p] = v;
        }
        prev = v;
    }
    debug_assert_eq!(region_signature(&value), sig, "witness outside its region");
    chain
        .vars()
        .into_iter()
        .map(|var| {
            let at = dims.iter().position(|&d| d == Dim::Var(var));
            value[at.expect("a chain's variables are boundary dimensions")]
        })
        .collect()
}

fn inference_name(mode: InferenceMode) -> &'static str {
    match mode {
        InferenceMode::Compositional => "compositional",
        InferenceMode::Deep => "deep",
    }
}

/// Field `name` of the object `v`, deserialized.
fn field<T: Deserialize>(v: &Value, name: &str) -> Result<T, PlanError> {
    v.get_field(name)
        .and_then(T::from_value)
        .map_err(|e| PlanError::Store(format!("`{name}`: {e}")))
}

impl PlanCache {
    /// Serializes the cache to a deterministic JSON plan store: per
    /// structure (sorted by key) its key and one witness binding per
    /// recorded region (sorted by signature). See the module docs.
    pub fn snapshot_json(&self) -> String {
        let mut entries = self.structures();
        entries.sort_by_cached_key(|(key, _)| serde_json::to_string(key).expect("key serializes"));
        let structures: Vec<Value> = entries
            .into_iter()
            .map(|(key, plan)| {
                let chain = chain_of(&key).expect("a cached key describes a chain");
                let witnesses = plan
                    .sorted_regions()
                    .iter()
                    .map(|(sig, _)| witness(&chain, sig).to_value())
                    .collect();
                Value::Object(vec![
                    ("key".to_owned(), key.to_value()),
                    ("witnesses".to_owned(), Value::Array(witnesses)),
                ])
            })
            .collect();
        let kernels: Vec<Value> = self
            .registry()
            .kernels()
            .iter()
            .map(|k| Value::String(k.name().to_owned()))
            .collect();
        let doc = Value::Object(vec![
            ("format".to_owned(), Value::String(FORMAT.to_owned())),
            (
                "inference".to_owned(),
                Value::String(inference_name(self.inference()).to_owned()),
            ),
            ("kernels".to_owned(), Value::Array(kernels)),
            ("structures".to_owned(), Value::Array(structures)),
        ]);
        serde_json::to_string_pretty(&doc).expect("plan stores contain only integers")
    }

    /// Loads a plan store produced by [`snapshot_json`](Self::snapshot_json)
    /// into this cache by recording every stored region at its witness.
    /// Returns the number of regions recorded; regions already cached
    /// are skipped. Like pre-enumeration, loading bumps no request
    /// counter.
    ///
    /// # Errors
    ///
    /// [`PlanError::Store`] if the store is malformed, fails validation
    /// (see the module docs), or was saved under a different inference
    /// mode or kernel registry. A failed load records nothing.
    pub fn load_snapshot_json(&self, json: &str) -> Result<usize, PlanError> {
        let doc: Value = serde_json::from_str(json).map_err(|e| PlanError::Store(e.to_string()))?;
        let format: String = field(&doc, "format")?;
        if format != FORMAT {
            return Err(PlanError::Store(format!(
                "unsupported format `{format}`; this build reads `{FORMAT}`"
            )));
        }
        let mode: String = field(&doc, "inference")?;
        if mode != inference_name(self.inference()) {
            return Err(PlanError::Store(format!(
                "store was saved under {mode} inference, cache uses {}",
                inference_name(self.inference())
            )));
        }
        let kernels: Vec<String> = field(&doc, "kernels")?;
        let registry = self.registry().kernels();
        if !kernels
            .iter()
            .map(String::as_str)
            .eq(registry.iter().map(|k| k.name()))
        {
            return Err(PlanError::Store(
                "store kernel registry differs from this cache's registry".to_owned(),
            ));
        }
        let structures = field::<Vec<Value>>(&doc, "structures")?
            .iter()
            .map(|s| Ok((field::<StructureKey>(s, "key")?, field(s, "witnesses")?)))
            .collect::<Result<Vec<(StructureKey, Vec<Vec<usize>>)>, PlanError>>()?;
        let total: usize = structures.iter().map(|(_, w)| w.len()).sum();
        if total > MAX_STORE_REGIONS {
            return Err(PlanError::Store(format!(
                "{total} regions exceed the limit of {MAX_STORE_REGIONS}"
            )));
        }

        // Validate everything before recording anything.
        let mut pending = Vec::with_capacity(structures.len());
        for (key, witnesses) in structures {
            let chain = chain_of(&key).map_err(PlanError::Store)?;
            let prepared = self.prepare(&chain);
            if prepared.key != key {
                return Err(PlanError::Store(format!(
                    "key of `{chain}` is not its canonical {} key",
                    inference_name(self.inference())
                )));
            }
            let mut seen = HashSet::new();
            let mut regions = Vec::with_capacity(witnesses.len());
            for w in witnesses {
                if w.len() != prepared.vars().len() {
                    return Err(PlanError::Store(format!(
                        "witness {w:?} for `{chain}` needs {} values",
                        prepared.vars().len()
                    )));
                }
                let mut bindings = DimBindings::new();
                for (&var, &v) in prepared.vars().iter().zip(&w) {
                    bindings.set_var(var, v);
                }
                let concrete = chain
                    .bind(&bindings)
                    .map_err(|e| PlanError::Store(format!("witness {w:?} for `{chain}`: {e}")))?;
                let sig = region_signature(&concrete.sizes());
                if !seen.insert(sig.clone()) {
                    return Err(PlanError::Store(format!(
                        "witness {w:?} for `{chain}` repeats a stored region"
                    )));
                }
                regions.push((sig, bindings));
            }
            pending.push((prepared, chain, regions));
        }

        let mut recorded = 0;
        for (prepared, chain, regions) in pending {
            for (sig, bindings) in regions {
                if self.record_unless_present(&prepared, &chain, &bindings, sig)? {
                    recorded += 1;
                }
            }
        }
        Ok(recorded)
    }

    /// Saves the plan store to `path` (see [`snapshot_json`](Self::snapshot_json)).
    /// The write goes to a sibling temporary file first and is renamed
    /// into place, so a crash mid-save never leaves a truncated store.
    ///
    /// # Errors
    ///
    /// [`PlanError::Store`] on I/O failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), PlanError> {
        let path = path.as_ref();
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        let tmp = std::path::PathBuf::from(tmp);
        std::fs::write(&tmp, self.snapshot_json() + "\n")
            .map_err(|e| PlanError::Store(format!("cannot write {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, path).map_err(|e| {
            PlanError::Store(format!("cannot move snapshot to {}: {e}", path.display()))
        })
    }

    /// Loads the plan store at `path`; returns the number of regions
    /// recorded.
    ///
    /// # Errors
    ///
    /// [`PlanError::Store`] on I/O failure or an invalid store (see
    /// [`load_snapshot_json`](Self::load_snapshot_json)).
    pub fn load(&self, path: impl AsRef<Path>) -> Result<usize, PlanError> {
        let path = path.as_ref();
        let json = std::fs::read_to_string(path)
            .map_err(|e| PlanError::Store(format!("cannot read {}: {e}", path.display())))?;
        self.load_snapshot_json(&json)
    }
}
