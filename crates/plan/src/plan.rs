//! Region plans: the symbolic solve (recording) and the bind-time
//! instantiation that replays it at concrete sizes.
//!
//! # How equivalence with the concrete optimizer is guaranteed
//!
//! Within one size region (see [`crate::key`]) the concrete optimizer's
//! *structural* behaviour is invariant: which kernels match each
//! sub-product, which property sets the temporaries carry, which splits
//! are computable. Only the numeric cost values change with the
//! binding. The recorder therefore runs the concrete DP once per
//! region, capturing per cell the full candidate set `(split, kernel,
//! FLOP formula)`; instantiation re-ranks those candidates with the
//! exact per-kernel FLOP formulas (evaluated by the same
//! [`FlopFormula::eval_with`] behind [`gmc_kernels::KernelOp::flops`])
//! under the *same* two-stage selection the optimizer uses (per split:
//! streaming min by cost, then specificity, then registration order;
//! across splits: strict improvement, earliest split wins ties). The
//! result is bit-identical to a from-scratch concrete solve.
//!
//! On top of that, cells are classified:
//!
//! * **Resolved** — one candidate's cost *polynomial* is strictly below
//!   every alternative's on the positive orthant, so the decision is
//!   binding-independent and instantiation skips the candidate scan
//!   entirely. A polynomial *tie* never resolves a cell (unless the two
//!   formulas are identical): equal polynomials evaluated through
//!   different `f64` operations can round apart, and the concrete DP
//!   compares the rounded values.
//! * **Deferred** — polynomially ambiguous; candidates are re-ranked
//!   numerically at bind time.
//! * **Dynamic** — a descendant's property set is split-dependent
//!   (possible under compositional inference), so the cached candidate
//!   set cannot be trusted; the cell is re-matched live at bind time.
//!
//! # Lowered formulas
//!
//! A recorded candidate's formula is *lowered*: each dimension is either a
//! slot in the region's first-occurrence variable list
//! ([`RegionPlan::vars`](RegionPlan)) or a constant ([`SlotDim`]). At
//! bind time the cache passes the request's variable values in that
//! order as one `&[usize]`, and every candidate evaluates by indexing
//! it — no map lookups. A request chain that spells the same structure
//! with other variable names lines up by position, so its values need
//! no translation.
//!
//! # Rank, then materialize
//!
//! [`instantiate`] runs two passes over a [`PlanWorkspace`]:
//!
//! 1. **Ranking** walks the DP bottom-up and keeps, per cell, only the
//!    total cost, the split, the operation cost and the index of the
//!    winning candidate. Resolved cells evaluate their one candidate;
//!    deferred cells rank theirs with [`select_two_stage`].
//! 2. **Materialization** walks the winning tree from the root in
//!    post-order and builds kernel operations, temporaries and kernel
//!    names for its `n − 1` cells only — not for all `n(n+1)/2`.
//!
//! A dynamic cell matches kernels on its children's expressions, so
//! during ranking it first materializes the winning subtree of each
//! child it inspects, through the same walk (which skips cells already
//! built).

use crate::dominance::{op_terms, strictly_below, total_into, DominanceScratch, Mono, Terms};
use gmc::{GmcError, GmcSolution, InferenceMode, Step};
use gmc_analysis::{infer_properties, ProductMemo};
use gmc_expr::{Chain, Dim, DimVar, Expr, Operand, PropertySet, Shape, SymChain};
use gmc_kernels::{FlatTermScratch, FlopFormula, KernelOp, KernelRegistry};
use gmc_pattern::{Bindings, Var};
use std::cmp::Ordering;
use std::fmt;
use std::fmt::Write as _;
use std::ops::Range;

/// The pattern variables of a binary-product kernel (`X · Y`), in the
/// order of a [`Candidate`]'s `binds`.
pub(crate) const PATTERN_VARS: [Var; 2] = [Var::new(0), Var::new(1)];

/// Where a kernel operand comes from when re-instantiating a cached
/// candidate: a chain factor or a DP-cell temporary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum OperandRef {
    Factor(usize),
    Temp(usize, usize),
}

/// A dimension of a lowered formula: a slot in the region's
/// first-occurrence variable list, or a constant size.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum SlotDim {
    Slot(usize),
    Const(usize),
}

/// Lowers a symbolic formula onto slots of `vars`.
///
/// # Errors
///
/// The first variable the formula references that `vars` lacks.
#[cfg(test)]
pub(crate) fn lower(
    formula: &FlopFormula,
    vars: &[DimVar],
) -> Result<FlopFormula<SlotDim>, DimVar> {
    formula.try_map_dims(|dim| match dim {
        Dim::Const(c) => Ok(SlotDim::Const(c)),
        Dim::Var(v) => vars
            .iter()
            .position(|&x| x == v)
            .map(SlotDim::Slot)
            .ok_or(v),
    })
}

/// The symbolic formula a lowered one was lowered from (`vars` must be
/// the list it was lowered against).
#[cfg(test)]
pub(crate) fn lift(formula: &FlopFormula<SlotDim>, vars: &[DimVar]) -> FlopFormula {
    let lifted = formula.try_map_dims(|dim| {
        Ok::<_, std::convert::Infallible>(match dim {
            SlotDim::Slot(slot) => Dim::Var(vars[slot]),
            SlotDim::Const(c) => Dim::Const(c),
        })
    });
    match lifted {
        Ok(f) => f,
        Err(never) => match never {},
    }
}

/// One cached kernel candidate of a DP cell.
#[derive(Clone, Debug)]
pub(crate) struct Candidate {
    pub(crate) k: usize,
    pub(crate) kernel_idx: usize,
    pub(crate) specificity: u8,
    pub(crate) formula: FlopFormula<SlotDim>,
    /// The operand bound to each of [`PATTERN_VARS`], if the kernel's
    /// pattern uses it.
    pub(crate) binds: [Option<OperandRef>; 2],
}

impl Candidate {
    /// The candidate's operation cost at the variable values `values`
    /// (slot order), bit-identical to the instantiated operation's
    /// [`KernelOp::flops`].
    #[inline]
    fn cost(&self, values: &[usize]) -> f64 {
        self.formula.eval_by(|dim| match dim {
            SlotDim::Slot(slot) => values[slot],
            SlotDim::Const(c) => c,
        })
    }
}

/// How a deferred cell's temporary gets its property set at bind time.
///
/// Within one size region the child expressions of every candidate
/// split are invariant (a deferred cell has no unstable descendant —
/// those would have made it [`CellPlan::Dynamic`]), so the inference
/// result per split is region-invariant and recorded once; the old
/// implementation re-ran winner-only property inference on every cache
/// hit instead.
#[derive(Clone, Debug)]
pub(crate) enum DeferredProps {
    /// Every candidate split infers the same property set.
    Stable(PropertySet),
    /// Property set by candidate split `k` (compositional inference
    /// with split-dependent winner properties).
    PerSplit(Vec<(usize, PropertySet)>),
}

impl DeferredProps {
    fn for_split(&self, k: usize) -> PropertySet {
        match self {
            DeferredProps::Stable(p) => *p,
            DeferredProps::PerSplit(by_split) => {
                by_split
                    .iter()
                    .find(|(split, _)| *split == k)
                    .expect("winner split is a recorded candidate split")
                    .1
            }
        }
    }
}

/// The cached decision state of one DP cell.
#[derive(Clone, Debug)]
pub(crate) enum CellPlan {
    /// Diagonal cell (a chain factor).
    Leaf,
    /// No split of this sub-chain is kernel-computable (invariant
    /// within the region).
    Unsolvable,
    /// The winning split and kernel are binding-independent. The
    /// candidate is held inline rather than boxed: one small allocation
    /// per resolved cell left a dropped cache's memory in thousands of
    /// unmerged chunks, which the next thread to allocate from the same
    /// arena had to sort through first.
    Resolved { cand: Candidate, props: PropertySet },
    /// Candidates are re-ranked numerically at bind time; the
    /// temporary's properties come from the recorded per-split results.
    Deferred {
        cands: Vec<Candidate>,
        props: DeferredProps,
    },
    /// Re-matched live at bind time (split-dependent descendant
    /// properties under compositional inference).
    Dynamic,
}

/// A recorded plan for one size region of one chain structure.
#[derive(Debug)]
pub struct RegionPlan {
    pub(crate) n: usize,
    pub(crate) cells: Vec<CellPlan>,
    /// The *recording* chain's distinct dimension variables in
    /// first-occurrence order: the slots of every lowered formula.
    /// Structure keys canonicalize variable names, so a request chain
    /// may use different names for the same structure; its variables
    /// line up with these by position.
    pub(crate) vars: Vec<DimVar>,
}

/// The temporary holding the result of cell `(i, j)`, named as the
/// concrete optimizer names it.
fn temporary(i: usize, j: usize, shape: Shape, props: PropertySet) -> Operand {
    Operand::temporary(format!("T{i}_{j}"), shape, props)
}

/// Cell classification counts of a [`RegionPlan`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanSummary {
    /// Interior cells whose decision is fully symbolic.
    pub resolved: usize,
    /// Interior cells decided numerically at bind time.
    pub deferred: usize,
    /// Interior cells re-matched live at bind time.
    pub dynamic: usize,
    /// Interior cells with no computable split.
    pub unsolvable: usize,
}

impl fmt::Display for PlanSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} resolved, {} deferred, {} dynamic, {} unsolvable",
            self.resolved, self.deferred, self.dynamic, self.unsolvable
        )
    }
}

impl RegionPlan {
    /// Classification counts over the interior (non-diagonal) cells.
    pub fn summary(&self) -> PlanSummary {
        let mut s = PlanSummary::default();
        for c in &self.cells {
            match c {
                CellPlan::Leaf => {}
                CellPlan::Unsolvable => s.unsolvable += 1,
                CellPlan::Resolved { .. } => s.resolved += 1,
                CellPlan::Deferred { .. } => s.deferred += 1,
                CellPlan::Dynamic => s.dynamic += 1,
            }
        }
        s
    }

    /// Whether every interior cell is symbolically resolved (the whole
    /// parenthesization and kernel sequence are binding-independent
    /// within this region).
    pub fn is_fully_resolved(&self) -> bool {
        let s = self.summary();
        s.deferred == 0 && s.dynamic == 0 && s.unsolvable == 0
    }
}

#[inline]
pub(crate) fn cell_index(n: usize, i: usize, j: usize) -> usize {
    debug_assert!(i <= j && j < n);
    i * (2 * n - i + 1) / 2 + (j - i)
}

/// Reusable state for the instantiate hot path, held per thread by the
/// cache so a cache hit allocates no fresh DP tables or candidate-scan
/// buffers.
///
/// The ranking pass fills only the per-cell cost, split, operation cost
/// and winning-candidate index of `solved`; the materialization pass
/// then fills the temporaries, operations and kernel names of the
/// winning tree's cells (and of the subtrees a dynamic cell inspects),
/// and the solution takes them out.
#[derive(Debug, Default)]
pub(crate) struct PlanWorkspace {
    solved: Solved,
    entries: Vec<Ranked>,
    /// Compositional property inference, once per kind of product;
    /// cleared by every recording and instantiation.
    props: ProductMemo,
    record: RecordScratch,
}

/// Shared DP result state for the recorder and the instantiation walk.
/// A cell is *materialized* once its `expr` is set; its winning subtree
/// is then materialized too.
#[derive(Debug, Default)]
struct Solved {
    n: usize,
    cost: Vec<Option<f64>>,
    split: Vec<usize>,
    op_cost: Vec<f64>,
    /// Winning candidate index of a ranked deferred cell.
    winner: Vec<usize>,
    expr: Vec<Option<Expr>>,
    op: Vec<Option<KernelOp>>,
    kernel: Vec<String>,
}

impl Solved {
    /// Clears the state for a chain of length `n`, reusing the existing
    /// allocations where large enough — the instantiate hot path holds
    /// one `Solved` per thread and resets it per request, mirroring
    /// `gmc::GmcWorkspace` on the concrete hot path.
    fn reset(&mut self, n: usize) {
        let len = n * (n + 1) / 2;
        self.n = n;
        self.cost.clear();
        self.cost.resize(len, None);
        self.split.clear();
        self.split.resize(len, 0);
        self.op_cost.clear();
        self.op_cost.resize(len, 0.0);
        self.winner.clear();
        self.winner.resize(len, 0);
        self.expr.clear();
        self.expr.resize(len, None);
        self.op.clear();
        self.op.resize(len, None);
        self.kernel.clear();
        self.kernel.resize(len, String::new());
    }

    #[inline]
    fn idx(&self, i: usize, j: usize) -> usize {
        cell_index(self.n, i, j)
    }

    /// Seeds the diagonal: zero cost and the factor's expression.
    fn seed_leaves(&mut self, chain: &Chain) {
        for i in 0..self.n {
            let idx = self.idx(i, i);
            self.expr[idx] = Some(chain.factor(i).expr());
            self.cost[idx] = Some(0.0);
        }
    }

    /// `cost(i, k) + cost(k+1, j)`: the children's accumulated cost of
    /// split `k`, added in the optimizer's order.
    #[inline]
    fn base(&self, i: usize, k: usize, j: usize) -> f64 {
        let cl = self.cost[self.idx(i, k)].expect("computable split");
        let cr = self.cost[self.idx(k + 1, j)].expect("computable split");
        cl + cr
    }

    fn operand_for(&self, r: OperandRef, chain: &Chain) -> Operand {
        match r {
            OperandRef::Factor(t) => chain.factor(t).operand().clone(),
            OperandRef::Temp(i, j) => match &self.expr[self.idx(i, j)] {
                Some(Expr::Symbol(op)) => op.clone(),
                other => unreachable!("temporary cell must hold a symbol, got {other:?}"),
            },
        }
    }

    /// Materializes cell `(i, j)` and its winning subtree (post-order),
    /// skipping cells already materialized. The cell must be ranked.
    fn materialize(
        &mut self,
        registry: &KernelRegistry,
        region: &RegionPlan,
        chain: &Chain,
        i: usize,
        j: usize,
    ) {
        let idx = self.idx(i, j);
        if self.expr[idx].is_some() {
            return;
        }
        if i == j {
            self.expr[idx] = Some(chain.factor(i).expr());
            return;
        }
        let k = self.split[idx];
        self.materialize(registry, region, chain, i, k);
        self.materialize(registry, region, chain, k + 1, j);
        let (cand, props) = match &region.cells[idx] {
            CellPlan::Resolved { cand, props } => (cand, *props),
            CellPlan::Deferred { cands, props } => {
                let cand = &cands[self.winner[idx]];
                (cand, props.for_split(cand.k))
            }
            other => unreachable!("cell ({i},{j}) is {other:?}, not a ranked cell"),
        };
        let mut b = Bindings::new();
        for (v, r) in PATTERN_VARS.into_iter().zip(cand.binds) {
            if let Some(r) = r {
                b.bind(v, &self.operand_for(r, chain));
            }
        }
        let kernel = &registry.kernels()[cand.kernel_idx];
        let op = kernel.instantiate(&b);
        let temp = temporary(i, j, op.result_shape(), props);
        self.expr[idx] = Some(temp.expr());
        self.op[idx] = Some(op);
        self.kernel[idx] = kernel.name().to_owned();
    }
}

/// A candidate row for the shared two-stage winner selection.
#[derive(Debug)]
struct Ranked {
    k: usize,
    kernel_idx: usize,
    spec: u8,
    cost: f64,
}

/// The exact selection the concrete optimizer performs, over a
/// pre-enumerated candidate list (entries grouped by ascending `k`, in
/// discrimination-net streaming order within a group): per split the
/// streaming min by `(cost, specificity desc, registration asc)`, then
/// across splits strict improvement with the earliest split winning
/// ties. Returns the winning entry index and the accumulated total.
fn select_two_stage(
    entries: &[Ranked],
    mut base: impl FnMut(usize) -> f64,
) -> Option<(usize, f64)> {
    let mut best: Option<(f64, usize)> = None;
    let mut idx = 0;
    while idx < entries.len() {
        let k = entries[idx].k;
        let mut end = idx;
        while end < entries.len() && entries[end].k == k {
            end += 1;
        }
        let mut group: Option<usize> = None;
        for e in idx..end {
            let replace = match group {
                None => true,
                Some(gi) => {
                    let inc = &entries[gi];
                    let c = &entries[e];
                    let ord = inc
                        .cost
                        .partial_cmp(&c.cost)
                        .unwrap_or(Ordering::Equal)
                        .then_with(|| c.spec.cmp(&inc.spec));
                    ord == Ordering::Greater
                        || (ord == Ordering::Equal && c.kernel_idx < inc.kernel_idx)
                }
            };
            if replace {
                group = Some(e);
            }
        }
        let gi = group.expect("non-empty split group");
        let total = base(k) + entries[gi].cost;
        let better = match &best {
            None => true,
            Some((t, _)) => total < *t,
        };
        if better {
            best = Some((total, gi));
        }
        idx = end;
    }
    best.map(|(t, i)| (i, t))
}

/// The property set of cell `(i, j)`'s temporary when built from the
/// child expressions `le · re`.
fn infer_cell_props(
    inference: InferenceMode,
    memo: &mut ProductMemo,
    chain: &Chain,
    le: &Expr,
    re: &Expr,
    i: usize,
    j: usize,
) -> PropertySet {
    match inference {
        InferenceMode::Compositional => memo.infer(le, re),
        InferenceMode::Deep => {
            let unfolded = Expr::times((i..=j).map(|t| chain.factor(t).expr()).collect::<Vec<_>>());
            infer_properties(&unfolded)
        }
    }
}

/// Builds the solution from a materialized winning tree, moving each
/// cell's operation and kernel name out of `s`.
fn extract_solution(chain: &Chain, s: &mut Solved) -> Result<GmcSolution<f64>, GmcError> {
    let n = s.n;
    let Some(total_cost) = s.cost[s.idx(0, n - 1)] else {
        return Err(GmcError::not_computable(chain.to_string()));
    };
    let mut steps = Vec::with_capacity(n - 1);
    take_steps(s, 0, n - 1, &mut steps);
    // Plans cost by FLOPs, so each step's cost is bit-identical to its
    // operation's `flops()`, summed in the optimizer's step order.
    let total_flops = steps.iter().map(|st: &Step<f64>| st.cost).sum();
    let mut paren = String::new();
    write_parenthesization(chain, s, 0, n - 1, &mut paren);
    Ok(GmcSolution::from_parts(
        steps,
        total_cost,
        total_flops,
        paren,
    ))
}

fn take_steps(s: &mut Solved, i: usize, j: usize, out: &mut Vec<Step<f64>>) {
    if i == j {
        return;
    }
    let idx = s.idx(i, j);
    let k = s.split[idx];
    take_steps(s, i, k, out);
    take_steps(s, k + 1, j, out);
    let dest = match s.expr[idx].as_ref().expect("solved cell has a temporary") {
        Expr::Symbol(op) => op.clone(),
        other => unreachable!("temporary must be a symbol, got {other}"),
    };
    out.push(Step {
        dest,
        op: s.op[idx].take().expect("solved cell has an operation"),
        kernel: std::mem::take(&mut s.kernel[idx]),
        cost: s.op_cost[idx],
    });
}

fn write_parenthesization(chain: &Chain, s: &Solved, i: usize, j: usize, out: &mut String) {
    if i == j {
        write!(out, "{}", chain.factor(i)).expect("writing to a String cannot fail");
        return;
    }
    let k = s.split[s.idx(i, j)];
    out.push('(');
    write_parenthesization(chain, s, i, k, out);
    out.push(' ');
    write_parenthesization(chain, s, k + 1, j, out);
    out.push(')');
}

/// A candidate found while recording: the plan's [`Candidate`], its
/// operation (taken for the cell's winner), its cost at the recording
/// binding, and its operation-cost polynomial as a range of
/// [`RecordScratch::op_terms`].
#[derive(Debug)]
struct Found {
    cand: Candidate,
    op: Option<KernelOp>,
    cost: f64,
    poly: Range<usize>,
}

/// Reusable recorder state, held per thread next to the instantiate
/// workspace and reset at the start of every recording, so a record
/// allocates little beyond the plan it returns.
#[derive(Debug, Default)]
pub(crate) struct RecordScratch {
    /// Each chain position's dimension as a slot or a constant.
    dim_slots: Vec<SlotDim>,
    /// Per factor, the first factor with its operand's name (a chain
    /// may repeat an operand, as in `Aᵀ A`) and that operand's shape.
    first: Vec<usize>,
    factor_shapes: Vec<(SlotDim, SlotDim)>,
    /// Each slot variable's position in `DimVar` order.
    rank: Vec<u16>,
    /// Per cell: whether its property set depends on the split that
    /// built it, the winner's kernel, and — for resolved cells and the
    /// diagonal — its total cost polynomial in `totals`.
    unstable: Vec<bool>,
    kernel_idx: Vec<usize>,
    total_at: Vec<Option<Range<usize>>>,
    totals: Vec<(Mono, f64)>,
    /// The current cell's operation-cost polynomials.
    op_terms: Vec<(Mono, f64)>,
}

impl RecordScratch {
    fn reset(&mut self, sym: &SymChain, vars: &[DimVar], len: usize) {
        let slot = |d: Dim| match d {
            Dim::Const(c) => SlotDim::Const(c),
            Dim::Var(v) => SlotDim::Slot(
                vars.iter()
                    .position(|&x| x == v)
                    .expect("chain dimensions only reference chain variables"),
            ),
        };
        self.dim_slots.clear();
        self.dim_slots.extend(sym.dims().into_iter().map(slot));
        let factors = sym.factors();
        self.first.clear();
        self.first.extend((0..factors.len()).map(|t| {
            let name = factors[t].operand().name();
            (0..=t)
                .find(|&u| factors[u].operand().name() == name)
                .expect("t itself matches")
        }));
        self.factor_shapes.clear();
        self.factor_shapes.extend(factors.iter().map(|f| {
            let s = f.operand().shape();
            (slot(s.rows()), slot(s.cols()))
        }));
        // Monomial keys pack a rank into 14 bits (see `dominance`).
        assert!(vars.len() < 1 << 14, "too many dimension variables");
        self.rank.clear();
        self.rank.extend(
            vars.iter()
                .map(|v| vars.iter().filter(|&w| w < v).count() as u16),
        );
        self.unstable.clear();
        self.unstable.resize(len, false);
        self.kernel_idx.clear();
        self.kernel_idx.resize(len, 0);
        self.total_at.clear();
        self.total_at.resize(len, None);
        self.totals.clear();
    }

    /// Cell `(a, b)` of the current recording as a kernel operand: its
    /// provenance and its shape in slots.
    fn side(&self, a: usize, b: usize) -> (OperandRef, (SlotDim, SlotDim)) {
        if a == b {
            let t = self.first[a];
            (OperandRef::Factor(t), self.factor_shapes[t])
        } else {
            (
                OperandRef::Temp(a, b),
                (self.dim_slots[a], self.dim_slots[b + 1]),
            )
        }
    }

    /// The total cost polynomial of cell `(a, b)`, if it has one.
    fn total(&self, n: usize, a: usize, b: usize) -> Option<&Terms> {
        self.total_at[cell_index(n, a, b)]
            .clone()
            .map(|r| &self.totals[r])
    }
}

/// The operand under a chain factor's or a temporary's expression.
fn operand_of(e: &Expr) -> &Operand {
    match e {
        Expr::Symbol(op) => op,
        Expr::Transpose(inner) | Expr::Inverse(inner) | Expr::InverseTranspose(inner) => {
            operand_of(inner)
        }
        other => unreachable!("a DP cell holds a factor or a temporary, got {other}"),
    }
}

/// Whether the within-split scan picks `a` over `b` at every binding of
/// the region: either both formulas are identical (so they evaluate to
/// the same bits) and the scan's tie-break — specificity, then
/// registration order — favors `a`, or `a`'s operation-cost polynomial
/// is strictly smaller everywhere. Equal but differently-built
/// polynomials do not count: their `f64` evaluations can round apart.
fn beats_within_split(
    a: &Found,
    b: &Found,
    op_terms: &[(Mono, f64)],
    dominance: &mut DominanceScratch,
) -> bool {
    let (x, y) = (&a.cand, &b.cand);
    debug_assert_eq!(x.k, y.k);
    (x.formula == y.formula
        && (x.specificity > y.specificity
            || (x.specificity == y.specificity && x.kernel_idx < y.kernel_idx)))
        || strictly_below(
            &op_terms[a.poly.clone()],
            &op_terms[b.poly.clone()],
            dominance,
        )
}

/// Records the region plan for `chain` (the concrete binding of `sym`,
/// whose variables in first-occurrence order are `vars`) and returns it
/// together with the solve result.
///
/// The recording is the concrete DP (the same matches, the same winner
/// selection) plus, per cell, the candidate list lowered onto slots,
/// pruning, symbolic resolution and the deferred cells' property sets.
/// Operands are known by their cell — a factor or a temporary — so
/// formulas are built in slots directly, and compositional property
/// inference goes through a [`ProductMemo`] kept in `workspace`.
pub(crate) fn record_region(
    registry: &KernelRegistry,
    inference: InferenceMode,
    sym: &SymChain,
    vars: &[DimVar],
    chain: &Chain,
    scratch: &mut FlatTermScratch,
    workspace: &mut PlanWorkspace,
) -> (RegionPlan, Result<GmcSolution<f64>, GmcError>) {
    let n = chain.len();
    let len = n * (n + 1) / 2;
    let PlanWorkspace {
        solved,
        entries,
        props: memo,
        record: rs,
    } = workspace;
    solved.reset(n);
    solved.seed_leaves(chain);
    memo.clear();
    rs.reset(sym, vars, len);
    let mut plan_cells: Vec<CellPlan> = vec![CellPlan::Leaf; len];
    for i in 0..n {
        rs.total_at[cell_index(n, i, i)] = Some(0..0);
    }
    // Per-cell buffers.
    let mut found: Vec<Found> = Vec::new();
    let mut keep: Vec<bool> = Vec::new();
    let (mut wt, mut ct, mut partial) = (Vec::new(), Vec::new(), Vec::new());
    let mut dominance = DominanceScratch::default();

    // The property set of split `k`'s temporary.
    let split_props = |memo: &mut ProductMemo, solved: &Solved, i: usize, k: usize, j: usize| {
        let le = solved.expr[cell_index(n, i, k)].as_ref().expect("split");
        let re = solved.expr[cell_index(n, k + 1, j)]
            .as_ref()
            .expect("split");
        infer_cell_props(inference, memo, chain, le, re, i, j)
    };

    for l in 1..n {
        for i in 0..(n - l) {
            let j = i + l;
            let idx = cell_index(n, i, j);

            let dynamic = (i..j)
                .any(|k| rs.unstable[cell_index(n, i, k)] || rs.unstable[cell_index(n, k + 1, j)]);

            // Enumerate every candidate of every computable split.
            found.clear();
            for k in i..j {
                let (li, ri) = (cell_index(n, i, k), cell_index(n, k + 1, j));
                if solved.cost[li].is_none() || solved.cost[ri].is_none() {
                    continue;
                }
                let le = solved.expr[li].as_ref().expect("computable cell");
                let re = solved.expr[ri].as_ref().expect("computable cell");
                let left_operand = operand_of(le);
                let (left, right) = (rs.side(i, k), rs.side(k + 1, j));
                // A bound operand is the left or the right child's.
                let side_of = |o: &Operand| if o == left_operand { left } else { right };
                registry.for_each_product_match(le, re, scratch, |kernel_idx, kernel, b| {
                    let op = kernel.instantiate(b);
                    let cost = op.flops();
                    let formula = FlopFormula::from_op_with(&op, |o| side_of(o).1);
                    let binds = PATTERN_VARS.map(|v| b.get(v).map(|o| side_of(o).0));
                    found.push(Found {
                        cand: Candidate {
                            k,
                            kernel_idx,
                            specificity: kernel.specificity(),
                            formula,
                            binds,
                        },
                        op: Some(op),
                        cost,
                        poly: 0..0,
                    });
                });
            }

            if found.is_empty() {
                plan_cells[idx] = if dynamic {
                    CellPlan::Dynamic
                } else {
                    CellPlan::Unsolvable
                };
                rs.unstable[idx] = dynamic;
                continue;
            }

            // Winner selection, exactly as the concrete optimizer.
            entries.clear();
            entries.extend(found.iter().map(|f| Ranked {
                k: f.cand.k,
                kernel_idx: f.cand.kernel_idx,
                spec: f.cand.specificity,
                cost: f.cost,
            }));
            let (wi, total) = select_two_stage(entries, |k| solved.base(i, k, j))
                .expect("non-empty candidate list");
            let wk = found[wi].cand.k;
            let props = split_props(memo, solved, i, wk, j);
            let op = found[wi]
                .op
                .take()
                .expect("each candidate has its operation");
            let temp = temporary(i, j, op.result_shape(), props);
            solved.cost[idx] = Some(total);
            solved.expr[idx] = Some(temp.expr());
            solved.split[idx] = wk;
            solved.op[idx] = Some(op);
            solved.op_cost[idx] = found[wi].cost;
            rs.kernel_idx[idx] = found[wi].cand.kernel_idx;

            if dynamic {
                plan_cells[idx] = CellPlan::Dynamic;
                rs.unstable[idx] = true;
                continue;
            }

            rs.op_terms.clear();
            for f in &mut found {
                let start = rs.op_terms.len();
                op_terms(&f.cand.formula, &rs.rank, &mut rs.op_terms);
                f.poly = start..rs.op_terms.len();
            }

            // Prune same-split candidates that a sibling beats at every
            // binding — they can never be the within-split winner.
            keep.clear();
            keep.resize(found.len(), true);
            for b in 0..found.len() {
                for a in 0..found.len() {
                    if a == b || !keep[a] || found[a].cand.k != found[b].cand.k {
                        continue;
                    }
                    if beats_within_split(&found[a], &found[b], &rs.op_terms, &mut dominance) {
                        keep[b] = false;
                        break;
                    }
                }
            }
            let winner_key = (wk, found[wi].cand.kernel_idx);
            let mut kept = keep.iter();
            found.retain(|_| *kept.next().expect("keep mask aligned"));
            let w = found
                .iter()
                .position(|f| (f.cand.k, f.cand.kernel_idx) == winner_key)
                .expect("winner survives pruning");

            // Symbolic resolution: the ρ-winner surely wins at every
            // binding in the region. Against same-split rivals it must
            // win the within-split scan everywhere; against other splits
            // its *total* polynomial must be strictly below theirs
            // everywhere. A polynomial tie defers the cell even where the
            // DP's tie-break (earliest split) would pick the winner: the
            // DP compares `f64` totals accumulated along different
            // splits, and polynomially equal totals can round apart.
            // A candidate has a total polynomial only if both its
            // children are resolved.
            let total_into_buf = |rs: &RecordScratch,
                                  f: &Found,
                                  out: &mut Vec<(Mono, f64)>,
                                  partial: &mut Vec<(Mono, f64)>| {
                match (rs.total(n, i, f.cand.k), rs.total(n, f.cand.k + 1, j)) {
                    (Some(l), Some(r)) => {
                        total_into(l, r, &rs.op_terms[f.poly.clone()], partial, out);
                        true
                    }
                    _ => false,
                }
            };
            let resolved = total_into_buf(rs, &found[w], &mut wt, &mut partial)
                && (0..found.len()).all(|c| {
                    if c == w {
                        true
                    } else if found[c].cand.k == wk {
                        beats_within_split(&found[w], &found[c], &rs.op_terms, &mut dominance)
                    } else {
                        total_into_buf(rs, &found[c], &mut ct, &mut partial)
                            && strictly_below(&wt, &ct, &mut dominance)
                    }
                });
            if resolved {
                let start = rs.totals.len();
                rs.totals.extend_from_slice(&wt);
                rs.total_at[idx] = Some(start..rs.totals.len());
                plan_cells[idx] = CellPlan::Resolved {
                    cand: found.swap_remove(w).cand,
                    props,
                };
                continue;
            }
            let cands: Vec<Candidate> = found.drain(..).map(|f| f.cand).collect();

            // Deferred: record the winner-only property inference per
            // candidate split. A deferred cell has no unstable
            // descendant, so each split's child expressions — and hence
            // its inferred property set — are region-invariant; bind
            // time only looks the winner's split up.
            let deferred_props = match inference {
                InferenceMode::Deep => DeferredProps::Stable(props),
                InferenceMode::Compositional => {
                    let mut splits: Vec<usize> = cands.iter().map(|c| c.k).collect();
                    splits.dedup();
                    let by_split: Vec<(usize, PropertySet)> = splits
                        .iter()
                        .map(|&k| (k, split_props(memo, solved, i, k, j)))
                        .collect();
                    if by_split.iter().all(|(_, p)| *p == props) {
                        DeferredProps::Stable(props)
                    } else {
                        DeferredProps::PerSplit(by_split)
                    }
                }
            };
            rs.unstable[idx] = matches!(deferred_props, DeferredProps::PerSplit(_));
            plan_cells[idx] = CellPlan::Deferred {
                cands,
                props: deferred_props,
            };
        }
    }

    if solved.cost[cell_index(n, 0, n - 1)].is_some() {
        name_kernels(solved, registry, &rs.kernel_idx, 0, n - 1);
    }
    let solution = extract_solution(chain, solved);
    (
        RegionPlan {
            n,
            cells: plan_cells,
            vars: vars.to_vec(),
        },
        solution,
    )
}

/// Names the kernel of every cell of the winning tree under `(i, j)`.
fn name_kernels(
    s: &mut Solved,
    registry: &KernelRegistry,
    kernel_idx: &[usize],
    i: usize,
    j: usize,
) {
    if i == j {
        return;
    }
    let idx = s.idx(i, j);
    let k = s.split[idx];
    s.kernel[idx] = registry.kernels()[kernel_idx[idx]].name().to_owned();
    name_kernels(s, registry, kernel_idx, i, k);
    name_kernels(s, registry, kernel_idx, k + 1, j);
}

/// Replays a recorded region plan at a concrete binding: ranks every
/// cell, then materializes the winning tree (see the module docs).
///
/// `chain` must be the request chain bound at `values`, the request's
/// variable values in first-occurrence order (the slots of the plan's
/// lowered formulas), and the binding must fall into the plan's region
/// (`region_signature(chain.sizes())` matching the plan's key); the
/// cache layer guarantees all three.
pub(crate) fn instantiate(
    registry: &KernelRegistry,
    inference: InferenceMode,
    region: &RegionPlan,
    chain: &Chain,
    values: &[usize],
    scratch: &mut FlatTermScratch,
    workspace: &mut PlanWorkspace,
) -> Result<GmcSolution<f64>, GmcError> {
    let n = region.n;
    debug_assert_eq!(n, chain.len());
    debug_assert_eq!(region.cells.len(), n * (n + 1) / 2);
    debug_assert_eq!(values.len(), region.vars.len());
    let PlanWorkspace {
        solved,
        entries,
        props: memo,
        ..
    } = workspace;
    solved.reset(n);
    memo.clear();
    for i in 0..n {
        let idx = solved.idx(i, i);
        solved.cost[idx] = Some(0.0);
    }

    // Ranking pass.
    for l in 1..n {
        for i in 0..(n - l) {
            let j = i + l;
            let idx = cell_index(n, i, j);
            let (total, k, op_cost) = match &region.cells[idx] {
                CellPlan::Leaf => unreachable!("interior cell marked as leaf"),
                CellPlan::Unsolvable => continue,
                CellPlan::Resolved { cand, .. } => {
                    let op_cost = cand.cost(values);
                    (solved.base(i, cand.k, j) + op_cost, cand.k, op_cost)
                }
                CellPlan::Deferred { cands, .. } => {
                    entries.clear();
                    entries.extend(cands.iter().map(|c| Ranked {
                        k: c.k,
                        kernel_idx: c.kernel_idx,
                        spec: c.specificity,
                        cost: c.cost(values),
                    }));
                    let (wi, total) = select_two_stage(entries, |k| solved.base(i, k, j))
                        .expect("deferred cells have candidates");
                    solved.winner[idx] = wi;
                    (total, entries[wi].k, entries[wi].cost)
                }
                CellPlan::Dynamic => {
                    match_dynamic(
                        registry, inference, region, chain, scratch, solved, memo, i, j,
                    );
                    continue;
                }
            };
            solved.cost[idx] = Some(total);
            solved.split[idx] = k;
            solved.op_cost[idx] = op_cost;
        }
    }

    // Materialization pass: the winning tree only.
    if solved.cost[cell_index(n, 0, n - 1)].is_some() {
        solved.materialize(registry, region, chain, 0, n - 1);
    }
    extract_solution(chain, solved)
}

/// Decides and materializes a dynamic cell by live matching, mirroring
/// the concrete optimizer's `fill_cell`. Each child it inspects is
/// materialized first, so its expression is available to match on.
#[allow(clippy::too_many_arguments)]
fn match_dynamic(
    registry: &KernelRegistry,
    inference: InferenceMode,
    region: &RegionPlan,
    chain: &Chain,
    scratch: &mut FlatTermScratch,
    solved: &mut Solved,
    memo: &mut ProductMemo,
    i: usize,
    j: usize,
) {
    let n = solved.n;
    let mut best: Option<(f64, usize, gmc_kernels::ProductMatch<'_, f64>)> = None;
    for k in i..j {
        let (li, ri) = (cell_index(n, i, k), cell_index(n, k + 1, j));
        let (Some(cl), Some(cr)) = (solved.cost[li], solved.cost[ri]) else {
            continue;
        };
        solved.materialize(registry, region, chain, i, k);
        solved.materialize(registry, region, chain, k + 1, j);
        let (Some(le), Some(re)) = (&solved.expr[li], &solved.expr[ri]) else {
            unreachable!("materialized children have expressions");
        };
        let Some(m) = registry.best_product_match(le, re, scratch, |op| op.flops()) else {
            continue;
        };
        let total = (cl + cr) + m.cost;
        let better = match &best {
            None => true,
            Some((t, _, _)) => total < *t,
        };
        if better {
            best = Some((total, k, m));
        }
    }
    let Some((total, k, m)) = best else {
        return;
    };
    let idx = cell_index(n, i, j);
    let le = solved.expr[cell_index(n, i, k)].as_ref().expect("winner");
    let re = solved.expr[cell_index(n, k + 1, j)]
        .as_ref()
        .expect("winner");
    let props = infer_cell_props(inference, memo, chain, le, re, i, j);
    let temp = temporary(i, j, m.op.result_shape(), props);
    solved.cost[idx] = Some(total);
    solved.split[idx] = k;
    solved.op_cost[idx] = m.cost;
    solved.expr[idx] = Some(temp.expr());
    solved.kernel[idx] = m.kernel.name().to_owned();
    solved.op[idx] = Some(m.op);
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmc_expr::{DimBindings, Property, SymShape};
    use gmc_kernels::{InvKind, Side, Uplo};

    /// One operation per formula variant (every inverse kind, both
    /// free-dimension branches of the structured level-3 formula).
    fn every_variant() -> Vec<KernelOp> {
        let a = Operand::matrix("A", 37, 23);
        let b = Operand::matrix("B", 23, 41);
        let tri = Operand::square("L", 23).with_property(Property::LowerTriangular);
        let c = Operand::matrix("C", 23, 17);
        let wide = Operand::matrix("W", 17, 23);
        let spd = Operand::square("S", 23).with_property(Property::SymmetricPositiveDefinite);
        let d = Operand::square("D", 23).with_property(Property::Diagonal);
        let x = Operand::col_vector("x", 23);
        let y = Operand::col_vector("y", 17);
        let mut ops = vec![
            KernelOp::Gemm {
                ta: true,
                tb: false,
                a: b.clone(),
                b: b.clone(),
            },
            KernelOp::Gemm {
                ta: false,
                tb: false,
                a: a.clone(),
                b,
            },
            KernelOp::Trmm {
                side: Side::Left,
                uplo: Uplo::Lower,
                trans: false,
                a: tri.clone(),
                b: c.clone(),
            },
            KernelOp::Trmm {
                side: Side::Right,
                uplo: Uplo::Lower,
                trans: false,
                a: tri.clone(),
                b: wide,
            },
            KernelOp::Syrk {
                trans: true,
                a: a.clone(),
            },
            KernelOp::Gesv {
                side: Side::Left,
                trans: false,
                tb: false,
                a: tri.clone(),
                b: c.clone(),
            },
            KernelOp::Posv {
                side: Side::Left,
                tb: false,
                a: spd.clone(),
                b: c.clone(),
            },
            KernelOp::Diag {
                side: Side::Left,
                inv: true,
                tb: false,
                d,
                b: c.clone(),
            },
            KernelOp::Gemv {
                trans: false,
                a,
                x: x.clone(),
            },
            KernelOp::Ger {
                x: x.clone(),
                y: y.clone(),
            },
            KernelOp::Trmv {
                uplo: Uplo::Lower,
                trans: false,
                a: tri,
                x: x.clone(),
            },
            KernelOp::Symv {
                a: spd.clone(),
                x: x.clone(),
            },
            KernelOp::Dot { x: y.clone(), y },
            KernelOp::Copy { b: c },
            KernelOp::InvPair {
                ta: false,
                tb: false,
                a: spd.clone(),
                b: spd.clone(),
            },
        ];
        for kind in [
            InvKind::General,
            InvKind::Spd,
            InvKind::Triangular(Uplo::Upper),
            InvKind::Diagonal,
        ] {
            ops.push(KernelOp::Inv {
                kind,
                trans: false,
                a: spd.clone(),
            });
        }
        ops
    }

    #[test]
    fn lowered_formulas_evaluate_bit_identically() {
        // Each concrete size becomes a variable `lw_<size>` or stays a
        // constant, so every variant is checked with slot dimensions,
        // constant dimensions and a mix of both.
        let all_slots = |_: usize| true;
        let all_consts = |_: usize| false;
        let mixed = |size: usize| size % 2 == 1;
        for as_var in [&all_slots as &dyn Fn(usize) -> bool, &all_consts, &mixed] {
            let mut vars: Vec<DimVar> = Vec::new();
            let mut values: Vec<usize> = Vec::new();
            let mut bindings = DimBindings::new();
            let mut dim = |size: usize| {
                if !as_var(size) {
                    return Dim::Const(size);
                }
                let var = DimVar::new(&format!("lw_{size}"));
                if !vars.contains(&var) {
                    vars.push(var);
                    values.push(size);
                    bindings.set_var(var, size);
                }
                Dim::Var(var)
            };
            let mut symbolic = Vec::new();
            for op in every_variant() {
                let formula = FlopFormula::from_op(&op, |name| {
                    let s = op
                        .operands()
                        .into_iter()
                        .find(|o| o.name() == name)
                        .expect("operand of op")
                        .shape();
                    SymShape::new(dim(s.rows()), dim(s.cols()))
                });
                symbolic.push((op, formula));
            }
            for (op, formula) in symbolic {
                let lowered = lower(&formula, &vars).expect("every variable is listed");
                assert_eq!(lift(&lowered, &vars), formula);
                let cand = Candidate {
                    k: 0,
                    kernel_idx: 0,
                    specificity: 0,
                    formula: lowered,
                    binds: [None; 2],
                };
                let want = op.flops().to_bits();
                assert_eq!(cand.cost(&values).to_bits(), want, "{formula:?} for {op}");
                assert_eq!(formula.eval(&bindings).unwrap().to_bits(), want, "{op}");
            }
        }
    }

    #[test]
    fn lowering_rejects_unlisted_variables() {
        let (p, q) = (DimVar::new("lw_p"), DimVar::new("lw_q"));
        let f = FlopFormula::Gemm {
            m: Dim::Var(p),
            k: Dim::Const(3),
            n: Dim::Var(q),
        };
        assert_eq!(lower(&f, &[p]), Err(q));
        assert_eq!(
            lower(&f, &[q, p]),
            Ok(FlopFormula::Gemm {
                m: SlotDim::Slot(1),
                k: SlotDim::Const(3),
                n: SlotDim::Slot(0),
            })
        );
    }
}
