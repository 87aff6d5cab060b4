//! Kernel costs as formulas over dimensions: the single place where a
//! kernel operation's FLOP count is computed.
//!
//! [`FlopFormula`] captures the *shape-level structure* of a kernel
//! operation's FLOP count — which dimensions enter the formula and
//! how — independent of any particular operands. It is generic over the
//! dimension type, so one formula serves every stage of the pipeline:
//!
//! * `FlopFormula<usize>` is what [`KernelOp::flops`] evaluates: the
//!   concrete optimizer's costs come from [`FlopFormula::of_op`].
//! * `FlopFormula<Dim>` ([`FlopFormula::from_op`]) is the symbolic form
//!   a plan cache records. [`FlopFormula::eval`] binds it at concrete
//!   sizes, and [`FlopFormula::poly`] lifts it to a [`CostPoly`], on
//!   which the symbolic optimizer decides split dominance.
//! * Any other dimension type (a plan cache's slot indices, say) maps
//!   in through [`FlopFormula::try_map_dims`] and evaluates through
//!   [`FlopFormula::eval_with`].
//!
//! Every evaluation goes through [`FlopFormula::eval_with`], so a cached
//! symbolic plan instantiated at concrete sizes yields costs
//! bit-identical to a from-scratch concrete solve by construction.

use crate::op::{InvKind, KernelOp};
use gmc_expr::{CostPoly, Dim, DimBindings, DimError, Operand, SymShape};
use std::convert::Infallible;

/// The FLOP count of a kernel operation as a function of its
/// dimensions (paper Table 1 / Sec. 2 footnote conventions). `D` is the
/// dimension type: [`Dim`] for symbolic formulas, `usize` for concrete
/// ones.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlopFormula<D = Dim> {
    /// GEMM: `2.0 * m * n * k`.
    Gemm {
        /// Result rows.
        m: D,
        /// Inner dimension.
        k: D,
        /// Result columns.
        n: D,
    },
    /// TRMM / SYMM / TRSM: `m * m * n` (structured operand dimension
    /// `m`, free dimension `n`).
    Level3 {
        /// Structured (square) operand dimension.
        m: D,
        /// Free dimension of the general operand.
        n: D,
    },
    /// SYRK: `m * m * k`.
    Syrk {
        /// Result dimension.
        m: D,
        /// Inner dimension.
        k: D,
    },
    /// GESV: `2/3·m³ + 2·m²·n`.
    Gesv {
        /// Solve dimension.
        m: D,
        /// Right-hand-side free dimension.
        n: D,
    },
    /// POSV: `1/3·m³ + 2·m²·n`.
    Posv {
        /// Solve dimension.
        m: D,
        /// Right-hand-side free dimension.
        n: D,
    },
    /// Diagonal multiply/solve: `r·c` entries.
    EntryCount {
        /// Rows of the general operand.
        r: D,
        /// Columns of the general operand.
        c: D,
    },
    /// GEMV / GER: `2·(r·c)`.
    TwiceEntryCount {
        /// First dimension.
        r: D,
        /// Second dimension.
        c: D,
    },
    /// TRMV / TRSV: `n·n`.
    SquareN {
        /// Triangular dimension.
        n: D,
    },
    /// SYMV: `2·n·n`.
    TwiceSquareN {
        /// Symmetric dimension.
        n: D,
    },
    /// DOT: `2·n`.
    TwiceN {
        /// Vector length.
        n: D,
    },
    /// COPY: zero FLOPs.
    Zero,
    /// Explicit inversion, by structure kind.
    Inv {
        /// Which factorization computes the inverse.
        kind: InvKind,
        /// The (square) dimension.
        n: D,
    },
    /// Composite inverse pair: `(2 + 2/3 + 2)·m³`.
    InvPair {
        /// The (square) dimension.
        m: D,
    },
}

impl<D: Copy> FlopFormula<D> {
    /// Derives the formula for `op`, resolving each operand's
    /// `(rows, cols)` in the dimension domain `D` through `shape`.
    ///
    /// Branches that depend on *concrete* dimensions (the free-dimension
    /// choice of the structured level-3 kernels) are decided from the
    /// operation's concrete operand shapes; within one size region
    /// (fixed ordering pattern of the chain dimensions) those branches
    /// are invariant, which is what makes a symbolic formula cacheable
    /// per region.
    pub fn from_op_with(op: &KernelOp, mut shape: impl FnMut(&Operand) -> (D, D)) -> Self {
        let t = |trans: bool, (r, c): (D, D)| if trans { (c, r) } else { (r, c) };
        // The structured (square) operand `a`'s dimension and the free
        // dimension of `b`, the one not shared with `a`.
        let mut structured = |a: &Operand, b: &Operand| {
            let (rows, cols) = shape(b);
            let n = if b.shape().rows() == a.shape().rows() {
                cols
            } else {
                rows
            };
            (shape(a).0, n)
        };
        match op {
            KernelOp::Gemm { ta, tb, a, b } => {
                let (m, k) = t(*ta, shape(a));
                let (_, n) = t(*tb, shape(b));
                FlopFormula::Gemm { m, k, n }
            }
            KernelOp::Trmm { a, b, .. }
            | KernelOp::Symm { a, b, .. }
            | KernelOp::Trsm { a, b, .. } => {
                let (m, n) = structured(a, b);
                FlopFormula::Level3 { m, n }
            }
            KernelOp::Syrk { trans, a } => {
                let (m, k) = t(*trans, shape(a));
                FlopFormula::Syrk { m, k }
            }
            KernelOp::Gesv { a, b, .. } => {
                let (m, n) = structured(a, b);
                FlopFormula::Gesv { m, n }
            }
            KernelOp::Posv { a, b, .. } => {
                let (m, n) = structured(a, b);
                FlopFormula::Posv { m, n }
            }
            KernelOp::Diag { b, .. } => {
                let (r, c) = shape(b);
                FlopFormula::EntryCount { r, c }
            }
            KernelOp::Gemv { a, .. } => {
                let (r, c) = shape(a);
                FlopFormula::TwiceEntryCount { r, c }
            }
            KernelOp::Trmv { a, .. } | KernelOp::Trsv { a, .. } => {
                FlopFormula::SquareN { n: shape(a).0 }
            }
            KernelOp::Symv { a, .. } => FlopFormula::TwiceSquareN { n: shape(a).0 },
            KernelOp::Ger { x, y } => FlopFormula::TwiceEntryCount {
                r: shape(x).0,
                c: shape(y).0,
            },
            KernelOp::Dot { x, .. } => FlopFormula::TwiceN { n: shape(x).0 },
            KernelOp::Copy { .. } => FlopFormula::Zero,
            KernelOp::Inv { kind, a, .. } => FlopFormula::Inv {
                kind: *kind,
                n: shape(a).0,
            },
            KernelOp::InvPair { a, .. } => FlopFormula::InvPair { m: shape(a).0 },
        }
    }

    /// The same formula over another dimension type, converting every
    /// dimension through `f` (the first error aborts the conversion).
    ///
    /// # Errors
    ///
    /// The first error `f` returns.
    pub fn try_map_dims<T, E>(
        &self,
        mut f: impl FnMut(D) -> Result<T, E>,
    ) -> Result<FlopFormula<T>, E> {
        Ok(match *self {
            FlopFormula::Gemm { m, k, n } => FlopFormula::Gemm {
                m: f(m)?,
                k: f(k)?,
                n: f(n)?,
            },
            FlopFormula::Level3 { m, n } => FlopFormula::Level3 { m: f(m)?, n: f(n)? },
            FlopFormula::Syrk { m, k } => FlopFormula::Syrk { m: f(m)?, k: f(k)? },
            FlopFormula::Gesv { m, n } => FlopFormula::Gesv { m: f(m)?, n: f(n)? },
            FlopFormula::Posv { m, n } => FlopFormula::Posv { m: f(m)?, n: f(n)? },
            FlopFormula::EntryCount { r, c } => FlopFormula::EntryCount { r: f(r)?, c: f(c)? },
            FlopFormula::TwiceEntryCount { r, c } => {
                FlopFormula::TwiceEntryCount { r: f(r)?, c: f(c)? }
            }
            FlopFormula::SquareN { n } => FlopFormula::SquareN { n: f(n)? },
            FlopFormula::TwiceSquareN { n } => FlopFormula::TwiceSquareN { n: f(n)? },
            FlopFormula::TwiceN { n } => FlopFormula::TwiceN { n: f(n)? },
            FlopFormula::Zero => FlopFormula::Zero,
            FlopFormula::Inv { kind, n } => FlopFormula::Inv { kind, n: f(n)? },
            FlopFormula::InvPair { m } => FlopFormula::InvPair { m: f(m)? },
        })
    }

    /// [`eval_with`](Self::eval_with) for a resolver that cannot fail.
    #[inline]
    pub fn eval_by(&self, mut size: impl FnMut(D) -> usize) -> f64 {
        match self.eval_with(|dim| Ok::<usize, Infallible>(size(dim))) {
            Ok(flops) => flops,
            Err(never) => match never {},
        }
    }

    /// Evaluates the formula, resolving each dimension to a size through
    /// `size`. This is the one FLOP evaluator: [`KernelOp::flops`],
    /// [`FlopFormula::eval`] and a plan cache's bind-time ranking all
    /// call it, so their costs agree bit for bit.
    ///
    /// Each dimension converts to `f64` before any multiplication, so a
    /// product of sizes never wraps in integer arithmetic.
    ///
    /// # Errors
    ///
    /// The first error `size` returns.
    #[inline]
    pub fn eval_with<E>(&self, mut size: impl FnMut(D) -> Result<usize, E>) -> Result<f64, E> {
        let mut d = |dim: D| size(dim).map(|v| v as f64);
        Ok(match *self {
            FlopFormula::Gemm { m, k, n } => {
                let (m, k, n) = (d(m)?, d(k)?, d(n)?);
                2.0 * m * n * k
            }
            FlopFormula::Level3 { m, n } | FlopFormula::Syrk { m, k: n } => {
                let (m, n) = (d(m)?, d(n)?);
                m * m * n
            }
            FlopFormula::Gesv { m, n } => {
                let (m, n) = (d(m)?, d(n)?);
                2.0 / 3.0 * m * m * m + 2.0 * m * m * n
            }
            FlopFormula::Posv { m, n } => {
                let (m, n) = (d(m)?, d(n)?);
                1.0 / 3.0 * m * m * m + 2.0 * m * m * n
            }
            FlopFormula::EntryCount { r, c } => d(r)? * d(c)?,
            FlopFormula::TwiceEntryCount { r, c } => 2.0 * (d(r)? * d(c)?),
            FlopFormula::SquareN { n } => {
                let n = d(n)?;
                n * n
            }
            FlopFormula::TwiceSquareN { n } => {
                let n = d(n)?;
                2.0 * n * n
            }
            FlopFormula::TwiceN { n } => 2.0 * d(n)?,
            FlopFormula::Zero => 0.0,
            FlopFormula::Inv { kind, n } => {
                let n = d(n)?;
                match kind {
                    // GETRF + GETRI.
                    InvKind::General => 2.0 * n * n * n,
                    // POTRF + POTRI.
                    InvKind::Spd => n * n * n,
                    // TRTRI.
                    InvKind::Triangular(_) => n * n * n / 3.0,
                    // Reciprocal of the diagonal.
                    InvKind::Diagonal => n,
                }
            }
            FlopFormula::InvPair { m } => {
                // GETRI on one operand (2m³) + GESV with the other
                // (2/3·m³ + 2·m³).
                let m = d(m)?;
                (2.0 + 2.0 / 3.0 + 2.0) * m * m * m
            }
        })
    }
}

impl FlopFormula<usize> {
    /// The concrete formula of `op`, over its operands' actual sizes.
    pub fn of_op(op: &KernelOp) -> Self {
        FlopFormula::from_op_with(op, |o| (o.shape().rows(), o.shape().cols()))
    }
}

impl FlopFormula<Dim> {
    /// Derives the symbolic formula for `op`, resolving each operand's
    /// symbolic shape by name through `shapes`.
    pub fn from_op(op: &KernelOp, mut shapes: impl FnMut(&str) -> SymShape) -> Self {
        FlopFormula::from_op_with(op, |o| {
            let s = shapes(o.name());
            (s.rows(), s.cols())
        })
    }

    /// Evaluates the formula at concrete sizes, bit-identical to
    /// instantiating the operation and calling [`KernelOp::flops`].
    ///
    /// # Errors
    ///
    /// Propagates [`DimError`] for unbound variables or zero sizes.
    pub fn eval(&self, bindings: &DimBindings) -> Result<f64, DimError> {
        self.eval_with(|dim| dim.bind(bindings))
    }

    /// The formula as a multivariate polynomial in the dimension
    /// variables, for dominance comparisons in the symbolic optimizer.
    pub fn poly(&self) -> CostPoly {
        let p = CostPoly::from_dim;
        match self {
            FlopFormula::Gemm { m, k, n } => p(*m).mul(&p(*n)).mul(&p(*k)).scale(2.0),
            FlopFormula::Level3 { m, n } => p(*m).mul(&p(*m)).mul(&p(*n)),
            FlopFormula::Syrk { m, k } => p(*m).mul(&p(*m)).mul(&p(*k)),
            FlopFormula::Gesv { m, n } => {
                let m3 = p(*m).mul(&p(*m)).mul(&p(*m));
                let m2n = p(*m).mul(&p(*m)).mul(&p(*n));
                m3.scale(2.0 / 3.0).add(&m2n.scale(2.0))
            }
            FlopFormula::Posv { m, n } => {
                let m3 = p(*m).mul(&p(*m)).mul(&p(*m));
                let m2n = p(*m).mul(&p(*m)).mul(&p(*n));
                m3.scale(1.0 / 3.0).add(&m2n.scale(2.0))
            }
            FlopFormula::EntryCount { r, c } => p(*r).mul(&p(*c)),
            FlopFormula::TwiceEntryCount { r, c } => p(*r).mul(&p(*c)).scale(2.0),
            FlopFormula::SquareN { n } => p(*n).mul(&p(*n)),
            FlopFormula::TwiceSquareN { n } => p(*n).mul(&p(*n)).scale(2.0),
            FlopFormula::TwiceN { n } => p(*n).scale(2.0),
            FlopFormula::Zero => CostPoly::zero(),
            FlopFormula::Inv { kind, n } => {
                let n3 = p(*n).mul(&p(*n)).mul(&p(*n));
                match kind {
                    InvKind::General => n3.scale(2.0),
                    InvKind::Spd => n3,
                    InvKind::Triangular(_) => n3.scale(1.0 / 3.0),
                    InvKind::Diagonal => p(*n),
                }
            }
            FlopFormula::InvPair { m } => {
                p(*m).mul(&p(*m)).mul(&p(*m)).scale(2.0 + 2.0 / 3.0 + 2.0)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Side, Uplo};
    use gmc_expr::{Operand, Property, Shape};
    use std::collections::HashMap;

    /// Builds a resolver that lifts each operand's concrete shape to a
    /// constant symbolic shape, so `eval` must reproduce `flops` exactly.
    fn const_resolver(ops: &[&Operand]) -> impl FnMut(&str) -> SymShape {
        let map: HashMap<String, Shape> = ops
            .iter()
            .map(|o| (o.name().to_owned(), o.shape()))
            .collect();
        move |name: &str| map[name].to_sym()
    }

    fn check_exact(op: KernelOp, operands: &[&Operand]) {
        let f = FlopFormula::from_op(&op, const_resolver(operands));
        let got = f.eval(&DimBindings::new()).unwrap();
        assert_eq!(
            got.to_bits(),
            op.flops().to_bits(),
            "formula {f:?} diverged from flops() for {op}"
        );
        // Polynomial evaluation agrees up to floating-point association.
        let poly = f.poly().eval(&DimBindings::new()).unwrap();
        assert!((poly - op.flops()).abs() <= 1e-9 * op.flops().abs().max(1.0));
    }

    #[test]
    fn formulas_reproduce_flops_bit_for_bit() {
        let a = Operand::matrix("A", 37, 23);
        let b = Operand::matrix("B", 23, 41);
        let tri = Operand::square("L", 23).with_property(Property::LowerTriangular);
        let bb = Operand::matrix("C", 23, 17);
        let spd = Operand::square("S", 23).with_property(Property::SymmetricPositiveDefinite);
        let d = Operand::square("D", 23).with_property(Property::Diagonal);
        let x = Operand::col_vector("x", 23);
        let y = Operand::col_vector("y", 17);

        check_exact(
            KernelOp::Gemm {
                ta: false,
                tb: false,
                a: a.clone(),
                b: b.clone(),
            },
            &[&a, &b],
        );
        check_exact(
            KernelOp::Gemm {
                ta: true,
                tb: true,
                a: b.clone(),
                b: a.clone(),
            },
            &[&a, &b],
        );
        check_exact(
            KernelOp::Trmm {
                side: Side::Left,
                uplo: Uplo::Lower,
                trans: false,
                a: tri.clone(),
                b: bb.clone(),
            },
            &[&tri, &bb],
        );
        // Right-side structured operand exercises the free-dimension
        // branch of the structured level-3 formula.
        let wide = Operand::matrix("W", 17, 23);
        check_exact(
            KernelOp::Trmm {
                side: Side::Right,
                uplo: Uplo::Lower,
                trans: false,
                a: tri.clone(),
                b: wide.clone(),
            },
            &[&tri, &wide],
        );
        check_exact(
            KernelOp::Trsm {
                side: Side::Left,
                uplo: Uplo::Lower,
                trans: true,
                tb: false,
                a: tri.clone(),
                b: bb.clone(),
            },
            &[&tri, &bb],
        );
        check_exact(
            KernelOp::Symm {
                side: Side::Left,
                a: spd.clone(),
                b: bb.clone(),
            },
            &[&spd, &bb],
        );
        check_exact(
            KernelOp::Syrk {
                trans: true,
                a: a.clone(),
            },
            &[&a],
        );
        check_exact(
            KernelOp::Gesv {
                side: Side::Left,
                trans: false,
                tb: false,
                a: tri.clone(),
                b: bb.clone(),
            },
            &[&tri, &bb],
        );
        check_exact(
            KernelOp::Posv {
                side: Side::Left,
                tb: false,
                a: spd.clone(),
                b: bb.clone(),
            },
            &[&spd, &bb],
        );
        check_exact(
            KernelOp::Diag {
                side: Side::Left,
                inv: true,
                tb: false,
                d: d.clone(),
                b: bb.clone(),
            },
            &[&d, &bb],
        );
        check_exact(
            KernelOp::Gemv {
                trans: false,
                a: a.clone(),
                x: x.clone(),
            },
            &[&a, &x],
        );
        check_exact(
            KernelOp::Trmv {
                uplo: Uplo::Lower,
                trans: false,
                a: tri.clone(),
                x: x.clone(),
            },
            &[&tri, &x],
        );
        check_exact(
            KernelOp::Symv {
                a: spd.clone(),
                x: x.clone(),
            },
            &[&spd, &x],
        );
        check_exact(
            KernelOp::Trsv {
                uplo: Uplo::Upper,
                trans: true,
                a: tri.clone(),
                x: x.clone(),
            },
            &[&tri, &x],
        );
        check_exact(
            KernelOp::Ger {
                x: x.clone(),
                y: y.clone(),
            },
            &[&x, &y],
        );
        check_exact(
            KernelOp::Dot {
                x: x.clone(),
                y: x.clone(),
            },
            &[&x],
        );
        check_exact(KernelOp::Copy { b: bb.clone() }, &[&bb]);
        for kind in [
            InvKind::General,
            InvKind::Spd,
            InvKind::Triangular(Uplo::Lower),
            InvKind::Diagonal,
        ] {
            check_exact(
                KernelOp::Inv {
                    kind,
                    trans: false,
                    a: spd.clone(),
                },
                &[&spd],
            );
        }
        check_exact(
            KernelOp::InvPair {
                ta: false,
                tb: false,
                a: spd.clone(),
                b: spd.clone(),
            },
            &[&spd],
        );
    }

    #[test]
    fn entry_counts_do_not_wrap_at_2_pow_33() {
        // 2^33 · 2^33 = 2^66 overflows a 64-bit `usize` (it wraps to 0 in
        // release builds); every factor converts to f64 first instead.
        let big = 1usize << 33;
        let want = (big as f64) * (big as f64);
        let g = Operand::matrix("G", big, big);
        let d = Operand::square("D", big).with_property(Property::Diagonal);
        let x = Operand::col_vector("x", big);
        let ops = [
            (
                KernelOp::Diag {
                    side: Side::Left,
                    inv: false,
                    tb: false,
                    d: d.clone(),
                    b: g.clone(),
                },
                want,
            ),
            (
                KernelOp::Gemv {
                    trans: false,
                    a: g.clone(),
                    x: x.clone(),
                },
                2.0 * want,
            ),
            (
                KernelOp::Ger {
                    x: x.clone(),
                    y: x.clone(),
                },
                2.0 * want,
            ),
        ];
        let n = Dim::var("kf_big");
        let bindings = DimBindings::new().with("kf_big", big);
        for (op, flops) in ops {
            assert_eq!(op.flops(), flops, "{op}");
            let symbolic = FlopFormula::from_op(&op, |_| SymShape::new(n, n));
            assert_eq!(symbolic.eval(&bindings).unwrap(), flops, "{op}");
        }
        assert_eq!(
            FlopFormula::EntryCount { r: big, c: big }.eval_by(|d| d),
            want
        );
        assert_eq!(
            FlopFormula::TwiceEntryCount { r: big, c: big }.eval_by(|d| d),
            2.0 * want
        );
    }

    #[test]
    fn symbolic_formula_evaluates_per_binding() {
        let n = Dim::var("kf_n");
        let m = Dim::var("kf_m");
        let f = FlopFormula::Gemm { m: n, k: n, n: m };
        let b = DimBindings::new().with("kf_n", 10).with("kf_m", 3);
        assert_eq!(f.eval(&b).unwrap(), 2.0 * 10.0 * 3.0 * 10.0);
        assert!(f.eval(&DimBindings::new()).is_err());
        let poly = f.poly();
        assert_eq!(poly.eval(&b).unwrap(), 600.0);
        assert_eq!(poly.degree(), 3);
    }

    #[test]
    fn gemv_dominates_gemm_on_matrix_vector_products() {
        // GEMV and GEMM on an n×m · m×1 product cost the same
        // polynomial; TRMV on a square n×n · n×1 strictly dominates
        // GEMM's 2n².
        let n = Dim::var("kf2_n");
        let trmv = FlopFormula::SquareN { n }.poly();
        let gemm = FlopFormula::Gemm {
            m: n,
            k: n,
            n: Dim::Const(1),
        }
        .poly();
        assert!(trmv.dominated_by(&gemm));
        assert!(!gemm.dominated_by(&trmv));
    }
}
