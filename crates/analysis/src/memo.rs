//! Memoized inference for binary products of chain operands.

use crate::infer::infer_properties;
use gmc_expr::{Expr, Operand, PropertySet};
use std::cmp::Ordering;

/// One side of a binary product `l · r` whose operand is a bare symbol
/// under at most one unary operator (a chain factor or a temporary):
/// everything about it that [`infer_properties`] can observe, short of
/// the operand's identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Side {
    /// 0 = as is, 1 = transposed, 2 = inverted, 3 = inverse transpose.
    unary: u8,
    props: PropertySet,
    /// `rows` against `cols` of the side's shape (the shape after its
    /// unary operator); `None` if it has none.
    aspect: Option<Ordering>,
}

/// What determines the property set of `l · r`; see [`ProductMemo`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct ProductKey {
    left: Side,
    right: Side,
    /// `l`'s column count equals `r`'s row count.
    conformant: bool,
    /// Both sides wrap the same operand (equal name, shape and
    /// properties), as in `Aᵀ A`.
    same: bool,
}

fn side(e: &Expr) -> Option<(Side, &Operand)> {
    let (unary, inner) = match e {
        Expr::Symbol(_) => (0, e),
        Expr::Transpose(inner) => (1, &**inner),
        Expr::Inverse(inner) => (2, &**inner),
        Expr::InverseTranspose(inner) => (3, &**inner),
        Expr::Times(_) | Expr::Plus(_) => return None,
    };
    let Expr::Symbol(op) = inner else {
        return None;
    };
    let aspect = e.shape().ok().map(|s| s.rows().cmp(&s.cols()));
    Some((
        Side {
            unary,
            props: op.properties(),
            aspect,
        },
        op,
    ))
}

fn key(left: &Expr, right: &Expr) -> Option<ProductKey> {
    let (l, lop) = side(left)?;
    let (r, rop) = side(right)?;
    let conformant = match (left.shape(), right.shape()) {
        (Ok(ls), Ok(rs)) => ls.cols() == rs.rows(),
        _ => false,
    };
    Some(ProductKey {
        left: l,
        right: r,
        conformant,
        same: lop == rop,
    })
}

/// [`infer_properties`] of binary products `l · r`, memoized over what
/// the result provably depends on, so a DP over a chain infers each
/// distinct kind of product once instead of once per split.
///
/// # Why the key determines the result
///
/// Each side is a symbol `S` under at most one unary operator `U`
/// (other products are inferred directly, never memoized). Every
/// predicate reaches the symbols through `U` and reads only:
///
/// * the symbols' **property sets** (every compositional rule);
/// * whether each side is **square** (`is_full_rank` of a product) and
///   whether the right side is at least as tall as wide (the rank
///   condition of `is_spd`'s Gram rule) — the key keeps each side's
///   rows-against-cols ordering;
/// * whether the product is **well formed** (`canonical_transpose`
///   validates shapes and yields nothing otherwise) — the key keeps the
///   inner-dimension match and, through the ordering, whether an
///   inverted side is square;
/// * **structural equality** of canonical forms (`is_symmetric`'s
///   product rule and `is_spd`'s transpose-pair test). A canonical side
///   is `U'(S)`, with `U'` a function of `U` and of whether `S` is
///   symmetric, so `U'₁(S₁) = U'₂(S₂)` exactly when the operators agree
///   and `S₁ = S₂` — and operand equality compares name, shape and
///   properties. The key keeps the operators, the properties and
///   whether the two operands are equal.
///
/// Names and concrete sizes enter only through those facts, so two
/// products with equal keys infer equal property sets.
///
/// The memo is meant to live for one chain (it searches its entries
/// linearly); [`ProductMemo::clear`] keeps its allocation.
///
/// # Example
///
/// ```
/// use gmc_analysis::{infer_properties, ProductMemo};
/// use gmc_expr::{Expr, Operand};
///
/// let (a, b) = (Operand::matrix("A", 30, 20), Operand::matrix("B", 20, 10));
/// let mut memo = ProductMemo::default();
/// let want = infer_properties(&Expr::times([a.expr(), b.expr()]));
/// assert_eq!(memo.infer(&a.expr(), &b.expr()), want);
/// // A differently named, differently sized product of the same kind
/// // is answered from the memo.
/// let (c, d) = (Operand::matrix("C", 9, 4), Operand::matrix("D", 4, 2));
/// assert_eq!(memo.infer(&c.expr(), &d.expr()), want);
/// assert_eq!(memo.len(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct ProductMemo {
    entries: Vec<(ProductKey, PropertySet)>,
}

impl ProductMemo {
    /// The property set of `left · right`, equal to
    /// `infer_properties(&Expr::times([left.clone(), right.clone()]))`.
    pub fn infer(&mut self, left: &Expr, right: &Expr) -> PropertySet {
        let direct = || infer_properties(&Expr::times([left.clone(), right.clone()]));
        let Some(key) = key(left, right) else {
            return direct();
        };
        if let Some((_, props)) = self.entries.iter().find(|(k, _)| *k == key) {
            return *props;
        }
        let props = direct();
        self.entries.push((key, props));
        props
    }

    /// Number of memoized product kinds.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Forgets every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmc_expr::{Property, Shape};

    #[test]
    fn operand_identity_is_part_of_the_key() {
        // Aᵀ A is SPD; Bᵀ A with B shaped like A is not.
        let a = Operand::matrix("A", 20, 10);
        let b = Operand::matrix("B", 20, 10);
        let mut memo = ProductMemo::default();
        let gram = memo.infer(&a.transpose(), &a.expr());
        assert!(gram.contains(Property::SymmetricPositiveDefinite));
        let mixed = memo.infer(&b.transpose(), &a.expr());
        assert!(!mixed.contains(Property::Symmetric));
        assert_eq!(memo.len(), 2);
    }

    #[test]
    fn shape_aspect_is_part_of_the_key() {
        // A Aᵀ is SPD only if Aᵀ is at least as tall as wide.
        let mut memo = ProductMemo::default();
        for (r, c) in [(10, 20), (20, 10), (7, 7)] {
            let a = Operand::matrix("A", r, c);
            let want = infer_properties(&(a.expr() * a.transpose()));
            assert_eq!(memo.infer(&a.expr(), &a.transpose()), want, "{r}x{c}");
        }
        assert_eq!(memo.len(), 3);
    }

    #[test]
    fn products_inside_a_side_are_inferred_directly() {
        let l = Operand::square("L", 6).with_property(Property::LowerTriangular);
        let t = Operand::temporary("T", Shape::square(6), PropertySet::new());
        let mut memo = ProductMemo::default();
        let nested = l.expr() * l.expr();
        assert_eq!(
            memo.infer(&nested, &t.expr()),
            infer_properties(&Expr::times([nested.clone(), t.expr()]))
        );
        assert!(memo.is_empty());
    }
}
