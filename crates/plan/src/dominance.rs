//! The recorder's cost polynomials in a flat form, and strict dominance
//! decided on it without allocating.
//!
//! A [`Terms`] list is what a [`gmc_expr::CostPoly`] holds — monomials
//! over the region's variables with `f64` coefficients — stored as a
//! slice sorted by a packed monomial key ([`Mono`]) whose integer order
//! is `CostPoly`'s key order. Every coefficient is computed by the same
//! sequence of `f64` operations `CostPoly` performs, so every dominance
//! decision is the one `CostPoly::strictly_dominated_by` makes:
//!
//! * an operation's polynomial ([`op_terms`]) mirrors
//!   `FlopFormula::poly` product by product;
//! * a cell's total ([`total_into`]) adds per monomial `(l + r) + op`,
//!   as `l.add(r).add(op)` does;
//! * [`strictly_below`] forms `o − s` per monomial and sums the shifted
//!   expansion's contributions to each monomial in ascending key order
//!   of the difference's terms, as `shifted()` accumulates them. One
//!   contribution is `d · B`, with `B` the product of binomial
//!   coefficients: polynomials here have degree at most 3, so `B` is 1,
//!   2 or 3, and `CostPoly`'s repeated multiplication by `(1 + v)` —
//!   exact doubling, then at most one rounded addition `d + 2d` — lands
//!   on the correctly rounded `3d`, which is what `d * 3.0` gives.
//!
//! Zero coefficients are dropped as `CostPoly` drops them; a dropped
//! zero and a kept one add the same value to any non-zero sum and pass
//! the same sign checks.

use crate::plan::SlotDim;
use gmc_kernels::{FlopFormula, InvKind};

/// A monomial of degree at most 3: up to three `(variable, exponent)`
/// pairs, each packed into 16 bits as `(rank + 1) << 2 | exponent`,
/// most significant pair first and in variable order. `rank` is the
/// variable's position in `DimVar` order, so comparing two keys
/// compares the pairs lexicographically, a shorter key first —
/// `CostPoly`'s monomial order.
pub(crate) type Mono = u64;

/// A polynomial: terms sorted by [`Mono`], no zero coefficient.
pub(crate) type Terms = [(Mono, f64)];

const PAIR_BITS: u32 = 16;

/// Packs a multiset of variable ranks (degree at most 3).
fn pack(ranks: &mut [u16]) -> Mono {
    debug_assert!(ranks.len() <= 3, "cost polynomials have degree <= 3");
    ranks.sort_unstable();
    let mut key: Mono = 0;
    let mut pairs = 0;
    let mut t = 0;
    while t < ranks.len() {
        let r = ranks[t];
        let mut e = 0;
        while t < ranks.len() && ranks[t] == r {
            e += 1;
            t += 1;
        }
        let pair = (u64::from(r) + 1) << 2 | e;
        key |= pair << (PAIR_BITS * (3 - pairs));
        pairs += 1;
    }
    key
}

/// The `(rank, exponent)` pairs of a packed monomial.
fn unpack(m: Mono) -> ([(u16, u8); 3], usize) {
    let mut pairs = [(0u16, 0u8); 3];
    let mut len = 0;
    for p in 0..3 {
        let pair = (m >> (PAIR_BITS * (3 - p))) & 0xFFFF;
        if pair == 0 {
            break;
        }
        pairs[len] = (((pair >> 2) - 1) as u16, (pair & 3) as u8);
        len += 1;
    }
    (pairs, len)
}

fn degree(m: Mono) -> u64 {
    (0..4).map(|p| (m >> (PAIR_BITS * p)) & 3).sum()
}

/// A single-term polynomial under construction: a dimension, or a
/// product of dimensions and constants.
#[derive(Clone, Copy)]
struct Single {
    ranks: [u16; 3],
    len: usize,
    coef: f64,
}

impl Single {
    fn dim(d: SlotDim, rank: &[u16]) -> Single {
        match d {
            SlotDim::Slot(s) => Single {
                ranks: [rank[s], 0, 0],
                len: 1,
                coef: 1.0,
            },
            SlotDim::Const(c) => Single {
                ranks: [0; 3],
                len: 0,
                coef: c as f64,
            },
        }
    }

    fn mul(self, o: Single) -> Single {
        let mut out = self;
        for &r in &o.ranks[..o.len] {
            out.ranks[out.len] = r;
            out.len += 1;
        }
        out.coef = self.coef * o.coef;
        out
    }

    fn scale(self, s: f64) -> Single {
        Single {
            coef: self.coef * s,
            ..self
        }
    }

    fn term(mut self) -> (Mono, f64) {
        (pack(&mut self.ranks[..self.len]), self.coef)
    }
}

/// Appends the polynomial of `formula` to `out` (`rank[slot]` is the
/// slot variable's rank), with the coefficients `FlopFormula::poly`
/// computes.
pub(crate) fn op_terms(formula: &FlopFormula<SlotDim>, rank: &[u16], out: &mut Vec<(Mono, f64)>) {
    let p = |d: SlotDim| Single::dim(d, rank);
    let mut push = |s: Single| {
        let (m, c) = s.term();
        if c != 0.0 {
            out.push((m, c));
        }
    };
    match *formula {
        FlopFormula::Gemm { m, k, n } => push(p(m).mul(p(n)).mul(p(k)).scale(2.0)),
        FlopFormula::Level3 { m, n } => push(p(m).mul(p(m)).mul(p(n))),
        FlopFormula::Syrk { m, k } => push(p(m).mul(p(m)).mul(p(k))),
        FlopFormula::Gesv { m, n } | FlopFormula::Posv { m, n } => {
            let cubic = if matches!(formula, FlopFormula::Gesv { .. }) {
                2.0 / 3.0
            } else {
                1.0 / 3.0
            };
            let m3 = p(m).mul(p(m)).mul(p(m)).scale(cubic).term();
            let m2n = p(m).mul(p(m)).mul(p(n)).scale(2.0).term();
            // `m3.add(m2n)`: one term if the monomials coincide.
            let terms = if m3.0 == m2n.0 {
                [(m3.0, m3.1 + m2n.1), (0, 0.0)]
            } else if m3.0 < m2n.0 {
                [m3, m2n]
            } else {
                [m2n, m3]
            };
            out.extend(terms.into_iter().filter(|t| t.1 != 0.0));
        }
        FlopFormula::EntryCount { r, c } => push(p(r).mul(p(c))),
        FlopFormula::TwiceEntryCount { r, c } => push(p(r).mul(p(c)).scale(2.0)),
        FlopFormula::SquareN { n } => push(p(n).mul(p(n))),
        FlopFormula::TwiceSquareN { n } => push(p(n).mul(p(n)).scale(2.0)),
        FlopFormula::TwiceN { n } => push(p(n).scale(2.0)),
        FlopFormula::Zero => {}
        FlopFormula::Inv { kind, n } => {
            let n3 = p(n).mul(p(n)).mul(p(n));
            push(match kind {
                InvKind::General => n3.scale(2.0),
                InvKind::Spd => n3,
                InvKind::Triangular(_) => n3.scale(1.0 / 3.0),
                InvKind::Diagonal => p(n),
            })
        }
        FlopFormula::InvPair { m } => {
            push(p(m).mul(p(m)).mul(p(m)).scale(2.0 + 2.0 / 3.0 + 2.0));
        }
    }
}

/// Emits `a + sign · b` term by term (`sign` is ±1, so `sign · b` is
/// exact and `a + sign · b` is the one rounded operation `CostPoly`
/// performs per monomial), in monomial order, dropping zero results.
fn merge(a: &Terms, b: &Terms, sign: f64, mut emit: impl FnMut(Mono, f64)) {
    let (mut x, mut y) = (0, 0);
    loop {
        let (m, c) = match (a.get(x), b.get(y)) {
            (Some(&(ma, ca)), Some(&(mb, cb))) if ma == mb => {
                x += 1;
                y += 1;
                (ma, ca + sign * cb)
            }
            (Some(&(ma, ca)), Some(&(mb, _))) if ma < mb => {
                x += 1;
                (ma, ca)
            }
            (Some(&(ma, ca)), None) => {
                x += 1;
                (ma, ca)
            }
            (_, Some(&(mb, cb))) => {
                y += 1;
                (mb, sign * cb)
            }
            (None, None) => return,
        };
        if c != 0.0 {
            emit(m, c);
        }
    }
}

/// Appends `(l + r) + op` to `out` (after clearing it).
pub(crate) fn total_into(
    l: &Terms,
    r: &Terms,
    op: &Terms,
    lr: &mut Vec<(Mono, f64)>,
    out: &mut Vec<(Mono, f64)>,
) {
    lr.clear();
    merge(l, r, 1.0, |m, c| lr.push((m, c)));
    out.clear();
    merge(lr, op, 1.0, |m, c| out.push((m, c)));
}

/// Scratch buffers of [`strictly_below`].
#[derive(Debug, Default)]
pub(crate) struct DominanceScratch {
    diff: Vec<(Mono, f64)>,
    /// `(monomial, position of the difference term, contribution)`.
    contrib: Vec<(Mono, u32, f64)>,
}

/// Whether `s < o` at every assignment `>= 1` of the variables, decided
/// as `CostPoly::strictly_dominated_by` decides it: expand `o − s`
/// around `(1, …, 1)`; every coefficient must be non-negative and the
/// constant one positive.
pub(crate) fn strictly_below(s: &Terms, o: &Terms, scratch: &mut DominanceScratch) -> bool {
    let DominanceScratch { diff, contrib } = scratch;
    diff.clear();
    merge(o, s, -1.0, |m, c| diff.push((m, c)));
    // The constant coefficient receives every term once, in order.
    let mut constant = 0.0;
    for &(_, d) in diff.iter() {
        constant += d;
    }
    if constant <= 0.0 {
        return false;
    }
    // A cubic term is no other term's divisor: it receives itself only.
    if diff.iter().any(|&(m, d)| d < 0.0 && degree(m) == 3) {
        return false;
    }
    contrib.clear();
    for (pos, &(m, d)) in diff.iter().enumerate() {
        let (pairs, len) = unpack(m);
        let e = |t: usize| if t < len { pairs[t].1 } else { 0 };
        // Every sub-monomial, `a ≤ e` per variable, with its weight
        // `B = Π C(e, a)`.
        for a0 in 0..=e(0) {
            for a1 in 0..=e(1) {
                for a2 in 0..=e(2) {
                    let mut sub = [0u16; 3];
                    let mut sub_len = 0;
                    let mut b = 1.0;
                    for (t, a) in [a0, a1, a2].into_iter().enumerate() {
                        b *= match (e(t), a) {
                            (2, 1) => 2.0,
                            (3, 1) | (3, 2) => 3.0,
                            _ => 1.0,
                        };
                        for _ in 0..a {
                            sub[sub_len] = pairs[t].0;
                            sub_len += 1;
                        }
                    }
                    if sub_len > 0 {
                        contrib.push((pack(&mut sub[..sub_len]), pos as u32, d * b));
                    }
                }
            }
        }
    }
    contrib.sort_unstable_by_key(|&(m, pos, _)| (m, pos));
    let mut t = 0;
    while t < contrib.len() {
        let m = contrib[t].0;
        let mut sum = 0.0;
        while t < contrib.len() && contrib[t].0 == m {
            sum += contrib[t].2;
            t += 1;
        }
        if sum < 0.0 {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmc_expr::{CostPoly, Dim, DimVar};

    #[test]
    fn packed_order_is_the_monomial_order() {
        // [(a,1),(b,1)] < [(a,2)] < [(a,2),(b,1)] < [(a,3)] < [(b,1)].
        let keys = [
            pack(&mut []),
            pack(&mut [0]),
            pack(&mut [1, 0]),
            pack(&mut [0, 0]),
            pack(&mut [0, 1, 0]),
            pack(&mut [0, 0, 0]),
            pack(&mut [1]),
            pack(&mut [2, 1]),
        ];
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "{keys:x?}");
        for k in keys {
            let (pairs, len) = unpack(k);
            let mut ranks: Vec<u16> = pairs[..len]
                .iter()
                .flat_map(|&(r, e)| std::iter::repeat_n(r, usize::from(e)))
                .collect();
            assert_eq!(pack(&mut ranks), k);
        }
    }

    /// Reference: the same decision through `CostPoly`.
    fn reference(s: &[(Vec<u16>, f64)], o: &[(Vec<u16>, f64)], vars: &[DimVar]) -> bool {
        let poly = |terms: &[(Vec<u16>, f64)]| {
            terms.iter().fold(CostPoly::zero(), |acc, (ranks, c)| {
                let t = ranks.iter().fold(CostPoly::constant(*c), |t, &r| {
                    t.mul(&CostPoly::from_dim(Dim::Var(vars[usize::from(r)])))
                });
                acc.add(&t)
            })
        };
        poly(s).strictly_dominated_by(&poly(o))
    }

    fn flat(terms: &[(Vec<u16>, f64)]) -> Vec<(Mono, f64)> {
        let mut out: Vec<(Mono, f64)> = Vec::new();
        for (ranks, c) in terms {
            let m = pack(&mut ranks.clone());
            match out.iter_mut().find(|t| t.0 == m) {
                Some(t) => t.1 += c,
                None => out.push((m, *c)),
            }
        }
        out.retain(|t| t.1 != 0.0);
        out.sort_unstable_by_key(|t| t.0);
        out
    }

    #[test]
    fn strict_dominance_decides_as_cost_poly() {
        // Variables interned in rank order, so ranks follow `DimVar`.
        let vars: Vec<DimVar> = (0..4).map(|i| DimVar::new(&format!("dm_v{i}"))).collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let coefs = [
            2.0,
            1.0,
            2.0 / 3.0,
            1.0 / 3.0,
            2.0 + 2.0 / 3.0 + 2.0,
            40.0,
            3.0,
        ];
        let mut scratch = DominanceScratch::default();
        // v² − 2v + 2 = 1 + w² at v = 1 + w: the two contributions to w,
        // 2·1 from v² and −2 from −2v, cancel.
        let two_v = [(vec![0], 2.0)];
        let square_plus_two = [(vec![0, 0], 1.0), (vec![], 2.0)];
        assert!(reference(&two_v, &square_plus_two, &vars));
        assert!(strictly_below(
            &flat(&two_v),
            &flat(&square_plus_two),
            &mut scratch
        ));
        let mut decided = [0usize; 2];
        for _ in 0..4000 {
            let draw = |next: &mut dyn FnMut(u64) -> u64| {
                (0..1 + next(5))
                    .map(|_| {
                        let degree = next(4) as usize;
                        let ranks: Vec<u16> = (0..degree).map(|_| next(4) as u16).collect();
                        (ranks, coefs[next(coefs.len() as u64) as usize])
                    })
                    .collect::<Vec<_>>()
            };
            let s = draw(&mut next);
            let mut o = s.clone();
            // Lower-degree terms of either sign: `o − s` then dominates
            // only through the shifted expansion's binomial weights.
            o.extend(draw(&mut next).into_iter().map(|(ranks, c)| {
                let sign = if ranks.len() < 3 && next(2) == 0 {
                    -1.0
                } else {
                    1.0
                };
                (ranks, sign * c)
            }));
            for (a, b) in [(&s, &o), (&o, &s)] {
                let want = reference(a, b, &vars);
                assert_eq!(
                    strictly_below(&flat(a), &flat(b), &mut scratch),
                    want,
                    "{a:?} vs {b:?}"
                );
                decided[usize::from(want)] += 1;
            }
        }
        assert!(decided[0] > 100 && decided[1] > 100, "{decided:?}");
    }

    #[test]
    fn op_terms_are_flop_formula_poly() {
        use crate::plan::lift;
        use gmc_kernels::Uplo;
        let vars: Vec<DimVar> = (0..3).map(|i| DimVar::new(&format!("dm_w{i}"))).collect();
        let rank: Vec<u16> = vec![0, 1, 2];
        let dims = [
            SlotDim::Slot(0),
            SlotDim::Slot(1),
            SlotDim::Slot(2),
            SlotDim::Const(7),
        ];
        let mut checked = 0;
        for &a in &dims {
            for &b in &dims {
                for &c in &dims {
                    let mut formulas = vec![
                        FlopFormula::Gemm { m: a, k: b, n: c },
                        FlopFormula::Level3 { m: a, n: b },
                        FlopFormula::Syrk { m: a, k: b },
                        FlopFormula::Gesv { m: a, n: b },
                        FlopFormula::Posv { m: a, n: b },
                        FlopFormula::EntryCount { r: a, c: b },
                        FlopFormula::TwiceEntryCount { r: a, c: b },
                        FlopFormula::SquareN { n: a },
                        FlopFormula::TwiceSquareN { n: a },
                        FlopFormula::TwiceN { n: a },
                        FlopFormula::Zero,
                        FlopFormula::InvPair { m: a },
                    ];
                    for kind in [
                        InvKind::General,
                        InvKind::Spd,
                        InvKind::Triangular(Uplo::Lower),
                        InvKind::Diagonal,
                    ] {
                        formulas.push(FlopFormula::Inv { kind, n: a });
                    }
                    for f in formulas {
                        let mut terms = Vec::new();
                        op_terms(&f, &rank, &mut terms);
                        let rebuilt = terms.iter().fold(CostPoly::zero(), |acc, &(m, c)| {
                            let (pairs, len) = unpack(m);
                            let t =
                                pairs[..len]
                                    .iter()
                                    .fold(CostPoly::constant(c), |t, &(r, e)| {
                                        (0..e).fold(t, |t, _| {
                                            t.mul(&CostPoly::from_dim(Dim::Var(
                                                vars[usize::from(r)],
                                            )))
                                        })
                                    });
                            acc.add(&t)
                        });
                        assert!(terms.windows(2).all(|w| w[0].0 < w[1].0), "{f:?}");
                        assert_eq!(rebuilt, lift(&f, &vars).poly(), "{f:?}");
                        checked += 1;
                    }
                }
            }
        }
        assert_eq!(checked, 64 * 16);
    }
}
