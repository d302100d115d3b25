//! Affine integer expressions over index and parameter variables.
//!
//! Array subscripts in the paper's benchmarks are affine expressions in the
//! enclosing loop indices (`v(l, i, j, k+1)`); the paper's compiler relies on
//! this to prove that re-executed references hit the *same address*
//! (Section 4.2.2: "all array references with affine subscript expressions
//! have correct addresses and are thus candidate RFWs"). [`AffineExpr`] is
//! the canonical representation: a constant plus a sum of
//! `coefficient * variable` terms, kept sorted by variable id so that
//! syntactic equality is structural equality.
//!
//! The terms live in a [`Terms`] list, the one representation of affine
//! terms in the IR: its expressions and the compiled address
//! plans of [`lowered`](crate::lowered) both hold one. A list is a run of
//! `(variable, coefficient)` pairs sorted by variable with no zero
//! coefficient, and keeps up to [`INLINE_TERMS`] pairs inline, spilling to
//! the heap only beyond that. Subscripts are short — no subscript or fused
//! address of the generated corpus or the giant blocks has more than two
//! terms, the suite's widest fused address has four — so building,
//! cloning, adding or parameter-folding an expression allocates nothing in
//! practice.

use crate::ids::VarId;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Add, Deref, Mul, Neg, Sub};

/// Terms a [`Terms`] list keeps inline before it spills to the heap.
pub const INLINE_TERMS: usize = 2;

/// A sum of `coefficient * variable` terms: `(variable, coefficient)`
/// pairs sorted by variable, with no zero coefficient, so two equal sums
/// compare equal structurally.
///
/// Up to [`INLINE_TERMS`] pairs are stored inline; a longer list spills to
/// a heap vector and stays there. The list dereferences to its pairs as a
/// slice; `==` and `Hash` see only those pairs, never the storage. `Debug`
/// prints `[(index, coeff), …]` with each variable as its raw index.
#[derive(Clone)]
pub struct Terms(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        items: [(VarId, i64); INLINE_TERMS],
    },
    Spilled(Vec<(VarId, i64)>),
}

impl Terms {
    /// The empty sum.
    pub(crate) const fn new() -> Self {
        Terms(Repr::Inline {
            len: 0,
            items: [(VarId(0), 0); INLINE_TERMS],
        })
    }

    /// The pairs, sorted by variable.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[(VarId, i64)] {
        match &self.0 {
            Repr::Inline { len, items } => &items[..usize::from(*len)],
            Repr::Spilled(v) => v,
        }
    }

    /// Adds `coeff * v`, removing the term if it cancels.
    pub(crate) fn add(&mut self, v: VarId, coeff: i64) {
        if coeff == 0 {
            return;
        }
        match self.find(v) {
            Ok(i) => {
                let c = &mut self.as_mut_slice()[i].1;
                *c += coeff;
                if *c == 0 {
                    self.remove(i);
                }
            }
            Err(i) => self.insert(i, (v, coeff)),
        }
    }

    /// Multiplies every coefficient by the non-zero `k`.
    fn scale(&mut self, k: i64) {
        debug_assert_ne!(k, 0, "scaling by zero would store zero coefficients");
        for (_, c) in self.as_mut_slice() {
            *c *= k;
        }
    }

    fn find(&self, v: VarId) -> Result<usize, usize> {
        self.as_slice().binary_search_by_key(&v, |&(w, _)| w)
    }

    fn as_mut_slice(&mut self) -> &mut [(VarId, i64)] {
        match &mut self.0 {
            Repr::Inline { len, items } => &mut items[..usize::from(*len)],
            Repr::Spilled(v) => v,
        }
    }

    fn insert(&mut self, at: usize, term: (VarId, i64)) {
        match &mut self.0 {
            Repr::Inline { len, items } if usize::from(*len) < INLINE_TERMS => {
                items.copy_within(at..usize::from(*len), at + 1);
                items[at] = term;
                *len += 1;
            }
            Repr::Inline { items, .. } => {
                let mut spilled = Vec::with_capacity(2 * INLINE_TERMS);
                spilled.extend_from_slice(items);
                spilled.insert(at, term);
                self.0 = Repr::Spilled(spilled);
            }
            Repr::Spilled(v) => v.insert(at, term),
        }
    }

    fn remove(&mut self, at: usize) {
        match &mut self.0 {
            Repr::Inline { len, items } => {
                items.copy_within(at + 1..usize::from(*len), at);
                *len -= 1;
            }
            Repr::Spilled(v) => {
                v.remove(at);
            }
        }
    }
}

impl Default for Terms {
    fn default() -> Self {
        Terms::new()
    }
}

impl Deref for Terms {
    type Target = [(VarId, i64)];

    #[inline]
    fn deref(&self) -> &[(VarId, i64)] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a Terms {
    type Item = &'a (VarId, i64);
    type IntoIter = std::slice::Iter<'a, (VarId, i64)>;

    #[inline]
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl PartialEq for Terms {
    fn eq(&self, other: &Terms) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Terms {}

impl Hash for Terms {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Terms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(self.iter().map(|&(v, c)| (v.0, c)))
            .finish()
    }
}

/// An affine integer expression `c0 + Σ ci * vi`.
///
/// Variables are loop-index or parameter variables; coefficients and the
/// constant are signed 64-bit integers. Terms with zero coefficients are
/// never stored, so two equal expressions compare equal structurally.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct AffineExpr {
    /// The constant term `c0`.
    pub constant: i64,
    /// The (non-zero) `coefficient * variable` terms, sorted by variable.
    pub terms: Terms,
}

impl AffineExpr {
    /// The constant expression `c`.
    pub fn constant(c: i64) -> Self {
        AffineExpr {
            constant: c,
            terms: Terms::new(),
        }
    }

    /// The expression consisting of a single variable with coefficient 1.
    pub fn var(v: VarId) -> Self {
        AffineExpr::scaled_var(v, 1)
    }

    /// The expression `coeff * v`.
    pub fn scaled_var(v: VarId, coeff: i64) -> Self {
        let mut e = AffineExpr::constant(0);
        e.add_term(v, coeff);
        e
    }

    /// Returns the coefficient of `v` (zero if absent).
    pub fn coeff(&self, v: VarId) -> i64 {
        self.terms.find(v).map_or(0, |i| self.terms[i].1)
    }

    /// True if the expression is a plain constant.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// True if the expression mentions `v`.
    pub fn uses(&self, v: VarId) -> bool {
        self.terms.find(v).is_ok()
    }

    /// Variables mentioned by the expression.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.terms.iter().map(|&(v, _)| v)
    }

    /// Adds `coeff * v` in place, removing the term if it cancels.
    pub fn add_term(&mut self, v: VarId, coeff: i64) {
        self.terms.add(v, coeff);
    }

    /// Evaluates the expression under an environment. Returns `None` if a
    /// variable has no binding.
    pub fn eval(&self, env: &impl Fn(VarId) -> Option<i64>) -> Option<i64> {
        let mut acc = self.constant;
        for &(v, c) in &self.terms {
            acc += c * env(v)?;
        }
        Some(acc)
    }

    /// Substitutes `v := replacement` and returns the resulting expression.
    pub fn substitute(&self, v: VarId, replacement: &AffineExpr) -> AffineExpr {
        let coeff = self.coeff(v);
        if coeff == 0 {
            return self.clone();
        }
        let mut out = self.clone();
        out.add_term(v, -coeff);
        out + replacement.clone() * coeff
    }

    /// Substitutes every variable for which `lookup` yields a value with
    /// that constant, leaving other variables untouched.
    pub fn substitute_params(&self, lookup: &impl Fn(VarId) -> Option<i64>) -> AffineExpr {
        let mut out = AffineExpr::constant(self.constant);
        for &(v, c) in &self.terms {
            match lookup(v) {
                Some(value) => out.constant += c * value,
                None => out.add_term(v, c),
            }
        }
        out
    }

    /// Difference of the constants if the two expressions have identical
    /// variable terms (the "strong SIV" precondition), otherwise `None`.
    pub fn constant_difference(&self, other: &AffineExpr) -> Option<i64> {
        if self.terms == other.terms {
            Some(self.constant - other.constant)
        } else {
            None
        }
    }

    /// Interval of values the expression can take given per-variable bounds.
    /// Returns `None` when a mentioned variable has no bounds.
    pub fn range(&self, bounds: &impl Fn(VarId) -> Option<(i64, i64)>) -> Option<(i64, i64)> {
        let mut lo = self.constant;
        let mut hi = self.constant;
        for &(v, c) in &self.terms {
            let (vl, vh) = bounds(v)?;
            let (a, b) = (c * vl, c * vh);
            lo += a.min(b);
            hi += a.max(b);
        }
        Some((lo, hi))
    }
}

impl Add for AffineExpr {
    type Output = AffineExpr;
    fn add(mut self, rhs: AffineExpr) -> AffineExpr {
        self.constant += rhs.constant;
        for &(v, c) in &rhs.terms {
            self.add_term(v, c);
        }
        self
    }
}

impl Sub for AffineExpr {
    type Output = AffineExpr;
    fn sub(self, rhs: AffineExpr) -> AffineExpr {
        self + (-rhs)
    }
}

impl Neg for AffineExpr {
    type Output = AffineExpr;
    fn neg(mut self) -> AffineExpr {
        self.constant = -self.constant;
        self.terms.scale(-1);
        self
    }
}

impl Mul<i64> for AffineExpr {
    type Output = AffineExpr;
    fn mul(mut self, rhs: i64) -> AffineExpr {
        if rhs == 0 {
            return AffineExpr::constant(0);
        }
        self.constant *= rhs;
        self.terms.scale(rhs);
        self
    }
}

impl From<i64> for AffineExpr {
    fn from(c: i64) -> Self {
        AffineExpr::constant(c)
    }
}

impl From<VarId> for AffineExpr {
    fn from(v: VarId) -> Self {
        AffineExpr::var(v)
    }
}

impl fmt::Debug for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl fmt::Display for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for &(v, c) in &self.terms {
            if first {
                if c == 1 {
                    write!(f, "{v}")?;
                } else if c == -1 {
                    write!(f, "-{v}")?;
                } else {
                    write!(f, "{c}*{v}")?;
                }
                first = false;
            } else if c >= 0 {
                if c == 1 {
                    write!(f, "+{v}")?;
                } else {
                    write!(f, "+{c}*{v}")?;
                }
            } else if c == -1 {
                write!(f, "-{v}")?;
            } else {
                write!(f, "{c}*{v}")?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if self.constant > 0 {
            write!(f, "+{}", self.constant)?;
        } else if self.constant < 0 {
            write!(f, "{}", self.constant)?;
        }
        Ok(())
    }
}

/// Greatest common divisor of two non-negative integers (0 is absorbing).
pub fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn k() -> VarId {
        VarId(0)
    }
    fn i() -> VarId {
        VarId(1)
    }

    #[test]
    fn algebra_and_canonical_form() {
        let e = AffineExpr::var(k()) + AffineExpr::constant(1); // k + 1
        let f = AffineExpr::var(k()); // k
        let d = e.clone() - f.clone();
        assert!(d.is_constant());
        assert_eq!(d.constant, 1);
        // k - k cancels completely.
        let z = f.clone() - AffineExpr::var(k());
        assert_eq!(z, AffineExpr::constant(0));
        assert_eq!(e.constant_difference(&f), Some(1));
        // Different variable terms have no constant difference.
        let g = AffineExpr::var(i());
        assert_eq!(e.constant_difference(&g), None);
    }

    #[test]
    fn eval_and_substitute() {
        // 2k + 3i - 4
        let e = AffineExpr::scaled_var(k(), 2) + AffineExpr::scaled_var(i(), 3)
            - AffineExpr::constant(4);
        let env = |v: VarId| match v {
            v if v == k() => Some(5),
            v if v == i() => Some(2),
            _ => None,
        };
        assert_eq!(e.eval(&env), Some(2 * 5 + 3 * 2 - 4));
        // substitute i := k + 1  => 2k + 3(k+1) - 4 = 5k - 1
        let sub = e.substitute(i(), &(AffineExpr::var(k()) + AffineExpr::constant(1)));
        assert_eq!(sub.coeff(k()), 5);
        assert_eq!(sub.constant, -1);
        assert!(!sub.uses(i()));
    }

    #[test]
    fn range_uses_interval_arithmetic() {
        // 2k - 3i, with k in [1, 10], i in [0, 4]
        let e = AffineExpr::scaled_var(k(), 2) - AffineExpr::scaled_var(i(), 3);
        let bounds = |v: VarId| match v {
            v if v == k() => Some((1, 10)),
            v if v == i() => Some((0, 4)),
            _ => None,
        };
        assert_eq!(e.range(&bounds), Some((2 - 12, 20)));
        // Missing bounds propagate as None.
        let missing = |_: VarId| None;
        assert_eq!(e.range(&missing), None);
    }

    #[test]
    fn substitute_params_folds_constants() {
        let nz = VarId(9);
        let e = AffineExpr::var(nz) - AffineExpr::constant(1);
        let folded = e.substitute_params(&|v| if v == nz { Some(33) } else { None });
        assert_eq!(folded, AffineExpr::constant(32));
    }

    #[test]
    fn display_is_readable() {
        let e = AffineExpr::scaled_var(k(), 1) + AffineExpr::constant(1);
        assert_eq!(format!("{e}"), "v0+1");
        assert_eq!(format!("{}", AffineExpr::constant(-3)), "-3");
    }

    /// SplitMix64: a local generator, since this crate sits below the
    /// testkit.
    struct SplitMix(u64);

    impl SplitMix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform in `lo..=hi`.
        fn range(&mut self, lo: i64, hi: i64) -> i64 {
            lo + (self.next() % (hi - lo + 1) as u64) as i64
        }
    }

    /// The reference semantics: a constant and a map of non-zero terms.
    #[derive(Clone, Debug, Default)]
    struct Model {
        constant: i64,
        terms: BTreeMap<VarId, i64>,
    }

    impl Model {
        fn add_term(&mut self, v: VarId, c: i64) {
            let entry = self.terms.entry(v).or_insert(0);
            *entry += c;
            if *entry == 0 {
                self.terms.remove(&v);
            }
        }

        fn add(&mut self, other: &Model) {
            self.constant += other.constant;
            for (&v, &c) in &other.terms {
                self.add_term(v, c);
            }
        }

        fn scale(&mut self, k: i64) {
            self.constant *= k;
            self.terms.retain(|_, c| {
                *c *= k;
                *c != 0
            });
        }

        /// Builds the model's expression, adding its terms in `order`.
        fn build(&self, order: &[usize]) -> AffineExpr {
            let terms: Vec<(VarId, i64)> = self.terms.iter().map(|(&v, &c)| (v, c)).collect();
            let mut e = AffineExpr::constant(self.constant);
            for &i in order {
                e.add_term(terms[i].0, terms[i].1);
            }
            e
        }
    }

    /// A random small expression over `v0..v5`, with its model.
    fn random_expr(rng: &mut SplitMix) -> (AffineExpr, Model) {
        let mut e = AffineExpr::constant(rng.range(-4, 4));
        let mut m = Model {
            constant: e.constant,
            ..Model::default()
        };
        for _ in 0..rng.range(0, 4) {
            let (v, c) = (VarId(rng.range(0, 5) as u32), rng.range(-3, 3));
            e.add_term(v, c);
            m.add_term(v, c);
        }
        (e, m)
    }

    fn hash_of(e: &AffineExpr) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        let mut h = DefaultHasher::new();
        e.hash(&mut h);
        h.finish()
    }

    #[test]
    fn terms_follow_a_sorted_map_model() {
        let mut rng = SplitMix(0x5eed);
        let (mut spilled, mut shrunk_back) = (0, 0);
        for _ in 0..2000 {
            let (mut e, mut m) = random_expr(&mut rng);
            let mut was_spilled = false;
            for _ in 0..12 {
                match rng.range(0, 6) {
                    0 => {
                        let (v, c) = (VarId(rng.range(0, 5) as u32), rng.range(-3, 3));
                        e.add_term(v, c);
                        m.add_term(v, c);
                    }
                    1 => {
                        let (o, om) = random_expr(&mut rng);
                        e = e + o;
                        m.add(&om);
                    }
                    2 => {
                        let (o, mut om) = random_expr(&mut rng);
                        e = e - o;
                        om.scale(-1);
                        m.add(&om);
                    }
                    3 => {
                        let k = rng.range(-2, 2);
                        e = e * k;
                        m.scale(k);
                    }
                    4 => {
                        e = -e;
                        m.scale(-1);
                    }
                    5 => {
                        let v = VarId(rng.range(0, 5) as u32);
                        let (o, mut om) = random_expr(&mut rng);
                        e = e.substitute(v, &o);
                        if let Some(c) = m.terms.remove(&v) {
                            om.scale(c);
                            m.add(&om);
                        }
                    }
                    _ => {
                        let bound = rng.next();
                        let lookup =
                            |v: VarId| (bound >> v.0 & 1 == 1).then_some(i64::from(v.0) + 2);
                        e = e.substitute_params(&lookup);
                        let mut folded = Model {
                            constant: m.constant,
                            ..Model::default()
                        };
                        for (&v, &c) in &m.terms {
                            match lookup(v) {
                                Some(value) => folded.constant += c * value,
                                None => folded.add_term(v, c),
                            }
                        }
                        m = folded;
                    }
                }
                if e.terms.len() > INLINE_TERMS {
                    was_spilled = true;
                    spilled += 1;
                } else if was_spilled {
                    shrunk_back += 1;
                }
                assert_eq!(e.constant, m.constant);
                let expected: Vec<(VarId, i64)> = m.terms.iter().map(|(&v, &c)| (v, c)).collect();
                assert_eq!(e.terms.as_slice(), expected.as_slice(), "{m:?}");
            }
            // The same value built with its terms in reverse order, always
            // inline-first, is equal and hashes alike.
            let order: Vec<usize> = (0..m.terms.len()).rev().collect();
            let rebuilt = m.build(&order);
            assert_eq!(e, rebuilt);
            assert_eq!(hash_of(&e), hash_of(&rebuilt));
        }
        assert!(
            spilled > 100 && shrunk_back > 100,
            "{spilled} {shrunk_back}"
        );
    }

    #[test]
    fn spilled_terms_cancel_back_below_the_inline_capacity() {
        let mut e = AffineExpr::constant(7);
        for v in 0..5 {
            e.add_term(VarId(v), i64::from(v) + 1);
        }
        assert_eq!(e.terms.len(), 5);
        for v in [0, 2, 4] {
            e.add_term(VarId(v), -(i64::from(v) + 1));
        }
        let inline = AffineExpr::constant(7)
            + AffineExpr::scaled_var(VarId(3), 4)
            + AffineExpr::scaled_var(VarId(1), 2);
        assert_eq!(e, inline);
        assert_eq!(hash_of(&e), hash_of(&inline));
        assert_eq!(format!("{e}"), "2*v1+4*v3+7");
        assert_eq!(format!("{:?}", e.terms), "[(1, 2), (3, 4)]");
        assert_eq!(e.terms, inline.terms);
    }

    #[test]
    fn gcd_basics() {
        assert_eq!(gcd(12, 18), 6);
        assert_eq!(gcd(0, 5), 5);
        assert_eq!(gcd(7, 0), 7);
        assert_eq!(gcd(-4, 6), 2);
    }
}
