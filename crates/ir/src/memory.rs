//! Flat-address memory model and variable layout.
//!
//! Every data variable of a procedure is assigned a contiguous range of
//! word-granular addresses. The speculative-storage structures of the
//! simulator track individual [`Addr`]s, matching the word-level reference
//! tracking of the paper's speculative versioning hardware.

use crate::ids::VarId;
use crate::var::{VarKind, VarTable};
use std::fmt;

/// A word-granular memory address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(pub u64);

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

/// Extent and precomputed column-major stride of one array dimension.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DimInfo {
    /// Number of elements along the dimension (Fortran extent, unit lower
    /// bound).
    pub extent: i64,
    /// Distance in words between consecutive elements along the dimension.
    pub stride: u64,
}

/// The address layout of a procedure's data variables.
///
/// Dimension metadata for every variable is stored in one flat arena
/// (`dim_data`) with per-variable `(start, len)` ranges instead of one
/// heap-allocated vector per variable: building a layout performs a single
/// pass over the symbol table without cloning any dimension vectors, and
/// [`Layout::element`] reads precomputed strides instead of re-multiplying
/// extents on every access.
#[derive(Clone, Debug, Default)]
pub struct Layout {
    base: Vec<u64>,
    dim_ranges: Vec<(u32, u32)>,
    dim_data: Vec<DimInfo>,
    total: u64,
}

impl Layout {
    /// Builds the layout for a symbol table: variables are placed in
    /// declaration order; arrays are column-major (Fortran order) with unit
    /// lower bounds.
    pub fn new(vars: &VarTable) -> Self {
        let mut base = Vec::with_capacity(vars.len());
        let mut dim_ranges = Vec::with_capacity(vars.len());
        let mut dim_data = Vec::new();
        let mut next = 0u64;
        for (_, info) in vars.iter() {
            base.push(next);
            let start = dim_data.len() as u32;
            match &info.kind {
                VarKind::Array { dims: d } => {
                    let mut stride = 1u64;
                    for &extent in d {
                        dim_data.push(DimInfo {
                            extent: extent as i64,
                            stride,
                        });
                        stride *= extent as u64;
                    }
                    dim_ranges.push((start, d.len() as u32));
                    next += d.iter().product::<usize>().max(1) as u64;
                }
                VarKind::Scalar => {
                    dim_ranges.push((start, 0));
                    next += 1;
                }
                VarKind::Index | VarKind::Param(_) => {
                    dim_ranges.push((start, 0));
                }
            }
        }
        Layout {
            base,
            dim_ranges,
            dim_data,
            total: next,
        }
    }

    /// Total number of addressable words.
    pub fn total_words(&self) -> u64 {
        self.total
    }

    /// Base address of a variable.
    pub fn base(&self, v: VarId) -> Addr {
        Addr(self.base[v.index()])
    }

    /// Dimension extents and strides of a variable (empty for scalars).
    pub fn dims(&self, v: VarId) -> &[DimInfo] {
        let (start, len) = self.dim_ranges[v.index()];
        &self.dim_data[start as usize..(start + len) as usize]
    }

    /// Address of a scalar variable.
    pub fn scalar(&self, v: VarId) -> Addr {
        debug_assert!(self.dims(v).is_empty());
        Addr(self.base[v.index()])
    }

    /// Address of an array element. Subscripts are 1-based (Fortran);
    /// out-of-bounds subscripts are clamped into range so that interpreted
    /// executions remain total (mirroring the paper's assumption that
    /// addresses are always valid).
    pub fn element(&self, v: VarId, subscripts: &[i64]) -> Addr {
        let dims = self.dims(v);
        if dims.is_empty() {
            return Addr(self.base[v.index()]);
        }
        debug_assert_eq!(dims.len(), subscripts.len(), "subscript arity mismatch");
        // Column-major: first subscript varies fastest.
        let mut offset: u64 = 0;
        for (d, &s) in dims.iter().zip(subscripts) {
            let idx = (s - 1).clamp(0, d.extent - 1) as u64;
            offset += idx * d.stride;
        }
        Addr(self.base[v.index()] + offset)
    }

    /// The variable owning an address, if any (linear scan; used only for
    /// diagnostics and tests).
    pub fn owner(&self, vars: &VarTable, addr: Addr) -> Option<VarId> {
        for (id, info) in vars.iter() {
            if !info.kind.is_data() {
                continue;
            }
            let base = self.base[id.index()];
            let size = info.kind.size() as u64;
            if addr.0 >= base && addr.0 < base + size {
                return Some(id);
            }
        }
        None
    }
}

/// A flat word-addressed memory holding `f64` values. The default value
/// has no words.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Memory {
    words: Vec<f64>,
}

impl Memory {
    /// Creates a zero-initialized memory for a layout.
    pub fn zeroed(layout: &Layout) -> Self {
        Memory {
            words: vec![0.0; layout.total_words() as usize],
        }
    }

    /// Creates a memory initialized by a function of the address.
    pub fn init_with(layout: &Layout, f: impl Fn(Addr) -> f64) -> Self {
        Memory {
            words: (0..layout.total_words()).map(|a| f(Addr(a))).collect(),
        }
    }

    /// Overwrites this memory with a copy of `other`, reusing this
    /// memory's allocation when it is large enough.
    pub fn copy_from(&mut self, other: &Memory) {
        self.words.clone_from(&other.words);
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when the memory has no words.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Loads a word.
    #[inline]
    pub fn load(&self, addr: Addr) -> f64 {
        self.words[addr.0 as usize]
    }

    /// Stores a word.
    #[inline]
    pub fn store(&mut self, addr: Addr, value: f64) {
        self.words[addr.0 as usize] = value;
    }

    /// Addresses (with values) at which two memories differ, up to `limit`
    /// entries. Used by the simulator's functional-equivalence checks.
    pub fn diff(&self, other: &Memory, limit: usize) -> Vec<(Addr, f64, f64)> {
        let mut out = Vec::new();
        for (i, (a, b)) in self.words.iter().zip(&other.words).enumerate() {
            if a != b && out.len() < limit {
                out.push((Addr(i as u64), *a, *b));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::var::{VarKind, VarTable};

    fn table() -> (VarTable, VarId, VarId, VarId) {
        let mut t = VarTable::new();
        let a = t.declare("a", VarKind::Scalar);
        let v = t.declare("v", VarKind::Array { dims: vec![3, 4] });
        let b = t.declare("b", VarKind::Scalar);
        t.declare("k", VarKind::Index);
        (t, a, v, b)
    }

    #[test]
    fn layout_is_contiguous_and_column_major() {
        let (t, a, v, b) = table();
        let layout = Layout::new(&t);
        assert_eq!(layout.total_words(), 1 + 12 + 1);
        assert_eq!(layout.scalar(a), Addr(0));
        assert_eq!(layout.base(v), Addr(1));
        // v(1,1) is the base; v(2,1) is base+1 (first subscript fastest);
        // v(1,2) is base+3.
        assert_eq!(layout.element(v, &[1, 1]), Addr(1));
        assert_eq!(layout.element(v, &[2, 1]), Addr(2));
        assert_eq!(layout.element(v, &[1, 2]), Addr(4));
        assert_eq!(layout.scalar(b), Addr(13));
        assert_eq!(layout.owner(&t, Addr(5)), Some(v));
        assert_eq!(layout.owner(&t, Addr(0)), Some(a));
        assert_eq!(layout.owner(&t, Addr(99)), None);
    }

    #[test]
    fn out_of_bounds_subscripts_are_clamped() {
        let (t, _, v, _) = table();
        let layout = Layout::new(&t);
        assert_eq!(layout.element(v, &[0, 1]), layout.element(v, &[1, 1]));
        assert_eq!(layout.element(v, &[99, 4]), layout.element(v, &[3, 4]));
    }

    #[test]
    fn memory_load_store_and_diff() {
        let (t, a, v, _) = table();
        let layout = Layout::new(&t);
        let mut m1 = Memory::zeroed(&layout);
        let m2 = Memory::zeroed(&layout);
        m1.store(layout.scalar(a), 4.0);
        m1.store(layout.element(v, &[2, 2]), 7.0);
        let d = m1.diff(&m2, 10);
        assert_eq!(d.len(), 2);
        assert_eq!(m1.load(layout.scalar(a)), 4.0);
        let init = Memory::init_with(&layout, |addr| addr.0 as f64);
        assert_eq!(init.load(Addr(5)), 5.0);
        // A copy into an existing memory keeps its allocation.
        let mut copy = Memory::zeroed(&layout);
        let buffer = copy.words.as_ptr();
        copy.copy_from(&m1);
        assert_eq!(copy, m1);
        assert_eq!(copy.words.as_ptr(), buffer, "copy_from reallocated");
        let mut empty = Memory::default();
        assert!(empty.is_empty());
        empty.copy_from(&init);
        assert_eq!(empty, init);
    }
}
