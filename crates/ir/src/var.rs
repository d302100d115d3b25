//! Variables and the per-procedure symbol table.
//!
//! The paper distinguishes ordinary program variables (scalars and arrays,
//! which live in memory and are subject to speculation) from *loop
//! variables*, which the Multiplex architecture keeps non-speculative
//! through explicit synchronization (Section 4.2.2). We additionally model
//! compile-time *parameters* (e.g. `nx`, `ny`, `nz`) whose values are known
//! to the analysis, mirroring the statically-known Fortran dimensions of the
//! benchmark programs.

use crate::ids::VarId;
use std::fmt;

/// The kind of a variable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VarKind {
    /// A scalar program variable occupying one memory cell.
    Scalar,
    /// An array program variable with statically known extents (Fortran
    /// style: column-major, unit lower bounds).
    Array {
        /// Extent of every dimension, innermost (leftmost subscript) first.
        dims: Vec<usize>,
    },
    /// A loop-index variable. Loop indices are held in registers and are
    /// guaranteed non-speculative by the architecture, so they never appear
    /// in the reference tables.
    Index,
    /// A compile-time integer parameter with a known value.
    Param(i64),
}

impl VarKind {
    /// Number of memory cells the variable occupies (0 for indices/params).
    pub fn size(&self) -> usize {
        match self {
            VarKind::Scalar => 1,
            VarKind::Array { dims } => dims.iter().product::<usize>().max(1),
            VarKind::Index | VarKind::Param(_) => 0,
        }
    }

    /// True for scalars and arrays — the variables that occupy memory.
    pub fn is_data(&self) -> bool {
        matches!(self, VarKind::Scalar | VarKind::Array { .. })
    }
}

/// A variable declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VarInfo {
    /// Source-level name, used for pretty printing and for looking
    /// variables up in tests.
    pub name: String,
    /// The variable's kind.
    pub kind: VarKind,
}

/// The symbol table of a procedure.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VarTable {
    vars: Vec<VarInfo>,
}

impl VarTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        VarTable { vars: Vec::new() }
    }

    /// Declares a variable and returns its id.
    ///
    /// # Panics
    ///
    /// If `kind` is an array with a zero extent: such an array has no
    /// element for a subscript to clamp into.
    pub fn declare(&mut self, name: impl Into<String>, kind: VarKind) -> VarId {
        let name = name.into();
        if let VarKind::Array { dims } = &kind {
            if let Some(d) = dims.iter().position(|&extent| extent == 0) {
                panic!("array `{name}` has a zero extent in dimension {}", d + 1);
            }
        }
        let id = VarId::from_index(self.vars.len());
        self.vars.push(VarInfo { name, kind });
        id
    }

    /// Number of declared variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// True when no variable has been declared.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Looks a variable up by id.
    pub fn info(&self, v: VarId) -> &VarInfo {
        &self.vars[v.index()]
    }

    /// Name of a variable.
    pub fn name(&self, v: VarId) -> &str {
        &self.vars[v.index()].name
    }

    /// Kind of a variable.
    pub fn kind(&self, v: VarId) -> &VarKind {
        &self.vars[v.index()].kind
    }

    /// Finds a variable by name.
    pub fn lookup(&self, name: &str) -> Option<VarId> {
        self.vars
            .iter()
            .position(|v| v.name == name)
            .map(VarId::from_index)
    }

    /// Value of a parameter variable, if `v` is one.
    pub fn param_value(&self, v: VarId) -> Option<i64> {
        match self.kind(v) {
            VarKind::Param(value) => Some(*value),
            _ => None,
        }
    }

    /// Iterates over `(id, info)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, &VarInfo)> {
        self.vars
            .iter()
            .enumerate()
            .map(|(i, v)| (VarId::from_index(i), v))
    }

    /// Iterates over the data variables (scalars and arrays) only.
    pub fn data_vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.iter()
            .filter(|(_, info)| info.kind.is_data())
            .map(|(id, _)| id)
    }
}

impl fmt::Display for VarInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            VarKind::Scalar => write!(f, "real {}", self.name),
            VarKind::Array { dims } => {
                write!(f, "real {}(", self.name)?;
                for (i, d) in dims.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{d}")?;
                }
                write!(f, ")")
            }
            VarKind::Index => write!(f, "integer {}", self.name),
            VarKind::Param(v) => write!(f, "parameter {} = {}", self.name, v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_and_lookup() {
        let mut t = VarTable::new();
        let a = t.declare("a", VarKind::Scalar);
        let v = t.declare(
            "v",
            VarKind::Array {
                dims: vec![5, 10, 10, 10],
            },
        );
        let k = t.declare("k", VarKind::Index);
        let nz = t.declare("nz", VarKind::Param(10));
        assert_eq!(t.len(), 4);
        assert_eq!(t.lookup("v"), Some(v));
        assert_eq!(t.lookup("missing"), None);
        assert_eq!(t.kind(a), &VarKind::Scalar);
        assert_eq!(t.kind(v).size(), 5000);
        assert_eq!(t.kind(k).size(), 0);
        assert_eq!(t.param_value(nz), Some(10));
        assert_eq!(t.param_value(a), None);
        assert_eq!(t.data_vars().count(), 2);
    }

    #[test]
    #[should_panic(expected = "array `a` has a zero extent in dimension 2")]
    fn zero_extent_arrays_are_rejected() {
        crate::build::ProcBuilder::new("t").array("a", &[4, 0]);
    }

    #[test]
    fn display_formats() {
        let info = VarInfo {
            name: "v".into(),
            kind: VarKind::Array { dims: vec![5, 34] },
        };
        assert_eq!(format!("{info}"), "real v(5,34)");
        let p = VarInfo {
            name: "nz".into(),
            kind: VarKind::Param(34),
        };
        assert_eq!(format!("{p}"), "parameter nz = 34");
    }
}
