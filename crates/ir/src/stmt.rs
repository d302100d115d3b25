//! Structured statements: assignments, `IF`, and `DO` loops.
//!
//! The IR is fully structured. A *region* in the paper's sense (Definition 1)
//! is a designated `DO` loop; its *segments* are the loop's iterations
//! (Section 4.2.1: "In our evaluation, regions are loops and segments are
//! loop iterations").

use crate::affine::AffineExpr;
use crate::expr::{Expr, Reference};
use crate::ids::{StmtId, VarId};

/// An assignment `lhs = rhs`.
#[derive(Clone, Debug, PartialEq)]
pub struct Assign {
    /// Statement id.
    pub id: StmtId,
    /// The written reference site.
    pub lhs: Reference,
    /// The right-hand-side expression.
    pub rhs: Expr,
}

/// A two-armed conditional `IF (cond) THEN ... ELSE ... ENDIF`.
#[derive(Clone, Debug, PartialEq)]
pub struct IfStmt {
    /// Statement id.
    pub id: StmtId,
    /// Condition; true when it evaluates to a non-zero value.
    pub cond: Expr,
    /// Statements executed when the condition holds.
    pub then_branch: Vec<Stmt>,
    /// Statements executed otherwise (possibly empty).
    pub else_branch: Vec<Stmt>,
}

/// A counted `DO` loop with affine bounds and a non-zero constant step.
///
/// With `while_cond` set the loop is a *bounded WHILE*: the counted bounds
/// cap the trip count, but before every iteration (including the first,
/// unless the counted range is already empty) the condition is evaluated as
/// one statement unit; a zero value terminates the loop early. The trip
/// count is therefore data-dependent and unknown at lowering time.
#[derive(Clone, Debug, PartialEq)]
pub struct LoopStmt {
    /// Statement id.
    pub id: StmtId,
    /// Optional label, e.g. `"BUTS_DO1"`, used to designate regions.
    pub label: Option<String>,
    /// The loop-index variable.
    pub index: VarId,
    /// Lower bound (inclusive), affine in enclosing indices and parameters.
    pub lower: AffineExpr,
    /// Upper bound (inclusive), affine in enclosing indices and parameters.
    pub upper: AffineExpr,
    /// Constant step; negative steps iterate downwards.
    pub step: i64,
    /// Optional data-dependent continuation condition, evaluated before
    /// each iteration; `None` for a plain counted `DO`.
    pub while_cond: Option<Expr>,
    /// Loop body.
    pub body: Vec<Stmt>,
}

impl LoopStmt {
    /// Number of iterations for concrete bound values `lower..=upper`.
    pub fn trip_count(lower: i64, upper: i64, step: i64) -> usize {
        if step > 0 {
            if upper < lower {
                0
            } else {
                ((upper - lower) / step + 1) as usize
            }
        } else if step < 0 {
            if upper > lower {
                0
            } else {
                ((lower - upper) / (-step) + 1) as usize
            }
        } else {
            0
        }
    }
}

/// A structured statement.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// An assignment.
    Assign(Assign),
    /// A conditional.
    If(IfStmt),
    /// A counted loop.
    Loop(LoopStmt),
}

impl Stmt {
    /// The statement id.
    pub fn id(&self) -> StmtId {
        match self {
            Stmt::Assign(a) => a.id,
            Stmt::If(i) => i.id,
            Stmt::Loop(l) => l.id,
        }
    }

    /// Visits this statement and all nested statements, outer first.
    pub fn for_each_stmt<'a>(&'a self, f: &mut impl FnMut(&'a Stmt)) {
        f(self);
        match self {
            Stmt::Assign(_) => {}
            Stmt::If(i) => {
                for s in i.then_branch.iter().chain(&i.else_branch) {
                    s.for_each_stmt(f);
                }
            }
            Stmt::Loop(l) => {
                for s in &l.body {
                    s.for_each_stmt(f);
                }
            }
        }
    }

    /// Visits every reference site in the statement (and nested statements)
    /// together with its access direction: `f(reference, is_write)`.
    ///
    /// Within one assignment the order is: right-hand-side reads, indirect
    /// subscript reads of the left-hand side, then the left-hand-side write —
    /// the order in which the executor performs the accesses.
    pub fn for_each_ref<'a>(&'a self, f: &mut impl FnMut(&'a Reference, bool)) {
        match self {
            Stmt::Assign(a) => {
                a.rhs.for_each_read(&mut |r| f(r, false));
                for inner in a.lhs.indirect_reads() {
                    f(inner, false);
                }
                f(&a.lhs, true);
            }
            Stmt::If(i) => {
                i.cond.for_each_read(&mut |r| f(r, false));
                for s in i.then_branch.iter().chain(&i.else_branch) {
                    s.for_each_ref(f);
                }
            }
            Stmt::Loop(l) => {
                if let Some(c) = &l.while_cond {
                    c.for_each_read(&mut |r| f(r, false));
                }
                for s in &l.body {
                    s.for_each_ref(f);
                }
            }
        }
    }

    /// Finds the loop statement with the given label, searching nested
    /// statements.
    pub fn find_loop(&self, label: &str) -> Option<&LoopStmt> {
        let mut found = None;
        self.for_each_stmt(&mut |s| {
            if found.is_none() {
                if let Stmt::Loop(l) = s {
                    if l.label.as_deref() == Some(label) {
                        found = Some(l);
                    }
                }
            }
        });
        found
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BinOp, Subscript};
    use crate::ids::RefId;

    fn sref(id: u32, var: u32) -> Reference {
        Reference {
            id: RefId(id),
            var: VarId(var),
            subs: vec![],
        }
    }

    #[test]
    fn trip_count_handles_both_directions_and_empty_loops() {
        assert_eq!(LoopStmt::trip_count(2, 10, 1), 9);
        assert_eq!(LoopStmt::trip_count(10, 2, -1), 9);
        assert_eq!(LoopStmt::trip_count(2, 10, 2), 5);
        assert_eq!(LoopStmt::trip_count(5, 4, 1), 0);
        assert_eq!(LoopStmt::trip_count(4, 5, -1), 0);
        assert_eq!(LoopStmt::trip_count(1, 10, 0), 0);
    }

    #[test]
    fn reference_walk_orders_reads_before_writes() {
        // a = b + c
        let st = Stmt::Assign(Assign {
            id: StmtId(0),
            lhs: sref(0, 0),
            rhs: Expr::bin(BinOp::Add, Expr::Load(sref(1, 1)), Expr::Load(sref(2, 2))),
        });
        let mut order = Vec::new();
        st.for_each_ref(&mut |r, w| order.push((r.id.0, w)));
        assert_eq!(order, vec![(1, false), (2, false), (0, true)]);
    }

    #[test]
    fn lhs_indirect_subscripts_are_read_before_the_write() {
        // K(E) = 1.0   — E is read, then K(E) is written
        let st = Stmt::Assign(Assign {
            id: StmtId(0),
            lhs: Reference {
                id: RefId(0),
                var: VarId(5),
                subs: vec![Subscript::Indirect(Box::new(sref(1, 6)))],
            },
            rhs: Expr::Const(1.0),
        });
        let mut order = Vec::new();
        st.for_each_ref(&mut |r, w| order.push((r.id.0, w)));
        assert_eq!(order, vec![(1, false), (0, true)]);
    }

    #[test]
    fn find_loop_by_label() {
        let inner = Stmt::Loop(LoopStmt {
            id: StmtId(1),
            label: Some("INNER_DO".into()),
            index: VarId(0),
            lower: AffineExpr::constant(1),
            upper: AffineExpr::constant(4),
            step: 1,
            while_cond: None,
            body: vec![],
        });
        let outer = Stmt::Loop(LoopStmt {
            id: StmtId(0),
            label: Some("OUTER_DO".into()),
            index: VarId(1),
            lower: AffineExpr::constant(1),
            upper: AffineExpr::constant(4),
            step: 1,
            while_cond: None,
            body: vec![inner],
        });
        assert!(outer.find_loop("INNER_DO").is_some());
        assert!(outer.find_loop("OUTER_DO").is_some());
        assert!(outer.find_loop("MISSING").is_none());
    }
}
