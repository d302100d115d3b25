//! Fortran-flavoured pretty printing of procedures and programs.
//!
//! Used by the examples and the figure harnesses to show the analyzed loops
//! in a form close to the paper's listings (e.g. Figure 4).

use crate::expr::{BinOp, CmpOp, Expr, Reference, Subscript};
use crate::program::{Procedure, Program};
use crate::stmt::Stmt;
use crate::var::VarTable;
use std::fmt::Write as _;

/// Pretty prints a whole program.
pub fn program_to_string(p: &Program) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "program {}", p.name);
    for proc in &p.procedures {
        out.push_str(&procedure_to_string(proc));
    }
    out
}

/// Pretty prints one procedure.
pub fn procedure_to_string(p: &Procedure) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "subroutine {}", p.name);
    for (_, info) in p.vars.iter() {
        let _ = writeln!(out, "  {info}");
    }
    for s in &p.body {
        stmt_to_string(&p.vars, s, 1, &mut out);
    }
    let _ = writeln!(out, "end");
    out
}

/// Pretty prints a statement list at the given indentation depth.
pub fn stmts_to_string(vars: &VarTable, stmts: &[Stmt], depth: usize) -> String {
    let mut out = String::new();
    for s in stmts {
        stmt_to_string(vars, s, depth, &mut out);
    }
    out
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn stmt_to_string(vars: &VarTable, s: &Stmt, depth: usize, out: &mut String) {
    match s {
        Stmt::Assign(a) => {
            indent(out, depth);
            let _ = writeln!(
                out,
                "{} = {}",
                reference_to_string(vars, &a.lhs),
                expr_to_string(vars, &a.rhs)
            );
        }
        Stmt::If(i) => {
            indent(out, depth);
            let _ = writeln!(out, "if ({}) then", expr_to_string(vars, &i.cond));
            for st in &i.then_branch {
                stmt_to_string(vars, st, depth + 1, out);
            }
            if !i.else_branch.is_empty() {
                indent(out, depth);
                let _ = writeln!(out, "else");
                for st in &i.else_branch {
                    stmt_to_string(vars, st, depth + 1, out);
                }
            }
            indent(out, depth);
            let _ = writeln!(out, "endif");
        }
        Stmt::Loop(l) => {
            indent(out, depth);
            let mut label = l
                .label
                .as_ref()
                .map(|s| format!("  ! {s}"))
                .unwrap_or_default();
            if let Some(c) = &l.while_cond {
                label = format!(" while ({}){}", expr_to_string(vars, c), label);
            }
            if l.step == 1 {
                let _ = writeln!(
                    out,
                    "do {} = {}, {}{}",
                    vars.name(l.index),
                    affine_to_string(vars, &l.lower),
                    affine_to_string(vars, &l.upper),
                    label
                );
            } else {
                let _ = writeln!(
                    out,
                    "do {} = {}, {}, {}{}",
                    vars.name(l.index),
                    affine_to_string(vars, &l.lower),
                    affine_to_string(vars, &l.upper),
                    l.step,
                    label
                );
            }
            for st in &l.body {
                stmt_to_string(vars, st, depth + 1, out);
            }
            indent(out, depth);
            let _ = writeln!(out, "end do");
        }
    }
}

/// Renders an affine expression with variable names.
pub fn affine_to_string(vars: &VarTable, e: &crate::affine::AffineExpr) -> String {
    let mut out = String::new();
    let mut first = true;
    for &(v, c) in &e.terms {
        let name = vars.name(v);
        if first {
            match c {
                1 => out.push_str(name),
                -1 => {
                    let _ = write!(out, "-{name}");
                }
                _ => {
                    let _ = write!(out, "{c}*{name}");
                }
            }
            first = false;
        } else {
            match c {
                1 => {
                    let _ = write!(out, "+{name}");
                }
                -1 => {
                    let _ = write!(out, "-{name}");
                }
                c if c > 0 => {
                    let _ = write!(out, "+{c}*{name}");
                }
                _ => {
                    let _ = write!(out, "{c}*{name}");
                }
            }
        }
    }
    if first {
        let _ = write!(out, "{}", e.constant);
    } else if e.constant > 0 {
        let _ = write!(out, "+{}", e.constant);
    } else if e.constant < 0 {
        let _ = write!(out, "{}", e.constant);
    }
    out
}

/// Renders a memory reference with variable names.
pub fn reference_to_string(vars: &VarTable, r: &Reference) -> String {
    let mut out = vars.name(r.var).to_string();
    if !r.subs.is_empty() {
        out.push('(');
        for (i, s) in r.subs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match s {
                Subscript::Affine(e) => out.push_str(&affine_to_string(vars, e)),
                Subscript::Indirect(inner) => out.push_str(&reference_to_string(vars, inner)),
            }
        }
        out.push(')');
    }
    out
}

/// Renders an expression with variable names.
pub fn expr_to_string(vars: &VarTable, e: &Expr) -> String {
    match e {
        Expr::Const(c) => format!("{c}"),
        Expr::Index(v) => vars.name(*v).to_string(),
        Expr::Load(r) => reference_to_string(vars, r),
        Expr::Neg(a) => format!("-({})", expr_to_string(vars, a)),
        Expr::Bin(op, a, b) => {
            let sym = match op {
                BinOp::Add => "+",
                BinOp::Sub => "-",
                BinOp::Mul => "*",
                BinOp::Div => "/",
                BinOp::Min => {
                    return format!(
                        "min({}, {})",
                        expr_to_string(vars, a),
                        expr_to_string(vars, b)
                    )
                }
                BinOp::Max => {
                    return format!(
                        "max({}, {})",
                        expr_to_string(vars, a),
                        expr_to_string(vars, b)
                    )
                }
            };
            format!(
                "({} {} {})",
                expr_to_string(vars, a),
                sym,
                expr_to_string(vars, b)
            )
        }
        Expr::Cmp(op, a, b) => {
            let sym = match op {
                CmpOp::Eq => ".eq.",
                CmpOp::Ne => ".ne.",
                CmpOp::Lt => ".lt.",
                CmpOp::Le => ".le.",
                CmpOp::Gt => ".gt.",
                CmpOp::Ge => ".ge.",
            };
            format!(
                "({} {} {})",
                expr_to_string(vars, a),
                sym,
                expr_to_string(vars, b)
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{ac, add, av, idx, ProcBuilder};

    #[test]
    fn pretty_prints_a_loop_nest() {
        let mut b = ProcBuilder::new("toy");
        let v = b.array("v", &[5, 8]);
        let k = b.index("k");
        let m = b.index("m");
        let s1 = {
            let rhs = add(b.load_elem(v, vec![av(m), av(k) + ac(1)]), idx(k));
            b.assign_elem(v, vec![av(m), av(k)], rhs)
        };
        let inner = b.do_loop(m, ac(1), ac(5), vec![s1]);
        let body = vec![b.do_loop_labeled("TOY_DO1", k, ac(2), ac(7), vec![inner])];
        let proc = b.build(body);
        let text = procedure_to_string(&proc);
        assert!(text.contains("subroutine toy"));
        assert!(text.contains("do k = 2, 7  ! TOY_DO1"));
        assert!(text.contains("v(m,k) = (v(m,k+1) + k)"));
        assert!(text.contains("end do"));
    }

    #[test]
    fn pretty_prints_program_wrapper() {
        let mut prog = Program::new("bench");
        let b = ProcBuilder::new("empty");
        prog.add_procedure(b.build(vec![]));
        let text = program_to_string(&prog);
        assert!(text.starts_with("program bench"));
        assert!(text.contains("subroutine empty"));
    }
}
