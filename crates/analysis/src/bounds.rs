//! Evaluation of loop bounds to integer intervals.
//!
//! The dependence tests and the body summaries need conservative numeric
//! ranges for loop-index variables. Loop bounds are affine in enclosing
//! indices and parameters; parameters have statically known values
//! ([`refidem_ir::var::VarKind::Param`]), so bounds can be folded to
//! intervals by interval arithmetic over the enclosing loops' intervals.

use refidem_ir::affine::AffineExpr;
use refidem_ir::ids::VarId;
use refidem_ir::sites::LoopContext;
use refidem_ir::stmt::LoopStmt;
use refidem_ir::var::VarTable;

/// A map from index variables to conservative `[lo, hi]` value intervals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IndexBounds {
    /// `(variable, (lo, hi))` sorted by variable: a site binds its region
    /// index and a few enclosing loops, so a short list beats a map.
    bound: Vec<(VarId, (i64, i64))>,
}

impl IndexBounds {
    /// An empty bounds environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the interval of an index variable, if known.
    pub fn get(&self, v: VarId) -> Option<(i64, i64)> {
        self.find(v).ok().map(|i| self.bound[i].1)
    }

    /// Binds an index variable to an interval.
    pub fn bind(&mut self, v: VarId, lo: i64, hi: i64) {
        let interval = (lo.min(hi), lo.max(hi));
        match self.find(v) {
            Ok(i) => self.bound[i].1 = interval,
            Err(i) => self.bound.insert(i, (v, interval)),
        }
    }

    fn find(&self, v: VarId) -> Result<usize, usize> {
        self.bound.binary_search_by_key(&v, |&(w, _)| w)
    }

    /// Evaluates an affine expression to an interval, folding parameters
    /// first. Returns `None` when a mentioned variable is unbounded.
    pub fn range(&self, vars: &VarTable, e: &AffineExpr) -> Option<(i64, i64)> {
        let folded = e.substitute_params(&|v| vars.param_value(v));
        folded.range(&|v| self.get(v))
    }

    /// Adds the interval of a loop's index variable given its bounds, and
    /// returns the loop's conservative trip-count interval `[min, max]`.
    pub fn enter_loop(
        &mut self,
        vars: &VarTable,
        index: VarId,
        lower: &AffineExpr,
        upper: &AffineExpr,
        step: i64,
    ) -> Option<(usize, usize)> {
        let (llo, lhi) = self.range(vars, lower)?;
        let (ulo, uhi) = self.range(vars, upper)?;
        // The index ranges over the union of all possible executions.
        let (ilo, ihi) = if step > 0 {
            (llo, uhi.max(llo))
        } else {
            (ulo.min(lhi), lhi)
        };
        self.bind(index, ilo, ihi);
        let min_trip = if step > 0 {
            LoopStmt::trip_count(lhi, ulo, step)
        } else {
            LoopStmt::trip_count(llo, uhi, step)
        };
        let max_trip = if step > 0 {
            LoopStmt::trip_count(llo, uhi, step)
        } else {
            LoopStmt::trip_count(lhi, ulo, step)
        };
        Some((min_trip, max_trip))
    }

    /// Builds the bounds environment for a reference site: the region loop's
    /// index interval plus the site's enclosing inner loops.
    pub fn for_site(vars: &VarTable, region: &LoopStmt, site_loops: &[LoopContext]) -> IndexBounds {
        let mut b = IndexBounds::new();
        b.reset_to_site(vars, region, site_loops);
        b
    }

    /// Makes `self` the environment [`IndexBounds::for_site`] builds,
    /// reusing its storage.
    pub fn reset_to_site(
        &mut self,
        vars: &VarTable,
        region: &LoopStmt,
        site_loops: &[LoopContext],
    ) {
        self.bound.clear();
        self.enter_loop(
            vars,
            region.index,
            &region.lower,
            &region.upper,
            region.step,
        );
        for l in site_loops {
            self.enter_loop(vars, l.index, &l.lower, &l.upper, l.step);
        }
    }
}

/// Concrete `(lower, upper)` bounds of a loop whose bounds are constant
/// after parameter folding (used by the simulator to enumerate segments).
pub fn constant_loop_bounds(vars: &VarTable, l: &LoopStmt) -> Option<(i64, i64)> {
    let lower = l.lower.substitute_params(&|v| vars.param_value(v));
    let upper = l.upper.substitute_params(&|v| vars.param_value(v));
    if lower.is_constant() && upper.is_constant() {
        Some((lower.constant, upper.constant))
    } else {
        None
    }
}

/// True when the loop executes at least one iteration on every execution
/// (its minimum trip count is at least one).
pub fn always_executes(
    vars: &VarTable,
    bounds: &IndexBounds,
    lower: &AffineExpr,
    upper: &AffineExpr,
    step: i64,
) -> bool {
    let Some((llo, lhi)) = bounds.range(vars, lower) else {
        return false;
    };
    let Some((ulo, uhi)) = bounds.range(vars, upper) else {
        return false;
    };
    if step > 0 {
        LoopStmt::trip_count(lhi, ulo, step) >= 1
    } else {
        LoopStmt::trip_count(llo, uhi, step) >= 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refidem_ir::build::{ac, av, ProcBuilder};
    use refidem_ir::ids::StmtId;

    #[test]
    fn parameter_folding_and_intervals() {
        let mut b = ProcBuilder::new("t");
        let nz = b.param("nz", 34);
        let k = b.index("k");
        let vars = b.vars().clone();
        let mut bounds = IndexBounds::new();
        // do k = 2, nz-1
        let trip = bounds
            .enter_loop(&vars, k, &ac(2), &(av(nz) - ac(1)), 1)
            .unwrap();
        assert_eq!(bounds.get(k), Some((2, 33)));
        assert_eq!(trip, (32, 32));
        // an expression over k: k+1 in [3, 34]
        assert_eq!(bounds.range(&vars, &(av(k) + ac(1))), Some((3, 34)));
    }

    #[test]
    fn triangular_inner_loops_get_conservative_intervals() {
        let mut b = ProcBuilder::new("t");
        let k = b.index("k");
        let j = b.index("j");
        let vars = b.vars().clone();
        let mut bounds = IndexBounds::new();
        bounds.enter_loop(&vars, k, &ac(1), &ac(10), 1);
        // do j = 1, k   (triangular)
        let trip = bounds.enter_loop(&vars, j, &ac(1), &av(k), 1).unwrap();
        assert_eq!(bounds.get(j), Some((1, 10)));
        assert_eq!(trip, (1, 10));
    }

    #[test]
    fn descending_loops_and_emptiness() {
        let mut b = ProcBuilder::new("t");
        let k = b.index("k");
        let vars = b.vars().clone();
        let mut bounds = IndexBounds::new();
        bounds.enter_loop(&vars, k, &ac(10), &ac(2), -1);
        assert_eq!(bounds.get(k), Some((2, 10)));
        assert!(always_executes(&vars, &bounds, &ac(10), &ac(2), -1));
        assert!(!always_executes(&vars, &bounds, &ac(1), &ac(2), -1));
        assert!(always_executes(&vars, &bounds, &ac(1), &ac(2), 1));
    }

    #[test]
    fn constant_bounds_extraction() {
        let mut b = ProcBuilder::new("t");
        let n = b.param("n", 16);
        let k = b.index("k");
        let vars = b.vars().clone();
        let loop_stmt = refidem_ir::stmt::LoopStmt {
            id: StmtId(0),
            label: None,
            index: k,
            lower: ac(1),
            upper: av(n),
            step: 1,
            while_cond: None,
            body: vec![],
        };
        assert_eq!(constant_loop_bounds(&vars, &loop_stmt), Some((1, 16)));
    }
}
