//! Binding tables: the intermediate results of formula evaluation.
//!
//! A [`Table`] is a set of assignments from a fixed list of variables to
//! universe elements — a relation with named columns. The evaluator
//! compiles formulas to operations on tables: scans, hash joins,
//! antijoins, projections, unions, extensions, and complements.

use crate::fxhash::{FxHashMap, FxHashSet};
use crate::intern::Sym;
use crate::tuple::{all_tuples, Elem, Tuple, MAX_ARITY};
use std::collections::HashSet;
use std::fmt;

/// A set of variable assignments (rows) over named columns.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Table {
    vars: Vec<Sym>,
    rows: Vec<Tuple>,
}

impl Table {
    /// The unit table: no columns, a single empty row. Identity for join;
    /// the denotation of a true sentence.
    pub fn unit() -> Table {
        Table {
            vars: Vec::new(),
            rows: vec![Tuple::empty()],
        }
    }

    /// An empty table over the given columns. The denotation of a false
    /// formula.
    pub fn empty(vars: Vec<Sym>) -> Table {
        Table {
            vars,
            rows: Vec::new(),
        }
    }

    /// Build from columns and rows; deduplicates.
    ///
    /// # Panics
    /// Panics if columns repeat, exceed [`MAX_ARITY`], or any row has the
    /// wrong width.
    pub fn new(vars: Vec<Sym>, rows: Vec<Tuple>) -> Table {
        assert!(vars.len() <= MAX_ARITY, "too many columns");
        let mut seen = HashSet::new();
        assert!(
            vars.iter().all(|v| seen.insert(*v)),
            "duplicate column in table"
        );
        debug_assert!(rows.iter().all(|r| r.len() == vars.len()));
        let mut t = Table { vars, rows };
        t.dedup();
        t
    }

    /// Column names.
    pub fn vars(&self) -> &[Sym] {
        &self.vars
    }

    /// Rows.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// True iff the table denotes a satisfied sentence (no columns, one row).
    pub fn as_bool(&self) -> bool {
        !self.rows.is_empty()
    }

    /// Index of column `v`, if present.
    pub fn col(&self, v: Sym) -> Option<usize> {
        self.vars.iter().position(|&c| c == v)
    }

    /// Rename columns through `map` (columns it returns `None` for keep
    /// their name). Rows are untouched; the map must stay injective.
    pub fn renamed(&self, map: impl Fn(Sym) -> Option<Sym>) -> Table {
        Table {
            vars: self.vars.iter().map(|&c| map(c).unwrap_or(c)).collect(),
            rows: self.rows.clone(),
        }
    }

    /// [`Table::renamed`] by value: reuses the row storage instead of
    /// cloning it. The memo hit path pairs this with a cloned stored
    /// table so a hit costs exactly one row copy.
    pub fn into_renamed(mut self, map: impl Fn(Sym) -> Option<Sym>) -> Table {
        for c in &mut self.vars {
            if let Some(m) = map(*c) {
                *c = m;
            }
        }
        self
    }

    /// Consume the table, yielding its rows without copying. Rows built
    /// through [`Table::new`] or [`Table::project`] are sorted and
    /// duplicate-free.
    pub fn into_rows(self) -> Vec<Tuple> {
        self.rows
    }

    fn dedup(&mut self) {
        self.rows.sort_unstable();
        self.rows.dedup();
    }

    /// Sort rows (for canonical comparison in tests).
    pub fn sorted(mut self) -> Table {
        self.dedup();
        self
    }

    /// Project onto `keep` (in the given order), deduplicating.
    ///
    /// # Panics
    /// Panics if a kept column is missing.
    pub fn project(&self, keep: &[Sym]) -> Table {
        let positions: Vec<usize> = keep
            .iter()
            .map(|&v| self.col(v).unwrap_or_else(|| panic!("no column {v}")))
            .collect();
        let rows = self.rows.iter().map(|r| r.select(&positions)).collect();
        Table::new(keep.to_vec(), rows)
    }

    /// Project *out* the given columns (∃-quantification).
    pub fn project_out(&self, drop: &[Sym]) -> Table {
        let keep: Vec<Sym> = self
            .vars
            .iter()
            .copied()
            .filter(|v| !drop.contains(v))
            .collect();
        self.project(&keep)
    }

    /// Keep rows satisfying `pred` (given the row and a column lookup).
    pub fn filter(&self, pred: impl Fn(&Tuple) -> bool) -> Table {
        Table {
            vars: self.vars.clone(),
            rows: self.rows.iter().copied().filter(|r| pred(r)).collect(),
        }
    }

    /// Natural join on shared columns. Output columns: `self.vars` then
    /// `other`'s non-shared columns.
    pub fn join(&self, other: &Table) -> Table {
        let shared: Vec<Sym> = self
            .vars
            .iter()
            .copied()
            .filter(|v| other.col(*v).is_some())
            .collect();
        let left_key: Vec<usize> = shared.iter().map(|&v| self.col(v).unwrap()).collect();
        let right_key: Vec<usize> = shared.iter().map(|&v| other.col(v).unwrap()).collect();
        let right_extra: Vec<usize> = (0..other.vars.len())
            .filter(|&i| !shared.contains(&other.vars[i]))
            .collect();

        let mut out_vars = self.vars.clone();
        out_vars.extend(right_extra.iter().map(|&i| other.vars[i]));
        assert!(out_vars.len() <= MAX_ARITY, "join output too wide");

        // Hash the smaller side on the key.
        let mut index: FxHashMap<Tuple, Vec<&Tuple>> = FxHashMap::default();
        for r in &other.rows {
            index.entry(r.select(&right_key)).or_default().push(r);
        }
        let mut rows = Vec::new();
        for l in &self.rows {
            if let Some(matches) = index.get(&l.select(&left_key)) {
                for r in matches {
                    rows.push(l.concat(&r.select(&right_extra)));
                }
            }
        }
        Table::new(out_vars, rows)
    }

    /// Antijoin: rows of `self` with **no** matching row in `other` on the
    /// shared columns. Implements guarded negation (`φ ∧ ¬ψ`).
    pub fn antijoin(&self, other: &Table) -> Table {
        let shared: Vec<Sym> = self
            .vars
            .iter()
            .copied()
            .filter(|v| other.col(*v).is_some())
            .collect();
        let left_key: Vec<usize> = shared.iter().map(|&v| self.col(v).unwrap()).collect();
        let right_key: Vec<usize> = shared.iter().map(|&v| other.col(v).unwrap()).collect();
        let index: FxHashSet<Tuple> = other.rows.iter().map(|r| r.select(&right_key)).collect();
        Table {
            vars: self.vars.clone(),
            rows: self
                .rows
                .iter()
                .copied()
                .filter(|l| !index.contains(&l.select(&left_key)))
                .collect(),
        }
    }

    /// Cross product with a fresh universe column `var` (all of `{0..n}`).
    ///
    /// # Panics
    /// Panics if `var` is already a column, or if the `|self| · n` rows
    /// cannot be allocated.
    pub fn extend(&self, var: Sym, n: Elem) -> Table {
        self.try_extend(var, n)
            .unwrap_or_else(|rows| panic!("cannot allocate a table of {rows} rows"))
    }

    /// [`Table::extend`], returning the `|self| · n` rows it needs as
    /// `Err` when they cannot be allocated instead of aborting.
    pub fn try_extend(&self, var: Sym, n: Elem) -> Result<Table, u128> {
        assert!(self.col(var).is_none(), "column {var} already present");
        let want = self.rows.len() as u128 * u128::from(n);
        let mut rows = Vec::new();
        usize::try_from(want)
            .ok()
            .and_then(|len| rows.try_reserve_exact(len).ok())
            .ok_or(want)?;
        let mut vars = self.vars.clone();
        vars.push(var);
        for r in &self.rows {
            for v in 0..n {
                rows.push(r.push(v));
            }
        }
        Ok(Table { vars, rows })
    }

    /// Add a column `var` bound to the fixed value `value` in every row.
    pub fn extend_const(&self, var: Sym, value: Elem) -> Table {
        assert!(self.col(var).is_none(), "column {var} already present");
        let mut vars = self.vars.clone();
        vars.push(var);
        Table {
            vars,
            rows: self.rows.iter().map(|r| r.push(value)).collect(),
        }
    }

    /// Add a column `var` computed from each row (e.g. a copy of another
    /// column, for `x = y` binding).
    pub fn extend_with(&self, var: Sym, f: impl Fn(&Tuple) -> Elem) -> Table {
        assert!(self.col(var).is_none(), "column {var} already present");
        let mut vars = self.vars.clone();
        vars.push(var);
        Table {
            vars,
            rows: self.rows.iter().map(|r| r.push(f(r))).collect(),
        }
    }

    /// Reorder columns to `order` (a permutation of the current columns).
    pub fn reorder(&self, order: &[Sym]) -> Table {
        assert_eq!(order.len(), self.vars.len(), "reorder is not a permutation");
        self.project(order)
    }

    /// Union with `other`, which must have the same column *set* (any
    /// order); output uses `self`'s order.
    pub fn union(&self, other: &Table) -> Table {
        let aligned = if other.vars == self.vars {
            other.clone()
        } else {
            other.reorder(&self.vars)
        };
        let mut rows = self.rows.clone();
        rows.extend(aligned.rows);
        Table::new(self.vars.clone(), rows)
    }

    /// All assignments over `vars` **not** present in `self` (complement
    /// over universe `{0..n}`). Cost `n^k`; the evaluator guards `k`.
    ///
    /// Implemented as a word-parallel bitmap pass: present rows set bits
    /// by base-`n` index, then the clear bits of each NOT-ed word decode
    /// to output rows — no per-tuple hashing.
    pub fn complement(&self, n: Elem) -> Table {
        let k = self.vars.len();
        let bits = match usize::try_from((n as u128).pow(k as u32)) {
            Ok(b) => b,
            Err(_) => return self.complement_by_hashing(n),
        };
        let mut words = vec![0u64; bits.div_ceil(64)];
        for r in &self.rows {
            let mut idx = 0usize;
            for v in r.iter() {
                idx = idx * n as usize + v as usize;
            }
            words[idx / 64] |= 1 << (idx % 64);
        }
        let mut rows = Vec::with_capacity(bits - self.rows.len());
        for (w, &word) in words.iter().enumerate() {
            let mut absent = !word;
            if (w + 1) * 64 > bits {
                absent &= (1u64 << (bits % 64)) - 1;
            }
            while absent != 0 {
                let mut idx = w * 64 + absent.trailing_zeros() as usize;
                absent &= absent - 1;
                let mut items = [0 as Elem; MAX_ARITY];
                for i in (0..k).rev() {
                    items[i] = (idx % n as usize) as Elem;
                    idx /= n as usize;
                }
                rows.push(Tuple::from_slice(&items[..k]));
            }
        }
        Table {
            vars: self.vars.clone(),
            rows,
        }
    }

    /// Fallback complement for tuple spaces too large to bitmap (the
    /// evaluator's budget normally prevents reaching this).
    fn complement_by_hashing(&self, n: Elem) -> Table {
        let present: FxHashSet<Tuple> = self.rows.iter().copied().collect();
        let rows = all_tuples(n, self.vars.len())
            .filter(|t| !present.contains(t))
            .collect();
        Table {
            vars: self.vars.clone(),
            rows,
        }
    }

    /// Work estimate: rows × columns.
    pub fn work(&self) -> usize {
        self.rows.len() * self.vars.len().max(1)
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, v) in self.vars.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]{{")?;
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{r}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::sym;

    fn t(vars: &[&str], rows: &[&[Elem]]) -> Table {
        Table::new(
            vars.iter().map(|s| sym(s)).collect(),
            rows.iter().map(|r| Tuple::from_slice(r)).collect(),
        )
    }

    #[test]
    fn unit_and_empty() {
        assert!(Table::unit().as_bool());
        assert!(!Table::empty(vec![]).as_bool());
        assert_eq!(Table::unit().len(), 1);
    }

    #[test]
    fn new_dedups() {
        let table = t(&["x"], &[&[1], &[1], &[2]]);
        assert_eq!(table.len(), 2);
    }

    #[test]
    #[should_panic(expected = "duplicate column")]
    fn duplicate_columns_panic() {
        t(&["x", "x"], &[]);
    }

    #[test]
    fn project_and_project_out() {
        let table = t(&["x", "y"], &[&[1, 2], &[1, 3], &[4, 2]]);
        let px = table.project(&[sym("x")]);
        assert_eq!(px, t(&["x"], &[&[1], &[4]]));
        let py = table.project_out(&[sym("x")]);
        assert_eq!(py.sorted(), t(&["y"], &[&[2], &[3]]));
    }

    #[test]
    fn join_on_shared_column() {
        let a = t(&["x", "y"], &[&[1, 2], &[3, 4]]);
        let b = t(&["y", "z"], &[&[2, 9], &[2, 8], &[5, 7]]);
        let j = a.join(&b).sorted();
        assert_eq!(j, t(&["x", "y", "z"], &[&[1, 2, 8], &[1, 2, 9]]));
    }

    #[test]
    fn join_disjoint_is_cross_product() {
        let a = t(&["x"], &[&[0], &[1]]);
        let b = t(&["y"], &[&[5], &[6]]);
        assert_eq!(a.join(&b).len(), 4);
    }

    #[test]
    fn join_with_unit_is_identity() {
        let a = t(&["x"], &[&[0], &[1]]);
        assert_eq!(Table::unit().join(&a).sorted(), a.clone().sorted());
        assert_eq!(a.join(&Table::unit()).sorted(), a.sorted());
    }

    #[test]
    fn antijoin_filters_matches() {
        let a = t(&["x", "y"], &[&[1, 2], &[3, 4], &[5, 6]]);
        let bad = t(&["x"], &[&[3], &[5]]);
        assert_eq!(a.antijoin(&bad).sorted(), t(&["x", "y"], &[&[1, 2]]));
    }

    #[test]
    fn antijoin_no_shared_vars_tests_nonemptiness() {
        // With no shared columns, antijoin keeps all rows iff other is
        // empty — matching ¬∃-of-a-sentence semantics.
        let a = t(&["x"], &[&[1]]);
        assert!(a.antijoin(&Table::unit()).is_empty());
        assert_eq!(a.antijoin(&Table::empty(vec![])), a);
    }

    #[test]
    fn extend_and_extend_const() {
        let a = t(&["x"], &[&[1]]);
        assert_eq!(a.extend(sym("y"), 3).len(), 3);
        let c = a.extend_const(sym("y"), 7);
        assert_eq!(c, t(&["x", "y"], &[&[1, 7]]));
    }

    #[test]
    fn union_aligns_column_order() {
        let a = t(&["x", "y"], &[&[1, 2]]);
        let b = t(&["y", "x"], &[&[9, 8], &[2, 1]]);
        let u = a.union(&b).sorted();
        assert_eq!(u, t(&["x", "y"], &[&[1, 2], &[8, 9]]));
    }

    #[test]
    fn complement_is_involutive() {
        let a = t(&["x", "y"], &[&[0, 0], &[1, 2]]);
        let c = a.complement(3);
        assert_eq!(c.len(), 7);
        assert_eq!(c.complement(3).sorted(), a.sorted());
    }

    #[test]
    fn filter_by_predicate() {
        let a = t(&["x", "y"], &[&[0, 1], &[2, 1], &[2, 3]]);
        let f = a.filter(|r| r[0] < r[1]);
        assert_eq!(f.sorted(), t(&["x", "y"], &[&[0, 1], &[2, 3]]));
    }
}
