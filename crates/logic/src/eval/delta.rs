//! Install plans: delta evaluation of update rules.
//!
//! A Dyn-FO update rule `T ← φ` nominally replaces the whole target
//! relation with the models of `φ`. Materializing that replacement as a
//! fresh [`Relation`] and diffing it against the pre-state costs
//! `O(|T|)` per rule *even when nothing changed* — exactly the work the
//! paper's per-request cost model says an update should not pay. The
//! delta pipeline instead turns each rule evaluation into an
//! [`InstallPlan`]: the exact set of tuples to add and remove, computed
//! by a single sorted merge against the old relation, installed in
//! place by [`Structure::apply_delta`](crate::structure::Structure::apply_delta).
//! An unchanged target yields an empty plan and costs zero allocation.
//!
//! [`DeltaMode`] records what the rule's shape guarantees about the
//! direction of change, letting the planner skip work:
//!
//! - [`DeltaMode::Grow`] — the rule is `T(x̄) ∨ ψ`, so the target only
//!   grows. Only `ψ` is evaluated; the old relation is never scanned
//!   and the plan's `removed` set is empty by construction.
//! - [`DeltaMode::Shrink`] — the rule is `T(x̄) ∧ ψ`, so the new value
//!   is a subset of the old one and the merge can only emit removals.
//! - [`DeltaMode::Full`] — no shape guarantee; the conservative
//!   fallback diffs old and new by one `O(|old| + |new|)` sorted merge.

use crate::relation::Relation;
use crate::tuple::Tuple;
use std::cmp::Ordering;

/// What a rule's syntactic shape guarantees about the direction of
/// change, and hence how little work the install planner must do.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeltaMode {
    /// The target can only gain tuples; `rows` holds the candidate
    /// additions and the old relation is consulted only per candidate.
    Grow,
    /// The target can only lose tuples; `rows` is a subset of the old
    /// relation and the merge emits removals only.
    Shrink,
    /// No guarantee: conservative two-way sorted-merge diff.
    Full,
}

/// The exact change a rule evaluation asks of its target relation.
///
/// Both sides are sorted and duplicate-free. An empty plan means the
/// evaluation confirmed the target is already correct — installing it
/// is a no-op with no writes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct InstallPlan {
    /// Tuples to insert (absent from the old relation).
    pub added: Vec<Tuple>,
    /// Tuples to delete (present in the old relation).
    pub removed: Vec<Tuple>,
}

impl InstallPlan {
    /// True iff installing this plan would change nothing.
    pub fn is_noop(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }

    /// Total number of membership changes the plan performs.
    pub fn change_count(&self) -> usize {
        self.added.len() + self.removed.len()
    }
}

/// Plan the in-place update taking `old` to the relation whose tuples
/// are exactly `rows` (for [`DeltaMode::Grow`]: `old ∪ rows`).
///
/// `rows` must be sorted and duplicate-free — [`Table::project`]
/// output already is, and the machine re-sorts defensively. Relations
/// iterate in the same lexicographic order on both backends, so every
/// mode is a single linear merge with no hashing and no allocation
/// beyond the plan's own vectors.
///
/// [`Table::project`]: crate::eval::Table::project
pub fn install_plan(mode: DeltaMode, old: &Relation, rows: &[Tuple]) -> InstallPlan {
    debug_assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows must be sorted");
    match mode {
        DeltaMode::Grow => InstallPlan {
            added: rows.iter().filter(|t| !old.contains(t)).copied().collect(),
            removed: Vec::new(),
        },
        DeltaMode::Shrink | DeltaMode::Full => {
            let (added, removed) = merge_diff(old, rows);
            debug_assert!(
                mode != DeltaMode::Shrink || added.is_empty(),
                "shrink rule produced tuples outside the old relation"
            );
            InstallPlan { added, removed }
        }
    }
}

/// One-pass sorted merge: `(rows ∖ old, old ∖ rows)`.
fn merge_diff(old: &Relation, rows: &[Tuple]) -> (Vec<Tuple>, Vec<Tuple>) {
    let mut added = Vec::new();
    let mut removed = Vec::new();
    let mut it = old.iter().peekable();
    let mut i = 0;
    loop {
        match (it.peek().copied(), rows.get(i).copied()) {
            (None, None) => break,
            (Some(o), None) => {
                removed.push(o);
                it.next();
            }
            (None, Some(r)) => {
                added.push(r);
                i += 1;
            }
            (Some(o), Some(r)) => match o.cmp(&r) {
                Ordering::Less => {
                    removed.push(o);
                    it.next();
                }
                Ordering::Greater => {
                    added.push(r);
                    i += 1;
                }
                Ordering::Equal => {
                    it.next();
                    i += 1;
                }
            },
        }
    }
    (added, removed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;

    fn rel(pairs: &[(u32, u32)]) -> Relation {
        Relation::from_tuples_with_universe(2, 8, pairs.iter().map(|&(a, b)| Tuple::pair(a, b)))
    }

    fn rows(pairs: &[(u32, u32)]) -> Vec<Tuple> {
        pairs.iter().map(|&(a, b)| Tuple::pair(a, b)).collect()
    }

    #[test]
    fn full_diff_matches_set_difference() {
        let old = rel(&[(0, 1), (1, 2), (3, 3)]);
        let new = rows(&[(0, 1), (2, 2), (3, 3), (4, 0)]);
        let plan = install_plan(DeltaMode::Full, &old, &new);
        assert_eq!(plan.added, rows(&[(2, 2), (4, 0)]));
        assert_eq!(plan.removed, rows(&[(1, 2)]));
        assert_eq!(plan.change_count(), 3);
    }

    #[test]
    fn identical_rows_plan_a_noop() {
        let old = rel(&[(0, 1), (5, 5)]);
        let same = rows(&[(0, 1), (5, 5)]);
        for mode in [DeltaMode::Grow, DeltaMode::Shrink, DeltaMode::Full] {
            assert!(install_plan(mode, &old, &same).is_noop(), "{mode:?}");
        }
    }

    #[test]
    fn grow_never_removes_and_skips_known_tuples() {
        let old = rel(&[(0, 1)]);
        // Grow candidates are the models of ψ alone; tuples already
        // present must not be re-added.
        let plan = install_plan(DeltaMode::Grow, &old, &rows(&[(0, 1), (2, 3)]));
        assert_eq!(plan.added, rows(&[(2, 3)]));
        assert!(plan.removed.is_empty());
    }

    #[test]
    fn shrink_emits_removals_only() {
        let old = rel(&[(0, 1), (1, 2), (2, 3)]);
        let plan = install_plan(DeltaMode::Shrink, &old, &rows(&[(1, 2)]));
        assert!(plan.added.is_empty());
        assert_eq!(plan.removed, rows(&[(0, 1), (2, 3)]));
    }

    #[test]
    fn plans_install_cleanly_on_both_backends() {
        // Same logical relation, both representations: the plan computed
        // against either installs to the same result.
        let sparse = Relation::from_tuples(2, [Tuple::pair(9, 9), Tuple::pair(0, 4)]);
        let dense = rel(&[(0, 4), (7, 7)]);
        for old in [&sparse, &dense] {
            let target = rows(&[(0, 4), (5, 5)]);
            let plan = install_plan(DeltaMode::Full, old, &target);
            let mut installed = old.clone();
            for t in &plan.added {
                assert!(installed.insert(*t));
            }
            for t in &plan.removed {
                assert!(installed.remove(t));
            }
            assert_eq!(installed.iter().collect::<Vec<_>>(), target);
        }
    }
}
