//! The interpreted LINQ-to-objects engine.
//!
//! Operators are boxed trait objects chained by virtual calls; every element
//! crosses one dynamic dispatch per operator and grouping/sorting allocate
//! intermediate collections — the cost model of C#'s LINQ-to-objects that
//! the paper's compiled queries eliminate (§1, §7). Keeping this engine
//! around lets the benchmarks reproduce the "LINQ is 40–400 % slower than
//! compiled C#" observation of §7.
//!
//! The API mirrors the familiar operator names: `where_`, `select`,
//! `group_by`, `sum_by`, `count`, `join`.

use std::collections::HashMap;
use std::hash::Hash;

/// A lazily-evaluated, boxed operator pipeline over `T`.
pub struct LinqIter<'a, T> {
    inner: Box<dyn Iterator<Item = T> + 'a>,
}

impl<'a, T: 'a> LinqIter<'a, T> {
    /// Wraps a source iterator (the collection enumeration).
    pub fn new(source: impl Iterator<Item = T> + 'a) -> Self {
        LinqIter {
            inner: Box::new(source),
        }
    }

    /// Filters by predicate — LINQ `Where`. One virtual call per element.
    pub fn where_(self, pred: impl FnMut(&T) -> bool + 'a) -> LinqIter<'a, T> {
        LinqIter {
            inner: Box::new(self.inner.filter(pred)),
        }
    }

    /// Projects — LINQ `Select`.
    pub fn select<U: 'a>(self, f: impl FnMut(T) -> U + 'a) -> LinqIter<'a, U> {
        LinqIter {
            inner: Box::new(self.inner.map(f)),
        }
    }

    /// Groups into a hash map — LINQ `GroupBy` (materializes, as LINQ does).
    pub fn group_by<K: Eq + Hash + 'a>(
        self,
        mut key: impl FnMut(&T) -> K + 'a,
    ) -> HashMap<K, Vec<T>> {
        let mut groups: HashMap<K, Vec<T>> = HashMap::new();
        for item in self.inner {
            groups.entry(key(&item)).or_default().push(item);
        }
        groups
    }

    /// Hash join with another pipeline — LINQ `Join`. Builds on the right.
    pub fn join<K, U, R>(
        self,
        right: LinqIter<'a, U>,
        mut left_key: impl FnMut(&T) -> K + 'a,
        mut right_key: impl FnMut(&U) -> K + 'a,
        mut merge: impl FnMut(&T, &U) -> R + 'a,
    ) -> LinqIter<'a, R>
    where
        K: Eq + Hash + 'a,
        T: 'a,
        U: Clone + 'a,
        R: 'a,
    {
        let mut table: HashMap<K, Vec<U>> = HashMap::new();
        for u in right.inner {
            table.entry(right_key(&u)).or_default().push(u);
        }
        let joined = self.inner.flat_map(move |t| {
            let matches: Vec<R> = table
                .get(&left_key(&t))
                .map(|us| us.iter().map(|u| merge(&t, u)).collect())
                .unwrap_or_default();
            matches
        });
        LinqIter {
            inner: Box::new(joined),
        }
    }

    /// Counts the elements — LINQ `Count`.
    pub fn count(self) -> usize {
        self.inner.count()
    }

    /// Sums a projection — LINQ `Sum`.
    pub fn sum_by<S: std::iter::Sum<S> + 'a>(self, f: impl FnMut(T) -> S + 'a) -> S {
        self.inner.map(f).sum()
    }

    /// Materializes — LINQ `ToList`.
    pub fn to_vec(self) -> Vec<T> {
        self.inner.collect()
    }

    /// First element, if any.
    pub fn first(mut self) -> Option<T> {
        self.inner.next()
    }
}

impl<'a, T> Iterator for LinqIter<'a, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.inner.next()
    }
}

/// Entry point: `anything.linq()` starts a pipeline.
pub trait LinqExt<'a, T: 'a>: Iterator<Item = T> + Sized + 'a {
    /// Starts a boxed LINQ pipeline over this iterator.
    fn linq(self) -> LinqIter<'a, T> {
        LinqIter::new(self)
    }
}

impl<'a, T: 'a, I: Iterator<Item = T> + 'a> LinqExt<'a, T> for I {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn where_select_pipeline() {
        let out: Vec<i32> = (1..=10)
            .linq()
            .where_(|x| x % 2 == 0)
            .select(|x| x * 10)
            .to_vec();
        assert_eq!(out, vec![20, 40, 60, 80, 100]);
    }

    #[test]
    fn group_by_partitions() {
        let groups = (0..10).linq().group_by(|x| x % 3);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[&0], vec![0, 3, 6, 9]);
        assert_eq!(groups[&1].len(), 3);
    }

    #[test]
    fn join_matches_keys() {
        let orders = vec![(1, "a"), (2, "b"), (1, "c")];
        let customers = vec![(1, "Alice"), (2, "Bob")];
        let mut out: Vec<String> = orders
            .into_iter()
            .linq()
            .join(
                customers.into_iter().linq(),
                |o| o.0,
                |c| c.0,
                |o, c| format!("{}-{}", c.1, o.1),
            )
            .to_vec();
        out.sort();
        assert_eq!(out, vec!["Alice-a", "Alice-c", "Bob-b"]);
    }

    #[test]
    fn aggregates() {
        assert_eq!((1..=4).linq().sum_by(|x| x), 10);
        assert_eq!((1..=4).linq().count(), 4);
        assert_eq!((1..=4).linq().where_(|x| *x > 4).first(), None);
    }
}
