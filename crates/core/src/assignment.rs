//! An assignment `A : J → I` of components to partitions, and its
//! boolean-vector view `y`.

use crate::{ComponentId, Error, PairIndex, PartitionId};
use serde::{Deserialize, Serialize};

/// A complete assignment of every component to a partition (the solution
/// representation; C3 — each component in exactly one partition — holds by
/// construction).
///
/// ```
/// use qbp_core::{Assignment, ComponentId, PartitionId};
///
/// # fn main() -> Result<(), qbp_core::Error> {
/// let mut a = Assignment::from_parts(vec![0, 1, 0])?;
/// assert_eq!(a.partition_of(ComponentId::new(1)), PartitionId::new(1));
/// a.move_to(ComponentId::new(1), PartitionId::new(3));
/// assert_eq!(a.partition_of(ComponentId::new(1)), PartitionId::new(3));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Assignment {
    part: Vec<u32>,
}

impl Assignment {
    /// Creates an assignment from raw partition indices, one per component.
    ///
    /// # Errors
    ///
    /// Returns an error if the vector is empty (an assignment for an empty
    /// circuit is never useful and usually indicates a bug upstream).
    pub fn from_parts(part: Vec<u32>) -> Result<Self, Error> {
        if part.is_empty() {
            return Err(Error::EmptyCircuit);
        }
        Ok(Assignment { part })
    }

    /// Creates an assignment by evaluating `f` for each component `0..n`.
    pub fn from_fn(n: usize, mut f: impl FnMut(ComponentId) -> PartitionId) -> Self {
        Assignment {
            part: (0..n).map(|j| f(ComponentId::new(j)).0).collect(),
        }
    }

    /// Creates an assignment placing all `n` components in partition 0.
    pub fn all_in_first(n: usize) -> Self {
        Assignment { part: vec![0; n] }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.part.len()
    }

    /// Returns `true` if the assignment covers no components.
    pub fn is_empty(&self) -> bool {
        self.part.is_empty()
    }

    /// The partition of component `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn partition_of(&self, j: ComponentId) -> PartitionId {
        PartitionId(self.part[j.index()])
    }

    /// Raw partition index of component `j` — hot-loop variant of
    /// [`Assignment::partition_of`].
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[inline]
    pub fn part_index(&self, j: usize) -> usize {
        self.part[j] as usize
    }

    /// Moves component `j` to partition `to`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn move_to(&mut self, j: ComponentId, to: PartitionId) {
        self.part[j.index()] = to.0;
    }

    /// Swaps the partitions of two components.
    ///
    /// # Panics
    ///
    /// Panics if either id is out of range.
    pub fn swap(&mut self, j1: ComponentId, j2: ComponentId) {
        self.part.swap(j1.index(), j2.index());
    }

    /// Iterates over `(component, partition)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ComponentId, PartitionId)> + '_ {
        self.part
            .iter()
            .enumerate()
            .map(|(j, &i)| (ComponentId::new(j), PartitionId(i)))
    }

    /// The raw partition indices, one per component.
    pub fn as_slice(&self) -> &[u32] {
        &self.part
    }

    /// Replaces the contents of `out` with the components whose partition
    /// differs between `self` and `next`, in index order: the mover list
    /// [`QMatrix::eta_update`](crate::QMatrix::eta_update) patches.
    ///
    /// # Panics
    ///
    /// Panics if `next` is shorter than `self`.
    pub fn movers_into(&self, next: &Assignment, out: &mut Vec<usize>) {
        out.clear();
        out.extend((0..self.part.len()).filter(|&j| self.part[j] != next.part[j]));
    }

    /// Materializes the boolean solution vector `y` of length `m·n`
    /// (`y[r] = 1` iff `r = (A(j), j)`), the paper's §3.1 flattening.
    ///
    /// Intended for small instances (tests, worked examples); solvers work
    /// on the compact representation directly.
    pub fn indicator_vector(&self, m: usize) -> Vec<bool> {
        let mut y = vec![false; m * self.part.len()];
        for (j, &i) in self.part.iter().enumerate() {
            y[PairIndex::from_parts(PartitionId(i), ComponentId::new(j), m).index()] = true;
        }
        y
    }

    /// Reconstructs an assignment from a boolean vector `y` of length `m·n`.
    ///
    /// Returns `None` if `y` violates C3 (some component has zero or multiple
    /// set entries) or has a length that is not a multiple of `m`.
    pub fn from_indicator(y: &[bool], m: usize) -> Option<Self> {
        if m == 0 || !y.len().is_multiple_of(m) || y.is_empty() {
            return None;
        }
        let n = y.len() / m;
        let mut part = Vec::with_capacity(n);
        for j in 0..n {
            let block = &y[j * m..(j + 1) * m];
            let mut chosen = None;
            for (i, &set) in block.iter().enumerate() {
                if set {
                    if chosen.is_some() {
                        return None;
                    }
                    chosen = Some(i as u32);
                }
            }
            part.push(chosen?);
        }
        Some(Assignment { part })
    }

    /// The components currently assigned to partition `i`.
    pub fn members_of(&self, i: PartitionId) -> Vec<ComponentId> {
        self.part
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p == i.0)
            .map(|(j, _)| ComponentId::new(j))
            .collect()
    }

    /// Checks every partition index is `< m`.
    ///
    /// # Errors
    ///
    /// Returns the first out-of-range partition found.
    pub fn validate(&self, m: usize) -> Result<(), Error> {
        for &i in &self.part {
            if i as usize >= m {
                return Err(Error::PartitionOutOfRange {
                    id: PartitionId(i),
                    len: m,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let a = Assignment::from_parts(vec![2, 0, 1]).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.partition_of(ComponentId::new(0)), PartitionId::new(2));
        assert_eq!(a.part_index(2), 1);
        assert!(Assignment::from_parts(vec![]).is_err());
    }

    #[test]
    fn from_fn_and_all_in_first() {
        let a = Assignment::from_fn(4, |j| PartitionId::new(j.index() % 2));
        assert_eq!(a.as_slice(), &[0, 1, 0, 1]);
        let b = Assignment::all_in_first(3);
        assert_eq!(b.as_slice(), &[0, 0, 0]);
    }

    #[test]
    fn move_and_swap() {
        let mut a = Assignment::from_parts(vec![0, 1, 2]).unwrap();
        a.move_to(ComponentId::new(0), PartitionId::new(5));
        assert_eq!(a.as_slice(), &[5, 1, 2]);
        a.swap(ComponentId::new(0), ComponentId::new(2));
        assert_eq!(a.as_slice(), &[2, 1, 5]);
    }

    #[test]
    fn indicator_roundtrip() {
        let a = Assignment::from_parts(vec![2, 0, 3, 1]).unwrap();
        let m = 4;
        let y = a.indicator_vector(m);
        assert_eq!(y.iter().filter(|&&b| b).count(), 4);
        // Exactly one per component block — C3.
        let back = Assignment::from_indicator(&y, m).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn from_indicator_rejects_c3_violations() {
        let m = 2;
        // Component 0 in both partitions.
        assert!(Assignment::from_indicator(&[true, true, true, false], m).is_none());
        // Component 1 in none.
        assert!(Assignment::from_indicator(&[true, false, false, false], m).is_none());
        // Bad length.
        assert!(Assignment::from_indicator(&[true, false, true], m).is_none());
        assert!(Assignment::from_indicator(&[], m).is_none());
    }

    #[test]
    fn members_and_validate() {
        let a = Assignment::from_parts(vec![1, 0, 1]).unwrap();
        assert_eq!(
            a.members_of(PartitionId::new(1)),
            vec![ComponentId::new(0), ComponentId::new(2)]
        );
        assert!(a.validate(2).is_ok());
        assert!(matches!(
            a.validate(1),
            Err(Error::PartitionOutOfRange { .. })
        ));
    }

    #[test]
    fn iter_pairs() {
        let a = Assignment::from_parts(vec![3, 1]).unwrap();
        let v: Vec<_> = a.iter().collect();
        assert_eq!(
            v,
            vec![
                (ComponentId::new(0), PartitionId::new(3)),
                (ComponentId::new(1), PartitionId::new(1)),
            ]
        );
    }
}
