//! A symmetric matrix with zero diagonal, stored triangularly.

/// A symmetric `n × n` matrix over `T` with an implicit zero diagonal.
///
/// Pairwise sharing metrics between threads (and clusters) are symmetric
/// — `shared-references(a, b) == shared-references(b, a)` — and the
/// diagonal is meaningless, so only the strict upper triangle is stored.
///
/// # Example
///
/// ```
/// use placesim_analysis::SymMatrix;
///
/// let mut m = SymMatrix::new(3, 0u64);
/// m.set(0, 2, 7);
/// assert_eq!(m.get(2, 0), 7);
/// assert_eq!(m.get(1, 1), 0); // diagonal is always the zero element
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymMatrix<T> {
    n: usize,
    zero: T,
    data: Vec<T>,
}

impl<T: Clone> SymMatrix<T> {
    /// Creates an `n × n` matrix filled with `zero`.
    pub fn new(n: usize, zero: T) -> Self {
        let len = n * n.saturating_sub(1) / 2;
        SymMatrix {
            n,
            zero: zero.clone(),
            data: vec![zero; len],
        }
    }

    /// The matrix dimension `n`.
    pub fn dim(&self) -> usize {
        self.n
    }

    fn index(&self, i: usize, j: usize) -> usize {
        debug_assert!(i != j, "diagonal is implicit");
        let (lo, hi) = if i < j { (i, j) } else { (j, i) };
        debug_assert!(
            hi < self.n,
            "index ({i},{j}) out of bounds for dim {}",
            self.n
        );
        // Elements are laid out row by row over the strict upper triangle:
        // row lo starts at lo*n - lo*(lo+1)/2 - lo  (cumulative row lengths).
        lo * (2 * self.n - lo - 1) / 2 + (hi - lo - 1)
    }

    /// Returns the element at `(i, j)`; the diagonal reads as the zero value.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of bounds.
    pub fn get(&self, i: usize, j: usize) -> T {
        assert!(
            i < self.n && j < self.n,
            "({i},{j}) out of bounds for dim {}",
            self.n
        );
        if i == j {
            self.zero.clone()
        } else {
            self.data[self.index(i, j)].clone()
        }
    }

    /// Sets the element at `(i, j)` (and symmetrically `(j, i)`).
    ///
    /// # Panics
    ///
    /// Panics if out of bounds or if `i == j`.
    pub fn set(&mut self, i: usize, j: usize, value: T) {
        assert!(
            i < self.n && j < self.n,
            "({i},{j}) out of bounds for dim {}",
            self.n
        );
        assert!(i != j, "cannot set the implicit zero diagonal");
        let idx = self.index(i, j);
        self.data[idx] = value;
    }

    /// Mutable access to the element at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds or if `i == j`.
    pub fn get_mut(&mut self, i: usize, j: usize) -> &mut T {
        assert!(
            i < self.n && j < self.n,
            "({i},{j}) out of bounds for dim {}",
            self.n
        );
        assert!(i != j, "cannot mutate the implicit zero diagonal");
        let idx = self.index(i, j);
        &mut self.data[idx]
    }

    /// Iterates over all strict-upper-triangle entries as `(i, j, value)`.
    pub fn iter_pairs(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        (0..self.n).flat_map(move |i| {
            ((i + 1)..self.n).map(move |j| (i, j, self.data[self.index(i, j)].clone()))
        })
    }
}

impl SymMatrix<u64> {
    /// Adds `delta` to the element at `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds or if `i == j`.
    pub fn add(&mut self, i: usize, j: usize, delta: u64) {
        *self.get_mut(i, j) += delta;
    }

    /// Element-wise adds `other` into `self` (the reduction step of the
    /// sharded sharing analysis: partial matrices from disjoint address
    /// shards sum exactly because all entries are `u64` counters).
    ///
    /// # Panics
    ///
    /// Panics if the dimensions differ.
    pub fn add_assign(&mut self, other: &SymMatrix<u64>) {
        assert_eq!(
            self.n, other.n,
            "cannot add a {}-dim matrix into a {}-dim one",
            other.n, self.n
        );
        for (dst, src) in self.data.iter_mut().zip(&other.data) {
            *dst += src;
        }
    }

    /// Sum of the metric between every pair drawn from `members`.
    ///
    /// This is the paper's "total shared references within each cluster,
    /// obtained by summing the shared references between all pairs of
    /// threads in each cluster" (Figure 1(d)).
    pub fn group_sum(&self, members: &[usize]) -> u64 {
        let mut total = 0;
        for (k, &i) in members.iter().enumerate() {
            for &j in &members[k + 1..] {
                total += self.get(i, j);
            }
        }
        total
    }

    /// Sum of the metric between every `(a, b)` with `a ∈ left`, `b ∈ right`.
    ///
    /// Used for the inter-cluster sharing metric of the clustering engine.
    pub fn cross_sum(&self, left: &[usize], right: &[usize]) -> u64 {
        let mut total = 0;
        for &i in left {
            for &j in right {
                if i != j {
                    total += self.get(i, j);
                }
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn triangular_layout_covers_all_pairs() {
        let n = 7;
        let mut m = SymMatrix::new(n, 0u64);
        let mut counter = 1;
        for i in 0..n {
            for j in (i + 1)..n {
                m.set(i, j, counter);
                counter += 1;
            }
        }
        // Every pair reads back its own value, symmetrically.
        let mut counter = 1;
        for i in 0..n {
            for j in (i + 1)..n {
                assert_eq!(m.get(i, j), counter);
                assert_eq!(m.get(j, i), counter);
                counter += 1;
            }
        }
    }

    #[test]
    fn diagonal_reads_zero() {
        let m = SymMatrix::new(4, 0u64);
        for i in 0..4 {
            assert_eq!(m.get(i, i), 0);
        }
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn diagonal_set_panics() {
        let mut m = SymMatrix::new(4, 0u64);
        m.set(2, 2, 1);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let m = SymMatrix::new(4, 0u64);
        let _ = m.get(0, 4);
    }

    #[test]
    fn add_accumulates() {
        let mut m = SymMatrix::new(3, 0u64);
        m.add(0, 1, 5);
        m.add(1, 0, 3);
        assert_eq!(m.get(0, 1), 8);
    }

    #[test]
    fn add_assign_sums_elementwise() {
        let mut a = SymMatrix::new(3, 0u64);
        a.set(0, 1, 2);
        a.set(1, 2, 3);
        let mut b = SymMatrix::new(3, 0u64);
        b.set(0, 1, 10);
        b.set(0, 2, 7);
        a.add_assign(&b);
        assert_eq!(a.get(0, 1), 12);
        assert_eq!(a.get(0, 2), 7);
        assert_eq!(a.get(1, 2), 3);
    }

    #[test]
    #[should_panic(expected = "cannot add")]
    fn add_assign_checks_dims() {
        let mut a = SymMatrix::new(3, 0u64);
        a.add_assign(&SymMatrix::new(4, 0u64));
    }

    #[test]
    fn group_and_cross_sums() {
        let mut m = SymMatrix::new(4, 0u64);
        m.set(0, 1, 1);
        m.set(0, 2, 2);
        m.set(0, 3, 4);
        m.set(1, 2, 8);
        m.set(1, 3, 16);
        m.set(2, 3, 32);
        assert_eq!(m.group_sum(&[0, 1, 2]), 1 + 2 + 8);
        assert_eq!(m.group_sum(&[3]), 0);
        assert_eq!(m.cross_sum(&[0, 1], &[2, 3]), 2 + 4 + 8 + 16);
        assert_eq!(m.cross_sum(&[], &[0]), 0);
    }

    #[test]
    fn iter_pairs_yields_upper_triangle() {
        let mut m = SymMatrix::new(3, 0u64);
        m.set(0, 1, 10);
        m.set(1, 2, 20);
        let pairs: Vec<_> = m.iter_pairs().collect();
        assert_eq!(pairs, vec![(0, 1, 10), (0, 2, 0), (1, 2, 20)]);
    }

    #[test]
    fn degenerate_dims() {
        let m0 = SymMatrix::new(0, 0u64);
        assert_eq!(m0.dim(), 0);
        let m1 = SymMatrix::new(1, 0u64);
        assert_eq!(m1.get(0, 0), 0);
        assert_eq!(m1.iter_pairs().count(), 0);
    }
}
