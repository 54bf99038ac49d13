//! Incremental GF(2) linear-system solver with checkpoint/rollback.
//!
//! Seed computation for LFSR reseeding (Koenemann's scheme, used
//! throughout the DATE 2008 paper) forms one linear equation per
//! specified test-cube bit: *expression over the seed variables =
//! cube bit*. The window-based encoding algorithm of the paper tries a
//! cube at many window positions before committing to one, so the solver
//! must support cheap speculative insertion. [`IncrementalSolver`] keeps
//! a forward-reduced row-echelon basis to which rows are only ever
//! appended; a checkpoint is just the basis length and rollback is a
//! truncation.
//!
//! Two layers of API exist:
//!
//! * the [`BitVec`] layer ([`insert`](IncrementalSolver::insert),
//!   [`probe`](IncrementalSolver::probe)) — convenient, one clone per
//!   call;
//! * the borrowed word-slice layer
//!   ([`insert_words`](IncrementalSolver::insert_words),
//!   [`probe_words`](IncrementalSolver::probe_words)) — fed directly
//!   from precomputed expression tables, with no per-call `BitVec`.
//!
//! [`IncrementalSolver::affine_space`] exports the solution set as
//! `x0 + span(N)`, the frame the encoder's word-sized probing tiers
//! project candidate equations into.

use rand::Rng;

use crate::words;
use crate::BitVec;

/// Result of inserting one equation into an [`IncrementalSolver`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveOutcome {
    /// The equation was independent and has been added to the basis
    /// (one more seed variable becomes determined — the paper's
    /// "variable replacement").
    Added,
    /// The equation was already implied by the basis; nothing changed.
    Redundant,
    /// The equation contradicts the basis; the system is unsolvable.
    /// The solver state is unchanged.
    Conflict,
}

/// Opaque snapshot of an [`IncrementalSolver`], created by
/// [`IncrementalSolver::checkpoint`] and consumed by
/// [`IncrementalSolver::rollback`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverCheckpoint {
    basis_len: usize,
}

/// An incremental solver for systems of linear equations over GF(2).
///
/// Equations are inserted one at a time; the solver maintains a
/// forward-reduced basis (each row has a unique pivot column, rows are
/// *not* back-substituted against each other until [`solve_with`] is
/// called). Because insertion never mutates existing rows, rolling back
/// to a [`checkpoint`] is O(1) amortised.
///
/// Rows are stored in one flat word array (`stride` words per row), so
/// reduction is straight-line word arithmetic with no per-row pointer
/// chasing and no per-insert allocation in steady state.
///
/// [`solve_with`]: IncrementalSolver::solve_with
/// [`checkpoint`]: IncrementalSolver::checkpoint
///
/// # Example
///
/// ```
/// use ss_gf2::{BitVec, IncrementalSolver, SolveOutcome};
///
/// let mut s = IncrementalSolver::new(2);
/// let a0 = BitVec::unit(2, 0);
/// assert_eq!(s.insert(&a0, true), SolveOutcome::Added);
/// // speculative attempt that conflicts
/// let cp = s.checkpoint();
/// assert_eq!(s.insert(&a0, false), SolveOutcome::Conflict);
/// s.rollback(cp);
/// assert_eq!(s.rank(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalSolver {
    vars: usize,
    stride: usize,
    /// Basis row coefficients, flattened: row `i` occupies words
    /// `i*stride .. (i+1)*stride`.
    row_words: Vec<u64>,
    /// Pivot column of each basis row.
    pivots: Vec<usize>,
    /// Right-hand side of each basis row.
    rhs: Vec<bool>,
    /// Reusable reduction buffer for `insert_words`.
    scratch: Vec<u64>,
}

impl IncrementalSolver {
    /// Creates a solver over `vars` GF(2) variables.
    pub fn new(vars: usize) -> Self {
        IncrementalSolver {
            vars,
            stride: vars.div_ceil(64),
            row_words: Vec::new(),
            pivots: Vec::new(),
            rhs: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn vars(&self) -> usize {
        self.vars
    }

    /// Words per equation row (`vars` rounded up to whole `u64`s) —
    /// the slice length [`insert_words`](Self::insert_words) expects.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of independent equations inserted so far (the dimension of
    /// the constrained subspace).
    pub fn rank(&self) -> usize {
        self.pivots.len()
    }

    /// Number of still-free variables.
    pub fn free_vars(&self) -> usize {
        self.vars - self.pivots.len()
    }

    /// Inserts the equation `coeffs · a = rhs`.
    ///
    /// Returns [`SolveOutcome::Conflict`] without modifying the solver if
    /// the equation is inconsistent with the ones already inserted.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len()` differs from the solver's variable count.
    pub fn insert(&mut self, coeffs: &BitVec, rhs: bool) -> SolveOutcome {
        assert_eq!(coeffs.len(), self.vars, "equation width mismatch");
        self.insert_words(coeffs.as_words(), rhs)
    }

    /// Inserts the equation `coeffs · a = rhs` from a borrowed word
    /// slice (bit `i` of the equation is bit `i % 64` of word
    /// `i / 64`). Bits beyond the variable count must be zero — which
    /// is guaranteed when the slice comes from a [`BitVec`] or an
    /// expression table.
    ///
    /// This is the allocation-free insertion path: the expression rows
    /// of `ss_core::ExprTable` are consumed directly, with no
    /// intermediate `BitVec`.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len()` differs from [`stride`](Self::stride).
    pub fn insert_words(&mut self, coeffs: &[u64], rhs: bool) -> SolveOutcome {
        assert_eq!(coeffs.len(), self.stride, "equation width mismatch");
        let mut row = std::mem::take(&mut self.scratch);
        row.clear();
        row.extend_from_slice(coeffs);
        let r = self.reduce(&mut row, rhs);
        let outcome = match words::first_one(&row) {
            None => {
                if r {
                    SolveOutcome::Conflict
                } else {
                    SolveOutcome::Redundant
                }
            }
            Some(pivot) => {
                self.row_words.extend_from_slice(&row);
                self.pivots.push(pivot);
                self.rhs.push(r);
                SolveOutcome::Added
            }
        };
        self.scratch = row;
        outcome
    }

    /// Tests whether the equation would be insertable without a
    /// conflict, and what the outcome would be, without modifying the
    /// solver.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len()` differs from the solver's variable count.
    pub fn probe(&self, coeffs: &BitVec, rhs: bool) -> SolveOutcome {
        assert_eq!(coeffs.len(), self.vars, "equation width mismatch");
        self.probe_words(coeffs.as_words(), rhs)
    }

    /// [`probe`](Self::probe) over a borrowed word slice; same contract
    /// as [`insert_words`](Self::insert_words) but read-only.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len()` differs from [`stride`](Self::stride).
    pub fn probe_words(&self, coeffs: &[u64], rhs: bool) -> SolveOutcome {
        assert_eq!(coeffs.len(), self.stride, "equation width mismatch");
        let mut row = coeffs.to_vec();
        let r = self.reduce(&mut row, rhs);
        match words::first_one(&row) {
            None if r => SolveOutcome::Conflict,
            None => SolveOutcome::Redundant,
            Some(_) => SolveOutcome::Added,
        }
    }

    /// Forward-reduces `row` (right-hand side `rhs`) against the basis,
    /// in insertion order — each basis row has a distinct pivot — and
    /// returns the reduced right-hand side.
    fn reduce(&self, row: &mut [u64], mut rhs: bool) -> bool {
        for (i, &pivot) in self.pivots.iter().enumerate() {
            if words::get_bit(row, pivot) {
                words::xor_in(row, &self.row_words[i * self.stride..(i + 1) * self.stride]);
                rhs ^= self.rhs[i];
            }
        }
        rhs
    }

    /// Takes a snapshot that [`rollback`](Self::rollback) can restore.
    pub fn checkpoint(&self) -> SolverCheckpoint {
        SolverCheckpoint {
            basis_len: self.pivots.len(),
        }
    }

    /// Restores the solver to a previous [`checkpoint`](Self::checkpoint).
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint is newer than the current state (i.e.
    /// was taken from a different or longer-lived solver).
    pub fn rollback(&mut self, cp: SolverCheckpoint) {
        assert!(
            cp.basis_len <= self.pivots.len(),
            "rollback to a checkpoint from the future"
        );
        self.row_words.truncate(cp.basis_len * self.stride);
        self.pivots.truncate(cp.basis_len);
        self.rhs.truncate(cp.basis_len);
    }

    /// Solves the system, assigning every free variable with `fill`
    /// (called with the variable index) and back-substituting the pivot
    /// variables. Returns the full assignment.
    ///
    /// The DATE 2008 flow calls this with a pseudorandom fill: the free
    /// variables become the "pseudorandom data" that pad the seed.
    pub fn solve_with<F: FnMut(usize) -> bool>(&self, mut fill: F) -> BitVec {
        let mut solution = BitVec::zeros(self.vars);
        let mut pinned = BitVec::zeros(self.vars);
        for &p in &self.pivots {
            pinned.set(p, true);
        }
        for i in 0..self.vars {
            if !pinned.get(i) {
                solution.set(i, fill(i));
            }
        }
        // The basis is only forward-reduced (early rows may still carry
        // later pivots), so complete the elimination Gauss-Jordan style
        // on a copy before reading the pivot values off.
        let mut rows: Vec<(BitVec, bool)> = (0..self.pivots.len())
            .map(|i| {
                (
                    BitVec::from_words(
                        self.vars,
                        &self.row_words[i * self.stride..(i + 1) * self.stride],
                    ),
                    self.rhs[i],
                )
            })
            .collect();
        let pivots = &self.pivots;
        // Eliminate every pivot from every other row (Jordan step).
        for i in 0..rows.len() {
            let (row_i, rhs_i) = rows[i].clone();
            for (j, (row_j, rhs_j)) in rows.iter_mut().enumerate() {
                if j != i && row_j.get(pivots[i]) {
                    row_j.xor_with(&row_i);
                    *rhs_j ^= rhs_i;
                }
            }
        }
        for (i, (row, rhs)) in rows.iter().enumerate() {
            // row now touches only its own pivot and free variables
            let mut value = *rhs;
            for v in row.iter_ones() {
                if v != pivots[i] {
                    value ^= solution.get(v);
                }
            }
            solution.set(pivots[i], value);
        }
        solution
    }

    /// Solves with a pseudorandom fill from `rng`.
    pub fn solve_random<R: Rng + ?Sized>(&self, rng: &mut R) -> BitVec {
        self.solve_with(|_| rng.gen())
    }

    /// Verifies that `assignment` satisfies every inserted equation.
    ///
    /// # Panics
    ///
    /// Panics if `assignment.len()` differs from the variable count.
    pub fn check(&self, assignment: &BitVec) -> bool {
        assert_eq!(assignment.len(), self.vars, "assignment width mismatch");
        (0..self.pivots.len()).all(|i| {
            let row = &self.row_words[i * self.stride..(i + 1) * self.stride];
            let mut acc = 0u64;
            for (a, b) in row.iter().zip(assignment.as_words()) {
                acc ^= a & b;
            }
            (acc.count_ones() % 2 == 1) == self.rhs[i]
        })
    }

    /// The solver's current solution set as an explicit **affine
    /// space** `x0 + span(N)`: one particular solution (every free
    /// variable zero) plus a null-space basis with one vector per free
    /// variable.
    ///
    /// This is the probing-side dual of the row basis: whether a new
    /// equation `c · x = b` is consistent with the basis — and whether
    /// it adds rank — depends only on its **projection into the free
    /// subspace**, the `free_vars()` dot products `c · N_j` plus the
    /// reduced right-hand side `b ^ (c · x0)`. A zero projection means
    /// the basis implies the equation (a conflict iff the reduced
    /// right-hand side is set); any other projection adds rank. Hot
    /// search loops (the encoder's candidate probing) exploit exactly
    /// that: probing against the space costs `O(free_vars)` bits per
    /// equation where probing against the row basis costs `O(rank)`
    /// row reductions.
    ///
    /// The returned space is an owned snapshot: freely shareable
    /// across threads, valid until more equations are inserted.
    pub fn affine_space(&self) -> AffineSpace {
        let m = self.pivots.len();
        let stride = self.stride;
        // Jordan-complete a copy of the forward-reduced basis so every
        // row touches only its own pivot and free columns.
        let mut rows = self.row_words.clone();
        let mut rhs = self.rhs.clone();
        let mut tmp = vec![0u64; stride];
        for i in 0..m {
            tmp.copy_from_slice(&rows[i * stride..(i + 1) * stride]);
            let rhs_i = rhs[i];
            let pivot = self.pivots[i];
            for j in 0..m {
                if j != i && words::get_bit(&rows[j * stride..(j + 1) * stride], pivot) {
                    words::xor_in(&mut rows[j * stride..(j + 1) * stride], &tmp);
                    rhs[j] ^= rhs_i;
                }
            }
        }
        let mut is_pivot = vec![false; self.vars];
        for &p in &self.pivots {
            is_pivot[p] = true;
        }
        let free_cols: Vec<usize> = (0..self.vars).filter(|&c| !is_pivot[c]).collect();
        // particular solution with zero free variables: x[p_i] = rhs_i
        let mut x0 = vec![0u64; stride];
        for (i, &p) in self.pivots.iter().enumerate() {
            if rhs[i] {
                x0[p / 64] ^= 1u64 << (p % 64);
            }
        }
        // null vector per free column c: x[c] = 1, x[p_i] = row_i[c]
        let mut null_rows = vec![0u64; free_cols.len() * stride];
        for (j, &c) in free_cols.iter().enumerate() {
            let row = &mut null_rows[j * stride..(j + 1) * stride];
            row[c / 64] |= 1u64 << (c % 64);
            for (i, &p) in self.pivots.iter().enumerate() {
                if words::get_bit(&rows[i * stride..(i + 1) * stride], c) {
                    row[p / 64] ^= 1u64 << (p % 64);
                }
            }
        }
        AffineSpace {
            vars: self.vars,
            stride,
            x0,
            null_rows,
            free_cols,
        }
    }
}

/// The solution set of an [`IncrementalSolver`] basis as an explicit
/// affine space `x0 + span(N)`, produced by
/// [`IncrementalSolver::affine_space`].
///
/// The null-space basis is in **free-column form**: vector `j` has a 1
/// at the `j`-th free (non-pivot) column
/// ([`free_cols`](AffineSpace::free_cols)) and 0 at every other free
/// column.
#[derive(Debug, Clone)]
pub struct AffineSpace {
    vars: usize,
    stride: usize,
    /// Particular solution (free variables zero), `stride` words.
    x0: Vec<u64>,
    /// Null-space basis, one row per free column, `stride` words each.
    null_rows: Vec<u64>,
    /// The free (non-pivot) columns, ascending; `len` = space dim.
    free_cols: Vec<usize>,
}

impl AffineSpace {
    /// Dimension of the space (the solver's free-variable count).
    pub fn dim(&self) -> usize {
        self.free_cols.len()
    }

    /// Number of ambient variables.
    pub fn vars(&self) -> usize {
        self.vars
    }

    /// Words per ambient row.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The particular solution's words.
    pub fn x0_words(&self) -> &[u64] {
        &self.x0
    }

    /// Null-space basis vector `j` (ambient, `stride` words).
    ///
    /// # Panics
    ///
    /// Panics if `j >= dim()`.
    pub fn null_row(&self, j: usize) -> &[u64] {
        &self.null_rows[j * self.stride..(j + 1) * self.stride]
    }

    /// The free columns, ascending.
    pub fn free_cols(&self) -> &[usize] {
        &self.free_cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn row(bits: &[usize], vars: usize) -> BitVec {
        let mut v = BitVec::zeros(vars);
        for &b in bits {
            v.set(b, true);
        }
        v
    }

    #[test]
    fn simple_system() {
        let mut s = IncrementalSolver::new(3);
        assert_eq!(s.insert(&row(&[0, 1], 3), true), SolveOutcome::Added);
        assert_eq!(s.insert(&row(&[1, 2], 3), false), SolveOutcome::Added);
        assert_eq!(s.insert(&row(&[0, 2], 3), true), SolveOutcome::Redundant);
        assert_eq!(s.insert(&row(&[0, 2], 3), false), SolveOutcome::Conflict);
        assert_eq!(s.rank(), 2);
        assert_eq!(s.free_vars(), 1);
        let sol = s.solve_with(|_| true);
        assert!(s.check(&sol));
        assert!(sol.get(0) ^ sol.get(1));
        assert_eq!(sol.get(1), sol.get(2));
    }

    #[test]
    fn conflict_leaves_state_untouched() {
        let mut s = IncrementalSolver::new(2);
        s.insert(&row(&[0], 2), true);
        let rank_before = s.rank();
        assert_eq!(s.insert(&row(&[0], 2), false), SolveOutcome::Conflict);
        assert_eq!(s.rank(), rank_before);
        let sol = s.solve_with(|_| false);
        assert!(sol.get(0));
    }

    #[test]
    fn probe_does_not_mutate() {
        let mut s = IncrementalSolver::new(3);
        s.insert(&row(&[0], 3), true);
        assert_eq!(s.probe(&row(&[1], 3), true), SolveOutcome::Added);
        assert_eq!(s.rank(), 1, "probe must not insert");
        assert_eq!(s.probe(&row(&[0], 3), true), SolveOutcome::Redundant);
        assert_eq!(s.probe(&row(&[0], 3), false), SolveOutcome::Conflict);
    }

    #[test]
    fn word_slice_api_matches_bitvec_api() {
        let mut rng = SmallRng::seed_from_u64(5);
        let vars = 70; // two words, ragged tail
        let mut a = IncrementalSolver::new(vars);
        let mut b = IncrementalSolver::new(vars);
        for _ in 0..40 {
            let coeffs = BitVec::random(vars, &mut rng);
            let rhs = rand::Rng::gen(&mut rng);
            assert_eq!(a.probe(&coeffs, rhs), b.probe_words(coeffs.as_words(), rhs));
            assert_eq!(
                a.insert(&coeffs, rhs),
                b.insert_words(coeffs.as_words(), rhs)
            );
        }
        assert_eq!(a.rank(), b.rank());
        assert_eq!(a.solve_with(|_| false), b.solve_with(|_| false));
    }

    #[test]
    fn checkpoint_rollback() {
        let mut s = IncrementalSolver::new(4);
        s.insert(&row(&[0], 4), true);
        let cp = s.checkpoint();
        s.insert(&row(&[1], 4), false);
        s.insert(&row(&[2], 4), true);
        assert_eq!(s.rank(), 3);
        s.rollback(cp);
        assert_eq!(s.rank(), 1);
        // after rollback the dropped constraints are really gone
        assert_eq!(s.insert(&row(&[1], 4), true), SolveOutcome::Added);
    }

    #[test]
    #[should_panic(expected = "future")]
    fn rollback_forward_panics() {
        let mut s = IncrementalSolver::new(2);
        s.insert(&row(&[0], 2), true);
        let cp = s.checkpoint();
        let mut s2 = IncrementalSolver::new(2);
        s2.rollback(cp);
    }

    #[test]
    fn full_rank_system_has_unique_solution() {
        let mut s = IncrementalSolver::new(4);
        for i in 0..4 {
            s.insert(&row(&[i], 4), i % 2 == 0);
        }
        assert_eq!(s.free_vars(), 0);
        let a = s.solve_with(|_| false);
        let b = s.solve_with(|_| true);
        assert_eq!(a, b, "no free variables => fill is irrelevant");
        assert!(a.get(0) && !a.get(1) && a.get(2) && !a.get(3));
    }

    #[test]
    fn random_systems_solutions_check_out() {
        let mut rng = SmallRng::seed_from_u64(99);
        for trial in 0..50 {
            let vars = 20;
            let mut s = IncrementalSolver::new(vars);
            // Build a consistent system from a hidden ground truth.
            let truth = BitVec::random(vars, &mut rng);
            for _ in 0..15 {
                let coeffs = BitVec::random(vars, &mut rng);
                let rhs = coeffs.dot(&truth);
                assert_ne!(
                    s.insert(&coeffs, rhs),
                    SolveOutcome::Conflict,
                    "consistent system must not conflict (trial {trial})"
                );
            }
            let sol = s.solve_random(&mut rng);
            assert!(s.check(&sol), "solve_with must satisfy all equations");
        }
    }

    #[test]
    fn interleaved_speculation_matches_direct_insertion() {
        // Simulates the encoder's pattern: try a batch, roll back, try
        // another batch, commit.
        let mut rng = SmallRng::seed_from_u64(123);
        let vars = 16;
        let truth = BitVec::random(vars, &mut rng);
        let eqs: Vec<(BitVec, bool)> = (0..12)
            .map(|_| {
                let c = BitVec::random(vars, &mut rng);
                let r = c.dot(&truth);
                (c, r)
            })
            .collect();

        let mut spec = IncrementalSolver::new(vars);
        for (c, r) in &eqs[..4] {
            spec.insert(c, *r);
        }
        let cp = spec.checkpoint();
        for (c, r) in &eqs[4..8] {
            spec.insert(c, *r);
        }
        spec.rollback(cp);
        for (c, r) in &eqs[8..] {
            spec.insert(c, *r);
        }

        let mut direct = IncrementalSolver::new(vars);
        for (c, r) in eqs[..4].iter().chain(&eqs[8..]) {
            direct.insert(c, *r);
        }
        assert_eq!(spec.rank(), direct.rank());
        let sol = spec.solve_with(|_| false);
        assert!(direct.check(&sol));
    }

    #[test]
    fn affine_space_describes_the_solution_set_exactly() {
        let mut rng = SmallRng::seed_from_u64(777);
        for trial in 0..25 {
            let vars = 70; // ragged two-word rows
            let mut s = IncrementalSolver::new(vars);
            let truth = BitVec::random(vars, &mut rng);
            for _ in 0..40 {
                let c = BitVec::random(vars, &mut rng);
                let r = c.dot(&truth);
                s.insert(&c, r);
            }
            let space = s.affine_space();
            assert_eq!(space.dim(), s.free_vars(), "trial {trial}");
            assert_eq!(space.vars(), vars);
            // x0 solves the system
            let x0 = BitVec::from_words(vars, space.x0_words());
            assert!(s.check(&x0), "trial {trial}: x0 must satisfy the basis");
            // every null vector is annihilated by every basis equation,
            // and has the free-column unit structure
            for j in 0..space.dim() {
                let nj = BitVec::from_words(vars, space.null_row(j));
                let mut shifted = x0.clone();
                shifted.xor_with(&nj);
                assert!(s.check(&shifted), "trial {trial}: x0 + N_{j} must solve");
                for (k, &c) in space.free_cols().iter().enumerate() {
                    assert_eq!(nj.get(c), k == j, "free-column form");
                }
            }
        }
    }

    #[test]
    fn zero_vars_edge_case() {
        let mut s = IncrementalSolver::new(0);
        assert_eq!(s.insert(&BitVec::zeros(0), false), SolveOutcome::Redundant);
        assert_eq!(s.insert(&BitVec::zeros(0), true), SolveOutcome::Conflict);
        assert!(s.solve_with(|_| false).is_empty());
    }
}
