//! Symbolic LFSR simulation: expression streaming.
//!
//! Seed computation treats the initial LFSR state as variables
//! `a0..a(n-1)` and needs, for every clock cycle `t` and every phase
//! shifter output `c`, the linear expression (a GF(2) row vector) that
//! the hardware produces at that point. [`ExpressionStream`] maintains
//! the n expression rows of the LFSR cells and advances them one clock
//! at a time in O(weight(T)) row-XORs — far cheaper than recomputing
//! `T^t` per cycle.

use ss_gf2::{BitMatrix, BitVec};

use crate::{Lfsr, PhaseShifter};

/// Symbolic state of an LFSR: one linear expression per cell, over the
/// initial-state variables.
///
/// After `t` calls to [`step`](ExpressionStream::step), row `i` equals
/// row `i` of `T^t`; evaluating it against a concrete seed gives the
/// value of cell `i` at cycle `t`.
///
/// # Example
///
/// ```
/// use ss_gf2::{primitive_poly, BitVec};
/// use ss_lfsr::{ExpressionStream, Lfsr};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut lfsr = Lfsr::fibonacci(primitive_poly(6)?);
/// let seed = BitVec::from_u128(6, 0b101101);
/// lfsr.load(&seed);
///
/// let mut stream = ExpressionStream::new(&lfsr);
/// for _ in 0..10 {
///     lfsr.step();
///     stream.step();
/// }
/// // symbolic row evaluated at the seed == concrete cell value
/// for i in 0..6 {
///     assert_eq!(stream.cell_expr(i).dot(&seed), lfsr.state().get(i));
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ExpressionStream {
    /// Sparse transition matrix: `sparse_t[i]` lists the cells whose
    /// previous-cycle expressions XOR into cell `i`'s next expression.
    sparse_t: Vec<Vec<usize>>,
    rows: Vec<BitVec>,
    /// The previous cycle's rows, reused by the next [`step`](Self::step).
    spare: Vec<BitVec>,
    cycle: u64,
    n: usize,
}

impl ExpressionStream {
    /// Creates a stream at cycle 0 (`rows = identity`: cell `i` holds
    /// variable `a_i`).
    pub fn new(lfsr: &Lfsr) -> Self {
        let n = lfsr.size();
        let t = lfsr.transition_matrix();
        let sparse_t = (0..n).map(|i| t.row(i).iter_ones().collect()).collect();
        ExpressionStream {
            sparse_t,
            rows: (0..n).map(|i| BitVec::unit(n, i)).collect(),
            spare: Vec::new(),
            cycle: 0,
            n,
        }
    }

    /// Number of LFSR cells (and of seed variables).
    pub fn size(&self) -> usize {
        self.n
    }

    /// Cycles advanced since construction.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Advances one clock: rows become the expressions one cycle later.
    /// The previous cycle's rows are recycled as the next buffer, so
    /// stepping allocates nothing after the first call.
    pub fn step(&mut self) {
        let mut next = std::mem::take(&mut self.spare);
        next.resize_with(self.n, || BitVec::zeros(self.n));
        for (row, taps) in next.iter_mut().zip(&self.sparse_t) {
            row.clear();
            for &j in taps {
                row.xor_with(&self.rows[j]);
            }
        }
        self.spare = std::mem::replace(&mut self.rows, next);
        self.cycle += 1;
    }

    /// Advances `count` clocks.
    pub fn step_by(&mut self, count: u64) {
        for _ in 0..count {
            self.step();
        }
    }

    /// The expression of cell `i` at the current cycle.
    ///
    /// # Panics
    ///
    /// Panics if `i >= size()`.
    pub fn cell_expr(&self, i: usize) -> &BitVec {
        &self.rows[i]
    }

    /// The expression of phase shifter output `chain` at the current
    /// cycle: the XOR of the cell expressions the shifter taps.
    ///
    /// # Panics
    ///
    /// Panics if the phase shifter input width differs from the LFSR
    /// size, or `chain` is out of range.
    pub fn output_expr(&self, shifter: &PhaseShifter, chain: usize) -> BitVec {
        assert_eq!(
            shifter.input_count(),
            self.n,
            "phase shifter width mismatch"
        );
        let mut expr = BitVec::zeros(self.n);
        for cell in shifter.taps(chain) {
            expr.xor_with(&self.rows[cell]);
        }
        expr
    }

    /// Expressions of all phase shifter outputs at the current cycle.
    ///
    /// # Panics
    ///
    /// Panics if the phase shifter input width differs from the LFSR size.
    pub fn output_exprs(&self, shifter: &PhaseShifter) -> Vec<BitVec> {
        (0..shifter.output_count())
            .map(|c| self.output_expr(shifter, c))
            .collect()
    }

    /// Snapshot of the cell expressions as a matrix (equals `T^cycle`).
    pub fn to_matrix(&self) -> BitMatrix {
        BitMatrix::from_rows(self.rows.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LfsrKind;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use ss_gf2::primitive_poly;

    #[test]
    fn rows_equal_matrix_power() {
        for kind in [LfsrKind::Fibonacci, LfsrKind::Galois] {
            let lfsr = Lfsr::try_new(primitive_poly(8).unwrap(), kind).unwrap();
            let t = lfsr.transition_matrix();
            let mut stream = ExpressionStream::new(&lfsr);
            for e in 0..12u64 {
                assert_eq!(stream.to_matrix(), t.pow(e), "{kind} cycle {e}");
                stream.step();
            }
        }
    }

    #[test]
    fn expressions_evaluate_to_concrete_states() {
        let mut rng = SmallRng::seed_from_u64(2024);
        for kind in [LfsrKind::Fibonacci, LfsrKind::Galois] {
            let mut lfsr = Lfsr::try_new(primitive_poly(10).unwrap(), kind).unwrap();
            let seed = BitVec::random(10, &mut rng);
            lfsr.load(&seed);
            let mut stream = ExpressionStream::new(&lfsr);
            for cycle in 0..50 {
                for i in 0..10 {
                    assert_eq!(
                        stream.cell_expr(i).dot(&seed),
                        lfsr.state().get(i),
                        "{kind} cycle {cycle} cell {i}"
                    );
                }
                lfsr.step();
                stream.step();
            }
        }
    }

    #[test]
    fn output_exprs_match_concrete_phase_shifter_outputs() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut lfsr = Lfsr::fibonacci(primitive_poly(12).unwrap());
        let shifter = PhaseShifter::synthesize(12, 8, 3, &mut rng).unwrap();
        let seed = BitVec::random(12, &mut rng);
        lfsr.load(&seed);
        let mut stream = ExpressionStream::new(&lfsr);
        for _ in 0..40 {
            let symbolic = stream.output_exprs(&shifter);
            let concrete = shifter.outputs(lfsr.state());
            for (c, expr) in symbolic.iter().enumerate() {
                assert_eq!(expr.dot(&seed), concrete.get(c), "chain {c}");
            }
            lfsr.step();
            stream.step();
        }
    }

    #[test]
    fn step_by_equals_steps() {
        let lfsr = Lfsr::fibonacci(primitive_poly(6).unwrap());
        let mut a = ExpressionStream::new(&lfsr);
        let mut b = ExpressionStream::new(&lfsr);
        a.step_by(9);
        for _ in 0..9 {
            b.step();
        }
        assert_eq!(a.to_matrix(), b.to_matrix());
        assert_eq!(a.cycle(), 9);
    }
}
