//! Precomputed phase-shifter output expressions for a whole window.
//!
//! Seed encoding forms one linear equation per specified cube bit; the
//! left-hand side is the expression of a phase-shifter output at a
//! particular clock cycle. Those expressions depend only on the LFSR,
//! the phase shifter and the cycle — not on the solver state — so they
//! are computed once per `(LFSR, shifter, L)` configuration and shared
//! by every seed. Rows are stored in one flat word array to keep the
//! table cache-friendly (an s38417-sized table is ~13 MB).

use ss_gf2::BitVec;
use ss_lfsr::{ExpressionStream, Lfsr, PhaseShifter};
use ss_testdata::ScanConfig;

/// The expression table: for each cycle `t < L*r` and chain `c`, the
/// GF(2) row `ps_c * T^t` over the seed variables.
///
/// # Example
///
/// ```
/// use ss_core::ExprTable;
/// use ss_gf2::primitive_poly;
/// use ss_lfsr::{Lfsr, PhaseShifter};
/// use ss_testdata::ScanConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lfsr = Lfsr::fibonacci(primitive_poly(8)?);
/// let shifter = PhaseShifter::identity(8);
/// let scan = ScanConfig::new(8, 4)?;
/// let table = ExprTable::build(&lfsr, &shifter, scan, 3);
/// assert_eq!(table.cycles(), 12);
/// // cycle 0: cell expressions are the unit vectors
/// assert_eq!(table.expr(0, 5), ss_gf2::BitVec::unit(8, 5));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ExprTable {
    words: Vec<u64>,
    stride: usize,
    vars: usize,
    chains: usize,
    cycles: usize,
    scan: ScanConfig,
    window: usize,
}

impl ExprTable {
    /// Builds the table for `window` vectors of scan geometry `scan`.
    ///
    /// # Panics
    ///
    /// Panics if the shifter's output count differs from the scan
    /// chain count, or its input count from the LFSR size.
    pub fn build(lfsr: &Lfsr, shifter: &PhaseShifter, scan: ScanConfig, window: usize) -> Self {
        assert_eq!(
            shifter.output_count(),
            scan.chains(),
            "phase shifter outputs must match scan chains"
        );
        assert_eq!(
            shifter.input_count(),
            lfsr.size(),
            "phase shifter inputs must match LFSR size"
        );
        let vars = lfsr.size();
        let stride = vars.div_ceil(64);
        let chains = scan.chains();
        let cycles = window * scan.depth();
        let mut words = vec![0u64; cycles * chains * stride];
        let mut stream = ExpressionStream::new(lfsr);
        for t in 0..cycles {
            for c in 0..chains {
                let expr = stream.output_expr(shifter, c);
                let base = (t * chains + c) * stride;
                words[base..base + stride].copy_from_slice(expr.as_words());
            }
            stream.step();
        }
        ExprTable {
            words,
            stride,
            vars,
            chains,
            cycles,
            scan,
            window,
        }
    }

    /// Number of scan chains (rows per cycle).
    pub fn chains(&self) -> usize {
        self.chains
    }

    /// Flat row index of the expression feeding scan cell `cell` of
    /// the vector at window position `position` — the same row
    /// [`cell_expr_words`](Self::cell_expr_words) returns, as an index
    /// `cycle * chains() + chain` into any per-row side table. Equal
    /// to `position * rows_per_position() + row_offset(cell)`, which
    /// is how hot loops amortise the scan-geometry arithmetic.
    ///
    /// # Panics
    ///
    /// Panics if `position >= window()` or `cell` is outside the scan
    /// geometry.
    pub fn row_index(&self, position: usize, cell: usize) -> usize {
        assert!(position < self.window, "window position out of range");
        position * self.rows_per_position() + self.row_offset(cell)
    }

    /// Table rows per window position (`depth * chains`).
    pub fn rows_per_position(&self) -> usize {
        self.scan.depth() * self.chains
    }

    /// The position-independent part of [`row_index`](Self::row_index)
    /// for `cell`: precompute once per cube, add
    /// `position * rows_per_position()` per probe.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the scan geometry.
    pub fn row_offset(&self, cell: usize) -> usize {
        let (chain, pos) = self.scan.chain_of(cell);
        self.scan.load_cycle(pos) * self.chains + chain
    }

    /// Raw words of table row `index` (as produced by
    /// [`row_index`](Self::row_index)).
    ///
    /// # Panics
    ///
    /// Panics if `index >= cycles() * chains()`.
    pub fn row_words(&self, index: usize) -> &[u64] {
        assert!(index < self.cycles * self.chains, "row index out of range");
        &self.words[index * self.stride..(index + 1) * self.stride]
    }

    /// Number of seed variables (LFSR size).
    pub fn vars(&self) -> usize {
        self.vars
    }

    /// Window length `L` the table covers.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Total cycles (`L * r`).
    pub fn cycles(&self) -> usize {
        self.cycles
    }

    /// The scan geometry.
    pub fn scan(&self) -> ScanConfig {
        self.scan
    }

    /// Raw words of the expression for `(cycle, chain)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn expr_words(&self, cycle: usize, chain: usize) -> &[u64] {
        assert!(cycle < self.cycles, "cycle {cycle} out of range");
        assert!(chain < self.chains, "chain {chain} out of range");
        let base = (cycle * self.chains + chain) * self.stride;
        &self.words[base..base + self.stride]
    }

    /// The expression for `(cycle, chain)` as a [`BitVec`].
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn expr(&self, cycle: usize, chain: usize) -> BitVec {
        BitVec::from_words(self.vars, self.expr_words(cycle, chain))
    }

    /// Words per expression row (`vars()` rounded up to whole `u64`s) —
    /// the slice length of [`expr_words`](Self::expr_words) /
    /// [`cell_expr_words`](Self::cell_expr_words) rows.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// The expression feeding scan *cell* `cell` of the vector at
    /// window position `position`: chain `c` of the cell, at the cycle
    /// within the load where that position is shifted in.
    ///
    /// # Panics
    ///
    /// Panics if `position >= window()` or `cell` is outside the scan
    /// geometry.
    pub fn cell_expr(&self, position: usize, cell: usize) -> BitVec {
        BitVec::from_words(self.vars, self.cell_expr_words(position, cell))
    }

    /// Raw words of [`cell_expr`](Self::cell_expr), borrowed straight
    /// from the table — the allocation-free row the solver's
    /// word-slice API ([`IncrementalSolver::insert_words`]
    /// [`probe_words`]) consumes directly.
    ///
    /// [`IncrementalSolver::insert_words`]: ss_gf2::IncrementalSolver::insert_words
    /// [`probe_words`]: ss_gf2::IncrementalSolver::probe_words
    ///
    /// # Panics
    ///
    /// Panics if `position >= window()` or `cell` is outside the scan
    /// geometry.
    pub fn cell_expr_words(&self, position: usize, cell: usize) -> &[u64] {
        assert!(position < self.window, "window position out of range");
        let (chain, pos) = self.scan.chain_of(cell);
        let cycle = position * self.scan.depth() + self.scan.load_cycle(pos);
        self.expr_words(cycle, chain)
    }

    /// Evaluates the whole window for a concrete seed: the `L` test
    /// vectors the decompressor would generate in Normal mode.
    /// Identical to [`try_expand_seed`](crate::try_expand_seed) but
    /// computed from the table (used by the reference encoder's fast
    /// path once a seed is fully determined).
    ///
    /// # Panics
    ///
    /// Panics if `seed.len() != vars()`.
    pub fn expand(&self, seed: &BitVec) -> Vec<BitVec> {
        assert_eq!(seed.len(), self.vars, "seed width mismatch");
        let r = self.scan.depth();
        let chains = self.chains;
        let mut vectors = Vec::with_capacity(self.window);
        for position in 0..self.window {
            let mut vector = BitVec::zeros(self.scan.cells());
            for t in 0..r {
                let cycle = position * r + t;
                let pos = self.scan.position_loaded_at(t);
                for c in 0..chains {
                    let words = self.expr_words(cycle, c);
                    let mut acc = 0u64;
                    for (w, s) in words.iter().zip(seed.as_words()) {
                        acc ^= w & s;
                    }
                    if acc.count_ones() % 2 == 1 {
                        vector.set(self.scan.cell_index(c, pos), true);
                    }
                }
            }
            vectors.push(vector);
        }
        vectors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use ss_gf2::primitive_poly;

    fn setup() -> (Lfsr, PhaseShifter, ScanConfig) {
        let mut rng = SmallRng::seed_from_u64(77);
        let lfsr = Lfsr::fibonacci(primitive_poly(10).unwrap());
        let shifter = PhaseShifter::synthesize(10, 4, 3, &mut rng).unwrap();
        let scan = ScanConfig::new(4, 6).unwrap();
        (lfsr, shifter, scan)
    }

    #[test]
    fn dimensions() {
        let (lfsr, shifter, scan) = setup();
        let table = ExprTable::build(&lfsr, &shifter, scan, 5);
        assert_eq!(table.vars(), 10);
        assert_eq!(table.window(), 5);
        assert_eq!(table.cycles(), 30);
    }

    #[test]
    fn expressions_predict_concrete_outputs() {
        let (mut lfsr, shifter, scan) = setup();
        let table = ExprTable::build(&lfsr, &shifter, scan, 4);
        let mut rng = SmallRng::seed_from_u64(3);
        let seed = BitVec::random(10, &mut rng);
        lfsr.load(&seed);
        for t in 0..table.cycles() {
            let outs = shifter.outputs(lfsr.state());
            for c in 0..4 {
                assert_eq!(
                    table.expr(t, c).dot(&seed),
                    outs.get(c),
                    "cycle {t} chain {c}"
                );
            }
            lfsr.step();
        }
    }

    #[test]
    fn cell_expr_respects_scan_mapping() {
        let (mut lfsr, shifter, scan) = setup();
        let table = ExprTable::build(&lfsr, &shifter, scan, 3);
        let mut rng = SmallRng::seed_from_u64(4);
        let seed = BitVec::random(10, &mut rng);

        // simulate the load of window position 1 concretely
        lfsr.load(&seed);
        let r = scan.depth();
        // skip position 0's load
        for _ in 0..r {
            lfsr.step();
        }
        // load position 1: r cycles shifting into chains
        let mut chains: Vec<Vec<bool>> = vec![Vec::new(); scan.chains()];
        for _ in 0..r {
            let outs = shifter.outputs(lfsr.state());
            for (c, chain) in chains.iter_mut().enumerate() {
                chain.push(outs.get(c));
            }
            lfsr.step();
        }
        // chain content: bit shifted at cycle t lands at position r-1-t
        for cell in 0..scan.cells() {
            let (chain, pos) = scan.chain_of(cell);
            let concrete = chains[chain][scan.load_cycle(pos)];
            assert_eq!(
                table.cell_expr(1, cell).dot(&seed),
                concrete,
                "cell {cell} (chain {chain}, pos {pos})"
            );
        }
    }

    #[test]
    fn cell_expr_words_borrows_the_same_row() {
        let (lfsr, shifter, scan) = setup();
        let table = ExprTable::build(&lfsr, &shifter, scan, 3);
        assert_eq!(table.stride(), 1);
        for position in 0..3 {
            for cell in 0..scan.cells() {
                assert_eq!(
                    BitVec::from_words(table.vars(), table.cell_expr_words(position, cell)),
                    table.cell_expr(position, cell),
                    "position {position} cell {cell}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_cycle_panics() {
        let (lfsr, shifter, scan) = setup();
        let table = ExprTable::build(&lfsr, &shifter, scan, 2);
        let _ = table.expr(12, 0);
    }
}
