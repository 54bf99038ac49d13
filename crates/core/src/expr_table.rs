//! Precomputed phase-shifter output expressions for a whole window.
//!
//! Seed encoding forms one linear equation per specified cube bit; the
//! left-hand side is the expression of a phase-shifter output at a
//! particular clock cycle. Those expressions depend only on the LFSR,
//! the phase shifter and the cycle — not on the solver state — so they
//! are computed once per `(LFSR, shifter, L)` configuration and shared
//! by every seed.
//!
//! # Layout
//!
//! Rows live in one flat word array, **cell-major**: a scan cell's
//! load slot — its *offset*, `load_cycle * chains + chain` — names a
//! run of `L` rows, one per window position, side by side. The encoder
//! probes one equation (one offset) at every window position before it
//! moves to the next, so each equation streams one contiguous run of
//! `L * stride` words instead of touching one cache line in each of
//! `L` position blocks. [`ExprTable::build`] derives every row from
//! the table's sequence form (below) and writes it straight into its
//! slot. Table size is `L * cells * stride` words: an s38417-sized
//! table (`n = 85`, 1664 cells) is ~5.3 MB at `L = 200` and ~13 MB at
//! `L = 500`.
//!
//! # Sequence form
//!
//! Every row is one phase-shifter output at one clock of one LFSR, so
//! it is the XOR of a few delays of a single linear-recurrence
//! sequence `u(t) = e0 * T^t`, the expression of cell 0 at cycle `t`.
//! Its first `n` terms form a basis (the unit vectors for a Fibonacci
//! LFSR, a unit-triangular basis for a Galois one), and one inversion
//! in that basis gives:
//!
//! * the recurrence `u(t + n) = XOR of u(t + j)` over `j` in a set `P`;
//! * for each chain `c`, a delay set `D_c` with
//!   `ps_c = XOR of u(d)` over `d` in `D_c`, so the row of chain `c`
//!   at cycle `t` is `XOR of u(t + d)` over `d` in `D_c`.
//!
//! [`ExprTable::build`] computes the rows from this form and keeps the
//! form beside them. The encoder projects the sequence once per seed
//! frame state instead of projecting rows.

use ss_gf2::{BitMatrix, BitVec};
use ss_lfsr::{ExpressionStream, Lfsr, PhaseShifter};
use ss_testdata::ScanConfig;

/// The expression table: for each cycle `t < L*r` and chain `c`, the
/// GF(2) row `ps_c * T^t` over the seed variables, stored cell-major:
/// the row for window position `v` and scan-cell offset `o`
/// ([`row_offset`](Self::row_offset)) is row `o * L + v`, so one
/// offset's rows for every position form one
/// [`position_run`](Self::position_run).
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
/// // one offset's rows for all three window positions, side by side
/// let run = table.position_run(table.row_offset(3));
/// assert_eq!(&run[2..3], table.cell_expr_words(2, 3));
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
    /// The sequence form's basis `u(d)`, `d < vars`, one row of
    /// `stride` words each.
    basis: Vec<u64>,
    /// The recurrence's delays `P`: `u(t + vars)` is the XOR of
    /// `u(t + j)` over `j` in `P`.
    recurrence: Vec<usize>,
    /// Each chain's delay set `D_c`, ascending.
    delays: Vec<Vec<usize>>,
}

impl ExprTable {
    /// Builds the table for `window` vectors of scan geometry `scan`:
    /// finds the sequence form, extends the sequence by its recurrence
    /// past the last cycle, and writes each row, the XOR of its chain's
    /// delays, straight into its cell-major slot.
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
        let depth = scan.depth();
        let cycles = window * depth;
        let (mut seq, recurrence, delays) = sequence_form(lfsr, shifter);
        // `u(t)` for every cycle plus the largest delay (`d < vars`)
        seq.resize((cycles + vars) * stride, 0);
        for t in vars..cycles + vars {
            let (earlier, next) = seq.split_at_mut(t * stride);
            for &j in &recurrence {
                let at = (t - vars + j) * stride;
                ss_gf2::words::xor_in(&mut next[..stride], &earlier[at..at + stride]);
            }
        }
        // each row is the XOR of its chain's delays of the sequence,
        // written offset by offset into its cell-major slot
        let mut words = vec![0u64; cycles * chains * stride];
        let mut rows = words.chunks_exact_mut(stride);
        for load_cycle in 0..depth {
            for chain_delays in &delays {
                for position in 0..window {
                    let row = rows.next().expect("one row per slot");
                    let t = position * depth + load_cycle;
                    for &d in chain_delays {
                        ss_gf2::words::xor_in(row, &seq[(t + d) * stride..(t + d + 1) * stride]);
                    }
                }
            }
        }
        seq.truncate(vars * stride);
        seq.shrink_to_fit();
        ExprTable {
            words,
            stride,
            vars,
            chains,
            cycles,
            scan,
            window,
            basis: seq,
            recurrence,
            delays,
        }
    }

    /// The sequence form's basis rows `u(d) = e0 * T^d` for `d < vars()`,
    /// each [`stride`](Self::stride) words.
    pub(crate) fn basis_rows(&self) -> std::slice::ChunksExact<'_, u64> {
        self.basis.chunks_exact(self.stride)
    }

    /// The delays `P` of the sequence's recurrence: `u(t + vars())` is
    /// the XOR of `u(t + j)` over `j` in `P`.
    pub(crate) fn recurrence(&self) -> &[usize] {
        &self.recurrence
    }

    /// Chain `chain`'s delay set `D_c`: its row at cycle `t` is the XOR
    /// of `u(t + d)` over `d` in `D_c`.
    pub(crate) fn delays(&self, chain: usize) -> &[usize] {
        &self.delays[chain]
    }

    /// Number of scan chains (rows per cycle).
    pub fn chains(&self) -> usize {
        self.chains
    }

    /// The offset of scan cell `cell`: its load slot
    /// `load_cycle * chains() + chain`, which names its
    /// [`position_run`](Self::position_run). Precompute it once per
    /// cube.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is outside the scan geometry.
    pub fn row_offset(&self, cell: usize) -> usize {
        let (chain, pos) = self.scan.chain_of(cell);
        self.scan.load_cycle(pos) * self.chains + chain
    }

    /// The rows of offset `offset` (from [`row_offset`](Self::row_offset))
    /// for window positions `0..window()`, side by side: position `v`'s
    /// row is `run[v * stride()..(v + 1) * stride()]`.
    ///
    /// # Panics
    ///
    /// Panics if `offset >= depth * chains()`.
    pub fn position_run(&self, offset: usize) -> &[u64] {
        assert!(
            offset < self.scan.depth() * self.chains,
            "offset {offset} out of range"
        );
        let len = self.window * self.stride;
        &self.words[offset * len..(offset + 1) * len]
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

    /// Raw words of the row at window position `position` and offset
    /// `offset`.
    fn row(&self, position: usize, offset: usize) -> &[u64] {
        let base = (offset * self.window + position) * self.stride;
        &self.words[base..base + self.stride]
    }

    /// Raw words of the expression for `(cycle, chain)`.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn expr_words(&self, cycle: usize, chain: usize) -> &[u64] {
        assert!(cycle < self.cycles, "cycle {cycle} out of range");
        assert!(chain < self.chains, "chain {chain} out of range");
        let depth = self.scan.depth();
        self.row(cycle / depth, cycle % depth * self.chains + chain)
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
        self.row(position, self.row_offset(cell))
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

/// The sequence form of `lfsr` behind `shifter`: the basis rows
/// `u(d)`, `d < n`, as flat words, the recurrence's delays, and each
/// chain's delay set, all read off one inverse of the basis.
fn sequence_form(lfsr: &Lfsr, shifter: &PhaseShifter) -> (Vec<u64>, Vec<usize>, Vec<Vec<usize>>) {
    let n = lfsr.size();
    let mut stream = ExpressionStream::new(lfsr);
    let mut u = Vec::with_capacity(n + 1);
    for _ in 0..=n {
        u.push(stream.cell_expr(0).clone());
        stream.step();
    }
    let next = u.pop().expect("n + 1 terms");
    let basis: Vec<u64> = u.iter().flat_map(|row| row.as_words()).copied().collect();
    // coordinates in the basis: `v = (v * U^-1) * U`
    let inverse = BitMatrix::from_rows(u)
        .inverse()
        .expect("the first n terms of an LFSR's cell-0 sequence form a basis");
    let coords = |v: &BitVec| inverse.vec_mul(v).iter_ones().collect();
    let delays = shifter.rows().iter_rows().map(coords).collect();
    (basis, coords(&next), delays)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use ss_gf2::primitive_poly;
    use ss_lfsr::LfsrKind;

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
    fn every_accessor_reads_the_stream_row_of_each_position_and_cell() {
        // 70 seed variables make two-word rows; 23 cells on 4 chains
        // pad the last chain with one cell
        let mut rng = SmallRng::seed_from_u64(78);
        let lfsr = Lfsr::fibonacci(primitive_poly(70).unwrap());
        let shifter = PhaseShifter::synthesize(70, 4, 3, &mut rng).unwrap();
        let scan = ScanConfig::for_cells(4, 23).unwrap();
        assert_eq!(scan.cells(), 24);
        let window = 5;
        let table = ExprTable::build(&lfsr, &shifter, scan, window);
        assert_eq!(table.stride(), 2);
        let mut stream = ExpressionStream::new(&lfsr);
        let mut rows = Vec::new(); // rows[cycle][chain]
        for _ in 0..table.cycles() {
            rows.push(stream.output_exprs(&shifter));
            stream.step();
        }
        for cell in 0..scan.cells() {
            let run = table.position_run(table.row_offset(cell));
            assert_eq!(run.len(), window * 2);
            let (chain, pos) = scan.chain_of(cell);
            for position in 0..window {
                let cycle = position * scan.depth() + scan.load_cycle(pos);
                let want = rows[cycle][chain].as_words();
                let at = format!("position {position} cell {cell}");
                assert_eq!(&run[position * 2..position * 2 + 2], want, "{at}");
                assert_eq!(table.cell_expr_words(position, cell), want, "{at}");
                assert_eq!(table.expr_words(cycle, chain), want, "{at}");
            }
        }
    }

    #[test]
    fn every_row_is_its_chains_delays_of_the_cell_zero_sequence() {
        // 70 seed variables make two-word rows; 5 chains of depth 7
        // put delays past one load into later residues
        let mut rng = SmallRng::seed_from_u64(79);
        let n = 70;
        let shifter = PhaseShifter::synthesize(n, 5, 3, &mut rng).unwrap();
        let scan = ScanConfig::new(5, 7).unwrap();
        for kind in [LfsrKind::Fibonacci, LfsrKind::Galois] {
            let lfsr = Lfsr::try_new(primitive_poly(n).unwrap(), kind).unwrap();
            for window in [1usize, 8, 24, 70] {
                let table = ExprTable::build(&lfsr, &shifter, scan, window);
                // u(t), straight from a stream, past the last row's
                // largest delay
                let mut stream = ExpressionStream::new(&lfsr);
                let u: Vec<BitVec> = (0..table.cycles() + n)
                    .map(|_| {
                        let row = stream.cell_expr(0).clone();
                        stream.step();
                        row
                    })
                    .collect();
                let at = format!("{kind} L={window}");
                for (d, row) in table.basis_rows().enumerate() {
                    assert_eq!(row, u[d].as_words(), "{at}: basis row {d}");
                }
                for t in 0..u.len() - n {
                    let mut next = BitVec::zeros(n);
                    table
                        .recurrence()
                        .iter()
                        .for_each(|&j| next.xor_with(&u[t + j]));
                    assert_eq!(next, u[t + n], "{at}: recurrence at t = {t}");
                }
                for t in 0..table.cycles() {
                    for c in 0..table.chains() {
                        let mut want = BitVec::zeros(n);
                        table
                            .delays(c)
                            .iter()
                            .for_each(|&d| want.xor_with(&u[t + d]));
                        assert_eq!(table.expr(t, c), want, "{at}: cycle {t} chain {c}");
                    }
                }
                if kind == LfsrKind::Fibonacci {
                    for c in 0..table.chains() {
                        assert_eq!(table.delays(c), shifter.taps(c), "{at}: chain {c}");
                    }
                }
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
