//! Bit-sliced first visits: one equation folds into the local systems
//! of all 64 window positions of a block at once, one word operation
//! per echelon column and plane.
//!
//! Lane `i` of every word is position `start + i` of the block. The
//! frame's projections are pre-reduced modulo the committed rows, so a
//! projected row is zero at every committed pivot column; only the
//! `f` free columns and the right-hand side (bit 63) are sliced, as
//! `f + 1` bit-planes. A table run's planes do not depend on the cube:
//! the cube's bit is xored into the right-hand side plane as the
//! equation folds, so one slicing of a run serves every cube.
//!
//! The planes come from the frame's projected LFSR sequence, sliced
//! once per frame state ([`SlicedSequence`]): a run's planes are a few
//! shifted reads of it, one per delay of the run's chain. A full-rank
//! seed is a frame of dimension 0, so its concrete outputs are the same
//! sequence sliced into the right-hand side plane alone.

use crate::expr_table::ExprTable;

/// Transposes a 64 x 64 bit matrix in place: bit `j` of word `i`
/// trades places with bit `i` of word `j`. Each of the six rounds
/// swaps the off-diagonal `w x w` blocks of every `2w x 2w` tile, for
/// `w` = 32, 16, ..., 1.
fn transpose64(m: &mut [u64; 64]) {
    let mut width = 32;
    let mut mask = u64::MAX >> 32;
    while width != 0 {
        for tile in m.chunks_exact_mut(2 * width) {
            let (lo, hi) = tile.split_at_mut(width);
            for (a, b) in lo.iter_mut().zip(hi) {
                let t = ((*a >> width) ^ *b) & mask;
                *a ^= t << width;
                *b ^= t;
            }
        }
        width >>= 1;
        mask ^= mask << width;
    }
}

/// The echelon forms of up to 64 lanes' local systems, as bit-planes.
///
/// `piv[c]` holds the lanes with a pivot row at free column `c`, and
/// that row's planes `c + 1..=f` (the last one the right-hand side)
/// sit in `rows`, column after column. A row has no bit below its
/// pivot column, so folding an equation walks the columns once, in
/// ascending order. Rows are read only under `piv`, so clearing a
/// block is clearing `piv`.
#[derive(Debug)]
pub(super) struct SlicedElim {
    /// Frame bit of each free column, ascending, as a one-bit mask;
    /// the last entry is the right-hand side's bit 63.
    cols: Vec<u64>,
    piv: [u64; 64],
    rows: Vec<u64>,
    /// The equation's planes in column order, reduced as the fold
    /// walks the columns.
    eq: [u64; 64],
}

impl Default for SlicedElim {
    fn default() -> SlicedElim {
        SlicedElim {
            cols: vec![1 << 63],
            piv: [0; 64],
            rows: Vec::new(),
            eq: [0; 64],
        }
    }
}

impl SlicedElim {
    /// Takes the free columns of a `dim`-dimensional frame whose
    /// committed rows pivot at `committed`, and clears every lane.
    pub(super) fn set_frame(&mut self, dim: usize, committed: u64) {
        self.cols.clear();
        self.cols
            .extend((0..dim).map(|c| 1u64 << c).filter(|&c| committed & c == 0));
        self.cols.push(1 << 63);
        let f = self.free();
        self.rows.resize(f * (f + 1) / 2, 0);
        self.clear();
    }

    /// Free columns of the frame.
    fn free(&self) -> usize {
        self.cols.len() - 1
    }

    /// Frame bit of each sliced plane, as a one-bit mask: the free
    /// columns ascending, then the right-hand side's bit 63.
    pub(super) fn cols(&self) -> &[u64] {
        &self.cols
    }

    /// Planes of one sliced row set: one per free column, then the
    /// right-hand side's.
    pub(super) fn width(&self) -> usize {
        self.cols.len()
    }

    /// Empties every lane's system.
    pub(super) fn clear(&mut self) {
        self.piv = [0; 64];
    }

    /// Folds one equation, given as the planes of its rows (word `k`
    /// holds every lane's bit of [`cols`](Self::cols)`[k]`), with `bit`
    /// xored into every right-hand side, into
    /// the lanes of `live`, and returns the lanes whose row reduced to
    /// `0 = 1`. Those lanes' systems are left as they were; a lane
    /// whose row was redundant is unchanged too, and no lane outside
    /// `live` is read or written.
    pub(super) fn fold(&mut self, planes: &[u64], bit: bool, live: u64) -> u64 {
        let f = self.free();
        self.eq[..=f].copy_from_slice(planes);
        self.eq[f] ^= 0u64.wrapping_sub(u64::from(bit));
        let mut todo = live;
        let mut planes = &mut self.rows[..];
        for c in 0..f {
            let (pivot_rows, rest) = planes.split_at_mut(f - c);
            planes = rest;
            let ec = self.eq[c] & todo;
            if ec == 0 {
                continue;
            }
            // lanes with a pivot here reduce by it; the others take
            // the row as their pivot row and are done
            let hit = ec & self.piv[c];
            let ins = ec & !self.piv[c];
            for (r, e) in pivot_rows.iter_mut().zip(&mut self.eq[c + 1..=f]) {
                *e ^= *r & hit;
                *r ^= (*r ^ *e) & ins;
            }
            self.piv[c] |= ins;
            todo &= !ins;
            if todo == 0 {
                return 0;
            }
        }
        todo & self.eq[f]
    }

    /// Stores lane `lane`'s pivot rows into `out` in packed frame
    /// form, ascending by pivot: an echelon basis of its system, each
    /// row gathered bit by bit from its planes.
    pub(super) fn export(&self, lane: usize, out: &mut Vec<u64>) {
        out.clear();
        let f = self.free();
        let mut planes = &self.rows[..];
        for c in 0..f {
            let (pivot_rows, rest) = planes.split_at(f - c);
            planes = rest;
            if self.piv[c] >> lane & 1 == 0 {
                continue;
            }
            let mut row = self.cols[c];
            for (&p, &col) in pivot_rows.iter().zip(&self.cols[c + 1..]) {
                row |= col & 0u64.wrapping_sub(p >> lane & 1);
            }
            out.push(row);
        }
    }
}

/// The frame's projected LFSR sequence, sliced by residue into
/// bit-planes.
///
/// Term `q(t)` is the packed projection of the table's sequence term
/// `u(t)` (see [`ExprTable`]'s sequence form), so the row of offset
/// `(l, c)` at window position `p` projects to the XOR of
/// `q(p * depth + l + d)` over the chain's delays `d`. Writing
/// `l + d = a * depth + r`, that term is `q((p + a) * depth + r)`:
/// entry `p + a` of residue `r`'s subsequence. Each residue's
/// subsequence is stored as bit-planes, 64 entries to a word, laid out
/// `(residue, word, column)`, so a block's 64 lanes read one delay as
/// one contiguous run of two words per column, shifted by `a`.
#[derive(Debug, Default)]
pub(super) struct SlicedSequence {
    /// `q(t)`, `t < span * depth`.
    seq: Vec<u64>,
    /// `planes[(r * words + w) * width + k]`: bit `i` is column `k` of
    /// `q((64 * w + i) * depth + r)`, zero past `span` entries.
    planes: Vec<u64>,
    depth: usize,
    words: usize,
    width: usize,
}

impl SlicedSequence {
    /// Projects the sequence of `table` from `basis`, the packed
    /// projections `q(d)` of its basis terms `u(d)`, `d < vars`, by the
    /// table's recurrence, far enough for every window position and
    /// delay, and slices the frame bits `cols` into planes.
    pub(super) fn build(&mut self, table: &ExprTable, basis: &[u64], cols: &[u64]) {
        let n = basis.len();
        let depth = table.scan().depth();
        // entries per residue: every window position, plus the
        // largest carry `a` of a load cycle plus a delay (`d < n`)
        let span = table.window() + (depth + n - 2) / depth;
        let len = span * depth;
        self.seq.clear();
        self.seq.extend_from_slice(basis);
        for t in n..len {
            let q = table
                .recurrence()
                .iter()
                .fold(0, |acc, &j| acc ^ self.seq[t - n + j]);
            self.seq.push(q);
        }
        // one spare word per residue, so a shifted read never runs out
        let sliced_words = span.div_ceil(64);
        self.depth = depth;
        self.words = sliced_words + 1;
        self.width = cols.len();
        self.planes.clear();
        self.planes.resize(depth * self.words * self.width, 0);
        let mut lanes = [0u64; 64];
        for r in 0..depth {
            for w in 0..sliced_words {
                for (i, lane) in lanes.iter_mut().enumerate() {
                    *lane = self.seq.get((64 * w + i) * depth + r).copied().unwrap_or(0);
                }
                transpose64(&mut lanes);
                let at = (r * self.words + w) * self.width;
                for (plane, &col) in self.planes[at..at + self.width].iter_mut().zip(cols) {
                    *plane = lanes[col.trailing_zeros() as usize];
                }
            }
        }
    }

    /// Writes to `out` the planes of the run of `table`'s offset
    /// `offset` for the block of positions `start..start + 64` (`start`
    /// a multiple of 64): the rows that are the XOR of
    /// `u(p * depth + load_cycle + d)` over the delays `d` of the
    /// offset's chain. Lanes past the window hold whatever the sequence
    /// holds there.
    pub(super) fn run(&self, table: &ExprTable, offset: usize, start: usize, out: &mut [u64]) {
        debug_assert!(start.is_multiple_of(64) && out.len() == self.width);
        out.fill(0);
        let width = self.width;
        let load_cycle = offset / table.chains();
        for &d in table.delays(offset % table.chains()) {
            let s = load_cycle + d;
            let entry = start + s / self.depth;
            let at = ((s % self.depth) * self.words + entry / 64) * width;
            let (lo, hi) = self.planes[at..at + 2 * width].split_at(width);
            // `(hi << 1) << (63 - shift)` is `hi << (64 - shift)`, and
            // zero at shift 0
            let shift = entry % 64;
            for ((plane, &lo), &hi) in out.iter_mut().zip(lo).zip(hi) {
                *plane ^= lo >> shift | (hi << 1) << (63 - shift);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{survivors, FastElim};
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn transpose64_matches_the_naive_definition() {
        let mut rng = SmallRng::seed_from_u64(31);
        for _ in 0..20 {
            let m: [u64; 64] = std::array::from_fn(|_| rng.gen());
            let mut t = m;
            transpose64(&mut t);
            for (i, &row) in m.iter().enumerate() {
                for (j, &col) in t.iter().enumerate() {
                    assert_eq!(row >> j & 1, col >> i & 1, "bit ({i}, {j})");
                }
            }
            transpose64(&mut t);
            assert_eq!(t, m, "a transpose is its own inverse");
        }
    }

    /// Folds random equations into `sliced` and into one
    /// [`FastElim`] per lane, checks that both agree on every conflict
    /// and on each survivor's exported system, and counts conflicts,
    /// redundant rows and survivors into `kinds`. A block has
    /// `1 + case % 64` lanes; with `garbage`, the lanes past it hold
    /// random words that every transpose carries into the planes. Returns
    /// the frame's free dimension.
    fn fold_random_block(
        rng: &mut SmallRng,
        case: usize,
        garbage: bool,
        kinds: &mut [usize; 3],
    ) -> usize {
        let lanes = 1 + case % 64;
        let dim = rng.gen_range(1..=63usize);
        // a few committed pivot columns the frame keeps at zero
        let mut committed = 0u64;
        while dim - (committed.count_ones() as usize) > 1 && rng.gen_bool(0.6) {
            committed |= 1 << rng.gen_range(0..dim);
        }
        let free: Vec<u32> = (0..dim as u32)
            .filter(|&c| committed >> c & 1 == 0)
            .collect();
        let f = free.len();
        // each lane draws from a subspace of its own dimension, so
        // lanes stop gaining rank and die at different rows
        let span: Vec<usize> = (0..lanes).map(|_| rng.gen_range(1..=f)).collect();
        let solution: Vec<u64> = (0..lanes).map(|_| rng.gen()).collect();
        let mut sliced = SlicedElim::default();
        sliced.set_frame(dim, committed);
        let mut elims = vec![FastElim::new(); lanes];
        let mut live = u64::MAX >> (64 - lanes);
        let mut planes = vec![0u64; sliced.width()];
        for _ in 0..f + 8 {
            let mut rows = [0u64; 64];
            for (lane, row) in rows.iter_mut().enumerate().take(lanes) {
                for &c in &free[..span[lane]] {
                    *row |= u64::from(rng.gen_bool(0.5)) << c;
                }
                // the rhs holds at the lane's own point but for rare
                // errors, so dependent rows are mostly redundant
                let err = rng.gen_bool(0.03);
                let rhs = (*row & solution[lane]).count_ones() % 2 == 1;
                *row |= u64::from(rhs ^ err) << 63;
            }
            // the cube's bit reaches the planes only at the fold
            let bit: bool = rng.gen();
            let flip = u64::from(bit) << 63;
            let mut words: [u64; 64] = std::array::from_fn(|lane| match lane < lanes {
                true => rows[lane] ^ flip,
                false if garbage => rng.gen(),
                false => 0,
            });
            transpose64(&mut words);
            for (plane, &col) in planes.iter_mut().zip(sliced.cols()) {
                *plane = words[col.trailing_zeros() as usize];
            }
            let conflicts = sliced.fold(&planes, bit, live);
            assert_eq!(conflicts & !live, 0, "case {case}: a conflict outside live");
            for (lane, elim) in elims.iter_mut().enumerate() {
                if live >> lane & 1 == 0 {
                    continue;
                }
                let rank = elim.rank();
                let ok = elim.fold_packed(rows[lane]);
                assert_eq!(!ok, conflicts >> lane & 1 == 1, "case {case} lane {lane}");
                kinds[0] += usize::from(!ok);
                kinds[1] += usize::from(ok && elim.rank() == rank);
            }
            live &= !conflicts;
        }
        let (mut exported, mut ours, mut theirs) = (Vec::new(), Vec::new(), Vec::new());
        for lane in survivors(0, live) {
            sliced.export(lane, &mut exported);
            // equal spans have equal Gauss-Jordan forms
            let mut elim = FastElim::new();
            for &row in &exported {
                assert!(elim.fold_packed(row), "case {case} lane {lane}");
            }
            elim.store_packed(&mut ours);
            elims[lane].store_packed(&mut theirs);
            assert_eq!(ours, theirs, "case {case} lane {lane}");
            assert_eq!(exported.len(), theirs.len(), "case {case} lane {lane}");
            kinds[2] += 1;
        }
        f
    }

    #[test]
    fn sliced_fold_matches_per_lane_elimination() {
        let mut rng = SmallRng::seed_from_u64(32);
        let mut kinds = [0usize; 3]; // conflicts, redundant rows, survivors
        let mut small_frames = 0;
        for case in 0..120 {
            small_frames += usize::from(fold_random_block(&mut rng, case, false, &mut kinds) <= 10);
        }
        assert!(kinds.iter().all(|&k| k > 0), "outcomes seen: {kinds:?}");
        assert!(small_frames > 0, "no frame of f <= 10 drawn");
    }

    #[test]
    fn plane_fold_ignores_lanes_past_the_block() {
        // a block shorter than 64 positions slices whatever its unused
        // lanes hold; the fold must neither read nor write them
        let mut rng = SmallRng::seed_from_u64(33);
        let mut kinds = [0usize; 3];
        for case in 0..120 {
            fold_random_block(&mut rng, case, true, &mut kinds);
        }
        assert!(kinds.iter().all(|&k| k > 0), "outcomes seen: {kinds:?}");
    }
}
