//! Bit-sliced first visits: one equation folds into the local systems
//! of all 64 window positions of a block at once, one word operation
//! per echelon column and plane.
//!
//! Lane `i` of every word is position `start + i` of the block. The
//! frame's images are pre-reduced modulo the committed rows, so a
//! projected row is zero at every committed pivot column; only the
//! `f` free columns and the right-hand side (bit 63) are sliced, as
//! `f + 1` bit-planes.

use super::{survivors, FastElim};

/// Transposes a 64 x 64 bit matrix in place: bit `j` of word `i`
/// trades places with bit `i` of word `j`. Each of the six rounds
/// swaps the off-diagonal `w x w` blocks of every `2w x 2w` tile, for
/// `w` = 32, 16, ..., 1.
pub(super) fn transpose64(m: &mut [u64; 64]) {
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
    /// One projected row per lane, then (after the transpose) one
    /// plane per frame bit.
    buf: [u64; 64],
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
            buf: [0; 64],
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

    /// Empties every lane's system.
    pub(super) fn clear(&mut self) {
        self.piv = [0; 64];
    }

    /// The per-lane row buffer of the next [`fold`](Self::fold): word
    /// `i` is lane `i`'s packed row (rhs in bit 63). Words of lanes the
    /// fold does not take are ignored.
    pub(super) fn lanes_mut(&mut self) -> &mut [u64; 64] {
        &mut self.buf
    }

    /// Folds the rows in [`lanes_mut`](Self::lanes_mut) into the lanes
    /// of `live`, and returns the lanes whose row reduced to `0 = 1`.
    /// Those lanes' systems are left as they were; a lane whose row
    /// was redundant is unchanged too.
    pub(super) fn fold(&mut self, live: u64) -> u64 {
        transpose64(&mut self.buf);
        let f = self.free();
        for (e, &col) in self.eq.iter_mut().zip(&self.cols) {
            *e = self.buf[col.trailing_zeros() as usize];
        }
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

    /// Loads the pivot rows of each lane `i` of `lanes`, in packed
    /// frame form, into the eliminator `elims[i]`, cleared first. One
    /// transpose per column turns its pivot rows back into one packed
    /// row per lane. The columns go from the highest down, so each row
    /// is reduced once and no held row needs updating.
    pub(super) fn export(&mut self, lanes: u64, elims: &mut [FastElim]) {
        let SlicedElim {
            cols,
            piv,
            rows,
            buf,
            ..
        } = self;
        for i in survivors(0, lanes) {
            elims[i].clear();
        }
        let f = cols.len() - 1;
        let mut planes = &rows[..];
        for c in (0..f).rev() {
            let (rest, pivot_rows) = planes.split_at(planes.len() - (f - c));
            planes = rest;
            let holders = piv[c] & lanes;
            if holders == 0 {
                continue;
            }
            *buf = [0; 64];
            buf[cols[c].trailing_zeros() as usize] = holders;
            for (&p, &col) in pivot_rows.iter().zip(&cols[c + 1..]) {
                buf[col.trailing_zeros() as usize] = p;
            }
            transpose64(buf);
            for i in survivors(0, holders) {
                elims[i].push_below(buf[i]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
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

    /// Whether every row of `a` reduces to zero against `b`.
    fn spanned_by(a: &FastElim, b: &FastElim) -> bool {
        let mut rows = Vec::new();
        a.store_packed(&mut rows);
        rows.iter().all(|&r| b.reduce_packed(r) == 0)
    }

    #[test]
    fn sliced_fold_matches_per_lane_elimination() {
        let mut rng = SmallRng::seed_from_u64(32);
        let mut kinds = [0usize; 3]; // conflicts, redundant rows, survivors
        let mut small_frames = 0;
        for case in 0..120 {
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
            small_frames += usize::from(f <= 10);
            // each lane draws from a subspace of its own dimension, so
            // lanes stop gaining rank and die at different rows
            let span: Vec<usize> = (0..lanes).map(|_| rng.gen_range(1..=f)).collect();
            let solution: Vec<u64> = (0..lanes).map(|_| rng.gen()).collect();
            let mut sliced = SlicedElim::default();
            sliced.set_frame(dim, committed);
            let mut elims = vec![FastElim::new(); lanes];
            let mut live = u64::MAX >> (64 - lanes);
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
                *sliced.lanes_mut() = rows;
                let conflicts = sliced.fold(live);
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
            let mut exported = vec![FastElim::new(); lanes];
            sliced.export(live, &mut exported);
            for lane in survivors(0, live) {
                let (ours, theirs) = (&exported[lane], &elims[lane]);
                assert_eq!(ours.rank(), theirs.rank(), "case {case} lane {lane}");
                assert!(spanned_by(ours, theirs), "case {case} lane {lane}");
                assert!(spanned_by(theirs, ours), "case {case} lane {lane}");
                kinds[2] += 1;
            }
        }
        assert!(kinds.iter().all(|&k| k > 0), "outcomes seen: {kinds:?}");
        assert!(small_frames > 0, "no frame of f <= 10 drawn");
    }
}
