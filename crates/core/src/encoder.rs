//! Window-based multi-cube seed encoding (Section 2 of the paper).
//!
//! Each seed is expanded on-chip into a window of `L` pseudorandom
//! vectors, so a cube can be encoded at any of `L` window positions —
//! `L` candidate linear systems instead of one. The greedy algorithm
//! reproduced here (the paper attributes it to its ref. [11]) packs
//! cubes into a seed until no remaining cube is solvable anywhere in
//! the window:
//!
//! 1. start the seed with the unencoded cube carrying the most
//!    specified bits, placed at window position 0;
//! 2. repeatedly, among the solvable (cube, position) systems for the
//!    cubes with the most specified bits, pick the system that
//!    (a) replaces the fewest seed variables (adds the least rank),
//!    (b) belongs to the cube encodable at the fewest positions, and
//!    (c) sits nearest the start of the window;
//! 3. when nothing is solvable, draw the free variables pseudorandomly
//!    and emit the seed; repeat with the remaining cubes.
//!
//! Conflicts are monotone in the growing basis, so each seed keeps a
//! per-cube cache of still-viable positions that only ever shrinks.
//!
//! # The incremental hot path
//!
//! [`WindowEncoder::encode`] keeps the greedy decisions of the search
//! above but replaces its probing engine. Whether a candidate
//! `(cube, position)` system is solvable — and how much rank it would
//! add — is a mathematical invariant of the equation sets involved, so
//! any probing engine that computes those two facts yields exactly the
//! same placements, seed for seed and bit for bit. The overhauled
//! engine computes them **incrementally**, in the basis's free
//! subspace:
//!
//! * **Free-space projection.** After the seed's first commit the
//!   solver's solution set is captured as an affine space
//!   `x0 + span(N)` ([`IncrementalSolver::affine_space`]) of dimension
//!   `f = n - rank` — tiny, because the first (largest) cube consumed
//!   most of the rank. Probing happens entirely in that `f`-bit
//!   coordinate frame instead of the `n`-bit ambient space. A packed
//!   frame row is one `u64`, so `f <= 63`: a wider frame (an LFSR far
//!   larger than its cubes) runs the reference search's own probe,
//!   exact by construction, until commits shrink it into range.
//! * **On-demand projection through a byte-sliced frame.** Projection
//!   into the frame is linear in the table row, so each seed frame
//!   tabulates the packed images of the `n` seed variables and a
//!   lookup table of every XOR of eight consecutive images (the Method
//!   of Four Russians). Projecting a probed row costs one lookup per
//!   row byte, so probing costs time in proportion to the rows it
//!   reads — nothing of size `L x cells` is built per seed.
//! * **Equation-outer first visits.** A cube's first visit in a seed
//!   probes all `L` positions. It takes the cube's equations in
//!   ascending table offset and folds each one into every still-live
//!   position of a block of 64 positions before the next equation
//!   starts; a position drops out at its first conflict.
//!   The [`ExprTable`] is cell-major, so one equation's rows for the
//!   block are one contiguous run, and the block's per-position
//!   eliminators (or masks) stay cache-resident. Each position still
//!   folds the same equations in the same order, so viability, added
//!   rank and the cached residue are exactly those of a
//!   position-at-a-time probe.
//! * **Residue caching with a high-water mark.** Each viable
//!   `(cube, position)` candidate caches its locally-eliminated
//!   projected system. Later rounds do not re-eliminate it: committed
//!   rows accumulate in an append-only log, and a stale residue is
//!   *resumed* by folding in only the log suffix past its high-water
//!   mark — sound because the basis (and hence the log) only ever
//!   grows, and conflicts are monotone. In the smallest spaces
//!   (`f <= 10`) the residue degenerates to a bitmask of the `2^f`
//!   candidate seeds that satisfy the system, probing one equation is
//!   a word-AND against the satisfying-seed mask computed from the
//!   row's projection, and resuming a residue is one intersection with
//!   the global constraint mask.
//! * **Lazy, serial level probing.** Each round probes the remaining
//!   cubes level by level, most specified bits first, and stops at
//!   the shallowest level that has a solvable candidate — the
//!   reference search's early exit — so a deeper cube's first visit
//!   happens only in the round that needs it. The winning placement is
//!   the minimum of the strict total order `(rank, count, position,
//!   cube)` within that level, exactly as the reference picks it.
//!
//! The pre-overhaul search survives as
//! [`WindowEncoder::encode_reference`]; property tests and the
//! `encode_scaling` bench pin the cached search to it, placement for
//! placement and seed bit for seed bit.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ss_gf2::{words, AffineSpace, BitVec, IncrementalSolver, SolveOutcome};
use ss_testdata::TestSet;

use crate::expr_table::ExprTable;

/// One intentional cube placement inside a seed's window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Index of the cube in the source [`TestSet`].
    pub cube: usize,
    /// Window position (vector index in `0..L`) the cube was encoded at.
    pub position: usize,
}

/// A computed seed and the cubes deliberately encoded in its window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedSeed {
    /// The seed value (LFSR initial state).
    pub seed: BitVec,
    /// Intentional placements, in encoding order (the first is always
    /// at window position 0).
    pub placements: Vec<Placement>,
}

/// Result of encoding a whole test set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodingResult {
    /// The seeds, in application order.
    pub seeds: Vec<EncodedSeed>,
    /// Window length `L`.
    pub window: usize,
    /// LFSR size `n` (bits per seed).
    pub lfsr_size: usize,
    /// Number of cubes that were encoded (== the test set size on
    /// success).
    pub encoded_cubes: usize,
}

impl EncodingResult {
    /// Test data volume in bits: `seeds * n` (what the ATE stores).
    pub fn tdv(&self) -> usize {
        self.seeds.len() * self.lfsr_size
    }

    /// Test sequence length of the *plain* window-based scheme:
    /// every seed expands to the full window (`seeds * L` vectors).
    /// This is the "Orig." column of the paper's Tables 1 and 2.
    pub fn tsl_original(&self) -> usize {
        self.seeds.len() * self.window
    }
}

/// Error from [`WindowEncoder::encode`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EncodeError {
    /// A cube could not be encoded alone at any window position — the
    /// LFSR is too small for the test set (`n < smax`, or pathological
    /// linear dependences).
    CubeUnencodable {
        /// Index of the offending cube.
        cube: usize,
        /// Its specified-bit count.
        specified: usize,
        /// The LFSR size that proved insufficient.
        lfsr_size: usize,
    },
    /// The expression table's scan geometry differs from the test
    /// set's.
    GeometryMismatch,
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EncodeError::CubeUnencodable {
                cube,
                specified,
                lfsr_size,
            } => write!(
                f,
                "cube {cube} ({specified} specified bits) is unencodable with a {lfsr_size}-bit LFSR"
            ),
            EncodeError::GeometryMismatch => {
                write!(f, "expression table scan geometry differs from the test set")
            }
        }
    }
}

impl Error for EncodeError {}

/// Candidate key in the paper's selection order:
/// `(added rank, viable positions, position, cube)`.
type Key = (usize, usize, usize, usize);

/// The cached residue of one candidate `(cube, position)` system, in
/// the representation of the seed's probing tier:
///
/// * truth-table tier — `rows` is the bitmask of candidate seeds that
///   satisfy the system;
/// * fixed-frame tier — `rows` is the Gauss-Jordan eliminated system
///   *including* the committed-row log up to `watermark`, one packed
///   `u64` per row (right-hand side in bit 63).
///
/// Rounds in a frame wider than 63 dimensions cache nothing here: they
/// run the reference search's probe.
#[derive(Debug, Default)]
struct PosResidue {
    position: usize,
    /// Committed-log rows already folded in (fixed-frame tier).
    watermark: usize,
    rows: Vec<u64>,
}

/// Per-cube probing state for the current seed: the still-viable
/// positions (monotonically shrinking, like the reference search's
/// `viable` map) with their cached residues.
#[derive(Debug, Default)]
struct CubeCache {
    init: bool,
    entries: Vec<PosResidue>,
    /// Retired entries whose buffers are reused by later seeds, so
    /// steady-state probing never hits the allocator.
    spare: Vec<PosResidue>,
}

impl CubeCache {
    fn reset(&mut self) {
        self.init = false;
        self.spare.append(&mut self.entries);
    }

    fn take_entry(&mut self) -> PosResidue {
        self.spare.pop().unwrap_or_default()
    }

    /// The cached residue of the viable candidate at `position`.
    fn residue(&self, position: usize) -> &[u64] {
        &self
            .entries
            .iter()
            .find(|e| e.position == position)
            .expect("picked placement has a cached residue")
            .rows
    }

    /// `retain_mut` that recycles dropped entries into the pool
    /// (entry order is irrelevant: selection takes minima).
    fn prune(&mut self, mut keep: impl FnMut(&mut PosResidue) -> bool) {
        let mut i = 0;
        while i < self.entries.len() {
            if keep(&mut self.entries[i]) {
                i += 1;
            } else {
                let entry = self.entries.swap_remove(i);
                self.spare.push(entry);
            }
        }
    }
}

/// Window positions a first visit probes at once: one bit each in a
/// `u64` live mask. Each equation folds into every live position of a
/// block before the next equation starts, so the block's per-position
/// states stay cache-resident while the equation's rows stream from
/// one contiguous table run.
const POSITION_BLOCK: usize = u64::BITS as usize;

/// Words of the largest truth-table mask (`2^TtEngine::MAX_DIM / 64`).
const MAX_MASK_WORDS: usize = 16;

/// Reusable probing buffers, one set per encode, so steady-state
/// probing allocates almost nothing.
#[derive(Debug, Default)]
struct ProbeScratch {
    /// Per-position eliminators of a block (fixed-frame tier).
    elims: Vec<FastElim>,
    /// Per-position solution masks of a block (truth-table tier).
    masks: Vec<[u64; MAX_MASK_WORDS]>,
}

/// Equation-outer probe of the window positions
/// `start..start + states.len()` (at most [`POSITION_BLOCK`]): folds
/// each equation into every still-live position before the next
/// equation starts, reading its rows from the offset's contiguous
/// position run, and drops a position at its first failed fold.
/// `states[i]` is position `start + i`'s state. Returns the survivors
/// as a mask, bit `i` for position `start + i`. Each position still
/// folds the equations in their given order, so outcomes match a
/// position-at-a-time probe exactly.
fn probe_block<S>(
    table: &ExprTable,
    start: usize,
    states: &mut [S],
    eqs: &[(u32, bool)],
    mut fold: impl FnMut(&mut S, &[u64], bool) -> bool,
) -> u64 {
    debug_assert!((1..=POSITION_BLOCK).contains(&states.len()));
    let stride = table.stride();
    let len = states.len();
    let mut live = u64::MAX >> (POSITION_BLOCK - len);
    for &(off, bit) in eqs {
        let rows = &table.position_run(off as usize)[start * stride..(start + len) * stride];
        let mut m = live;
        while m != 0 {
            let i = m.trailing_zeros() as usize;
            m &= m - 1;
            if !fold(&mut states[i], &rows[i * stride..(i + 1) * stride], bit) {
                live &= !(1u64 << i);
            }
        }
        if live == 0 {
            break;
        }
    }
    live
}

/// The window's position blocks as `(start, len)`.
fn position_blocks(window: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..window)
        .step_by(POSITION_BLOCK)
        .map(move |start| (start, POSITION_BLOCK.min(window - start)))
}

/// The positions of a [`probe_block`] survivor mask, ascending.
fn survivors(start: usize, mut live: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (live != 0).then(|| {
            let i = live.trailing_zeros() as usize;
            live &= live - 1;
            start + i
        })
    })
}

/// Single-word Gauss-Jordan eliminator for free spaces of dimension
/// `<= 63`: every row is one `u64` with the right-hand side packed
/// into bit 63, rows are indexed by their pivot bit and kept mutually
/// reduced, so folding an equation is a couple of register XORs (the
/// rhs bit rides along in the same XORs).
#[derive(Debug, Clone)]
struct FastElim {
    rows: [u64; 64],
    pivot_mask: u64,
}

impl FastElim {
    /// Coordinate bits of a packed row (bit 63 is the rhs).
    const ROW_MASK: u64 = (1u64 << 63) - 1;

    fn new() -> FastElim {
        FastElim {
            rows: [0u64; 64],
            pivot_mask: 0,
        }
    }

    fn rank(&self) -> usize {
        self.pivot_mask.count_ones() as usize
    }

    /// Empties the eliminator: rows are only read under `pivot_mask`.
    fn clear(&mut self) {
        self.pivot_mask = 0;
    }

    /// Forward-reduces a row against the eliminated rows without
    /// inserting; rhs travels in bit 63. Jordan rows carry no pivot
    /// bit but their own, so one pass over the initial pivot overlap
    /// is a complete reduction.
    #[inline]
    fn reduce_packed(&self, mut packed: u64) -> u64 {
        let mut m = packed & self.pivot_mask;
        while m != 0 {
            packed ^= self.rows[m.trailing_zeros() as usize];
            m &= m - 1;
        }
        packed
    }

    /// [`reduce_packed`](Self::reduce_packed) with an unpacked rhs.
    #[inline]
    fn reduce(&self, row: u64, e: bool) -> (u64, bool) {
        let packed = self.reduce_packed(row | (u64::from(e) << 63));
        (packed & Self::ROW_MASK, packed >> 63 == 1)
    }

    /// Inserts an already-reduced, non-zero row, maintaining the
    /// Jordan invariant (the new pivot is cleared from every existing
    /// row). The maintenance loop is branchless — the XOR is masked by
    /// whether the row holds the new pivot — because its branch is
    /// data-dependent and mispredicts dominate otherwise.
    #[inline]
    fn insert_reduced(&mut self, row: u64, e: bool) {
        debug_assert!(row != 0 && row & self.pivot_mask == 0);
        let packed = row | (u64::from(e) << 63);
        let p = row.trailing_zeros() as usize;
        let mut mm = self.pivot_mask;
        while mm != 0 {
            let q = mm.trailing_zeros() as usize;
            let hit = 0u64.wrapping_sub((self.rows[q] >> p) & 1);
            self.rows[q] ^= packed & hit;
            mm &= mm - 1;
        }
        self.rows[p] = packed;
        self.pivot_mask |= 1 << p;
    }

    /// Folds a packed row in; returns `false` on a conflict (the row
    /// reduces to `0 = 1`), leaving the eliminator unchanged.
    #[inline]
    fn fold_packed(&mut self, packed: u64) -> bool {
        let packed = self.reduce_packed(packed);
        let row = packed & Self::ROW_MASK;
        if row == 0 {
            return packed >> 63 == 0;
        }
        self.insert_reduced(row, packed >> 63 == 1);
        true
    }

    /// Stores the eliminated rows (packed) into `out`, ascending by
    /// pivot.
    fn store_packed(&self, out: &mut Vec<u64>) {
        out.clear();
        let mut m = self.pivot_mask;
        while m != 0 {
            out.push(self.rows[m.trailing_zeros() as usize]);
            m &= m - 1;
        }
    }
}

/// Truth table of coordinate bit `y_j` (`j < 6`) over the 64 points of
/// one mask word.
const PAT: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// `PARITY6[m]` bit `k` = parity of `m & k`: the truth table of the
/// low six coordinates of a projected row over one mask word.
const PARITY6: [u64; 64] = {
    let mut t = [0u64; 64];
    let mut m = 1;
    while m < 64 {
        t[m] = t[m & (m - 1)] ^ PAT[m.trailing_zeros() as usize];
        m += 1;
    }
    t
};

/// One seed frame `x0 + span(N)` of dimension `<= 63`, ready to project
/// expression-table rows on demand.
///
/// Projection is linear in the row, so it is tabulated per seed
/// variable: `img[i]` packs variable `i`'s image — bit `j` is `N_j[i]`,
/// bit 63 is `x0[i]` — and a row projects to the XOR of the images of
/// its ones. A byte-sliced lookup table (the Method of Four Russians)
/// holds the XOR of every subset of eight consecutive images, so one
/// projection costs one lookup per row byte.
struct Frame {
    /// Packed image of each seed variable.
    img: Vec<u64>,
    /// `lut[b][v]` = XOR of `img[8b + k]` over the ones `k` of `v`.
    lut: Vec<[u64; 256]>,
}

impl Frame {
    fn new(space: &AffineSpace) -> Frame {
        debug_assert!(space.dim() <= FixedEngine::MAX_DIM);
        let mut img = vec![0u64; space.vars()];
        let mut scatter = |row: &[u64], bit: u64| {
            for (wi, &word) in row.iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    img[wi * 64 + word.trailing_zeros() as usize] |= bit;
                    word &= word - 1;
                }
            }
        };
        for j in 0..space.dim() {
            scatter(space.null_row(j), 1u64 << j);
        }
        scatter(space.x0_words(), 1u64 << 63);
        let mut frame = Frame {
            lut: vec![[0u64; 256]; img.len().div_ceil(8)],
            img,
        };
        frame.rebuild();
        frame
    }

    /// Recomputes the lookup table from the images (256 XORs per byte).
    fn rebuild(&mut self) {
        for (table, img) in self.lut.iter_mut().zip(self.img.chunks(8)) {
            for v in 1..256usize {
                let k = v.trailing_zeros() as usize;
                table[v] = table[v & (v - 1)] ^ img.get(k).copied().unwrap_or(0);
            }
        }
    }

    /// The packed projection of table row `row`: bit `j` = `row · N_j`,
    /// bit 63 = `row · x0`.
    #[inline]
    fn project(&self, row: &[u64]) -> u64 {
        let mut acc = 0u64;
        for (&w, tables) in row.iter().zip(self.lut.chunks(8)) {
            for (k, table) in tables.iter().enumerate() {
                acc ^= table[usize::from((w >> (8 * k)) as u8)];
            }
        }
        acc
    }

    /// Reduces every image modulo the committed rows of `g` and
    /// rebuilds the lookup table. Reduction by Jordan rows is linear,
    /// so every later projection comes out already reduced.
    fn reduce(&mut self, g: &FastElim) {
        for v in &mut self.img {
            *v = g.reduce_packed(*v);
        }
        self.rebuild();
    }
}

/// Truth-table probing engine for free spaces of dimension
/// `<= MAX_DIM`: the space holds at most `2^10` candidate seeds, so a
/// probed row's output over all of them is computed from its packed
/// projection — the low six coordinates from [`PARITY6`], the rest as
/// one parity per mask word. A candidate system's cached residue is
/// simply the *mask of seeds that satisfy it*:
///
/// * probing one equation = one word-AND per mask word;
/// * the committed basis is one global constraint mask `C` (each
///   commit intersects it with the winner's cached mask);
/// * resuming a cached residue after commits = `mask &= C` — the
///   high-water-mark delta reduction collapses to an intersection,
///   because masks live in one fixed per-seed frame;
/// * added rank = `log2 |C| - log2 |mask|` (affine subspaces have
///   power-of-two sizes), conflict = empty mask — exactly the
///   invariants the reference search computes.
struct TtEngine {
    /// `log2` of the current constraint-mask population (the solver's
    /// free-variable count).
    f_log: usize,
    frame: Frame,
    /// Solution mask of everything committed since the frame was
    /// taken (`2^dim / 64` words, at least 1).
    c_mask: Vec<u64>,
}

impl TtEngine {
    /// Largest free dimension the truth-table tier handles (16 words
    /// per mask); larger spaces use the fixed-frame tier.
    const MAX_DIM: usize = 10;

    fn new(space: &AffineSpace) -> TtEngine {
        let dim = space.dim();
        debug_assert!(dim <= Self::MAX_DIM);
        let mut c_mask = vec![!0u64; ((1usize << dim) / 64).max(1)];
        if dim < 6 {
            c_mask[0] = (1u64 << (1usize << dim)) - 1;
        }
        TtEngine {
            f_log: dim,
            frame: Frame::new(space),
            c_mask,
        }
    }

    /// Intersects `mask` with the seeds satisfying `row · x = bit`;
    /// returns whether any survives. Seed `y` is bit `y % 64` of mask
    /// word `y / 64`, and the row's output there is
    /// `p63 ^ parity(p & y)` for its projection `p`.
    #[inline]
    fn and_equation(&self, mask: &mut [u64], row: &[u64], bit: bool) -> bool {
        let p = self.frame.project(row);
        let low = PARITY6[(p & 63) as usize];
        let high = (p & FastElim::ROW_MASK) >> 6;
        let flip = (p >> 63) ^ u64::from(!bit);
        let mut any = 0u64;
        for (wi, m) in mask.iter_mut().enumerate() {
            let invert = (u64::from((high & wi as u64).count_ones()) ^ flip) & 1;
            *m &= low ^ 0u64.wrapping_sub(invert);
            any |= *m;
        }
        any != 0
    }

    /// Intersects the constraint mask with the committed winner's
    /// solution mask; `free_vars` is the solver's post-commit
    /// free-variable count (= `log2` of the new population).
    fn commit_update(&mut self, winner: &[u64], free_vars: usize) {
        for (c, &w) in self.c_mask.iter_mut().zip(winner) {
            *c &= w;
        }
        self.f_log = free_vars;
        debug_assert_eq!(
            self.c_mask
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>(),
            1usize << free_vars,
            "constraint mask population must match solver free vars"
        );
    }
}

/// Fixed-frame probing engine for free spaces of dimension
/// `11..=63`: the frame is taken once per seed and rows are projected
/// on demand as `projection | rhs << 63`. The frame's images are kept
/// **pre-reduced modulo the committed rows** — each commit reduces the
/// `n` images and rebuilds the lookup table — so a probed equation
/// only reduces against the candidate's own few local rows, and an
/// equation inconsistent with the committed basis alone dies on its
/// projection. Cached residues are the *local* rows (the rank the
/// candidate would add); commits append to a row log and a stale
/// residue is resumed by folding in only the log suffix past its
/// high-water mark.
struct FixedEngine {
    dim: usize,
    /// Projects rows already reduced mod `g`: bits `0..dim` =
    /// coordinates, bit 63 = right-hand side.
    frame: Frame,
    /// Eliminated committed rows (everything since the frame).
    g: FastElim,
    /// Append-only log of the committed rows as inserted — the replay
    /// source for high-water-mark resumption (packed form).
    g_log: Vec<u64>,
}

impl FixedEngine {
    /// Largest dimension the packed one-word representation handles
    /// (bit 63 carries the right-hand side).
    const MAX_DIM: usize = 63;

    fn new(space: &AffineSpace) -> FixedEngine {
        FixedEngine {
            dim: space.dim(),
            frame: Frame::new(space),
            g: FastElim::new(),
            g_log: Vec::new(),
        }
    }

    /// Folds the committed winner's local residue rows (packed) into
    /// the global eliminator and the replay log, and re-reduces the
    /// frame.
    fn commit_update(&mut self, rows: &[u64]) {
        let logged = self.g_log.len();
        for &packed in rows {
            let (row, e) = self
                .g
                .reduce(packed & FastElim::ROW_MASK, packed >> 63 == 1);
            if row == 0 {
                debug_assert!(!e, "committed system cannot conflict");
                continue;
            }
            self.g.insert_reduced(row, e);
            self.g_log.push(row | (u64::from(e) << 63));
        }
        if self.g_log.len() > logged {
            self.frame.reduce(&self.g);
        }
    }

    /// Brings one cached residue up to the current log, dropping it on
    /// conflict: the stored local rows are reduced against the unseen
    /// log suffix and re-eliminated.
    fn refresh_entry(&self, entry: &mut PosResidue) -> bool {
        if entry.watermark == self.g_log.len() {
            return true;
        }
        let mut elim = FastElim::new();
        for &stored in &entry.rows {
            let mut row = stored;
            for &basis in &self.g_log[entry.watermark..] {
                if row
                    & FastElim::ROW_MASK
                    & (1u64 << (basis & FastElim::ROW_MASK).trailing_zeros())
                    != 0
                {
                    row ^= basis;
                }
            }
            if !elim.fold_packed(row) {
                return false;
            }
        }
        elim.store_packed(&mut entry.rows);
        entry.watermark = self.g_log.len();
        true
    }
}

/// The per-seed probing engine, picked (and later upgraded) by the
/// free dimension of the solution space.
#[allow(clippy::large_enum_variant)] // one prober exists per seed
enum Prober {
    Tt(TtEngine),
    Fixed(FixedEngine),
}

impl Prober {
    /// The cheapest tier that handles `space`'s dimension (`<= 63`).
    fn for_space(space: &AffineSpace) -> Prober {
        if space.dim() <= TtEngine::MAX_DIM {
            Prober::Tt(TtEngine::new(space))
        } else {
            Prober::Fixed(FixedEngine::new(space))
        }
    }
}

/// Per-encode state of the incremental search: each cube's equations
/// and specified-bit count, the greedy order, what is left to encode,
/// and the per-cube residue caches with the one probing scratch.
struct Search<'a> {
    enc: &'a WindowEncoder<'a>,
    /// Per-cube equations as (the cell's table offset, bit), sorted by
    /// offset: the scan-geometry arithmetic and care-bit iteration are
    /// paid once per cube, and a first visit streams the equations'
    /// position runs in ascending address order (equation order cannot
    /// change probe outcomes).
    cube_eqs: Vec<Vec<(u32, bool)>>,
    specified: Vec<usize>,
    /// Cube indices, most specified bits first.
    order: Vec<usize>,
    remaining: Vec<bool>,
    remaining_count: usize,
    caches: Vec<CubeCache>,
    scratch: ProbeScratch,
}

/// Per-seed state of the incremental search: the basis being built,
/// its probing tier and the placements so far.
struct SeedSearch {
    solver: IncrementalSolver,
    /// `None` while the frame is wider than one word (`f > 63`, an LFSR
    /// far larger than its cubes): those rounds run the reference
    /// search's own probe over `viable`, exact by construction, until
    /// commits shrink the frame into the word-sized tiers.
    prober: Option<Prober>,
    /// The reference search's still-viable positions per cube, for the
    /// oversized rounds.
    viable: HashMap<usize, Vec<usize>>,
    placements: Vec<Placement>,
}

impl SeedSearch {
    /// Commits `pick` — whose cached residue is `winner`, empty in an
    /// oversized frame — and brings the probing tier up to date.
    /// Returns whether a new frame was taken, which restarts every
    /// cached residue: viability is an invariant of the basis, so the
    /// re-probe reproduces the same sets.
    fn commit(&mut self, enc: &WindowEncoder<'_>, pick: Placement, winner: &[u64]) -> bool {
        let committed = enc.commit(&mut self.solver, pick.cube, pick.position);
        debug_assert!(committed, "selected system must still be solvable");
        let free = self.solver.free_vars();
        if free == 0 {
            return false;
        }
        let retier = match &mut self.prober {
            None => {
                self.viable.remove(&pick.cube);
                free <= FixedEngine::MAX_DIM
            }
            // delta reduction in the fixed frame: cached masks simply
            // intersect the new constraint
            Some(Prober::Tt(engine)) => {
                engine.commit_update(winner, free);
                false
            }
            Some(Prober::Fixed(engine)) => {
                engine.commit_update(winner);
                debug_assert_eq!(engine.g.rank(), engine.dim - free);
                free <= TtEngine::MAX_DIM
            }
        };
        if retier {
            self.prober = Some(Prober::for_space(&self.solver.affine_space()));
        }
        retier
    }
}

impl<'a> Search<'a> {
    fn new(enc: &'a WindowEncoder<'a>) -> Search<'a> {
        let set = enc.set;
        let cube_eqs = (0..set.len())
            .map(|ci| {
                let mut eqs: Vec<(u32, bool)> = set
                    .cube(ci)
                    .iter_specified()
                    .map(|(cell, bit)| (enc.table.row_offset(cell) as u32, bit))
                    .collect();
                eqs.sort_unstable_by_key(|&(off, _)| off);
                eqs
            })
            .collect();
        Search {
            enc,
            cube_eqs,
            specified: (0..set.len())
                .map(|ci| set.cube(ci).specified_count())
                .collect(),
            order: set.indices_by_specified_desc(),
            remaining: vec![true; set.len()],
            remaining_count: set.len(),
            caches: (0..set.len()).map(|_| CubeCache::default()).collect(),
            scratch: ProbeScratch::default(),
        }
    }

    fn place(&mut self, seed: &mut SeedSearch, pick: Placement) {
        seed.placements.push(pick);
        self.remaining[pick.cube] = false;
        self.remaining_count -= 1;
    }

    /// Step 1: opens a seed with the biggest remaining cube at window
    /// position 0 (position choice is irrelevant for solvability; see
    /// [`WindowEncoder::encode_reference`]).
    fn first_cube(&mut self) -> Result<SeedSearch, EncodeError> {
        let n = self.enc.table.vars();
        let first = self
            .order
            .iter()
            .copied()
            .find(|&ci| self.remaining[ci])
            .expect("a cube remains");
        let mut solver = IncrementalSolver::new(n);
        if !self.enc.commit(&mut solver, first, 0) {
            return Err(EncodeError::CubeUnencodable {
                cube: first,
                specified: self.specified[first],
                lfsr_size: n,
            });
        }
        for cache in &mut self.caches {
            cache.reset();
        }
        let mut seed = SeedSearch {
            prober: (solver.free_vars() <= FixedEngine::MAX_DIM)
                .then(|| Prober::for_space(&solver.affine_space())),
            solver,
            viable: HashMap::new(),
            placements: Vec::new(),
        };
        self.place(
            &mut seed,
            Placement {
                cube: first,
                position: 0,
            },
        );
        Ok(seed)
    }

    /// Step 2: commits the best candidate round after round until the
    /// basis is full or no remaining cube is solvable anywhere.
    fn greedy_fill(&mut self, seed: &mut SeedSearch) {
        while seed.solver.rank() < self.enc.table.vars() {
            let pick = match &seed.prober {
                None => self.enc.select_next(
                    &mut seed.viable,
                    &self.remaining,
                    &self.order,
                    &mut seed.solver,
                ),
                Some(prober) => self.select_cached(prober),
            };
            let Some(pick) = pick else {
                return;
            };
            // the winner's cached residue is consumed by the commit,
            // before its cache is cleared
            let winner = match seed.prober {
                None => &[][..],
                Some(_) => self.caches[pick.cube].residue(pick.position),
            };
            let retier = seed.commit(self.enc, pick, winner);
            self.place(seed, pick);
            self.caches[pick.cube].reset();
            if retier {
                for cache in &mut self.caches {
                    if cache.init {
                        cache.reset();
                    }
                }
            }
        }
    }

    /// The paper's selection criteria over the remaining cubes, on the
    /// cached residues: probe level by level, most specified bits
    /// first, and hand back the best candidate of the shallowest level
    /// that has one — the reference search's early exit, so deeper
    /// cubes are first visited only in the round that needs them.
    fn select_cached(&mut self, prober: &Prober) -> Option<Placement> {
        let Search {
            enc,
            cube_eqs,
            specified,
            order,
            remaining,
            caches,
            scratch,
            ..
        } = self;
        let mut level = usize::MAX;
        let mut best: Option<Key> = None;
        for &ci in order.iter().filter(|&&ci| remaining[ci]) {
            if best.is_some() && specified[ci] < level {
                break;
            }
            level = specified[ci];
            let key = enc.probe_cube(ci, &mut caches[ci], &cube_eqs[ci], prober, scratch);
            if let Some(key) = key {
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        best.map(|(_, _, position, cube)| Placement { cube, position })
    }

    /// Step 3, the full-rank fast path: the window is *uniquely*
    /// determined, so "solvable" degenerates to "already embedded" —
    /// each remaining cube takes the first position whose cells all
    /// evaluate to its bits under the seed (checked equation-outer over
    /// blocks of positions, like a first visit).
    fn place_embedded(&mut self, seed: &mut SeedSearch, bits: &BitVec) {
        let table = self.enc.table;
        let mut none = [(); POSITION_BLOCK];
        for i in 0..self.order.len() {
            let ci = self.order[i];
            if !self.remaining[ci] {
                continue;
            }
            // equation-outer over each block's live positions; the
            // first block with a survivor holds the first match
            let embedded = position_blocks(table.window()).find_map(|(start, len)| {
                let live = probe_block(
                    table,
                    start,
                    &mut none[..len],
                    &self.cube_eqs[ci],
                    |_, row, bit| words::dot(row, bits.as_words()) == bit,
                );
                survivors(start, live).next()
            });
            if let Some(position) = embedded {
                self.place(seed, Placement { cube: ci, position });
            }
        }
    }
}

/// The window-based reseeding encoder.
///
/// # Example
///
/// ```
/// use ss_core::{ExprTable, WindowEncoder};
/// use ss_gf2::primitive_poly;
/// use ss_lfsr::{Lfsr, PhaseShifter};
/// use ss_testdata::{generate_test_set, CubeProfile};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let profile = CubeProfile::mini();
/// let set = generate_test_set(&profile, 5);
/// let lfsr = Lfsr::fibonacci(primitive_poly(profile.lfsr_size)?);
/// let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(2);
/// let shifter = PhaseShifter::synthesize(
///     profile.lfsr_size, set.config().chains(), 3, &mut rng)?;
/// let table = ExprTable::build(&lfsr, &shifter, set.config(), 20);
/// let result = WindowEncoder::new(&set, &table)?.encode(42)?;
/// assert_eq!(result.encoded_cubes, set.len());
/// assert!(result.tdv() > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct WindowEncoder<'a> {
    set: &'a TestSet,
    table: &'a ExprTable,
}

impl<'a> WindowEncoder<'a> {
    /// Binds an encoder to a test set and a prebuilt expression table.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError::GeometryMismatch`] if the table was built
    /// for a different scan geometry.
    pub fn new(set: &'a TestSet, table: &'a ExprTable) -> Result<Self, EncodeError> {
        if set.config() != table.scan() {
            return Err(EncodeError::GeometryMismatch);
        }
        Ok(WindowEncoder { set, table })
    }

    /// Runs the encoding; `fill_seed` drives the pseudorandom fill of
    /// free seed variables (and nothing else), so results are fully
    /// deterministic.
    ///
    /// This is the incremental projected-residue search, run on the
    /// calling thread — bit-identical to
    /// [`encode_reference`](Self::encode_reference), seed for seed and
    /// placement for placement. Each seed follows the module docs'
    /// three steps: the first cube, the greedy fill, and the
    /// full-rank fast path.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError::CubeUnencodable`] if some cube cannot be
    /// encoded even alone in an empty window.
    pub fn encode(&self, fill_seed: u64) -> Result<EncodingResult, EncodeError> {
        let mut rng = SmallRng::seed_from_u64(fill_seed ^ 0x454e_434f_4445_5253); // "ENCODERS"
        let mut search = Search::new(self);
        let mut seeds = Vec::new();
        while search.remaining_count > 0 {
            let mut seed = search.first_cube()?;
            search.greedy_fill(&mut seed);
            let bits = seed.solver.solve_with(|_| rng.gen());
            debug_assert!(seed.solver.check(&bits));
            if seed.solver.rank() == self.table.vars() {
                search.place_embedded(&mut seed, &bits);
            }
            seeds.push(EncodedSeed {
                seed: bits,
                placements: seed.placements,
            });
        }
        Ok(EncodingResult {
            seeds,
            window: self.table.window(),
            lfsr_size: self.table.vars(),
            encoded_cubes: self.set.len(),
        })
    }

    /// Initialises one cube's residue caches on first visit, resumes
    /// stale residues on revisits (high-water mark / constraint
    /// intersection), and returns the cube's candidate key.
    fn probe_cube(
        &self,
        ci: usize,
        cache: &mut CubeCache,
        eqs: &[(u32, bool)],
        prober: &Prober,
        scratch: &mut ProbeScratch,
    ) -> Option<Key> {
        match prober {
            Prober::Tt(engine) => {
                if !cache.init {
                    cache.init = true;
                    self.init_cube_tt(cache, eqs, engine, scratch);
                } else {
                    // delta reduction: intersect every cached mask
                    // with the constraint accumulated since the last
                    // visit, pruning emptied (conflicted) positions
                    cache.prune(|entry| {
                        let mut any = 0u64;
                        for (m, &c) in entry.rows.iter_mut().zip(&engine.c_mask) {
                            *m &= c;
                            any |= *m;
                        }
                        any != 0
                    });
                }
                let count = cache.entries.len();
                let mut best: Option<(usize, usize)> = None; // (rank, pos)
                for entry in &cache.entries {
                    let pop: usize = entry.rows.iter().map(|w| w.count_ones() as usize).sum();
                    debug_assert!(pop.is_power_of_two(), "affine subspaces have 2^k points");
                    let rank = engine.f_log - pop.trailing_zeros() as usize;
                    let key = (rank, entry.position);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
                best.map(|(rank, pos)| (rank, count, pos, ci))
            }
            Prober::Fixed(engine) => {
                if !cache.init {
                    cache.init = true;
                    self.init_cube_fixed(cache, eqs, engine, scratch);
                } else {
                    // high-water-mark resumption against the committed
                    // row log
                    cache.prune(|entry| engine.refresh_entry(entry));
                }
                let count = cache.entries.len();
                let mut best: Option<(usize, usize)> = None; // (rank, pos)
                for entry in &cache.entries {
                    let key = (entry.rows.len(), entry.position);
                    if best.is_none_or(|b| key < b) {
                        best = Some(key);
                    }
                }
                best.map(|(rank, pos)| (rank, count, pos, ci))
            }
        }
    }

    /// First-visit probe of every window position, truth-table tier:
    /// start each position from the current constraint mask and AND in
    /// each equation's satisfying-seed mask, equation-outer over a
    /// block of positions; surviving masks are the cached residues.
    fn init_cube_tt(
        &self,
        cache: &mut CubeCache,
        eqs: &[(u32, bool)],
        engine: &TtEngine,
        scratch: &mut ProbeScratch,
    ) {
        let words = engine.c_mask.len();
        let masks = &mut scratch.masks;
        masks.resize(POSITION_BLOCK, [0; MAX_MASK_WORDS]);
        for (start, len) in position_blocks(self.table.window()) {
            for mask in &mut masks[..len] {
                mask[..words].copy_from_slice(&engine.c_mask);
            }
            let live = probe_block(
                self.table,
                start,
                &mut masks[..len],
                eqs,
                |mask, row, bit| engine.and_equation(&mut mask[..words], row, bit),
            );
            for position in survivors(start, live) {
                let mut entry = cache.take_entry();
                entry.position = position;
                entry.watermark = 0;
                entry.rows.clear();
                entry
                    .rows
                    .extend_from_slice(&masks[position - start][..words]);
                cache.entries.push(entry);
            }
        }
    }

    /// First-visit probe of every window position, fixed-frame tier:
    /// fold each equation's packed, committed-row-reduced projection
    /// into each position's local elimination, equation-outer over a
    /// block of positions — the surviving rows are exactly the rank the
    /// candidate would add, and equations inconsistent with the
    /// committed basis alone conflict on a single load.
    fn init_cube_fixed(
        &self,
        cache: &mut CubeCache,
        eqs: &[(u32, bool)],
        engine: &FixedEngine,
        scratch: &mut ProbeScratch,
    ) {
        let elims = &mut scratch.elims;
        elims.resize(POSITION_BLOCK, FastElim::new());
        for (start, len) in position_blocks(self.table.window()) {
            for elim in &mut elims[..len] {
                elim.clear();
            }
            // projected bit 63 is the x0 offset; the equation's rhs is
            // that offset xor the cube bit
            let live = probe_block(
                self.table,
                start,
                &mut elims[..len],
                eqs,
                |elim, row, bit| {
                    elim.fold_packed(engine.frame.project(row) ^ (u64::from(bit) << 63))
                },
            );
            for position in survivors(start, live) {
                let mut entry = cache.take_entry();
                entry.position = position;
                entry.watermark = engine.g_log.len();
                elims[position - start].store_packed(&mut entry.rows);
                cache.entries.push(entry);
            }
        }
    }

    /// Tries the full system of `cube` at window `position` through the
    /// solver's borrowed word-slice path; commits on success, rolls
    /// back and returns `false` on conflict. Insertion order matches
    /// the reference search, so the committed basis — and therefore the
    /// solved seed bits — are identical.
    fn commit(&self, solver: &mut IncrementalSolver, cube: usize, position: usize) -> bool {
        let cp = solver.checkpoint();
        for (cell, bit) in self.set.cube(cube).iter_specified() {
            let expr = self.table.cell_expr_words(position, cell);
            if solver.insert_words(expr, bit) == SolveOutcome::Conflict {
                solver.rollback(cp);
                return false;
            }
        }
        true
    }

    /// The pre-overhaul greedy search, kept verbatim as the reference
    /// oracle: it re-eliminates every candidate system from scratch
    /// each round (O(candidates x specified bits x rank) per round) and
    /// materialises a [`BitVec`] per probed equation. Property tests
    /// and the `encode_scaling` bench pin [`encode`](Self::encode)
    /// bit-identical to this.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError::CubeUnencodable`] if some cube cannot be
    /// encoded even alone in an empty window.
    pub fn encode_reference(&self, fill_seed: u64) -> Result<EncodingResult, EncodeError> {
        let n = self.table.vars();
        let window = self.table.window();
        let mut rng = SmallRng::seed_from_u64(fill_seed ^ 0x454e_434f_4445_5253); // "ENCODERS"
        let mut remaining: Vec<bool> = vec![true; self.set.len()];
        let mut remaining_count = self.set.len();
        let order = self.set.indices_by_specified_desc();
        let mut seeds = Vec::new();

        while remaining_count > 0 {
            let mut solver = IncrementalSolver::new(n);
            let mut placements = Vec::new();

            // 1. seed the window with the biggest remaining cube at
            //    position 0. Trying other positions cannot help: moving
            //    a cube from position 0 to position v multiplies every
            //    expression by the invertible matrix T^(v*r), which
            //    preserves both dependencies and their (in)consistency.
            let first = order
                .iter()
                .copied()
                .find(|&ci| remaining[ci])
                .expect("remaining_count > 0");
            if !self.try_commit(&mut solver, first, 0) {
                return Err(EncodeError::CubeUnencodable {
                    cube: first,
                    specified: self.set.cube(first).specified_count(),
                    lfsr_size: n,
                });
            }
            placements.push(Placement {
                cube: first,
                position: 0,
            });
            remaining[first] = false;
            remaining_count -= 1;

            // 2. greedy fill; viable-position caches shrink monotonically
            let mut viable: HashMap<usize, Vec<usize>> = HashMap::new();
            while solver.rank() < n {
                let Some(pick) = self.select_next(&mut viable, &remaining, &order, &mut solver)
                else {
                    break;
                };
                let committed = self.try_commit(&mut solver, pick.cube, pick.position);
                debug_assert!(committed, "selected system must still be solvable");
                placements.push(pick);
                remaining[pick.cube] = false;
                remaining_count -= 1;
                viable.remove(&pick.cube);
            }

            // 3. fast path: at full rank the window is *uniquely*
            //    determined, so "solvable" degenerates to "already
            //    embedded" — one concrete matching pass places every
            //    remaining embedded cube at once (each at its earliest
            //    position, which is what the selection criteria would
            //    have chosen among these zero-rank systems anyway).
            let seed = solver.solve_with(|_| rng.gen());
            debug_assert!(solver.check(&seed));
            if solver.rank() == n {
                let vectors = self.table.expand(&seed);
                for &ci in &order {
                    if !remaining[ci] {
                        continue;
                    }
                    let cube = self.set.cube(ci);
                    if let Some(v) = vectors.iter().position(|vec| cube.matches(vec)) {
                        placements.push(Placement {
                            cube: ci,
                            position: v,
                        });
                        remaining[ci] = false;
                        remaining_count -= 1;
                    }
                }
            }
            seeds.push(EncodedSeed { seed, placements });
        }

        Ok(EncodingResult {
            seeds,
            window,
            lfsr_size: n,
            encoded_cubes: self.set.len(),
        })
    }

    /// Applies the paper's selection criteria over the remaining cubes.
    fn select_next(
        &self,
        viable: &mut HashMap<usize, Vec<usize>>,
        remaining: &[bool],
        order: &[usize],
        solver: &mut IncrementalSolver,
    ) -> Option<Placement> {
        let window = self.table.window();
        let mut level = usize::MAX; // specified count of the current level
        let mut best: Option<Key> = None;

        for &ci in order {
            if !remaining[ci] {
                continue;
            }
            let specified = self.set.cube(ci).specified_count();
            if best.is_some() && specified < level {
                // order is descending: a lower level can't win anymore
                break;
            }
            level = specified;

            let positions = viable.entry(ci).or_insert_with(|| (0..window).collect());
            let mut kept = Vec::with_capacity(positions.len());
            let mut cube_best: Option<(usize, usize)> = None; // (rank, pos)
            for &v in positions.iter() {
                // a None probe is a conflict: the position is dropped
                // permanently by not re-adding it to `kept`
                if let Some(rank) = self.probe_rank(solver, ci, v) {
                    kept.push(v);
                    if cube_best.is_none_or(|(r, p)| (rank, v) < (r, p)) {
                        cube_best = Some((rank, v));
                    }
                }
            }
            *positions = kept;
            if let Some((rank, pos)) = cube_best {
                let count = positions.len();
                let key = (rank, count, pos, ci);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        best.map(|(_, _, position, cube)| Placement { cube, position })
    }

    /// Tries the full system of `cube` at window `position`; commits on
    /// success, rolls back and returns `false` on conflict.
    fn try_commit(&self, solver: &mut IncrementalSolver, cube: usize, position: usize) -> bool {
        let cp = solver.checkpoint();
        for (cell, bit) in self.set.cube(cube).iter_specified() {
            let expr = self.table.cell_expr(position, cell);
            if solver.insert(&expr, bit) == SolveOutcome::Conflict {
                solver.rollback(cp);
                return false;
            }
        }
        true
    }

    /// Probes the system of `cube` at `position`: `Some(added_rank)` if
    /// solvable, `None` on conflict. The solver is restored to its
    /// entry state either way (checkpoint + rollback, O(1)).
    fn probe_rank(
        &self,
        solver: &mut IncrementalSolver,
        cube: usize,
        position: usize,
    ) -> Option<usize> {
        let cp = solver.checkpoint();
        let before = solver.rank();
        for (cell, bit) in self.set.cube(cube).iter_specified() {
            let expr = self.table.cell_expr(position, cell);
            if solver.insert(&expr, bit) == SolveOutcome::Conflict {
                solver.rollback(cp);
                return None;
            }
        }
        let added = solver.rank() - before;
        solver.rollback(cp);
        Some(added)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use ss_gf2::primitive_poly;
    use ss_lfsr::{Lfsr, PhaseShifter};
    use ss_testdata::{generate_test_set, CubeProfile, ScanConfig};

    fn build_table(n: usize, scan: ScanConfig, window: usize, seed: u64) -> ExprTable {
        let mut rng = SmallRng::seed_from_u64(seed);
        let lfsr = Lfsr::fibonacci(primitive_poly(n).unwrap());
        let shifter = PhaseShifter::synthesize(n, scan.chains(), 3, &mut rng).unwrap();
        ExprTable::build(&lfsr, &shifter, scan, window)
    }

    fn mini_setup(window: usize) -> (ss_testdata::TestSet, ExprTable) {
        let profile = CubeProfile::mini();
        let set = generate_test_set(&profile, 5);
        let table = build_table(profile.lfsr_size, set.config(), window, 2);
        (set, table)
    }

    #[test]
    fn encodes_every_cube_exactly_once() {
        let (set, table) = mini_setup(20);
        let result = WindowEncoder::new(&set, &table).unwrap().encode(1).unwrap();
        let mut seen = vec![0usize; set.len()];
        for seed in &result.seeds {
            assert!(!seed.placements.is_empty());
            assert_eq!(seed.placements[0].position, 0, "first cube at window start");
            for p in &seed.placements {
                seen[p.cube] += 1;
                assert!(p.position < table.window());
            }
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "every cube placed exactly once"
        );
        assert_eq!(result.encoded_cubes, set.len());
        assert_eq!(result.tdv(), result.seeds.len() * 16);
        assert_eq!(result.tsl_original(), result.seeds.len() * 20);
    }

    #[test]
    fn placements_are_really_embedded_in_expanded_windows() {
        let (set, table) = mini_setup(16);
        let profile = CubeProfile::mini();
        let result = WindowEncoder::new(&set, &table).unwrap().encode(2).unwrap();

        // re-expand each seed concretely and check the placed cubes match
        let mut rng = SmallRng::seed_from_u64(2);
        let lfsr = Lfsr::fibonacci(primitive_poly(profile.lfsr_size).unwrap());
        let shifter =
            PhaseShifter::synthesize(profile.lfsr_size, set.config().chains(), 3, &mut rng)
                .unwrap();
        for enc in &result.seeds {
            let vectors =
                crate::expand::try_expand_seed(&lfsr, &shifter, set.config(), &enc.seed, 16)
                    .unwrap();
            for p in &enc.placements {
                assert!(
                    set.cube(p.cube).matches(&vectors[p.position]),
                    "cube {} not embedded at claimed position {}",
                    p.cube,
                    p.position
                );
            }
        }
    }

    #[test]
    fn cached_search_matches_the_reference_bit_for_bit() {
        let cases = [(1usize, 7u64), (4, 7), (12, 7), (20, 7), (6, 11), (16, 11)];
        for (window, fill_seed) in cases {
            let (set, table) = mini_setup(window);
            let enc = WindowEncoder::new(&set, &table).unwrap();
            assert_eq!(
                enc.encode(fill_seed).unwrap(),
                enc.encode_reference(fill_seed).unwrap(),
                "cached search diverged at L={window}, fill seed {fill_seed}"
            );
        }
    }

    #[test]
    fn fixed_frame_tier_matches_the_reference() {
        // an LFSR in the 11..=63 free-dimension band after the first
        // commit exercises the fixed-frame tier (and its mid-seed
        // hand-off to the truth-table tier as the space shrinks)
        let profile = CubeProfile::mini();
        let set = generate_test_set(&profile, 5);
        for n in [30usize, 48] {
            let table = build_table(n, set.config(), 8, 2);
            let enc = WindowEncoder::new(&set, &table).unwrap();
            let reference = enc.encode_reference(3).unwrap();
            assert_eq!(enc.encode(3).unwrap(), reference, "n={n}");
        }
    }

    #[test]
    fn first_visits_agree_with_the_reference_probe_at_every_position() {
        // L = 70 spans a full block of positions and a partial one;
        // n = 16 and n = 30 open the seed in the truth-table and the
        // fixed-frame tier
        let profile = CubeProfile::mini();
        let set = generate_test_set(&profile, 5);
        for n in [16usize, 30] {
            let table = build_table(n, set.config(), 70, 2);
            let enc = WindowEncoder::new(&set, &table).unwrap();
            let mut search = Search::new(&enc);
            let SeedSearch { solver, prober, .. } = &mut search.first_cube().unwrap();
            let prober = prober.as_ref().expect("a word-sized frame");
            let mut viable = 0;
            for ci in (0..set.len()).filter(|&ci| search.remaining[ci]) {
                let mut cache = CubeCache::default();
                let eqs = &search.cube_eqs[ci];
                enc.probe_cube(ci, &mut cache, eqs, prober, &mut search.scratch);
                let mut got: Vec<(usize, usize)> = cache
                    .entries
                    .iter()
                    .map(|e| match prober {
                        Prober::Tt(engine) => {
                            let pop: u32 = e.rows.iter().map(|w| w.count_ones()).sum();
                            (e.position, engine.f_log - pop.trailing_zeros() as usize)
                        }
                        Prober::Fixed(_) => (e.position, e.rows.len()),
                    })
                    .collect();
                got.sort_unstable();
                let want: Vec<(usize, usize)> = (0..70)
                    .filter_map(|v| enc.probe_rank(solver, ci, v).map(|rank| (v, rank)))
                    .collect();
                assert_eq!(got, want, "n={n} cube {ci}");
                viable += want.len();
            }
            assert!(viable > 0, "n={n}: no viable candidate probed");
        }
    }

    /// Free dimension left after each of `placements`' commits,
    /// replayed in encoding order (entry 0 is the frame the greedy
    /// fill of that seed starts in).
    fn free_after_commits(enc: &WindowEncoder<'_>, placements: &[Placement]) -> Vec<usize> {
        let mut solver = IncrementalSolver::new(enc.table.vars());
        placements
            .iter()
            .map(|p| {
                assert!(enc.commit(&mut solver, p.cube, p.position));
                solver.free_vars()
            })
            .collect()
    }

    #[test]
    fn truth_table_tier_matches_the_reference() {
        // (LFSR size, window, which seed frames the config must reach):
        // a first commit leaving f < 6 (one partial mask word), one
        // leaving 6 <= f <= 10 (multi-word masks), and a fixed-frame
        // start that hands over to the truth-table tier mid-seed
        type Reached = fn(&[usize]) -> bool;
        let cases: [(usize, usize, &str, Reached); 3] = [
            (16, 12, "f < 6", |f| (1..6).contains(&f[0])),
            (22, 12, "6 <= f <= 10", |f| (6..=10).contains(&f[0])),
            (30, 8, "fixed -> truth-table hand-off", |f| {
                f[0] > TtEngine::MAX_DIM && f.iter().any(|&x| (1..=TtEngine::MAX_DIM).contains(&x))
            }),
        ];
        let profile = CubeProfile::mini();
        let set = generate_test_set(&profile, 5);
        for (n, window, label, reached) in cases {
            let table = build_table(n, set.config(), window, 2);
            let enc = WindowEncoder::new(&set, &table).unwrap();
            let reference = enc.encode_reference(3).unwrap();
            assert!(
                reference
                    .seeds
                    .iter()
                    .any(|s| reached(&free_after_commits(&enc, &s.placements))),
                "n={n} never reaches {label}"
            );
            assert_eq!(enc.encode(3).unwrap(), reference, "{label}");
        }
    }

    /// A solver holding random equations consistent with a random seed,
    /// inserted until a word-sized frame is left, and the equations.
    fn random_system(n: usize, rng: &mut SmallRng) -> (IncrementalSolver, Vec<BitVec>) {
        let target = BitVec::random(n, rng);
        let mut solver = IncrementalSolver::new(n);
        let mut eqs = Vec::new();
        while solver.free_vars() > (n - 3).min(FixedEngine::MAX_DIM) {
            let row = BitVec::random(n, rng);
            solver.insert(&row, row.dot(&target));
            eqs.push(row);
        }
        (solver, eqs)
    }

    #[test]
    fn frame_projection_matches_the_naive_dot_products() {
        // partial bytes, a word boundary and multi-word strides
        let mut rng = SmallRng::seed_from_u64(21);
        let mut seen = [0usize; 3]; // Added, Redundant, Conflict
        for n in [11usize, 24, 64, 85, 130] {
            let (solver, eqs) = random_system(n, &mut rng);
            let space = solver.affine_space();
            let frame = Frame::new(&space);
            for i in 0..200 {
                // every other row lies in the basis's row space, so
                // all three probe outcomes occur
                let mut row = BitVec::random(n, &mut rng);
                if i % 2 == 1 {
                    row = BitVec::zeros(n);
                    eqs.iter()
                        .filter(|_| rng.gen())
                        .for_each(|eq| row.xor_with(eq));
                }
                let w = row.as_words();
                let mut naive = u64::from(words::dot(w, space.x0_words())) << 63;
                for j in 0..space.dim() {
                    naive |= u64::from(words::dot(w, space.null_row(j))) << j;
                }
                assert_eq!(frame.project(w), naive, "n={n}");

                // the word-sized tiers' invariant: with the rhs xored
                // into bit 63, zero coordinates mean the basis implies
                // the row (a conflict iff bit 63 is set)
                let rhs: bool = rng.gen();
                let packed = naive ^ (u64::from(rhs) << 63);
                let predicted = match (packed & FastElim::ROW_MASK, packed >> 63) {
                    (0, 1) => SolveOutcome::Conflict,
                    (0, _) => SolveOutcome::Redundant,
                    _ => SolveOutcome::Added,
                };
                let outcome = solver.probe(&row, rhs);
                assert_eq!(predicted, outcome, "n={n}");
                seen[outcome as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c > 0), "outcomes seen: {seen:?}");
    }

    #[test]
    fn reduced_frame_matches_projecting_then_reducing() {
        let mut rng = SmallRng::seed_from_u64(22);
        for n in [24usize, 85, 130] {
            let space = random_system(n, &mut rng).0.affine_space();
            let coords = FastElim::ROW_MASK >> (FixedEngine::MAX_DIM - space.dim());
            let fresh = Frame::new(&space);
            let mut engine = FixedEngine::new(&space);
            // every committed row holds at one point, so none conflicts
            let solution = rng.gen::<u64>() & coords;
            for _ in 0..5 {
                let rows: Vec<u64> = (0..3)
                    .map(|_| {
                        let row = rng.gen::<u64>() & coords;
                        row | (u64::from((row & solution).count_ones() % 2 == 1) << 63)
                    })
                    .collect();
                engine.commit_update(&rows);
                for _ in 0..100 {
                    let row = BitVec::random(n, &mut rng);
                    assert_eq!(
                        engine.frame.project(row.as_words()),
                        engine.g.reduce_packed(fresh.project(row.as_words())),
                        "n={n} after {} committed rows",
                        engine.g.rank()
                    );
                }
            }
            assert_eq!(engine.g.rank(), 15, "n={n}");
        }
    }

    #[test]
    fn general_width_path_matches_the_reference_beyond_63_free_dims() {
        // a deliberately oversized LFSR leaves > 63 free dimensions
        // after the first commit: those rounds run the reference
        // probe until the seed hands over to the word-sized tiers
        let profile = CubeProfile::mini();
        let set = generate_test_set(&profile, 5);
        let table = build_table(90, set.config(), 6, 2);
        let enc = WindowEncoder::new(&set, &table).unwrap();
        let reference = enc.encode_reference(3).unwrap();
        assert!(
            reference.seeds.iter().any(|s| {
                let f = free_after_commits(&enc, &s.placements);
                f[0] > FixedEngine::MAX_DIM && f.iter().any(|&x| x <= FixedEngine::MAX_DIM)
            }),
            "no seed hands over from f > 63 to the word-sized tiers"
        );
        assert_eq!(enc.encode(3).unwrap(), reference);
    }

    #[test]
    fn larger_windows_never_need_more_seeds() {
        let (set, table_small) = mini_setup(4);
        let profile = CubeProfile::mini();
        let table_large = {
            // same LFSR/shifter seeds as mini_setup for comparability
            build_table(profile.lfsr_size, set.config(), 40, 2)
        };
        let small = WindowEncoder::new(&set, &table_small)
            .unwrap()
            .encode(3)
            .unwrap();
        let large = WindowEncoder::new(&set, &table_large)
            .unwrap()
            .encode(3)
            .unwrap();
        assert!(
            large.seeds.len() <= small.seeds.len(),
            "L=40 used {} seeds, L=4 used {}",
            large.seeds.len(),
            small.seeds.len()
        );
    }

    #[test]
    fn window_one_degenerates_to_the_classical_scheme() {
        let (set, _) = mini_setup(4);
        let profile = CubeProfile::mini();
        let table = build_table(profile.lfsr_size, set.config(), 1, 2);
        let result = WindowEncoder::new(&set, &table).unwrap().encode(4).unwrap();
        for seed in &result.seeds {
            for p in &seed.placements {
                assert_eq!(p.position, 0, "L=1 has a single position");
            }
        }
        assert_eq!(result.tsl_original(), result.seeds.len());
    }

    #[test]
    fn too_small_lfsr_reports_unencodable() {
        let profile = CubeProfile::mini(); // smax = 12
        let set = generate_test_set(&profile, 5);
        let table = build_table(8, set.config(), 4, 11); // 8-bit LFSR < smax
        let enc = WindowEncoder::new(&set, &table).unwrap();
        let err = enc.encode(5).unwrap_err();
        assert!(matches!(
            err,
            EncodeError::CubeUnencodable { lfsr_size: 8, .. }
        ));
        assert_eq!(err, enc.encode_reference(5).unwrap_err());
    }

    #[test]
    fn geometry_mismatch_is_rejected() {
        let profile = CubeProfile::mini();
        let set = generate_test_set(&profile, 5);
        let other_scan = ScanConfig::new(4, 16).unwrap();
        let table = build_table(profile.lfsr_size, other_scan, 4, 11);
        assert_eq!(
            WindowEncoder::new(&set, &table).unwrap_err(),
            EncodeError::GeometryMismatch
        );
    }

    #[test]
    fn encoding_is_deterministic() {
        let (set, table) = mini_setup(12);
        let enc = WindowEncoder::new(&set, &table).unwrap();
        assert_eq!(enc.encode(9).unwrap(), enc.encode(9).unwrap());
    }
}
