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
//! * **Projection of one sequence per frame state.** Every table row
//!   is the XOR of a few delays of one linear-recurrence sequence
//!   `u(t)` (the table's sequence form), and projection into the frame
//!   is linear in the row. So each seed frame keeps the packed
//!   projections of the sequence's `n` basis terms, and once per frame
//!   state the recurrence extends them to the projected sequence of
//!   the whole window, sliced by residue modulo the scan depth into
//!   bit-planes. A first visit reads table runs — one cell offset's
//!   rows for a block of 64 window positions — and a run's planes are
//!   a few shifted reads of the sliced sequence, one per delay of its
//!   chain. They are kept until a commit changes the frame.
//!   Only the runs that first visits read are sliced, and each at most
//!   once per frame state.
//! * **Equation-outer, bit-sliced first visits.** A cube's first visit
//!   in a seed probes all `L` positions. It takes the cube's equations
//!   most-shared cell first (the runs other cubes read too) and folds
//!   each one into every still-live position of a block of 64
//!   positions before the next equation starts; a position drops out
//!   at its first conflict. The fold is bit-sliced: one pass over the
//!   run's planes folds the equation into every position's echelon
//!   system at once, and a block ends at the cube's last equation or
//!   when no position is live. Only the survivors' systems are turned
//!   back into packed rows. Viability and added rank are invariants of
//!   each position's equations, so they are exactly those of a
//!   position-at-a-time probe, in any equation order, and the cached
//!   residue spans the same rows.
//! * **Residue caching with a high-water mark.** Each viable
//!   `(cube, position)` candidate caches its locally-eliminated
//!   projected system. Later rounds do not re-eliminate it: a residue
//!   that predates a commit (its high-water mark, the committed rank
//!   it has seen, is below the current one) is *resumed* by reducing
//!   its few rows modulo the committed rows and re-eliminating them —
//!   sound because the basis only ever grows, and conflicts are
//!   monotone. One frame serves the whole seed once it fits a word,
//!   however small commits shrink it.
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

use std::cmp::Reverse;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ss_gf2::{words, AffineSpace, BitVec, IncrementalSolver, SolveOutcome};
use ss_testdata::TestSet;

use crate::expr_table::ExprTable;

mod sliced;

use sliced::{SlicedElim, SlicedSequence};

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

/// The cached residue of one candidate `(cube, position)` system:
/// `rows` is its eliminated system *including* the committed rows up
/// to rank `watermark`, one packed `u64` per row (right-hand side in bit
/// 63) with distinct pivots, so `rows.len()` is the rank the candidate
/// would add. A first visit stores an echelon basis, a refresh the
/// Gauss-Jordan one; any basis of the system serves.
///
/// Rounds in a frame wider than 63 dimensions cache nothing here: they
/// run the reference search's probe.
#[derive(Debug, Default)]
struct PosResidue {
    position: usize,
    /// Committed rank already folded in.
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

/// Window positions a first visit or the full-rank check probes at
/// once: one bit each in a `u64` live mask and one lane each of a
/// bit-plane. Each equation folds into every live position of a block
/// before the next equation starts, so the block's per-position states
/// stay cache-resident while the equation's planes come from one
/// sliced run.
const POSITION_BLOCK: usize = u64::BITS as usize;

/// Every position of a block of `len`, as a live mask (bit `i` for
/// the block's position `i`).
fn all_lanes(len: usize) -> u64 {
    u64::MAX >> (POSITION_BLOCK - len)
}

/// The window's position blocks as `(start, len)`.
fn position_blocks(window: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..window)
        .step_by(POSITION_BLOCK)
        .map(move |start| (start, POSITION_BLOCK.min(window - start)))
}

/// The positions of a live mask of the block at `start`, ascending.
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

/// One seed frame `x0 + span(N)` of dimension `<= 63`, projected onto
/// the table's LFSR sequence.
///
/// Projection is linear in the row: a row projects to the packed word
/// whose bit `j` is `row · N_j` and bit 63 is `row · x0`. Every table
/// row is the XOR of a few terms of one sequence `u(t)`, whose first
/// `n` terms are a basis and whose later terms follow a recurrence (the
/// table's sequence form), so the frame keeps only the projections
/// `q(d)` of the basis terms. The recurrence extends them to the whole
/// projected sequence, once per frame state ([`SlicedSequence`]).
#[derive(Default)]
struct Frame {
    /// `q(d)` for `d < n`, reduced modulo the committed rows.
    basis: Vec<u64>,
}

impl Frame {
    fn new(space: &AffineSpace, table: &ExprTable) -> Frame {
        debug_assert!(space.dim() <= FixedEngine::MAX_DIM);
        // the packed image of each seed variable: bit `j` is `N_j[i]`,
        // bit 63 is `x0[i]`
        let mut img = vec![0u64; space.vars()];
        for j in 0..space.dim() {
            for_each_one(space.null_row(j), |i| img[i] |= 1 << j);
        }
        for_each_one(space.x0_words(), |i| img[i] |= 1 << 63);
        let basis = table
            .basis_rows()
            .map(|row| {
                let mut q = 0;
                for_each_one(row, |i| q ^= img[i]);
                q
            })
            .collect();
        Frame { basis }
    }

    /// Reduces every basis projection modulo the committed rows of
    /// `g`. Reduction by Jordan rows is linear, so the sequence the
    /// recurrence extends them to comes out already reduced.
    fn reduce(&mut self, g: &FastElim) {
        for q in &mut self.basis {
            *q = g.reduce_packed(*q);
        }
    }
}

/// Calls `f` with the index of every one bit of `row`, ascending.
fn for_each_one(row: &[u64], mut f: impl FnMut(usize)) {
    for (wi, &word) in row.iter().enumerate() {
        let mut word = word;
        while word != 0 {
            f(wi * 64 + word.trailing_zeros() as usize);
            word &= word - 1;
        }
    }
}

/// Words per arena chunk of a [`PlaneCache`] (32 KiB). An entry is at
/// most 64 words and never straddles two chunks.
const PLANE_CHUNK: usize = 4096;

/// The bit-planes of every table run sliced in the current frame
/// state: one entry of `width` words — the free columns' planes, then
/// the right-hand side's — per `(offset, block)` run, made on the run's
/// first use and dropped when the frame changes. Entries are packed
/// into fixed chunks that are kept for the whole encode, so the arena
/// never copies what it holds and its footprint is its largest frame
/// state's.
#[derive(Debug, Default)]
struct PlaneCache {
    /// Arena address of each run's entry, indexed by
    /// `offset * blocks + block`; [`PlaneCache::NONE`] while unsliced.
    slot: Vec<u32>,
    width: usize,
    /// Arena address of the next entry.
    next: usize,
    chunks: Vec<Box<[u64]>>,
}

impl PlaneCache {
    const NONE: u32 = u32::MAX;

    fn new(runs: usize) -> PlaneCache {
        PlaneCache {
            slot: vec![PlaneCache::NONE; runs],
            ..PlaneCache::default()
        }
    }

    /// Drops every entry; new entries are `width` words.
    fn clear(&mut self, width: usize) {
        self.slot.fill(PlaneCache::NONE);
        self.width = width;
        self.next = 0;
    }

    /// The planes of table run `(offset, block)`, read from `sequence`
    /// into a new entry on the run's first use.
    #[inline]
    fn run(
        &mut self,
        table: &ExprTable,
        sequence: &SlicedSequence,
        offset: usize,
        block: usize,
    ) -> &[u64] {
        let run = offset * table.window().div_ceil(POSITION_BLOCK) + block;
        let width = self.width;
        let fresh = self.slot[run] == PlaneCache::NONE;
        if fresh {
            if self.next % PLANE_CHUNK + width > PLANE_CHUNK {
                self.next = self.next.next_multiple_of(PLANE_CHUNK);
            }
            if self.next / PLANE_CHUNK == self.chunks.len() {
                self.chunks.push(vec![0; PLANE_CHUNK].into_boxed_slice());
            }
            self.slot[run] = u32::try_from(self.next).expect("plane arena below 2^32 words");
            self.next += width;
        }
        let at = self.slot[run] as usize;
        let entry = &mut self.chunks[at / PLANE_CHUNK][at % PLANE_CHUNK..][..width];
        if fresh {
            sequence.run(table, offset, block * POSITION_BLOCK, entry);
        }
        entry
    }
}

/// Fixed-frame probing engine for free spaces of dimension `<= 63`:
/// the frame is taken once per seed and rows are projected as
/// `projection | rhs << 63`. The frame's projections are kept
/// **pre-reduced modulo the committed rows** — each commit reduces the
/// `n` basis projections — so a probed equation only reduces against
/// the candidate's own few local rows, and an equation inconsistent
/// with the committed basis alone dies on its projection. Cached
/// residues are the *local* rows (the rank the candidate would add),
/// and a stale residue is resumed by reducing its rows modulo the
/// committed rows.
///
/// One engine serves the whole encode: each seed takes a new frame
/// into it ([`take_frame`](Self::take_frame)), and the sliced
/// sequence, the plane arena and the sliced fold's buffers are reused.
struct FixedEngine {
    dim: usize,
    /// The basis projections, reduced mod `g`: bits `0..dim` =
    /// coordinates, bit 63 = right-hand side.
    frame: Frame,
    /// Eliminated committed rows (everything since the frame), in
    /// Gauss-Jordan form.
    g: FastElim,
    /// The frame's projected sequence, sliced on the first first visit
    /// of each frame state.
    sequence: SlicedSequence,
    /// Whether `sequence` belongs to the current frame state.
    sequenced: bool,
    /// The planes of the runs first visits have read in this frame
    /// state.
    planes: PlaneCache,
    /// The first-visit fold over the frame's free columns.
    sliced: SlicedElim,
}

impl FixedEngine {
    /// Largest dimension the packed one-word representation handles
    /// (bit 63 carries the right-hand side).
    const MAX_DIM: usize = 63;

    /// An engine, with no frame yet, for a table of `runs`
    /// `(offset, block)` runs.
    fn new(runs: usize) -> FixedEngine {
        FixedEngine {
            dim: 0,
            frame: Frame::default(),
            g: FastElim::new(),
            sequence: SlicedSequence::default(),
            sequenced: false,
            planes: PlaneCache::new(runs),
            sliced: SlicedElim::default(),
        }
    }

    /// Takes `space` as the frame of `table`'s rows, with nothing
    /// committed in it.
    fn take_frame(&mut self, space: &AffineSpace, table: &ExprTable) {
        self.dim = space.dim();
        self.frame = Frame::new(space, table);
        self.g.clear();
        self.frame_changed();
    }

    /// Drops the sequence and planes of the old frame state and slices
    /// the free columns of the new one.
    fn frame_changed(&mut self) {
        self.sliced.set_frame(self.dim, self.g.pivot_mask);
        self.planes.clear(self.sliced.width());
        self.sequenced = false;
    }

    /// Projects and slices the frame state's sequence, once per frame
    /// state.
    fn project_sequence(&mut self, table: &ExprTable) {
        if !self.sequenced {
            let cols = self.sliced.cols();
            self.sequence.build(table, &self.frame.basis, cols);
            self.sequenced = true;
        }
    }

    /// Folds the committed winner's local residue rows (packed) into
    /// the global eliminator, and re-reduces the frame.
    fn commit_update(&mut self, rows: &[u64]) {
        let rank = self.g.rank();
        for &packed in rows {
            let (row, e) = self
                .g
                .reduce(packed & FastElim::ROW_MASK, packed >> 63 == 1);
            if row == 0 {
                debug_assert!(!e, "committed system cannot conflict");
                continue;
            }
            self.g.insert_reduced(row, e);
        }
        if self.g.rank() > rank {
            self.frame.reduce(&self.g);
            self.frame_changed();
        }
    }

    /// First-visit probe of every window position: folds each
    /// equation's committed-row-reduced projection into each
    /// position's local elimination, equation-outer over each block of
    /// positions, and pushes every viable position's residue into
    /// `cache` — the surviving rows are exactly the rank the candidate
    /// would add, and an equation inconsistent with the committed basis
    /// alone conflicts on its projection.
    ///
    /// Every block folds through the bit-sliced echelon fold, from the
    /// planes of its equations' runs, read from the frame state's
    /// sliced sequence on first use (lanes past a short block hold
    /// whatever the sequence holds there, and no fold takes them),
    /// until the last equation or until no position is live.
    fn first_visit(&mut self, table: &ExprTable, eqs: &[(u32, bool)], cache: &mut CubeCache) {
        self.project_sequence(table);
        let FixedEngine {
            g,
            sequence,
            planes,
            sliced,
            ..
        } = self;
        for (block, (start, len)) in position_blocks(table.window()).enumerate() {
            sliced.clear();
            let mut live = all_lanes(len);
            for &(off, bit) in eqs {
                let run = planes.run(table, sequence, off as usize, block);
                live &= !sliced.fold(run, bit, live);
                if live == 0 {
                    break;
                }
            }
            for i in survivors(0, live) {
                let mut entry = cache.take_entry();
                entry.position = start + i;
                entry.watermark = g.rank();
                sliced.export(i, &mut entry.rows);
                cache.entries.push(entry);
            }
        }
    }

    /// Brings one cached residue up to the committed rows, dropping
    /// it on conflict: the stored local rows are reduced modulo the
    /// committed rows and re-eliminated. The committed rows are in
    /// Gauss-Jordan form, so a reduction is one XOR per committed pivot
    /// the row holds; it is linear, so any stored basis of the
    /// residue's system reduces to a basis of the same reduced system.
    fn refresh_entry(&self, entry: &mut PosResidue) -> bool {
        if entry.watermark == self.g.rank() {
            return true;
        }
        let mut elim = FastElim::new();
        for &stored in &entry.rows {
            if !elim.fold_packed(self.g.reduce_packed(stored)) {
                return false;
            }
        }
        elim.store_packed(&mut entry.rows);
        entry.watermark = self.g.rank();
        true
    }
}

/// Per-encode state of the incremental search: each cube's equations
/// and specified-bit count, the greedy order, what is left to encode,
/// the per-cube residue caches and the fixed-frame engine.
struct Search<'a> {
    enc: &'a WindowEncoder<'a>,
    /// Per-cube equations as (the cell's table offset, bit), the cells
    /// that the most cubes specify first, ties by ascending offset: the
    /// scan-geometry arithmetic and care-bit iteration are paid once
    /// per cube, and a first visit reads first the runs that other
    /// cubes' first visits read too (equation order cannot change probe
    /// outcomes).
    cube_eqs: Vec<Vec<(u32, bool)>>,
    specified: Vec<usize>,
    /// Cube indices, most specified bits first.
    order: Vec<usize>,
    remaining: Vec<bool>,
    remaining_count: usize,
    caches: Vec<CubeCache>,
    /// The current seed's frame, once it fits a word.
    engine: FixedEngine,
    /// A full-rank seed's window, sliced: its concrete outputs.
    point: SlicedSequence,
}

/// Per-seed state of the incremental search: the basis being built,
/// whether it has a probing frame, and the placements so far.
struct SeedSearch {
    solver: IncrementalSolver,
    /// `false` while the frame is wider than one word (`f > 63`, an
    /// LFSR far larger than its cubes): those rounds run the reference
    /// search's own probe over `viable`, exact by construction, until
    /// commits shrink the frame to a word and [`Search::engine`] takes
    /// it.
    framed: bool,
    /// The reference search's still-viable positions per cube, for the
    /// oversized rounds.
    viable: HashMap<usize, Vec<usize>>,
    placements: Vec<Placement>,
}

impl SeedSearch {
    /// Commits `pick` — whose cached residue is `winner`, empty in an
    /// oversized frame — and brings the probing frame in `engine` up to
    /// date. The commit that shrinks an oversized frame to a word
    /// takes the seed's frame; no cube has a cached residue to restart
    /// then, because the oversized rounds probe through `viable` alone.
    fn commit(
        &mut self,
        enc: &WindowEncoder<'_>,
        engine: &mut FixedEngine,
        pick: Placement,
        winner: &[u64],
    ) {
        let committed = enc.commit(&mut self.solver, pick.cube, pick.position);
        debug_assert!(committed, "selected system must still be solvable");
        let free = self.solver.free_vars();
        if free == 0 {
            return;
        }
        if self.framed {
            engine.commit_update(winner);
            debug_assert_eq!(engine.g.rank(), engine.dim - free);
        } else {
            self.viable.remove(&pick.cube);
            if free <= FixedEngine::MAX_DIM {
                engine.take_frame(&self.solver.affine_space(), enc.table);
                self.framed = true;
            }
        }
    }
}

impl<'a> Search<'a> {
    fn new(enc: &'a WindowEncoder<'a>) -> Search<'a> {
        let set = enc.set;
        let table = enc.table;
        let offsets = table.scan().depth() * table.chains();
        let mut cube_eqs: Vec<Vec<(u32, bool)>> = (0..set.len())
            .map(|ci| {
                set.cube(ci)
                    .iter_specified()
                    .map(|(cell, bit)| (table.row_offset(cell) as u32, bit))
                    .collect()
            })
            .collect();
        let mut uses = vec![0u32; offsets];
        for &(off, _) in cube_eqs.iter().flatten() {
            uses[off as usize] += 1;
        }
        for eqs in &mut cube_eqs {
            eqs.sort_unstable_by_key(|&(off, _)| (Reverse(uses[off as usize]), off));
        }
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
            engine: FixedEngine::new(offsets * table.window().div_ceil(POSITION_BLOCK)),
            point: SlicedSequence::default(),
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
        let framed = solver.free_vars() <= FixedEngine::MAX_DIM;
        if framed {
            self.engine
                .take_frame(&solver.affine_space(), self.enc.table);
        }
        let mut seed = SeedSearch {
            framed,
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
            let pick = if seed.framed {
                self.select_cached()
            } else {
                self.enc.select_next(
                    &mut seed.viable,
                    &self.remaining,
                    &self.order,
                    &mut seed.solver,
                )
            };
            let Some(pick) = pick else {
                return;
            };
            // the winner's cached residue is consumed by the commit,
            // before its cache is cleared
            let winner = if seed.framed {
                self.caches[pick.cube].residue(pick.position)
            } else {
                &[][..]
            };
            seed.commit(self.enc, &mut self.engine, pick, winner);
            self.place(seed, pick);
            self.caches[pick.cube].reset();
        }
    }

    /// The paper's selection criteria over the remaining cubes, on the
    /// cached residues: probe level by level, most specified bits
    /// first, and hand back the best candidate of the shallowest level
    /// that has one — the reference search's early exit, so deeper
    /// cubes are first visited only in the round that needs them.
    fn select_cached(&mut self) -> Option<Placement> {
        let Search {
            enc,
            cube_eqs,
            specified,
            order,
            remaining,
            caches,
            engine,
            ..
        } = self;
        let mut level = usize::MAX;
        let mut best: Option<Key> = None;
        for &ci in order.iter().filter(|&&ci| remaining[ci]) {
            if best.is_some() && specified[ci] < level {
                break;
            }
            level = specified[ci];
            let key = enc.probe_cube(ci, &mut caches[ci], &cube_eqs[ci], engine);
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
    /// evaluate to its bits under the seed. The seed is a point, so its
    /// window's outputs are the table's sequence projected onto it, in
    /// the right-hand side bit alone, and slice as a frame's do; each
    /// cube's equations are checked equation-outer over blocks of
    /// positions, one plane per run.
    fn place_embedded(&mut self, seed: &mut SeedSearch, bits: &BitVec) {
        let table = self.enc.table;
        let basis: Vec<u64> = table
            .basis_rows()
            .map(|row| u64::from(words::dot(row, bits.as_words())) << 63)
            .collect();
        self.point.build(table, &basis, &[1 << 63]);
        let mut plane = [0u64];
        for i in 0..self.order.len() {
            let ci = self.order[i];
            if !self.remaining[ci] {
                continue;
            }
            // the first block with a survivor holds the first match
            let embedded = position_blocks(table.window()).find_map(|(start, len)| {
                let mut live = all_lanes(len);
                for &(off, bit) in &self.cube_eqs[ci] {
                    self.point.run(table, off as usize, start, &mut plane);
                    live &= if bit { plane[0] } else { !plane[0] };
                    if live == 0 {
                        break;
                    }
                }
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
    /// stale residues on revisits (high-water mark), and returns the
    /// cube's candidate key.
    fn probe_cube(
        &self,
        ci: usize,
        cache: &mut CubeCache,
        eqs: &[(u32, bool)],
        engine: &mut FixedEngine,
    ) -> Option<Key> {
        if !cache.init {
            cache.init = true;
            engine.first_visit(self.table, eqs, cache);
        } else {
            // high-water-mark resumption against the committed rows
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

    /// Tries the full system of `cube` at window `position` through the
    /// solver's word-slice path, each row written into one scratch
    /// buffer; commits on success, rolls back and returns `false` on
    /// conflict. Insertion order matches the reference search, so the
    /// committed basis — and therefore the solved seed bits — are
    /// identical.
    fn commit(&self, solver: &mut IncrementalSolver, cube: usize, position: usize) -> bool {
        let cp = solver.checkpoint();
        let mut row = vec![0; self.table.stride()];
        for (cell, bit) in self.set.cube(cube).iter_specified() {
            self.table.cell_expr_into(position, cell, &mut row);
            if solver.insert_words(&row, bit) == SolveOutcome::Conflict {
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
    use ss_lfsr::{Lfsr, LfsrKind, PhaseShifter};
    use ss_testdata::{generate_test_set, CubeProfile, ScanConfig, TestSet};

    fn build_table(n: usize, scan: ScanConfig, window: usize, seed: u64) -> ExprTable {
        build_table_of(LfsrKind::Fibonacci, n, scan, window, seed)
    }

    fn build_table_of(
        kind: LfsrKind,
        n: usize,
        scan: ScanConfig,
        window: usize,
        seed: u64,
    ) -> ExprTable {
        let mut rng = SmallRng::seed_from_u64(seed);
        let lfsr = Lfsr::try_new(primitive_poly(n).unwrap(), kind).unwrap();
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
        // 24 and 70 slice short blocks, 70 and 130 a full block and a
        // final short one
        let cases = [
            (1usize, 7u64),
            (4, 7),
            (12, 7),
            (20, 7),
            (6, 11),
            (16, 11),
            (24, 7),
            (70, 11),
            (130, 7),
        ];
        let profile = CubeProfile::mini();
        let set = generate_test_set(&profile, 5);
        for kind in [LfsrKind::Fibonacci, LfsrKind::Galois] {
            for (window, fill_seed) in cases {
                let table = build_table_of(kind, profile.lfsr_size, set.config(), window, 2);
                let enc = WindowEncoder::new(&set, &table).unwrap();
                assert_eq!(
                    enc.encode(fill_seed).unwrap(),
                    enc.encode_reference(fill_seed).unwrap(),
                    "{kind} cached search diverged at L={window}, fill seed {fill_seed}"
                );
            }
        }
    }

    /// First-visits every remaining cube of `search` in the engine's
    /// current frame, into fresh caches, and checks each cube's viable
    /// positions and added ranks against the reference probe on
    /// `solver`. Returns the number of viable candidates.
    fn check_first_visits(
        search: &mut Search<'_>,
        solver: &mut IncrementalSolver,
        what: &str,
    ) -> usize {
        let enc = search.enc;
        let mut viable = 0;
        for ci in (0..enc.set.len()).filter(|&ci| search.remaining[ci]) {
            let mut cache = CubeCache::default();
            enc.probe_cube(ci, &mut cache, &search.cube_eqs[ci], &mut search.engine);
            let mut got: Vec<(usize, usize)> = cache
                .entries
                .iter()
                .map(|e| (e.position, e.rows.len()))
                .collect();
            got.sort_unstable();
            let want: Vec<(usize, usize)> = (0..enc.table.window())
                .filter_map(|v| enc.probe_rank(solver, ci, v).map(|rank| (v, rank)))
                .collect();
            assert_eq!(got, want, "{what} cube {ci}");
            viable += want.len();
            search.caches[ci] = cache;
        }
        viable
    }

    #[test]
    fn first_visits_agree_with_the_reference_probe_at_every_position() {
        // L = 24 is one short block, L = 70 a full block and a short
        // one; n = 16 and n = 30 open the seed in a frame of f < 6 and
        // one of f > 10. Each case probes again after a commit that
        // re-reduces the frame, so no plane survives a frame change.
        let profile = CubeProfile::mini();
        let set = generate_test_set(&profile, 5);
        let kinds = [LfsrKind::Fibonacci, LfsrKind::Galois];
        for (kind, window) in kinds.into_iter().flat_map(|k| [(k, 24usize), (k, 70)]) {
            for (n, dims) in [(16usize, 1..6), (30, 11..64)] {
                let what = format!("{kind} L={window} n={n}");
                let table = build_table_of(kind, n, set.config(), window, 2);
                let enc = WindowEncoder::new(&set, &table).unwrap();
                let mut search = Search::new(&enc);
                let mut seed = search.first_cube().unwrap();
                assert!(seed.framed, "{what}: a word-sized frame");
                let dim = search.engine.dim;
                assert!(dims.contains(&dim), "{what}: f = {dim}");
                let viable = check_first_visits(&mut search, &mut seed.solver, &what);
                assert!(viable > 0, "{what}: no viable candidate probed");

                // commit a candidate that adds rank but leaves the
                // frame free, then probe the re-reduced frame
                let (pick, winner) = (0..set.len())
                    .filter(|&ci| search.remaining[ci])
                    .flat_map(|ci| search.caches[ci].entries.iter().map(move |e| (ci, e)))
                    .find(|(_, e)| (1..dim).contains(&e.rows.len()))
                    .map(|(cube, e)| {
                        let pick = Placement {
                            cube,
                            position: e.position,
                        };
                        (pick, e.rows.clone())
                    })
                    .expect("a candidate adding 0 < rank < f");
                seed.commit(&enc, &mut search.engine, pick, &winner);
                search.place(&mut seed, pick);
                assert_eq!(search.engine.g.rank(), winner.len(), "{what}");
                check_first_visits(
                    &mut search,
                    &mut seed.solver,
                    &format!("{what} after a commit"),
                );
            }
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
    fn fixed_frame_tier_matches_the_reference() {
        // (LFSR size, window, which seed frames the config must reach):
        // first commits leaving f < 6, 6 <= f <= 10 and 11 <= f <= 63,
        // and a frame that commits shrink through f <= 10 — one frame
        // carries every seed from its first commit to full rank
        type Reached = fn(&[usize]) -> bool;
        let cases: [(usize, usize, &str, Reached); 4] = [
            (16, 12, "f < 6", |f| (1..6).contains(&f[0])),
            (22, 12, "6 <= f <= 10", |f| (6..=10).contains(&f[0])),
            (30, 8, "a frame shrinking through f <= 10", |f| {
                f[0] > 10 && f.iter().any(|&x| (1..=10).contains(&x))
            }),
            (48, 8, "11 <= f <= 63", |f| {
                (11..=FixedEngine::MAX_DIM).contains(&f[0])
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

    /// The packed projection of table row `row` into `space`, one dot
    /// product per coordinate: bit `j` is `row · N_j`, bit 63 is
    /// `row · x0`.
    fn project_row(space: &AffineSpace, row: &[u64]) -> u64 {
        let mut packed = u64::from(words::dot(row, space.x0_words())) << 63;
        for j in 0..space.dim() {
            packed |= u64::from(words::dot(row, space.null_row(j))) << j;
        }
        packed
    }

    /// Every phase-shifter output expression of `lfsr` behind `shifter`
    /// for `cycles` cycles, straight from an [`ExpressionStream`]:
    /// `rows[cycle][chain]`.
    ///
    /// [`ExpressionStream`]: ss_lfsr::ExpressionStream
    fn stream_rows(lfsr: &Lfsr, shifter: &PhaseShifter, cycles: usize) -> Vec<Vec<BitVec>> {
        let mut stream = ss_lfsr::ExpressionStream::new(lfsr);
        (0..cycles)
            .map(|_| {
                let rows = stream.output_exprs(shifter);
                stream.step();
                rows
            })
            .collect()
    }

    /// Checks the planes of every `(offset, block)` run of `table` in
    /// the engine's current frame state against its rows from `rows`
    /// ([`stream_rows`]), each projected by dot products, reduced
    /// modulo the committed rows and transposed bit by bit into the
    /// engine's columns.
    fn check_run_planes(
        engine: &mut FixedEngine,
        space: &AffineSpace,
        table: &ExprTable,
        rows: &[Vec<BitVec>],
        at: &str,
    ) {
        engine.project_sequence(table);
        let (chains, depth) = (table.chains(), table.scan().depth());
        for off in 0..depth * chains {
            for (block, (start, len)) in position_blocks(table.window()).enumerate() {
                let lanes: Vec<u64> = (start..start + len)
                    .map(|p| &rows[p * depth + off / chains][off % chains])
                    .map(|row| engine.g.reduce_packed(project_row(space, row.as_words())))
                    .collect();
                assert!(lanes.iter().all(|&lane| lane & engine.g.pivot_mask == 0));
                let want: Vec<u64> = engine
                    .sliced
                    .cols()
                    .iter()
                    .map(|&col| {
                        (lanes.iter().enumerate()).fold(0, |plane, (i, &lane)| {
                            plane | u64::from(lane & col != 0) << i
                        })
                    })
                    .collect();
                let got: Vec<u64> = (engine.planes.run(table, &engine.sequence, off, block))
                    .iter()
                    .map(|&plane| plane & all_lanes(len))
                    .collect();
                assert_eq!(got, want, "{at}: offset {off} block {block}");
            }
        }
    }

    #[test]
    fn sliced_runs_equal_the_transposed_row_projections() {
        // L = 1 and 24 are one short block, 70 a full block and a short
        // one, 200 three full blocks and a short one. With 85 variables
        // (two-word rows) over depth 6, a delay carries a row up to 14
        // entries into another residue; with 24 over depth 40, at most
        // one.
        let mut rng = SmallRng::seed_from_u64(21);
        for (n, chains, depth) in [(85usize, 4usize, 6usize), (24, 3, 40)] {
            let scan = ScanConfig::new(chains, depth).unwrap();
            let shifter = PhaseShifter::synthesize(n, chains, 3, &mut rng).unwrap();
            for kind in [LfsrKind::Fibonacci, LfsrKind::Galois] {
                let lfsr = Lfsr::try_new(primitive_poly(n).unwrap(), kind).unwrap();
                for window in [1usize, 24, 70, 200] {
                    let table = ExprTable::build(&lfsr, &shifter, scan, window);
                    let exprs = stream_rows(&lfsr, &shifter, table.cycles());
                    let space = random_system(n, &mut rng).0.affine_space();
                    let runs = depth * chains * window.div_ceil(POSITION_BLOCK);
                    let mut engine = FixedEngine::new(runs);
                    engine.take_frame(&space, &table);
                    let at = format!("{kind} n={n} L={window}");
                    check_run_planes(&mut engine, &space, &table, &exprs, &at);
                    // commits re-reduce the frame; every committed row
                    // holds at one point, so none conflicts
                    let coords = FastElim::ROW_MASK >> (FixedEngine::MAX_DIM - space.dim());
                    let solution = rng.gen::<u64>() & coords;
                    for _ in 0..2 {
                        let rows: Vec<u64> = (0..3)
                            .map(|_| {
                                let row = rng.gen::<u64>() & coords;
                                row | u64::from((row & solution).count_ones() % 2 == 1) << 63
                            })
                            .collect();
                        engine.commit_update(&rows);
                        let at = format!("{at} after {} committed rows", engine.g.rank());
                        check_run_planes(&mut engine, &space, &table, &exprs, &at);
                    }
                    assert_eq!(engine.g.rank(), 6, "{at}");
                }
            }
        }
    }

    #[test]
    fn full_rank_check_places_each_cube_at_its_first_match_in_the_expanded_window() {
        // sparse random cubes over two geometries (two-word rows over
        // depth 6, one-word rows over depth 40) match a random full seed
        // at many positions; L = 1 and 24 are one short block, 70 and
        // 200 end in a short one
        let mut rng = SmallRng::seed_from_u64(22);
        for (n, chains, depth) in [(85usize, 4usize, 6usize), (24, 3, 40)] {
            let scan = ScanConfig::new(chains, depth).unwrap();
            let shifter = PhaseShifter::synthesize(n, chains, 3, &mut rng).unwrap();
            let mut set = TestSet::new(scan);
            for _ in 0..80 {
                let mut care = BitVec::zeros(scan.cells());
                for _ in 0..rng.gen_range(1..=10) {
                    care.set(rng.gen_range(0..scan.cells()), true);
                }
                let mut values = BitVec::random(scan.cells(), &mut rng);
                values.and_with(&care);
                set.push(ss_testdata::TestCube::from_planes(care, values))
                    .unwrap();
            }
            for kind in [LfsrKind::Fibonacci, LfsrKind::Galois] {
                let lfsr = Lfsr::try_new(primitive_poly(n).unwrap(), kind).unwrap();
                for window in [1usize, 24, 70, 200] {
                    let table = ExprTable::build(&lfsr, &shifter, scan, window);
                    let enc = WindowEncoder::new(&set, &table).unwrap();
                    let mut late = 0;
                    for _ in 0..6 {
                        let bits = BitVec::random(n, &mut rng);
                        let vectors =
                            crate::expand::try_expand_seed(&lfsr, &shifter, scan, &bits, window)
                                .unwrap();
                        let mut search = Search::new(&enc);
                        let mut seed = SeedSearch {
                            solver: IncrementalSolver::new(n),
                            framed: false,
                            viable: HashMap::new(),
                            placements: Vec::new(),
                        };
                        search.place_embedded(&mut seed, &bits);
                        let want: Vec<Placement> = (search.order.iter())
                            .filter_map(|&cube| {
                                let position =
                                    vectors.iter().position(|v| set.cube(cube).matches(v))?;
                                Some(Placement { cube, position })
                            })
                            .collect();
                        let at = format!("{kind} n={n} L={window}");
                        assert_eq!(seed.placements, want, "{at}");
                        assert!(!want.is_empty(), "{at}: no cube embedded");
                        late += want.iter().filter(|p| p.position >= 64).count();
                    }
                    if window > 64 {
                        assert!(late > 0, "{kind} n={n} L={window}: no match past 64");
                    }
                }
            }
        }
    }

    #[test]
    fn general_width_path_matches_the_reference_beyond_63_free_dims() {
        // a deliberately oversized LFSR leaves > 63 free dimensions
        // after the first commit: those rounds run the reference
        // probe until the seed hands over to a word-sized frame
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
            "no seed hands over from f > 63 to a word-sized frame"
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
