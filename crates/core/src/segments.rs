//! Segment labelling, useful-segment selection, seed grouping and TSL
//! accounting — Section 3.2 of the paper.
//!
//! Every window is partitioned into segments of `S` vectors. A segment
//! is *useful* if the final test relies on a cube embedded there, and
//! *useless* otherwise; useless segments are traversed in State Skip
//! mode. Because sparse cubes are fortuitously embedded in many
//! segments, choosing *which* segments to rely on is a set-cover
//! problem; the paper's heuristic is:
//!
//! 1. cubes embedded in exactly **one** segment anywhere (set A) force
//!    that segment useful;
//! 2. remaining cubes (set B) already covered by a forced segment are
//!    dropped;
//! 3. greedily pick the segment embedding the most remaining cubes,
//!    preferring segments closest to the beginning of a window, until
//!    every cube is covered.
//!
//! Seeds are then grouped by useful-segment count (ascending) so a
//! single Group Counter value tells the hardware how many useful
//! segments to generate before moving to the next seed, and every
//! window is cut right after its last useful segment.

use std::collections::{BTreeMap, HashMap, HashSet};

use crate::embedding::EmbeddingMap;

/// The chosen useful segments for every seed, plus the seed grouping.
///
/// # Example
///
/// Built by [`Embedded::segment`](crate::Embedded::segment); see
/// [`PipelineReport::plan`](crate::PipelineReport::plan).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentPlan {
    /// Segment size `S` in vectors.
    segment: usize,
    /// Window length `L` in vectors.
    window: usize,
    /// Per seed: sorted indices of useful segments.
    useful: Vec<Vec<usize>>,
    /// Groups in application order: `(useful_count, seed indices)`,
    /// ascending by count.
    groups: Vec<(usize, Vec<usize>)>,
}

impl SegmentPlan {
    /// Runs the selection over an embedding map.
    ///
    /// # Panics
    ///
    /// Panics if `segment == 0` or `segment > window`, or if some cube
    /// has no embedding at all (i.e. `map.validate()` is false — the
    /// encoding and map must come from the same hardware).
    pub fn build(map: &EmbeddingMap, segment: usize) -> Self {
        let window = map.window();
        assert!(segment >= 1, "segment size must be >= 1");
        assert!(segment <= window, "segment size must not exceed the window");
        assert!(map.validate(), "every cube must be embedded somewhere");

        let seg_count = window.div_ceil(segment);
        // per cube: the distinct (seed, segment) locations embedding it
        let cube_segments: Vec<Vec<(usize, usize)>> = (0..map.cube_count())
            .map(|ci| {
                let mut segs: Vec<(usize, usize)> = map
                    .matches(ci)
                    .iter()
                    .map(|&(seed, pos)| (seed, pos / segment))
                    .collect();
                segs.sort_unstable();
                segs.dedup();
                segs
            })
            .collect();

        let mut useful: Vec<HashSet<usize>> = vec![HashSet::new(); map.seed_count()];

        // set A: cubes pinned to a single segment
        let mut covered = vec![false; map.cube_count()];
        for (ci, segs) in cube_segments.iter().enumerate() {
            if let [(seed, seg)] = segs.as_slice() {
                useful[*seed].insert(*seg);
                covered[ci] = true;
            }
        }
        // drop set-B cubes already covered by the forced segments
        for (ci, segs) in cube_segments.iter().enumerate() {
            if !covered[ci] && segs.iter().any(|&(seed, seg)| useful[seed].contains(&seg)) {
                covered[ci] = true;
            }
        }

        // greedy cover for the rest
        let mut remaining: HashSet<usize> = covered
            .iter()
            .enumerate()
            .filter_map(|(ci, &c)| (!c).then_some(ci))
            .collect();
        while !remaining.is_empty() {
            // count remaining cubes per candidate segment
            let mut counts: HashMap<(usize, usize), usize> = HashMap::new();
            for &ci in &remaining {
                for &loc in &cube_segments[ci] {
                    *counts.entry(loc).or_insert(0) += 1;
                }
            }
            // most cubes; tie -> earliest segment in its window, then
            // earliest seed (deterministic)
            let (&(seed, seg), _) = counts
                .iter()
                .min_by_key(|&(&(seed, seg), &c)| (usize::MAX - c, seg, seed))
                .expect("remaining cubes always have candidate segments");
            useful[seed].insert(seg);
            remaining.retain(|&ci| !cube_segments[ci].contains(&(seed, seg)));
        }

        // hardware invariant (Section 3.3): the first segment of every
        // seed is useful. The encoder guarantees a cube at position 0,
        // but the cover may satisfy that cube elsewhere; in that rare
        // case segment 0 is forced useful so Mode Select stays simple.
        for set in &mut useful {
            if set.is_empty() {
                set.insert(0);
            }
        }
        // also: selection keeps the seed's own segment-0 when present —
        // no action needed; forcing is only for empty sets.

        let useful: Vec<Vec<usize>> = useful
            .into_iter()
            .map(|s| {
                let mut v: Vec<usize> = s.into_iter().collect();
                v.sort_unstable();
                debug_assert!(v.last().copied().unwrap_or(0) < seg_count);
                v
            })
            .collect();

        // group by useful count, ascending
        let mut by_count: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for (seed, segs) in useful.iter().enumerate() {
            by_count.entry(segs.len()).or_default().push(seed);
        }
        let groups = by_count.into_iter().collect();

        SegmentPlan {
            segment,
            window,
            useful,
            groups,
        }
    }

    /// Segment size `S`.
    pub fn segment(&self) -> usize {
        self.segment
    }

    /// Window length `L`.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Segments per window (`ceil(L/S)`).
    pub fn segments_per_window(&self) -> usize {
        self.window.div_ceil(self.segment)
    }

    /// Number of vectors in segment `seg` (the last segment of a
    /// window may be partial).
    ///
    /// # Panics
    ///
    /// Panics if `seg >= segments_per_window()`.
    pub fn segment_len(&self, seg: usize) -> usize {
        assert!(seg < self.segments_per_window(), "segment out of range");
        (self.window - seg * self.segment).min(self.segment)
    }

    /// Sorted useful segments of `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `seed` is out of range.
    pub fn useful_segments(&self, seed: usize) -> &[usize] {
        &self.useful[seed]
    }

    /// Number of seeds.
    pub fn seed_count(&self) -> usize {
        self.useful.len()
    }

    /// Total useful segments over all seeds (drives the Mode Select
    /// unit's size).
    pub fn total_useful(&self) -> usize {
        self.useful.iter().map(Vec::len).sum()
    }

    /// The seed groups in application order: `(useful_count, seeds)`,
    /// ascending by count.
    pub fn groups(&self) -> &[(usize, Vec<usize>)] {
        &self.groups
    }

    /// Seed application order implied by the grouping.
    pub fn seed_order(&self) -> Vec<usize> {
        self.groups
            .iter()
            .flat_map(|(_, seeds)| seeds.iter().copied())
            .collect()
    }

    /// Computes the test sequence length under State Skip traversal
    /// with speedup `k`, for scan depth `r`.
    ///
    /// Model: each window is generated only up to its
    /// last useful segment. Useful segments run in Normal mode
    /// (`len * r` clocks, `len` vectors applied). Maximal runs of
    /// useless segments with a total of `G` skipped states take
    /// `G/k + G%k` clocks and apply `ceil(clocks/r)` (garbage) vectors.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `r == 0`.
    pub fn tsl(&self, k: u64, r: usize) -> TslReport {
        assert!(k >= 1, "speedup must be >= 1");
        assert!(r >= 1, "scan depth must be >= 1");
        let mut total_clocks = 0u64;
        let mut vectors = 0u64;
        let mut useful_vectors = 0u64;
        let mut per_seed = Vec::with_capacity(self.useful.len());

        for seed in self.seed_order() {
            let segs = &self.useful[seed];
            let last = *segs.last().expect("every seed has a useful segment");
            let mut seed_clocks = 0u64;
            let mut seed_vectors = 0u64;
            let mut pending_gap = 0u64; // states of the current useless run
            for seg in 0..=last {
                let len = self.segment_len(seg) as u64;
                if segs.binary_search(&seg).is_ok() {
                    // flush the useless run first
                    if pending_gap > 0 {
                        let clocks = pending_gap / k + pending_gap % k;
                        seed_clocks += clocks;
                        seed_vectors += clocks.div_ceil(r as u64);
                        pending_gap = 0;
                    }
                    seed_clocks += len * r as u64;
                    seed_vectors += len;
                    useful_vectors += len;
                } else {
                    pending_gap += len * r as u64;
                }
            }
            debug_assert_eq!(pending_gap, 0, "the last segment is useful");
            total_clocks += seed_clocks;
            vectors += seed_vectors;
            per_seed.push(seed_vectors);
        }

        TslReport {
            total_clocks,
            vectors,
            useful_vectors,
            per_seed,
        }
    }

    /// TSL of the `[11]`-style baseline: no State Skip hardware, but
    /// each window still ends after its last useful segment (all
    /// traversed segments run in Normal mode). Equivalent to
    /// `tsl(1, r)`.
    pub fn tsl_truncated_only(&self, r: usize) -> TslReport {
        self.tsl(1, r)
    }
}

/// Test-sequence-length accounting for a [`SegmentPlan`] traversal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TslReport {
    /// Total decompressor clocks.
    pub total_clocks: u64,
    /// Total vectors applied to the CUT (useful + garbage) — the
    /// paper's TSL metric.
    pub vectors: u64,
    /// Vectors belonging to useful segments only.
    pub useful_vectors: u64,
    /// Applied vectors per seed, in application order.
    pub per_seed: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::EmbeddingMap;
    use ss_gf2::BitVec;
    use ss_testdata::{ScanConfig, TestCube, TestSet};

    /// Hand-built map: 2 seeds, window 6, cubes with known embeddings.
    fn handmade_map() -> (TestSet, EmbeddingMap) {
        let mut set = TestSet::new(ScanConfig::new(1, 2).unwrap());
        // cube 0 matches only seed0 vector 0 (set A)
        set.push("11".parse::<TestCube>().unwrap()).unwrap();
        // cube 1 matches seed0 v4, seed1 v2 (set B)
        set.push("00".parse::<TestCube>().unwrap()).unwrap();
        // cube 2 matches seed1 v0 only (set A)
        set.push("01".parse::<TestCube>().unwrap()).unwrap();
        let z = |bits: [u8; 2]| BitVec::from_bits(bits.iter().map(|&b| b == 1));
        let windows = vec![
            vec![
                z([1, 1]),
                z([1, 0]),
                z([1, 0]),
                z([1, 0]),
                z([0, 0]),
                z([1, 0]),
            ],
            vec![
                z([0, 1]),
                z([1, 0]),
                z([0, 0]),
                z([1, 0]),
                z([1, 0]),
                z([1, 0]),
            ],
        ];
        let map = EmbeddingMap::from_windows(&set, &windows);
        (set, map)
    }

    #[test]
    fn set_a_segments_are_forced_and_cover_set_b() {
        let (_, map) = handmade_map();
        // S=2: segments are vector pairs {0,1},{2,3},{4,5}
        let plan = SegmentPlan::build(&map, 2);
        // cube 0 pins (seed0, seg0); cube 2 pins (seed1, seg0);
        // cube 1 embedded at (seed0, seg2) and (seed1, seg1): neither
        // forced, greedy picks one (earliest segment index wins: seed1 seg1)
        assert_eq!(plan.useful_segments(0), &[0]);
        assert_eq!(plan.useful_segments(1), &[0, 1]);
        assert_eq!(plan.total_useful(), 3);
    }

    #[test]
    fn groups_ascend_by_useful_count() {
        let (_, map) = handmade_map();
        let plan = SegmentPlan::build(&map, 2);
        let groups = plan.groups();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0], (1, vec![0]));
        assert_eq!(groups[1], (2, vec![1]));
        assert_eq!(plan.seed_order(), vec![0, 1]);
    }

    #[test]
    fn segment_len_handles_partial_tail() {
        let (_, map) = handmade_map();
        let plan = SegmentPlan::build(&map, 4); // window 6 => segs of 4 and 2
        assert_eq!(plan.segments_per_window(), 2);
        assert_eq!(plan.segment_len(0), 4);
        assert_eq!(plan.segment_len(1), 2);
    }

    #[test]
    fn tsl_counts_skip_runs_exactly() {
        let (_, map) = handmade_map();
        let plan = SegmentPlan::build(&map, 2);
        let r = 2;
        // seed0: useful {0}: 2 vectors, 4 clocks. seed1: useful {0,1}:
        // 4 vectors, 8 clocks. No useless traversal at all (last useful
        // caps the window).
        let t = plan.tsl(4, r);
        assert_eq!(t.vectors, 6);
        assert_eq!(t.total_clocks, 12);
        assert_eq!(t.useful_vectors, 6);
        assert_eq!(t.per_seed, vec![2, 4]);
    }

    #[test]
    fn tsl_with_gap_and_speedup() {
        // Force a plan with a hole: seed embeds cubes at segments 0 and 2.
        let mut set = TestSet::new(ScanConfig::new(1, 2).unwrap());
        set.push("11".parse::<TestCube>().unwrap()).unwrap();
        set.push("00".parse::<TestCube>().unwrap()).unwrap();
        let z = |bits: [u8; 2]| BitVec::from_bits(bits.iter().map(|&b| b == 1));
        let windows = vec![vec![
            z([1, 1]),
            z([1, 0]),
            z([1, 0]),
            z([1, 0]),
            z([0, 0]),
            z([1, 0]),
        ]];
        let map = EmbeddingMap::from_windows(&set, &windows);
        let plan = SegmentPlan::build(&map, 2);
        assert_eq!(plan.useful_segments(0), &[0, 2]);

        let r = 2;
        // segment 1 is useless: G = 2 vectors * 2 = 4 states.
        // k=4: clocks = 4/4 + 0 = 1; garbage vectors = ceil(1/2) = 1.
        let t = plan.tsl(4, r);
        assert_eq!(t.total_clocks, (2 * 2) + 1 + (2 * 2));
        assert_eq!(t.vectors, 2 + 1 + 2);
        assert_eq!(t.useful_vectors, 4);

        // k=1 degenerates to truncation-only: all 3 segments in normal mode
        let t1 = plan.tsl_truncated_only(r);
        assert_eq!(t1.vectors, 6);
        assert_eq!(t1.total_clocks, 12);

        // k=3: clocks = 4/3 + 4%3 = 1 + 1 = 2; vectors = ceil(2/2) = 1
        let t3 = plan.tsl(3, r);
        assert_eq!(t3.total_clocks, 4 + 2 + 4);
        assert_eq!(t3.vectors, 5);
    }

    #[test]
    fn speedup_never_beats_the_k1_baseline_backwards() {
        // clocks = floor(G/k) + G mod k is not strictly monotone in k,
        // but no k can be worse than plain normal-mode traversal
        let (_, map) = handmade_map();
        let plan = SegmentPlan::build(&map, 1);
        let baseline = plan.tsl(1, 5).vectors;
        for k in 2..=24 {
            let t = plan.tsl(k, 5);
            assert!(t.vectors <= baseline, "k={k} worse than k=1");
        }
    }

    #[test]
    #[should_panic(expected = "segment size")]
    fn zero_segment_rejected() {
        let (_, map) = handmade_map();
        let _ = SegmentPlan::build(&map, 0);
    }

    #[test]
    fn empty_seed_gets_segment_zero_forced() {
        // one cube embedded in both seeds; greedy covers with seed0 only
        let mut set = TestSet::new(ScanConfig::new(1, 2).unwrap());
        set.push("1X".parse::<TestCube>().unwrap()).unwrap();
        let z = |bits: [u8; 2]| BitVec::from_bits(bits.iter().map(|&b| b == 1));
        let windows = vec![vec![z([1, 0]), z([0, 0])], vec![z([1, 0]), z([0, 0])]];
        let map = EmbeddingMap::from_windows(&set, &windows);
        let plan = SegmentPlan::build(&map, 1);
        // both seeds end with at least segment 0 useful
        assert!(!plan.useful_segments(0).is_empty());
        assert!(!plan.useful_segments(1).is_empty());
    }
}
