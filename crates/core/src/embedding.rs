//! Fortuitous-embedding detection.
//!
//! Once the seeds are solved, every window vector is a concrete
//! pseudorandom pattern. Sparse cubes — the majority of an uncompacted
//! test set — happen to match many of those patterns beyond the
//! position they were deliberately encoded at. The test-sequence
//! reduction step (Section 3.2) feeds on exactly this: the more places
//! a cube is embedded, the more freedom the useful-segment selection
//! has.

use ss_gf2::{BitVec, PATTERNS_PER_BLOCK};
use ss_lfsr::{Lfsr, PhaseShifter};
use ss_testdata::TestSet;

use crate::encoder::EncodingResult;
use crate::expand::{try_expand_seed, PackedWindowExpander};

/// For every cube, every `(seed, window position)` whose expanded
/// vector embeds it — intentional and fortuitous matches alike.
///
/// # Example
///
/// Built by [`Encoded::embed`](crate::Encoded::embed) in the staged
/// flow; the map is exposed as
/// [`PipelineReport::embedding`](crate::PipelineReport::embedding).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmbeddingMap {
    /// `matches[cube]` = sorted `(seed, position)` pairs.
    matches: Vec<Vec<(usize, usize)>>,
    window: usize,
    seed_count: usize,
}

impl EmbeddingMap {
    /// Expands every seed and records all cube matches — the primary,
    /// word-parallel path: each seed's window is generated as packed
    /// 64-position blocks ([`PackedWindowExpander`]) and every cube
    /// is matched against a whole block at once with
    /// [`TestCube::match_mask`](ss_testdata::TestCube::match_mask).
    /// Results are bit-identical to [`EmbeddingMap::build_scalar`],
    /// which property tests pin.
    ///
    /// `lfsr` and `shifter` must be the same hardware the encoding was
    /// computed against, otherwise the intentional placements will not
    /// even match (and [`EmbeddingMap::validate`] will say so).
    pub fn build(
        set: &TestSet,
        result: &EncodingResult,
        lfsr: &Lfsr,
        shifter: &PhaseShifter,
    ) -> Self {
        Self::build_threaded(set, result, lfsr, shifter, 1)
    }

    /// [`build`](Self::build) with the seeds partitioned across up to
    /// `threads` scoped worker threads. Each worker expands and
    /// matches a contiguous seed range against the shared (read-only)
    /// expander with its own packed scratch buffer; per-cube match
    /// lists are concatenated in seed-range order, so the map is
    /// **bit-identical at every thread count**.
    pub fn build_threaded(
        set: &TestSet,
        result: &EncodingResult,
        lfsr: &Lfsr,
        shifter: &PhaseShifter,
        threads: usize,
    ) -> Self {
        let expander = PackedWindowExpander::new(lfsr, shifter, set.config(), result.window)
            .expect("encoding and hardware share one geometry");
        let seed_count = result.seeds.len();
        let threads = threads.clamp(1, seed_count.max(1));
        let match_range = |range: std::ops::Range<usize>| {
            let mut matches = vec![Vec::new(); set.len()];
            let mut packed = ss_gf2::PackedPatterns::zeros(0, 0);
            for si in range {
                expander
                    .expand_into(&result.seeds[si].seed, &mut packed)
                    .expect("encoded seeds match the LFSR width");
                for (ci, cube) in set.iter().enumerate() {
                    for block in 0..packed.block_count() {
                        let mut mask = cube.match_mask(&packed, block);
                        while mask != 0 {
                            let v = block * PATTERNS_PER_BLOCK + mask.trailing_zeros() as usize;
                            matches[ci].push((si, v));
                            mask &= mask - 1;
                        }
                    }
                }
            }
            matches
        };
        let matches = if threads <= 1 {
            match_range(0..seed_count)
        } else {
            // contiguous seed ranges per worker; concatenating the
            // per-cube lists in range order preserves the sequential
            // (seed, position) ordering exactly
            let chunk = seed_count.div_ceil(threads);
            let partials = crate::builder::run_pool(threads, threads, |w| {
                match_range(w * chunk..((w + 1) * chunk).min(seed_count))
            });
            let mut matches = vec![Vec::new(); set.len()];
            for partial in partials {
                for (ci, mut list) in partial.into_iter().enumerate() {
                    matches[ci].append(&mut list);
                }
            }
            matches
        };
        EmbeddingMap {
            matches,
            window: result.window,
            seed_count,
        }
    }

    /// The scalar reference oracle: expands every seed one vector at a
    /// time ([`try_expand_seed`]) and matches cubes per vector.
    /// Kept only to pin [`EmbeddingMap::build`] — the two must agree
    /// bit for bit on every workload.
    pub fn build_scalar(
        set: &TestSet,
        result: &EncodingResult,
        lfsr: &Lfsr,
        shifter: &PhaseShifter,
    ) -> Self {
        let mut matches = vec![Vec::new(); set.len()];
        for (si, enc) in result.seeds.iter().enumerate() {
            let vectors = try_expand_seed(lfsr, shifter, set.config(), &enc.seed, result.window)
                .expect("encoding and hardware share one geometry");
            for (v, vector) in vectors.iter().enumerate() {
                for ci in set.matching_cubes(vector) {
                    matches[ci].push((si, v));
                }
            }
        }
        EmbeddingMap {
            matches,
            window: result.window,
            seed_count: result.seeds.len(),
        }
    }

    /// Builds the map from pre-expanded windows (used by tests and by
    /// callers that already hold the vectors).
    pub fn from_windows(set: &TestSet, windows: &[Vec<BitVec>]) -> Self {
        let window = windows.first().map_or(0, Vec::len);
        let mut matches = vec![Vec::new(); set.len()];
        for (si, vectors) in windows.iter().enumerate() {
            for (v, vector) in vectors.iter().enumerate() {
                for ci in set.matching_cubes(vector) {
                    matches[ci].push((si, v));
                }
            }
        }
        EmbeddingMap {
            matches,
            window,
            seed_count: windows.len(),
        }
    }

    /// All `(seed, position)` embeddings of `cube`.
    ///
    /// # Panics
    ///
    /// Panics if `cube` is out of range.
    pub fn matches(&self, cube: usize) -> &[(usize, usize)] {
        &self.matches[cube]
    }

    /// Number of cubes tracked.
    pub fn cube_count(&self) -> usize {
        self.matches.len()
    }

    /// Window length.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Number of seeds.
    pub fn seed_count(&self) -> usize {
        self.seed_count
    }

    /// `true` when every cube is embedded somewhere — which must hold
    /// whenever the map was built against the same hardware the
    /// encoding used (each cube at least matches its intentional
    /// placement).
    pub fn validate(&self) -> bool {
        self.matches.iter().all(|m| !m.is_empty())
    }

    /// Mean embeddings per cube — a measure of how much fortuitous
    /// slack the reduction step can exploit.
    pub fn mean_embeddings(&self) -> f64 {
        if self.matches.is_empty() {
            return 0.0;
        }
        self.matches.iter().map(Vec::len).sum::<usize>() as f64 / self.matches.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_testdata::{ScanConfig, TestCube};

    fn tiny_set() -> TestSet {
        let mut set = TestSet::new(ScanConfig::new(1, 4).unwrap());
        set.push("1XXX".parse::<TestCube>().unwrap()).unwrap();
        set.push("XX00".parse::<TestCube>().unwrap()).unwrap();
        set.push("1111".parse::<TestCube>().unwrap()).unwrap();
        set
    }

    fn v(bits: [u8; 4]) -> BitVec {
        BitVec::from_bits(bits.iter().map(|&b| b == 1))
    }

    #[test]
    fn from_windows_finds_all_matches() {
        let set = tiny_set();
        let windows = vec![
            vec![v([1, 0, 0, 0]), v([0, 1, 0, 0])], // seed 0
            vec![v([1, 1, 1, 1]), v([1, 0, 1, 1])], // seed 1
        ];
        let map = EmbeddingMap::from_windows(&set, &windows);
        // cube 0 "1XXX": vectors (0,0), (1,0), (1,1)
        assert_eq!(map.matches(0), &[(0, 0), (1, 0), (1, 1)]);
        // cube 1 "XX00": vectors (0,0), (0,1)
        assert_eq!(map.matches(1), &[(0, 0), (0, 1)]);
        // cube 2 "1111": vector (1,0)
        assert_eq!(map.matches(2), &[(1, 0)]);
        assert!(map.validate());
        assert!((map.mean_embeddings() - 2.0).abs() < 1e-9);
        assert_eq!(map.window(), 2);
        assert_eq!(map.seed_count(), 2);
    }

    #[test]
    fn packed_build_matches_the_scalar_oracle() {
        use crate::artifacts::Encoded;
        use crate::builder::Engine;
        use ss_testdata::{generate_test_set, CubeProfile};

        let set = generate_test_set(&CubeProfile::mini(), 1);
        let engine = Engine::builder()
            .window(30)
            .segment(5)
            .speedup(6)
            .build()
            .unwrap();
        let ctx = engine.synthesize(&set).unwrap();
        let encoded = Encoded::from_ctx_ref(&set, &ctx).unwrap();
        let packed = EmbeddingMap::build(&set, encoded.encoding(), ctx.lfsr(), ctx.shifter());
        let scalar =
            EmbeddingMap::build_scalar(&set, encoded.encoding(), ctx.lfsr(), ctx.shifter());
        assert_eq!(packed, scalar, "embedding maps must agree bit for bit");
        assert!(packed.validate());
        // the threaded build is the same map at every worker count,
        // including widths beyond the seed count
        for threads in [2usize, 3, 64] {
            let threaded = EmbeddingMap::build_threaded(
                &set,
                encoded.encoding(),
                ctx.lfsr(),
                ctx.shifter(),
                threads,
            );
            assert_eq!(threaded, scalar, "threads={threads}");
        }
    }

    #[test]
    fn validate_fails_on_unmatched_cube() {
        let set = tiny_set();
        let windows = vec![vec![v([0, 0, 0, 0])]];
        let map = EmbeddingMap::from_windows(&set, &windows);
        assert!(!map.validate(), "cube 2 '1111' matches nothing");
    }
}
