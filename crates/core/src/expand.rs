//! Seed-window expansion: what the decompressor hardware generates
//! from one seed in Normal mode.
//!
//! [`try_expand_seed`] is the scalar reference oracle, one vector at a
//! time; [`PackedWindowExpander`] produces the same window as
//! bit-sliced [`PackedPatterns`] blocks (64 window positions per
//! `u64` lane) and is the generation path behind
//! [`EmbeddingMap::build`](crate::EmbeddingMap::build).

use ss_gf2::{BitMatrix, BitVec, PackedPatterns, PATTERNS_PER_BLOCK};
use ss_lfsr::{Lfsr, PackedLfsrStream, PhaseShifter};
use ss_testdata::ScanConfig;

use crate::error::SchemeError;

/// Checks that `shifter` reads exactly the `lfsr_size` LFSR cells and
/// drives exactly the scan geometry's chains.
pub(crate) fn check_shifter(
    lfsr_size: usize,
    shifter: &PhaseShifter,
    scan: ScanConfig,
) -> Result<(), SchemeError> {
    if shifter.input_count() != lfsr_size {
        return Err(SchemeError::bad_config(format!(
            "phase shifter reads {} cells but the LFSR has {lfsr_size}",
            shifter.input_count()
        )));
    }
    if shifter.output_count() != scan.chains() {
        return Err(SchemeError::bad_config(format!(
            "phase shifter drives {} chains but the scan geometry has {}",
            shifter.output_count(),
            scan.chains()
        )));
    }
    Ok(())
}

fn check_seed(lfsr: &Lfsr, seed: &BitVec) -> Result<(), SchemeError> {
    if seed.len() != lfsr.size() {
        return Err(SchemeError::bad_config(format!(
            "seed width {} differs from LFSR size {}",
            seed.len(),
            lfsr.size()
        )));
    }
    Ok(())
}

/// Expands a seed into its window of `window` fully specified test
/// vectors, exactly as the decompressor hardware would generate them
/// in Normal mode.
///
/// # Errors
///
/// [`SchemeError::BadConfig`] if the seed width differs from the LFSR
/// size or the shifter does not match the LFSR/scan geometry.
pub fn try_expand_seed(
    lfsr: &Lfsr,
    shifter: &PhaseShifter,
    scan: ScanConfig,
    seed: &BitVec,
    window: usize,
) -> Result<Vec<BitVec>, SchemeError> {
    check_seed(lfsr, seed)?;
    check_shifter(lfsr.size(), shifter, scan)?;
    let mut lfsr = lfsr.clone();
    lfsr.load(seed);
    let r = scan.depth();
    let mut vectors = Vec::with_capacity(window);
    for _ in 0..window {
        let mut vector = BitVec::zeros(scan.cells());
        for t in 0..r {
            let outs = shifter.outputs(lfsr.state());
            let pos = scan.position_loaded_at(t);
            for c in 0..scan.chains() {
                if outs.get(c) {
                    vector.set(scan.cell_index(c, pos), true);
                }
            }
            lfsr.step();
        }
        vectors.push(vector);
    }
    Ok(vectors)
}

/// Reusable packed seed-window expander: one `(LFSR, phase shifter,
/// scan, window)` setup, many seeds, each window bit-identical to
/// [`try_expand_seed`].
///
/// The win is in the phase-shifter side: one packed
/// [`PhaseShifter::outputs_packed`] evaluation per clock serves 64
/// window positions at once. Each 64-position block runs one
/// [`PackedLfsrStream`] pass of `r` clocks — 64 lanes stepped
/// together bit-sliced, one lane per window position — and block
/// starts are reached with a precomputed `T^(64·r)` transition-matrix
/// jump (one [`BitMatrix::pow`] at construction) instead of `64·r`
/// scalar `step()`s per block.
///
/// # Example
///
/// ```
/// use ss_core::{try_expand_seed, PackedWindowExpander};
/// use ss_gf2::{primitive_poly, BitVec};
/// use ss_lfsr::{Lfsr, PhaseShifter};
/// use ss_testdata::ScanConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lfsr = Lfsr::fibonacci(primitive_poly(8)?);
/// let shifter = PhaseShifter::identity(8);
/// let scan = ScanConfig::new(8, 4)?;
/// let expander = PackedWindowExpander::new(&lfsr, &shifter, scan, 70)?;
/// let seed = BitVec::from_u128(8, 0xA5);
/// let packed = expander.expand(&seed)?;
/// // bit-identical to the scalar path, 64 windows per word
/// let scalar = try_expand_seed(&lfsr, &shifter, scan, &seed, 70)?;
/// assert_eq!(packed.to_vectors(), scalar);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PackedWindowExpander<'a> {
    lfsr: &'a Lfsr,
    shifter: &'a PhaseShifter,
    scan: ScanConfig,
    window: usize,
    /// `T^(64·r)`: the block-to-block jump; `None` for single-block
    /// windows.
    block_jump: Option<BitMatrix>,
}

impl<'a> PackedWindowExpander<'a> {
    /// Validates the hardware geometry and precomputes the jump
    /// matrices.
    ///
    /// # Errors
    ///
    /// [`SchemeError::BadConfig`] if the shifter does not match the
    /// LFSR/scan geometry.
    pub fn new(
        lfsr: &'a Lfsr,
        shifter: &'a PhaseShifter,
        scan: ScanConfig,
        window: usize,
    ) -> Result<Self, SchemeError> {
        check_shifter(lfsr.size(), shifter, scan)?;
        let block_jump = (window > PATTERNS_PER_BLOCK).then(|| {
            lfsr.transition_matrix()
                .pow((PATTERNS_PER_BLOCK * scan.depth()) as u64)
        });
        Ok(PackedWindowExpander {
            lfsr,
            shifter,
            scan,
            window,
            block_jump,
        })
    }

    /// The window length this expander produces.
    pub fn window(&self) -> usize {
        self.window
    }

    /// Expands one seed into its packed window.
    ///
    /// # Errors
    ///
    /// [`SchemeError::BadConfig`] if the seed width differs from the
    /// LFSR size.
    pub fn expand(&self, seed: &BitVec) -> Result<PackedPatterns, SchemeError> {
        let mut packed = PackedPatterns::zeros(0, 0);
        self.expand_into(seed, &mut packed)?;
        Ok(packed)
    }

    /// [`expand`](PackedWindowExpander::expand) into a reusable
    /// scratch buffer (reset first), for allocation-free outer loops
    /// over many seeds.
    ///
    /// # Errors
    ///
    /// [`SchemeError::BadConfig`] if the seed width differs from the
    /// LFSR size.
    pub fn expand_into(&self, seed: &BitVec, out: &mut PackedPatterns) -> Result<(), SchemeError> {
        check_seed(self.lfsr, seed)?;
        let r = self.scan.depth();
        out.reset(self.scan.cells(), self.window);
        let blocks = self.window.div_ceil(PATTERNS_PER_BLOCK);
        let mut base = seed.clone();
        let mut outs = Vec::with_capacity(self.scan.chains());
        for block in 0..blocks {
            let lanes = (self.window - block * PATTERNS_PER_BLOCK).min(PATTERNS_PER_BLOCK);
            // lane starts are r-step neighbours: a scalar walk beats a
            // matrix-vector product per lane at scan-depth strides
            let mut stream = PackedLfsrStream::from_walk(self.lfsr, &base, r as u64, lanes);
            for t in 0..r {
                self.shifter.outputs_packed_into(stream.slices(), &mut outs);
                let pos = self.scan.position_loaded_at(t);
                for (c, &word) in outs.iter().enumerate() {
                    out.set_word(self.scan.cell_index(c, pos), block, word);
                }
                stream.step();
            }
            if block + 1 < blocks {
                // the 64-window jump to the next block's start: one
                // precomputed T^(64*r) matrix-vector product
                let jump = self.block_jump.as_ref().expect("multi-block windows");
                base = jump.mul_vec(&base);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifacts::HardwareCtx;
    use crate::builder::Engine;
    use ss_testdata::{generate_test_set, CubeProfile, TestSet};

    fn mini_ctx() -> (TestSet, HardwareCtx) {
        let set = generate_test_set(&CubeProfile::mini(), 1);
        let engine = Engine::builder()
            .window(24)
            .segment(4)
            .speedup(6)
            .build()
            .unwrap();
        let ctx = engine.synthesize(&set).unwrap();
        (set, ctx)
    }

    #[test]
    fn expand_seed_is_window_long_and_deterministic() {
        let (set, ctx) = mini_ctx();
        let seed = BitVec::ones(ctx.lfsr_size());
        let a = try_expand_seed(ctx.lfsr(), ctx.shifter(), set.config(), &seed, 7).unwrap();
        let b = try_expand_seed(ctx.lfsr(), ctx.shifter(), set.config(), &seed, 7).unwrap();
        assert_eq!(a.len(), 7);
        assert_eq!(a, b);
        for v in &a {
            assert_eq!(v.len(), set.config().cells());
        }
    }

    #[test]
    fn packed_expansion_is_bit_identical_to_scalar() {
        let (set, ctx) = mini_ctx();
        use rand::SeedableRng;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(17);
        // windows straddling one block, an exact block and a ragged tail
        for window in [1, 7, 64, 70, 130] {
            let seed = BitVec::random(ctx.lfsr_size(), &mut rng);
            let scalar =
                try_expand_seed(ctx.lfsr(), ctx.shifter(), set.config(), &seed, window).unwrap();
            let packed = PackedWindowExpander::new(ctx.lfsr(), ctx.shifter(), set.config(), window)
                .unwrap()
                .expand(&seed)
                .unwrap();
            assert_eq!(packed.count(), window);
            assert_eq!(packed.to_vectors(), scalar, "window {window}");
        }
    }

    #[test]
    fn both_expanders_reject_a_narrow_seed() {
        let (set, ctx) = mini_ctx();
        let narrow = BitVec::ones(ctx.lfsr_size() - 1);
        let scalar = try_expand_seed(ctx.lfsr(), ctx.shifter(), set.config(), &narrow, 4);
        assert!(matches!(scalar, Err(SchemeError::BadConfig(_))));
        let packed = PackedWindowExpander::new(ctx.lfsr(), ctx.shifter(), set.config(), 4)
            .unwrap()
            .expand(&narrow);
        assert!(matches!(packed, Err(SchemeError::BadConfig(_))));
    }

    #[test]
    fn every_entry_point_rejects_a_mismatched_shifter() {
        let (set, ctx) = mini_ctx();
        let scan = set.config();
        let seed = BitVec::ones(ctx.lfsr_size());
        let bad = |r: Result<(), SchemeError>| matches!(r, Err(SchemeError::BadConfig(_)));
        // one cell short of the LFSR, then one chain short of the scan
        let narrow = PhaseShifter::identity(ctx.lfsr_size() - 1);
        let short_scan = ScanConfig::new(scan.chains() - 1, scan.depth()).unwrap();
        for (shifter, scan) in [(&narrow, scan), (ctx.shifter(), short_scan)] {
            assert!(bad(
                try_expand_seed(ctx.lfsr(), shifter, scan, &seed, 4).map(drop)
            ));
            assert!(bad(
                PackedWindowExpander::new(ctx.lfsr(), shifter, scan, 4).map(drop)
            ));
            assert!(bad(HardwareCtx::from_parts(
                *ctx.config(),
                scan,
                ctx.lfsr().clone(),
                shifter.clone()
            )
            .map(drop)));
        }
    }
}
