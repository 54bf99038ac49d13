//! Property tests pinning the overhauled encoder search — incremental
//! residue caching over free-space projections — **bit-identical** to
//! the pre-overhaul reference search (`encode_reference`): same seeds,
//! same placements, for random workloads across window sizes, fill
//! seeds and LFSR sizes, plus an exhaustive registry check.
//!
//! The cached search replaces the reference's probing engine but not
//! its greedy decisions; since probe outcomes (conflict / added rank)
//! are invariants of the equation sets, any divergence here is a bug
//! in the residue cache, the free-space projection, the fixed-frame
//! tier or the truth-table tier — exactly the machinery this suite
//! exists to guard.

use proptest::prelude::*;

use ss_core::{Engine, ExprTable, WindowEncoder};
use ss_gf2::primitive_poly;
use ss_lfsr::{Lfsr, PhaseShifter};
use ss_testdata::{generate_test_set, CubeProfile, WorkloadRegistry};

fn table_for(set: &ss_testdata::TestSet, n: usize, window: usize, hw_seed: u64) -> ExprTable {
    let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(hw_seed);
    let lfsr = Lfsr::fibonacci(primitive_poly(n).expect("tabulated degree"));
    let shifter = PhaseShifter::synthesize(n, set.config().chains(), 3, &mut rng)
        .expect("synthesizable shifter");
    ExprTable::build(&lfsr, &shifter, set.config(), window)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The cached search reproduces the reference encoding exactly for
    /// random workloads x window in {1, 8, 24, 70} x one LFSR size band
    /// per probing path. A first visit probes positions in blocks of
    /// 64, so L = 70 spans a full block and a partial one.
    #[test]
    fn cached_encoder_matches_reference_exactly(
        set_seed in any::<u64>(),
        fill_seed in any::<u64>(),
        window_idx in 0usize..4,
        band in 0usize..4,
        offset in 0usize..21,
    ) {
        let window = [1usize, 8, 24, 70][window_idx];
        let profile = CubeProfile::mini();
        let set = generate_test_set(&profile, set_seed);
        // bands by the free dimension f the seed's first cube leaves:
        // truth-table (f <= 10), fixed-frame (11..=63) with one-word
        // rows, fixed-frame with two-word rows (n > 64, f <= 63) and
        // oversized (f > 63, which runs the reference probe until
        // f <= 63; the mini profile's smax is at most 12)
        let n = match band {
            0 => set.smax() + 4 + offset % 7,
            1 => set.smax() + 11 + offset,
            2 => set.smax() + 53 + offset % 11,
            _ => 80 + offset,
        };
        let table = table_for(&set, n, window, 2);
        let encoder = WindowEncoder::new(&set, &table).expect("one geometry");

        // drop cubes that cannot be encoded alone (either both paths
        // fail identically, or we compare full encodings)
        match encoder.encode_reference(fill_seed) {
            Err(err) => {
                prop_assert_eq!(encoder.encode(fill_seed).unwrap_err(), err);
            }
            Ok(reference) => {
                let cached = encoder
                    .encode(fill_seed)
                    .expect("reference encoded, cached must too");
                prop_assert_eq!(&cached, &reference, "window={} n={}", window, n);
            }
        }
    }
}

/// Every registry workload encodes bit-identically to the reference at
/// the golden knobs (profiles are scaled down to keep the reference
/// affordable; the `encode_scaling` bench covers the full bench scale).
#[test]
fn registry_workloads_encode_bit_identically() {
    for workload in WorkloadRegistry::all() {
        let set = if workload.profile().is_some() {
            workload.test_set_scaled(0.05)
        } else {
            workload.test_set()
        };
        let mut builder = Engine::builder().window(24).segment(4).speedup(6);
        if let Some(profile) = workload.profile() {
            builder = builder.lfsr_size(profile.lfsr_size);
        }
        let engine = builder.build().expect("golden knobs are valid");
        let ctx = engine.synthesize(&set).expect("synthesis succeeds");
        let (set, _) = ctx.encodable_subset(&set);
        let encoder = WindowEncoder::new(&set, ctx.table()).expect("one geometry");
        let reference = encoder
            .encode_reference(engine.config().fill_seed)
            .expect("registry workloads encode");
        assert_eq!(
            encoder
                .encode(engine.config().fill_seed)
                .expect("registry workloads encode"),
            reference,
            "{}: diverged from the reference",
            workload.name
        );
    }
}

/// The golden corpus file is untouched by the encoder overhaul: the
/// engine's seed counts and TSL numbers at the golden knobs still
/// match the checked-in values (the full pinning lives in
/// `tests/golden_corpus.rs`; this is the encoder-level cross-check
/// that seeds drive those numbers).
#[test]
fn golden_corpus_numbers_flow_from_reference_identical_seeds() {
    let workload = WorkloadRegistry::find("mini-13").expect("registry entry");
    let set = workload.test_set();
    let engine = Engine::builder()
        .window(24)
        .segment(4)
        .speedup(6)
        .build()
        .expect("golden knobs are valid");
    let ctx = engine.synthesize(&set).expect("synthesis succeeds");
    let (set, _) = ctx.encodable_subset(&set);
    let encoder = WindowEncoder::new(&set, ctx.table()).expect("one geometry");
    let reference = encoder
        .encode_reference(engine.config().fill_seed)
        .expect("encodes");
    let report = engine.run(&set).expect("engine runs");
    assert_eq!(report.seeds, reference.seeds.len());
    assert_eq!(report.tdv, reference.tdv());
    assert_eq!(report.tsl_original, reference.tsl_original() as u64);
}
