//! The staged `Engine` / `CompressionScheme` API surface: the owned
//! and borrowed-context flows agree bit for bit, trait-object
//! dispatch, batch drivers and the unified error chain.

use std::error::Error;

use proptest::prelude::*;

use ss_core::{
    comparison_table, Baseline11, ClassicalReseeding, CompressionScheme, Encoded, Engine,
    SchemeError, SchemeReport, SocPlan, StateSkip,
};
use ss_testdata::{generate_test_set, CubeProfile, TestSet};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `Engine::run` (which owns its synthesised context) equals the
    /// borrowed-context flow the schemes, the server and the benchmark
    /// use — bit-identical seeds and identical TSL accounting — across
    /// window/segment/speedup/fill choices on `CubeProfile::mini()`.
    #[test]
    fn engine_run_matches_the_borrowed_context_flow_bit_for_bit(
        set_seed in 1u64..6,
        window in 8usize..40,
        segment_raw in 1usize..8,
        speedup in 1u64..24,
        fill_seed in 1u64..100,
    ) {
        let segment = segment_raw.min(window);
        let set = generate_test_set(&CubeProfile::mini(), set_seed);
        let engine = Engine::builder()
            .window(window)
            .segment(segment)
            .speedup(speedup)
            .fill_seed(fill_seed)
            .build()
            .unwrap();
        let owned = engine.run(&set).unwrap();
        let ctx = engine.synthesize(&set).unwrap();
        let borrowed = Encoded::from_ctx_ref(&set, &ctx)
            .unwrap()
            .embed()
            .segment()
            .finish()
            .unwrap();

        // bit-identical seeds (the strongest statement: both flows
        // computed the very same encoding)
        prop_assert_eq!(&owned.encoding, &borrowed.encoding);
        for (a, b) in owned.encoding.seeds.iter().zip(&borrowed.encoding.seeds) {
            prop_assert_eq!(&a.seed, &b.seed);
        }
        // identical TSL accounting and cost model inputs
        prop_assert_eq!(owned.tsl_original, borrowed.tsl_original);
        prop_assert_eq!(owned.tsl_truncated, borrowed.tsl_truncated);
        prop_assert_eq!(owned.tsl_proposed, borrowed.tsl_proposed);
        prop_assert_eq!(owned.tdv, borrowed.tdv);
        prop_assert_eq!(owned.seeds, borrowed.seeds);
        prop_assert_eq!(&owned.plan, &borrowed.plan);
        prop_assert_eq!(&owned.tsl_report, &borrowed.tsl_report);
    }
}

fn mini_engine() -> (TestSet, Engine) {
    let set = generate_test_set(&CubeProfile::mini(), 1);
    let engine = Engine::builder()
        .window(30)
        .segment(5)
        .speedup(6)
        .build()
        .unwrap();
    (set, engine)
}

#[test]
fn all_schemes_dispatch_through_trait_objects() {
    let (set, engine) = mini_engine();
    let schemes: Vec<Box<dyn CompressionScheme>> = vec![
        Box::new(StateSkip),
        Box::new(ClassicalReseeding),
        Box::new(Baseline11),
    ];
    let reports: Vec<SchemeReport> = engine.run_all(&schemes, &set).unwrap();
    assert_eq!(reports.len(), 3);
    assert_eq!(reports[0].scheme, "state-skip");
    assert_eq!(reports[1].scheme, "classical-reseeding");
    assert_eq!(reports[2].scheme, "baseline-11");
    for report in &reports {
        assert!(report.seeds > 0);
        assert_eq!(report.tdv, report.seeds * report.lfsr_size);
        assert!(report.tsl <= report.tsl_original);
    }
    // the family ordering the paper's tables show: classical reseeding
    // has the shortest sequence but the largest storage; state skip
    // shortens the windowed sequence below truncation-only embedding
    assert!(reports[0].tsl <= reports[2].tsl);
    assert!(reports[1].tdv >= reports[0].tdv);

    let table = comparison_table(&reports);
    assert_eq!(table.row_count(), 3);
    let text = table.to_string();
    for report in &reports {
        assert!(text.contains(&report.scheme), "{text}");
    }
}

#[test]
fn run_all_agrees_with_individual_scheme_runs() {
    let (set, engine) = mini_engine();
    let schemes: Vec<Box<dyn CompressionScheme>> = vec![
        Box::new(StateSkip),
        Box::new(ClassicalReseeding),
        Box::new(Baseline11),
    ];
    let batch = engine.run_all(&schemes, &set).unwrap();
    for (scheme, from_batch) in schemes.iter().zip(&batch) {
        let solo = engine.run_scheme(scheme.as_ref(), &set).unwrap();
        assert_eq!(&solo, from_batch, "parallel batch must equal solo runs");
    }
}

#[test]
fn state_skip_scheme_report_matches_the_full_engine_report() {
    let (set, engine) = mini_engine();
    let scheme_report = engine.run_scheme(&StateSkip, &set).unwrap();
    let full = engine.run(&set).unwrap();
    assert_eq!(scheme_report.seeds, full.seeds);
    assert_eq!(scheme_report.tdv, full.tdv);
    assert_eq!(scheme_report.tsl_original, full.tsl_original);
    assert_eq!(scheme_report.tsl, full.tsl_proposed);
    assert!((scheme_report.improvement_percent() - full.improvement_percent).abs() < 1e-9);
}

#[test]
fn baseline11_scheme_agrees_with_the_legacy_function() {
    let (set, engine) = mini_engine();
    let report = engine.run_scheme(&Baseline11, &set).unwrap();
    let full = engine.run(&set).unwrap();
    assert_eq!(report.tsl, ss_core::baseline11_tsl(&full.embedding));
}

#[test]
fn soc_run_batch_parallels_the_section4_study() {
    let (_, engine) = mini_engine();
    let cores: Vec<(String, TestSet)> = [1u64, 2, 3]
        .iter()
        .map(|&s| {
            (
                format!("core-{s}"),
                generate_test_set(&CubeProfile::mini(), s),
            )
        })
        .collect();
    let plan = SocPlan::run_batch(&engine, &cores).unwrap();
    assert_eq!(plan.cores().len(), 3);
    assert!(plan.total_ge() < plan.unshared_ge(), "sharing must win");
    let solo = engine.run(&cores[0].1).unwrap();
    assert_eq!(plan.cores()[0].tsl, solo.tsl_proposed);
}

#[test]
fn scheme_errors_chain_their_sources() {
    let (set, _) = mini_engine();
    // an LFSR pinned far below smax cannot encode: the error must be
    // a SchemeError whose chain bottoms out in the layer that failed
    let tiny = Engine::builder()
        .window(10)
        .segment(2)
        .lfsr_size(set.smax().saturating_sub(2).max(3))
        .build()
        .unwrap();
    let err = tiny.run(&set).unwrap_err();
    match &err {
        SchemeError::BadConfig(msg) => assert!(msg.contains("smax"), "{msg}"),
        other => {
            // encodable geometry but unencodable cubes: must chain
            assert!(other.source().is_some(), "{other} must expose a source");
        }
    }
    // builder validation also reports through the same type
    let invalid = Engine::builder().window(0).build().unwrap_err();
    assert!(invalid.to_string().contains("window"));
}

#[test]
fn engine_is_reusable_across_test_sets() {
    let (_, engine) = mini_engine();
    let a = generate_test_set(&CubeProfile::mini(), 1);
    let b = generate_test_set(&CubeProfile::mini(), 2);
    let report_a1 = engine.run(&a).unwrap();
    let _report_b = engine.run(&b).unwrap();
    let report_a2 = engine.run(&a).unwrap();
    assert_eq!(
        report_a1.tsl_proposed, report_a2.tsl_proposed,
        "no hidden state"
    );
}
