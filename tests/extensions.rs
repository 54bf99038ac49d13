//! Integration tests for the extension surface: scan power, SoC
//! sharing, RTL emission and response compaction working together with
//! the staged engine.

use ss_core::{
    emit_decompressor_rtl, estimated_core_area_ge, Decompressor, DecompressorTrace, Encoded,
    Engine, HardwareCtx, PipelineReport, SocPlan,
};
use ss_gf2::BitVec;
use ss_lfsr::{Misr, SkipCircuit};
use ss_testdata::{generate_test_set, max_wtm, sequence_power, CubeProfile, TestSet};

/// The mini workload at `L = 30, S = 5, k = 6`: its hardware, and the
/// full report run on that one context.
fn run_mini(seed: u64) -> (TestSet, HardwareCtx, PipelineReport) {
    let set = generate_test_set(&CubeProfile::mini(), seed);
    let engine = Engine::builder().window(30).segment(5).speedup(6);
    let ctx = engine.build().unwrap().synthesize(&set).unwrap();
    let report = Encoded::from_ctx_ref(&set, &ctx)
        .unwrap()
        .embed()
        .segment()
        .finish()
        .unwrap();
    (set, ctx, report)
}

fn replay(ctx: &HardwareCtx, report: &PipelineReport) -> DecompressorTrace {
    let mut dec = Decompressor::new(
        ctx.lfsr().clone(),
        report.speedup,
        ctx.shifter().clone(),
        ctx.scan(),
        report.mode_select.clone(),
    );
    dec.run(&report.encoding, &report.plan)
}

#[test]
fn applied_sequence_power_is_within_bounds() {
    let (set, ctx, report) = run_mini(3);
    let trace = replay(&ctx, &report);
    let power = sequence_power(&trace.vectors, set.config());
    assert_eq!(power.vectors as u64, trace.tsl());
    assert!(power.peak_wtm <= max_wtm(set.config()));
    assert!(
        power.total_wtm > 0,
        "pseudorandom vectors cause transitions"
    );
    // shortening the sequence also cuts total shift energy vs the
    // full-window original
    let full_power_per_vector = max_wtm(set.config()) as f64 / 2.0;
    let orig_estimate = report.tsl_original as f64 * full_power_per_vector;
    assert!(
        (power.total_wtm as f64) < orig_estimate,
        "shortened sequence must not exceed the original's energy estimate"
    );
}

#[test]
fn soc_plan_from_two_different_cores() {
    let (_, _, report_a) = run_mini(3);
    let (_, _, report_b) = run_mini(4);
    let mut plan = SocPlan::new();
    plan.add_core("core-a", &report_a);
    plan.add_core("core-b", &report_b);
    assert_eq!(plan.cores().len(), 2);
    assert_eq!(plan.total_tdv(), report_a.tdv + report_b.tdv);
    assert_eq!(
        plan.total_tsl(),
        report_a.tsl_proposed + report_b.tsl_proposed
    );
    assert!(plan.total_ge() < plan.unshared_ge());
    let frac = plan.area_fraction(estimated_core_area_ge(2 * 64));
    assert!(frac > 0.0 && frac < 1.0);
}

#[test]
fn rtl_matches_the_simulated_hardware() {
    // the emitted RTL must reference exactly the synthesised gates
    let (_, ctx, report) = run_mini(5);
    let skip = SkipCircuit::new(ctx.lfsr(), report.speedup).unwrap();
    let rtl = emit_decompressor_rtl(ctx.lfsr(), &skip, ctx.shifter());
    let net = skip.synthesize();
    for g in 0..net.gate_count() {
        assert!(
            rtl.contains(&format!("skip_t{g}")),
            "gate {g} missing from RTL"
        );
    }
    for c in 0..ctx.shifter().output_count() {
        assert!(
            rtl.contains(&format!("scan_in[{c}]")),
            "chain {c} missing from RTL"
        );
    }
    assert_eq!(rtl.matches("endmodule").count(), 1);
}

#[test]
fn misr_signature_distinguishes_fault_injection_end_to_end() {
    // compact the applied vectors as "responses" (identity CUT):
    // corrupting any single applied vector changes the signature
    let (set, ctx, report) = run_mini(6);
    let trace = replay(&ctx, &report);
    let width = 16.min(set.config().cells());
    let slice = |v: &BitVec| BitVec::from_bits((0..width).map(|i| v.get(i)));

    let mut reference = Misr::new(
        ss_lfsr::Lfsr::fibonacci(ss_gf2::primitive_poly(24).unwrap()),
        width,
    )
    .unwrap();
    for v in &trace.vectors {
        reference.compact(&slice(v));
    }

    let mut corrupted = Misr::new(
        ss_lfsr::Lfsr::fibonacci(ss_gf2::primitive_poly(24).unwrap()),
        width,
    )
    .unwrap();
    for (i, v) in trace.vectors.iter().enumerate() {
        let mut r = slice(v);
        if i == trace.vectors.len() / 2 {
            r.toggle(3);
        }
        corrupted.compact(&r);
    }
    assert_ne!(reference.signature(), corrupted.signature());
}

#[test]
fn pipeline_report_is_self_consistent() {
    let (set, _, report) = run_mini(7);
    // plan invariants against the encoding
    assert_eq!(report.plan.seed_count(), report.seeds);
    assert_eq!(report.encoding.seeds.len(), report.seeds);
    let group_total: usize = report.plan.groups().iter().map(|(_, s)| s.len()).sum();
    assert_eq!(group_total, report.seeds, "every seed belongs to one group");
    // group ordering ascends
    let counts: Vec<usize> = report.plan.groups().iter().map(|(c, _)| *c).collect();
    assert!(counts.windows(2).all(|w| w[0] < w[1]));
    // embedding map covers every cube
    assert!(report.embedding.validate());
    assert_eq!(report.embedding.cube_count(), set.len());
    // per-seed TSL sums to the total
    assert_eq!(
        report.tsl_report.per_seed.iter().sum::<u64>(),
        report.tsl_report.vectors
    );
}
