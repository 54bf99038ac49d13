//! Full ATPG-to-compression flow on a generated circuit.
//!
//! ```text
//! cargo run --release --example atpg_flow
//! ```
//!
//! Mirrors the paper's experimental setup end to end, with two
//! substitutions because neither ships with this workspace: a
//! synthetic full-scan core stands in for an ISCAS'89 netlist and our
//! PODEM stands in for Atalanta. The uncompacted test cubes it emits are then compressed
//! with the State Skip pipeline.

use ss_circuit::{generate_uncompacted_test_set, random_circuit, AtpgConfig, CircuitSpec};
use ss_core::{Encoded, Engine};
use ss_testdata::{ScanConfig, TestSet};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. the "IP core": a 64-input full-scan combinational core
    let spec = CircuitSpec::mini();
    let circuit = random_circuit(&spec, 7);
    println!(
        "circuit `{}`: {} inputs, {} gates, {} outputs",
        spec.name,
        circuit.input_count(),
        circuit.gate_count(),
        circuit.outputs().len()
    );

    // 2. Atalanta-style uncompacted ATPG
    let outcome = generate_uncompacted_test_set(&circuit, &AtpgConfig::default(), 7);
    println!(
        "ATPG: {} cubes, {:.1}% non-redundant coverage ({} redundant, {} aborted of {})",
        outcome.cubes.len(),
        outcome.coverage() * 100.0,
        outcome.redundant,
        outcome.aborted,
        outcome.total
    );

    // 3. map the cubes onto 8 scan chains
    let scan = ScanConfig::for_cells(8, circuit.input_count())?;
    let mut set = TestSet::new(scan);
    for cube in &outcome.cubes {
        let mut padded = ss_testdata::TestCube::all_x(scan.cells());
        for (i, bit) in cube.iter_specified() {
            padded.set(i, bit);
        }
        set.push(padded)?;
    }
    let dropped = set.drop_covered();
    let stats = set.stats();
    println!(
        "test set: {} cubes ({dropped} covered dropped), smax = {}, mean specified = {:.1}",
        set.len(),
        stats.smax,
        stats.mean_specified
    );

    // 4. compress with State Skip LFSRs. The hardware is synthesised
    //    once and pinned: dropping unencodable cubes must not change
    //    the LFSR size mid-flow, so the filtered set re-enters the
    //    staged flow against the *same* context.
    let engine = Engine::builder()
        .window(60)
        .segment(6)
        .speedup(12)
        .build()?;
    let ctx = engine.synthesize(&set)?;
    let (encodable, unencodable) = ctx.encodable_subset(&set);
    if !unencodable.is_empty() {
        println!(
            "  ({} intrinsically unencodable cube(s) dropped)",
            unencodable.len()
        );
    }
    let report = Encoded::from_ctx(&encodable, ctx)?
        .embed()
        .segment()
        .finish()?;
    println!("{}", report.summary());
    println!(
        "  vs plain window-based embedding: {:.1}% shorter test sequence at identical TDV",
        report.improvement_percent
    );
    Ok(())
}
