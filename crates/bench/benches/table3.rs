//! Table 3 — Comparison against test set embedding methods ([11] and
//! [22]) at L = 300.
//!
//! `[11]` (window-based embedding with truncation, no State Skip) is
//! reimplemented and measured; `[22]` is a closed reconfigurable-
//! network scheme, so its column prints the paper-reported constants.
//! Our proposed column is measured.
//!
//! ```text
//! cargo bench -p ss-bench --bench table3
//! SS_SCALE=1 cargo bench -p ss-bench --bench table3   # full size
//! ```

use ss_bench::{banner, best_reduction, run_profile, scaled_circuits, timed, workload};
use ss_core::{baseline11_tsl, improvement_percent, lit_table3, Table};

fn main() {
    banner("Table 3: vs test set embedding methods (L=300)");
    let mut table = Table::new([
        "circuit",
        "TDV [11] meas",
        "TDV [22] paper",
        "TDV prop meas",
        "TSL [11] meas",
        "TSL [22] paper",
        "TSL prop meas",
        "impr vs [11]",
        "impr vs [22] (paper)",
    ]);
    let mut total_secs = 0.0;
    for (profile, lit) in scaled_circuits().iter().zip(lit_table3()) {
        assert_eq!(profile.name, lit.circuit);
        let set = workload(profile);
        let r = set.config().depth();
        let (row, secs) = timed(|| {
            let report = run_profile(profile, &set, 300, 5, 10);
            // [11]: same seeds, truncation after the last needed vector
            let tsl_11 = baseline11_tsl(&report.embedding);
            let best = best_reduction(&report, r, &[2, 5, 10], &(5..=24).collect::<Vec<_>>());
            (report.tdv, tsl_11, best.prop)
        });
        total_secs += secs;
        let (tdv, tsl_11, tsl_prop) = row;
        table.add_row([
            profile.name.to_string(),
            tdv.to_string(), // [11] stores the same seeds as the proposed method
            lit.tdv_22.to_string(),
            tdv.to_string(),
            tsl_11.to_string(),
            lit.tsl_22.to_string(),
            tsl_prop.to_string(),
            format!("{:.1}%", improvement_percent(tsl_11, tsl_prop)),
            format!(
                "{:.1}% (paper {:.1}%)",
                improvement_percent(lit.tsl_22, tsl_prop),
                lit.impr_22
            ),
        ]);
    }
    println!("{table}");
    println!("paper values for reference: [11] TDV/TSL and prop TDV/TSL per circuit:");
    for lit in lit_table3() {
        println!(
            "  {}: [11] {} bits / {} vectors; prop {} bits / {} vectors (impr {:.1}%)",
            lit.circuit, lit.tdv_11, lit.tsl_11, lit.tdv_prop, lit.tsl_prop, lit.impr_11
        );
    }
    println!("total time: {total_secs:.1}s");
    println!("expected shape: proposed TSL is a small fraction of [11]'s and tiny next to [22]'s;");
    println!("[22] wins TDV by an order of magnitude but with ~100x longer sequences.");
}
