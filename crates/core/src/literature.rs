//! Literature comparison data: the numbers the paper itself reports.
//!
//! Tables 3 and 4 of the paper compare against published methods whose
//! implementations are closed ([1], [17], [18], [21], [22], [23],
//! [29], [30], [34] and the embedding scheme [11]). In the original
//! paper those columns are *data copied from the cited papers*; this
//! module embeds the same data so the bench harness can print the
//! complete tables next to our reproduced columns. Everything here is
//! clearly labelled "paper-reported"; our own columns are always
//! measured.

/// One method's reported numbers for one circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LitMethod {
    /// Citation label as used by the paper (e.g. `"[17]"`).
    pub label: &'static str,
    /// Reported test sequence length, if the cited paper gave one.
    pub tsl: Option<u64>,
    /// Reported test data volume (bits), if given.
    pub tdv: Option<u64>,
}

/// A row of the paper's Table 4 (test data compression methods).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LitTable4Row {
    /// Circuit name.
    pub circuit: &'static str,
    /// Reported (TSL, TDV) per method, including the paper's own
    /// Classical-reseeding and Proposed (L=200) columns.
    pub methods: Vec<LitMethod>,
}

/// The paper's Table 4: TSL and TDV of LFSR-reseeding-based methods
/// for IP cores with multiple scan chains.
pub fn lit_table4() -> Vec<LitTable4Row> {
    fn m(label: &'static str, tsl: Option<u64>, tdv: Option<u64>) -> LitMethod {
        LitMethod { label, tsl, tdv }
    }
    vec![
        LitTable4Row {
            circuit: "s9234",
            methods: vec![
                m("[1]", Some(170), Some(15092)),
                m("[17]", Some(205), Some(12445)),
                m("[21]", Some(205), Some(10302)),
                m("[34]", Some(205), None),
                m("[23]", Some(159), Some(30144)),
                m("[29]", Some(159), None),
                m("[18]", None, None),
                m("[30]", Some(161), Some(17198)),
                m("classical L=1 (paper)", Some(243), Some(10692)),
                m("proposed L=200 (paper)", Some(1784), Some(7128)),
            ],
        },
        LitTable4Row {
            circuit: "s13207",
            methods: vec![
                m("[1]", Some(229), Some(12798)),
                m("[17]", Some(266), Some(11859)),
                m("[21]", Some(266), Some(10484)),
                m("[34]", Some(266), Some(10810)),
                m("[23]", Some(236), Some(20988)),
                m("[29]", Some(236), Some(74423)),
                m("[18]", Some(266), Some(14307)),
                m("[30]", Some(242), Some(26004)),
                m("classical L=1 (paper)", Some(369), Some(8856)),
                m("proposed L=200 (paper)", Some(1756), Some(3816)),
            ],
        },
        LitTable4Row {
            circuit: "s15850",
            methods: vec![
                m("[1]", Some(244), Some(15480)),
                m("[17]", Some(269), Some(12663)),
                m("[21]", Some(269), Some(11411)),
                m("[34]", Some(269), Some(12405)),
                m("[23]", Some(126), Some(25140)),
                m("[29]", Some(126), Some(26021)),
                m("[18]", Some(226), Some(15067)),
                m("[30]", Some(306), Some(32226)),
                m("classical L=1 (paper)", Some(298), Some(11622)),
                m("proposed L=200 (paper)", Some(1740), Some(6669)),
            ],
        },
        LitTable4Row {
            circuit: "s38417",
            methods: vec![
                m("[1]", Some(376), Some(37020)),
                m("[17]", Some(376), Some(36430)),
                m("[21]", Some(376), Some(32152)),
                m("[34]", Some(376), Some(32154)),
                m("[23]", Some(99), Some(85225)),
                m("[29]", Some(99), Some(45003)),
                m("[18]", Some(376), Some(49001)),
                m("[30]", Some(854), Some(89132)),
                m("classical L=1 (paper)", Some(685), Some(58225)),
                m("proposed L=200 (paper)", Some(13113), Some(48110)),
            ],
        },
        LitTable4Row {
            circuit: "s38584",
            methods: vec![
                m("[1]", Some(296), Some(31574)),
                m("[17]", Some(296), Some(30355)),
                m("[21]", Some(296), Some(31152)),
                m("[34]", Some(296), Some(31000)),
                m("[23]", Some(136), Some(57120)),
                m("[29]", Some(136), Some(73464)),
                m("[18]", Some(296), Some(28994)),
                m("[30]", Some(599), Some(63232)),
                m("classical L=1 (paper)", Some(405), Some(22680)),
                m("proposed L=200 (paper)", Some(6639), Some(7056)),
            ],
        },
    ]
}

/// A row of the paper's Table 3 (test set embedding methods, L=300).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LitEmbeddingRow {
    /// Circuit name.
    pub circuit: &'static str,
    /// TDV of \[11\] (Kaseridis et al.).
    pub tdv_11: u64,
    /// TDV of \[22\] (Li & Chakrabarty reconfigurable network).
    pub tdv_22: u64,
    /// TDV of the proposed method (paper-reported).
    pub tdv_prop: u64,
    /// TSL of \[11\].
    pub tsl_11: u64,
    /// TSL of \[22\].
    pub tsl_22: u64,
    /// TSL of the proposed method (paper-reported).
    pub tsl_prop: u64,
    /// Paper-reported TSL improvement vs \[11\], percent.
    pub impr_11: f64,
    /// Paper-reported TSL improvement vs \[22\], percent.
    pub impr_22: f64,
}

/// The paper's Table 3.
pub fn lit_table3() -> Vec<LitEmbeddingRow> {
    vec![
        LitEmbeddingRow {
            circuit: "s9234",
            tdv_11: 7020,
            tdv_22: 648,
            tdv_prop: 6864,
            tsl_11: 24592,
            tsl_22: 135765,
            tsl_prop: 2163,
            impr_11: 91.2,
            impr_22: 98.4,
        },
        LitEmbeddingRow {
            circuit: "s13207",
            tdv_11: 3475,
            tdv_22: 162,
            tdv_prop: 3336,
            tsl_11: 24724,
            tsl_22: 152596,
            tsl_prop: 2072,
            impr_11: 91.6,
            impr_22: 98.6,
        },
        LitEmbeddingRow {
            circuit: "s15850",
            tdv_11: 6520,
            tdv_22: 396,
            tdv_prop: 6357,
            tsl_11: 27630,
            tsl_22: 222336,
            tsl_prop: 2138,
            impr_11: 92.3,
            impr_22: 99.0,
        },
        LitEmbeddingRow {
            circuit: "s38417",
            tdv_11: 48418,
            tdv_22: 5440,
            tdv_prop: 47855,
            tsl_11: 85885,
            tsl_22: 625273,
            tsl_prop: 18512,
            impr_11: 78.4,
            impr_22: 97.0,
        },
        LitEmbeddingRow {
            circuit: "s38584",
            tdv_11: 6384,
            tdv_22: 228,
            tdv_prop: 6272,
            tsl_11: 29358,
            tsl_22: 383009,
            tsl_prop: 7489,
            impr_11: 74.5,
            impr_22: 98.0,
        },
    ]
}

/// One circuit row of the paper's Table 1: `(circuit, lfsr_size,
/// [(L, tdv, tsl); 4])` where the four entries are L = 1, 50, 200, 500.
pub type Table1Row = (&'static str, usize, [(usize, u64, u64); 4]);

/// One circuit row of the paper's Table 2:
/// `(circuit, [(L, orig_tsl, prop_tsl, impr%); 3])` for L = 50, 200,
/// 500 (best S in {2,5,10}, 5 <= k <= 24).
pub type Table2Row = (&'static str, [(usize, u64, u64, u64); 3]);

/// The paper's Table 1 (classical vs window-based reseeding).
pub const PAPER_TABLE1: &[Table1Row] = &[
    (
        "s9234",
        44,
        [
            (1, 10692, 243),
            (50, 8008, 9100),
            (200, 7128, 32400),
            (500, 6688, 76000),
        ],
    ),
    (
        "s13207",
        24,
        [
            (1, 8856, 369),
            (50, 5328, 11100),
            (200, 3816, 31800),
            (500, 2688, 56000),
        ],
    ),
    (
        "s15850",
        39,
        [
            (1, 11622, 298),
            (50, 7410, 9500),
            (200, 6669, 34200),
            (500, 6201, 79500),
        ],
    ),
    (
        "s38417",
        85,
        [
            (1, 58225, 685),
            (50, 50660, 29800),
            (200, 48110, 113200),
            (500, 47005, 276500),
        ],
    ),
    (
        "s38584",
        56,
        [
            (1, 22680, 405),
            (50, 10584, 9450),
            (200, 7056, 25200),
            (500, 5152, 46000),
        ],
    ),
];

/// The paper's Table 2 (original vs proposed TSL).
pub const PAPER_TABLE2: &[Table2Row] = &[
    (
        "s9234",
        [
            (50, 9100, 1082, 88),
            (200, 32400, 1784, 94),
            (500, 76000, 3055, 96),
        ],
    ),
    (
        "s13207",
        [
            (50, 11100, 1309, 88),
            (200, 31800, 1756, 94),
            (500, 56000, 2701, 95),
        ],
    ),
    (
        "s15850",
        [
            (50, 9500, 1129, 88),
            (200, 34200, 1740, 95),
            (500, 79500, 2791, 96),
        ],
    ),
    (
        "s38417",
        [
            (50, 29800, 7626, 74),
            (200, 113200, 13113, 88),
            (500, 276500, 21865, 92),
        ],
    ),
    (
        "s38584",
        [
            (50, 9450, 3805, 60),
            (200, 25200, 6639, 74),
            (500, 46000, 9054, 80),
        ],
    ),
];

/// The paper's Fig. 4 bars (s13207, L = 300, S in {4, 10, 12, 20}):
/// `(k, lowest %, highest %)`, the spread of TSL improvement over the
/// four segment sizes at the smallest and the largest speedup plotted.
/// Smaller segments sit at the top of each spread. The paper gives
/// the L curves (S = 5) only as trends: improvement rises with L, and
/// every curve rises with k.
pub const PAPER_FIG4_BARS: [(u64, u64, u64); 2] = [(3, 69, 78), (24, 80, 93)];

/// The paper's Section 4 hardware numbers, in gate equivalents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperSection4 {
    /// State Skip circuit for s13207's 24-bit LFSR, `(k, GE)`.
    pub skip_ge: [(u64, u64); 2],
    /// The rest of the decompressor for s13207, shared between cores.
    pub shared_ge: u64,
    /// Mode Select `(min, max)` over 50 <= L <= 500 and 2 <= S <= 50
    /// for s13207.
    pub mode_select_ge: (u64, u64),
    /// Per-core Mode Select `(min, max)` in the five-core SoC study
    /// (L = 200, S = 10, k = 10).
    pub soc_mode_select_ge: (u64, u64),
    /// The decompressor's share of the SoC's area, percent.
    pub soc_area_percent: f64,
}

/// The paper's Section 4: 52 GE of State Skip circuit at k = 12
/// rising to 119 GE at k = 32, ~320 GE for the shared rest, Mode
/// Select 44–262 GE, and 107–373 GE per core in the SoC study.
pub const PAPER_SECTION4: PaperSection4 = PaperSection4 {
    skip_ge: [(12, 52), (32, 119)],
    shared_ge: 320,
    mode_select_ge: (44, 262),
    soc_mode_select_ge: (107, 373),
    soc_area_percent: 6.6,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_has_all_circuits_and_methods() {
        let t = lit_table4();
        assert_eq!(t.len(), 5);
        for row in &t {
            assert_eq!(row.methods.len(), 10, "{}", row.circuit);
            // the paper's own proposed column always has both numbers
            let prop = row.methods.last().unwrap();
            assert!(prop.tsl.is_some() && prop.tdv.is_some());
        }
    }

    #[test]
    fn table3_improvements_match_relation2() {
        // the printed improvements must be consistent with the TSLs
        for row in lit_table3() {
            let impr11 = (1.0 - row.tsl_prop as f64 / row.tsl_11 as f64) * 100.0;
            let impr22 = (1.0 - row.tsl_prop as f64 / row.tsl_22 as f64) * 100.0;
            assert!(
                (impr11 - row.impr_11).abs() < 0.3,
                "{}: {impr11} vs {}",
                row.circuit,
                row.impr_11
            );
            assert!(
                (impr22 - row.impr_22).abs() < 0.3,
                "{}: {impr22} vs {}",
                row.circuit,
                row.impr_22
            );
        }
    }

    #[test]
    fn table1_tsl_equals_seeds_times_window() {
        for &(circuit, n, entries) in PAPER_TABLE1 {
            for &(l, tdv, tsl) in &entries {
                // TDV = seeds * n  and  TSL = seeds * L must be consistent
                let seeds = tdv / n as u64;
                assert_eq!(seeds * l as u64, tsl, "{circuit} L={l}");
                assert_eq!(tdv % n as u64, 0, "{circuit} L={l}: TDV divisible by n");
            }
        }
    }

    #[test]
    fn table2_improvements_match_relation2() {
        for &(circuit, entries) in PAPER_TABLE2 {
            for &(l, orig, prop, impr) in &entries {
                let computed = ((1.0 - prop as f64 / orig as f64) * 100.0).round() as u64;
                assert_eq!(computed, impr, "{circuit} L={l}");
            }
        }
    }

    #[test]
    fn table1_and_table2_orig_columns_agree() {
        // Table 2's "Orig." TSLs are Table 1's window-based TSLs
        for (&(c1, _, t1), &(c2, t2)) in PAPER_TABLE1.iter().zip(PAPER_TABLE2) {
            assert_eq!(c1, c2);
            assert_eq!(t1[1].2, t2[0].1, "{c1} L=50");
            assert_eq!(t1[2].2, t2[1].1, "{c1} L=200");
            assert_eq!(t1[3].2, t2[2].1, "{c1} L=500");
        }
    }
}
