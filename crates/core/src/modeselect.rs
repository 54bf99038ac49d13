//! The Mode Select unit (Section 3.3).
//!
//! A combinational function of the decoded Group, Seed and Segment
//! counter outputs that raises `Mode = 1` (Normal) exactly for the
//! useful segments. Two structural facts keep it small:
//!
//! * the first segment of every seed is always useful, so segment 0
//!   needs no decoding at all;
//! * grouping seeds by useful-segment count means the *count* logic
//!   lives in the Useful Segment Counter, and Mode Select only stores
//!   which segments are useful.

use std::collections::HashSet;

use ss_lfsr::GateCount;

use crate::segments::SegmentPlan;

/// Model of the Mode Select combinational unit: the set of
/// `(group, seed-in-group, segment)` triples (segment > 0) that must
/// decode to Normal mode.
///
/// # Example
///
/// Built from a plan by [`ModeSelect::from_plan`]; queried by the
/// [`Decompressor`](crate::Decompressor).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModeSelect {
    /// Product terms: (group, seed-in-group, segment), segment >= 1.
    terms: HashSet<(usize, usize, usize)>,
}

impl ModeSelect {
    /// Derives the unit from a segment plan.
    pub fn from_plan(plan: &SegmentPlan) -> Self {
        let mut terms = HashSet::new();
        for (g, (_, seeds)) in plan.groups().iter().enumerate() {
            for (s, &seed) in seeds.iter().enumerate() {
                for &seg in plan.useful_segments(seed) {
                    if seg > 0 {
                        terms.insert((g, s, seg));
                    }
                }
            }
        }
        ModeSelect { terms }
    }

    /// The Mode signal for the given counter state: `true` = Normal
    /// (useful segment), `false` = State Skip.
    pub fn mode(&self, group: usize, seed_in_group: usize, segment: usize) -> bool {
        segment == 0 || self.terms.contains(&(group, seed_in_group, segment))
    }

    /// Number of product terms (useful segments beyond each seed's
    /// first).
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// Gate inventory: with decoded counter outputs each term is an
    /// AND of three lines (two 2-input ANDs) and the terms feed an OR
    /// tree (`terms - 1` 2-input ORs, costed as AND-class gates).
    pub fn gate_count(&self) -> GateCount {
        let t = self.terms.len();
        GateCount {
            and2: 2 * t + t.saturating_sub(1),
            ..GateCount::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embedding::EmbeddingMap;
    use ss_gf2::BitVec;
    use ss_testdata::{ScanConfig, TestCube, TestSet};

    fn plan_with_two_seeds() -> SegmentPlan {
        SegmentPlan::build(&two_seed_map(), 2)
    }

    /// Two seeds with windows of length 4.
    fn two_seed_map() -> EmbeddingMap {
        let mut set = TestSet::new(ScanConfig::new(1, 2).unwrap());
        set.push("11".parse::<TestCube>().unwrap()).unwrap();
        set.push("00".parse::<TestCube>().unwrap()).unwrap();
        set.push("01".parse::<TestCube>().unwrap()).unwrap();
        let z = |bits: [u8; 2]| BitVec::from_bits(bits.iter().map(|&b| b == 1));
        let windows = vec![
            vec![z([1, 1]), z([1, 0]), z([0, 0]), z([1, 0])],
            vec![z([0, 1]), z([1, 0]), z([1, 0]), z([1, 0])],
        ];
        EmbeddingMap::from_windows(&set, &windows)
    }

    #[test]
    fn segment_zero_is_always_normal() {
        let plan = plan_with_two_seeds();
        let ms = ModeSelect::from_plan(&plan);
        for g in 0..4 {
            for s in 0..4 {
                assert!(ms.mode(g, s, 0), "segment 0 must be Normal");
            }
        }
    }

    #[test]
    fn terms_match_plan() {
        let plan = plan_with_two_seeds();
        let ms = ModeSelect::from_plan(&plan);
        // walk the plan's groups and check consistency
        for (g, (_, seeds)) in plan.groups().iter().enumerate() {
            for (s, &seed) in seeds.iter().enumerate() {
                for seg in 0..plan.segments_per_window() {
                    let useful = plan.useful_segments(seed).contains(&seg);
                    if seg == 0 {
                        assert!(ms.mode(g, s, seg));
                    } else {
                        assert_eq!(ms.mode(g, s, seg), useful, "g{g} s{s} seg{seg}");
                    }
                }
            }
        }
        // term count = useful segments beyond segment 0
        let expected: usize = (0..plan.seed_count())
            .map(|i| plan.useful_segments(i).iter().filter(|&&s| s > 0).count())
            .sum();
        assert_eq!(ms.term_count(), expected);
    }

    #[test]
    fn one_segment_per_window_needs_no_mode_select() {
        // S = L leaves only segment 0, which is never a term: the
        // 0 GE row of Section 4's grid at L = 50, S = 50
        let halves = ModeSelect::from_plan(&plan_with_two_seeds());
        assert!(halves.term_count() > 0, "S = 2 keeps a later segment");
        let whole = SegmentPlan::build(&two_seed_map(), 4);
        let ms = ModeSelect::from_plan(&whole);
        assert_eq!(whole.segments_per_window(), 1);
        assert_eq!(ms.term_count(), 0);
        assert_eq!(ms.gate_count(), GateCount::default());
        assert_eq!(ss_lfsr::CostModel::default().ge(&ms.gate_count()), 0.0);
    }

    #[test]
    fn gate_count_scales_with_terms() {
        let plan = plan_with_two_seeds();
        let ms = ModeSelect::from_plan(&plan);
        let gc = ms.gate_count();
        let t = ms.term_count();
        assert_eq!(gc.and2, 2 * t + t.saturating_sub(1));
        assert_eq!(gc.dff, 0, "mode select is combinational");
    }
}
