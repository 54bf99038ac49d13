//! Property-based tests for cubes, scan geometry and test sets.

#![cfg(test)]

use proptest::prelude::*;

use ss_gf2::BitVec;

use crate::{weighted_transitions, ParseCubeError, ScanConfig, TestCube, TestSet};

/// A random cube as a `01X` string.
fn cube_string(len: usize) -> impl Strategy<Value = String> {
    proptest::collection::vec(prop_oneof![Just('0'), Just('1'), Just('X')], len)
        .prop_map(|chars| chars.into_iter().collect())
}

/// The per-position cube formatter `to_text` used before it walked
/// words — the oracle the word-wise writer must match byte for byte.
fn per_position_text(set: &TestSet) -> String {
    let mut out = format!(
        "chains {} depth {}\n",
        set.config().chains(),
        set.config().depth()
    );
    for cube in set {
        for i in 0..cube.len() {
            out.push(match cube.get(i) {
                Some(true) => '1',
                Some(false) => '0',
                None => 'X',
            });
        }
        out.push('\n');
    }
    out
}

/// The per-position parser `TestCube::from_str` used before it read
/// words — the oracle the word-wise parser must match, errors included.
fn per_position_parse(s: &str) -> Result<TestCube, ParseCubeError> {
    let mut cube = TestCube::all_x(s.chars().count());
    for (i, c) in s.chars().enumerate() {
        match c {
            '0' => cube.set(i, false),
            '1' => cube.set(i, true),
            'x' | 'X' => {}
            other => {
                return Err(ParseCubeError {
                    position: i,
                    found: other,
                })
            }
        }
    }
    Ok(cube)
}

/// Cube widths either side of each word boundary the writer crosses.
const WORD_EDGE_WIDTHS: [usize; 6] = [1, 63, 64, 65, 128, 129];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The word-wise parser agrees with the per-position one on cube
    /// text of every length either side of the first two word
    /// boundaries: the same cube, or the same error at the same char
    /// index, also past multi-byte chars. Most strings are valid
    /// runs with at most a few bad chars dropped in.
    #[test]
    fn word_wise_parse_matches_the_per_position_parser(
        len in 0usize..=130,
        draws in proptest::collection::vec(0u8..4, 130),
        bad_at in proptest::collection::vec(0usize..130, 0..3),
        bad_char in proptest::collection::vec(0usize..6, 3),
    ) {
        let mut chars: Vec<char> = draws[..len].iter().map(|&d| ['0', '1', 'x', 'X'][usize::from(d)]).collect();
        for (&at, &which) in bad_at.iter().zip(&bad_char) {
            if at < chars.len() {
                chars[at] = ['Z', '2', ' ', '\n', '\u{e9}', '\u{2713}'][which];
            }
        }
        let text: String = chars.into_iter().collect();
        prop_assert_eq!(text.parse::<TestCube>(), per_position_parse(&text), "{:?}", text);
    }

    /// `to_text` (and `Display`, which shares its writer) is
    /// byte-identical to the per-position formatter at every width
    /// around a word boundary, for random X/0/1 mixes — all-X and
    /// fully specified cubes included — and for the empty set; and
    /// the text still parses back to the same set.
    #[test]
    fn word_wise_text_matches_the_per_position_formatter(
        rows in proptest::collection::vec(proptest::collection::vec(0u8..3, 129), 0..6),
        modes in proptest::collection::vec(0u8..4, 6),
    ) {
        for width in WORD_EDGE_WIDTHS {
            let mut set = TestSet::new(ScanConfig::new(1, width).unwrap());
            prop_assert_eq!(set.to_text(), per_position_text(&set), "empty set");
            for (row, mode) in rows.iter().zip(&modes) {
                let text: String = row[..width]
                    .iter()
                    .map(|&draw| match (mode, draw) {
                        (1, _) => 'X',
                        (2, d) => if d == 0 { '0' } else { '1' },
                        (3, 0) => '1',
                        (3, _) => 'X',
                        (_, 0) => '0',
                        (_, 1) => '1',
                        _ => 'X',
                    })
                    .collect();
                let cube: TestCube = text.parse().unwrap();
                prop_assert_eq!(cube.to_string(), text);
                set.push(cube).unwrap();
            }
            let text = set.to_text();
            prop_assert_eq!(&text, &per_position_text(&set));
            prop_assert_eq!(TestSet::from_text(&text).unwrap(), set);
        }
    }

    /// Parse/display round-trip for arbitrary cubes.
    #[test]
    fn cube_text_roundtrip(text in cube_string(40)) {
        let cube: TestCube = text.parse().unwrap();
        prop_assert_eq!(cube.to_string(), text);
    }

    /// A cube always matches its own random fills, and a cube with at
    /// least one specified bit never matches the fill's complement.
    #[test]
    fn fills_match_their_cube(text in cube_string(32), fill_seed in any::<u64>()) {
        let cube: TestCube = text.parse().unwrap();
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(fill_seed);
        let fill = cube.random_fill(&mut rng);
        prop_assert!(cube.matches(&fill));
        if cube.specified_count() > 0 {
            let mut complement = fill.clone();
            complement.xor_with(&BitVec::ones(32));
            prop_assert!(!cube.matches(&complement));
        }
    }

    /// Merge is commutative, and the merged cube's matches are exactly
    /// the intersection of the parents' match sets.
    #[test]
    fn merge_is_match_intersection(
        a_text in cube_string(12),
        b_text in cube_string(12),
        probe_raw in any::<u16>(),
    ) {
        let a: TestCube = a_text.parse().unwrap();
        let b: TestCube = b_text.parse().unwrap();
        prop_assert_eq!(a.merge(&b), b.merge(&a));
        let probe = BitVec::from_u128(12, (probe_raw as u128) & 0xFFF);
        match a.merge(&b) {
            Some(m) => {
                prop_assert_eq!(m.matches(&probe), a.matches(&probe) && b.matches(&probe));
            }
            None => {
                // incompatible: no vector matches both
                prop_assert!(!(a.matches(&probe) && b.matches(&probe)));
            }
        }
    }

    /// Scan geometry mappings are mutually inverse bijections.
    #[test]
    fn scan_mappings_are_bijective(chains in 1usize..10, depth in 1usize..20) {
        let cfg = ScanConfig::new(chains, depth).unwrap();
        let mut seen = vec![false; cfg.cells()];
        for chain in 0..chains {
            for pos in 0..depth {
                let cell = cfg.cell_index(chain, pos);
                prop_assert!(!seen[cell], "duplicate cell {}", cell);
                seen[cell] = true;
                prop_assert_eq!(cfg.chain_of(cell), (chain, pos));
            }
        }
        for cycle in 0..depth {
            prop_assert_eq!(cfg.load_cycle(cfg.position_loaded_at(cycle)), cycle);
        }
    }

    /// Test-set text serialisation round-trips arbitrary sets.
    #[test]
    fn test_set_text_roundtrip(
        cubes in proptest::collection::vec(cube_string(12), 0..12),
    ) {
        let mut set = TestSet::new(ScanConfig::new(3, 4).unwrap());
        for text in &cubes {
            set.push(text.parse().unwrap()).unwrap();
        }
        let parsed = TestSet::from_text(&set.to_text()).unwrap();
        prop_assert_eq!(parsed, set);
    }

    /// Cube-file round-trip over arbitrary scan geometries:
    /// `parse(write(set))` is identity for every geometry and cube mix,
    /// and a second write is byte-stable.
    #[test]
    fn cube_file_roundtrip_any_geometry(
        chains in 1usize..6,
        depth in 1usize..8,
        rows in proptest::collection::vec(any::<u64>(), 0..10),
    ) {
        let cfg = ScanConfig::new(chains, depth).unwrap();
        let mut set = TestSet::new(cfg);
        for &row in &rows {
            // derive a 01X row deterministically from the drawn word
            let text: String = (0..cfg.cells())
                .map(|i| match (row >> (i % 32)) & 0b11 {
                    0 => '0',
                    1 => '1',
                    _ => 'X',
                })
                .collect();
            set.push(text.parse().unwrap()).unwrap();
        }
        let text = set.to_text();
        let parsed = TestSet::from_text(&text).unwrap();
        prop_assert_eq!(&parsed, &set);
        prop_assert_eq!(parsed.to_text(), text);
    }

    /// The cube-file parser never panics on arbitrary byte soup.
    #[test]
    fn cube_file_parser_never_panics(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = TestSet::from_text(&text);
    }

    /// drop_covered never removes coverage: every vector matching some
    /// original cube still matches a surviving cube that implies it...
    /// precisely: for every removed cube there is a surviving cube
    /// whose matches are a subset of the removed one's.
    #[test]
    fn drop_covered_preserves_semantics(
        cubes in proptest::collection::vec(cube_string(8), 1..10),
        probe_raw in any::<u8>(),
    ) {
        let mut set = TestSet::new(ScanConfig::new(2, 4).unwrap());
        for text in &cubes {
            set.push(text.parse().unwrap()).unwrap();
        }
        let original: Vec<TestCube> = set.cubes().to_vec();
        set.drop_covered();
        let probe = BitVec::from_u128(8, probe_raw as u128);
        // if the probe satisfies every surviving cube, it satisfies
        // every original cube too (the survivors are the strongest)
        let survives = set.iter().all(|c| c.matches(&probe));
        if survives {
            for cube in &original {
                prop_assert!(
                    cube.matches(&probe),
                    "dropped cube {} lost coverage",
                    cube
                );
            }
        }
    }

    /// WTM is invariant under complementing the whole vector and
    /// bounded by the analytic maximum.
    #[test]
    fn wtm_bounds_and_symmetry(raw in proptest::collection::vec(any::<bool>(), 24)) {
        let cfg = ScanConfig::new(4, 6).unwrap();
        let v = BitVec::from_bits(raw);
        let mut complement = v.clone();
        complement.xor_with(&BitVec::ones(24));
        let w = weighted_transitions(&v, cfg);
        prop_assert_eq!(w, weighted_transitions(&complement, cfg));
        prop_assert!(w <= crate::max_wtm(cfg));
    }
}
