//! Property-based tests spanning the workspace crates (proptest).

use proptest::prelude::*;

use ss_core::{try_expand_seed, Encoded, Engine};
use ss_gf2::{berlekamp_massey, primitive_poly, BitVec};
use ss_lfsr::{Lfsr, LfsrKind, PhaseShifter, SkipCircuit, StateSkipLfsr, XorNetwork};
use ss_testdata::{ScanConfig, TestCube, TestSet};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// T^k jump == k normal steps, for any size/seed/k and both forms.
    #[test]
    fn skip_jump_equals_k_steps(
        n in 3usize..24,
        k in 1u64..64,
        seed_bits in any::<u64>(),
        galois in any::<bool>(),
    ) {
        let kind = if galois { LfsrKind::Galois } else { LfsrKind::Fibonacci };
        let mut lfsr = Lfsr::try_new(primitive_poly(n).unwrap(), kind).unwrap();
        let seed = BitVec::from_u128(n, (seed_bits as u128) & ((1u128 << n) - 1));
        lfsr.load(&seed);
        let skip = SkipCircuit::new(&lfsr, k).unwrap();
        let jumped = skip.jump(lfsr.state());
        lfsr.step_by(k);
        prop_assert_eq!(jumped, lfsr.state().clone());
    }

    /// advance_states lands exactly for arbitrary gaps.
    #[test]
    fn advance_states_lands_exactly(
        n in 3usize..16,
        k in 1u64..32,
        gap in 0u64..500,
        seed_bits in any::<u64>(),
    ) {
        let poly = primitive_poly(n).unwrap();
        let seed = BitVec::from_u128(n, (seed_bits as u128) & ((1u128 << n) - 1));
        let mut reference = Lfsr::fibonacci(poly.clone());
        reference.load(&seed);
        reference.step_by(gap);
        let mut ss = StateSkipLfsr::new(Lfsr::fibonacci(poly), k).unwrap();
        ss.load(&seed);
        let clocks = ss.advance_states(gap);
        prop_assert_eq!(ss.state(), reference.state());
        prop_assert!(clocks <= gap, "skip mode never needs more clocks than states");
    }

    /// Berlekamp–Massey recovers exactly degree n from 2n output bits
    /// of a maximal-length LFSR with a nonzero seed.
    #[test]
    fn bm_recovers_lfsr_degree(n in 3usize..16, seed_bits in 1u64..u64::MAX) {
        let mut lfsr = Lfsr::fibonacci(primitive_poly(n).unwrap());
        let raw = (seed_bits as u128) & ((1u128 << n) - 1);
        let seed = BitVec::from_u128(n, if raw == 0 { 1 } else { raw });
        lfsr.load(&seed);
        let seq = lfsr.output_sequence(2 * n + 4);
        let (_, l) = berlekamp_massey(&seq);
        prop_assert_eq!(l, n);
    }

    /// An XOR network synthesised from random rows computes the same
    /// function as the matrix it came from.
    #[test]
    fn xor_network_is_functionally_exact(
        rows in 1usize..10,
        cols in 1usize..12,
        data in any::<u64>(),
        input in any::<u64>(),
    ) {
        let mut m = ss_gf2::BitMatrix::zeros(rows, cols);
        let mut bits = data;
        for r in 0..rows {
            for c in 0..cols {
                if bits & 1 == 1 {
                    m.set(r, c, true);
                }
                bits = bits.rotate_right(1) ^ (r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            }
        }
        let net = XorNetwork::synthesize(&m);
        let v = BitVec::from_u128(cols, (input as u128) & ((1u128 << cols) - 1));
        prop_assert_eq!(net.eval(&v), m.mul_vec(&v));
        // sharing never costs more than the naive chain implementation
        let naive: usize = (0..rows).map(|r| m.row(r).count_ones().saturating_sub(1)).sum();
        prop_assert!(net.gate_count() <= naive.max(1));
    }

    /// Expanded windows match cube placements for arbitrary single-cube
    /// test sets: encode, expand, verify.
    #[test]
    fn single_cube_sets_always_encode_and_embed(
        cube_seed in any::<u64>(),
        specified in 1usize..10,
    ) {
        let scan = ScanConfig::new(4, 8).unwrap();
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(cube_seed);
        let cube = TestCube::random(scan.cells(), specified, &mut rng);
        let mut set = TestSet::new(scan);
        set.push(cube).unwrap();
        let engine = Engine::builder().window(6).segment(2).speedup(3).lfsr_size(16);
        let ctx = engine.build().unwrap().synthesize(&set).unwrap();
        // an intrinsically unencodable (LFSR, shifter, cube) triple is
        // possible (if astronomically rare) for random cubes; such
        // cases are outside the property and rejected
        prop_assume!(ctx.encodable_subset(&set).1.is_empty());
        let report = Encoded::from_ctx_ref(&set, &ctx)
            .unwrap()
            .embed()
            .segment()
            .finish()
            .unwrap();
        prop_assert_eq!(report.seeds, 1);
        let windows = try_expand_seed(
            ctx.lfsr(),
            ctx.shifter(),
            scan,
            &report.encoding.seeds[0].seed,
            6,
        )
        .unwrap();
        let p = report.encoding.seeds[0].placements[0];
        prop_assert!(set.cube(p.cube).matches(&windows[p.position]));
    }

    /// Cube merge: a fill of the merged cube satisfies both parents.
    #[test]
    fn merge_soundness(a_seed in any::<u64>(), b_seed in any::<u64>()) {
        let mut rng_a = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(a_seed);
        let mut rng_b = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(b_seed);
        let a = TestCube::random(32, 8, &mut rng_a);
        let b = TestCube::random(32, 8, &mut rng_b);
        match a.merge(&b) {
            Some(m) => {
                let fill = m.random_fill(&mut rng_a);
                prop_assert!(a.matches(&fill));
                prop_assert!(b.matches(&fill));
            }
            None => {
                // incompatible: some position must disagree under both cares
                let mut found = false;
                for i in 0..32 {
                    if let (Some(x), Some(y)) = (a.get(i), b.get(i)) {
                        if x != y {
                            found = true;
                            break;
                        }
                    }
                }
                prop_assert!(found, "merge=None must be justified by a conflict");
            }
        }
    }

    /// Phase shifter outputs stay linearly independent whenever
    /// m <= n, for random synthesis seeds.
    #[test]
    fn phase_shifter_independence(seed in any::<u64>(), m in 1usize..12) {
        let n = 12;
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(seed);
        let ps = PhaseShifter::synthesize(n, m, 3, &mut rng).unwrap();
        prop_assert_eq!(ps.rows().rank(), m);
    }
}
