//! Property tests pinning the packed (64-lane word-parallel) paths
//! against their scalar reference oracles, bit for bit: fault
//! simulation coverage, seed-window expansion, and the
//! embedding-map/TSL measurements the paper's tables are built from.

use proptest::prelude::*;

use ss_circuit::{random_circuit, CircuitSpec, FaultList, FaultSimulator};
use ss_core::{try_expand_seed, EmbeddingMap, Engine, PackedWindowExpander, SegmentPlan};
use ss_gf2::{BitVec, PackedPatterns};
use ss_lfsr::LfsrKind;
use ss_testdata::{generate_test_set, CubeProfile};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Packed fault simulation (with fault dropping) detects exactly
    /// the faults the one-pattern-at-a-time oracle detects, and
    /// reports exactly the same coverage — including ragged tail
    /// blocks.
    #[test]
    fn packed_fsim_is_bit_identical_to_the_scalar_oracle(
        circuit_seed in any::<u64>(),
        pattern_seed in any::<u64>(),
        count in 1usize..200,
    ) {
        let netlist = random_circuit(&CircuitSpec::tiny(), circuit_seed);
        let faults = FaultList::collapsed(&netlist);
        let fsim = FaultSimulator::new(&netlist);
        let mut rng =
            <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(pattern_seed);
        let patterns: Vec<Vec<bool>> = (0..count)
            .map(|_| {
                (0..netlist.input_count())
                    .map(|_| rand::Rng::gen(&mut rng))
                    .collect()
            })
            .collect();
        let packed = PackedPatterns::from_bools(netlist.input_count(), &patterns);
        prop_assert_eq!(
            fsim.run_packed(&faults, &packed),
            fsim.run_scalar(&faults, &patterns)
        );
        prop_assert_eq!(
            fsim.coverage_packed(&faults, &packed),
            fsim.coverage_scalar(&faults, &patterns)
        );
        // the Vec<bool> front door is the same kernel
        prop_assert_eq!(
            fsim.run(&faults, &patterns),
            fsim.run_scalar(&faults, &patterns)
        );
    }

    /// Packed seed-window expansion reproduces the scalar expansion
    /// for arbitrary hardware seeds, window lengths and both LFSR
    /// feedback structures.
    #[test]
    fn packed_expansion_equals_scalar_for_any_geometry(
        hw_seed in any::<u64>(),
        seed_seed in any::<u64>(),
        window in 1usize..130,
        galois in any::<bool>(),
    ) {
        let set = generate_test_set(&CubeProfile::mini(), 1);
        let kind = if galois { LfsrKind::Galois } else { LfsrKind::Fibonacci };
        let engine = Engine::builder()
            .window(8)
            .segment(2)
            .hw_seed(hw_seed)
            .lfsr_kind(kind)
            .build()
            .unwrap();
        let ctx = engine.synthesize(&set).unwrap();
        let mut rng = <rand::rngs::SmallRng as rand::SeedableRng>::seed_from_u64(seed_seed);
        let seed = BitVec::random(ctx.lfsr_size(), &mut rng);
        let scalar =
            try_expand_seed(ctx.lfsr(), ctx.shifter(), set.config(), &seed, window).unwrap();
        let packed = PackedWindowExpander::new(ctx.lfsr(), ctx.shifter(), set.config(), window)
            .unwrap()
            .expand(&seed)
            .unwrap();
        prop_assert_eq!(packed.count(), window);
        prop_assert_eq!(packed.to_vectors(), scalar);
    }

    /// The packed embedding map — and therefore every TSL number
    /// derived from it — equals the scalar oracle's on the standard
    /// synthetic workloads, across window lengths, segment sizes and
    /// speedups.
    #[test]
    fn packed_embedding_and_tsl_equal_the_scalar_oracle(
        workload_seed in 1u64..40,
        window in 8usize..40,
        segment in 1usize..6,
        speedup in 2u64..16,
    ) {
        let set = generate_test_set(&CubeProfile::mini(), workload_seed);
        let engine = Engine::builder()
            .window(window)
            .segment(segment)
            .speedup(speedup)
            .build()
            .unwrap();
        // non-calibrated workload seeds may contain intrinsically
        // unencodable cubes; those runs are outside the property
        let encoded = match engine.encode(&set) {
            Ok(encoded) => encoded,
            Err(_) => return Ok(()),
        };
        let scalar_map = EmbeddingMap::build_scalar(
            &set,
            encoded.encoding(),
            encoded.ctx().lfsr(),
            encoded.ctx().shifter(),
        );
        let embedded = encoded.embed();
        prop_assert_eq!(embedded.embedding(), &scalar_map, "embedding maps diverged");

        let depth = set.config().depth();
        let packed_tsl = SegmentPlan::build(embedded.embedding(), segment)
            .tsl(speedup, depth)
            .vectors;
        let scalar_tsl = SegmentPlan::build(&scalar_map, segment)
            .tsl(speedup, depth)
            .vectors;
        prop_assert_eq!(packed_tsl, scalar_tsl, "TSL diverged");
    }
}
