//! Deterministic random netlist generation with ISCAS'89-like presets.
//!
//! The real ISCAS'89 netlists are not redistributable, so benchmarks
//! and examples that need a *circuit* (rather than just cube
//! statistics) use layered random netlists with matching interface
//! sizes: the compression flow only sees a circuit through its scan
//! cells and the cubes ATPG emits for it.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::netlist::{GateKind, Netlist};

/// Parameters of a generated circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CircuitSpec {
    /// Human-readable name.
    pub name: &'static str,
    /// Primary inputs (scan cells + functional PIs of the modelled core).
    pub inputs: usize,
    /// Gate count.
    pub gates: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Maximum gate fanin (>= 2).
    pub max_fanin: usize,
    /// Fanin locality window: fanins are drawn mostly from the last
    /// this-many nodes, with occasional global picks (keeps cones
    /// shallow and testable, like real synthesised logic).
    pub locality: usize,
}

impl CircuitSpec {
    /// A 12-input / 30-gate circuit for fast unit tests.
    pub fn tiny() -> Self {
        CircuitSpec {
            name: "tiny",
            inputs: 12,
            gates: 30,
            outputs: 6,
            max_fanin: 3,
            locality: 20,
        }
    }

    /// A 64-input / 250-gate circuit matching
    /// `ss_testdata::CubeProfile::mini` geometry.
    pub fn mini() -> Self {
        CircuitSpec {
            name: "mini",
            inputs: 64,
            gates: 250,
            outputs: 32,
            max_fanin: 4,
            locality: 60,
        }
    }

    /// s9234-like interface: 247 inputs.
    pub fn s9234_like() -> Self {
        CircuitSpec {
            name: "s9234-like",
            inputs: 247,
            gates: 2000,
            outputs: 250,
            max_fanin: 4,
            locality: 150,
        }
    }

    /// s13207-like interface: 700 inputs.
    pub fn s13207_like() -> Self {
        CircuitSpec {
            name: "s13207-like",
            inputs: 700,
            gates: 2800,
            outputs: 700,
            max_fanin: 4,
            locality: 200,
        }
    }

    /// s15850-like interface: 611 inputs.
    pub fn s15850_like() -> Self {
        CircuitSpec {
            name: "s15850-like",
            inputs: 611,
            gates: 2600,
            outputs: 600,
            max_fanin: 4,
            locality: 200,
        }
    }

    /// s38417-like interface: 1664 inputs.
    pub fn s38417_like() -> Self {
        CircuitSpec {
            name: "s38417-like",
            inputs: 1664,
            gates: 5500,
            outputs: 1700,
            max_fanin: 4,
            locality: 300,
        }
    }

    /// Looks a preset up by name (`"tiny"`, `"mini"`, `"s9234-like"`,
    /// ...), as recorded in workload provenance metadata.
    pub fn by_name(name: &str) -> Option<Self> {
        Some(match name {
            "tiny" => CircuitSpec::tiny(),
            "mini" => CircuitSpec::mini(),
            "s9234-like" => CircuitSpec::s9234_like(),
            "s13207-like" => CircuitSpec::s13207_like(),
            "s15850-like" => CircuitSpec::s15850_like(),
            "s38417-like" => CircuitSpec::s38417_like(),
            "s38584-like" => CircuitSpec::s38584_like(),
            _ => return None,
        })
    }

    /// s38584-like interface: 1464 inputs.
    pub fn s38584_like() -> Self {
        CircuitSpec {
            name: "s38584-like",
            inputs: 1464,
            gates: 5200,
            outputs: 1500,
            max_fanin: 4,
            locality: 300,
        }
    }
}

/// Generates a layered random netlist from `spec`, deterministically in
/// `seed`.
///
/// Construction rules:
///
/// * gate kinds are weighted toward NAND/NOR/AND/OR with a sprinkle of
///   XOR/XNOR and inverters (ISCAS-like mix);
/// * every primary input is guaranteed at least one fanout (so no
///   trivially untestable input faults);
/// * fanins are drawn from a sliding locality window over earlier
///   nodes, with ~10% global picks for reconvergence;
/// * the last gates plus a random sample of internal nodes become the
///   primary outputs, and every *sink* gate (one nothing reads) is
///   promoted to an output so no logic is dead.
///
/// # Panics
///
/// Panics if `spec.inputs == 0`, `spec.gates == 0` or `spec.max_fanin < 2`.
pub fn random_circuit(spec: &CircuitSpec, seed: u64) -> Netlist {
    assert!(spec.inputs > 0, "need at least one input");
    assert!(spec.gates > 0, "need at least one gate");
    assert!(spec.max_fanin >= 2, "max fanin must be >= 2");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x4349_5243_5549_5421); // "CIRCUIT!"
    let mut netlist = Netlist::new(spec.inputs);

    for g in 0..spec.gates {
        let node_count = spec.inputs + g;
        let kind = random_kind(&mut rng);
        let fanin_count = if matches!(kind, GateKind::Not | GateKind::Buf) {
            1
        } else {
            rng.gen_range(2..=spec.max_fanin)
        };
        let mut fanins = Vec::with_capacity(fanin_count);
        // guarantee input coverage: the first `inputs` gates each tap
        // the corresponding primary input
        if g < spec.inputs {
            fanins.push(g);
        }
        while fanins.len() < fanin_count {
            let pick = if rng.gen_bool(0.1) {
                rng.gen_range(0..node_count)
            } else {
                let lo = node_count.saturating_sub(spec.locality);
                rng.gen_range(lo..node_count)
            };
            // distinct fanins preferred; duplicates only once every
            // existing node is already tapped (tiny early gates of
            // narrow specs), so wide specs are byte-identical to
            // before this guard existed
            if !fanins.contains(&pick) || fanins.len() >= node_count {
                fanins.push(pick);
            }
        }
        netlist
            .add_gate(kind, fanins)
            .expect("generator only references earlier nodes");
    }

    // outputs: every sink gate plus random internal nodes up to the
    // requested count
    let fanouts = netlist.fanouts();
    let mut outputs: Vec<usize> = (spec.inputs..netlist.node_count())
        .filter(|&n| fanouts[n].is_empty())
        .collect();
    while outputs.len() < spec.outputs.min(netlist.gate_count()) {
        let pick = spec.inputs + rng.gen_range(0..netlist.gate_count());
        if !outputs.contains(&pick) {
            outputs.push(pick);
        }
    }
    for o in outputs {
        netlist.add_output(o).expect("output nodes exist");
    }
    netlist
}

fn random_kind(rng: &mut SmallRng) -> GateKind {
    // weights: NAND 25, NOR 15, AND 20, OR 15, XOR 8, XNOR 4, NOT 10, BUF 3
    let roll = rng.gen_range(0..100);
    match roll {
        0..=24 => GateKind::Nand,
        25..=39 => GateKind::Nor,
        40..=59 => GateKind::And,
        60..=74 => GateKind::Or,
        75..=82 => GateKind::Xor,
        83..=86 => GateKind::Xnor,
        87..=96 => GateKind::Not,
        _ => GateKind::Buf,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atpg::{generate_uncompacted_test_set, AtpgConfig};
    use crate::fault::FaultList;
    use crate::fsim::FaultSimulator;

    #[test]
    fn generation_is_deterministic() {
        let spec = CircuitSpec::tiny();
        assert_eq!(random_circuit(&spec, 5), random_circuit(&spec, 5));
        assert_ne!(random_circuit(&spec, 5), random_circuit(&spec, 6));
    }

    #[test]
    fn spec_dimensions_are_respected() {
        let spec = CircuitSpec::mini();
        let n = random_circuit(&spec, 1);
        assert_eq!(n.input_count(), spec.inputs);
        assert_eq!(n.gate_count(), spec.gates);
        assert!(n.outputs().len() >= spec.outputs.min(spec.gates));
    }

    #[test]
    fn every_input_has_fanout() {
        let n = random_circuit(&CircuitSpec::mini(), 3);
        let fanouts = n.fanouts();
        for (i, fanout) in fanouts.iter().enumerate().take(n.input_count()) {
            assert!(!fanout.is_empty(), "input {i} is dangling");
        }
    }

    #[test]
    fn no_dead_logic() {
        let n = random_circuit(&CircuitSpec::tiny(), 9);
        let fanouts = n.fanouts();
        for (g, fanout) in fanouts.iter().enumerate().skip(n.input_count()) {
            let read = !fanout.is_empty();
            let is_output = n.outputs().contains(&g);
            assert!(read || is_output, "gate node {g} is dead");
        }
    }

    #[test]
    fn tiny_circuit_is_mostly_testable() {
        let n = random_circuit(&CircuitSpec::tiny(), 11);
        let outcome = generate_uncompacted_test_set(&n, &AtpgConfig::default(), 11);
        assert!(
            outcome.coverage() > 0.9,
            "coverage {} too low for a tiny circuit",
            outcome.coverage()
        );
        // and the produced cubes really achieve that coverage when
        // random-filled and fault-simulated
        let fsim = FaultSimulator::new(&n);
        let faults = FaultList::collapsed(&n);
        let mut rng = SmallRng::seed_from_u64(0);
        let patterns: Vec<Vec<bool>> = outcome
            .cubes
            .iter()
            .map(|c| c.random_fill(&mut rng).iter().collect())
            .collect();
        let cov = fsim.coverage(&faults, &patterns);
        assert!(cov > 0.75, "simulated coverage {cov} too low");
    }

    #[test]
    fn paper_like_specs_have_expected_interfaces() {
        assert_eq!(CircuitSpec::s9234_like().inputs, 247);
        assert_eq!(CircuitSpec::s13207_like().inputs, 700);
        assert_eq!(CircuitSpec::s15850_like().inputs, 611);
        assert_eq!(CircuitSpec::s38417_like().inputs, 1664);
        assert_eq!(CircuitSpec::s38584_like().inputs, 1464);
    }
}
