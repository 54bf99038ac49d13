//! Statistical test-cube generation with paper-calibrated profiles.
//!
//! The paper evaluates on uncompacted Atalanta test sets for the five
//! largest ISCAS'89 circuits. Those exact test sets are not
//! redistributable, but the encoding algorithms only see *test cubes*;
//! what determines the results is the scan-cell count and the
//! specified-bit statistics. [`CubeProfile`] captures those statistics
//! (calibrated against the numbers the paper itself reports: LFSR
//! sizes, seed counts, and the 93123 specified bits quoted for s38417)
//! and [`generate_cubes`] draws a deterministic synthetic test set from
//! a profile.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::{ScanConfig, TestCube, TestSet};

/// Statistical profile of a core's test set.
///
/// # Example
///
/// ```
/// use ss_testdata::{generate_test_set, CubeProfile};
///
/// let set = generate_test_set(&CubeProfile::mini(), 7);
/// assert_eq!(set.len(), CubeProfile::mini().cube_count);
/// assert!(set.smax() <= CubeProfile::mini().smax);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CubeProfile {
    /// Human-readable name (e.g. `"s13207"`).
    pub name: &'static str,
    /// Scan cells of the core (flip-flops + primary inputs).
    pub scan_cells: usize,
    /// Scan chains assumed by the paper (32 for every circuit).
    pub chains: usize,
    /// Number of test cubes in the uncompacted set.
    pub cube_count: usize,
    /// Maximum specified bits of any cube.
    pub smax: usize,
    /// Minimum specified bits of any cube (uncompacted per-fault cubes
    /// always pin at least the fault's activation/propagation cone).
    pub min_specified: usize,
    /// Mean specified bits per cube.
    pub mean_specified: f64,
    /// The LFSR size the paper uses for this core (Table 1).
    pub lfsr_size: usize,
}

impl CubeProfile {
    /// s9234-like profile (247 scan cells, 44-bit LFSR).
    ///
    /// All profiles keep `smax` at least ~10 below the paper's LFSR
    /// size: within-vector linear dependencies are position-invariant
    /// (see `ss-core`'s encoder docs), so the margin keeps the
    /// probability of an unencodable cube negligible, as in the
    /// paper's real test sets.
    pub fn s9234() -> Self {
        CubeProfile {
            name: "s9234",
            scan_cells: 247,
            chains: 32,
            cube_count: 410,
            smax: 37,
            min_specified: 20,
            mean_specified: 26.0,
            lfsr_size: 44,
        }
    }

    /// s13207-like profile (700 scan cells, 24-bit LFSR) — the circuit
    /// the paper's Fig. 4 sweeps focus on.
    pub fn s13207() -> Self {
        CubeProfile {
            name: "s13207",
            scan_cells: 700,
            chains: 32,
            cube_count: 620,
            smax: 20,
            min_specified: 11,
            mean_specified: 14.0,
            lfsr_size: 24,
        }
    }

    /// s15850-like profile (611 scan cells, 39-bit LFSR).
    pub fn s15850() -> Self {
        CubeProfile {
            name: "s15850",
            scan_cells: 611,
            chains: 32,
            cube_count: 505,
            smax: 32,
            min_specified: 18,
            mean_specified: 23.0,
            lfsr_size: 39,
        }
    }

    /// s38417-like profile (1664 scan cells, 85-bit LFSR).
    ///
    /// The paper quotes 93123 specified bits for its s38417 test set —
    /// more than its classical-reseeding TDV of 58225 bits, which is
    /// possible only because real per-fault cubes overlap heavily
    /// (shared activation cones make many equations redundant).
    /// Uniform-random cube positions cannot reproduce both numbers at
    /// once; the profiles are calibrated to the *seed counts* (TDV),
    /// which drive every table, so this profile carries ~58k specified
    /// bits instead.
    pub fn s38417() -> Self {
        CubeProfile {
            name: "s38417",
            scan_cells: 1664,
            chains: 32,
            cube_count: 1165,
            smax: 70,
            min_specified: 39,
            mean_specified: 50.0,
            lfsr_size: 85,
        }
    }

    /// s38584-like profile (1464 scan cells, 56-bit LFSR).
    pub fn s38584() -> Self {
        CubeProfile {
            name: "s38584",
            scan_cells: 1464,
            chains: 32,
            cube_count: 687,
            smax: 47,
            min_specified: 26,
            mean_specified: 33.0,
            lfsr_size: 56,
        }
    }

    /// All five paper circuits, in the paper's table order.
    pub fn paper_circuits() -> Vec<CubeProfile> {
        vec![
            CubeProfile::s9234(),
            CubeProfile::s13207(),
            CubeProfile::s15850(),
            CubeProfile::s38417(),
            CubeProfile::s38584(),
        ]
    }

    /// A small profile for unit tests and examples (64 cells, 8 chains).
    pub fn mini() -> Self {
        CubeProfile {
            name: "mini",
            scan_cells: 64,
            chains: 8,
            cube_count: 40,
            smax: 12,
            min_specified: 2,
            mean_specified: 5.0,
            lfsr_size: 16,
        }
    }

    /// Returns a copy with the cube count scaled by `factor` (rounded,
    /// at least 1). Benches use this to trade fidelity for runtime and
    /// print the factor (`SS_SCALE`) in their banner; `EXPERIMENTS.md`
    /// records the scale each committed `BENCH_*.json` was run at.
    pub fn scaled(&self, factor: f64) -> Self {
        let mut p = self.clone();
        p.cube_count = ((p.cube_count as f64 * factor).round() as usize).max(1);
        p
    }

    /// The scan geometry the paper maps this core onto.
    pub fn scan_config(&self) -> ScanConfig {
        ScanConfig::for_cells(self.chains, self.scan_cells)
            .expect("profiles always have nonzero geometry")
    }
}

/// Draws `profile.cube_count` cubes with the profile's specified-bit
/// statistics, deterministically from `seed`.
///
/// The per-cube specified count follows a geometric-like distribution
/// with the profile's mean, truncated to `[1, smax]`; one cube is
/// forced to exactly `smax` bits so the set's `smax` (and therefore the
/// required LFSR size) is pinned. Specified positions are uniform over
/// the cells; values are fair coin flips.
pub fn generate_cubes(profile: &CubeProfile, seed: u64) -> Vec<TestCube> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5354_4154_4553_4b50); // "STATESKP"
    let cells = profile.scan_config().cells();
    let mut cubes = Vec::with_capacity(profile.cube_count);
    for i in 0..profile.cube_count {
        let s = if i == 0 {
            profile.smax
        } else {
            sample_specified(profile, &mut rng)
        };
        cubes.push(TestCube::random(cells, s, &mut rng));
    }
    cubes
}

/// Like [`generate_cubes`] but wraps the result in a [`TestSet`] with
/// the profile's scan geometry.
pub fn generate_test_set(profile: &CubeProfile, seed: u64) -> TestSet {
    let mut set = TestSet::new(profile.scan_config());
    for cube in generate_cubes(profile, seed) {
        set.push(cube).expect("generated cubes match the geometry");
    }
    set
}

/// Shifted-geometric sample with the profile's mean, truncated to
/// `[min_specified, smax]`.
fn sample_specified(profile: &CubeProfile, rng: &mut SmallRng) -> usize {
    let min = profile.min_specified.min(profile.smax).max(1);
    // geometric tail above the floor, with the right overall mean;
    // resample (rarely) when above smax to keep the truncation from
    // piling mass at smax
    let tail_mean = (profile.mean_specified - min as f64 + 1.0).max(1.0);
    let p = (1.0 / tail_mean).clamp(1e-6, 1.0);
    for _ in 0..64 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        let tail = (u.ln() / (1.0 - p).ln()).floor() as usize; // >= 0
        let s = min + tail;
        if s <= profile.smax {
            return s;
        }
    }
    profile.smax
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let p = CubeProfile::mini();
        assert_eq!(generate_cubes(&p, 42), generate_cubes(&p, 42));
        assert_ne!(generate_cubes(&p, 42), generate_cubes(&p, 43));
    }

    #[test]
    fn smax_is_pinned_and_respected() {
        let p = CubeProfile::mini();
        let set = generate_test_set(&p, 1);
        assert_eq!(set.smax(), p.smax, "one cube must hit smax exactly");
        for cube in &set {
            assert!(cube.specified_count() >= p.min_specified);
            assert!(cube.specified_count() <= p.smax);
        }
    }

    #[test]
    fn mean_specified_is_roughly_calibrated() {
        let p = CubeProfile::s13207().scaled(0.5);
        let set = generate_test_set(&p, 3);
        let stats = set.stats();
        let ratio = stats.mean_specified / p.mean_specified;
        assert!(
            (0.7..1.3).contains(&ratio),
            "mean {} too far from profile {}",
            stats.mean_specified,
            p.mean_specified
        );
    }

    #[test]
    fn paper_profiles_are_consistent() {
        for p in CubeProfile::paper_circuits() {
            assert_eq!(p.chains, 32, "{}: paper assumes 32 chains", p.name);
            assert!(
                p.smax <= p.lfsr_size,
                "{}: smax must not exceed the LFSR size",
                p.name
            );
            assert!(
                p.min_specified as f64 <= p.mean_specified,
                "{}: min above mean",
                p.name
            );
            let cfg = p.scan_config();
            assert!(
                cfg.cells() >= p.scan_cells,
                "{}: geometry must cover cells",
                p.name
            );
        }
    }

    #[test]
    fn profiles_are_calibrated_to_paper_classical_tdv() {
        // cube_count * mean ~= the paper's classical-reseeding TDV
        // (Table 1, L=1), the quantity the profiles are tuned against.
        for (p, tdv) in [
            (CubeProfile::s9234(), 10692.0),
            (CubeProfile::s13207(), 8856.0),
            (CubeProfile::s15850(), 11622.0),
            (CubeProfile::s38417(), 58225.0),
            (CubeProfile::s38584(), 22680.0),
        ] {
            let total = p.cube_count as f64 * p.mean_specified;
            let ratio = total / tdv;
            assert!(
                (0.8..1.25).contains(&ratio),
                "{}: total specified {total} vs classical TDV {tdv}",
                p.name
            );
        }
    }

    #[test]
    fn scaled_profile() {
        let p = CubeProfile::s9234();
        assert_eq!(p.scaled(0.5).cube_count, 205);
        assert_eq!(p.scaled(0.0).cube_count, 1);
        assert_eq!(p.scaled(1.0), p);
    }

    #[test]
    fn generated_set_parses_back() {
        let set = generate_test_set(&CubeProfile::mini(), 9);
        let text = set.to_text();
        let parsed = crate::TestSet::from_text(&text).unwrap();
        assert_eq!(parsed, set);
    }
}
