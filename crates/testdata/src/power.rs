//! Scan-shift power estimation: the weighted transitions metric (WTM).
//!
//! Test power is dominated by the transitions a vector causes while it
//! shifts through the scan chains. The classic estimate (Sankaralingam
//! et al.) weights each adjacent-bit transition of the vector by how
//! many shift cycles it stays in the chain: a transition between scan
//! positions `j` and `j+1` (counted from the scan input) toggles cells
//! for `depth - 1 - j` cycles.
//!
//! The State Skip paper does not evaluate power, but one of its
//! baselines ([21], low-power reseeding) is power-motivated, and a
//! practical adopter will want to know what pseudorandom filling does
//! to shift power — so the workspace carries the metric as an
//! extension.

use ss_gf2::BitVec;

use crate::ScanConfig;

/// Weighted transitions of one fully specified vector while it loads
/// into the scan chains.
///
/// For each chain, each transition between scan positions `j` and
/// `j+1` contributes `depth - 1 - j`.
///
/// # Panics
///
/// Panics if `vector.len()` differs from the configuration's cell
/// count.
///
/// # Example
///
/// ```
/// use ss_gf2::BitVec;
/// use ss_testdata::{weighted_transitions, ScanConfig};
///
/// # fn main() -> Result<(), ss_testdata::ScanConfigError> {
/// let scan = ScanConfig::new(1, 4)?;
/// // 0101 has transitions at j=0,1,2 with weights 3,2,1
/// let v = BitVec::from_bits([false, true, false, true]);
/// assert_eq!(weighted_transitions(&v, scan), 6);
/// // constant vectors cause no shift transitions
/// assert_eq!(weighted_transitions(&BitVec::zeros(4), scan), 0);
/// # Ok(())
/// # }
/// ```
pub fn weighted_transitions(vector: &BitVec, scan: ScanConfig) -> u64 {
    assert_eq!(vector.len(), scan.cells(), "vector width mismatch");
    let r = scan.depth();
    let mut total = 0u64;
    for chain in 0..scan.chains() {
        for j in 0..r - 1 {
            let a = vector.get(scan.cell_index(chain, j));
            let b = vector.get(scan.cell_index(chain, j + 1));
            if a != b {
                total += (r - 1 - j) as u64;
            }
        }
    }
    total
}

/// Shift-power summary of an applied test sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerReport {
    /// Sum of weighted transitions over all vectors.
    pub total_wtm: u64,
    /// Maximum single-vector WTM (peak power proxy).
    pub peak_wtm: u64,
    /// Mean WTM per vector.
    pub mean_wtm: f64,
    /// Vectors accounted.
    pub vectors: usize,
}

/// Computes the [`PowerReport`] of a vector sequence.
///
/// # Panics
///
/// Panics if any vector's width differs from the configuration.
pub fn sequence_power<'a, I>(vectors: I, scan: ScanConfig) -> PowerReport
where
    I: IntoIterator<Item = &'a BitVec>,
{
    let mut total = 0u64;
    let mut peak = 0u64;
    let mut count = 0usize;
    for v in vectors {
        let wtm = weighted_transitions(v, scan);
        total += wtm;
        peak = peak.max(wtm);
        count += 1;
    }
    PowerReport {
        total_wtm: total,
        peak_wtm: peak,
        mean_wtm: if count == 0 {
            0.0
        } else {
            total as f64 / count as f64
        },
        vectors: count,
    }
}

/// The maximum possible WTM of a single vector under this geometry
/// (alternating bits in every chain): `chains * depth*(depth-1)/2`.
pub fn max_wtm(scan: ScanConfig) -> u64 {
    let r = scan.depth() as u64;
    scan.chains() as u64 * r * (r - 1) / 2
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn alternating_vector_hits_max() {
        let scan = ScanConfig::new(2, 5).unwrap();
        let v = BitVec::from_bits((0..10).map(|i| i % 2 == 0));
        assert_eq!(weighted_transitions(&v, scan), max_wtm(scan));
    }

    #[test]
    fn constant_vectors_are_free() {
        let scan = ScanConfig::new(3, 7).unwrap();
        assert_eq!(weighted_transitions(&BitVec::zeros(21), scan), 0);
        assert_eq!(weighted_transitions(&BitVec::ones(21), scan), 0);
    }

    #[test]
    fn single_transition_weight_depends_on_position() {
        let scan = ScanConfig::new(1, 6).unwrap();
        // transition between positions 0 and 1: weight depth-1-0 = 5
        let mut v = BitVec::zeros(6);
        v.set(0, true);
        assert_eq!(weighted_transitions(&v, scan), 5);
        // transition between positions 4 and 5: weight 1
        let mut v = BitVec::zeros(6);
        v.set(5, true);
        assert_eq!(weighted_transitions(&v, scan), 1);
    }

    #[test]
    fn report_aggregates() {
        let scan = ScanConfig::new(1, 4).unwrap();
        let a = BitVec::from_bits([false, true, false, true]); // 6
        let b = BitVec::zeros(4); // 0
        let report = sequence_power([&a, &b], scan);
        assert_eq!(report.total_wtm, 6);
        assert_eq!(report.peak_wtm, 6);
        assert_eq!(report.vectors, 2);
        assert!((report.mean_wtm - 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_sequence() {
        let scan = ScanConfig::new(1, 4).unwrap();
        let report = sequence_power(std::iter::empty(), scan);
        assert_eq!(report.total_wtm, 0);
        assert_eq!(report.mean_wtm, 0.0);
    }

    #[test]
    fn random_vectors_average_near_half_max() {
        let scan = ScanConfig::new(4, 16).unwrap();
        let mut rng = SmallRng::seed_from_u64(2);
        let vectors: Vec<BitVec> = (0..200).map(|_| BitVec::random(64, &mut rng)).collect();
        let report = sequence_power(&vectors, scan);
        let ratio = report.mean_wtm / max_wtm(scan) as f64;
        assert!(
            (0.4..0.6).contains(&ratio),
            "random fill should average ~half of max WTM, got {ratio}"
        );
    }
}
