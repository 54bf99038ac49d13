//! The seeded generator every workload's request stream comes from.

/// SplitMix64: a small, fast, well-mixed generator whose whole state
/// is the seed, so one `--seed` reproduces one stream exactly.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n >= 1`), by the multiply-high reduction.
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n >= 1, "empty range");
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }

    /// `items` in a freshly shuffled order.
    pub fn shuffled<T: Clone>(&mut self, items: &[T]) -> Vec<T> {
        let mut out = items.to_vec();
        self.shuffle(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut c = SplitMix64::new(8);
        assert_ne!(xs[0], c.next_u64());
    }

    #[test]
    fn known_first_output() {
        // the published SplitMix64 reference value for seed 0
        assert_eq!(SplitMix64::new(0).next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn below_stays_in_range() {
        let mut g = SplitMix64::new(1);
        for n in 1..50 {
            for _ in 0..50 {
                assert!(g.below(n) < n);
            }
        }
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let items: Vec<u32> = (0..20).collect();
        let a = SplitMix64::new(3).shuffled(&items);
        let b = SplitMix64::new(3).shuffled(&items);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, items);
        assert_ne!(a, SplitMix64::new(4).shuffled(&items));
    }
}
