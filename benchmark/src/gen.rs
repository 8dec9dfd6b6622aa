//! Seeded input generation: a splitmix64 stream, a Fisher–Yates shuffle
//! and a Zipf sampler. `--seed` fixes every sequence the harness draws;
//! the programs under test receive only what was generated here.

/// splitmix64: 64 bits of state, full period, good enough to order
/// candidates and draw keys (the same generator the workspace's `rand`
/// stand-in uses, restated so the harness depends on no stub internals).
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// An independent stream for `lane` (a client, a round) of this seed.
    pub fn fork(seed: u64, lane: u64) -> SplitMix64 {
        let mut s = SplitMix64(seed ^ lane.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        s.next_u64();
        s
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s) over ranks `0..n`: rank `k` is drawn with weight
/// `1 / (k + 1)^s`. Sampling inverts the precomputed CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty key set");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64) -> (Vec<usize>, Vec<usize>) {
        let mut rng = SplitMix64::new(seed);
        let mut order: Vec<usize> = (0..60).collect();
        rng.shuffle(&mut order);
        let z = Zipf::new(48, 1.0);
        let keys = (0..1500).map(|_| z.sample(&mut rng)).collect();
        (order, keys)
    }

    #[test]
    fn same_seed_same_sequences() {
        assert_eq!(stream(7), stream(7));
        assert_ne!(stream(7), stream(8));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let (mut order, _) = stream(3);
        order.sort_unstable();
        assert_eq!(order, (0..60).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let (_, keys) = stream(11);
        assert!(keys.iter().all(|&k| k < 48));
        let head = keys.iter().filter(|&&k| k == 0).count();
        let tail = keys.iter().filter(|&&k| k == 47).count();
        // Rank 0 carries 1/H(48) ~ 22 % of the mass, rank 47 ~ 0.5 %.
        assert!(head > 250 && head < 420, "rank 0 drawn {head} times");
        assert!(tail < 30, "rank 47 drawn {tail} times");
    }

    #[test]
    fn forks_are_distinct_streams() {
        let a = SplitMix64::fork(5, 0).next_u64();
        let b = SplitMix64::fork(5, 1).next_u64();
        assert_ne!(a, b);
    }
}
