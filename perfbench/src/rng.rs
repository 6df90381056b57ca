//! Seeded sampling helpers over the workspace's ChaCha8 generator, so
//! traces depend on nothing but the `--seed`.

use rand::Rng;
use rand_chacha::ChaCha8Rng;

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(rng: &mut ChaCha8Rng, n: usize) -> Vec<usize> {
    let mut items: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
    items
}

/// Zipf-distributed ranks over `0..n`: rank `r` has weight `1 / (r+1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut sum = 0.0;
        for rank in 0..n {
            sum += 1.0 / ((rank + 1) as f64).powf(exponent);
            cdf.push(sum);
        }
        for c in &mut cdf {
            *c /= sum;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut ChaCha8Rng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(100, 1.0);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[99]);
    }

    #[test]
    fn permutations_are_seeded_and_complete() {
        let draw = |seed| permutation(&mut ChaCha8Rng::seed_from_u64(seed), 50);
        let mut sorted = draw(1);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
    }
}
