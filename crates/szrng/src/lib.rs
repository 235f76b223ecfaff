//! Pseudo-random number generators for the STABILIZER reproduction.
//!
//! STABILIZER (§3.2) uses the Marsaglia multiply-with-carry generator
//! inherited from DieHard for all of its layout decisions, and the paper
//! compares the randomness of heap addresses against libc's `lrand48`.
//! This crate provides bit-faithful implementations of both, plus
//! [`SplitMix64`] for seeding and [`XorShift64Star`] as a fast utility
//! generator, behind a small object-safe [`Rng`] trait.
//!
//! # Examples
//!
//! ```
//! use sz_rng::{Marsaglia, Rng};
//!
//! let mut rng = Marsaglia::seeded(42);
//! let index = rng.below(256);
//! assert!(index < 256);
//! ```

mod lrand48;
mod marsaglia;
mod splitmix;
mod xorshift;

pub use lrand48::Lrand48;
pub use marsaglia::Marsaglia;
pub use splitmix::SplitMix64;
pub use xorshift::XorShift64Star;

/// A deterministic pseudo-random number generator.
///
/// The trait is object-safe so layout components can hold a
/// `Box<dyn Rng>` chosen at configuration time.
pub trait Rng {
    /// Returns the next pseudo-random 32-bit value.
    fn next_u32(&mut self) -> u32;

    /// Returns the next pseudo-random 64-bit value.
    ///
    /// The default implementation concatenates two 32-bit draws.
    fn next_u64(&mut self) -> u64 {
        (u64::from(self.next_u32()) << 32) | u64::from(self.next_u32())
    }

    /// Returns a uniformly distributed value in `[0, bound)`.
    ///
    /// Uses rejection sampling so the result is unbiased.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        if bound.is_power_of_two() {
            return self.next_u64() & (bound - 1);
        }
        // Rejection sampling over the largest multiple of `bound`
        // that fits in a `u64`, `zone = u64::MAX - u64::MAX % bound`.
        // `v < zone` holds exactly when the next multiple of `bound`
        // above `v - v % bound` still fits, so the one division that
        // yields the result also decides acceptance.
        loop {
            let v = self.next_u64();
            let r = v % bound;
            if (v - r).checked_add(bound).is_some() {
                return r;
            }
        }
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `p`.
    fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// Shuffles `slice` in place with the Fisher–Yates algorithm.
///
/// This is the shuffle STABILIZER applies to each size class of its
/// shuffling heap layer at startup (§3.2).
///
/// # Examples
///
/// ```
/// use sz_rng::{fisher_yates, Marsaglia};
///
/// let mut v: Vec<u32> = (0..16).collect();
/// let mut rng = Marsaglia::seeded(7);
/// fisher_yates(&mut v, &mut rng);
/// let mut sorted = v.clone();
/// sorted.sort();
/// assert_eq!(sorted, (0..16).collect::<Vec<_>>());
/// ```
pub fn fisher_yates<T, R: Rng + ?Sized>(slice: &mut [T], rng: &mut R) {
    for i in (1..slice.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        slice.swap(i, j);
    }
}

/// Draws `k` distinct indices from `[0, n)` without replacement.
///
/// # Panics
///
/// Panics if `k > n`.
pub fn sample_indices<R: Rng + ?Sized>(n: usize, k: usize, rng: &mut R) -> Vec<usize> {
    assert!(k <= n, "cannot sample {k} of {n} items");
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = i + rng.below((n - i) as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generators() -> Vec<(&'static str, Box<dyn Rng>)> {
        vec![
            ("marsaglia", Box::new(Marsaglia::seeded(1)) as Box<dyn Rng>),
            ("lrand48", Box::new(Lrand48::seeded(1))),
            ("splitmix", Box::new(SplitMix64::new(1))),
            ("xorshift", Box::new(XorShift64Star::new(1))),
        ]
    }

    #[test]
    fn below_respects_bound() {
        for (name, mut rng) in generators() {
            for bound in [1u64, 2, 3, 7, 100, 256, 1 << 33] {
                for _ in 0..200 {
                    let v = rng.below(bound);
                    assert!(v < bound, "{name}: {v} >= {bound}");
                }
            }
        }
    }

    /// `below` as it was first written: the rejection zone from one
    /// division, the result from a second.
    fn below_two_divisions(rng: &mut dyn Rng, bound: u64) -> u64 {
        if bound.is_power_of_two() {
            return rng.next_u64() & (bound - 1);
        }
        let zone = u64::MAX - (u64::MAX % bound);
        loop {
            let v = rng.next_u64();
            if v < zone {
                return v % bound;
            }
        }
    }

    #[test]
    fn below_matches_the_two_division_formula() {
        // 2^63 + 1 rejects almost half of all draws, and a third of all
        // draws fall in the last whole multiple of u64::MAX / 3, so an
        // accept test that is off by one at the zone's edge shows.
        let bounds = [
            1,
            3,
            255,
            (1 << 32) - 1,
            (1 << 32) + 1,
            (1 << 63) + 1,
            u64::MAX / 3,
            u64::MAX,
        ];
        for ((name, mut ours), (_, mut oracle)) in generators().into_iter().zip(generators()) {
            for bound in bounds {
                for i in 0..2_000 {
                    assert_eq!(
                        ours.below(bound),
                        below_two_divisions(oracle.as_mut(), bound),
                        "{name}: draw {i} below {bound:#x}"
                    );
                }
            }
            assert_eq!(
                ours.next_u64(),
                oracle.next_u64(),
                "{name}: same draws spent"
            );
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        for (name, mut rng) in generators() {
            for _ in 0..1000 {
                let v = rng.next_f64();
                assert!((0.0..1.0).contains(&v), "{name}: {v} out of range");
            }
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn below_zero_panics() {
        Marsaglia::seeded(1).below(0);
    }

    #[test]
    fn fisher_yates_is_permutation() {
        let mut rng = Marsaglia::seeded(99);
        let mut v: Vec<usize> = (0..257).collect();
        fisher_yates(&mut v, &mut rng);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..257).collect::<Vec<_>>());
        // And with 257 elements the identity permutation is astronomically
        // unlikely, so the shuffle must have moved something.
        assert_ne!(v, (0..257).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut rng = XorShift64Star::new(3);
        let sample = sample_indices(50, 20, &mut rng);
        assert_eq!(sample.len(), 20);
        let mut seen = std::collections::HashSet::new();
        for &i in &sample {
            assert!(i < 50);
            assert!(seen.insert(i), "duplicate index {i}");
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        // Chi-squared style sanity check on a small modulus.
        let mut rng = Marsaglia::seeded(5);
        let mut counts = [0usize; 8];
        let n = 80_000;
        for _ in 0..n {
            counts[rng.below(8) as usize] += 1;
        }
        let expected = n as f64 / 8.0;
        for (i, &c) in counts.iter().enumerate() {
            let rel = (c as f64 - expected).abs() / expected;
            assert!(rel < 0.05, "bucket {i} off by {rel}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a: Vec<u64> = {
            let mut r = Marsaglia::seeded(42);
            (0..32).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Marsaglia::seeded(42);
            (0..32).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
    }
}
