//! Input stimulus for Monte-Carlo logic simulation.
//!
//! The paper estimates circuit error and signal similarities with VECBEE,
//! a Monte-Carlo batch simulator, using 10⁵ sampled input vectors. This
//! module generates the equivalent stimulus in bit-parallel form: each
//! `u64` word carries 64 input samples, so one pass over the netlist
//! simulates 64 vectors at once.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A batch of input vectors, packed 64 per word.
///
/// Word layout is input-major: `word(i, w)` holds samples
/// `64·w .. 64·w+63` of input `i`. When the vector count is not a
/// multiple of 64, the unused high bits of the final word are zero and
/// excluded from all statistics via [`Patterns::tail_mask`].
///
/// # Examples
///
/// ```
/// use tdals_sim::Patterns;
///
/// let p = Patterns::random(8, 1000, 42);
/// assert_eq!(p.input_count(), 8);
/// assert_eq!(p.vector_count(), 1000);
/// assert_eq!(p.word_count(), 16); // ceil(1000 / 64)
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Patterns {
    input_count: usize,
    vector_count: usize,
    word_count: usize,
    /// Input-major storage: `words[i * word_count + w]`, followed by
    /// the constant rows (see [`Patterns::const_rows`]).
    words: Vec<u64>,
}

impl Patterns {
    /// Draws `vector_count` uniform random vectors over `input_count`
    /// inputs from a seeded generator (the paper assumes a uniform input
    /// distribution for both ER and NMED).
    ///
    /// # Panics
    ///
    /// Panics if `vector_count` is zero.
    pub fn random(input_count: usize, vector_count: usize, seed: u64) -> Patterns {
        assert!(vector_count > 0, "need at least one vector");
        let word_count = vector_count.div_ceil(64);
        let mut rng = StdRng::seed_from_u64(seed);
        // Fill whole words branch-free (one RNG draw per word — the
        // draw order is part of the pattern-reproducibility contract),
        // then clip every input's tail through the same shared rule the
        // simulation engines use.
        let mut words = Vec::with_capacity((input_count + 2) * word_count);
        for _ in 0..input_count * word_count {
            words.push(rng.gen::<u64>());
        }
        crate::view::zero_tail_words(&mut words, word_count, tail_mask(vector_count));
        Patterns::from_input_rows(input_count, vector_count, words)
    }

    /// Enumerates all `2^input_count` input vectors (exact error metrics
    /// for small circuits).
    ///
    /// # Panics
    ///
    /// Panics if `input_count` exceeds 24 (16M vectors), a guard against
    /// accidental blow-up.
    pub fn exhaustive(input_count: usize) -> Patterns {
        assert!(
            input_count <= 24,
            "exhaustive patterns limited to 24 inputs"
        );
        let vector_count = 1usize << input_count;
        let word_count = vector_count.div_ceil(64);
        let mut words = vec![0u64; input_count * word_count];
        for v in 0..vector_count {
            for i in 0..input_count {
                if v >> i & 1 == 1 {
                    words[i * word_count + v / 64] |= 1u64 << (v % 64);
                }
            }
        }
        Patterns::from_input_rows(input_count, vector_count, words)
    }

    /// Wraps `input_count` input rows and appends the constant rows.
    fn from_input_rows(input_count: usize, vector_count: usize, mut words: Vec<u64>) -> Patterns {
        let word_count = vector_count.div_ceil(64);
        words.resize((input_count + 1) * word_count, 0);
        words.resize((input_count + 2) * word_count, u64::MAX);
        Patterns {
            input_count,
            vector_count,
            word_count,
            words,
        }
    }

    /// Number of inputs covered by this stimulus.
    pub fn input_count(&self) -> usize {
        self.input_count
    }

    /// Number of vectors in the batch.
    pub fn vector_count(&self) -> usize {
        self.vector_count
    }

    /// Number of 64-bit words per input.
    pub fn word_count(&self) -> usize {
        self.word_count
    }

    /// Word `w` of input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `w` is out of range.
    #[inline]
    pub fn word(&self, i: usize, w: usize) -> u64 {
        assert!(i < self.input_count && w < self.word_count);
        self.words[i * self.word_count + w]
    }

    /// All words of input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn input_words(&self, i: usize) -> &[u64] {
        assert!(i < self.input_count, "input {i} out of range");
        &self.words[i * self.word_count..(i + 1) * self.word_count]
    }

    /// The rows a constant pin reads: `word_count` all-zeros words and
    /// `word_count` all-ones words, built once per stimulus. The ones
    /// row sets the invalid tail bits of its final word; every evaluator
    /// masks the final word of the rows it stores, so those bits never
    /// reach a reader.
    pub(crate) fn const_rows(&self) -> (&[u64], &[u64]) {
        self.words[self.input_count * self.word_count..].split_at(self.word_count)
    }

    /// Mask selecting the valid bits of the final word.
    pub fn tail_mask(&self) -> u64 {
        tail_mask(self.vector_count)
    }

    /// Value of input `i` in vector `v` (slow path for tests/tooling).
    ///
    /// # Panics
    ///
    /// Panics if `i` or `v` is out of range.
    pub fn bit(&self, i: usize, v: usize) -> bool {
        assert!(v < self.vector_count);
        self.word(i, v / 64) >> (v % 64) & 1 == 1
    }
}

/// Mask with the low `vector_count % 64` bits set (all ones when the
/// count is word-aligned).
pub(crate) fn tail_mask(vector_count: usize) -> u64 {
    match vector_count % 64 {
        0 => u64::MAX,
        r => (1u64 << r) - 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = Patterns::random(4, 256, 7);
        let b = Patterns::random(4, 256, 7);
        let c = Patterns::random(4, 256, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn tail_bits_are_zero() {
        let p = Patterns::random(3, 70, 1);
        assert_eq!(p.word_count(), 2);
        for i in 0..3 {
            assert_eq!(p.word(i, 1) & !p.tail_mask(), 0);
        }
    }

    #[test]
    fn exhaustive_counts() {
        let p = Patterns::exhaustive(3);
        assert_eq!(p.vector_count(), 8);
        // Each input is true in exactly half the vectors.
        for i in 0..3 {
            let ones: u32 = p.input_words(i).iter().map(|w| w.count_ones()).sum();
            assert_eq!(ones, 4, "input {i}");
        }
        // Vector v encodes v in binary.
        for v in 0..8 {
            for i in 0..3 {
                assert_eq!(p.bit(i, v), v >> i & 1 == 1);
            }
        }
    }

    #[test]
    fn random_bits_look_uniform() {
        let p = Patterns::random(1, 64 * 100, 99);
        let ones: u32 = p.input_words(0).iter().map(|w| w.count_ones()).sum();
        let frac = f64::from(ones) / 6400.0;
        assert!((0.45..0.55).contains(&frac), "ones fraction {frac}");
    }

    #[test]
    fn const_rows_follow_the_inputs() {
        for p in [Patterns::random(3, 70, 1), Patterns::exhaustive(2)] {
            let (zeros, ones) = p.const_rows();
            assert_eq!(zeros, vec![0; p.word_count()]);
            assert_eq!(ones, vec![u64::MAX; p.word_count()]);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn input_words_reject_the_constant_rows() {
        let _ = Patterns::random(2, 64, 0).input_words(2);
    }

    #[test]
    #[should_panic(expected = "at least one vector")]
    fn zero_vectors_rejected() {
        let _ = Patterns::random(2, 0, 0);
    }
}
