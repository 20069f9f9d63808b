//! Deterministic random-number generation for the property-test runner.

/// Default number of generated cases per `proptest!` test.
pub const CASES: usize = 128;

/// Number of generated cases per `proptest!` test: `PROPTEST_CASES` from
/// the environment (the variable proptest proper reads), else [`CASES`].
/// The seed stays fixed, so a larger count extends the default run.
///
/// # Panics
///
/// If `PROPTEST_CASES` is set but is not a case count.
pub fn cases() -> usize {
    match std::env::var("PROPTEST_CASES") {
        Ok(value) => value
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("PROPTEST_CASES={value:?} is not a case count")),
        Err(_) => CASES,
    }
}

/// A small deterministic xorshift64* generator.
///
/// Proptest proper uses a seedable ChaCha RNG plus failure persistence; for
/// an offline shim, a fixed seed keeps runs reproducible and fast.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// A generator with the fixed default seed.
    pub fn deterministic() -> Self {
        TestRng {
            state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform-ish value in `0..span` (`span > 0`). The modulo bias is
    /// irrelevant at test-case scale.
    pub fn below(&mut self, span: u64) -> u64 {
        debug_assert!(span > 0);
        self.next_u64() % span
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_sequence() {
        let mut a = TestRng::deterministic();
        let mut b = TestRng::deterministic();
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn below_is_in_range() {
        let mut rng = TestRng::deterministic();
        for _ in 0..1000 {
            assert!(rng.below(7) < 7);
        }
    }
}
