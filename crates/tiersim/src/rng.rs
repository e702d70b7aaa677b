//! Deterministic random-number generator shared across the workspace.
//!
//! Policies and workloads must be reproducible run-to-run so manager
//! comparisons see identical streams; SplitMix64 is small, fast, and
//! deterministic.

/// The SplitMix64 state increment (the golden-ratio constant).
const GAMMA: u64 = 0x9e3779b97f4a7c15;

/// A SplitMix64 generator.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed.wrapping_add(GAMMA) }
    }

    /// Current internal state, for checkpointing mid-stream.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Rebuilds a generator at an exact mid-stream state captured with
    /// [`SplitMix64::state`] (unlike [`SplitMix64::new`], no seed scramble
    /// is applied).
    pub fn from_state(state: u64) -> SplitMix64 {
        SplitMix64 { state }
    }

    /// Skips the next `k` draws in O(1): the state is a counter that
    /// every draw advances by the same increment, so this leaves the
    /// generator exactly where `k` calls of [`SplitMix64::next_u64`]
    /// would. Lets a stream be split into chunks that are generated
    /// independently yet reproduce the serial sequence.
    pub fn advance(&mut self, k: u64) {
        self.state = self.state.wrapping_add(k.wrapping_mul(GAMMA));
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        // Multiply-shift range reduction: bias is negligible for
        // workload-generation purposes.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Approximately standard-normal value (sum of 12 uniforms).
    pub fn gaussian(&mut self) -> f64 {
        let mut s = 0.0;
        for _ in 0..12 {
            s += self.unit_f64();
        }
        s - 6.0
    }

    /// Picks `k` distinct indices out of `[0, n)` (reservoir style);
    /// returns all of them when `k >= n`.
    pub fn sample_indices(&mut self, n: u64, k: usize) -> Vec<u64> {
        if k as u64 >= n {
            return (0..n).collect();
        }
        let mut out: Vec<u64> = (0..k as u64).collect();
        for i in k as u64..n {
            let j = self.below(i + 1);
            if (j as usize) < k {
                out[j as usize] = i;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_stream() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(1);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn state_round_trip_resumes_mid_stream() {
        let mut a = SplitMix64::new(77);
        for _ in 0..13 {
            a.next_u64();
        }
        let mut b = SplitMix64::from_state(a.state());
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn advance_matches_repeated_draws() {
        // The start states near the top of the u64 range make the skipped
        // counter wrap around zero.
        for start in [0, 5, u64::MAX - GAMMA, u64::MAX - 1, u64::MAX] {
            for k in [0, 1, 2, 3, 17, 1000] {
                let mut stepped = SplitMix64::from_state(start);
                for _ in 0..k {
                    stepped.next_u64();
                }
                let mut skipped = SplitMix64::from_state(start);
                skipped.advance(k);
                assert_eq!(skipped.state(), stepped.state(), "start={start:#x} k={k}");
                assert_eq!(skipped.next_u64(), stepped.next_u64(), "start={start:#x} k={k}");
            }
        }
    }

    #[test]
    fn advance_wraps_modulo_two_to_the_64() {
        let mut r = SplitMix64::new(9);
        let start = r.state();
        // u64::MAX + 1 draws is a full period of the counter.
        r.advance(u64::MAX);
        r.advance(1);
        assert_eq!(r.state(), start);
        // Skips compose: (2^64 - 2) then 5 is the same as 3.
        r.advance(u64::MAX - 1);
        r.advance(5);
        let mut three = SplitMix64::from_state(start);
        three.advance(3);
        assert_eq!(r.state(), three.state());
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut r = SplitMix64::new(4);
        let s = r.sample_indices(100, 10);
        assert_eq!(s.len(), 10);
        let set: std::collections::HashSet<_> = s.iter().collect();
        assert_eq!(set.len(), 10);
        assert!(s.iter().all(|&i| i < 100));
    }

    #[test]
    fn sample_indices_saturates() {
        let mut r = SplitMix64::new(4);
        let s = r.sample_indices(5, 10);
        assert_eq!(s, vec![0, 1, 2, 3, 4]);
    }
}
