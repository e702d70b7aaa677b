//! Clean twin of the corpus helper crate: the jitter is a pure
//! function of the caller's seed, so no rule has anything to say.

/// Deterministic "jitter" derived from the seed (SplitMix64 finalizer).
pub fn jitter(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Reads the first byte without a bounds check.
///
/// # Safety
///
/// `bytes` must not be empty.
pub unsafe fn first_byte(bytes: &[u8]) -> u8 {
    // SAFETY: the caller guarantees `bytes` is non-empty.
    unsafe { *bytes.get_unchecked(0) }
}

/// Sums the bytes through a raw pointer.
pub fn sum(bytes: &[u8]) -> u64 {
    let p = bytes.as_ptr();
    (0..bytes.len())
        .map(|i| {
            // SAFETY: `i < bytes.len()`, so `p.add(i)` stays inside the slice.
            unsafe { *p.add(i) } as u64
        })
        .sum()
}

/// An owned byte buffer handed between threads.
pub struct Handle(*mut u8);

// SAFETY: a `Handle` is the only pointer to its buffer, so moving it to
// another thread cannot alias it.
unsafe impl Send for Handle {}
