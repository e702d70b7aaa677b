//! Corpus helper crate: not an ordered crate itself, so only the
//! semantic rules can see what decision paths launder through it.

/// Draws "jitter" from ambient entropy. The textual D3 finding on the
/// draw is suppressed by the `lint.toml` path allow, so only D6 can
/// catch the decision paths that call this.
pub fn jitter() -> u64 {
    let r = rand::random::<u64>();
    r ^ 1
}

/// Carries a misspelled allow slug that L1 must reject.
pub fn quiet() -> u64 {
    7 // lint:allow(wall-clok): misspelled slug for the L1 fixture
}

/// Reads the first byte without a bounds check, but never says what the
/// caller must guarantee.
pub unsafe fn first_byte(bytes: &[u8]) -> u8 {
    *bytes.get_unchecked(0)
}

/// Sums the bytes through a raw pointer, with no safety argument.
pub fn sum(bytes: &[u8]) -> u64 {
    let p = bytes.as_ptr();
    (0..bytes.len()).map(|i| unsafe { *p.add(i) } as u64).sum()
}

/// An owned byte buffer handed between threads.
pub struct Handle(*mut u8);

unsafe impl Send for Handle {}
