//! Synthetic power-law graph generation (R-MAT) and CSR storage.
//!
//! The paper's BFS and SSSP run on a 0.9 B-node / 14 B-edge graph (Table
//! 2). We generate R-MAT graphs with the same average degree and traverse
//! them for real, so the simulated access stream has genuine graph-
//! traversal structure (hub pages hot, neighbor lists streamed). Generated
//! graphs are cached per-process because several experiments traverse the
//! same graph under different managers.
//!
//! Generation runs in parallel and still reproduces the serial R-MAT
//! stream byte for byte, whatever the core count (DESIGN.md §5j). The
//! edge range is cut into chunks. Each chunk skips its generator straight
//! to its first edge ([`SplitMix64::advance`]), picks quadrants with
//! integer compares that equal the serial float compares exactly, and
//! writes its edges through per-chunk cursors that keep every adjacency
//! list in serial order. A count pass and a fill pass each regenerate
//! the chunk, so the `(src, dst)` edge list is never stored. On CPUs with
//! AVX-512 both passes draw 8 edges at once, one per vector lane, with the
//! same result as the scalar path.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use tiersim::pool;

use crate::rng::SplitMix64;

/// A graph in compressed-sparse-row form.
#[derive(Debug)]
pub struct Csr {
    /// Number of vertices.
    pub vertices: u32,
    /// `offsets[v]..offsets[v+1]` indexes `neighbors` for vertex `v`.
    pub offsets: Vec<u64>,
    /// Concatenated adjacency lists.
    pub neighbors: Vec<u32>,
}

impl Csr {
    /// Number of directed edges.
    pub fn edges(&self) -> u64 {
        self.neighbors.len() as u64
    }

    /// The adjacency list of `v`.
    pub fn neighbors_of(&self, v: u32) -> &[u32] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: u32) -> u64 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Deterministic pseudo-weight of the edge at position `pos` in
    /// `neighbors`, in `[1, 256]` (SSSP edge weights without storing them).
    pub fn weight_at(pos: u64) -> u64 {
        let mut x = pos.wrapping_mul(0x9e3779b97f4a7c15);
        x ^= x >> 33;
        (x % 256) + 1
    }
}

/// R-MAT parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RmatParams {
    /// Number of vertices (rounded up to a power of two internally).
    pub vertices: u32,
    /// Number of directed edges to generate.
    pub edges: u64,
    /// RNG seed.
    pub seed: u64,
}

/// R-MAT partition probabilities of the top-left, top-right and
/// bottom-left quadrants; the bottom-right quadrant takes the rest.
const A: f64 = 0.57;
const B: f64 = 0.19;
const C: f64 = 0.19;

/// Most chunks one build is split into. Every chunk holds a per-vertex
/// cursor array, so the cap bounds the build's extra memory on large hosts.
const MAX_CHUNKS: usize = 8;

/// Edges generated into a buffer before they are scattered. Separating the
/// dependent draws from the random stores lets the stores' cache misses
/// overlap instead of waiting behind each edge's draws.
const BATCH: usize = 4096;

/// `unit_f64() < p` holds exactly when `(x >> 11) < threshold(p)`:
/// `unit_f64` is `(x >> 11) · 2⁻⁵³` with no rounding, and scaling `p` by a
/// power of two is exact, so the integer compare is the float compare.
fn threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// Everything one chunk needs to regenerate its share of the edge stream.
struct Stream {
    n: u32,
    levels: u32,
    seed: u64,
    /// Integer forms of the cumulative quadrant bounds `A`, `A + B` and
    /// `A + B + C`, computed from the same f64 sums the float compares use.
    thresholds: [u64; 3],
    /// True only when this CPU has AVX-512F and AVX-512DQ, which the
    /// 8-lane kernel needs. Set once per build by [`Stream::new`].
    avx512: bool,
}

impl Stream {
    fn new(params: RmatParams) -> Stream {
        let n = params.vertices.max(2);
        #[cfg(target_arch = "x86_64")]
        let avx512 = is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq");
        #[cfg(not(target_arch = "x86_64"))]
        let avx512 = false;
        Stream {
            n,
            levels: 32 - (n - 1).leading_zeros(),
            seed: params.seed,
            thresholds: [threshold(A), threshold(A + B), threshold(A + B + C)],
            avx512,
        }
    }

    /// Generates the edges of `range` in batches and hands each batch's
    /// sources and destinations to `scatter`; without `DST` only the
    /// sources are drawn and the destination slice is empty. Edge `i`
    /// consumes draws `i·levels..(i+1)·levels` of the seed's stream, so a
    /// chunk starts by skipping straight to its first edge.
    fn for_each_batch<const DST: bool>(
        &self,
        range: Range<usize>,
        mut scatter: impl FnMut(&[u32], &[u32]),
    ) {
        let mut rng = SplitMix64::new(self.seed);
        rng.advance(range.start as u64 * self.levels as u64);
        let cap = BATCH.min(range.len());
        let mut src = vec![0u32; cap];
        let mut dst = vec![0u32; if DST { cap } else { 0 }];
        for first in range.clone().step_by(BATCH) {
            let len = BATCH.min(range.end - first);
            let (src, dst) = (&mut src[..len], &mut dst[..if DST { len } else { 0 }]);
            self.draw_batch::<DST>(&mut rng, src, dst);
            scatter(src, dst);
        }
    }

    /// Draws `src.len()` consecutive edges from `rng` into `src` (and
    /// `dst`, of the same length, when `DST`) and leaves `rng` after the
    /// last one. Whole groups of 8 go through the AVX-512 kernel when the
    /// CPU has it; the rest, and every edge on other CPUs, through
    /// [`Stream::edge`] or [`Stream::source`].
    fn draw_batch<const DST: bool>(&self, rng: &mut SplitMix64, src: &mut [u32], dst: &mut [u32]) {
        let done = if self.avx512 { src.len() / 8 * 8 } else { 0 };
        #[cfg(target_arch = "x86_64")]
        if done > 0 {
            // SAFETY: `avx512` is true only when `is_x86_feature_detected!`
            // found AVX-512F and AVX-512DQ on this CPU (`Stream::new`), the
            // features `avx512::draw_groups` is compiled for.
            unsafe { avx512::draw_groups::<DST>(self, rng.state(), &mut src[..done], dst) };
        }
        rng.advance(done as u64 * self.levels as u64);
        for i in done..src.len() {
            if DST {
                (src[i], dst[i]) = self.edge(rng);
            } else {
                src[i] = self.source(rng);
            }
        }
    }

    /// Draws one edge, one level per draw from the most significant bit
    /// down: `[A, A+B)` sets the dst bit, `[A+B, A+B+C)` the src bit and
    /// the rest both.
    fn edge(&self, rng: &mut SplitMix64) -> (u32, u32) {
        let [t_a, t_ab, t_abc] = self.thresholds;
        let (mut src, mut dst) = (0u32, 0u32);
        for _ in 0..self.levels {
            let u = rng.next_u64() >> 11;
            src = (src << 1) | (u >= t_ab) as u32;
            dst = (dst << 1) | ((u >= t_a) & (u < t_ab) | (u >= t_abc)) as u32;
        }
        (self.fold(src), self.fold(dst))
    }

    /// Draws one edge like [`Stream::edge`] but returns only its source,
    /// which is all the count pass needs.
    fn source(&self, rng: &mut SplitMix64) -> u32 {
        let t_ab = self.thresholds[1];
        let mut src = 0u32;
        for _ in 0..self.levels {
            src = (src << 1) | ((rng.next_u64() >> 11) >= t_ab) as u32;
        }
        self.fold(src)
    }

    /// Folds a cell of the power-of-two grid onto `[0, n)`.
    fn fold(&self, x: u32) -> u32 {
        ((x as u64 * self.n as u64) >> self.levels) as u32
    }
}

/// The 8-lane R-MAT draw kernel (DESIGN.md §5j). It computes exactly what
/// [`Stream::edge`] and [`Stream::source`] compute, for 8 consecutive
/// edges at once, one edge per 64-bit lane.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use std::arch::x86_64::*;

    use tiersim::rng::GAMMA;

    use super::Stream;

    /// The 32-bit value in each lane of `v`, low lane first.
    macro_rules! lanes {
        ($v:expr) => {{
            let v = _mm512_cvtepi64_epi32($v);
            [
                _mm256_extract_epi32::<0>(v) as u32,
                _mm256_extract_epi32::<1>(v) as u32,
                _mm256_extract_epi32::<2>(v) as u32,
                _mm256_extract_epi32::<3>(v) as u32,
                _mm256_extract_epi32::<4>(v) as u32,
                _mm256_extract_epi32::<5>(v) as u32,
                _mm256_extract_epi32::<6>(v) as u32,
                _mm256_extract_epi32::<7>(v) as u32,
            ]
        }};
    }

    /// Draws the `src.len() / 8` groups of 8 consecutive edges that follow
    /// generator state `state` into `src` (and `dst` when `DST`). Lane `j`
    /// of group `k` holds edge `8k + j`, whose first draw is at state
    /// `state + ((8k + j)·levels + 1)·GAMMA`; every level adds `GAMMA`.
    #[target_feature(enable = "avx512f,avx512dq")]
    pub(super) fn draw_groups<const DST: bool>(
        stream: &Stream,
        state: u64,
        src: &mut [u32],
        dst: &mut [u32],
    ) {
        let levels = stream.levels as u64;
        let splat = |x: u64| _mm512_set1_epi64(x as i64);
        let [t_a, t_ab, t_abc] = stream.thresholds.map(splat);
        let (gamma, one) = (splat(GAMMA), splat(1));
        let (n, shift) = (splat(stream.n as u64), splat(levels));
        // SplitMix64's output-mix multipliers (tiersim::rng).
        let (m1, m2) = (splat(0xbf58476d1ce4e5b9), splat(0x94d049bb133111eb));
        let lane = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
        let mut first = _mm512_add_epi64(
            splat(state.wrapping_add(GAMMA)),
            _mm512_mullo_epi64(lane, splat(levels.wrapping_mul(GAMMA))),
        );
        let stride = splat((8 * levels).wrapping_mul(GAMMA));
        // x < 2^levels <= 2^32 and n < 2^32, so the 64-bit product is
        // exact and the fold equals the scalar one.
        let fold = |x: __m512i| _mm512_srlv_epi64(_mm512_mullo_epi64(x, n), shift);
        for (k, out) in src.chunks_exact_mut(8).enumerate() {
            let (mut s, mut d, mut x) = (_mm512_setzero_si512(), _mm512_setzero_si512(), first);
            for _ in 0..levels {
                let z = _mm512_mullo_epi64(_mm512_xor_si512(x, _mm512_srli_epi64::<30>(x)), m1);
                let z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64::<27>(z)), m2);
                let u = _mm512_srli_epi64::<11>(_mm512_xor_si512(z, _mm512_srli_epi64::<31>(z)));
                let ge_ab = _mm512_cmpge_epu64_mask(u, t_ab);
                let s2 = _mm512_slli_epi64::<1>(s);
                s = _mm512_mask_or_epi64(s2, ge_ab, s2, one);
                if DST {
                    // With t_A < t_AB < t_ABC the xor is 1 on [t_A, t_AB)
                    // and above t_ABC, the scalar dst bit.
                    let bit =
                        _mm512_cmpge_epu64_mask(u, t_a) ^ ge_ab ^ _mm512_cmpge_epu64_mask(u, t_abc);
                    let d2 = _mm512_slli_epi64::<1>(d);
                    d = _mm512_mask_or_epi64(d2, bit, d2, one);
                }
                x = _mm512_add_epi64(x, gamma);
            }
            out.copy_from_slice(&lanes!(fold(s)));
            if DST {
                dst[8 * k..8 * k + 8].copy_from_slice(&lanes!(fold(d)));
            }
            first = _mm512_add_epi64(first, stride);
        }
    }
}

/// Generates an R-MAT graph with the canonical (0.57, 0.19, 0.19, 0.05)
/// partition probabilities, producing a skewed (power-law-ish) degree
/// distribution. Uses every available core; the output does not depend
/// on the core count.
pub fn rmat(params: RmatParams) -> Csr {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    rmat_chunked(params, workers.min(MAX_CHUNKS), workers)
}

/// [`rmat`] over `chunks` equal edge ranges on up to `workers` threads.
/// Two passes regenerate each chunk instead of storing an edge list: the
/// first counts every source's out-degree per chunk, the second writes
/// each destination at its source's cursor for that chunk. Chunk `c`'s
/// cursor for `v` starts after every earlier chunk's edges of `v`, so
/// each adjacency list keeps the serial edge order.
fn rmat_chunked(params: RmatParams, chunks: usize, workers: usize) -> Csr {
    let stream = Stream::new(params);
    let n = stream.n as usize;
    let edges = params.edges as usize;
    let chunk_len = edges.div_ceil(chunks.max(1)).max(1);
    let ranges: Vec<Range<usize>> =
        (0..edges).step_by(chunk_len).map(|lo| lo..(lo + chunk_len).min(edges)).collect();

    let mut cursors = pool::map(workers, ranges.clone(), |range| {
        let mut count = vec![0u64; n];
        stream.for_each_batch::<false>(range, |srcs, _| {
            for &src in srcs {
                count[src as usize] += 1;
            }
        });
        count
    });
    let mut offsets = vec![0u64; n + 1];
    let mut at = 0u64;
    for v in 0..n {
        offsets[v] = at;
        for cursor in &mut cursors {
            let count = cursor[v];
            cursor[v] = at;
            at += count;
        }
    }
    offsets[n] = at;

    let neighbors: Vec<AtomicU32> = (0..edges).map(|_| AtomicU32::new(0)).collect();
    let items: Vec<(Range<usize>, Vec<u64>)> = ranges.into_iter().zip(cursors).collect();
    pool::map(workers, items, |(range, mut cursor)| {
        stream.for_each_batch::<true>(range, |srcs, dsts| {
            for (&src, &dst) in srcs.iter().zip(dsts) {
                let at = &mut cursor[src as usize];
                // Positions are disjoint across chunks, so no store races;
                // joining the workers orders every store before the
                // conversion below.
                neighbors[*at as usize].store(dst, Ordering::Relaxed);
                *at += 1;
            }
        });
    });
    let neighbors = neighbors.into_iter().map(AtomicU32::into_inner).collect();
    Csr { vertices: stream.n, offsets, neighbors }
}

/// Returns a process-wide cached graph for the given parameters.
///
/// The cache is single-flight and parallel-run friendly: the map lock is
/// held only long enough to fetch the per-key slot, never across graph
/// generation, so concurrent runs generating *different* graphs proceed
/// in parallel while concurrent requests for the *same* graph block on
/// one generation (via `OnceLock::get_or_init`) instead of duplicating
/// it. Callers get their own `Arc` clone; no lock is held across a run.
pub fn cached_rmat(params: RmatParams) -> Arc<Csr> {
    type Slot = Arc<OnceLock<Arc<Csr>>>;
    static CACHE: OnceLock<Mutex<BTreeMap<(u32, u64, u64), Slot>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(BTreeMap::new()));
    let key = (params.vertices, params.edges, params.seed);
    let slot: Slot = {
        let mut guard = cache.lock().expect("graph cache poisoned");
        guard.entry(key).or_default().clone()
    };
    slot.get_or_init(|| Arc::new(rmat(params))).clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The original serial generator, kept verbatim as the reference the
    /// chunked one must reproduce byte for byte.
    fn rmat_reference(params: RmatParams) -> Csr {
        let n = params.vertices.max(2);
        let levels = 32 - (n - 1).leading_zeros();
        let side = 1u32 << levels;
        let mut rng = SplitMix64::new(params.seed);
        let mut degree = vec![0u64; n as usize + 1];
        let mut edge_list: Vec<(u32, u32)> = Vec::with_capacity(params.edges as usize);
        const A: f64 = 0.57;
        const B: f64 = 0.19;
        const C: f64 = 0.19;
        for _ in 0..params.edges {
            let (mut src, mut dst) = (0u32, 0u32);
            for level in (0..levels).rev() {
                let r = rng.unit_f64();
                let bit = 1u32 << level;
                if r < A {
                    // Top-left quadrant: no bits set.
                } else if r < A + B {
                    dst |= bit;
                } else if r < A + B + C {
                    src |= bit;
                } else {
                    src |= bit;
                    dst |= bit;
                }
            }
            // Fold the power-of-two grid onto [0, n).
            let src = (src as u64 * n as u64 / side as u64) as u32;
            let dst = (dst as u64 * n as u64 / side as u64) as u32;
            degree[src as usize + 1] += 1;
            edge_list.push((src, dst));
        }
        // Prefix sum, then scatter into CSR without sorting.
        let mut offsets = degree;
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor = offsets.clone();
        let mut neighbors = vec![0u32; params.edges as usize];
        for (src, dst) in edge_list {
            let at = cursor[src as usize];
            neighbors[at as usize] = dst;
            cursor[src as usize] += 1;
        }
        Csr { vertices: n, offsets, neighbors }
    }

    /// Chunk/worker counts every equivalence case runs at.
    const SPLITS: [usize; 5] = [1, 2, 3, 7, 16];

    fn assert_matches_reference(p: RmatParams) {
        let want = rmat_reference(p);
        let public = rmat(p);
        assert_eq!(public.vertices, want.vertices, "{p:?}");
        assert_eq!(public.offsets, want.offsets, "{p:?}");
        assert_eq!(public.neighbors, want.neighbors, "{p:?}");
        for k in SPLITS {
            for (chunks, workers) in [(k, k), (k, 2)] {
                let got = rmat_chunked(p, chunks, workers);
                assert_eq!(got.vertices, want.vertices, "{p:?} chunks={chunks}");
                assert_eq!(got.offsets, want.offsets, "{p:?} chunks={chunks} workers={workers}");
                assert_eq!(
                    got.neighbors, want.neighbors,
                    "{p:?} chunks={chunks} workers={workers}"
                );
            }
        }
    }

    #[test]
    fn chunked_matches_reference_on_edge_case_shapes() {
        let shapes = [
            // Non-power-of-two vertex counts.
            (1000, 9_999),
            (3, 64),
            (5_000, 40_000),
            // Fewer than two vertices (clamped to 2).
            (0, 100),
            (1, 100),
            // No edges.
            (1024, 0),
            (0, 0),
            // Fewer edges than chunks.
            (64, 1),
            (64, 5),
            // Edge counts no chunk count divides.
            (777, 10_007),
            (4096, 4096 * 3 + 1),
            // Exactly one full batch, and one past it.
            (512, BATCH as u64 * 2),
            (512, BATCH as u64 * 2 + 1),
        ];
        for (vertices, edges) in shapes {
            for seed in [0, 42, u64::MAX] {
                assert_matches_reference(RmatParams { vertices, edges, seed });
            }
        }
    }

    #[test]
    fn prop_chunked_matches_reference() {
        use proptest_lite::{gen, prop_check};
        prop_check!(
            "rmat_chunked_matches_reference",
            24,
            (gen::u64_range(0, 20_000), gen::u64_range(0, 30_000), gen::u64_range(0, u64::MAX)),
            |&(vertices, edges, seed)| {
                let p = RmatParams { vertices: vertices as u32, edges, seed };
                let want = rmat_reference(p);
                for k in SPLITS {
                    let got = rmat_chunked(p, k, k);
                    proptest_lite::prop_assert_eq!(got.offsets, want.offsets, "chunks={k}");
                    proptest_lite::prop_assert_eq!(got.neighbors, want.neighbors, "chunks={k}");
                }
            }
        );
    }

    /// A generator state whose next draw is `x`, by inverting SplitMix64's
    /// output mix step by step.
    fn state_yielding(x: u64) -> u64 {
        fn unshift(y: u64, s: u32) -> u64 {
            let mut x = y;
            for _ in 0..64 / s {
                x = y ^ (x >> s);
            }
            x
        }
        fn inverse(m: u64) -> u64 {
            // Newton's iteration doubles the correct low bits each step.
            let mut inv = m;
            for _ in 0..6 {
                inv = inv.wrapping_mul(2u64.wrapping_sub(m.wrapping_mul(inv)));
            }
            inv
        }
        let z = unshift(x, 31).wrapping_mul(inverse(0x94d049bb133111eb));
        let z = unshift(z, 27).wrapping_mul(inverse(0xbf58476d1ce4e5b9));
        unshift(z, 30).wrapping_sub(0x9e3779b97f4a7c15)
    }

    #[test]
    fn integer_thresholds_agree_with_unit_f64_compares() {
        let stream = Stream::new(RmatParams { vertices: 1024, edges: 0, seed: 0 });
        let used = [A, A + B, A + B + C].into_iter().zip(stream.thresholds);
        // Below 0.5, p·2⁵³ has a fraction and the ceiling matters.
        let fractional = [B, 0.05, 0.1, 1e-9].map(|p| (p, threshold(p)));
        for (p, t) in used.chain(fractional) {
            for u in [t - 1, t, t + 1] {
                for low in [0, 0x7ff] {
                    let x = (u << 11) | low;
                    let mut rng = SplitMix64::from_state(state_yielding(x));
                    assert_eq!(rng.clone().next_u64(), x);
                    assert_eq!(rng.unit_f64() < p, u < t, "p={p} t={t} u={u}");
                }
            }
        }
    }

    /// The batch kernel against the scalar path for every `levels`, at
    /// start states that wrap the counter and batch lengths with and
    /// without whole groups of 8. On CPUs without AVX-512 both sides run
    /// the scalar path.
    #[test]
    fn avx512_batches_match_scalar_batches() {
        use tiersim::rng::GAMMA;
        let mut random = SplitMix64::new(0x5eed);
        for levels in 1..=32u32 {
            for n in [(1u64 << (levels - 1)) + 1, (1u64 << levels).min(u32::MAX as u64)] {
                let p = RmatParams { vertices: n as u32, edges: 0, seed: 0 };
                let fast = Stream::new(p);
                let scalar = Stream { avx512: false, ..Stream::new(p) };
                assert_eq!(fast.levels, levels);
                let states =
                    [0, u64::MAX, 0u64.wrapping_sub(GAMMA), random.next_u64(), random.next_u64()];
                for state in states {
                    for count in 0..=37 {
                        let draw = |stream: &Stream, dst_len: usize| {
                            let mut rng = SplitMix64::from_state(state);
                            let (mut src, mut dst) = (vec![0; count], vec![0; dst_len]);
                            if dst_len > 0 {
                                stream.draw_batch::<true>(&mut rng, &mut src, &mut dst);
                            } else {
                                stream.draw_batch::<false>(&mut rng, &mut src, &mut dst);
                            }
                            (src, dst, rng.state())
                        };
                        let at = format!("n={n} state={state:#x} count={count}");
                        assert_eq!(draw(&fast, count), draw(&scalar, count), "edges {at}");
                        assert_eq!(draw(&fast, 0), draw(&scalar, 0), "sources {at}");
                    }
                }
            }
        }
    }

    fn small() -> Csr {
        rmat(RmatParams { vertices: 1024, edges: 16_384, seed: 42 })
    }

    #[test]
    fn csr_is_well_formed() {
        let g = small();
        assert_eq!(g.vertices, 1024);
        assert_eq!(g.edges(), 16_384);
        assert_eq!(g.offsets.len(), 1025);
        assert_eq!(*g.offsets.last().unwrap(), 16_384);
        // Offsets are monotone.
        for w in g.offsets.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // All neighbors in range.
        assert!(g.neighbors.iter().all(|&v| v < 1024));
    }

    #[test]
    fn degree_distribution_is_skewed() {
        let g = small();
        let mut degrees: Vec<u64> = (0..g.vertices).map(|v| g.degree(v)).collect();
        degrees.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = degrees.iter().sum();
        let top: u64 = degrees.iter().take(g.vertices as usize / 20).sum();
        assert!(
            top as f64 > 0.25 * total as f64,
            "top 5 % of vertices hold a large edge share ({top}/{total})"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.neighbors, b.neighbors);
    }

    #[test]
    fn cache_returns_same_instance() {
        let p = RmatParams { vertices: 256, edges: 1024, seed: 1 };
        let a = cached_rmat(p);
        let b = cached_rmat(p);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn cache_is_single_flight_under_contention() {
        let p = RmatParams { vertices: 512, edges: 4096, seed: 99 };
        let handles: Vec<_> =
            (0..8).map(|_| std::thread::spawn(move || cached_rmat(p))).collect();
        let first = cached_rmat(p);
        for h in handles {
            assert!(Arc::ptr_eq(&h.join().expect("no panic"), &first));
        }
    }

    #[test]
    fn quick_profile_bfs_graph_matches_golden_digest() {
        let mut h = 0xcbf29ce484222325u64;
        let g = rmat(crate::bfs::BfsConfig::paper(4096, 1).graph);
        let offsets = g.offsets.iter().flat_map(|o| o.to_le_bytes());
        let neighbors = g.neighbors.iter().flat_map(|v| v.to_le_bytes());
        for b in offsets.chain(neighbors) {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        assert_eq!((g.vertices, g.edges()), (219_726, 3_417_968));
        // Pinned from the serial generator the chunked one replaced.
        assert_eq!(h, 0xacb7ca52ad5c1072, "{h:#018x}");
    }

    #[test]
    fn weights_are_bounded_and_stable() {
        for pos in 0..1000u64 {
            let w = Csr::weight_at(pos);
            assert!((1..=256).contains(&w));
            assert_eq!(w, Csr::weight_at(pos));
        }
    }
}
