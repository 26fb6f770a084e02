//! Chunked lane-parallel kernels over the SoA hot structures — with
//! bit-exact scalar twins.
//!
//! The dispatch-side hot structures are laid out as dense
//! struct-of-arrays (24-byte [`MachineStats`] leaf rows, two-layer
//! `u64` masks) so that lane-parallel kernels can run over them. This
//! module is those kernels: each hot loop's min-reduce / intersect /
//! popcount idiom extracted once, processing `[f64; 4]` / `[u64; 4]`
//! chunks that the optimizer autovectorizes — no intrinsics, no
//! feature gates, no new dependencies.
//!
//! ## The scalar twin
//!
//! Every kernel takes a [`KernelMode`] and ships a scalar twin
//! (`KernelMode::Scalar`) that performs the original element-at-a-time
//! loop. The twins are **bit-exact**: chunking only ever regroups
//! *independent* lanes — it never reassociates a floating-point sum,
//! never reorders a dependent chain, and resolves min ties back to the
//! lowest index in a serial epilogue — so a scheduler configured with
//! `kernels: Scalar` (as `SchedulerConfig::reference()` is) produces
//! byte-identical schedules to the chunked default (locked by the
//! kernel proptests, the scheduler equivalence suites, and the
//! `reference_equivalence` experiment-suite diff).
//!
//! ## Why the arithmetic order is pinned
//!
//! Every runtime knob in this repo is result-neutral. For `f64` that
//! means the kernels must evaluate the *same expression shape* as their
//! scalar twins: IEEE-754 addition is not associative, so a chunked sum
//! that regrouped `a + b + c` would drift from the scalar twin by ulps
//! and break byte-identity. The kernels therefore vectorize only across
//! **independent** elements (lanes = different machines / words) and
//! keep every per-element expression intact. Loops whose elements are
//! *not* independent — the treap's parent-child aggregate chain — and
//! loops where chunking measured ≈ 1× — the tournament's ancestor
//! repair — stay plain scalar code in their own modules (BENCH.md
//! "PR 9" has the measurements).
//!
//! ## Tie-break epilogue contract
//!
//! [`min4_with_index`] (and [`bound_min4`], which delegates to it)
//! split the argmin into a lane-parallel **value pass** — four
//! independent running minima with no index tracking, folded across
//! lanes and the tail in serial order — and an **index pass** that
//! scans for the first element *equal* to that minimum. The scalar
//! strict-`<` fold never replaces its incumbent on a tie, so the
//! lowest-index occurrence of the minimum value is its answer too —
//! the two forms agree bit for bit for any NaN-free input, signed
//! zeros included (`-0.0 < 0.0` is false, so the fold keeps whichever
//! of the pair comes first, exactly what `==` finds). Resolving lanes
//! in lane order instead (lane 0's index even when lane 2 holds an
//! equal value at a lower index) is the bug this contract exists to
//! rule out; `min4_tie_in_a_later_lane_resolves_low` pins it.

use crate::tournament::MachineStats;

/// Lane width of the chunked kernels. Four `f64`s fill a 256-bit
/// vector register and four 24-byte stat rows stay within two cache
/// lines, which is where the autovectorized loops saturate.
pub const LANES: usize = 4;

/// Whether the SoA hot paths run the chunked lane-parallel kernels or
/// their scalar twins. Results are **bit-identical** either way (the
/// repo's standing knob contract; see the module docs) — the modes
/// trade constant factors only, and `Scalar` is the reference the
/// chunked kernels are tested against.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// `[T; 4]`-chunked kernels (autovectorized; the default).
    #[default]
    Chunked,
    /// Element-at-a-time scalar twins — the bit-exact reference.
    Scalar,
}

impl std::fmt::Display for KernelMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            KernelMode::Chunked => "chunked",
            KernelMode::Scalar => "scalar",
        })
    }
}

/// Lexicographic `(value, index)` strict improvement: the shared
/// tie-break of every argmin in the repo (lower value wins; equal
/// values go to the lower index).
#[inline]
fn improves(v: f64, i: usize, best: &Option<(f64, usize)>) -> bool {
    match best {
        None => true,
        Some((bv, bi)) => v < *bv || (v == *bv && i < *bi),
    }
}

/// Lowest-index argmin of a value slice: `Some((value, index))` with
/// ties resolved to the lowest index, `None` only for an empty slice.
///
/// `Chunked` runs four independent index-free running minima (strict
/// `<`) over the `4`-aligned prefix, folds lanes and the tail into
/// the minimum value, then scans for its first occurrence — the
/// tie-break epilogue contract in the module docs spells out why that
/// is bit-identical to the scalar left-to-right fold for any NaN-free
/// input (the callers' slices are bounds and sizes, which are never
/// NaN; `debug_assert`ed).
pub fn min4_with_index(mode: KernelMode, values: &[f64]) -> Option<(f64, usize)> {
    debug_assert!(values.iter().all(|v| !v.is_nan()));
    if values.is_empty() {
        return None;
    }
    if mode == KernelMode::Chunked && values.len() >= LANES {
        // Value pass first, index pass second. Dropping the per-lane
        // index tracking from the min loop leaves a pure lane-parallel
        // min-reduce the vectorizer actually takes; the follow-up scan
        // for the first element *equal* to that minimum returns
        // exactly the index the scalar strict-`<` fold keeps — on ties
        // the fold never replaces its incumbent, so the lowest-index
        // occurrence of the minimum value is the answer in both forms
        // (signed zeros included: -0.0 < 0.0 is false, so the fold
        // keeps whichever of the pair comes first, and so does `==`).
        let chunks = values.len() / LANES;
        let mut lane_min: [f64; LANES] = values[..LANES].try_into().expect("first quad");
        for c in 1..chunks {
            let base = c * LANES;
            for k in 0..LANES {
                let v = values[base + k];
                if v < lane_min[k] {
                    lane_min[k] = v;
                }
            }
        }
        let mut min_v = lane_min[0];
        for &v in &lane_min[1..] {
            if v < min_v {
                min_v = v;
            }
        }
        for &v in &values[chunks * LANES..] {
            if v < min_v {
                min_v = v;
            }
        }
        let idx = values
            .iter()
            .position(|&v| v == min_v)
            .expect("minimum value occurs in its own slice");
        return Some((min_v, idx));
    }
    let mut best: Option<(f64, usize)> = None;
    for (i, &v) in values.iter().enumerate() {
        if improves(v, i, &best) {
            best = Some((v, i));
        }
    }
    best
}

/// Per-leaf dispatch-bound evaluate + argmin over the 24-byte
/// [`MachineStats`] rows: fills `out` with one bound per row (`out`
/// is cleared first) and returns the lowest-index argmin of those
/// bounds (`None` only for an empty row slice). `Scalar` fuses both
/// into the original single running-min loop; `Chunked` fills first
/// and argmins second (see the in-body comment for why).
///
/// `eval4` computes four bounds at once from an aligned row quad —
/// the *leaf-row-slice form* of a scheduler's `λ_ij` lower bound —
/// and must evaluate, lane for lane, the exact expression `eval1`
/// computes for a single row; the kernel proptests and the scheduler
/// equivalence suites pin that contract. `Scalar` ignores `eval4`
/// entirely and runs the original one-row-at-a-time loop.
pub fn bound_min4<E4, E1>(
    mode: KernelMode,
    rows: &[MachineStats],
    out: &mut Vec<f64>,
    mut eval4: E4,
    eval1: E1,
) -> Option<(f64, usize)>
where
    E4: FnMut(usize, &[MachineStats; LANES], &mut [f64; LANES]),
    E1: Fn(usize, &MachineStats) -> f64,
{
    out.clear();
    out.reserve(rows.len());
    if rows.is_empty() {
        return None;
    }
    if mode == KernelMode::Chunked && rows.len() >= LANES {
        // Two passes on purpose: the fill is pure elementwise
        // evaluate-and-store (no cross-lane state, so the whole bound
        // expression vectorizes), and the argmin then runs over the
        // contiguous buffer via [`min4_with_index`] — whose tie-break
        // epilogue makes the combination bit-identical to the scalar
        // fused fold below. A fused chunked loop was measured slower:
        // per-lane running-min/index tracking inside the eval loop
        // defeats the vectorizer on exactly the pass that matters.
        let chunks = rows.len() / LANES;
        let mut lanes = [0.0f64; LANES];
        for c in 0..chunks {
            let base = c * LANES;
            let quad: &[MachineStats; LANES] = rows[base..base + LANES]
                .try_into()
                .expect("quad slice has LANES rows");
            eval4(base, quad, &mut lanes);
            out.extend_from_slice(&lanes);
        }
        for (i, row) in rows.iter().enumerate().skip(chunks * LANES) {
            out.push(eval1(i, row));
        }
        return min4_with_index(mode, out);
    }
    let mut best: Option<(f64, usize)> = None;
    for (i, row) in rows.iter().enumerate() {
        let v = eval1(i, row);
        out.push(v);
        if improves(v, i, &best) {
            best = Some((v, i));
        }
    }
    best
}

/// Aligned word intersect `a & b` into `out_words`, maintaining the
/// one-bit-per-word summary layer in `out_summary`; returns whether
/// any intersection bit is set.
///
/// Processes `min(a.len(), b.len())` words (the schedulers' masks may
/// be narrower than the pool); `out_words` beyond that prefix and
/// pre-existing `out_summary` bits are left untouched, so callers
/// zero both first (the reusable-scratch pattern). `Chunked` works in
/// four-word blocks with branchless summary updates
/// (`(w != 0) as u64` shifted into place) — bit-identical to the
/// scalar branchy loop by construction.
pub fn intersect_words4(
    mode: KernelMode,
    a: &[u64],
    b: &[u64],
    out_words: &mut [u64],
    out_summary: &mut [u64],
) -> bool {
    let n = a.len().min(b.len());
    debug_assert!(out_words.len() >= n);
    debug_assert!(out_summary.len() >= n.div_ceil(64));
    let mut any = false;
    let mut i = 0;
    if mode == KernelMode::Chunked {
        while i + LANES <= n {
            let mut w = [0u64; LANES];
            for k in 0..LANES {
                w[k] = a[i + k] & b[i + k];
            }
            out_words[i..i + LANES].copy_from_slice(&w);
            // Four aligned word indices share one summary word
            // (i % 64 ≤ 60 for 4-aligned i), so the block's summary
            // bits assemble into a nibble and land with a single OR —
            // the same bits the scalar loop sets one at a time.
            let nib = (w[0] != 0) as u64
                | (((w[1] != 0) as u64) << 1)
                | (((w[2] != 0) as u64) << 2)
                | (((w[3] != 0) as u64) << 3);
            out_summary[i / 64] |= nib << (i % 64);
            any |= nib != 0;
            i += LANES;
        }
    }
    for k in i..n {
        let w = a[k] & b[k];
        out_words[k] = w;
        if w != 0 {
            out_summary[k / 64] |= 1u64 << (k % 64);
            any = true;
        }
    }
    any
}

/// Rebuilds the one-bit-per-word summary layer of a word array:
/// `summary[k / 64]` bit `k % 64` is set iff `words[k] != 0`. The
/// caller zeroes `summary` first (the mask-build
/// scratch pattern). `Chunked` processes four words per iteration with
/// branchless bit ORs.
pub fn summarize_words4(mode: KernelMode, words: &[u64], summary: &mut [u64]) {
    debug_assert!(summary.len() >= words.len().div_ceil(64));
    let mut i = 0;
    if mode == KernelMode::Chunked {
        while i + LANES <= words.len() {
            // Four consecutive word indices can straddle a summary-word
            // boundary only when LANES > 64; at LANES = 4 with i
            // advancing by 4 they share `summary[i / 64]` whenever
            // i % 64 <= 60 — which holds for every aligned i — so the
            // block's bits assemble into a nibble and land in one OR.
            let nib = (words[i] != 0) as u64
                | (((words[i + 1] != 0) as u64) << 1)
                | (((words[i + 2] != 0) as u64) << 2)
                | (((words[i + 3] != 0) as u64) << 3);
            summary[i / 64] |= nib << (i % 64);
            i += LANES;
        }
    }
    for (k, &w) in words.iter().enumerate().skip(i) {
        if w != 0 {
            summary[k / 64] |= 1u64 << (k % 64);
        }
    }
}

/// Total set-bit count of a word array, in four-word blocks under
/// `Chunked`. Bit-identical trivially (integer addition commutes).
pub fn popcount_words4(mode: KernelMode, words: &[u64]) -> usize {
    let mut total = 0usize;
    let mut i = 0;
    if mode == KernelMode::Chunked {
        while i + LANES <= words.len() {
            let mut c = [0u32; LANES];
            for k in 0..LANES {
                c[k] = words[i + k].count_ones();
            }
            total += (c[0] + c[1] + c[2] + c[3]) as usize;
            i += LANES;
        }
    }
    for &w in &words[i..] {
        total += w.count_ones() as usize;
    }
    total
}

/// Capped set-bit count: `Some(total)` iff the array's total popcount
/// is at most `cap`, `None` as soon as it provably exceeds `cap`
/// (the sparse-search admission test — only the comparison matters,
/// so dense masks pay a few words, not `O(m/64)`). Both modes agree
/// exactly on this contract; `Chunked` checks once per four-word
/// block instead of once per word.
pub fn popcount_capped4(mode: KernelMode, words: &[u64], cap: usize) -> Option<usize> {
    let mut total = 0usize;
    let mut i = 0;
    if mode == KernelMode::Chunked {
        while i + LANES <= words.len() {
            let mut c = [0u32; LANES];
            for k in 0..LANES {
                c[k] = words[i + k].count_ones();
            }
            total += (c[0] + c[1] + c[2] + c[3]) as usize;
            if total > cap {
                return None;
            }
            i += LANES;
        }
    }
    for &w in &words[i..] {
        total += w.count_ones() as usize;
        if total > cap {
            return None;
        }
    }
    Some(total)
}

/// Visits every set bit of a word array in increasing bit-index order
/// (`f(word_index * 64 + bit)`), one `trailing_zeros` per set bit.
///
/// Deliberately mode-less: set-bit *iteration* is a serial dependency
/// chain (`bits &= bits - 1`), so there is no chunked variant — the
/// walk is the shared serial half of the mask kernels (the dirty-leaf
/// drain and the sparse search's candidate enumeration), extracted
/// here so the word-math half ([`intersect_words4`],
/// [`summarize_words4`], the popcounts) can chunk around it.
pub fn walk_set_bits(words: &[u64], mut f: impl FnMut(usize)) {
    for (k, &word) in words.iter().enumerate() {
        let mut bits = word;
        while bits != 0 {
            f(k * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The lane-boundary sizes every chunked-vs-scalar comparison runs
    /// at: below / at / around one lane quad, the 64-machine word
    /// boundary, and a multi-word size.
    const SIZES: [usize; 9] = [1, 3, 4, 5, 63, 64, 65, 67, 130];

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    fn values_of(m: usize, seed: u64, ties: bool) -> Vec<f64> {
        let mut s = seed | 1;
        (0..m)
            .map(|_| {
                if ties {
                    7.25
                } else {
                    (xorshift(&mut s) % 97) as f64 * 0.25
                }
            })
            .collect()
    }

    #[test]
    fn min4_matches_scalar_at_lane_boundaries() {
        for &m in &SIZES {
            for ties in [false, true] {
                let vals = values_of(m, 0x5EED ^ m as u64, ties);
                let a = min4_with_index(KernelMode::Chunked, &vals);
                let b = min4_with_index(KernelMode::Scalar, &vals);
                assert_eq!(a, b, "m={m} ties={ties}");
                let (v, i) = a.expect("non-empty input");
                // Lowest-index resolution against a hand fold.
                let best = vals.iter().copied().fold(f64::INFINITY, f64::min);
                assert_eq!(v.to_bits(), best.to_bits());
                assert_eq!(i, vals.iter().position(|&x| x == best).unwrap());
                if ties {
                    assert_eq!(i, 0, "all-ties input must resolve to index 0");
                }
            }
        }
        assert_eq!(min4_with_index(KernelMode::Chunked, &[]), None);
        // All-infinite input: the argmin is still the first entry.
        let inf = vec![f64::INFINITY; 6];
        assert_eq!(
            min4_with_index(KernelMode::Chunked, &inf),
            Some((f64::INFINITY, 0))
        );
        assert_eq!(
            min4_with_index(KernelMode::Scalar, &inf),
            Some((f64::INFINITY, 0))
        );
    }

    #[test]
    fn min4_tie_in_a_later_lane_resolves_low() {
        // Lane 2 (index 2) ties lane 0's later minimum (index 4): the
        // epilogue must pick index 2, not lane order.
        let vals = [9.0, 9.0, 1.0, 9.0, 1.0, 9.0, 9.0, 9.0];
        assert_eq!(min4_with_index(KernelMode::Chunked, &vals), Some((1.0, 2)));
        assert_eq!(min4_with_index(KernelMode::Scalar, &vals), Some((1.0, 2)));
    }

    #[test]
    fn bound_min4_matches_scalar_twin() {
        for &m in &SIZES {
            let mut s = 0xB00u64 | m as u64;
            let rows: Vec<MachineStats> = (0..m)
                .map(|_| MachineStats {
                    count: xorshift(&mut s) % 5,
                    wsum: (xorshift(&mut s) % 40) as f64 * 0.5,
                    min_size: (1 + xorshift(&mut s) % 9) as f64,
                })
                .collect();
            // A flow-shaped bound: same expression in both closures.
            let eval1 = |i: usize, r: &MachineStats| {
                4.0 * (i % 3 + 1) as f64 + r.wsum + (r.count as f64) * r.min_size.min(1e9)
            };
            let eval4 = |base: usize, quad: &[MachineStats; LANES], out: &mut [f64; LANES]| {
                for k in 0..LANES {
                    out[k] = eval1(base + k, &quad[k]);
                }
            };
            let mut out_c = Vec::new();
            let mut out_s = Vec::new();
            let a = bound_min4(KernelMode::Chunked, &rows, &mut out_c, eval4, eval1);
            let b = bound_min4(KernelMode::Scalar, &rows, &mut out_s, eval4, eval1);
            assert_eq!(a, b, "m={m}");
            assert_eq!(out_c.len(), m);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out_c), bits(&out_s), "m={m}");
        }
        // All-ties rows: both modes resolve to machine 0.
        let rows = vec![MachineStats::EMPTY; 9];
        let eval1 = |_: usize, _: &MachineStats| 2.5;
        let eval4 = |_: usize, _: &[MachineStats; LANES], out: &mut [f64; LANES]| *out = [2.5; 4];
        let mut out = Vec::new();
        for mode in [KernelMode::Chunked, KernelMode::Scalar] {
            assert_eq!(
                bound_min4(mode, &rows, &mut out, eval4, eval1),
                Some((2.5, 0))
            );
        }
    }

    fn mask_cases(words: usize) -> Vec<Vec<u64>> {
        let mut s = 0xAAu64 | words as u64;
        vec![
            vec![0u64; words],     // empty
            vec![u64::MAX; words], // full
            {
                let mut v = vec![0u64; words];
                v[words - 1] = 1 << 17; // single bit
                v
            },
            (0..words).map(|_| xorshift(&mut s)).collect(), // random
        ]
    }

    #[test]
    fn word_kernels_match_scalar_twins() {
        for &words in &SIZES {
            for a in mask_cases(words) {
                for b in mask_cases(words) {
                    let sw = words.div_ceil(64);
                    let mut wc = vec![0u64; words];
                    let mut sc = vec![0u64; sw];
                    let mut ws = vec![0u64; words];
                    let mut ss = vec![0u64; sw];
                    let any_c = intersect_words4(KernelMode::Chunked, &a, &b, &mut wc, &mut sc);
                    let any_s = intersect_words4(KernelMode::Scalar, &a, &b, &mut ws, &mut ss);
                    assert_eq!(any_c, any_s, "words={words}");
                    assert_eq!(wc, ws);
                    assert_eq!(sc, ss);
                }
                let sw = words.div_ceil(64);
                let mut sc = vec![0u64; sw];
                let mut ss = vec![0u64; sw];
                summarize_words4(KernelMode::Chunked, &a, &mut sc);
                summarize_words4(KernelMode::Scalar, &a, &mut ss);
                assert_eq!(sc, ss, "words={words}");
                assert_eq!(
                    popcount_words4(KernelMode::Chunked, &a),
                    popcount_words4(KernelMode::Scalar, &a)
                );
                for cap in [0usize, 1, 64, 64 * words] {
                    assert_eq!(
                        popcount_capped4(KernelMode::Chunked, &a, cap),
                        popcount_capped4(KernelMode::Scalar, &a, cap),
                        "words={words} cap={cap}"
                    );
                }
                let mut seen = Vec::new();
                walk_set_bits(&a, |i| seen.push(i));
                assert_eq!(seen.len(), popcount_words4(KernelMode::Chunked, &a));
                assert!(seen.windows(2).all(|w| w[0] < w[1]), "walk is ordered");
            }
        }
    }
}
