//! Jobs, size rows and identifiers.
//!
//! # Size rows
//!
//! A job's `p_ij` row is a [`SizeRow`]: one size per machine, with
//! `f64::INFINITY` marking a machine the job cannot use. A row is
//! stored in one of two forms, picked when it is built by one fixed
//! rule that compares their byte sizes:
//!
//! * **dense** — a `Box<[f64]>`, 8 bytes per machine;
//! * **sparse** — the row width `m` plus the sorted machine ids
//!   (`u32`) of its finite entries and their sizes, 12 bytes per
//!   finite entry. Every absent machine reads `∞`.
//!
//! A row is sparse iff `12 · finite < 8 · m` and every non-`∞` entry
//! is finite and positive (the only sizes a sparse record can carry;
//! a row holding `NaN`, `-∞` or a non-positive size stays dense so it
//! reaches [`Job::validate`] unchanged). A restricted-assignment row
//! with three finite sizes among 16 384 machines therefore costs 36
//! bytes instead of 128 KiB, while a fully eligible row stays a plain
//! slice. There is no knob: the same values always build the same
//! form, so [`SizeRow::form`] is a pure function of the row.
//!
//! Every accessor reads the same bits from either form: [`SizeRow::get`]
//! and `Index<usize>` (`∞` off the sparse set), [`SizeRow::iter`] over
//! all `m` entries (yielding a static `∞` for absent ones),
//! [`SizeRow::iter_finite`] over the finite entries only, and
//! [`SizeRow::as_dense`] for the dense slice. Hot loops that read many
//! entries match on [`SizeRow::form`] once and monomorphize per form
//! instead of branching per entry.
//!
//! # Derived caches
//!
//! Besides the size row, every [`Job`] carries three **derived
//! caches** computed once at construction time:
//!
//! * `p̂_j = min_i { p_ij : p_ij < ∞ }` ([`Job::p_hat`]) — the cheapest
//!   eligible size, the job-side input to the pruned dispatch bounds
//!   (`osr_core::dispatch`). Before this cache every arrival rescanned
//!   the whole `sizes` row — an `O(m)` pass the ROADMAP flagged as the
//!   remaining dispatch head-room after PR 2's tournament index.
//! * an eligibility bitmask ([`Job::elig`], [`EligMask`]) — which
//!   machines have finite `p_ij`, so restricted-assignment consumers can
//!   test/count eligibility without touching the float row.
//! * **rack-local `p̂` minima** ([`Job::rack_p_hat`], [`RackPHat`]) —
//!   for every non-uniform row, the finite-size minimum per 64-machine
//!   rack (one entry per [`EligMask`] word) plus a coarser
//!   per-4096-machine layer. The pruned dispatch search bounds each
//!   subtree with the *range's own* cheapest eligible size instead of
//!   the global `p̂`, which is what makes the bounds bite wherever a
//!   job's sizes vary across machines: rack-affinity rows and dense
//!   unrelated-machine rows alike.
//!
//! All three come out of one scan of the row: a dense row is read once,
//! 64 machines (one mask word) at a time, and a sparse row costs
//! `O(finite + m/64)`. The caches are pure functions of the row's
//! values, not of its form, so schedulers read the same bits either
//! way. [`Job::validate`] (and therefore [`crate::Instance::new`])
//! rejects a job whose caches were desynchronized by replacing the
//! public `sizes` field.

use std::fmt;
use std::ops::Index;

use crate::time::{check_release_keeps_size, check_time, valid_positive};

/// What every absent entry of a sparse [`SizeRow`] reads as.
static INF: f64 = f64::INFINITY;

/// The most machines an instance, a session or a size row may have:
/// every machine id fits the `u32` of a [`MachineId`] and of a sparse
/// row's ids. The one domain of a machine count `m`.
pub const MAX_MACHINES: usize = u32::MAX as usize + 1;

/// Refuses a machine count past [`MAX_MACHINES`], so that a reader of
/// `m` errors before anything is allocated per machine.
pub fn check_machines(m: usize) -> Result<usize, String> {
    if m > MAX_MACHINES {
        return Err(format!(
            "machine count {m} exceeds the u32 machine ids (at most {MAX_MACHINES})"
        ));
    }
    Ok(m)
}

/// Whether `finite` stored entries over `width` machines take fewer
/// bytes sparse (a `u32` id plus an `f64` each) than dense (an `f64`
/// per machine). The one rule that picks a [`SizeRow`]'s form.
#[inline]
fn sparse_is_smaller(finite: usize, width: usize) -> bool {
    width <= MAX_MACHINES && 12 * finite < 8 * width
}

/// Whether a sparse row may store size `p` (see the module docs).
#[inline]
fn storable(p: f64) -> bool {
    p.is_finite() && p > 0.0
}

/// A job's size row `p_ij` over `m` machines, dense or sparse (see the
/// module docs for the form rule and the accessors).
#[derive(Clone)]
pub struct SizeRow(Repr);

#[derive(Clone)]
enum Repr {
    Dense(Box<[f64]>),
    Sparse {
        width: usize,
        ids: Box<[u32]>,
        vals: Box<[f64]>,
    },
}

/// A borrowed [`SizeRow`] in its stored form, for loops that read many
/// entries: match once, then index the form directly.
#[derive(Debug, Clone, Copy)]
pub enum RowForm<'a> {
    /// One size per machine.
    Dense(&'a [f64]),
    /// Finite entries only; every other machine is `∞`.
    Sparse(SparseRow<'a>),
}

/// The sparse form of a [`SizeRow`]: machine ids in increasing order
/// and their finite, positive sizes.
#[derive(Debug, Clone, Copy)]
pub struct SparseRow<'a> {
    width: usize,
    ids: &'a [u32],
    vals: &'a [f64],
}

impl<'a> SparseRow<'a> {
    /// Row width `m` (machines, present or not).
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Machine ids of the finite entries, strictly increasing.
    #[inline]
    pub fn ids(&self) -> &'a [u32] {
        self.ids
    }

    /// Sizes of the finite entries, parallel to [`Self::ids`].
    #[inline]
    pub fn vals(&self) -> &'a [f64] {
        self.vals
    }

    /// Size on machine `i` (`∞` off the stored set). Panics if
    /// `i ≥ width`, like slice indexing.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        self.slot(i).map_or(f64::INFINITY, |k| self.vals[k])
    }

    /// Position of machine `i` among the stored entries.
    #[inline]
    fn slot(&self, i: usize) -> Option<usize> {
        assert!(
            i < self.width,
            "machine {i} out of range for a row of width {}",
            self.width
        );
        self.ids.binary_search(&(i as u32)).ok()
    }

    /// The stored `(machine, size)` pairs, in increasing machine order.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, f64)> + 'a {
        self.ids
            .iter()
            .zip(self.vals)
            .map(|(&i, &p)| (i as usize, p))
    }
}

impl SizeRow {
    /// Builds a row from its finite entries: `ids` strictly increasing
    /// and below `width`, each size finite and positive. Every other
    /// machine is `∞`. The form follows the byte-size rule, so a pair
    /// list that would be larger than the dense row builds a dense row.
    pub fn from_pairs(width: usize, ids: Vec<u32>, vals: Vec<f64>) -> Result<SizeRow, String> {
        if width > MAX_MACHINES {
            return Err(format!("row width {width} exceeds the u32 machine ids"));
        }
        if ids.len() != vals.len() {
            return Err(format!(
                "{} machine ids but {} sizes",
                ids.len(),
                vals.len()
            ));
        }
        if let Some(w) = ids.windows(2).find(|w| w[0] >= w[1]) {
            return Err(format!(
                "machine ids must be strictly increasing, got {} then {}",
                w[0], w[1]
            ));
        }
        if let Some(&last) = ids.last() {
            if last as usize >= width {
                return Err(format!("machine id {last} out of range for m={width}"));
            }
        }
        if let Some((&i, &p)) = ids.iter().zip(&vals).find(|(_, &p)| !storable(p)) {
            return Err(format!(
                "size {p} on machine {i} must be finite and positive"
            ));
        }
        if sparse_is_smaller(ids.len(), width) {
            return Ok(SizeRow(Repr::Sparse {
                width,
                ids: ids.into_boxed_slice(),
                vals: vals.into_boxed_slice(),
            }));
        }
        let mut dense = vec![f64::INFINITY; width];
        for (&i, &p) in ids.iter().zip(&vals) {
            dense[i as usize] = p;
        }
        Ok(SizeRow(Repr::Dense(dense.into_boxed_slice())))
    }

    /// Number of machines `m` (the row width, in either form).
    #[inline]
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Dense(row) => row.len(),
            Repr::Sparse { width, .. } => *width,
        }
    }

    /// Whether the row covers no machine at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size on machine `i` (`∞` where the job cannot run). Panics if
    /// `i ≥ len()`, like slice indexing.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        self[i]
    }

    /// The row in its stored form.
    #[inline]
    pub fn form(&self) -> RowForm<'_> {
        match &self.0 {
            Repr::Dense(row) => RowForm::Dense(row),
            Repr::Sparse { width, ids, vals } => RowForm::Sparse(SparseRow {
                width: *width,
                ids,
                vals,
            }),
        }
    }

    /// The dense slice, or `None` for a sparse row.
    #[inline]
    pub fn as_dense(&self) -> Option<&[f64]> {
        match &self.0 {
            Repr::Dense(row) => Some(row),
            Repr::Sparse { .. } => None,
        }
    }

    /// Every entry, one per machine, in machine order. A sparse row
    /// yields a static `∞` for each absent machine.
    pub fn iter(&self) -> Iter<'_> {
        Iter(match self.form() {
            RowForm::Dense(row) => IterRepr::Dense(row.iter()),
            RowForm::Sparse(sp) => IterRepr::Sparse { next: 0, row: sp },
        })
    }

    /// The finite entries as `(machine, size)`, in machine order.
    /// `O(finite)` for a sparse row.
    pub fn iter_finite(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.stored().filter(|(_, p)| p.is_finite())
    }

    /// The cheapest size `p̂ = min_i p_i`, skipping NaN (`∞` when no
    /// size is finite). For a valid row, whose sizes are positive or
    /// `∞`, this is the value [`Job::p_hat`] caches for a job built
    /// from it.
    pub fn p_hat(&self) -> f64 {
        let row = match self.form() {
            RowForm::Dense(row) => row,
            RowForm::Sparse(sp) => sp.vals,
        };
        // Four independent lanes so the loop vectorizes; `p < m` is
        // false for NaN and for +∞, so neither is ever taken.
        let mut lanes = [f64::INFINITY; 4];
        let chunks = row.chunks_exact(4);
        let tail = chunks.remainder();
        for c in chunks {
            for (m, &p) in lanes.iter_mut().zip(c) {
                *m = if p < *m { p } else { *m };
            }
        }
        for (m, &p) in lanes.iter_mut().zip(tail) {
            *m = if p < *m { p } else { *m };
        }
        lanes.into_iter().fold(f64::INFINITY, f64::min)
    }

    /// Every entry a row stores, as `(machine, size)` in machine order:
    /// all of a dense row, the pairs of a sparse one (every other entry
    /// of which is `∞`).
    fn stored(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        // One part is empty: the dense slice or the stored pairs.
        let (row, ids, vals): (&[f64], &[u32], &[f64]) = match self.form() {
            RowForm::Dense(row) => (row, &[], &[]),
            RowForm::Sparse(sp) => (&[], sp.ids, sp.vals),
        };
        row.iter()
            .copied()
            .enumerate()
            .chain(ids.iter().zip(vals).map(|(&i, &p)| (i as usize, p)))
    }

    /// The row as a dense vector.
    pub fn to_vec(&self) -> Vec<f64> {
        self.iter().copied().collect()
    }
}

impl From<Vec<f64>> for SizeRow {
    /// Builds the row in the form the byte-size rule picks.
    fn from(sizes: Vec<f64>) -> Self {
        let mut finite = 0;
        let mut fits = true;
        for &p in &sizes {
            if p != f64::INFINITY {
                finite += 1;
                fits &= storable(p);
            }
        }
        if !(fits && sparse_is_smaller(finite, sizes.len())) {
            return SizeRow(Repr::Dense(sizes.into_boxed_slice()));
        }
        let (mut ids, mut vals) = (Vec::with_capacity(finite), Vec::with_capacity(finite));
        for (i, &p) in sizes.iter().enumerate() {
            if p != f64::INFINITY {
                ids.push(i as u32);
                vals.push(p);
            }
        }
        SizeRow(Repr::Sparse {
            width: sizes.len(),
            ids: ids.into_boxed_slice(),
            vals: vals.into_boxed_slice(),
        })
    }
}

impl FromIterator<f64> for SizeRow {
    /// Collects one size per machine, then picks the form.
    fn from_iter<I: IntoIterator<Item = f64>>(sizes: I) -> Self {
        sizes.into_iter().collect::<Vec<f64>>().into()
    }
}

impl Index<usize> for SizeRow {
    type Output = f64;

    #[inline]
    fn index(&self, i: usize) -> &f64 {
        match self.form() {
            RowForm::Dense(row) => &row[i],
            RowForm::Sparse(sp) => sp.slot(i).map_or(&INF, |k| &sp.vals[k]),
        }
    }
}

impl PartialEq for SizeRow {
    /// Entry-wise `==`, as `Vec<f64>` compares, whatever the forms.
    fn eq(&self, other: &Self) -> bool {
        match (self.form(), other.form()) {
            (RowForm::Dense(a), RowForm::Dense(b)) => a == b,
            (RowForm::Sparse(a), RowForm::Sparse(b)) => {
                a.width == b.width && a.ids == b.ids && a.vals == b.vals
            }
            _ => self.len() == other.len() && self.iter().eq(other.iter()),
        }
    }
}

impl PartialEq<Vec<f64>> for SizeRow {
    fn eq(&self, other: &Vec<f64>) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for SizeRow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.form() {
            RowForm::Dense(row) => f.debug_tuple("Dense").field(&row).finish(),
            RowForm::Sparse(sp) => f
                .debug_struct("Sparse")
                .field("width", &sp.width)
                .field("finite", &sp.pairs().collect::<Vec<_>>())
                .finish(),
        }
    }
}

impl<'a> IntoIterator for &'a SizeRow {
    type Item = &'a f64;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

/// Iterator over every entry of a [`SizeRow`]; see [`SizeRow::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a>(IterRepr<'a>);

#[derive(Debug, Clone)]
enum IterRepr<'a> {
    Dense(std::slice::Iter<'a, f64>),
    /// `row` shrinks from the front as its entries are yielded.
    Sparse {
        next: usize,
        row: SparseRow<'a>,
    },
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a f64;

    #[inline]
    fn next(&mut self) -> Option<&'a f64> {
        match &mut self.0 {
            IterRepr::Dense(it) => it.next(),
            IterRepr::Sparse { next, row } => {
                if *next == row.width {
                    return None;
                }
                let i = *next;
                *next += 1;
                match row.ids.first() {
                    Some(&id) if id as usize == i => {
                        let v = &row.vals[0];
                        row.ids = &row.ids[1..];
                        row.vals = &row.vals[1..];
                        Some(v)
                    }
                    _ => Some(&INF),
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match &self.0 {
            IterRepr::Dense(it) => it.len(),
            IterRepr::Sparse { next, row } => row.width - next,
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for Iter<'_> {}

/// The derived caches of one row, built in one scan (see the module
/// docs): `(p̂, mask, rack minima)`.
fn derive_caches(sizes: RowForm<'_>) -> (f64, EligMask, Option<RackPHat>) {
    let width = match sizes {
        RowForm::Dense(row) => row.len(),
        RowForm::Sparse(sp) => sp.width,
    };
    let n_words = width.div_ceil(64);
    let mut words = vec![0u64; n_words];
    let mut word_min = vec![f64::INFINITY; n_words];
    let mut p_hat = f64::INFINITY;
    // `uniform`: every size finite and bit-equal (only then do the
    // racks all share the global p̂).
    let (all_finite, uniform) = match sizes {
        RowForm::Dense(row) => {
            let first = row.first().map_or(0, |p| p.to_bits());
            let (mut all, mut same) = (true, true);
            for ((chunk, word), wmin) in row.chunks(64).zip(&mut words).zip(&mut word_min) {
                let mut bits = 0u64;
                for (b, &p) in chunk.iter().enumerate() {
                    same &= p.to_bits() == first;
                    if p.is_finite() {
                        bits |= 1 << b;
                        if p < *wmin {
                            *wmin = p;
                        }
                        p_hat = p_hat.min(p);
                    }
                }
                all &= bits == u64::MAX >> (64 - chunk.len());
                *word = bits;
            }
            (all, all && same)
        }
        RowForm::Sparse(sp) => {
            for (&i, &p) in sp.ids.iter().zip(sp.vals) {
                let (k, b) = (i as usize / 64, i % 64);
                words[k] |= 1 << b;
                if p < word_min[k] {
                    word_min[k] = p;
                }
                p_hat = p_hat.min(p);
            }
            // The form rule never builds a full sparse row, but the
            // caches must not depend on the form.
            let all = sp.ids.len() == width;
            let first = sp.vals.first().map_or(0, |p| p.to_bits());
            (all, all && sp.vals.iter().all(|p| p.to_bits() == first))
        }
    };
    let elig = if all_finite {
        EligMask::All
    } else {
        let mut summary = vec![0u64; n_words.div_ceil(64)];
        for (k, &w) in words.iter().enumerate() {
            if w != 0 {
                summary[k / 64] |= 1 << (k % 64);
            }
        }
        EligMask::Words {
            words: words.into_boxed_slice(),
            summary: summary.into_boxed_slice(),
        }
    };
    let rack = (!uniform).then(|| {
        let mut block_min = vec![f64::INFINITY; n_words.div_ceil(64)].into_boxed_slice();
        for (k, w) in word_min.iter().enumerate() {
            if *w < block_min[k / 64] {
                block_min[k / 64] = *w;
            }
        }
        RackPHat {
            word_min: word_min.into_boxed_slice(),
            block_min,
        }
    });
    (p_hat, elig, rack)
}

/// Machine-eligibility bitmask cached on a [`Job`].
///
/// The canonical representation is chosen by [`Job`]'s constructors:
/// fully-eligible jobs (every `p_ij` finite — the common dense case)
/// use [`EligMask::All`] and allocate nothing; any restricted row gets
/// one bit per machine, LSB-first within 64-bit words, **plus** a
/// summary layer with one bit per word (`summary[k/64]` bit `k % 64`
/// set iff `words[k] != 0`). The summary is what lets the mask-guided
/// dispatch descent (`osr_dstruct::MaskView`) answer "any eligible
/// machine in this subtree's range?" with a single word read for
/// subtree spans up to 4096 machines. Both layers are pure functions
/// of the size row, so derived `PartialEq` on jobs stays exact.
#[derive(Debug, Clone, PartialEq)]
pub enum EligMask {
    /// Every machine is eligible (no allocation).
    All,
    /// Restricted eligibility, one bit per machine.
    Words {
        /// Bit `i % 64` of word `i / 64` is set iff machine `i` is
        /// eligible.
        words: Box<[u64]>,
        /// One bit per word of `words` (set iff that word is
        /// non-zero) — the subtree-intersection fast path.
        summary: Box<[u64]>,
    },
}

impl EligMask {
    /// Derives the canonical mask from a dense size row.
    pub fn from_sizes(sizes: &[f64]) -> Self {
        derive_caches(RowForm::Dense(sizes)).1
    }

    /// Whether machine `i` is eligible.
    #[inline]
    pub fn test(&self, i: usize) -> bool {
        match self {
            EligMask::All => true,
            EligMask::Words { words, .. } => (words[i / 64] >> (i % 64)) & 1 == 1,
        }
    }

    /// Number of eligible machines among `machines` total.
    pub fn count(&self, machines: usize) -> usize {
        match self {
            EligMask::All => machines,
            EligMask::Words { words, .. } => words.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    /// Whether any machine is eligible.
    pub fn any(&self) -> bool {
        match self {
            EligMask::All => true,
            EligMask::Words { words, .. } => words.iter().any(|&x| x != 0),
        }
    }

    /// The `(words, summary)` layers of a restricted mask, or `None`
    /// for [`EligMask::All`] — the borrowed form the mask-guided
    /// dispatch search (`osr_dstruct::MaskView`) consumes without
    /// copying.
    #[inline]
    pub fn word_layers(&self) -> Option<(&[u64], &[u64])> {
        match self {
            EligMask::All => None,
            EligMask::Words { words, summary } => Some((words, summary)),
        }
    }

    /// Whether this mask has the word width a mask for `machines`
    /// machines must have ([`EligMask::All`] fits any width). A
    /// too-narrow mask makes [`EligMask::test`] panic on high machine
    /// indices; a too-wide one silently answers from padding bits —
    /// [`Job::validate`] rejects both.
    pub fn width_matches(&self, machines: usize) -> bool {
        match self {
            EligMask::All => true,
            EligMask::Words { words, summary } => {
                words.len() == machines.div_ceil(64) && summary.len() == words.len().div_ceil(64)
            }
        }
    }
}

/// Rack-local finite-size minima cached on a [`Job`] beside its
/// [`EligMask`] — the job-side input that lets the pruned dispatch
/// search bound a subtree with the *range's own* cheapest eligible
/// size instead of the global `p̂`.
///
/// Two layers, mirroring the mask's word layout exactly:
///
/// * [`RackPHat::word_min`] — one entry per 64-machine mask word:
///   `min { p_ij : p_ij < ∞, i ∈ word }`, `∞` when the word has no
///   eligible machine;
/// * [`RackPHat::block_min`] — one entry per 64 words (4096 machines):
///   the min over that block's `word_min` entries.
///
/// A tournament subtree's machine range is a power-of-two span aligned
/// to its size, so [`RackPHat::range_min`] resolves it with a single
/// array read for spans up to 4096 machines (the word for spans ≤ 64,
/// the block beyond) and a short block scan above. The resolved value
/// is the minimum over a *superset* of the range (the containing
/// word/block), hence always `≤ p_ij` for every eligible machine in
/// the range — a sound bound input, merely looser when the span is
/// smaller than its container.
///
/// Built for every row whose sizes are not all finite and bit-equal:
/// restricted rows and dense unrelated rows alike. Only a uniform row
/// (identical machines) keeps the allocation-free global `p̂`, since
/// there every rack minimum *is* the global one. The cost is
/// `m/64 + m/4096` floats per job (136 B at m = 1 024, beside an 8 KB
/// row). Like the other caches this is a pure function of `sizes`, and
/// [`Job::validate`] rejects a desynchronized instance (bit-exact
/// comparison).
#[derive(Debug, Clone)]
pub struct RackPHat {
    word_min: Box<[f64]>,
    block_min: Box<[f64]>,
}

impl PartialEq for RackPHat {
    fn eq(&self, other: &Self) -> bool {
        // Bit-exact: the staleness check must not let "equal-looking"
        // drifted values through (mirrors the p̂ `to_bits` comparison).
        let bits = |xs: &[f64], ys: &[f64]| {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(a, b)| a.to_bits() == b.to_bits())
        };
        bits(&self.word_min, &other.word_min) && bits(&self.block_min, &other.block_min)
    }
}

impl RackPHat {
    /// Per-64-machine-rack minima (one entry per [`EligMask`] word).
    #[inline]
    pub fn word_min(&self) -> &[f64] {
        &self.word_min
    }

    /// Per-4096-machine-block minima (one entry per 64 words).
    #[inline]
    pub fn block_min(&self) -> &[f64] {
        &self.block_min
    }

    /// Lower bound on `min { p_ij : p_ij < ∞ }` over the aligned
    /// machine range `[lo, lo + span)` (`span` a power of two, `lo` a
    /// multiple of `span` — exactly the ranges tournament nodes
    /// cover). `O(1)` for `span ≤ 4096`; one block entry per 4096
    /// machines beyond. Ranges wholly past the row (a padding subtree)
    /// resolve to `∞`.
    #[inline]
    pub fn range_min(&self, lo: usize, span: usize) -> f64 {
        if span <= 64 {
            // The range lies inside one word (span divides 64).
            self.word_min.get(lo / 64).copied().unwrap_or(f64::INFINITY)
        } else if span <= 4096 {
            // Inside one block (span divides 4096).
            self.block_min
                .get(lo / 4096)
                .copied()
                .unwrap_or(f64::INFINITY)
        } else {
            let first = (lo / 4096).min(self.block_min.len());
            let last = ((lo + span) / 4096).min(self.block_min.len());
            self.block_min[first..last]
                .iter()
                .fold(f64::INFINITY, |m, &v| m.min(v))
        }
    }
}

/// Identifier of a job within an [`crate::Instance`].
///
/// Job ids are dense indices `0..n` into `Instance::jobs`, so they can be
/// used directly as `Vec` indices throughout the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u32);

impl JobId {
    /// The id as a `usize` index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "j{}", self.0)
    }
}

/// Identifier of a machine within an [`crate::Instance`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MachineId(pub u32);

impl MachineId {
    /// The id as a `usize` index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for MachineId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// A job in the unrelated-machines model.
///
/// `sizes[i]` is the processing requirement `p_ij` on machine `i`:
///
/// * in the flow-time problem (§2) it is a **processing time** — the job
///   occupies machine `i` for exactly `sizes[i]` time units;
/// * in the speed-scaling problems (§3, §4) it is a **volume** — running
///   at constant speed `s`, the job occupies the machine for
///   `sizes[i] / s` time units.
///
/// A size of `f64::INFINITY` encodes "job cannot run on this machine"
/// (restricted-assignment workloads). A job may be infinite on *every*
/// machine — such a job is representable input (it can arrive over the
/// wire in a trace) and schedulers reject it at arrival with
/// [`crate::RejectReason::Ineligible`] rather than refusing the whole
/// instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Dense id; equals the job's index in its instance.
    pub id: JobId,
    /// Release time `r_j ≥ 0`. The job is unknown to the scheduler before
    /// this instant.
    pub release: f64,
    /// Weight `w_j > 0` (§3). Flow-time workloads use weight `1.0`.
    pub weight: f64,
    /// Deadline `d_j` (§4 only). `None` for flow-time workloads.
    pub deadline: Option<f64>,
    /// Machine-dependent size `p_ij`, one entry per machine (dense or
    /// sparse; see the module docs).
    pub sizes: SizeRow,
    /// Cached `min_i { p_ij finite }` (∞ when eligible nowhere); see
    /// module docs. Kept private so it cannot drift from `sizes`
    /// except through direct `sizes` mutation, which `validate` catches.
    p_hat: f64,
    /// Cached eligibility bitmask; same consistency contract.
    elig: EligMask,
    /// Cached rack-local `p̂` minima (`None` for uniform rows, every
    /// size finite and bit-equal); same consistency contract.
    rack: Option<RackPHat>,
}

impl Job {
    /// Constructor with every field explicit (used by
    /// [`crate::InstanceBuilder`]); computes the derived caches.
    pub fn full(
        id: u32,
        release: f64,
        weight: f64,
        deadline: Option<f64>,
        sizes: impl Into<SizeRow>,
    ) -> Self {
        let sizes = sizes.into();
        let (p_hat, elig, rack) = derive_caches(sizes.form());
        Job {
            id: JobId(id),
            release,
            weight,
            deadline,
            sizes,
            p_hat,
            elig,
            rack,
        }
    }

    /// Convenience constructor for an unweighted, deadline-free job.
    pub fn new(id: u32, release: f64, sizes: impl Into<SizeRow>) -> Self {
        Self::full(id, release, 1.0, None, sizes)
    }

    /// Constructor with a weight (for §3 workloads).
    pub fn weighted(id: u32, release: f64, weight: f64, sizes: impl Into<SizeRow>) -> Self {
        Self::full(id, release, weight, None, sizes)
    }

    /// Constructor with a deadline (for §4 workloads).
    pub fn with_deadline(id: u32, release: f64, deadline: f64, sizes: impl Into<SizeRow>) -> Self {
        Self::full(id, release, 1.0, Some(deadline), sizes)
    }

    /// Cheapest eligible size `p̂_j = min_i { p_ij : p_ij < ∞ }`,
    /// precomputed at construction (∞ when the job is eligible
    /// nowhere). The dispatch hot path reads this instead of rescanning
    /// `sizes` at every arrival.
    #[inline]
    pub fn p_hat(&self) -> f64 {
        self.p_hat
    }

    /// The cached machine-eligibility mask.
    #[inline]
    pub fn elig(&self) -> &EligMask {
        &self.elig
    }

    /// The cached rack-local `p̂` minima, or `None` for uniform rows
    /// (whose racks all share the global [`Job::p_hat`]).
    #[inline]
    pub fn rack_p_hat(&self) -> Option<&RackPHat> {
        self.rack.as_ref()
    }

    /// Number of machines this job is eligible on.
    pub fn eligible_count(&self) -> usize {
        self.elig.count(self.sizes.len())
    }

    /// Whether the job can run anywhere at all (`p̂ < ∞`). Schedulers
    /// reject jobs failing this at arrival with
    /// [`crate::RejectReason::Ineligible`].
    #[inline]
    pub fn has_eligible(&self) -> bool {
        self.p_hat.is_finite()
    }

    /// Size `p_ij` of this job on machine `i`.
    #[inline]
    pub fn size_on(&self, machine: MachineId) -> f64 {
        self.sizes.get(machine.idx())
    }

    /// Whether the job may run on `machine` (finite size).
    #[inline]
    pub fn eligible_on(&self, machine: MachineId) -> bool {
        self.elig.test(machine.idx())
    }

    /// Smallest size over all machines (used by several lower bounds).
    /// Identical to [`Job::p_hat`]: infinite entries never win the min,
    /// so the cached cheapest-eligible size is also the overall min.
    #[inline]
    pub fn min_size(&self) -> f64 {
        self.p_hat
    }

    /// Machine achieving [`Job::min_size`].
    pub fn fastest_machine(&self) -> MachineId {
        assert!(!self.sizes.is_empty(), "job has at least one machine entry");
        // The first total-order minimum. Absent sparse entries are +∞,
        // which no stored size exceeds, so machine 0 wins only when
        // nothing is stored.
        let first_min = match self.sizes.form() {
            RowForm::Dense(row) => row
                .iter()
                .copied()
                .enumerate()
                .min_by(|a, b| a.1.total_cmp(&b.1)),
            RowForm::Sparse(sp) => sp.pairs().min_by(|a, b| a.1.total_cmp(&b.1)),
        };
        MachineId(first_min.map_or(0, |(i, _)| i) as u32)
    }

    /// Density `δ_ij = w_j / p_ij` on machine `i` (§3 ordering key).
    #[inline]
    pub fn density_on(&self, machine: MachineId) -> f64 {
        self.weight / self.sizes.get(machine.idx())
    }

    /// Deadline window length `d_j - r_j`; `None` when no deadline.
    pub fn span(&self) -> Option<f64> {
        self.deadline.map(|d| d - self.release)
    }

    /// Structural validity for `m` machines: finite non-negative release,
    /// positive weight, sizes positive-or-infinite with correct arity,
    /// deadline after release when present.
    ///
    /// A job that is ineligible **everywhere** (all sizes infinite) is
    /// structurally valid — schedulers reject it at arrival with
    /// [`crate::RejectReason::Ineligible`] instead of the instance
    /// being unrepresentable (which used to abort whole runs arriving
    /// at the dispatch argmin with no candidate).
    ///
    /// Runs the domain checks of [`Job::validate_domain`], then derives
    /// the caches again from `sizes` and refuses a job whose caches
    /// went stale.
    pub fn validate(&self, machines: usize) -> Result<(), String> {
        self.validate_domain(machines)?;
        // The derived caches are pure functions of `sizes`; a mismatch
        // means `sizes` was mutated behind the constructors' back.
        let (p_hat, elig, rack) = derive_caches(self.sizes.form());
        if p_hat.to_bits() != self.p_hat.to_bits() || elig != self.elig {
            return Err(format!(
                "{}: stale p̂/eligibility cache (sizes mutated after construction)",
                self.id
            ));
        }
        // The rack-p̂ layer can go stale *alone*: a mutation that keeps
        // the eligibility pattern and the global minimum but moves
        // another finite entry changes only the per-rack minima —
        // bounds built from the stale rack values would over-prune, so
        // reject (comparison is bit-exact, see `RackPHat::eq`).
        if rack != self.rack {
            return Err(format!(
                "{}: stale rack-p̂ cache (sizes mutated after construction)",
                self.id
            ));
        }
        Ok(())
    }

    /// The domain checks of [`Job::validate`], without re-deriving the
    /// caches: release, weight, width, stored sizes, a release that
    /// keeps the cheapest size, the deadline, and the eligibility
    /// mask's width. Enough for a job just built by a constructor, whose
    /// caches were derived from its `sizes` a moment before and cannot
    /// differ from a second derivation.
    pub fn validate_domain(&self, machines: usize) -> Result<(), String> {
        check_time(self.release)
            .map_err(|e| format!("{}: release {} ({e})", self.id, self.release))?;
        if !valid_positive(self.weight) {
            return Err(format!("{}: invalid weight {}", self.id, self.weight));
        }
        if self.sizes.len() != machines {
            return Err(format!(
                "{}: has {} sizes, instance has {} machines",
                self.id,
                self.sizes.len(),
                machines
            ));
        }
        // Absent sparse entries are +∞ (valid); only stored ones need
        // the check.
        for (i, p) in self.sizes.stored() {
            if p.is_nan() || p < 0.0 {
                return Err(format!("{}: invalid size {} on m{}", self.id, p, i));
            }
            if p.is_finite() && p <= 0.0 {
                return Err(format!("{}: non-positive size on m{}", self.id, i));
            }
        }
        check_release_keeps_size(self.release, self.p_hat)
            .map_err(|e| format!("{}: {e}", self.id))?;
        if let Some(d) = self.deadline {
            if !d.is_finite() || d <= self.release {
                return Err(format!(
                    "{}: deadline {} not after release {}",
                    self.id, d, self.release
                ));
            }
        }
        // The cached mask must be sized for *this* instance's machine
        // count before any per-bit comparison: a mask built for a
        // different width makes `EligMask::test` panic (too narrow) or
        // answer from padding bits (too wide), so the width gets its
        // own check — and its own error — ahead of the staleness
        // re-derivation in `validate`.
        if !self.elig.width_matches(machines) {
            return Err(format!(
                "{}: eligibility mask width does not match m={machines} \
                 (mask built for a different machine count)",
                self.id
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ids_display_and_index() {
        assert_eq!(JobId(7).to_string(), "j7");
        assert_eq!(MachineId(2).to_string(), "m2");
        assert_eq!(JobId(7).idx(), 7);
        assert_eq!(MachineId(2).idx(), 2);
    }

    #[test]
    fn min_size_and_fastest_machine() {
        let j = Job::new(0, 0.0, vec![5.0, 2.0, 9.0]);
        assert_eq!(j.min_size(), 2.0);
        assert_eq!(j.fastest_machine(), MachineId(1));
    }

    #[test]
    fn restricted_assignment_eligibility() {
        let j = Job::new(0, 0.0, vec![f64::INFINITY, 4.0]);
        assert!(!j.eligible_on(MachineId(0)));
        assert!(j.eligible_on(MachineId(1)));
        assert_eq!(j.min_size(), 4.0);
        assert!(j.validate(2).is_ok());
    }

    #[test]
    fn everywhere_ineligible_job_is_representable() {
        // Schedulers must be able to *see* such a job to reject it with
        // RejectReason::Ineligible (instead of the instance being
        // unconstructible and the dispatch argmin panicking).
        let j = Job::new(0, 0.0, vec![f64::INFINITY]);
        assert!(j.validate(1).is_ok());
        assert!(!j.eligible_on(MachineId(0)));
    }

    #[test]
    fn density_uses_weight() {
        let j = Job::weighted(0, 0.0, 3.0, vec![6.0]);
        assert_eq!(j.density_on(MachineId(0)), 0.5);
    }

    #[test]
    fn validation_rejects_bad_jobs() {
        assert!(Job::new(0, -1.0, vec![1.0]).validate(1).is_err());
        assert!(Job::new(0, 0.0, vec![-1.0]).validate(1).is_err());
        assert!(Job::new(0, 0.0, vec![1.0, 1.0]).validate(1).is_err());
        assert!(Job::weighted(0, 0.0, 0.0, vec![1.0]).validate(1).is_err());
        assert!(Job::with_deadline(0, 5.0, 5.0, vec![1.0])
            .validate(1)
            .is_err());
        assert!(Job::with_deadline(0, 5.0, 6.0, vec![1.0])
            .validate(1)
            .is_ok());
    }

    #[test]
    fn p_hat_cache_matches_scan() {
        let j = Job::new(0, 0.0, vec![5.0, f64::INFINITY, 2.0]);
        assert_eq!(j.p_hat(), 2.0);
        assert_eq!(j.min_size(), 2.0);
        assert!(j.has_eligible());
        assert_eq!(j.eligible_count(), 2);
        let dead = Job::new(1, 0.0, vec![f64::INFINITY, f64::INFINITY]);
        assert_eq!(dead.p_hat(), f64::INFINITY);
        assert!(!dead.has_eligible());
        assert_eq!(dead.eligible_count(), 0);
        // The row computes the same p̂ in either form, whatever lane the
        // minimum sits in (the tail past the last full quad included),
        // and skips NaN.
        for at in 0..11 {
            let mut sizes = vec![f64::INFINITY; 11];
            sizes[(at + 3) % 11] = 7.0;
            sizes[at] = 0.5;
            let row = SizeRow::from(sizes.clone());
            assert_eq!(row.p_hat(), 0.5, "at {at}");
            assert_eq!(Job::new(0, 0.0, sizes).p_hat(), 0.5);
            assert!(row.as_dense().is_none(), "a restricted row is sparse");
        }
        let dense = SizeRow::from(vec![3.0, f64::NAN, 2.5, 4.0, 9.0]);
        assert_eq!(dense.p_hat(), 2.5);
        assert_eq!(SizeRow::from(vec![f64::INFINITY; 5]).p_hat(), f64::INFINITY);
    }

    #[test]
    fn elig_mask_is_canonical() {
        // Fully eligible rows use the allocation-free representation,
        // so equal sizes ⇒ equal masks regardless of how they were made.
        assert_eq!(EligMask::from_sizes(&[1.0, 2.0]), EligMask::All);
        let m = EligMask::from_sizes(&[1.0, f64::INFINITY, 3.0]);
        assert!(m.test(0) && !m.test(1) && m.test(2));
        assert_eq!(m.count(3), 2);
        assert!(m.any());
        assert!(!EligMask::from_sizes(&[f64::INFINITY]).any());
        // Wide rows cross the 64-bit word boundary.
        let mut sizes = vec![1.0; 130];
        sizes[70] = f64::INFINITY;
        let wide = EligMask::from_sizes(&sizes);
        assert!(wide.test(69) && !wide.test(70) && wide.test(129));
        assert_eq!(wide.count(130), 129);
    }

    #[test]
    fn validate_catches_stale_caches() {
        let mut j = Job::new(0, 0.0, vec![2.0, 3.0]);
        assert!(j.validate(2).is_ok());
        j.sizes = vec![1.0, 3.0].into(); // desync: p̂ still 2.0
        let err = j.validate(2).unwrap_err();
        assert!(err.contains("stale"), "{err}");
    }

    #[test]
    fn validate_rejects_mask_width_mismatch() {
        // A restricted mask built for m=2 (one word), then the public
        // `sizes` row swapped for a 130-machine row: `EligMask::test`
        // on machine 128 would panic on the stale one-word mask, so
        // `validate(130)` must fail on the *width*, with a message
        // naming the mask, before any per-bit staleness comparison.
        let mut j = Job::new(0, 0.0, vec![1.0, f64::INFINITY]);
        assert!(matches!(j.elig(), EligMask::Words { .. }));
        let mut wide = vec![1.0; 130];
        wide[70] = f64::INFINITY;
        j.sizes = wide.into();
        let err = j.validate(130).unwrap_err();
        assert!(err.contains("mask width"), "{err}");
        // The same row rebuilt through a constructor is fine.
        let ok = Job::new(0, 0.0, j.sizes.clone());
        assert!(ok.validate(130).is_ok());
        assert!(ok.elig().width_matches(130));
        // And the width predicate itself: All fits anything, words
        // must match exactly.
        assert!(EligMask::All.width_matches(7));
        let narrow = EligMask::from_sizes(&[1.0, f64::INFINITY]);
        assert!(narrow.width_matches(2) && !narrow.width_matches(130));
    }

    #[test]
    fn word_layers_expose_the_summary() {
        assert!(EligMask::All.word_layers().is_none());
        // 130 machines, word 1 (machines 64..127) fully ineligible:
        // summary bit 1 must be clear, bits 0 and 2 set.
        let mut sizes = vec![1.0; 130];
        for s in sizes.iter_mut().take(128).skip(64) {
            *s = f64::INFINITY;
        }
        let mask = EligMask::from_sizes(&sizes);
        let (words, summary) = mask.word_layers().unwrap();
        assert_eq!(words.len(), 3);
        assert_eq!(summary.len(), 1);
        assert_eq!(words[1], 0);
        assert_eq!(summary[0] & 0b111, 0b101);
    }

    #[test]
    fn rack_p_hat_layers_match_brute_force() {
        // 200 machines: word boundaries at 64/128 plus a ragged tail.
        let mut sizes = vec![f64::INFINITY; 200];
        // Rack (word) 0: minima 3.0; rack 1: 1.5; rack 2: empty; rack 3
        // (ragged, machines 192..200): 7.0.
        sizes[5] = 3.0;
        sizes[63] = 4.0;
        sizes[64] = 1.5;
        sizes[127] = 2.5;
        sizes[199] = 7.0;
        let j = Job::new(0, 0.0, sizes);
        let rack = j.rack_p_hat().expect("restricted row caches rack minima");
        assert_eq!(rack.word_min(), &[3.0, 1.5, f64::INFINITY, 7.0]);
        assert_eq!(rack.block_min(), &[1.5]);
        // Range resolution: word spans, sub-word spans, block spans.
        assert_eq!(rack.range_min(0, 64), 3.0);
        assert_eq!(rack.range_min(64, 64), 1.5);
        assert_eq!(rack.range_min(128, 64), f64::INFINITY);
        assert_eq!(rack.range_min(0, 32), 3.0); // superset word: sound, looser
        assert_eq!(rack.range_min(0, 128), 1.5); // block layer
        assert_eq!(rack.range_min(0, 4096), 1.5);
        assert_eq!(rack.range_min(0, 8192), 1.5); // block scan arm
        assert_eq!(rack.range_min(4096, 4096), f64::INFINITY); // padding
        assert_eq!(j.p_hat(), 1.5);
        assert!(j.validate(200).is_ok());
        // Uniform rows (identical machines) keep the allocation-free
        // representation.
        assert!(Job::new(1, 0.0, vec![1.0; 130]).rack_p_hat().is_none());
        assert!(Job::new(1, 0.0, Vec::new()).rack_p_hat().is_none());
        // A restricted row whose finite sizes are all equal is not
        // uniform: its empty racks must still resolve to ∞.
        let mut equal_restricted = vec![2.0; 130];
        equal_restricted[64..128].fill(f64::INFINITY);
        let rack = Job::new(1, 0.0, equal_restricted);
        let rack = rack.rack_p_hat().expect("restricted row caches racks");
        assert_eq!(rack.word_min(), &[2.0, f64::INFINITY, 2.0]);
    }

    #[test]
    fn dense_non_uniform_rows_build_racks_matching_brute_force() {
        // Fully eligible unrelated rows: every size finite, values
        // varying per machine. Widths cover one word, a ragged tail and
        // more than one 4096-machine block.
        for m in [3usize, 64, 130, 1_000, 5_000] {
            let sizes: Vec<f64> = (0..m)
                .map(|i| 1.0 + ((i * 7919 + 13) % 101) as f64 / 8.0)
                .collect();
            let j = Job::new(0, 0.0, sizes.clone());
            assert!(matches!(j.elig(), EligMask::All));
            let rack = j.rack_p_hat().expect("non-uniform dense row caches racks");
            let words: Vec<f64> = sizes
                .chunks(64)
                .map(|c| c.iter().copied().fold(f64::INFINITY, f64::min))
                .collect();
            let blocks: Vec<f64> = words
                .chunks(64)
                .map(|c| c.iter().copied().fold(f64::INFINITY, f64::min))
                .collect();
            assert_eq!(rack.word_min(), &words[..], "m={m}");
            assert_eq!(rack.block_min(), &blocks[..], "m={m}");
            // Every aligned range resolves to a value ≤ each of its
            // sizes (sound), and word-aligned spans to the exact min.
            let cap = m.next_power_of_two();
            let mut span = 1;
            while span <= cap {
                for lo in (0..cap).step_by(span) {
                    let got = rack.range_min(lo, span);
                    let exact = sizes[lo.min(m)..(lo + span).min(m)]
                        .iter()
                        .copied()
                        .fold(f64::INFINITY, f64::min);
                    assert!(got <= exact, "m={m} lo={lo} span={span}");
                    if span == 64 {
                        assert_eq!(got, exact, "m={m} lo={lo}");
                    }
                }
                span *= 2;
            }
            assert_eq!(rack.range_min(0, cap), j.p_hat(), "m={m}");
            assert!(j.validate(m).is_ok());
        }
        // One differing machine is enough to make a row non-uniform.
        let mut almost = vec![3.0; 130];
        almost[129] = 2.0;
        let j = Job::new(0, 0.0, almost);
        assert_eq!(j.rack_p_hat().unwrap().word_min(), &[3.0, 3.0, 2.0]);
    }

    #[test]
    fn validate_catches_stale_rack_p_hat_alone() {
        // Machines 0 and 70 eligible (different words): mutating the
        // *non-minimal* entry keeps p̂ (1.0) and the eligibility
        // pattern intact, so the p̂/elig staleness checks pass — only
        // the rack-p̂ comparison can catch the drift, and it must
        // reject (not panic).
        let mut sizes = vec![f64::INFINITY; 130];
        sizes[0] = 1.0;
        sizes[70] = 5.0;
        let mut j = Job::new(0, 0.0, sizes.clone());
        assert!(j.validate(130).is_ok());
        assert_eq!(j.rack_p_hat().unwrap().word_min()[1], 5.0);
        let mut moved = sizes;
        moved[70] = 7.0; // same word, same eligibility, same global p̂
        j.sizes = moved.into();
        let err = j.validate(130).unwrap_err();
        assert!(err.contains("rack-p̂"), "{err}");
        // Rebuilt through a constructor the row is fine again.
        let ok = Job::new(0, 0.0, j.sizes.clone());
        assert!(ok.validate(130).is_ok());
        assert_eq!(ok.rack_p_hat().unwrap().word_min()[1], 7.0);

        // The same drift on a fully eligible unrelated row: the mask
        // stays `All` and p̂ stays 1.0, so again only the rack layer
        // can see that rack 1's minimum moved from 5.0 to 7.0.
        let mut sizes = vec![9.0; 130];
        sizes[0] = 1.0;
        sizes[70] = 5.0;
        let mut j = Job::new(0, 0.0, sizes.clone());
        assert!(j.validate(130).is_ok());
        assert!(matches!(j.elig(), EligMask::All));
        assert_eq!(j.rack_p_hat().unwrap().word_min(), &[1.0, 5.0, 9.0]);
        let mut moved = sizes;
        moved[70] = 7.0;
        j.sizes = moved.into();
        let err = j.validate(130).unwrap_err();
        assert!(err.contains("rack-p̂"), "{err}");
        let ok = Job::new(0, 0.0, j.sizes.clone());
        assert!(ok.validate(130).is_ok());
        assert_eq!(ok.rack_p_hat().unwrap().word_min()[1], 7.0);
    }

    /// The same row in both stored forms, whatever the form rule
    /// would pick.
    fn both_forms(dense: &[f64]) -> (SizeRow, SizeRow) {
        let (ids, vals): (Vec<u32>, Vec<f64>) = dense
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_finite())
            .map(|(i, &p)| (i as u32, p))
            .unzip();
        (
            SizeRow(Repr::Dense(dense.into())),
            SizeRow(Repr::Sparse {
                width: dense.len(),
                ids: ids.into(),
                vals: vals.into(),
            }),
        )
    }

    fn bits(xs: impl IntoIterator<Item = f64>) -> Vec<u64> {
        xs.into_iter().map(f64::to_bits).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        /// Dense and sparse forms of one row agree bit for bit on every
        /// accessor, on the derived caches (p̂, mask, rack minima) and
        /// on `fastest_machine`, at widths around one mask word and one
        /// 4096-machine block.
        #[test]
        fn dense_and_sparse_forms_agree_bit_for_bit(
            width in prop_oneof![56usize..72, 4088usize..4104],
            seed in any::<u64>(),
            per_mille in 0u64..1001,
            distinct in 1u64..6,
        ) {
            let mut st = seed;
            let mut next = || {
                st = st.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let z = (st ^ (st >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z ^ (z >> 29)
            };
            // Few distinct values, so `fastest_machine` meets ties.
            let dense: Vec<f64> = (0..width)
                .map(|_| {
                    let r = next();
                    if r % 1000 < per_mille {
                        1.0 + ((r >> 20) % distinct) as f64 * 0.375
                    } else {
                        f64::INFINITY
                    }
                })
                .collect();
            let (d, sp) = both_forms(&dense);
            prop_assert!(d.as_dense().is_some() && sp.as_dense().is_none());
            prop_assert_eq!(d.len(), sp.len());
            prop_assert_eq!(&d, &sp);
            prop_assert!(sp == dense);
            for i in 0..width {
                prop_assert_eq!(d.get(i).to_bits(), sp.get(i).to_bits());
                prop_assert_eq!(d[i].to_bits(), sp[i].to_bits());
            }
            prop_assert_eq!(bits(d.iter().copied()), bits(dense.iter().copied()));
            prop_assert_eq!(bits(sp.iter().copied()), bits(dense.iter().copied()));
            prop_assert_eq!(sp.iter().len(), width);
            prop_assert_eq!(bits(sp.to_vec()), bits(dense.iter().copied()));
            let fin = |r: &SizeRow| r.iter_finite().map(|(i, p)| (i, p.to_bits())).collect::<Vec<_>>();
            prop_assert_eq!(fin(&d), fin(&sp));
            // The canonical form carries the same values again.
            let canon = SizeRow::from(dense.clone());
            prop_assert_eq!(fin(&canon), fin(&d));

            let (jd, js) = (Job::new(0, 0.0, d), Job::new(0, 0.0, sp));
            prop_assert_eq!(jd.p_hat().to_bits(), js.p_hat().to_bits());
            prop_assert_eq!(jd.elig(), js.elig());
            prop_assert_eq!(jd.rack_p_hat(), js.rack_p_hat());
            prop_assert_eq!(jd.eligible_count(), js.eligible_count());
            prop_assert_eq!(jd.fastest_machine(), js.fastest_machine());
            prop_assert!(jd.validate(width).is_ok() && js.validate(width).is_ok());
            // And they equal the canonical form's and the slice-built mask.
            let jc = Job::new(0, 0.0, canon);
            prop_assert_eq!(jc.fastest_machine(), js.fastest_machine());
            prop_assert_eq!(jc.rack_p_hat(), js.rack_p_hat());
            prop_assert_eq!(jc.elig(), js.elig());
            prop_assert_eq!(&EligMask::from_sizes(&dense), js.elig());
        }
    }

    #[test]
    fn form_rule_compares_byte_sizes() {
        let inf = f64::INFINITY;
        // m = 6: sparse while 12·finite < 48, i.e. up to 3 finite sizes.
        let row = |finite: usize| -> SizeRow {
            (0..6)
                .map(|i| if i < finite { 1.0 + i as f64 } else { inf })
                .collect()
        };
        for finite in 0..=6 {
            assert_eq!(row(finite).as_dense().is_none(), finite <= 3, "{finite}");
        }
        // Sizes a sparse row cannot carry keep the row dense.
        for odd in [f64::NAN, -1.0, 0.0, -0.0, f64::NEG_INFINITY] {
            let r = SizeRow::from(vec![odd, inf, inf, inf, inf, inf]);
            assert!(r.as_dense().is_some(), "{odd}");
        }
        assert!(SizeRow::from(Vec::new()).as_dense().is_some());
        // from_pairs applies the same rule and validates its input.
        assert!(SizeRow::from_pairs(6, vec![1, 4], vec![2.0, 3.0])
            .unwrap()
            .as_dense()
            .is_none());
        let full = SizeRow::from_pairs(2, vec![0, 1], vec![2.0, 3.0]).unwrap();
        assert_eq!(full.as_dense(), Some(&[2.0, 3.0][..]));
        for (ids, vals) in [
            (vec![3, 1], vec![1.0, 1.0]),
            (vec![1, 1], vec![1.0, 1.0]),
            (vec![6], vec![1.0]),
            (vec![1], vec![inf]),
            (vec![1], vec![0.0]),
            (vec![1], vec![f64::NAN]),
            (vec![1, 2], vec![1.0]),
        ] {
            assert!(
                SizeRow::from_pairs(6, ids.clone(), vals).is_err(),
                "{ids:?}"
            );
        }
        let sp = row(2);
        assert_eq!(sp[5], inf);
        assert_eq!(sp.get(1), 2.0);
        assert_eq!(
            format!("{sp:?}"),
            "Sparse { width: 6, finite: [(0, 1.0), (1, 2.0)] }"
        );
    }

    #[test]
    fn span_is_deadline_window() {
        let j = Job::with_deadline(0, 2.0, 10.0, vec![1.0]);
        assert_eq!(j.span(), Some(8.0));
        assert_eq!(Job::new(0, 2.0, vec![1.0]).span(), None);
    }
}
