//! Jobs and identifiers.
//!
//! Besides the raw `p_ij` row, every [`Job`] carries three **derived
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
//! The caches are pure functions of `sizes`; [`Job::validate`] (and
//! therefore [`crate::Instance::new`]) rejects a job whose caches have
//! been desynchronized by direct mutation of the public `sizes` field.

use crate::time::{valid_magnitude, valid_positive};
use osr_dstruct::kernel::{self, KernelMode};

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
    /// Derives the canonical mask from a size row.
    pub fn from_sizes(sizes: &[f64]) -> Self {
        if sizes.iter().all(|p| p.is_finite()) {
            return EligMask::All;
        }
        let mut words = vec![0u64; sizes.len().div_ceil(64)];
        for (i, p) in sizes.iter().enumerate() {
            if p.is_finite() {
                words[i / 64] |= 1u64 << (i % 64);
            }
        }
        let mut summary = vec![0u64; words.len().div_ceil(64)];
        kernel::summarize_words4(KernelMode::Chunked, &words, &mut summary);
        EligMask::Words {
            words: words.into_boxed_slice(),
            summary: summary.into_boxed_slice(),
        }
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
            EligMask::Words { words, .. } => kernel::popcount_words4(KernelMode::Chunked, words),
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
    /// Derives the two layers from a size row; `None` for uniform rows
    /// (every size finite and bit-equal), whose racks all share the
    /// global `p̂` — that path stays allocation-free.
    pub fn from_sizes(sizes: &[f64]) -> Option<Self> {
        if sizes
            .iter()
            .all(|p| p.is_finite() && p.to_bits() == sizes[0].to_bits())
        {
            return None;
        }
        let mut word_min = vec![f64::INFINITY; sizes.len().div_ceil(64)].into_boxed_slice();
        for (i, p) in sizes.iter().enumerate() {
            if p.is_finite() && *p < word_min[i / 64] {
                word_min[i / 64] = *p;
            }
        }
        let mut block_min = vec![f64::INFINITY; word_min.len().div_ceil(64)].into_boxed_slice();
        for (k, w) in word_min.iter().enumerate() {
            if *w < block_min[k / 64] {
                block_min[k / 64] = *w;
            }
        }
        Some(RackPHat {
            word_min,
            block_min,
        })
    }

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
            // Entries are positive-or-∞ (never NaN, never -0.0), so the
            // chunked lane regrouping returns the scalar fold's minimum
            // bit for bit.
            kernel::min4_with_index(KernelMode::Chunked, &self.block_min[first..last])
                .map_or(f64::INFINITY, |(v, _)| v)
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
    /// Machine-dependent size `p_ij`, one entry per machine.
    pub sizes: Vec<f64>,
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
    /// Computes the derived caches from a size row.
    fn derive(sizes: &[f64]) -> (f64, EligMask, Option<RackPHat>) {
        let p_hat = sizes
            .iter()
            .copied()
            .filter(|p| p.is_finite())
            .fold(f64::INFINITY, f64::min);
        (
            p_hat,
            EligMask::from_sizes(sizes),
            RackPHat::from_sizes(sizes),
        )
    }

    /// Constructor with every field explicit (used by
    /// [`crate::InstanceBuilder`]); computes the derived caches.
    pub fn full(
        id: u32,
        release: f64,
        weight: f64,
        deadline: Option<f64>,
        sizes: Vec<f64>,
    ) -> Self {
        let (p_hat, elig, rack) = Self::derive(&sizes);
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
    pub fn new(id: u32, release: f64, sizes: Vec<f64>) -> Self {
        Self::full(id, release, 1.0, None, sizes)
    }

    /// Constructor with a weight (for §3 workloads).
    pub fn weighted(id: u32, release: f64, weight: f64, sizes: Vec<f64>) -> Self {
        Self::full(id, release, weight, None, sizes)
    }

    /// Constructor with a deadline (for §4 workloads).
    pub fn with_deadline(id: u32, release: f64, deadline: f64, sizes: Vec<f64>) -> Self {
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
        self.sizes[machine.idx()]
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
        let (i, _) = self
            .sizes
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .expect("job has at least one machine entry");
        MachineId(i as u32)
    }

    /// Density `δ_ij = w_j / p_ij` on machine `i` (§3 ordering key).
    #[inline]
    pub fn density_on(&self, machine: MachineId) -> f64 {
        self.weight / self.sizes[machine.idx()]
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
    pub fn validate(&self, machines: usize) -> Result<(), String> {
        if !valid_magnitude(self.release) {
            return Err(format!("{}: invalid release {}", self.id, self.release));
        }
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
        for (i, &p) in self.sizes.iter().enumerate() {
            if p.is_nan() || p < 0.0 {
                return Err(format!("{}: invalid size {} on m{}", self.id, p, i));
            }
            if p.is_finite() && p <= 0.0 {
                return Err(format!("{}: non-positive size on m{}", self.id, i));
            }
        }
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
        // re-derivation below.
        if !self.elig.width_matches(machines) {
            return Err(format!(
                "{}: eligibility mask width does not match m={machines} \
                 (mask built for a different machine count)",
                self.id
            ));
        }
        // The derived caches are pure functions of `sizes`; a mismatch
        // means `sizes` was mutated behind the constructors' back.
        let (p_hat, elig, rack) = Self::derive(&self.sizes);
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
}

#[cfg(test)]
mod tests {
    use super::*;

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
        j.sizes[0] = 1.0; // desync: p̂ still 2.0
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
        j.sizes = wide;
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
        let mut j = Job::new(0, 0.0, sizes);
        assert!(j.validate(130).is_ok());
        assert_eq!(j.rack_p_hat().unwrap().word_min()[1], 5.0);
        j.sizes[70] = 7.0; // same word, same eligibility, same global p̂
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
        let mut j = Job::new(0, 0.0, sizes);
        assert!(j.validate(130).is_ok());
        assert!(matches!(j.elig(), EligMask::All));
        assert_eq!(j.rack_p_hat().unwrap().word_min(), &[1.0, 5.0, 9.0]);
        j.sizes[70] = 7.0;
        let err = j.validate(130).unwrap_err();
        assert!(err.contains("rack-p̂"), "{err}");
        let ok = Job::new(0, 0.0, j.sizes.clone());
        assert!(ok.validate(130).is_ok());
        assert_eq!(ok.rack_p_hat().unwrap().word_min()[1], 7.0);
    }

    #[test]
    fn span_is_deadline_window() {
        let j = Job::with_deadline(0, 2.0, 10.0, vec![1.0]);
        assert_eq!(j.span(), Some(8.0));
        assert_eq!(Job::new(0, 2.0, vec![1.0]).span(), None);
    }
}
