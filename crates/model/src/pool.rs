//! The elastic machine pool's membership mask.
//!
//! Capacity churn (machines joining, draining, crashing mid-run —
//! `osr_sim::capacity`) needs a scheduler-side record of **which
//! machines are online right now** in the same two-layer word/summary
//! shape as [`crate::EligMask`], so a job's eligibility mask
//! can be intersected with pool membership in `O(words)` and handed
//! straight to the mask-guided tournament search. [`OnlineSet`] is that
//! record, and it resizes **incrementally**:
//!
//! * **grow-by-rack** — joining a machine beyond the current width
//!   extends the word array by whole 64-machine words (racks), never
//!   reallocating per machine;
//! * **tombstone** — drain/crash clears the machine's bit in place
//!   (`O(1)` plus a summary-bit update); the words are never compacted,
//!   because machine ids are indices into every job's `sizes` row and
//!   cannot be renumbered mid-run.
//!
//! The companion scratch buffer ([`MaskScratch`]) holds the
//! intersection `elig ∩ online` without allocating per dispatch.

use crate::job::EligMask;

/// Which machines of an elastic pool are currently online.
///
/// Bit layout matches [`EligMask::word_layers`]: one bit per machine,
/// LSB-first within 64-bit words, plus a summary layer with one bit per
/// word (set iff that word is non-zero).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OnlineSet {
    words: Vec<u64>,
    summary: Vec<u64>,
    /// Machine-universe width covered by `words` (may be mid-rack).
    m: usize,
    /// Number of online machines.
    online: usize,
}

impl OnlineSet {
    /// A pool of `m` machines, all online.
    pub fn all_online(m: usize) -> Self {
        let mut s = OnlineSet {
            words: Vec::new(),
            summary: Vec::new(),
            m: 0,
            online: 0,
        };
        s.grow_to(m);
        for i in 0..m {
            s.set_online(i);
        }
        s
    }

    /// A pool of `m` machines, all offline (they join explicitly).
    pub fn all_offline(m: usize) -> Self {
        let mut s = OnlineSet {
            words: Vec::new(),
            summary: Vec::new(),
            m: 0,
            online: 0,
        };
        s.grow_to(m);
        s
    }

    /// Machine-universe width currently covered.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// Number of online machines.
    #[inline]
    pub fn online_count(&self) -> usize {
        self.online
    }

    /// Whether every machine in `0..m` is online.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.online == self.m
    }

    /// Whether machine `i` is online (`false` beyond the width).
    #[inline]
    pub fn is_online(&self, i: usize) -> bool {
        i < self.m && (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Extends the covered universe to `new_m` machines (no-op if the
    /// pool is already that wide). Storage grows by whole 64-machine
    /// words; the new machines start **offline**.
    pub fn grow_to(&mut self, new_m: usize) {
        if new_m <= self.m {
            return;
        }
        let need_words = new_m.div_ceil(64);
        if need_words > self.words.len() {
            self.words.resize(need_words, 0);
            self.summary.resize(need_words.div_ceil(64), 0);
        }
        self.m = new_m;
    }

    /// Marks machine `i` online, growing the pool if `i` is beyond the
    /// current width. Returns `true` if the machine was offline.
    pub fn set_online(&mut self, i: usize) -> bool {
        self.grow_to(self.m.max(i + 1));
        let (w, b) = (i / 64, 1u64 << (i % 64));
        if self.words[w] & b != 0 {
            return false;
        }
        self.words[w] |= b;
        self.summary[w / 64] |= 1u64 << (w % 64);
        self.online += 1;
        true
    }

    /// Marks machine `i` offline (tombstone). Returns `true` if the
    /// machine was online.
    pub fn set_offline(&mut self, i: usize) -> bool {
        if !self.is_online(i) {
            return false;
        }
        let w = i / 64;
        self.words[w] &= !(1u64 << (i % 64));
        if self.words[w] == 0 {
            self.summary[w / 64] &= !(1u64 << (w % 64));
        }
        self.online -= 1;
        true
    }

    /// The `(words, summary)` layers, in [`EligMask::word_layers`]
    /// layout.
    #[inline]
    pub fn word_layers(&self) -> (&[u64], &[u64]) {
        (&self.words, &self.summary)
    }

    /// Intersects a job's eligibility mask with pool membership into
    /// `scratch`, returning `true` iff any machine is both eligible and
    /// online. After a `true` return, `scratch.word_layers()` holds the
    /// intersection in [`EligMask::word_layers`] layout.
    ///
    /// For unrestricted jobs (`EligMask::All`) the intersection *is*
    /// the online set; callers should prefer borrowing
    /// [`OnlineSet::word_layers`] directly in that case (this method
    /// still fills `scratch` correctly, at the cost of a copy).
    pub fn intersect_elig(&self, elig: &EligMask, scratch: &mut MaskScratch) -> bool {
        scratch.words.clear();
        scratch.summary.clear();
        scratch.summary.resize(self.summary.len(), 0);
        match elig.word_layers() {
            None => {
                scratch.words.extend_from_slice(&self.words);
                scratch.summary.copy_from_slice(&self.summary);
                self.online > 0
            }
            Some((jw, _)) => {
                scratch.words.resize(self.words.len(), 0);
                osr_dstruct::kernel::intersect_words4(
                    osr_dstruct::KernelMode::Chunked,
                    jw,
                    &self.words,
                    &mut scratch.words,
                    &mut scratch.summary,
                )
            }
        }
    }
}

/// Reusable buffer for `elig ∩ online` intersections (one per
/// scheduler, reused across every dispatch — no per-arrival
/// allocation once the high-water mark is reached).
#[derive(Debug, Clone, Default)]
pub struct MaskScratch {
    words: Vec<u64>,
    summary: Vec<u64>,
}

impl MaskScratch {
    /// Empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The `(words, summary)` layers of the last intersection.
    #[inline]
    pub fn word_layers(&self) -> (&[u64], &[u64]) {
        (&self.words, &self.summary)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_online_then_churn() {
        let mut s = OnlineSet::all_online(5);
        assert!(s.is_full());
        assert_eq!(s.online_count(), 5);
        assert!(s.set_offline(3));
        assert!(!s.set_offline(3), "double-drain is a no-op");
        assert!(!s.is_online(3));
        assert_eq!(s.online_count(), 4);
        assert!(s.set_online(3));
        assert!(s.is_full());
    }

    #[test]
    fn grow_by_rack_keeps_layers_consistent() {
        let mut s = OnlineSet::all_online(63);
        assert_eq!(s.word_layers().0.len(), 1);
        // Joining machine 64 grows by a whole word.
        assert!(s.set_online(64));
        assert_eq!(s.m(), 65);
        assert_eq!(s.word_layers().0.len(), 2);
        assert!(s.is_online(64));
        assert!(
            !s.is_online(63),
            "machines revealed by growth start offline"
        );
        assert_eq!(s.word_layers().1[0] & 0b11, 0b11);
        // Draining the only machine of word 1 clears its summary bit.
        assert!(s.set_offline(64));
        assert_eq!(s.word_layers().1[0] & 0b10, 0);
    }

    #[test]
    fn intersection_with_restricted_mask() {
        let mut sizes = vec![f64::INFINITY; 130];
        sizes[3] = 1.0;
        sizes[70] = 2.0;
        sizes[129] = 3.0;
        let elig = EligMask::from_sizes(&sizes);
        let mut s = OnlineSet::all_online(130);
        let mut scratch = MaskScratch::new();
        assert!(s.intersect_elig(&elig, &mut scratch));
        let (w, sum) = scratch.word_layers();
        assert_eq!(w[0], 1 << 3);
        assert_eq!(w[1], 1 << 6);
        assert_eq!(w[2], 1 << 1);
        assert_eq!(sum[0] & 0b111, 0b111);
        // Knock out two of the three eligible machines.
        s.set_offline(3);
        s.set_offline(129);
        assert!(s.intersect_elig(&elig, &mut scratch));
        let (w, sum) = scratch.word_layers();
        assert_eq!(w[0], 0);
        assert_eq!(w[2], 0);
        assert_eq!(sum[0] & 0b111, 0b010);
        // Lose the last one: no eligible online machine remains.
        s.set_offline(70);
        assert!(!s.intersect_elig(&elig, &mut scratch));
    }

    #[test]
    fn intersection_with_unrestricted_mask_copies_the_pool() {
        let mut s = OnlineSet::all_online(70);
        s.set_offline(1);
        let mut scratch = MaskScratch::new();
        assert!(s.intersect_elig(&EligMask::All, &mut scratch));
        assert_eq!(scratch.word_layers().0, s.word_layers().0);
        assert_eq!(scratch.word_layers().1, s.word_layers().1);
        let empty = OnlineSet::all_offline(70);
        assert!(!empty.intersect_elig(&EligMask::All, &mut scratch));
    }
}
