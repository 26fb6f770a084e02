//! The elastic machine pool's membership mask.
//!
//! Capacity churn (machines joining, draining, crashing mid-run —
//! `osr_sim::capacity`) needs a scheduler-side record of **which
//! machines are online right now**, one bit per machine.
//! [`OnlineSet`] is that record, and it resizes **incrementally**:
//!
//! * **grow-by-rack** — joining a machine beyond the current width
//!   extends the word array by whole 64-machine words (racks), never
//!   reallocating per machine;
//! * **tombstone** — drain/crash clears the machine's bit in place
//!   (`O(1)`); the words are never compacted,
//!   because machine ids are indices into every job's `sizes` row and
//!   cannot be renumbered mid-run.

/// Which machines of an elastic pool are currently online.
///
/// One bit per machine, LSB-first within 64-bit words (the
/// [`crate::EligMask`] word layout).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OnlineSet {
    words: Vec<u64>,
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
        self.online += 1;
        true
    }

    /// Marks machine `i` offline (tombstone). Returns `true` if the
    /// machine was online.
    pub fn set_offline(&mut self, i: usize) -> bool {
        if !self.is_online(i) {
            return false;
        }
        self.words[i / 64] &= !(1u64 << (i % 64));
        self.online -= 1;
        true
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
        // Joining machine 64 grows the pool into a second word.
        assert!(s.set_online(64));
        assert_eq!(s.m(), 65);
        assert!(s.is_online(64));
        assert!(
            !s.is_online(63),
            "machines revealed by growth start offline"
        );
        assert_eq!(s.online_count(), 64);
        assert!(s.set_offline(64));
        assert!(!s.is_online(64));
        assert!(!s.is_online(65), "beyond the width is offline");
        assert_eq!((s.m(), s.online_count()), (65, 63));
    }
}
