//! Randomized balanced BST augmented with `(count, weight-sum)` subtree
//! aggregates — **index-based arena layout**.
//!
//! This is the engine behind the `O(log n)` evaluation of the paper's
//! dispatch quantity `λ_ij` (§2): with pending jobs keyed by their
//! processing-time order, `λ_ij` is
//!
//! ```text
//! λ_ij = (1/ε) p_ij + Σ_{ℓ ⪯ j} p_iℓ + |{ℓ ≻ j}| · p_ij
//!       = (1/ε) p_ij + agg_le(j).sum + (total().count − agg_le(j).count) · p_ij
//! ```
//!
//! i.e. exactly one [`AggTreap::agg_le`] plus one [`AggTreap::total`]
//! query. The same structure serves the SPT policy ([`AggTreap::pop_first`])
//! and Rule 2 ([`AggTreap::pop_last`]).
//!
//! ## Arena layout
//!
//! Nodes live in one contiguous `Vec<Node<K>>`; links are `u32` slot
//! indices (`NIL = u32::MAX`) instead of `Box` pointers. Removed slots
//! go onto an explicit **free list** and are reused by later inserts, so
//! a steady-state queue (the dispatch hot path: insert on arrival, pop
//! on start/rejection) performs **zero heap allocations** — the arena
//! grows only when the high-water mark of pending jobs does, and
//! [`AggTreap::with_capacity`] can prereserve even that.
//!
//! ## Packed aggregate rows (struct-of-arrays)
//!
//! The `(count, sum)` subtree aggregates live in their **own parallel
//! array** of packed 16-byte rows ([`AggRow`]), not
//! inside the node struct. The bottom-up aggregate fix after every
//! mutation — two child-agg reads plus one write per level, which
//! `treap_steady_churn` shows is the churn cost — therefore walks a
//! dense array where four rows share a cache line, instead of pulling
//! in each child's full node (key, priority, links) just to read 12
//! bytes of aggregate. The fix is a plain serial loop: each level reads
//! the aggregate the level below just wrote, a true dependency chain
//! that no lane kernel can chunk (BENCH.md "PR 9").
//! The arithmetic is unchanged expression for expression
//! (`weight + left.sum + right.sum`), so aggregate sums stay
//! bit-identical to the previous layout and to a fresh build — the
//! naive-backend-equality contract the schedulers test for.
//!
//! All mutating walks are **iterative** with a reusable scratch stack
//! (no recursion, no per-op allocation), so degenerate priority
//! sequences can slow the treap down but can never overflow the call
//! stack. Insert descends once to the priority-determined attachment
//! point and splits only the subtree below it; remove descends once to
//! the victim and merges only its two subtrees — cheaper than the
//! classic full split + merge at the root that the superseded
//! `Box`-per-node implementation did (BENCH.md "PR 1" records the
//! arena-vs-boxed comparison).
//!
//! [`AggTreap::from_sorted`] bulk-builds from pre-sorted entries in
//! `O(n)` via the rightmost-spine construction.
//!
//! Vacated slots keep their last key until reuse (pops return a clone —
//! free for the `Copy` composite keys every scheduler uses), which is
//! why extraction methods carry a `K: Clone` bound.
//!
//! Duplicate keys are permitted (they cannot arise with the composite
//! `(p, r, id)` keys used by the schedulers, but the structure does not
//! rely on uniqueness).

/// One packed subtree-aggregate row of the treap's struct-of-arrays
/// layout: 16 bytes, four to a cache line, indexed by arena slot id.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggRow {
    /// Sum of entry weights in the subtree.
    pub sum: f64,
    /// Number of entries in the subtree.
    pub count: u32,
}

impl AggRow {
    /// The empty-subtree aggregate (the `NIL` child's row).
    pub const ZERO: AggRow = AggRow { sum: 0.0, count: 0 };
}

/// Aggregate over a set of entries: how many, and their total weight.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Agg {
    /// Number of entries.
    pub count: usize,
    /// Sum of entry weights.
    pub sum: f64,
}

impl Agg {
    pub(crate) fn plus(self, other: Agg) -> Agg {
        Agg {
            count: self.count + other.count,
            sum: self.sum + other.sum,
        }
    }
}

/// Sentinel "no node" index.
const NIL: u32 = u32::MAX;

/// One arena slot. A slot on the free list keeps its stale `key` until
/// reuse (see module docs). Subtree aggregates live in the parallel
/// packed array (`AggTreap::aggs`), not here.
struct Node<K> {
    key: K,
    weight: f64,
    pri: u64,
    left: u32,
    right: u32,
}

/// Order-statistic treap with weight aggregates; see module docs.
pub struct AggTreap<K: Ord> {
    nodes: Vec<Node<K>>,
    /// Subtree aggregates, parallel to `nodes` (packed
    /// [`AggRow`]s — the child-agg update pass reads this
    /// array only).
    aggs: Vec<AggRow>,
    free: Vec<u32>,
    root: u32,
    rng: u64,
    /// Reusable stack for the iterative split/merge stitching walks.
    scratch: Vec<u32>,
    /// Reusable stack for descent paths (insert/remove/pop may run a
    /// split or merge mid-operation, which owns `scratch`).
    descent: Vec<u32>,
}

impl<K: Ord> Default for AggTreap<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord> AggTreap<K> {
    /// Empty treap with a fixed default seed (deterministic shape).
    pub fn new() -> Self {
        Self::with_seed(0x9E3779B97F4A7C15)
    }

    /// Empty treap with an explicit priority seed.
    pub fn with_seed(seed: u64) -> Self {
        AggTreap {
            nodes: Vec::new(),
            aggs: Vec::new(),
            free: Vec::new(),
            root: NIL,
            rng: seed | 1,
            scratch: Vec::new(),
            descent: Vec::new(),
        }
    }

    /// Empty treap with arena space for `cap` entries preallocated —
    /// inserts up to the high-water mark `cap` never touch the
    /// allocator.
    pub fn with_capacity(cap: usize) -> Self {
        let mut t = Self::new();
        t.nodes.reserve(cap);
        t.aggs.reserve(cap);
        t
    }

    /// Builds a treap from entries **sorted by key** (non-decreasing) in
    /// `O(n)` via the rightmost-spine construction — no splits, no
    /// merges, one arena allocation.
    ///
    /// # Panics
    /// Panics when the input is out of order.
    pub fn from_sorted<I>(entries: I) -> Self
    where
        I: IntoIterator<Item = (K, f64)>,
    {
        let entries = entries.into_iter();
        let mut t = Self::with_capacity(entries.size_hint().0);
        // The right spine: nodes whose right link may still grow, root
        // first.
        let mut spine: Vec<u32> = Vec::new();
        for (key, weight) in entries {
            if let Some(&top) = spine.last() {
                assert!(
                    t.nodes[top as usize].key <= key,
                    "AggTreap::from_sorted: entries out of order"
                );
            }
            let x = t.alloc(key, weight);
            let mut last_popped = NIL;
            while let Some(&top) = spine.last() {
                if t.nodes[top as usize].pri < t.nodes[x as usize].pri {
                    spine.pop();
                    // `top`'s subtree is final once it leaves the spine.
                    t.update(top);
                    last_popped = top;
                } else {
                    break;
                }
            }
            t.nodes[x as usize].left = last_popped;
            match spine.last() {
                Some(&p) => t.nodes[p as usize].right = x,
                None => t.root = x,
            }
            spine.push(x);
        }
        t.fix_path_rev(&spine);
        t
    }

    fn next_pri(&mut self) -> u64 {
        // xorshift64* — cheap, good enough for treap priorities.
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.agg(self.root).count
    }

    /// Whether the treap is empty.
    pub fn is_empty(&self) -> bool {
        self.root == NIL
    }

    /// Number of entries the arena can hold before growing.
    pub fn capacity(&self) -> usize {
        self.nodes.capacity()
    }

    /// Aggregate over all entries.
    pub fn total(&self) -> Agg {
        self.agg(self.root)
    }

    #[inline]
    fn node(&self, i: u32) -> &Node<K> {
        &self.nodes[i as usize]
    }

    /// The packed aggregate row of slot `i` (zero for `NIL`).
    #[inline]
    fn packed(&self, i: u32) -> AggRow {
        if i == NIL {
            AggRow::ZERO
        } else {
            self.aggs[i as usize]
        }
    }

    #[inline]
    fn agg(&self, i: u32) -> Agg {
        let p = self.packed(i);
        Agg {
            count: p.count as usize,
            sum: p.sum,
        }
    }

    /// Recomputes `i`'s aggregates from its children — the child-agg
    /// update pass: two packed-row reads and one packed-row write
    /// against the dense aggregate array (the node array supplies only
    /// the links and the own weight).
    #[inline]
    fn update(&mut self, i: u32) {
        let (l, r, w) = {
            let n = self.node(i);
            (n.left, n.right, n.weight)
        };
        let la = self.packed(l);
        let ra = self.packed(r);
        self.aggs[i as usize] = AggRow {
            sum: w + la.sum + ra.sum,
            count: 1 + la.count + ra.count,
        };
    }

    /// Recomputes aggregates along a stored walk `path` bottom-up (the
    /// stack is pushed root-first, so fixes run in reverse) — the
    /// treap's child-agg update pass.
    fn fix_path_rev(&mut self, path: &[u32]) {
        for &i in path.iter().rev() {
            self.update(i);
        }
    }

    /// Takes a slot off the free list (or grows the arena) and
    /// initializes it as a singleton.
    fn alloc(&mut self, key: K, weight: f64) -> u32 {
        let pri = self.next_pri();
        match self.free.pop() {
            Some(i) => {
                let n = &mut self.nodes[i as usize];
                n.key = key;
                n.weight = weight;
                n.pri = pri;
                n.left = NIL;
                n.right = NIL;
                self.aggs[i as usize] = AggRow {
                    sum: weight,
                    count: 1,
                };
                i
            }
            None => {
                let i = self.nodes.len();
                assert!(i < NIL as usize, "AggTreap arena full");
                self.nodes.push(Node {
                    key,
                    weight,
                    pri,
                    left: NIL,
                    right: NIL,
                });
                self.aggs.push(AggRow {
                    sum: weight,
                    count: 1,
                });
                i as u32
            }
        }
    }

    /// Splits the subtree at `t` around the key of node `pivot` into
    /// `(keys ≤ pivot, keys > pivot)`. Iterative: stitches the two
    /// result trees top-down along the search path, then fixes
    /// aggregates bottom-up over the recorded path. (Index-based pivot
    /// so the pivot key can live inside the arena being mutated.)
    fn split_below(&mut self, mut t: u32, pivot: u32) -> (u32, u32) {
        let mut path = std::mem::take(&mut self.scratch);
        debug_assert!(path.is_empty());
        let (mut l, mut r) = (NIL, NIL);
        let (mut l_tail, mut r_tail) = (NIL, NIL);
        while t != NIL {
            path.push(t);
            let goes_left = self.node(t).key <= self.node(pivot).key;
            if goes_left {
                if l_tail == NIL {
                    l = t;
                } else {
                    self.nodes[l_tail as usize].right = t;
                }
                l_tail = t;
                t = self.node(t).right;
            } else {
                if r_tail == NIL {
                    r = t;
                } else {
                    self.nodes[r_tail as usize].left = t;
                }
                r_tail = t;
                t = self.node(t).left;
            }
        }
        if l_tail != NIL {
            self.nodes[l_tail as usize].right = NIL;
        }
        if r_tail != NIL {
            self.nodes[r_tail as usize].left = NIL;
        }
        self.fix_path_rev(&path);
        path.clear();
        self.scratch = path;
        (l, r)
    }

    /// Merges two subtrees where every key in `a` precedes every key in
    /// `b`. Iterative counterpart of the usual recursive merge.
    fn merge(&mut self, mut a: u32, mut b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        let mut path = std::mem::take(&mut self.scratch);
        debug_assert!(path.is_empty());
        let mut root = NIL;
        let mut tail = NIL;
        let mut tail_right = false;
        loop {
            if a == NIL || b == NIL {
                let rest = if a == NIL { b } else { a };
                if tail == NIL {
                    root = rest;
                } else if tail_right {
                    self.nodes[tail as usize].right = rest;
                } else {
                    self.nodes[tail as usize].left = rest;
                }
                break;
            }
            let pick_a = self.node(a).pri >= self.node(b).pri;
            let x = if pick_a { a } else { b };
            if tail == NIL {
                root = x;
            } else if tail_right {
                self.nodes[tail as usize].right = x;
            } else {
                self.nodes[tail as usize].left = x;
            }
            path.push(x);
            tail = x;
            tail_right = pick_a;
            if pick_a {
                a = self.node(x).right;
            } else {
                b = self.node(x).left;
            }
        }
        self.fix_path_rev(&path);
        path.clear();
        self.scratch = path;
        root
    }

    /// Reattaches `child` where the descent left off: under `parent` on
    /// the recorded side, or at the root.
    #[inline]
    fn reattach(&mut self, parent: u32, went_right: bool, child: u32) {
        if parent == NIL {
            self.root = child;
        } else if went_right {
            self.nodes[parent as usize].right = child;
        } else {
            self.nodes[parent as usize].left = child;
        }
    }

    /// Inserts an entry. Steady state (slot available on the free list)
    /// allocates nothing.
    ///
    /// Single descent: walks down while the resident priority wins,
    /// then splits only the subtree below the attachment point.
    pub fn insert(&mut self, key: K, weight: f64) {
        let x = self.alloc(key, weight);
        let xpri = self.node(x).pri;
        let mut path = std::mem::take(&mut self.descent);
        debug_assert!(path.is_empty());
        let mut cur = self.root;
        let mut parent = NIL;
        let mut went_right = false;
        while cur != NIL && self.node(cur).pri >= xpri {
            path.push(cur);
            // Equal keys: the new entry goes after existing ones.
            let go_right = self.node(cur).key <= self.node(x).key;
            parent = cur;
            went_right = go_right;
            cur = if go_right {
                self.node(cur).right
            } else {
                self.node(cur).left
            };
        }
        let (l, r) = self.split_below(cur, x);
        self.nodes[x as usize].left = l;
        self.nodes[x as usize].right = r;
        self.update(x);
        self.reattach(parent, went_right, x);
        // Ancestors gained the new entry: recompute bottom-up (full
        // recompute, not `sum += w` patching, so aggregate sums stay
        // bit-identical to a fresh build — the naive-backend-equality
        // contract the schedulers test for).
        self.fix_path_rev(&path);
        path.clear();
        self.descent = path;
    }

    /// Removes one entry with exactly `key`; returns its weight. The
    /// slot goes to the free list for reuse.
    ///
    /// Single descent to the victim, then one merge of its subtrees.
    pub fn remove(&mut self, key: &K) -> Option<f64> {
        let mut path = std::mem::take(&mut self.descent);
        debug_assert!(path.is_empty());
        let mut cur = self.root;
        let mut parent = NIL;
        let mut went_right = false;
        let found = loop {
            if cur == NIL {
                break false;
            }
            match key.cmp(&self.node(cur).key) {
                std::cmp::Ordering::Equal => break true,
                ord => {
                    path.push(cur);
                    let go_right = ord == std::cmp::Ordering::Greater;
                    parent = cur;
                    went_right = go_right;
                    cur = if go_right {
                        self.node(cur).right
                    } else {
                        self.node(cur).left
                    };
                }
            }
        };
        if !found {
            path.clear();
            self.descent = path;
            return None;
        }
        let weight = self.node(cur).weight;
        let (l, r) = {
            let n = self.node(cur);
            (n.left, n.right)
        };
        let merged = self.merge(l, r);
        self.reattach(parent, went_right, merged);
        self.free.push(cur);
        // Ancestors lost the victim: full bottom-up recompute (see
        // `insert` for why not `sum -= w` patching).
        self.fix_path_rev(&path);
        path.clear();
        self.descent = path;
        Some(weight)
    }

    /// Whether an entry with `key` exists.
    pub fn contains(&self, key: &K) -> bool {
        let mut cur = self.root;
        while cur != NIL {
            match key.cmp(&self.node(cur).key) {
                std::cmp::Ordering::Less => cur = self.node(cur).left,
                std::cmp::Ordering::Greater => cur = self.node(cur).right,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Smallest key.
    pub fn first(&self) -> Option<&K> {
        if self.root == NIL {
            return None;
        }
        let mut cur = self.root;
        while self.node(cur).left != NIL {
            cur = self.node(cur).left;
        }
        Some(&self.node(cur).key)
    }

    /// Largest key.
    pub fn last(&self) -> Option<&K> {
        if self.root == NIL {
            return None;
        }
        let mut cur = self.root;
        while self.node(cur).right != NIL {
            cur = self.node(cur).right;
        }
        Some(&self.node(cur).key)
    }

    /// Removes and returns the entry on the given side (`true` = min).
    fn pop_end(&mut self, min: bool) -> Option<(K, f64)>
    where
        K: Clone,
    {
        if self.root == NIL {
            return None;
        }
        let mut path = std::mem::take(&mut self.scratch);
        debug_assert!(path.is_empty());
        let mut cur = self.root;
        loop {
            let next = if min {
                self.node(cur).left
            } else {
                self.node(cur).right
            };
            if next == NIL {
                break;
            }
            path.push(cur);
            cur = next;
        }
        // The end node keeps at most one child, on the opposite side.
        let orphan = if min {
            self.node(cur).right
        } else {
            self.node(cur).left
        };
        let weight = self.node(cur).weight;
        match path.last() {
            Some(&p) => {
                if min {
                    self.nodes[p as usize].left = orphan;
                } else {
                    self.nodes[p as usize].right = orphan;
                }
            }
            None => self.root = orphan,
        }
        // Full bottom-up recompute; see `insert` for why.
        self.fix_path_rev(&path);
        path.clear();
        self.scratch = path;
        let key = self.node(cur).key.clone();
        self.free.push(cur);
        Some((key, weight))
    }

    /// Removes and returns the smallest entry.
    pub fn pop_first(&mut self) -> Option<(K, f64)>
    where
        K: Clone,
    {
        self.pop_end(true)
    }

    /// Removes and returns the largest entry.
    pub fn pop_last(&mut self) -> Option<(K, f64)>
    where
        K: Clone,
    {
        self.pop_end(false)
    }

    /// Aggregate over entries with key `≤ key`.
    pub fn agg_le(&self, key: &K) -> Agg {
        self.agg_bound(key, true)
    }

    /// Aggregate over entries with key `< key`.
    pub fn agg_lt(&self, key: &K) -> Agg {
        self.agg_bound(key, false)
    }

    fn agg_bound(&self, key: &K, inclusive: bool) -> Agg {
        let mut acc = Agg::default();
        let mut cur = self.root;
        while cur != NIL {
            let n = self.node(cur);
            let in_range = if inclusive {
                n.key <= *key
            } else {
                n.key < *key
            };
            if in_range {
                acc = acc.plus(self.agg(n.left)).plus(Agg {
                    count: 1,
                    sum: n.weight,
                });
                cur = n.right;
            } else {
                cur = n.left;
            }
        }
        acc
    }

    /// In-order iterator over `(&key, weight)`.
    pub fn iter(&self) -> Iter<'_, K> {
        let mut it = Iter {
            treap: self,
            stack: Vec::new(),
        };
        it.push_left(self.root);
        it
    }

    /// Drops all entries and the arena's contents.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.aggs.clear();
        self.free.clear();
        self.root = NIL;
    }
}

/// In-order iterator over an [`AggTreap`].
pub struct Iter<'a, K: Ord> {
    treap: &'a AggTreap<K>,
    stack: Vec<u32>,
}

impl<K: Ord> Iter<'_, K> {
    fn push_left(&mut self, mut i: u32) {
        while i != NIL {
            self.stack.push(i);
            i = self.treap.node(i).left;
        }
    }
}

impl<'a, K: Ord> Iterator for Iter<'a, K> {
    type Item = (&'a K, f64);

    fn next(&mut self) -> Option<Self::Item> {
        let i = self.stack.pop()?;
        let n = &self.treap.nodes[i as usize];
        self.push_left(n.right);
        Some((&n.key, n.weight))
    }
}

impl<K: Ord + std::fmt::Debug> std::fmt::Debug for AggTreap<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AggTreap")
            .field("len", &self.len())
            .field("total_sum", &self.total().sum)
            .field("arena_slots", &self.nodes.len())
            .field("free_slots", &self.free.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys<K: Ord + Copy>(t: &AggTreap<K>) -> Vec<K> {
        t.iter().map(|(k, _)| *k).collect()
    }

    /// Recomputes every reachable node's aggregates and checks the
    /// stored values, the BST order, and the heap property.
    fn check_invariants<K: Ord + Copy + std::fmt::Debug>(t: &AggTreap<K>) {
        fn walk<K: Ord + Copy + std::fmt::Debug>(
            t: &AggTreap<K>,
            i: u32,
            lo: Option<K>,
            hi: Option<K>,
        ) -> Agg {
            if i == NIL {
                return Agg::default();
            }
            let n = &t.nodes[i as usize];
            if let Some(lo) = lo {
                assert!(n.key >= lo, "BST order violated at {:?}", n.key);
            }
            if let Some(hi) = hi {
                assert!(n.key <= hi, "BST order violated at {:?}", n.key);
            }
            for child in [n.left, n.right] {
                if child != NIL {
                    assert!(
                        t.nodes[child as usize].pri <= n.pri,
                        "heap property violated"
                    );
                }
            }
            let la = walk(t, n.left, lo, Some(n.key));
            let ra = walk(t, n.right, Some(n.key), hi);
            let expect = 1 + la.count + ra.count;
            let stored = t.aggs[i as usize];
            assert_eq!(stored.count as usize, expect, "stale count at {:?}", n.key);
            assert!(
                (stored.sum - (n.weight + la.sum + ra.sum)).abs() < 1e-9,
                "stale sum at {:?}",
                n.key
            );
            Agg {
                count: expect,
                sum: stored.sum,
            }
        }
        let total = walk(t, t.root, None, None);
        assert_eq!(total.count, t.len());
    }

    #[test]
    fn insert_iterates_in_order() {
        let mut t = AggTreap::new();
        for k in [5, 1, 4, 2, 3] {
            t.insert(k, k as f64);
        }
        assert_eq!(keys(&t), vec![1, 2, 3, 4, 5]);
        assert_eq!(t.len(), 5);
        assert_eq!(t.total().sum, 15.0);
        check_invariants(&t);
    }

    #[test]
    fn agg_le_and_lt() {
        let mut t = AggTreap::new();
        for k in 1..=10 {
            t.insert(k, k as f64);
        }
        let le5 = t.agg_le(&5);
        assert_eq!(le5.count, 5);
        assert_eq!(le5.sum, 15.0);
        let lt5 = t.agg_lt(&5);
        assert_eq!(lt5.count, 4);
        assert_eq!(lt5.sum, 10.0);
        assert_eq!(t.agg_le(&0).count, 0);
        assert_eq!(t.agg_le(&100).count, 10);
    }

    #[test]
    fn first_last_pop() {
        let mut t = AggTreap::new();
        for k in [7, 3, 9, 1] {
            t.insert(k, 1.0);
        }
        assert_eq!(t.first(), Some(&1));
        assert_eq!(t.last(), Some(&9));
        assert_eq!(t.pop_first(), Some((1, 1.0)));
        assert_eq!(t.pop_last(), Some((9, 1.0)));
        assert_eq!(keys(&t), vec![3, 7]);
        assert_eq!(t.len(), 2);
        check_invariants(&t);
    }

    #[test]
    fn remove_specific_key() {
        let mut t = AggTreap::new();
        for k in 1..=5 {
            t.insert(k, k as f64 * 2.0);
        }
        assert_eq!(t.remove(&3), Some(6.0));
        assert_eq!(t.remove(&3), None);
        assert_eq!(keys(&t), vec![1, 2, 4, 5]);
        assert_eq!(t.total().sum, 2.0 + 4.0 + 8.0 + 10.0);
        check_invariants(&t);
    }

    #[test]
    fn duplicates_supported() {
        let mut t = AggTreap::new();
        t.insert(2, 1.0);
        t.insert(2, 2.0);
        t.insert(2, 3.0);
        assert_eq!(t.len(), 3);
        assert_eq!(t.agg_le(&2).count, 3);
        // remove takes exactly one of them.
        assert!(t.remove(&2).is_some());
        assert_eq!(t.len(), 2);
        check_invariants(&t);
    }

    #[test]
    fn contains_lookup() {
        let mut t = AggTreap::new();
        t.insert(4, 1.0);
        assert!(t.contains(&4));
        assert!(!t.contains(&5));
    }

    #[test]
    fn pop_on_empty_is_none() {
        let mut t: AggTreap<i32> = AggTreap::new();
        assert!(t.pop_first().is_none());
        assert!(t.pop_last().is_none());
        assert!(t.first().is_none());
        assert!(t.last().is_none());
    }

    #[test]
    fn clear_empties() {
        let mut t = AggTreap::new();
        t.insert(1, 1.0);
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn composite_f64_keys_work() {
        use crate::total::TotalF64;
        let mut t: AggTreap<(TotalF64, u32)> = AggTreap::new();
        t.insert((TotalF64(2.5), 0), 2.5);
        t.insert((TotalF64(1.5), 1), 1.5);
        t.insert((TotalF64(2.5), 2), 2.5);
        assert_eq!(t.first().unwrap().1, 1);
        let agg = t.agg_le(&(TotalF64(2.5), u32::MAX));
        assert_eq!(agg.count, 3);
        assert!((agg.sum - 6.5).abs() < 1e-12);
    }

    #[test]
    fn large_sequential_insert_stays_consistent() {
        let mut t = AggTreap::new();
        let n = 10_000;
        for k in 0..n {
            t.insert(k, 1.0);
        }
        assert_eq!(t.len(), n as usize);
        assert_eq!(t.agg_le(&(n / 2)).count, (n / 2 + 1) as usize);
        for k in (0..n).step_by(2) {
            assert_eq!(t.remove(&k), Some(1.0));
        }
        assert_eq!(t.len(), (n / 2) as usize);
        assert_eq!(t.first(), Some(&1));
        check_invariants(&t);
    }

    #[test]
    fn randomized_ops_preserve_invariants() {
        let mut t = AggTreap::new();
        let mut state = 0x5EEDu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..40 {
            for _ in 0..50 {
                let k = (next() % 100) as i64;
                match next() % 5 {
                    0 | 1 => t.insert(k, (k % 7) as f64 + 0.5),
                    2 => {
                        t.remove(&k);
                    }
                    3 => {
                        t.pop_first();
                    }
                    _ => {
                        t.pop_last();
                    }
                }
            }
            check_invariants(&t);
            let _ = round;
        }
    }

    #[test]
    fn free_list_reuse_keeps_arena_flat() {
        let mut t = AggTreap::with_capacity(64);
        // Steady-state churn: the live set never exceeds 64 entries, so
        // after warm-up the arena must stop growing — every insert must
        // land on a freed slot.
        for k in 0..64 {
            t.insert(k, 1.0);
        }
        let slots_after_warmup = t.nodes.len();
        for round in 0i64..200 {
            for k in 0..16 {
                t.pop_first();
                t.insert(1000 + round * 16 + k, 1.0);
            }
            assert_eq!(t.len(), 64);
            assert_eq!(
                t.nodes.len(),
                slots_after_warmup,
                "arena grew at round {round}"
            );
        }
        check_invariants(&t);
    }

    #[test]
    fn with_capacity_does_not_grow_under_cap() {
        let mut t = AggTreap::with_capacity(1000);
        let cap = t.capacity();
        assert!(cap >= 1000);
        for k in 0..1000 {
            t.insert(k, 1.0);
        }
        assert_eq!(t.capacity(), cap);
    }

    #[test]
    fn from_sorted_matches_incremental_build() {
        let entries: Vec<(i32, f64)> = (0..500).map(|k| (k, k as f64 * 0.5)).collect();
        let bulk = AggTreap::from_sorted(entries.clone());
        check_invariants(&bulk);
        let mut inc = AggTreap::new();
        for &(k, w) in &entries {
            inc.insert(k, w);
        }
        assert_eq!(bulk.len(), inc.len());
        assert_eq!(keys(&bulk), keys(&inc));
        for probe in [-1, 0, 17, 250, 499, 500] {
            assert_eq!(bulk.agg_le(&probe).count, inc.agg_le(&probe).count);
            assert!((bulk.agg_le(&probe).sum - inc.agg_le(&probe).sum).abs() < 1e-9);
        }
        assert!((bulk.total().sum - inc.total().sum).abs() < 1e-9);
    }

    #[test]
    fn from_sorted_then_mutate() {
        let mut t = AggTreap::from_sorted((0..100).map(|k| (k, 1.0)));
        assert_eq!(t.pop_first(), Some((0, 1.0)));
        assert_eq!(t.pop_last(), Some((99, 1.0)));
        t.insert(-5, 1.0);
        t.insert(500, 1.0);
        assert_eq!(t.remove(&50), Some(1.0));
        assert_eq!(t.len(), 99);
        assert_eq!(t.first(), Some(&-5));
        assert_eq!(t.last(), Some(&500));
        check_invariants(&t);
    }

    #[test]
    fn from_sorted_accepts_duplicates_and_empty() {
        let t: AggTreap<i32> = AggTreap::from_sorted(std::iter::empty());
        assert!(t.is_empty());
        let t = AggTreap::from_sorted([(3, 1.0), (3, 2.0), (3, 3.0)]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.agg_le(&3).sum, 6.0);
        check_invariants(&t);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn from_sorted_rejects_unsorted() {
        let _ = AggTreap::from_sorted([(2, 1.0), (1, 1.0)]);
    }

    #[test]
    fn deep_monotone_inserts_do_not_overflow_stack() {
        // The iterative walks must survive any depth; 200k monotone
        // inserts + full drain exercises long spines.
        let mut t = AggTreap::new();
        let n = 200_000i64;
        for k in 0..n {
            t.insert(k, 1.0);
        }
        assert_eq!(t.len(), n as usize);
        let mut prev = -1;
        while let Some((k, _)) = t.pop_first() {
            assert!(k > prev);
            prev = k;
        }
        assert!(t.is_empty());
    }
}
