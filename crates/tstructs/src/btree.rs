//! A transactional ordered map: a copy-on-write B-tree of versioned boxes.
//!
//! Every tree node lives in its own [`VBox`], so the TM tracks node accesses
//! individually: a point update touches one leaf (plus ancestors only when
//! nodes split or merge), and two transactions conflict exactly when their
//! access paths overlap on a written node. This mirrors the role STAMP's
//! red-black tree plays for the Vacation benchmark, with the ordered range
//! scans the paper's long transactions need ("identify travels within a
//! given price range", §V).
//!
//! Structure invariants (checked by `debug_validate` in tests):
//! * leaves hold sorted `(K, V)` entries; internals hold `seps.len() + 1`
//!   children, where `seps[i]` is the smallest key of subtree `i + 1`;
//! * every non-root node has between `MIN_KEYS` and `MAX_KEYS` entries.

use rtf::{Tx, VBox};

const MAX_KEYS: usize = 15;
const MIN_KEYS: usize = 6;

/// Key bound for [`TBTreeMap`].
pub trait TKey: Ord + Clone + Send + Sync + 'static {}
impl<T: Ord + Clone + Send + Sync + 'static> TKey for T {}

/// Value bound for [`TBTreeMap`].
pub trait TVal: Clone + Send + Sync + 'static {}
impl<T: Clone + Send + Sync + 'static> TVal for T {}

enum BNode<K: TKey, V: TVal> {
    Leaf(Vec<(K, V)>),
    Internal { seps: Vec<K>, children: Vec<VBox<BNode<K, V>>> },
}

impl<K: TKey, V: TVal> Clone for BNode<K, V> {
    fn clone(&self) -> Self {
        match self {
            BNode::Leaf(e) => BNode::Leaf(e.clone()),
            BNode::Internal { seps, children } => {
                BNode::Internal { seps: seps.clone(), children: children.clone() }
            }
        }
    }
}

/// The elements of `v` with `item` inserted at `i`, cloned lazily so a
/// copy-on-write insert can build each new node with [`take_exact`] in one
/// exact-size allocation (a clone followed by `Vec::insert` reallocates to
/// twice the length, leaving a half-empty buffer in every retained version).
fn with_inserted<T: Clone>(v: &[T], i: usize, item: T) -> impl Iterator<Item = T> + '_ {
    v[..i].iter().cloned().chain(std::iter::once(item)).chain(v[i..].iter().cloned())
}

/// The next `n` elements of `it`, in a vector of capacity `n`.
fn take_exact<T>(it: &mut impl Iterator<Item = T>, n: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(n);
    out.extend(it.take(n));
    out
}

/// A transactional ordered map.
pub struct TBTreeMap<K: TKey, V: TVal> {
    root: VBox<BNode<K, V>>,
}

impl<K: TKey, V: TVal> Clone for TBTreeMap<K, V> {
    fn clone(&self) -> Self {
        TBTreeMap { root: self.root.clone() }
    }
}

impl<K: TKey, V: TVal> Default for TBTreeMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// Result of a recursive insert: did the child split?
enum Ins<K: TKey, V: TVal> {
    Done(Option<V>),
    Split { sep: K, right: VBox<BNode<K, V>>, old: Option<V> },
}

impl<K: TKey, V: TVal> TBTreeMap<K, V> {
    /// Empty map.
    pub fn new() -> Self {
        TBTreeMap { root: VBox::new(BNode::Leaf(Vec::new())) }
    }

    /// Transactional lookup.
    pub fn get(&self, tx: &mut Tx, key: &K) -> Option<V> {
        Self::get_rec(tx, &self.root, key)
    }

    fn get_rec(tx: &mut Tx, nbox: &VBox<BNode<K, V>>, key: &K) -> Option<V> {
        tx.read_with(nbox, |tx, node| match node {
            BNode::Leaf(entries) => {
                entries.binary_search_by(|(k, _)| k.cmp(key)).ok().map(|i| entries[i].1.clone())
            }
            BNode::Internal { seps, children } => {
                let idx = seps.partition_point(|s| s <= key);
                Self::get_rec(tx, &children[idx], key)
            }
        })
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, tx: &mut Tx, key: &K) -> bool {
        self.get(tx, key).is_some()
    }

    /// Transactional insert; returns the previous value, if any.
    pub fn insert(&self, tx: &mut Tx, key: K, value: V) -> Option<V> {
        match Self::insert_rec(tx, &self.root, key, value) {
            Ins::Done(old) => old,
            Ins::Split { sep, right, old } => {
                // Root split: move the (already updated) left half into a
                // fresh box and grow the tree by one level in place.
                let left_val = Self::node_copy(tx, &self.root);
                let left = VBox::new(left_val);
                tx.write(
                    &self.root,
                    BNode::Internal { seps: vec![sep], children: vec![left, right] },
                );
                old
            }
        }
    }

    fn insert_rec(tx: &mut Tx, nbox: &VBox<BNode<K, V>>, key: K, value: V) -> Ins<K, V> {
        tx.read_with(nbox, |tx, node| match node {
            BNode::Leaf(entries) => {
                let i = match entries.binary_search_by(|(k, _)| k.cmp(&key)) {
                    Ok(i) => {
                        let mut entries = entries.clone();
                        let old = std::mem::replace(&mut entries[i].1, value);
                        tx.write(nbox, BNode::Leaf(entries));
                        return Ins::Done(Some(old));
                    }
                    Err(i) => i,
                };
                let n = entries.len() + 1;
                let mut all = with_inserted(entries, i, (key, value));
                if n > MAX_KEYS {
                    let left = take_exact(&mut all, n / 2);
                    let right_half = take_exact(&mut all, n - n / 2);
                    let sep = right_half[0].0.clone();
                    tx.write(nbox, BNode::Leaf(left));
                    let right = VBox::new(BNode::Leaf(right_half));
                    Ins::Split { sep, right, old: None }
                } else {
                    tx.write(nbox, BNode::Leaf(take_exact(&mut all, n)));
                    Ins::Done(None)
                }
            }
            BNode::Internal { seps, children } => {
                let idx = seps.partition_point(|s| *s <= key);
                match Self::insert_rec(tx, &children[idx], key, value) {
                    Ins::Done(old) => Ins::Done(old),
                    Ins::Split { sep, right, old } => {
                        let n = seps.len() + 1;
                        let mut all_seps = with_inserted(seps, idx, sep);
                        let mut all_children = with_inserted(children, idx + 1, right);
                        if n > MAX_KEYS {
                            let mid = n / 2;
                            let seps = take_exact(&mut all_seps, mid);
                            // The middle separator moves to the parent.
                            let sep_up = all_seps.next().expect("n > mid");
                            let right_seps = take_exact(&mut all_seps, n - mid - 1);
                            let children = take_exact(&mut all_children, mid + 1);
                            let right_children = take_exact(&mut all_children, n - mid);
                            tx.write(nbox, BNode::Internal { seps, children });
                            let right = VBox::new(BNode::Internal {
                                seps: right_seps,
                                children: right_children,
                            });
                            Ins::Split { sep: sep_up, right, old }
                        } else {
                            let seps = take_exact(&mut all_seps, n);
                            let children = take_exact(&mut all_children, n + 1);
                            tx.write(nbox, BNode::Internal { seps, children });
                            Ins::Done(old)
                        }
                    }
                }
            }
        })
    }

    /// Transactional removal; returns the removed value, if any.
    pub fn remove(&self, tx: &mut Tx, key: &K) -> Option<V> {
        let (removed, _) = Self::remove_rec(tx, &self.root, key);
        // Root shrink: an internal root left with a single child is
        // replaced by that child's content.
        if removed.is_some() {
            let content = tx.read_with(&self.root, |tx, root| match root {
                BNode::Internal { seps, children } if seps.is_empty() => {
                    debug_assert_eq!(children.len(), 1);
                    Some(Self::node_copy(tx, &children[0]))
                }
                _ => None,
            });
            if let Some(content) = content {
                tx.write(&self.root, content);
            }
        }
        removed
    }

    fn remove_rec(tx: &mut Tx, nbox: &VBox<BNode<K, V>>, key: &K) -> (Option<V>, bool) {
        tx.read_with(nbox, |tx, node| match node {
            BNode::Leaf(entries) => match entries.binary_search_by(|(k, _)| k.cmp(key)) {
                Ok(i) => {
                    let mut entries = entries.clone();
                    let (_, v) = entries.remove(i);
                    let underflow = entries.len() < MIN_KEYS;
                    tx.write(nbox, BNode::Leaf(entries));
                    (Some(v), underflow)
                }
                Err(_) => (None, false),
            },
            BNode::Internal { seps, children } => {
                let idx = seps.partition_point(|s| s <= key);
                let (removed, underflow) = Self::remove_rec(tx, &children[idx], key);
                if removed.is_none() || !underflow {
                    return (removed, false);
                }
                let mut seps = seps.clone();
                let mut children = children.clone();
                Self::fix_underflow(tx, &mut seps, &mut children, idx);
                let parent_underflow = seps.len() < MIN_KEYS;
                tx.write(nbox, BNode::Internal { seps, children });
                (removed, parent_underflow)
            }
        })
    }

    /// Restores the minimum-occupancy invariant of `children[idx]` by
    /// borrowing from or merging with a sibling.
    fn fix_underflow(
        tx: &mut Tx,
        seps: &mut Vec<K>,
        children: &mut Vec<VBox<BNode<K, V>>>,
        idx: usize,
    ) {
        // Prefer borrowing from the richer adjacent sibling.
        let left_len = if idx > 0 { Self::node_len(tx, &children[idx - 1]) } else { 0 };
        let right_len =
            if idx + 1 < children.len() { Self::node_len(tx, &children[idx + 1]) } else { 0 };

        if left_len > MIN_KEYS && left_len >= right_len {
            Self::borrow_from_left(tx, seps, children, idx);
        } else if right_len > MIN_KEYS {
            Self::borrow_from_right(tx, seps, children, idx);
        } else if idx > 0 {
            Self::merge(tx, seps, children, idx - 1);
        } else {
            Self::merge(tx, seps, children, idx);
        }
    }

    fn node_len(tx: &mut Tx, nbox: &VBox<BNode<K, V>>) -> usize {
        tx.read_with(nbox, |_, node| match node {
            BNode::Leaf(e) => e.len(),
            BNode::Internal { seps, .. } => seps.len(),
        })
    }

    /// A private copy of the node in `nbox`, for a copy-on-write update.
    fn node_copy(tx: &mut Tx, nbox: &VBox<BNode<K, V>>) -> BNode<K, V> {
        tx.read_with(nbox, |_, node| node.clone())
    }

    fn borrow_from_left(tx: &mut Tx, seps: &mut [K], children: &[VBox<BNode<K, V>>], idx: usize) {
        let (left, cur) = (&children[idx - 1], &children[idx]);
        let mut lnode = Self::node_copy(tx, left);
        let mut cnode = Self::node_copy(tx, cur);
        match (&mut lnode, &mut cnode) {
            (BNode::Leaf(le), BNode::Leaf(ce)) => {
                let moved = le.pop().expect("left sibling above minimum");
                seps[idx - 1] = moved.0.clone();
                ce.insert(0, moved);
            }
            (
                BNode::Internal { seps: ls, children: lc },
                BNode::Internal { seps: cs, children: cc },
            ) => {
                // Rotate through the parent separator.
                let moved_child = lc.pop().expect("left sibling above minimum");
                let moved_sep = ls.pop().expect("left sibling above minimum");
                let down = std::mem::replace(&mut seps[idx - 1], moved_sep);
                cs.insert(0, down);
                cc.insert(0, moved_child);
            }
            _ => unreachable!("siblings are at the same height"),
        }
        tx.write(left, lnode);
        tx.write(cur, cnode);
    }

    fn borrow_from_right(tx: &mut Tx, seps: &mut [K], children: &[VBox<BNode<K, V>>], idx: usize) {
        let (cur, right) = (&children[idx], &children[idx + 1]);
        let mut cnode = Self::node_copy(tx, cur);
        let mut rnode = Self::node_copy(tx, right);
        match (&mut cnode, &mut rnode) {
            (BNode::Leaf(ce), BNode::Leaf(re)) => {
                let moved = re.remove(0);
                ce.push(moved);
                seps[idx] = re[0].0.clone();
            }
            (
                BNode::Internal { seps: cs, children: cc },
                BNode::Internal { seps: rs, children: rc },
            ) => {
                let moved_child = rc.remove(0);
                let moved_sep = rs.remove(0);
                let down = std::mem::replace(&mut seps[idx], moved_sep);
                cs.push(down);
                cc.push(moved_child);
            }
            _ => unreachable!("siblings are at the same height"),
        }
        tx.write(cur, cnode);
        tx.write(right, rnode);
    }

    /// Merges `children[i + 1]` into `children[i]`.
    fn merge(tx: &mut Tx, seps: &mut Vec<K>, children: &mut Vec<VBox<BNode<K, V>>>, i: usize) {
        let mut lnode = Self::node_copy(tx, &children[i]);
        let right = children.remove(i + 1);
        let rnode = Self::node_copy(tx, &right);
        let sep = seps.remove(i);
        match (&mut lnode, rnode) {
            (BNode::Leaf(le), BNode::Leaf(re)) => {
                le.extend(re);
            }
            (
                BNode::Internal { seps: ls, children: lc },
                BNode::Internal { seps: rs, children: rc },
            ) => {
                ls.push(sep);
                ls.extend(rs);
                lc.extend(rc);
            }
            _ => unreachable!("siblings are at the same height"),
        }
        tx.write(&children[i], lnode);
    }

    /// Collects all entries with `lo <= key < hi`, in order.
    pub fn range(&self, tx: &mut Tx, lo: &K, hi: &K) -> Vec<(K, V)> {
        let mut out = Vec::new();
        if lo < hi {
            self.range_into(tx, &self.root, lo, hi, &mut out);
        }
        out
    }

    fn range_into(
        &self,
        tx: &mut Tx,
        nbox: &VBox<BNode<K, V>>,
        lo: &K,
        hi: &K,
        out: &mut Vec<(K, V)>,
    ) {
        tx.read_with(nbox, |tx, node| match node {
            BNode::Leaf(entries) => {
                let start = entries.partition_point(|(k, _)| k < lo);
                for (k, v) in &entries[start..] {
                    if k >= hi {
                        break;
                    }
                    out.push((k.clone(), v.clone()));
                }
            }
            BNode::Internal { seps, children } => {
                let first = seps.partition_point(|s| s <= lo);
                let last = seps.partition_point(|s| s < hi);
                for child in &children[first..=last] {
                    self.range_into(tx, child, lo, hi, out);
                }
            }
        })
    }

    /// In-order visit of every entry.
    pub fn for_each(&self, tx: &mut Tx, f: &mut impl FnMut(&K, &V)) {
        Self::for_each_rec(tx, &self.root, f);
    }

    fn for_each_rec(tx: &mut Tx, nbox: &VBox<BNode<K, V>>, f: &mut impl FnMut(&K, &V)) {
        tx.read_with(nbox, |tx, node| match node {
            BNode::Leaf(entries) => {
                for (k, v) in entries {
                    f(k, v);
                }
            }
            BNode::Internal { children, .. } => {
                for child in children {
                    Self::for_each_rec(tx, child, f);
                }
            }
        })
    }

    /// Number of entries (full scan).
    pub fn count(&self, tx: &mut Tx) -> usize {
        let mut n = 0;
        self.for_each(tx, &mut |_, _| n += 1);
        n
    }

    /// Checks all structure invariants; returns the entry count.
    /// Test/diagnostic helper (full scan).
    pub fn debug_validate(&self, tx: &mut Tx) -> usize {
        fn walk<K: TKey, V: TVal>(
            tx: &mut Tx,
            nbox: &VBox<BNode<K, V>>,
            lo: Option<&K>,
            hi: Option<&K>,
            is_root: bool,
            depth: usize,
            leaf_depth: &mut Option<usize>,
        ) -> usize {
            tx.read_with(nbox, |tx, node| match node {
                BNode::Leaf(entries) => {
                    assert!(is_root || entries.len() >= MIN_KEYS, "leaf underflow");
                    assert!(entries.len() <= MAX_KEYS + 1, "leaf overflow");
                    assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "unsorted leaf");
                    if let Some(lo) = lo {
                        assert!(entries.iter().all(|(k, _)| k >= lo), "key below bound");
                    }
                    if let Some(hi) = hi {
                        assert!(entries.iter().all(|(k, _)| k < hi), "key above bound");
                    }
                    match leaf_depth {
                        Some(d) => assert_eq!(*d, depth, "unbalanced tree"),
                        None => *leaf_depth = Some(depth),
                    }
                    entries.len()
                }
                BNode::Internal { seps, children } => {
                    assert!(is_root || seps.len() >= MIN_KEYS, "internal underflow");
                    assert_eq!(children.len(), seps.len() + 1, "child/sep mismatch");
                    assert!(seps.windows(2).all(|w| w[0] < w[1]), "unsorted seps");
                    let mut total = 0;
                    for (i, child) in children.iter().enumerate() {
                        let clo = if i == 0 { lo } else { Some(&seps[i - 1]) };
                        let chi = if i == seps.len() { hi } else { Some(&seps[i]) };
                        total += walk(tx, child, clo, chi, false, depth + 1, leaf_depth);
                    }
                    total
                }
            })
        }
        let mut leaf_depth = None;
        walk(tx, &self.root, None, None, true, 0, &mut leaf_depth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtf::Rtf;
    use std::collections::BTreeMap;

    fn tm() -> Rtf {
        Rtf::builder().workers(1).build()
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let tm = tm();
        let m: TBTreeMap<u64, String> = TBTreeMap::new();
        tm.atomic(|tx| {
            assert_eq!(m.insert(tx, 5, "five".into()), None);
            assert_eq!(m.insert(tx, 5, "FIVE".into()), Some("five".into()));
            assert_eq!(m.get(tx, &5), Some("FIVE".into()));
            assert_eq!(m.get(tx, &6), None);
            assert_eq!(m.remove(tx, &5), Some("FIVE".into()));
            assert_eq!(m.remove(tx, &5), None);
        });
    }

    /// Asserts every committed node below `nbox` holds exact-size vectors;
    /// returns the number of leaves visited.
    fn assert_exact_nodes(nbox: &VBox<BNode<u64, u64>>) -> usize {
        match &*nbox.read_committed() {
            BNode::Leaf(entries) => {
                assert_eq!(entries.capacity(), entries.len(), "leaf");
                1
            }
            BNode::Internal { seps, children } => {
                assert_eq!(seps.capacity(), seps.len(), "seps");
                assert_eq!(children.capacity(), children.len(), "children");
                children.iter().map(assert_exact_nodes).sum()
            }
        }
    }

    #[test]
    fn committed_nodes_are_exact_size() {
        let tm = Rtf::builder().workers(0).build();
        let m: TBTreeMap<u64, u64> = TBTreeMap::new();
        // Scattered keys, one commit each, through leaf and internal splits.
        for i in 0..600u64 {
            tm.atomic(|tx| m.insert(tx, i * 7 % 600, i));
        }
        // Replacing keys keeps the leaves exact too.
        for k in (0..600u64).step_by(5) {
            tm.atomic(|tx| assert!(m.insert(tx, k, 0).is_some()));
        }
        assert!(assert_exact_nodes(&m.root) > MAX_KEYS + 1, "tree has internal splits");
        assert_eq!(tm.atomic(|tx| m.debug_validate(tx)), 600);
    }

    #[test]
    fn grows_through_many_splits() {
        let tm = tm();
        let m: TBTreeMap<u64, u64> = TBTreeMap::new();
        tm.atomic(|tx| {
            for i in 0..2000u64 {
                m.insert(tx, i * 7 % 2000, i);
            }
            assert_eq!(m.debug_validate(tx), 2000);
            for i in 0..2000u64 {
                assert!(m.contains_key(tx, &i), "missing {i}");
            }
        });
    }

    #[test]
    fn shrinks_through_merges_and_borrows() {
        let tm = tm();
        let m: TBTreeMap<u64, u64> = TBTreeMap::new();
        tm.atomic(|tx| {
            for i in 0..1000u64 {
                m.insert(tx, i, i);
            }
            // Remove in a mixed pattern to exercise left/right borrows and
            // merges at several depths.
            for i in (0..1000u64).step_by(2) {
                assert_eq!(m.remove(tx, &i), Some(i));
                if i % 64 == 0 {
                    m.debug_validate(tx);
                }
            }
            for i in (1..1000u64).rev().filter(|i| i % 2 == 1) {
                assert_eq!(m.remove(tx, &i), Some(i));
                if i % 63 == 0 {
                    m.debug_validate(tx);
                }
            }
            assert_eq!(m.count(tx), 0);
            m.debug_validate(tx);
        });
    }

    #[test]
    fn range_scan_matches_model() {
        let tm = tm();
        let m: TBTreeMap<u64, u64> = TBTreeMap::new();
        tm.atomic(|tx| {
            let mut model = BTreeMap::new();
            for i in 0..500u64 {
                let k = (i * 37) % 1000;
                m.insert(tx, k, i);
                model.insert(k, i);
            }
            for (lo, hi) in [(0u64, 1000u64), (100, 200), (999, 1000), (500, 500), (0, 1)] {
                let got = m.range(tx, &lo, &hi);
                let want: Vec<(u64, u64)> = model.range(lo..hi).map(|(k, v)| (*k, *v)).collect();
                assert_eq!(got, want, "range {lo}..{hi}");
            }
        });
    }

    #[test]
    fn for_each_is_in_order() {
        let tm = tm();
        let m: TBTreeMap<i64, ()> = TBTreeMap::new();
        tm.atomic(|tx| {
            for i in [5i64, -3, 99, 0, 42, -77] {
                m.insert(tx, i, ());
            }
            let mut seen = Vec::new();
            m.for_each(tx, &mut |k, _| seen.push(*k));
            assert_eq!(seen, vec![-77, -3, 0, 5, 42, 99]);
        });
    }

    #[test]
    fn concurrent_inserts_disjoint_ranges() {
        let tm = std::sync::Arc::new(Rtf::builder().workers(2).build());
        let m: TBTreeMap<u64, u64> = TBTreeMap::new();
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let tm = std::sync::Arc::clone(&tm);
                let m = m.clone();
                std::thread::spawn(move || {
                    for i in 0..100u64 {
                        let k = t * 1000 + i;
                        tm.atomic(|tx| {
                            m.insert(tx, k, k);
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        tm.atomic(|tx| {
            assert_eq!(m.debug_validate(tx), 400);
        });
    }

    /// Seeded random operation sequences replayed against
    /// `std::collections::BTreeMap` (64 deterministic cases).
    #[test]
    fn matches_std_btreemap() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(0xB7EE_0000 + seed);
            let ops: Vec<(u8, u16, u64)> = (0..rng.gen_range(1..400usize))
                .map(|_| {
                    (rng.gen_range(0u8..3), rng.gen_range(0u16..256), rng.gen_range(0u64..1000))
                })
                .collect();
            let tm = Rtf::builder().workers(0).build();
            let m: TBTreeMap<u16, u64> = TBTreeMap::new();
            // Replay deterministically inside one transaction; the model
            // must match at every step. The model lives inside the closure
            // so the body stays `Fn` (re-executable).
            tm.atomic(|tx| {
                let mut model: BTreeMap<u16, u64> = BTreeMap::new();
                for (op, k, v) in &ops {
                    match op {
                        0 => {
                            let got = m.insert(tx, *k, *v);
                            let want = model.insert(*k, *v);
                            assert_eq!(got, want, "insert diverged (seed {seed})");
                        }
                        1 => {
                            let got = m.remove(tx, k);
                            let want = model.remove(k);
                            assert_eq!(got, want, "remove diverged (seed {seed})");
                        }
                        _ => {
                            let got = m.get(tx, k);
                            let want = model.get(k).copied();
                            assert_eq!(got, want, "get diverged (seed {seed})");
                        }
                    }
                }
                assert_eq!(m.debug_validate(tx), model.len(), "length diverged (seed {seed})");
            });
        }
    }
}
