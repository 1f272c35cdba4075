//! A transactional unordered map with per-bucket boxes.
//!
//! A fixed array of buckets, each bucket a box holding a small sorted
//! vector. Point operations touch exactly one bucket, so transactions
//! conflict only on hash collisions — the cheap point-lookup structure the
//! TPC-C tables use for customer/stock access paths.

use rtf::{Tx, VBox};
use std::hash::{BuildHasher, BuildHasherDefault, Hash};
use std::sync::Arc;

use rtf_txbase::fxmap::FxHasher;

use crate::btree::{TKey, TVal};

/// Key bound: hashing on top of the B-tree key bounds.
pub trait HKey: TKey + Hash {}
impl<T: TKey + Hash> HKey for T {}

/// One bucket: a small vector of entries in a box.
type Bucket<K, V> = VBox<Vec<(K, V)>>;

/// A transactional hash map with a fixed bucket count.
pub struct THashMap<K: HKey, V: TVal> {
    buckets: Arc<[Bucket<K, V>]>,
    hasher: BuildHasherDefault<FxHasher>,
}

impl<K: HKey, V: TVal> Clone for THashMap<K, V> {
    fn clone(&self) -> Self {
        THashMap { buckets: Arc::clone(&self.buckets), hasher: Default::default() }
    }
}

impl<K: HKey, V: TVal> THashMap<K, V> {
    /// Map with `buckets` buckets (rounded up to a power of two). Size the
    /// bucket count near the expected population: the map does not resize
    /// (resizing would touch every bucket and serialize all writers).
    pub fn with_buckets(buckets: usize) -> Self {
        let n = buckets.next_power_of_two().max(8);
        let slots: Vec<Bucket<K, V>> = (0..n).map(|_| VBox::new(Vec::new())).collect();
        THashMap { buckets: slots.into(), hasher: Default::default() }
    }

    fn bucket(&self, key: &K) -> &Bucket<K, V> {
        let h = self.hasher.hash_one(key) as usize;
        &self.buckets[h & (self.buckets.len() - 1)]
    }

    /// Transactional lookup.
    pub fn get(&self, tx: &mut Tx, key: &K) -> Option<V> {
        tx.read_with(self.bucket(key), |_, b| {
            b.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
        })
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, tx: &mut Tx, key: &K) -> bool {
        self.get(tx, key).is_some()
    }

    /// Transactional insert; returns the previous value, if any.
    pub fn insert(&self, tx: &mut Tx, key: K, value: V) -> Option<V> {
        let bbox = self.bucket(&key);
        let (b, old) = tx.read_with(bbox, |_, cur| {
            let pos = cur.iter().position(|(k, _)| *k == key);
            // Built once at its exact length: a clone-then-push would grow a
            // one-entry bucket to a four-entry buffer in every retained
            // version.
            let mut b = Vec::with_capacity(cur.len() + pos.is_none() as usize);
            b.extend(cur.iter().cloned());
            let old = match pos {
                Some(i) => Some(std::mem::replace(&mut b[i].1, value)),
                None => {
                    b.push((key, value));
                    None
                }
            };
            (b, old)
        });
        tx.write(bbox, b);
        old
    }

    /// Transactional removal; returns the removed value, if any.
    pub fn remove(&self, tx: &mut Tx, key: &K) -> Option<V> {
        let bbox = self.bucket(key);
        let (b, v) = tx.read_with(bbox, |_, b| {
            let pos = b.iter().position(|(k, _)| k == key)?;
            let mut b = b.clone();
            let (_, v) = b.swap_remove(pos);
            Some((b, v))
        })?;
        tx.write(bbox, b);
        Some(v)
    }

    /// Applies `f` to the value under `key`, writing back the result.
    /// Returns whether the key was present.
    pub fn update(&self, tx: &mut Tx, key: &K, f: impl FnOnce(&mut V)) -> bool {
        let bbox = self.bucket(key);
        let Some(b) = tx.read_with(bbox, |_, b| {
            let pos = b.iter().position(|(k, _)| k == key)?;
            let mut b = b.clone();
            f(&mut b[pos].1);
            Some(b)
        }) else {
            return false;
        };
        tx.write(bbox, b);
        true
    }

    /// Visits every entry (bucket order, unspecified within/across buckets).
    pub fn for_each(&self, tx: &mut Tx, f: &mut impl FnMut(&K, &V)) {
        for bucket in self.buckets.iter() {
            tx.read_with(bucket, |_, b| {
                for (k, v) in b {
                    f(k, v);
                }
            });
        }
    }

    /// Entry count (full scan).
    pub fn count(&self, tx: &mut Tx) -> usize {
        let mut n = 0;
        self.for_each(tx, &mut |_, _| n += 1);
        n
    }

    /// Number of buckets (for sizing diagnostics).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtf::Rtf;
    use std::collections::HashMap;

    #[test]
    fn basic_ops() {
        let tm = Rtf::builder().workers(1).build();
        let m: THashMap<u64, String> = THashMap::with_buckets(16);
        tm.atomic(|tx| {
            assert_eq!(m.insert(tx, 1, "a".into()), None);
            assert_eq!(m.insert(tx, 1, "b".into()), Some("a".into()));
            assert_eq!(m.get(tx, &1), Some("b".into()));
            assert!(m.contains_key(tx, &1));
            assert!(!m.contains_key(tx, &2));
            assert!(m.update(tx, &1, |v| v.push('!')));
            assert_eq!(m.get(tx, &1), Some("b!".into()));
            assert!(!m.update(tx, &2, |_| ()));
            assert_eq!(m.remove(tx, &1), Some("b!".into()));
            assert_eq!(m.remove(tx, &1), None);
            assert_eq!(m.count(tx), 0);
        });
    }

    #[test]
    fn committed_buckets_are_exact_size() {
        let tm = Rtf::builder().workers(0).build();
        let m: THashMap<u64, u64> = THashMap::with_buckets(8);
        let exact = |key: u64| {
            let b = m.bucket(&key).read_committed();
            assert!(!b.is_empty());
            assert_eq!(b.capacity(), b.len(), "key {key}");
        };
        // New keys, including a second entry in an occupied bucket.
        for k in 0..20u64 {
            tm.atomic(|tx| m.insert(tx, k, k));
            exact(k);
        }
        // A replaced key keeps the bucket at its exact length.
        tm.atomic(|tx| assert_eq!(m.insert(tx, 3, 30), Some(3)));
        exact(3);
    }

    #[test]
    fn bucket_count_rounds_up() {
        let m: THashMap<u64, u64> = THashMap::with_buckets(100);
        assert_eq!(m.bucket_count(), 128);
        let m: THashMap<u64, u64> = THashMap::with_buckets(0);
        assert_eq!(m.bucket_count(), 8);
    }

    #[test]
    fn collisions_within_buckets_are_handled() {
        let tm = Rtf::builder().workers(1).build();
        // 8 buckets, 200 keys: plenty of collisions.
        let m: THashMap<u64, u64> = THashMap::with_buckets(8);
        tm.atomic(|tx| {
            for i in 0..200u64 {
                m.insert(tx, i, i * 2);
            }
            assert_eq!(m.count(tx), 200);
            for i in 0..200u64 {
                assert_eq!(m.get(tx, &i), Some(i * 2));
            }
            for i in (0..200u64).step_by(3) {
                assert_eq!(m.remove(tx, &i), Some(i * 2));
            }
            assert_eq!(m.count(tx), 200 - 67);
        });
    }

    /// Seeded random operation sequences replayed against
    /// `std::collections::HashMap` (48 deterministic cases).
    #[test]
    fn matches_std_hashmap() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..48u64 {
            let mut rng = StdRng::seed_from_u64(0x4A5D_0000 + seed);
            let ops: Vec<(u8, u16, u64)> = (0..rng.gen_range(1..200usize))
                .map(|_| {
                    (rng.gen_range(0u8..3), rng.gen_range(0u16..128), rng.gen_range(0u64..100))
                })
                .collect();
            let tm = Rtf::builder().workers(0).build();
            let m: THashMap<u16, u64> = THashMap::with_buckets(16);
            tm.atomic(|tx| {
                let mut model: HashMap<u16, u64> = HashMap::new();
                for (op, k, v) in &ops {
                    match op {
                        0 => assert_eq!(m.insert(tx, *k, *v), model.insert(*k, *v)),
                        1 => assert_eq!(m.remove(tx, k), model.remove(k)),
                        _ => assert_eq!(m.get(tx, k), model.get(k).copied()),
                    }
                }
                assert_eq!(m.count(tx), model.len(), "count diverged (seed {seed})");
            });
        }
    }
}
