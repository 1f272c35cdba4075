//! A fixed-size transactional array.

use rtf::{Tx, TxData, VBox};
use std::sync::Arc;

/// A fixed-size array of versioned boxes.
///
/// This is the data structure of the paper's synthetic benchmark (§V): an
/// array of 1M elements accessed at random indices, with each element
/// individually tracked so disjoint accesses never conflict.
pub struct TArray<T: TxData> {
    slots: Arc<[VBox<T>]>,
}

impl<T: TxData> Clone for TArray<T> {
    fn clone(&self) -> Self {
        TArray { slots: Arc::clone(&self.slots) }
    }
}

impl<T: TxData> TArray<T> {
    /// Builds an array of `len` elements, each initialized by `init(i)`.
    pub fn new(len: usize, mut init: impl FnMut(usize) -> T) -> Self {
        let slots: Vec<VBox<T>> = (0..len).map(|i| VBox::new(init(i))).collect();
        TArray { slots: slots.into() }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the array is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Transactional read of element `i`, as a shared handle that outlives
    /// the call ([`TArray::get_owned`] reads without cloning the handle).
    pub fn get(&self, tx: &mut Tx, i: usize) -> Arc<T> {
        tx.read(&self.slots[i])
    }

    /// Transactional write of element `i`.
    pub fn set(&self, tx: &mut Tx, i: usize, value: T) {
        tx.write(&self.slots[i], value);
    }

    /// Direct access to the underlying box (advanced uses: sharing an
    /// element with another structure, non-transactional post-run reads).
    pub fn slot(&self, i: usize) -> &VBox<T> {
        &self.slots[i]
    }
}

impl<T: TxData + Clone> TArray<T> {
    /// Transactional read returning an owned value.
    pub fn get_owned(&self, tx: &mut Tx, i: usize) -> T {
        tx.read_with(&self.slots[i], |_, v| v.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtf::Rtf;

    #[test]
    fn init_and_rw() {
        let tm = Rtf::builder().workers(1).build();
        let a: TArray<u64> = TArray::new(100, |i| i as u64);
        assert_eq!(a.len(), 100);
        assert!(!a.is_empty());
        let v = tm.atomic(|tx| {
            let before = *a.get(tx, 7);
            a.set(tx, 7, 70);
            (before, a.get_owned(tx, 7))
        });
        assert_eq!(v, (7, 70));
        assert_eq!(*a.slot(7).read_committed(), 70);
    }

    #[test]
    fn disjoint_futures_do_not_conflict() {
        let tm = Rtf::builder().workers(2).build();
        let a: TArray<u64> = TArray::new(64, |_| 0);
        tm.atomic(|tx| {
            let futs: Vec<_> = (0..4)
                .map(|chunk| {
                    let a = a.clone();
                    tx.submit(move |tx| {
                        for i in (chunk * 16)..((chunk + 1) * 16) {
                            a.set(tx, i, i as u64 + 1);
                        }
                        0u8
                    })
                })
                .collect();
            for f in &futs {
                let _ = tx.eval(f);
            }
        });
        let s = tm.stats();
        assert_eq!(s.sub_validation_aborts, 0, "disjoint writes must not abort: {s:?}");
        for i in 0..64 {
            assert_eq!(*a.slot(i).read_committed(), i as u64 + 1);
        }
    }
}
