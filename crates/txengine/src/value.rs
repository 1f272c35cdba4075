//! Type-erased value storage.
//!
//! Version lists must be monomorphic so the whole concurrency-control
//! machinery is instantiated once. Values are stored as
//! `Arc<dyn Any + Send + Sync>`; the typed [`crate::VBox`] wrapper performs
//! the (infallible when used through the typed API) downcasts.

use std::any::Any;
use std::sync::Arc;

/// Bound required of every value stored in a versioned box.
///
/// Boxes hold immutable *snapshots*: to change a value a transaction writes
/// a new one (copy-on-write). Cloning of values themselves is never needed
/// by the runtime — readers receive `Arc`s.
pub trait TxData: Any + Send + Sync {}
impl<T: Any + Send + Sync> TxData for T {}

/// A type-erased, immutable, shareable value snapshot.
pub type Val = Arc<dyn Any + Send + Sync>;

/// Erases a typed value.
#[inline]
pub fn erase<T: TxData>(value: T) -> Val {
    Arc::new(value)
}

/// Recovers the typed value. Panics on type mismatch, which is unreachable
/// through the typed `VBox<T>` API.
#[inline]
pub fn downcast<T: TxData>(val: Val) -> Arc<T> {
    val.downcast::<T>().unwrap_or_else(|_| {
        panic!(
            "rtf internal error: versioned box holds a value of unexpected type (expected {})",
            std::any::type_name::<T>()
        )
    })
}

/// Borrows the typed value behind `val`, with the panic of [`downcast`]
/// on a type mismatch.
#[inline]
pub fn downcast_ref<T: TxData>(val: &Val) -> &T {
    val.downcast_ref::<T>().unwrap_or_else(|| {
        panic!(
            "rtf internal error: versioned box holds a value of unexpected type (expected {})",
            std::any::type_name::<T>()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erase_downcast_roundtrip() {
        let v = erase(41u64);
        assert_eq!(*downcast::<u64>(v), 41);
    }

    #[test]
    #[should_panic(expected = "unexpected type")]
    fn downcast_wrong_type_panics() {
        let v = erase(41u64);
        let _ = downcast::<String>(v);
    }

    #[test]
    fn arc_sharing_without_clone() {
        // Values need not be Clone: Arc sharing suffices.
        struct NotClone(#[allow(dead_code)] u32);
        let v = erase(NotClone(7));
        let a = downcast::<NotClone>(v.clone());
        let b = downcast::<NotClone>(v);
        assert_eq!(a.0 + b.0, 14);
    }
}
