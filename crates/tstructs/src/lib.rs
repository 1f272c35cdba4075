//! Transactional data structures over `rtf` versioned boxes.
//!
//! The JTF programming model tracks accesses through `VBox` containers;
//! realistic workloads (the paper evaluates STAMP Vacation and TPC-C) need
//! maps and arrays built from them. This crate provides:
//!
//! * [`TArray`] — a fixed-size array of boxes (the 1M-element array of the
//!   synthetic benchmark, §V);
//! * [`TBTreeMap`] — an ordered map as a copy-on-write B-tree whose nodes
//!   live in individual boxes (the role STAMP's red-black tree plays for
//!   Vacation; supports the price-range scans the paper parallelizes);
//! * [`THashMap`] — an unordered map with per-bucket boxes (TPC-C point
//!   lookups).
//!
//! All operations take the transaction handle (`&mut Tx`) and are safe to
//! run inside transactional futures: conflicts are detected and resolved by
//! the TM exactly as for raw box accesses.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod array;
pub mod btree;
pub mod hashmap;

pub use array::TArray;
pub use btree::TBTreeMap;
pub use hashmap::THashMap;
