//! The top-level visibility policy (paper §III-A).
//!
//! A top-level transaction reads the most recent committed version at or
//! below its snapshot, and its read-write commit validates every such read
//! against the latest committed state. Both run through the shared engine
//! pipeline (`rtf-txengine`); the `rtf` core resolves the top level's reads
//! with its own tree-aware policies, and this module contributes the policy
//! the commit chain validates under — [`TopVisibility`]: tentative entries
//! are never visible, there is no local buffer, and the permanent lookup is
//! unbounded.

use rtf_txbase::{Version, WriteToken};
use rtf_txengine::{CellId, Source, TentativeEntry, Val, Visibility};

/// The top-level validation policy: no tentative entry is ever visible
/// (top-level commits validate only against committed state) and the
/// permanent lookup sees the latest committed version.
pub struct TopVisibility;

impl TopVisibility {
    /// Policy for commit-time validation: re-resolving a read against the
    /// *latest* committed state. A read stays valid iff it would observe
    /// the same write token again, which holds exactly when no version
    /// newer than the reader's snapshot committed to that cell — the JVSTM
    /// validation rule, expressed through the engine's token comparison.
    pub fn latest() -> Self {
        TopVisibility
    }
}

impl Visibility for TopVisibility {
    fn tentative(&self, _entry: &TentativeEntry) -> Option<Source> {
        None
    }

    fn local(&self, _id: CellId) -> Option<(Val, WriteToken)> {
        None
    }

    fn snapshot(&self) -> Version {
        Version::MAX
    }

    fn scans_tentative(&self) -> bool {
        false
    }
}
