//! The unified transactional access pipeline: one read-resolution walk and
//! one validation loop, parameterized by a [`Visibility`] policy.
//!
//! Every read in the system — a top-level snapshot read, a sub-transaction
//! read under the Fig 4 visibility rule, or a commit-time re-resolution
//! during validation — asks the same three questions in the same order:
//!
//! 1. is some *tentative* entry of the cell visible to me?
//! 2. failing that, do I have a *local* buffered write (top-level write-set
//!    or the tree's root write-set)?
//! 3. failing that, which *permanent* version is in my snapshot?
//!
//! What differs between the paths is only the answer policy: which tentative
//! entries count as visible (none at top level; the `ancVer`/`nClock` rules
//! for sub-transactions; the order-cutoff rules at validation) and which
//! snapshot bounds the permanent lookup (the transaction's start version for
//! reads; "latest" for top-level validation). [`resolve_read`] is the single
//! walk; [`validate_reads`] is the single validation loop, re-resolving each
//! recorded read under a validation policy and comparing write identities.
//!
//! Validation by token comparison subsumes the classic version comparison:
//! write tokens are unique per write, so "re-resolving yields the same token"
//! holds exactly when the read would observe the same write again — for a
//! top-level read that is "no version newer than my start committed", the
//! JVSTM validation rule.

use std::borrow::Cow;
use std::sync::Arc;

use rtf_txbase::{TreeId, Version, WriteToken};

use crate::cell::{read_pin, CellId, ReadPath, ReadPin, TentativeEntry, VBoxCell};
use crate::readset::{ReadRecord, Source};
use crate::value::Val;

/// A read-visibility policy: what one transactional context is allowed to
/// observe. Implemented once per access path (top-level read, top-level
/// validation, sub-transaction read, sub-transaction validation).
pub trait Visibility {
    /// Visibility of one tentative entry to this reader, or `None` when the
    /// entry must be skipped. Called under the cell's tentative-list lock,
    /// in descending serialization order; the first `Some` wins.
    fn tentative(&self, entry: &TentativeEntry) -> Option<Source>;

    /// Local buffered write for `id` (top-level write-set / root write-set),
    /// consulted after the tentative walk and before the permanent list.
    fn local(&self, id: CellId) -> Option<(Val, WriteToken)>;

    /// Snapshot version bounding the permanent-list fallback.
    fn snapshot(&self) -> Version;

    /// Whether the tentative walk applies at all. Top-level policies return
    /// `false`: they can never observe tentative entries, and skipping the
    /// walk avoids taking the tentative-list lock on the hot read path.
    fn scans_tentative(&self) -> bool {
        true
    }

    /// The tree this reader belongs to, when its tentative rule can only
    /// ever admit entries of that tree (the Fig 4 policies all filter by
    /// `entry.tree` first). Lets [`resolve_read`] skip the tentative-list
    /// mutex via the cell's owner tag when the list holds only other trees'
    /// entries. `None` (the default) claims nothing and always scans.
    fn tentative_tree(&self) -> Option<TreeId> {
        None
    }
}

/// A resolved read: the observed value, the identity of the write that
/// produced it, and which layer served it.
pub struct Resolution<'g> {
    /// The observed value: borrowed from the permanent version (kept alive
    /// by the read's pin), or an owned clone of a tentative entry's or local
    /// buffer's value — those are private to the reader's tree.
    pub value: Cow<'g, Val>,
    /// Identity of the observed write.
    pub token: WriteToken,
    /// Which layer served the read.
    pub source: Source,
    /// Tree owning the observed write when it was served from a tentative
    /// entry; [`TreeId::NONE`] for local and permanent sources (abort
    /// attribution material — see [`ConflictSite`]).
    pub writer_tree: TreeId,
    /// Which permanent-list path served the read. Tentative and local hits
    /// never touch the permanent list and report [`ReadPath::Fast`] (they
    /// are lock-free for the reporting transaction by construction).
    pub path: ReadPath,
}

/// Resolves one read of `cell` under `policy` — the only read-resolution
/// walk in the workspace (tentative list, then local buffer, then permanent
/// versions). A permanent hit borrows the version's value for as long as
/// `pin` and the cell borrow last, so it writes no shared reference count.
#[inline]
pub fn resolve_read<'g, V: Visibility + ?Sized>(
    policy: &V,
    cell: &'g Arc<VBoxCell>,
    pin: &'g ReadPin,
) -> Resolution<'g> {
    // The owner tag lets readers skip the tentative mutex when the list is
    // empty or holds only entries their tree-filtering rule would reject —
    // the common case for every read class except the writer's own tree.
    if policy.scans_tentative() && cell.tentative_scan_needed(policy.tentative_tree()) {
        let list = cell.tentative_lock();
        for entry in list.iter() {
            if let Some(source) = policy.tentative(entry) {
                return Resolution {
                    value: Cow::Owned(entry.value.clone()),
                    token: entry.token,
                    source,
                    writer_tree: entry.tree,
                    path: ReadPath::Fast,
                };
            }
        }
    }
    if let Some((value, token)) = policy.local(cell.id()) {
        return Resolution {
            value: Cow::Owned(value),
            token,
            source: Source::Local,
            writer_tree: TreeId::NONE,
            path: ReadPath::Fast,
        };
    }
    let (value, token, path) = cell.read_ref_at(policy.snapshot(), pin);
    Resolution {
        value: Cow::Borrowed(value),
        token,
        source: Source::Permanent,
        writer_tree: TreeId::NONE,
        path,
    }
}

/// The cell a validation failed on, and (when the displacing write is still
/// tentative) the tree that owns it. This is the abort-attribution record
/// aggregated by the observability layer into conflict-hotspot reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConflictSite {
    /// The cell whose recorded read no longer resolves to the same write.
    pub cell: CellId,
    /// Tree owning the displacing write, or [`TreeId::NONE`] when the
    /// displacement is an already-permanent commit.
    pub writer_tree: TreeId,
}

/// Validates a set of recorded reads — the only token-validation loop in the
/// workspace. Each read is re-resolved under the policy `policy_for` builds
/// for it, and stays valid iff it would observe the same write again.
///
/// Reads served from the reader's own write ([`Source::OwnWrite`]) are
/// exempt: nobody else can displace them before the reader commits. Only
/// tokens are compared, so a read re-resolved to a permanent version clones
/// no value.
pub fn validate_reads<'a, V, I, F>(reads: I, policy_for: F) -> bool
where
    V: Visibility,
    I: IntoIterator<Item = &'a ReadRecord>,
    F: FnMut(&ReadRecord) -> V,
{
    validate_reads_detailed(reads, policy_for).is_ok()
}

/// [`validate_reads`], attributing the failure: returns the first read that
/// would resolve differently, as a [`ConflictSite`] naming the cell and —
/// when the displacing write is tentative — the tree that owns it.
pub fn validate_reads_detailed<'a, V, I, F>(reads: I, mut policy_for: F) -> Result<(), ConflictSite>
where
    V: Visibility,
    I: IntoIterator<Item = &'a ReadRecord>,
    F: FnMut(&ReadRecord) -> V,
{
    let pin = read_pin();
    for r in reads {
        if r.source == Source::OwnWrite {
            continue;
        }
        let res = resolve_read(&policy_for(r), &r.cell, &pin);
        if res.token != r.token {
            return Err(ConflictSite { cell: r.cell.id(), writer_tree: res.writer_tree });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::tentative_insert;
    use crate::value::{downcast, erase};
    use rtf_txbase::{new_node_id, new_tree_id, new_write_token, OrderKey, Orec};

    /// A policy whose behaviour is fully table-driven, for exercising the
    /// walk in isolation from any real transaction machinery.
    struct Fake {
        snapshot: Version,
        scans: bool,
        local: Option<(Val, WriteToken)>,
        visible_tokens: Vec<WriteToken>,
    }

    impl Visibility for Fake {
        fn tentative(&self, entry: &TentativeEntry) -> Option<Source> {
            self.visible_tokens.contains(&entry.token).then_some(Source::Tentative)
        }
        fn local(&self, _id: CellId) -> Option<(Val, WriteToken)> {
            self.local.clone()
        }
        fn snapshot(&self) -> Version {
            self.snapshot
        }
        fn scans_tentative(&self) -> bool {
            self.scans
        }
    }

    fn fake(snapshot: Version) -> Fake {
        Fake { snapshot, scans: true, local: None, visible_tokens: Vec::new() }
    }

    fn add_tentative(cell: &Arc<VBoxCell>, key: OrderKey, val: u32) -> WriteToken {
        let token = new_write_token();
        tentative_insert(
            &mut cell.tentative_lock(),
            TentativeEntry {
                key,
                token,
                value: erase(val),
                orec: Arc::new(Orec::new(new_node_id())),
                tree: new_tree_id(),
            },
        );
        token
    }

    #[test]
    fn falls_through_to_permanent_snapshot() {
        let pin = read_pin();
        let cell = VBoxCell::new(erase(10u32));
        cell.apply_commit(5, erase(50u32), new_write_token(), 0);
        let r = resolve_read(&fake(4), &cell, &pin);
        assert_eq!(*downcast::<u32>(r.value.into_owned()), 10);
        assert_eq!(r.source, Source::Permanent);
        let r = resolve_read(&fake(5), &cell, &pin);
        assert_eq!(*downcast::<u32>(r.value.into_owned()), 50);
    }

    #[test]
    fn local_buffer_beats_permanent() {
        let pin = read_pin();
        let cell = VBoxCell::new(erase(10u32));
        let tok = new_write_token();
        let mut p = fake(100);
        p.local = Some((erase(77u32), tok));
        let r = resolve_read(&p, &cell, &pin);
        assert_eq!(*downcast::<u32>(r.value.into_owned()), 77);
        assert_eq!(r.token, tok);
        assert_eq!(r.source, Source::Local);
    }

    #[test]
    fn first_visible_tentative_entry_wins() {
        let pin = read_pin();
        let cell = VBoxCell::new(erase(0u32));
        let root = OrderKey::root();
        // Later in serialization order sits earlier in the (descending) list.
        let t_early = add_tentative(&cell, root.child_future(0).write_key(0), 1);
        let t_late = add_tentative(&cell, root.child_cont(0).write_key(0), 2);
        let mut p = fake(100);
        p.visible_tokens = vec![t_early, t_late];
        let r = resolve_read(&p, &cell, &pin);
        assert_eq!(r.token, t_late, "descending walk must stop at the newest visible write");
        assert_eq!(r.source, Source::Tentative);
        // Hide the late one: the walk continues to the earlier entry.
        p.visible_tokens = vec![t_early];
        assert_eq!(resolve_read(&p, &cell, &pin).token, t_early);
    }

    #[test]
    fn policies_that_do_not_scan_skip_tentative_entries() {
        let pin = read_pin();
        let cell = VBoxCell::new(erase(0u32));
        let tok = add_tentative(&cell, OrderKey::root().write_key(0), 9);
        let mut p = fake(100);
        p.visible_tokens = vec![tok];
        p.scans = false;
        let r = resolve_read(&p, &cell, &pin);
        assert_eq!(r.source, Source::Permanent);
        assert_eq!(*downcast::<u32>(r.value.into_owned()), 0);
    }

    #[test]
    fn permanent_hits_borrow_and_private_hits_own() {
        let pin = read_pin();
        let cell = VBoxCell::new(erase(10u32));
        let r = resolve_read(&fake(0), &cell, &pin);
        let Cow::Borrowed(v) = r.value else { panic!("a permanent hit must borrow") };
        // Only the version node holds the value: the read took no count.
        assert_eq!(Arc::strong_count(v), 1);
        let tok = add_tentative(&cell, OrderKey::root().write_key(0), 9);
        let mut p = fake(0);
        p.visible_tokens = vec![tok];
        assert!(matches!(resolve_read(&p, &cell, &pin).value, Cow::Owned(_)));
    }

    #[test]
    fn validate_detects_displaced_reads_and_exempts_own_writes() {
        let cell = VBoxCell::new(erase(0u32));
        let seen = cell.latest_token();
        let record =
            |token, source| ReadRecord { cell: Arc::clone(&cell), token, source, epoch: 0 };
        // Unchanged: valid.
        assert!(validate_reads([&record(seen, Source::Permanent)], |_| fake(Version::MAX)));
        // A newer commit displaces the read.
        cell.apply_commit(3, erase(1u32), new_write_token(), 0);
        assert!(!validate_reads([&record(seen, Source::Permanent)], |_| fake(Version::MAX)));
        // ... but a stale own-write record is exempt by construction.
        assert!(validate_reads([&record(seen, Source::OwnWrite)], |_| fake(Version::MAX)));
        // Validation at the original snapshot still accepts the read (the
        // newer commit is outside the snapshot).
        assert!(validate_reads([&record(seen, Source::Permanent)], |_| fake(0)));
    }

    #[test]
    fn detailed_validation_attributes_cell_and_writer_tree() {
        let cell = VBoxCell::new(erase(0u32));
        let seen = cell.latest_token();
        let record =
            |token, source| ReadRecord { cell: Arc::clone(&cell), token, source, epoch: 0 };
        assert_eq!(
            validate_reads_detailed([&record(seen, Source::Permanent)], |_| fake(Version::MAX)),
            Ok(())
        );
        // Displaced by a visible tentative write: the conflict names the cell
        // and the owning tree.
        let tok = add_tentative(&cell, OrderKey::root().write_key(0), 1);
        let site = validate_reads_detailed([&record(seen, Source::Permanent)], |_| Fake {
            snapshot: Version::MAX,
            scans: true,
            local: None,
            visible_tokens: vec![tok],
        })
        .unwrap_err();
        assert_eq!(site.cell, cell.id());
        assert_ne!(site.writer_tree, TreeId::NONE);
        // Displaced by a permanent commit: no tentative owner to blame.
        cell.apply_commit(3, erase(2u32), new_write_token(), 0);
        let site =
            validate_reads_detailed([&record(seen, Source::Permanent)], |_| fake(3)).unwrap_err();
        assert_eq!(site, ConflictSite { cell: cell.id(), writer_tree: TreeId::NONE });
    }
}
