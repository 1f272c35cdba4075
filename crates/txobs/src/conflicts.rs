//! Abort attribution: which cells conflicts concentrate on.
//!
//! Every attributed abort
//! ([`Event::Conflict`](rtf_txengine::Event::Conflict)) names the cell whose
//! read was displaced (or whose tentative entry was foreign) and, when known,
//! the tree owning the displacing write. This table aggregates them per cell so
//! a run can be summarized as a *conflict-hotspot report* — the site-level
//! profile that contention-aware scheduling and data-mapping work needs.
//! Aborts are orders of magnitude rarer than reads, so a plain mutex-guarded
//! map is plenty; the hot commit path never touches it.

use parking_lot::Mutex;
use rtf_txbase::FxHashMap;
use rtf_txengine::ConflictKind;

#[derive(Default, Clone, Copy)]
struct CellCounts {
    top_validation: u64,
    sub_validation: u64,
    inter_tree: u64,
    last_writer_tree: u64,
}

/// One row of the hotspot report: a cell and its attributed abort counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hotspot {
    /// Raw id of the conflicted cell (stable within one process run).
    pub cell: u64,
    /// Aborts attributed at top-level commit validation.
    pub top_validation: u64,
    /// Aborts attributed at sub-transaction (Alg 4) validation.
    pub sub_validation: u64,
    /// Whole-tree aborts from foreign tentative entries.
    pub inter_tree: u64,
    /// Raw id of the most recent known conflicting writer tree (0 when the
    /// displacement was an already-permanent commit).
    pub last_writer_tree: u64,
}

impl Hotspot {
    /// Total attributed aborts on this cell.
    pub fn total(&self) -> u64 {
        self.top_validation + self.sub_validation + self.inter_tree
    }
}

/// Per-cell conflict counters (see module docs).
#[derive(Default)]
pub struct ConflictTable {
    map: Mutex<FxHashMap<u64, CellCounts>>,
}

impl ConflictTable {
    /// Records one attributed abort.
    pub fn record(&self, kind: ConflictKind, cell: u64, writer_tree: u64) {
        let mut map = self.map.lock();
        let c = map.entry(cell).or_default();
        match kind {
            ConflictKind::TopValidation => c.top_validation += 1,
            ConflictKind::SubValidation => c.sub_validation += 1,
            ConflictKind::InterTree => c.inter_tree += 1,
        }
        if writer_tree != 0 {
            c.last_writer_tree = writer_tree;
        }
    }

    /// Total attributed aborts across all cells.
    pub fn total(&self) -> u64 {
        self.map.lock().values().map(|c| c.top_validation + c.sub_validation + c.inter_tree).sum()
    }

    /// The `n` most-conflicted cells, descending by total attributed aborts
    /// (ties broken by cell id for deterministic reports).
    pub fn top_n(&self, n: usize) -> Vec<Hotspot> {
        let mut rows: Vec<Hotspot> = self
            .map
            .lock()
            .iter()
            .map(|(&cell, c)| Hotspot {
                cell,
                top_validation: c.top_validation,
                sub_validation: c.sub_validation,
                inter_tree: c.inter_tree,
                last_writer_tree: c.last_writer_tree,
            })
            .collect();
        rows.sort_by(|a, b| b.total().cmp(&a.total()).then(a.cell.cmp(&b.cell)));
        rows.truncate(n);
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_per_cell_and_ranks_by_total() {
        let t = ConflictTable::default();
        for _ in 0..3 {
            t.record(ConflictKind::SubValidation, 7, 40);
        }
        t.record(ConflictKind::TopValidation, 7, 0);
        t.record(ConflictKind::InterTree, 9, 41);
        assert_eq!(t.total(), 5);
        let top = t.top_n(10);
        assert_eq!(top.len(), 2);
        assert_eq!(
            top[0],
            Hotspot {
                cell: 7,
                top_validation: 1,
                sub_validation: 3,
                inter_tree: 0,
                last_writer_tree: 40,
            }
        );
        assert_eq!(top[0].total(), 4);
        assert_eq!(top[1].cell, 9);
        // Truncation honours n.
        assert_eq!(t.top_n(1).len(), 1);
    }

    #[test]
    fn permanent_displacements_do_not_clobber_known_writers() {
        let t = ConflictTable::default();
        t.record(ConflictKind::SubValidation, 1, 55);
        t.record(ConflictKind::TopValidation, 1, 0);
        assert_eq!(t.top_n(1)[0].last_writer_tree, 55);
    }

    #[test]
    fn tie_break_is_deterministic() {
        let t = ConflictTable::default();
        t.record(ConflictKind::InterTree, 30, 0);
        t.record(ConflictKind::InterTree, 10, 0);
        t.record(ConflictKind::InterTree, 20, 0);
        let cells: Vec<u64> = t.top_n(3).iter().map(|h| h.cell).collect();
        assert_eq!(cells, vec![10, 20, 30]);
    }
}
