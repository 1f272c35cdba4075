//! The ordered-execution lane's per-transaction commit ticket.
//!
//! In ordered mode ([`crate::RtfBuilder::ordered`]) every top-level
//! transaction holds an [`OrderedTicket`] for its lifetime: drawn from the
//! runtime's sharded [`TicketDispenser`] before the first attempt, carried
//! across retries (a validation conflict re-executes *at the same position*
//! in the predefined order), and resolved exactly once — either completed
//! at commit (emitting [`Event::TicketCommit`], the commit-order log entry)
//! or abandoned (panic, cancellation, retry exhaustion, stall abort), in
//! which case the lane skips over the hole so successors never wait on a
//! dead predecessor.
//!
//! The RAII shape is the point: *every* exit path of the retry loop —
//! including unwinds — retires the ticket, so a lost ticket can never wedge
//! the lane.

use std::sync::Arc;

use rtf_txbase::{Ticket, TicketDispenser, TicketLane};
use rtf_txengine::{Counter, Event, Telemetry};

/// A held position in the runtime's predefined commit order.
///
/// Obtained implicitly by every top-level transaction of an ordered-mode
/// runtime, or explicitly via [`crate::Rtf::ticket`] to pin the order to
/// submission order (and passed to [`crate::Rtf::run_with`]).
pub struct OrderedTicket {
    dispenser: Arc<TicketDispenser>,
    telemetry: Arc<Telemetry>,
    ticket: Ticket,
    done: bool,
}

impl OrderedTicket {
    /// Draws the next ticket and counts it as `tickets_issued`.
    pub(crate) fn acquire(
        dispenser: Arc<TicketDispenser>,
        telemetry: Arc<Telemetry>,
    ) -> OrderedTicket {
        let ticket = dispenser.acquire();
        telemetry.count(Counter::TicketsIssued, 1);
        OrderedTicket { dispenser, telemetry, ticket, done: false }
    }

    /// The held `(lane, seq)` position.
    pub fn ticket(&self) -> Ticket {
        self.ticket
    }

    /// The lane this ticket commits through.
    pub(crate) fn lane(&self) -> &TicketLane {
        self.dispenser.lane(self.ticket.lane)
    }

    /// Consumes the ticket after a successful commit: emits
    /// [`Event::TicketCommit`] (the commit-order log entry) *while still
    /// holding the turn* — so log entries of one lane are strictly
    /// ascending — then passes the turn to the successor.
    pub(crate) fn complete(mut self, tree: u64) {
        self.telemetry.event(Event::TicketCommit {
            lane: self.ticket.lane,
            seq: self.ticket.seq,
            tree,
        });
        self.done = true;
        self.dispenser.lane(self.ticket.lane).retire(self.ticket.seq);
    }
}

impl Drop for OrderedTicket {
    fn drop(&mut self) {
        if !self.done {
            // Abandoned before commit (abort path or unwind): record the
            // hole and let the lane skip it.
            self.telemetry
                .event(Event::TicketAbandoned { lane: self.ticket.lane, seq: self.ticket.seq });
            self.dispenser.lane(self.ticket.lane).retire(self.ticket.seq);
        }
    }
}

impl std::fmt::Debug for OrderedTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "OrderedTicket({}/{})", self.ticket.lane, self.ticket.seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtf_txbase::TmStats;

    fn fixture() -> (Arc<TicketDispenser>, Arc<TmStats>, Arc<Telemetry>) {
        let tel = Arc::new(Telemetry::default());
        (Arc::new(TicketDispenser::new(1)), Arc::clone(tel.stats()), tel)
    }

    #[test]
    fn complete_emits_commit_and_advances_lane() {
        let (d, stats, tel) = fixture();
        let t = OrderedTicket::acquire(Arc::clone(&d), Arc::clone(&tel));
        assert_eq!((t.ticket().lane, t.ticket().seq), (0, 0));
        t.complete(42);
        let s = stats.snapshot();
        assert_eq!(s.tickets_issued, 1);
        assert_eq!(s.ordered_commits, 1);
        assert_eq!(s.tickets_abandoned, 0);
        assert_eq!(d.lane(0).turn(), 1);
    }

    #[test]
    fn drop_abandons_and_unblocks_successor() {
        let (d, stats, tel) = fixture();
        let first = OrderedTicket::acquire(Arc::clone(&d), Arc::clone(&tel));
        let second = OrderedTicket::acquire(Arc::clone(&d), Arc::clone(&tel));
        drop(first);
        assert_eq!(d.lane(0).turn(), 1, "abandonment must pass the turn");
        second.complete(7);
        assert_eq!(d.lane(0).turn(), 2);
        let s = stats.snapshot();
        assert_eq!(s.tickets_issued, 2);
        assert_eq!(s.tickets_abandoned, 1);
        assert_eq!(s.ordered_commits, 1);
    }
}
