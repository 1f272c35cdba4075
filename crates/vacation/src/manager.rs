//! The Vacation manager: tables and invariant-preserving operations,
//! following STAMP's `manager.c`.

use std::sync::Arc;

use rtf::Tx;
use rtf_tstructs::TBTreeMap;

/// The three reservable resource kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReservationKind {
    /// Rental cars.
    Car,
    /// Flights.
    Flight,
    /// Hotel rooms.
    Room,
}

/// All kinds, in a fixed order (iteration helper).
pub const KINDS: [ReservationKind; 3] =
    [ReservationKind::Car, ReservationKind::Flight, ReservationKind::Room];

/// One relation row: a reservable resource.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Reservation {
    /// Capacity.
    pub total: u32,
    /// Currently reserved.
    pub used: u32,
    /// Price per unit.
    pub price: u32,
}

impl Reservation {
    /// Remaining capacity.
    pub fn free(&self) -> u32 {
        self.total - self.used
    }
}

/// A customer and the reservations on their bill.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Customer {
    /// `(kind, resource id, price paid)` per held reservation.
    pub reservations: Vec<(ReservationKind, u64, u32)>,
}

/// The travel agency's tables.
pub struct Manager {
    cars: TBTreeMap<u64, Reservation>,
    flights: TBTreeMap<u64, Reservation>,
    rooms: TBTreeMap<u64, Reservation>,
    /// Shared records: copying a leaf of this table copies pointers, not
    /// bills.
    customers: TBTreeMap<u64, Arc<Customer>>,
}

impl Clone for Manager {
    fn clone(&self) -> Self {
        Manager {
            cars: self.cars.clone(),
            flights: self.flights.clone(),
            rooms: self.rooms.clone(),
            customers: self.customers.clone(),
        }
    }
}

impl Default for Manager {
    fn default() -> Self {
        Self::new()
    }
}

impl Manager {
    /// Empty tables.
    pub fn new() -> Self {
        Manager {
            cars: TBTreeMap::new(),
            flights: TBTreeMap::new(),
            rooms: TBTreeMap::new(),
            customers: TBTreeMap::new(),
        }
    }

    fn table(&self, kind: ReservationKind) -> &TBTreeMap<u64, Reservation> {
        match kind {
            ReservationKind::Car => &self.cars,
            ReservationKind::Flight => &self.flights,
            ReservationKind::Room => &self.rooms,
        }
    }

    /// Adds `num` units of resource `id` at `price` (creating the row if
    /// absent) — STAMP `manager_add*`. `num == 0` with a new price updates
    /// the price only.
    pub fn add_resource(&self, tx: &mut Tx, kind: ReservationKind, id: u64, num: u32, price: u32) {
        let t = self.table(kind);
        let row = match t.get(tx, &id) {
            Some(mut r) => {
                r.total += num;
                r.price = price;
                r
            }
            None => Reservation { total: num, used: 0, price },
        };
        t.insert(tx, id, row);
    }

    /// Removes up to `num` *free* units of resource `id`; returns whether
    /// the row existed with enough free capacity (STAMP `manager_delete*`).
    pub fn remove_resource(&self, tx: &mut Tx, kind: ReservationKind, id: u64, num: u32) -> bool {
        let t = self.table(kind);
        match t.get(tx, &id) {
            Some(mut r) if r.free() >= num => {
                r.total -= num;
                if r.total == 0 && r.used == 0 {
                    t.remove(tx, &id);
                } else {
                    t.insert(tx, id, r);
                }
                true
            }
            _ => false,
        }
    }

    /// Price of resource `id`, if present (STAMP `manager_query*Price`).
    pub fn query_price(&self, tx: &mut Tx, kind: ReservationKind, id: u64) -> Option<u32> {
        self.table(kind).get(tx, &id).map(|r| r.price)
    }

    /// Free units of resource `id`, if present.
    pub fn query_free(&self, tx: &mut Tx, kind: ReservationKind, id: u64) -> Option<u32> {
        self.table(kind).get(tx, &id).map(|r| r.free())
    }

    /// Registers a customer (idempotent); returns whether it was new.
    pub fn add_customer(&self, tx: &mut Tx, id: u64) -> bool {
        if self.customers.contains_key(tx, &id) {
            return false;
        }
        self.customers.insert(tx, id, Arc::new(Customer::default()));
        true
    }

    /// Deletes a customer, releasing every reservation on their bill
    /// (STAMP `manager_deleteCustomer`). Returns the released bill total,
    /// or `None` if the customer does not exist.
    pub fn delete_customer(&self, tx: &mut Tx, id: u64) -> Option<u32> {
        let customer = self.customers.remove(tx, &id)?;
        let mut bill = 0;
        for (kind, rid, price) in &customer.reservations {
            bill += price;
            let t = self.table(*kind);
            if let Some(mut r) = t.get(tx, rid) {
                r.used -= 1;
                t.insert(tx, *rid, r);
            }
        }
        Some(bill)
    }

    /// Reserves one unit of resource `id` for `customer` (STAMP
    /// `manager_reserve*`). Returns whether the reservation succeeded. A
    /// customer holds at most one unit of each resource: STAMP's bill list
    /// rejects a duplicate (`LIST_NO_DUPLICATES`) and `reserve` undoes the
    /// booking; here the check comes first, so there is nothing to undo.
    pub fn reserve(&self, tx: &mut Tx, customer: u64, kind: ReservationKind, id: u64) -> bool {
        let Some(cust) = self.customers.get(tx, &customer) else { return false };
        if cust.reservations.iter().any(|&(k, rid, _)| k == kind && rid == id) {
            return false;
        }
        let t = self.table(kind);
        let Some(mut row) = t.get(tx, &id) else { return false };
        if row.free() == 0 {
            return false;
        }
        row.used += 1;
        let price = row.price;
        t.insert(tx, id, row);
        // The new bill is built at its exact size; the old record stays
        // shared with the snapshot it was read from.
        let mut reservations = Vec::with_capacity(cust.reservations.len() + 1);
        reservations.extend_from_slice(&cust.reservations);
        reservations.push((kind, id, price));
        self.customers.insert(tx, customer, Arc::new(Customer { reservations }));
        true
    }

    /// Total bill of a customer, if present (STAMP `manager_queryCustomerBill`).
    pub fn query_bill(&self, tx: &mut Tx, customer: u64) -> Option<u32> {
        self.customers.get(tx, &customer).map(|c| c.reservations.iter().map(|(_, _, p)| *p).sum())
    }

    /// All resources of `kind` with id in `[lo, hi)` whose price lies in
    /// `[price_lo, price_hi]` — the row scan behind the paper's
    /// "identify travels within a given price range" long transactions.
    pub fn scan_price_range(
        &self,
        tx: &mut Tx,
        kind: ReservationKind,
        lo: u64,
        hi: u64,
        price_lo: u32,
        price_hi: u32,
    ) -> Vec<(u64, u32)> {
        self.table(kind)
            .range(tx, &lo, &hi)
            .into_iter()
            .filter(|(_, r)| r.price >= price_lo && r.price <= price_hi)
            .map(|(id, r)| (id, r.price))
            .collect()
    }

    /// Global accounting check used by tests: units used across tables must
    /// equal reservations held by customers.
    pub fn check_consistency(&self, tx: &mut Tx) -> bool {
        let mut used_total = 0u64;
        for kind in KINDS {
            self.table(kind).for_each(tx, &mut |_, r| used_total += r.used as u64);
        }
        let mut held = 0u64;
        self.customers.for_each(tx, &mut |_, c| held += c.reservations.len() as u64);
        used_total == held
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtf::Rtf;

    fn setup() -> (Rtf, Manager) {
        let tm = Rtf::builder().workers(1).build();
        let mgr = Manager::new();
        tm.atomic(|tx| {
            for id in 0..20 {
                for kind in KINDS {
                    mgr.add_resource(tx, kind, id, 5, 100 + (id as u32) * 10);
                }
            }
            for c in 0..10 {
                mgr.add_customer(tx, c);
            }
        });
        (tm, mgr)
    }

    #[test]
    fn reserve_and_bill() {
        let (tm, mgr) = setup();
        tm.atomic(|tx| {
            assert!(mgr.reserve(tx, 1, ReservationKind::Car, 3));
            assert!(mgr.reserve(tx, 1, ReservationKind::Room, 4));
            assert_eq!(mgr.query_bill(tx, 1), Some(130 + 140));
            assert_eq!(mgr.query_free(tx, ReservationKind::Car, 3), Some(4));
            assert!(mgr.check_consistency(tx));
        });
    }

    #[test]
    fn reserve_fails_without_capacity_or_customer() {
        let (tm, mgr) = setup();
        tm.atomic(|tx| {
            assert!(!mgr.reserve(tx, 99, ReservationKind::Car, 3), "unknown customer");
            assert!(!mgr.reserve(tx, 1, ReservationKind::Car, 999), "unknown resource");
            for customer in 0..5 {
                assert!(mgr.reserve(tx, customer, ReservationKind::Flight, 0));
            }
            assert!(!mgr.reserve(tx, 5, ReservationKind::Flight, 0), "sold out");
            assert!(mgr.check_consistency(tx));
        });
    }

    #[test]
    fn reserve_rejects_a_duplicate_reservation() {
        let (tm, mgr) = setup();
        tm.atomic(|tx| {
            assert!(mgr.reserve(tx, 1, ReservationKind::Flight, 2));
            let bill = mgr.query_bill(tx, 1);
            let free = mgr.query_free(tx, ReservationKind::Flight, 2);
            assert!(!mgr.reserve(tx, 1, ReservationKind::Flight, 2), "duplicate");
            assert_eq!(mgr.query_bill(tx, 1), bill);
            assert_eq!(mgr.query_free(tx, ReservationKind::Flight, 2), free, "used unchanged");
            assert!(mgr.check_consistency(tx));
            // The same id of another kind is a different resource.
            assert!(mgr.reserve(tx, 1, ReservationKind::Car, 2));
        });
    }

    #[test]
    fn delete_customer_releases_units() {
        let (tm, mgr) = setup();
        tm.atomic(|tx| {
            assert!(mgr.reserve(tx, 2, ReservationKind::Car, 1));
            assert!(mgr.reserve(tx, 2, ReservationKind::Car, 2));
            assert_eq!(mgr.query_free(tx, ReservationKind::Car, 1), Some(4));
            let bill = mgr.delete_customer(tx, 2).unwrap();
            assert_eq!(bill, 110 + 120);
            assert_eq!(mgr.query_free(tx, ReservationKind::Car, 1), Some(5));
            assert_eq!(mgr.delete_customer(tx, 2), None);
            assert!(mgr.check_consistency(tx));
        });
    }

    #[test]
    fn add_remove_resource() {
        let (tm, mgr) = setup();
        tm.atomic(|tx| {
            mgr.add_resource(tx, ReservationKind::Room, 100, 3, 75);
            assert_eq!(mgr.query_free(tx, ReservationKind::Room, 100), Some(3));
            assert!(mgr.remove_resource(tx, ReservationKind::Room, 100, 3));
            assert_eq!(mgr.query_free(tx, ReservationKind::Room, 100), None, "row dropped");
            assert!(!mgr.remove_resource(tx, ReservationKind::Room, 100, 1));
            // Can't remove units that are in use.
            assert!(mgr.reserve(tx, 0, ReservationKind::Car, 0));
            assert!(!mgr.remove_resource(tx, ReservationKind::Car, 0, 5));
            assert!(mgr.remove_resource(tx, ReservationKind::Car, 0, 4));
        });
    }

    #[test]
    fn price_range_scan() {
        let (tm, mgr) = setup();
        let hits =
            tm.atomic(|tx| mgr.scan_price_range(tx, ReservationKind::Flight, 0, 20, 150, 200));
        // prices are 100 + id*10: ids 5..=10 fall in [150, 200].
        assert_eq!(hits.len(), 6);
        assert!(hits.iter().all(|(id, p)| *p == 100 + (*id as u32) * 10));
    }
}
