//! The TPC-C transactions, with sequential and future-parallel variants.
//!
//! The parallel variants follow the paper's adaptation pattern (§V):
//! a long loop that "reads a number of domain objects and computes various
//! functions" is split across transactional futures, while the
//! serialization-order-sensitive writes stay in the continuation. Strong
//! ordering guarantees the parallel variants produce exactly the sequential
//! results (asserted by tests).

use rtf::{Rtf, Tx, TxError, TxFuture};

use crate::db::TpccDb;
use crate::model::*;

/// Executes TPC-C transactions against a database.
pub struct TpccExecutor {
    tm: Rtf,
    db: TpccDb,
    /// Futures per long transaction (0 = fully sequential).
    pub futures: usize,
}

/// Result of pricing one order line: `(item, amount, quantity, supply_w)`.
type PricedLine = (u64, i64, u32, u64);

/// Input of one NewOrder line.
#[derive(Clone, Copy, Debug)]
pub struct OrderLineInput {
    /// Item ordered.
    pub i_id: u64,
    /// Supplying warehouse.
    pub supply_w: u64,
    /// Quantity (1..=10).
    pub quantity: u32,
}

impl TpccExecutor {
    /// New executor; `futures` transactional futures parallelize each long
    /// transaction (plus the continuation doing its share).
    pub fn new(tm: Rtf, db: TpccDb, futures: usize) -> Self {
        TpccExecutor { tm, db, futures }
    }

    /// The database.
    pub fn db(&self) -> &TpccDb {
        &self.db
    }

    /// **NewOrder** (spec 2.4): allocate the order id, price every line,
    /// update stock, insert order + lines + new-order queue entry. Returns
    /// the order total in cents, or `-1` when the order rolled back because
    /// a line names an unused (invalid) item — the spec's deliberate 1%
    /// rollback (clause 2.4.1.5), implemented with [`rtf::Tx::cancel`]:
    /// every buffered effect, including the district's order-id bump, is
    /// discarded atomically.
    ///
    /// The per-line item/stock work is the long cycle: with `futures > 0`
    /// the lines are processed by transactional futures (stock rows are
    /// disjoint per line, so the futures never conflict with one another),
    /// and the continuation inserts the order structures.
    pub fn new_order(&self, w: u64, d: u64, c: u64, lines: &[OrderLineInput]) -> i64 {
        let db = self.db.clone();
        let futures = self.futures;
        let lines = lines.to_vec();
        let outcome = self.tm.run(move |tx| {
            let warehouse = db.warehouses.get(tx, &w).expect("warehouse exists");
            let dk = district_key(w, d);
            let mut district = db.districts.get(tx, &dk).expect("district exists");
            let o_id = district.next_o_id as u64;
            district.next_o_id += 1;
            db.districts.insert(tx, dk, district.clone());
            let customer = db.customers.get(tx, &customer_key(w, d, c)).expect("customer");

            // ---- the long per-line cycle --------------------------------
            let line_results: Vec<PricedLine> = if futures == 0 || lines.len() < futures + 1 {
                lines.iter().map(|l| process_line(tx, &db, w, l)).collect()
            } else {
                let chunk = lines.len().div_ceil(futures + 1);
                let mut handles: Vec<TxFuture<Vec<PricedLine>>> = Vec::new();
                for part in lines[chunk..].chunks(chunk) {
                    let db = db.clone();
                    let part = part.to_vec();
                    handles.push(tx.submit(move |tx| {
                        part.iter().map(|l| process_line(tx, &db, w, l)).collect()
                    }));
                }
                let mut all: Vec<PricedLine> =
                    lines[..chunk].iter().map(|l| process_line(tx, &db, w, l)).collect();
                for h in &handles {
                    all.extend(tx.eval(h).iter().cloned());
                }
                all
            };

            // ---- order construction (continuation) ---------------------
            let mut total = 0i64;
            for (ol, (i_id, amount, quantity, supply_w)) in line_results.iter().enumerate() {
                total += amount;
                db.order_lines.insert(
                    tx,
                    order_line_key(w, d, o_id, ol as u64),
                    OrderLine {
                        i_id: *i_id,
                        supply_w: *supply_w,
                        quantity: *quantity,
                        amount: *amount,
                        delivery_d: None,
                    },
                );
            }
            let ok = order_key(w, d, o_id);
            db.orders.insert(
                tx,
                ok,
                Order {
                    c_id: c,
                    entry_d: o_id, // logical timestamp
                    carrier_id: None,
                    ol_cnt: line_results.len() as u8,
                },
            );
            db.new_orders.insert(tx, ok, ());
            db.last_order_of.insert(tx, customer_key(w, d, c), o_id);

            // total * (1 - c_discount) * (1 + w_tax + d_tax), basis points.
            total * (10_000 - customer.discount_bp) / 10_000
                * (10_000 + warehouse.tax_bp + district.tax_bp)
                / 10_000
        });
        match outcome {
            Ok(total) => total,
            Err(TxError::Cancelled) => -1,
            // Any other failure (an exhausted retry budget, a panicked
            // future) is raised as its `TxError` payload, as `atomic` does.
            Err(e) => std::panic::panic_any(e),
        }
    }

    /// **Payment** (spec 2.5): add `amount` to warehouse and district YTD,
    /// debit the customer. Returns the customer's new balance.
    pub fn payment(&self, w: u64, d: u64, c: u64, amount: i64) -> i64 {
        let db = self.db.clone();
        self.tm.atomic(move |tx| {
            db.warehouses.update(tx, &w, |wh| wh.ytd += amount);
            db.districts.update(tx, &district_key(w, d), |dist| dist.ytd += amount);
            let ck = customer_key(w, d, c);
            let mut balance = 0;
            db.customers.update(tx, &ck, |cust| {
                cust.balance -= amount;
                cust.ytd_payment += amount;
                cust.payment_cnt += 1;
                balance = cust.balance;
            });
            balance
        })
    }

    /// **Payment** selecting the customer by last name (spec 2.5.2.2:
    /// 60% of payments). Resolves the middle same-named customer, then
    /// proceeds as [`TpccExecutor::payment`]. Returns the new balance, or 0
    /// when no customer carries the name.
    pub fn payment_by_name(&self, w: u64, d: u64, name_num: u64, amount: i64) -> i64 {
        let db = self.db.clone();
        self.tm.atomic(move |tx| {
            let Some(c) = db.customer_by_name(tx, w, d, name_num) else { return 0 };
            db.warehouses.update(tx, &w, |wh| wh.ytd += amount);
            db.districts.update(tx, &district_key(w, d), |dist| dist.ytd += amount);
            let mut balance = 0;
            db.customers.update(tx, &customer_key(w, d, c), |cust| {
                cust.balance -= amount;
                cust.ytd_payment += amount;
                cust.payment_cnt += 1;
                balance = cust.balance;
            });
            balance
        })
    }

    /// **OrderStatus** selecting the customer by last name (spec 2.6.1.2).
    pub fn order_status_by_name(&self, w: u64, d: u64, name_num: u64) -> (i64, usize) {
        let db = self.db.clone();
        self.tm.atomic_ro(move |tx| {
            let Some(c) = db.customer_by_name(tx, w, d, name_num) else { return (0, 0) };
            let ck = customer_key(w, d, c);
            let balance = db.customers.get(tx, &ck).map(|cu| cu.balance).unwrap_or(0);
            let Some(o_id) = db.last_order_of.get(tx, &ck) else { return (balance, 0) };
            let lines = db.order_lines.range(
                tx,
                &order_line_key(w, d, o_id, 0),
                &order_line_key(w, d, o_id + 1, 0),
            );
            (balance, lines.len())
        })
    }

    /// **OrderStatus** (spec 2.6): the customer's balance plus their most
    /// recent order's lines. Read-only.
    pub fn order_status(&self, w: u64, d: u64, c: u64) -> (i64, usize) {
        let db = self.db.clone();
        self.tm.atomic_ro(move |tx| {
            let ck = customer_key(w, d, c);
            let balance = db.customers.get(tx, &ck).map(|cu| cu.balance).unwrap_or(0);
            let Some(o_id) = db.last_order_of.get(tx, &ck) else { return (balance, 0) };
            let lines = db.order_lines.range(
                tx,
                &order_line_key(w, d, o_id, 0),
                &order_line_key(w, d, o_id + 1, 0),
            );
            (balance, lines.len())
        })
    }

    /// **Delivery** (spec 2.7): for every district of warehouse `w`,
    /// deliver the oldest undelivered order: pop it from the new-order
    /// queue, stamp the carrier, stamp each line, and credit the customer.
    /// Returns the number of orders delivered.
    ///
    /// The per-district work is disjoint, so with `futures > 0` districts
    /// are processed by transactional futures.
    pub fn delivery(&self, w: u64, carrier: u8) -> u64 {
        let db = self.db.clone();
        let futures = self.futures;
        self.tm.atomic(move |tx| {
            if futures == 0 {
                (0..DISTRICTS_PER_WAREHOUSE)
                    .map(|d| deliver_district(tx, &db, w, d, carrier) as u64)
                    .sum()
            } else {
                let per = DISTRICTS_PER_WAREHOUSE.div_ceil(futures as u64 + 1);
                let mut handles = Vec::new();
                for start in (per..DISTRICTS_PER_WAREHOUSE).step_by(per as usize) {
                    let db = db.clone();
                    let hi = (start + per).min(DISTRICTS_PER_WAREHOUSE);
                    handles.push(tx.submit(move |tx| {
                        (start..hi)
                            .map(|d| deliver_district(tx, &db, w, d, carrier) as u64)
                            .sum::<u64>()
                    }));
                }
                let mut total: u64 = (0..per.min(DISTRICTS_PER_WAREHOUSE))
                    .map(|d| deliver_district(tx, &db, w, d, carrier) as u64)
                    .sum();
                for h in &handles {
                    total += *tx.eval(h);
                }
                total
            }
        })
    }

    /// **StockLevel** (spec 2.8): count items in the district's last 20
    /// orders whose stock is below `threshold`. Read-only; the order-line
    /// scan is the long cycle and is split across futures.
    pub fn stock_level(&self, w: u64, d: u64, threshold: i32) -> u64 {
        let db = self.db.clone();
        let futures = self.futures;
        self.tm.atomic_ro(move |tx| {
            let district = db.districts.get(tx, &district_key(w, d)).expect("district");
            let next = district.next_o_id as u64;
            let lo_order = next.saturating_sub(20).max(1);
            if futures == 0 || next <= lo_order {
                low_stock_items(tx, &db, w, d, lo_order, next, threshold).len() as u64
            } else {
                // Distinctness is global across the scanned orders: futures
                // return their low-stock item ids and the continuation
                // merges + dedupes.
                let span = next - lo_order;
                let per = span.div_ceil(futures as u64 + 1);
                let mut handles = Vec::new();
                for start in ((lo_order + per)..next).step_by(per as usize) {
                    let db = db.clone();
                    let hi = (start + per).min(next);
                    handles.push(
                        tx.submit(move |tx| low_stock_items(tx, &db, w, d, start, hi, threshold)),
                    );
                }
                let mut all =
                    low_stock_items(tx, &db, w, d, lo_order, (lo_order + per).min(next), threshold);
                for h in &handles {
                    all.extend(tx.eval(h).iter().copied());
                }
                all.sort_unstable();
                all.dedup();
                all.len() as u64
            }
        })
    }

    /// **WarehouseAudit** — the paper's long analytics transaction:
    /// "compute the total amount of money raised by the warehouse".
    /// Sums district YTDs and every customer's `ytd_payment`, scanning
    /// districts in parallel across futures. Read-only.
    pub fn warehouse_audit(&self, w: u64) -> i64 {
        let db = self.db.clone();
        let futures = self.futures;
        self.tm.atomic_ro(move |tx| {
            if futures == 0 {
                (0..DISTRICTS_PER_WAREHOUSE).map(|d| audit_district(tx, &db, w, d)).sum()
            } else {
                let per = DISTRICTS_PER_WAREHOUSE.div_ceil(futures as u64 + 1);
                let mut handles = Vec::new();
                for start in (per..DISTRICTS_PER_WAREHOUSE).step_by(per as usize) {
                    let db = db.clone();
                    let hi = (start + per).min(DISTRICTS_PER_WAREHOUSE);
                    handles.push(tx.submit(move |tx| {
                        (start..hi).map(|d| audit_district(tx, &db, w, d)).sum::<i64>()
                    }));
                }
                let mut total: i64 = (0..per.min(DISTRICTS_PER_WAREHOUSE))
                    .map(|d| audit_district(tx, &db, w, d))
                    .sum();
                for h in &handles {
                    total += *tx.eval(h);
                }
                total
            }
        })
    }
}

/// One district's share of the warehouse audit: district YTD plus its
/// customers' year-to-date payments.
fn audit_district(tx: &mut Tx, db: &TpccDb, w: u64, d: u64) -> i64 {
    let mut sum = db.districts.get(tx, &district_key(w, d)).expect("district").ytd;
    for c in 0..db.scale.customers_per_district {
        if let Some(cust) = db.customers.get(tx, &customer_key(w, d, c)) {
            sum += cust.ytd_payment;
        }
    }
    sum
}

/// Prices one order line and updates its stock row (spec 2.4.2.2).
/// An invalid item id rolls the whole NewOrder back (spec 2.4.1.5; 1% of
/// generated orders).
fn process_line(tx: &mut Tx, db: &TpccDb, home_w: u64, l: &OrderLineInput) -> PricedLine {
    if l.i_id >= db.items.len() as u64 {
        tx.cancel();
    }
    let price = db.items[l.i_id as usize].price;
    let sk = stock_key(l.supply_w, l.i_id);
    db.stock.update(tx, &sk, |s| {
        if s.quantity >= l.quantity as i32 + 10 {
            s.quantity -= l.quantity as i32;
        } else {
            s.quantity = s.quantity - l.quantity as i32 + 91;
        }
        s.ytd += l.quantity as i64;
        s.order_cnt += 1;
        if l.supply_w != home_w {
            s.remote_cnt += 1;
        }
    });
    (l.i_id, price * l.quantity as i64, l.quantity, l.supply_w)
}

/// Delivers the oldest undelivered order of one district; returns whether
/// an order was pending.
fn deliver_district(tx: &mut Tx, db: &TpccDb, w: u64, d: u64, carrier: u8) -> bool {
    let lo = order_key(w, d, 0);
    let hi = order_key(w, d, u32::MAX as u64);
    let pending = db.new_orders.range(tx, &lo, &hi);
    let Some((ok, ())) = pending.first().cloned() else { return false };
    db.new_orders.remove(tx, &ok);
    let o_id = ok & 0xffff_ffff;

    let mut order = db.orders.get(tx, &ok).expect("queued order exists");
    order.carrier_id = Some(carrier);
    let c_id = order.c_id;
    let ol_cnt = order.ol_cnt as u64;
    db.orders.insert(tx, ok, order);

    let mut amount_sum = 0i64;
    for ol in 0..ol_cnt {
        let olk = order_line_key(w, d, o_id, ol);
        if let Some(mut line) = db.order_lines.get(tx, &olk) {
            line.delivery_d = Some(o_id);
            amount_sum += line.amount;
            db.order_lines.insert(tx, olk, line);
        }
    }
    db.customers.update(tx, &customer_key(w, d, c_id), |cu| {
        cu.balance += amount_sum;
        cu.delivery_cnt += 1;
    });
    true
}

/// Distinct items with low stock among the order lines of orders
/// `[lo_order, hi_order)` of district `(w, d)`, sorted.
fn low_stock_items(
    tx: &mut Tx,
    db: &TpccDb,
    w: u64,
    d: u64,
    lo_order: u64,
    hi_order: u64,
    threshold: i32,
) -> Vec<u64> {
    if lo_order >= hi_order {
        return Vec::new();
    }
    let lines = db.order_lines.range(
        tx,
        &order_line_key(w, d, lo_order, 0),
        &order_line_key(w, d, hi_order, 0),
    );
    let mut items: Vec<u64> = lines.iter().map(|(_, l)| l.i_id).collect();
    items.sort_unstable();
    items.dedup();
    items.retain(|i| {
        db.stock.get(tx, &stock_key(w, *i)).map(|s| s.quantity < threshold).unwrap_or(false)
    });
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::TpccScale;
    use rtf::Rtf;

    fn small_db(tm: &Rtf) -> TpccDb {
        TpccDb::load(
            tm,
            TpccScale { warehouses: 1, customers_per_district: 20, items: 128, seed: 7 },
        )
    }

    fn lines(n: u64) -> Vec<OrderLineInput> {
        (0..n)
            .map(|i| OrderLineInput {
                i_id: (i * 17) % 128,
                supply_w: 0,
                quantity: 1 + (i % 5) as u32,
            })
            .collect()
    }

    #[test]
    fn new_order_updates_everything() {
        let tm = Rtf::builder().workers(2).build();
        let db = small_db(&tm);
        let ex = TpccExecutor::new(tm.clone(), db.clone(), 0);
        let total = ex.new_order(0, 3, 5, &lines(8));
        assert!(total > 0);
        tm.atomic(|tx| {
            assert_eq!(db.districts.get(tx, &district_key(0, 3)).unwrap().next_o_id, 2);
            assert!(db.orders.get(tx, &order_key(0, 3, 1)).is_some());
            assert!(db.new_orders.get(tx, &order_key(0, 3, 1)).is_some());
            assert_eq!(
                db.order_lines
                    .range(tx, &order_line_key(0, 3, 1, 0), &order_line_key(0, 3, 2, 0))
                    .len(),
                8
            );
            assert!(db.check_order_id_consistency(tx));
        });
    }

    #[test]
    fn parallel_new_order_equals_sequential() {
        let tm_a = Rtf::builder().workers(2).build();
        let tm_b = Rtf::builder().workers(2).build();
        let db_a = small_db(&tm_a);
        let db_b = small_db(&tm_b);
        let ls = lines(12);
        let ta = TpccExecutor::new(tm_a, db_a, 0).new_order(0, 1, 2, &ls);
        let tb = TpccExecutor::new(tm_b, db_b, 3).new_order(0, 1, 2, &ls);
        assert_eq!(ta, tb, "strong ordering: parallel == sequential");
    }

    #[test]
    fn payment_preserves_ytd_consistency() {
        let tm = Rtf::builder().workers(1).build();
        let db = small_db(&tm);
        let ex = TpccExecutor::new(tm.clone(), db.clone(), 0);
        let b1 = ex.payment(0, 2, 7, 1234);
        let b2 = ex.payment(0, 2, 7, 1000);
        assert_eq!(b2, b1 - 1000);
        assert!(tm.atomic(|tx| db.check_ytd_consistency(tx)));
    }

    #[test]
    fn delivery_clears_queue_and_credits_customers() {
        let tm = Rtf::builder().workers(2).build();
        let db = small_db(&tm);
        let ex = TpccExecutor::new(tm.clone(), db.clone(), 0);
        for d in 0..3 {
            ex.new_order(0, d, 1, &lines(4));
        }
        let delivered = ex.delivery(0, 9);
        assert_eq!(delivered, 3);
        assert_eq!(ex.delivery(0, 9), 0, "queue now empty");
        tm.atomic(|tx| {
            let order = db.orders.get(tx, &order_key(0, 0, 1)).unwrap();
            assert_eq!(order.carrier_id, Some(9));
            let cust = db.customers.get(tx, &customer_key(0, 0, 1)).unwrap();
            assert_eq!(cust.delivery_cnt, 1);
            assert!(cust.balance > -1000, "credited by delivery");
        });
    }

    #[test]
    fn parallel_delivery_equals_sequential() {
        let mk = |futures: usize| {
            let tm = Rtf::builder().workers(2).build();
            let db = small_db(&tm);
            let ex = TpccExecutor::new(tm.clone(), db.clone(), futures);
            for d in 0..DISTRICTS_PER_WAREHOUSE {
                ex.new_order(0, d, d % 20, &lines(3));
            }
            let delivered = ex.delivery(0, 5);
            let audit = ex.warehouse_audit(0);
            (delivered, audit)
        };
        assert_eq!(mk(0), mk(4));
    }

    #[test]
    fn order_status_sees_latest_order() {
        let tm = Rtf::builder().workers(1).build();
        let db = small_db(&tm);
        let ex = TpccExecutor::new(tm.clone(), db, 0);
        let (_, zero_lines) = ex.order_status(0, 4, 3);
        assert_eq!(zero_lines, 0);
        ex.new_order(0, 4, 3, &lines(6));
        ex.new_order(0, 4, 3, &lines(9));
        let (balance, n) = ex.order_status(0, 4, 3);
        assert_eq!(n, 9);
        assert_eq!(balance, -1000);
    }

    #[test]
    fn stock_level_counts_low_items() {
        let tm = Rtf::builder().workers(2).build();
        let db = small_db(&tm);
        let ex = TpccExecutor::new(tm.clone(), db, 2);
        for _ in 0..5 {
            ex.new_order(0, 0, 2, &lines(10));
        }
        let all = ex.stock_level(0, 0, i32::MAX);
        let none = ex.stock_level(0, 0, i32::MIN);
        assert!(all > 0);
        assert_eq!(none, 0);
        // Parallel and sequential agree.
        let seq = TpccExecutor::new(tm.clone(), ex.db().clone(), 0).stock_level(0, 0, 50);
        let par = ex.stock_level(0, 0, 50);
        assert_eq!(seq, par);
    }

    #[test]
    fn by_name_selection_matches_spec_midpoint() {
        let tm = Rtf::builder().workers(1).build();
        let db = small_db(&tm);
        // 20 customers per district, names are last_name(c): each name
        // number < 20 maps to exactly one customer here, so by-name payment
        // must hit exactly that customer.
        let ex = TpccExecutor::new(tm.clone(), db.clone(), 0);
        let before = tm.atomic(|tx| db.customers.get(tx, &customer_key(0, 1, 7)).unwrap().balance);
        let bal = ex.payment_by_name(0, 1, 7, 500);
        assert_eq!(bal, before - 500);
        // Unknown name: no-op returning 0.
        assert_eq!(ex.payment_by_name(0, 1, 999, 500), 0);
        assert!(tm.atomic(|tx| db.check_ytd_consistency(tx)));

        // OrderStatus by name follows the same resolution.
        ex.new_order(0, 1, 7, &lines(4));
        let (b, n) = ex.order_status_by_name(0, 1, 7);
        assert_eq!(n, 4);
        assert_eq!(b, before - 500);
        assert_eq!(ex.order_status_by_name(0, 1, 999), (0, 0));
    }

    #[test]
    fn audit_reflects_payments() {
        let tm = Rtf::builder().workers(2).build();
        let db = small_db(&tm);
        let ex = TpccExecutor::new(tm.clone(), db, 3);
        let before = ex.warehouse_audit(0);
        ex.payment(0, 1, 1, 5000);
        let after = ex.warehouse_audit(0);
        assert_eq!(after, before + 10_000, "district ytd + customer ytd_payment both grow");
    }
}
