//! `tpcc_futures`: one closed-loop client thread plus one pool worker, the
//! `TpccConfig::default()` mix (NewOrder 45, Payment 38, OrderStatus 4,
//! Delivery 4, StockLevel 4, warehouse audit 5) over one warehouse, and
//! `TpccExecutor` running each long transaction with one future.

use std::hint::black_box;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use rtf::{Rtf, TxError};
use rtf_tpcc::workload::run_op;
use rtf_tpcc::{TpccConfig, TpccDb, TpccExecutor, TpccOp, TpccScale};

use super::{measure, span, substream, Phase, Until, Workload};
use crate::stats::Recorder;
use crate::trace::{self, Name};

/// Pre-generated ops, issued round-robin.
const OPS: usize = 16_384;

pub struct Input {
    scale: TpccScale,
    ops: Vec<TpccOp>,
}

pub struct Tpcc {
    tm: Rtf,
    ex: TpccExecutor,
    next: usize,
}

fn name_of(op: &TpccOp) -> Name {
    match op {
        TpccOp::NewOrder { .. } => Name::TpccNewOrder,
        TpccOp::Payment { .. } | TpccOp::PaymentByName { .. } => Name::TpccPayment,
        TpccOp::OrderStatus { .. } | TpccOp::OrderStatusByName { .. } => Name::TpccOrderStatus,
        TpccOp::Delivery { .. } => Name::TpccDelivery,
        TpccOp::StockLevel { .. } => Name::TpccStockLevel,
        TpccOp::Audit { .. } => Name::TpccAudit,
    }
}

impl Tpcc {
    fn client_loop<const TRACED: bool>(
        &mut self,
        ops: &[TpccOp],
        dur: Duration,
        rec: &mut Recorder,
    ) {
        let mut until = Until::new(dur, 1);
        while until.more() {
            let op = &ops[self.next % ops.len()];
            self.next += 1;
            let name = name_of(op);
            let t0 = Instant::now();
            let res = catch_unwind(AssertUnwindSafe(|| {
                let _op = span::<TRACED>(name);
                run_op(&self.ex, op)
            }));
            let end = Instant::now();
            match res {
                Ok(v) => {
                    black_box(v);
                    rec.ok(end, end - t0, name == Name::TpccAudit);
                }
                // `atomic`/`try_atomic` raise an exhausted retry budget as
                // a TxError payload; anything else is a bug and propagates.
                Err(p) if p.is::<TxError>() => rec.fail(end),
                Err(p) => resume_unwind(p),
            }
        }
    }
}

impl Workload for Tpcc {
    type Input = Input;

    fn input(seed: u64) -> Input {
        let scale = TpccScale {
            warehouses: 1,
            customers_per_district: 120,
            items: 1024,
            seed: substream(seed, 0),
        };
        let cfg = TpccConfig { scale, seed: substream(seed, 1), ..TpccConfig::default() };
        Input { scale, ops: cfg.generate_ops(OPS) }
    }

    fn setup(input: &Input) -> Tpcc {
        let tm = Rtf::builder().workers(1).retry_deadline(super::RETRY_DEADLINE).build();
        let db = TpccDb::load(&tm, input.scale);
        let ex = TpccExecutor::new(tm.clone(), db, 1);
        Tpcc { tm, ex, next: 0 }
    }

    fn run(&mut self, input: &Input, dur: Duration, traced: bool) -> Phase {
        let tm = self.tm.clone();
        measure(&tm, dur, |mut rec| {
            if traced {
                trace::install(rec.start(), 1);
                self.client_loop::<true>(&input.ops, dur, &mut rec);
                (rec, trace::take(), Vec::new())
            } else {
                self.client_loop::<false>(&input.ops, dur, &mut rec);
                (rec, None, Vec::new())
            }
        })
    }

    fn finish(self) -> Result<(), String> {
        let db = self.ex.db();
        let ytd = self.tm.atomic(|tx| db.check_ytd_consistency(tx));
        let order_ids = self.tm.atomic(|tx| db.check_order_id_consistency(tx));
        match (ytd, order_ids) {
            (true, true) => Ok(()),
            _ => Err(format!(
                "tpcc_futures: check_ytd_consistency={ytd} check_order_id_consistency={order_ids}"
            )),
        }
    }
}
