//! `vacation_futures`: one closed-loop client thread plus one pool worker,
//! `VacationConfig::default()` tables and mix, and `Client` running each
//! long transaction with one transactional future.

use std::hint::black_box;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use rtf::{Rtf, TxError};
use rtf_vacation::{Client, Manager, VacationConfig, VacationOp};

use super::{measure, span, substream, Phase, Until, Workload};
use crate::stats::Recorder;
use crate::trace::{self, Name};

/// Pre-generated ops, issued round-robin.
const OPS: usize = 4096;

pub struct Vacation {
    tm: Rtf,
    client: Client,
    manager: Manager,
    ops: Vec<VacationOp>,
    next: usize,
}

fn name_of(op: &VacationOp) -> Name {
    match op {
        VacationOp::MakeReservation { .. } => Name::VacMakeReservation,
        VacationOp::DeleteCustomer { .. } => Name::VacDeleteCustomer,
        VacationOp::UpdateTables { .. } => Name::VacUpdateTables,
        VacationOp::PriceRangeQuery { .. } => Name::VacPriceRange,
    }
}

impl Vacation {
    fn client_loop<const TRACED: bool>(&mut self, dur: Duration, rec: &mut Recorder) {
        let mut until = Until::new(dur, 1);
        while until.more() {
            let op = &self.ops[self.next % self.ops.len()];
            self.next += 1;
            let name = name_of(op);
            let t0 = Instant::now();
            let res = catch_unwind(AssertUnwindSafe(|| {
                let _op = span::<TRACED>(name);
                self.client.execute(op)
            }));
            let end = Instant::now();
            match res {
                Ok(v) => {
                    black_box(v);
                    rec.ok(end, end - t0, name == Name::VacPriceRange);
                }
                // `atomic` raises an exhausted retry budget as a TxError
                // payload; anything else is a bug and propagates.
                Err(p) if p.is::<TxError>() => rec.fail(end),
                Err(p) => resume_unwind(p),
            }
        }
    }
}

impl Workload for Vacation {
    type Input = VacationConfig;

    fn input(seed: u64) -> VacationConfig {
        VacationConfig { seed: substream(seed, 0), ..VacationConfig::default() }
    }

    fn setup(cfg: &VacationConfig) -> Vacation {
        let tm = Rtf::builder().workers(1).retry_deadline(super::RETRY_DEADLINE).build();
        let w = cfg.build(&tm, OPS);
        let client = Client::new(tm.clone(), w.manager.clone(), 1);
        Vacation { tm, client, manager: w.manager, ops: w.ops, next: 0 }
    }

    fn run(&mut self, _: &VacationConfig, dur: Duration, traced: bool) -> Phase {
        let tm = self.tm.clone();
        measure(&tm, dur, |mut rec| {
            if traced {
                trace::install(rec.start(), 1);
                self.client_loop::<true>(dur, &mut rec);
                (rec, trace::take(), Vec::new())
            } else {
                self.client_loop::<false>(dur, &mut rec);
                (rec, None, Vec::new())
            }
        })
    }

    fn finish(self) -> Result<(), String> {
        let m = &self.manager;
        if self.tm.atomic(|tx| m.check_consistency(tx)) {
            Ok(())
        } else {
            Err("vacation_futures: Manager::check_consistency failed".into())
        }
    }
}
