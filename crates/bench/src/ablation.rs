//! Ablations of design choices called out in DESIGN.md:
//! A2 — the §IV-E read-only future validation skip;
//! A5 — the deterministic ordered-commit lane's throughput cost.

use rtf_benchkit::measure::fmt_f64;
use rtf_benchkit::{run_clients, SyntheticArray, SyntheticConfig, Table};
use rtf_tstructs::TArray;

use crate::cli::Args;

/// A2: read-only futures with and without the validation skip.
pub fn ablation_roflag(args: &Args) -> Table {
    let ops = args.ops.unwrap_or(if args.quick { 50 } else { 300 });
    let futures = 7;
    let clients = 2;
    let mut t = Table::new(
        "A2 — §IV-E read-only future validation skip",
        &["ro_opt", "throughput (txs/s)", "ro skips", "ro validations"],
    );
    for ro_opt in [true, false] {
        let tm = args.tm().workers(clients * futures).read_only_optimization(ro_opt).build();
        let data: TArray<u64> = TArray::new(1 << 12, |i| i as u64);
        let before = tm.stats();
        let m = run_clients(clients, ops, |c, i| {
            let data = data.clone();
            tm.atomic_ro(move |tx| {
                let per = data.len() / (futures + 1);
                let mut handles = Vec::new();
                for f in 1..=futures {
                    let data = data.clone();
                    handles.push(tx.submit(move |tx| {
                        let mut acc = 0u64;
                        for k in (f * per)..((f + 1) * per) {
                            acc = acc.wrapping_add(data.get_owned(tx, k));
                        }
                        acc
                    }));
                }
                let mut acc: u64 =
                    (0..per).map(|k| data.get_owned(tx, k)).fold(0, u64::wrapping_add);
                for h in &handles {
                    acc = acc.wrapping_add(*tx.eval(h));
                }
                acc.wrapping_add((c + i) as u64)
            });
        });
        let d = tm.stats().since(&before);
        t.row(vec![
            ro_opt.to_string(),
            fmt_f64(m.throughput()),
            d.ro_validation_skips.to_string(),
            d.ro_validation_taken.to_string(),
        ]);
    }
    t
}

/// A5: what the deterministic ordered-commit lane costs — unordered
/// baseline vs `ordered(1)` (global total order, the worst case: every
/// commit waits for the globally previous one) vs `ordered(4)` (sharded:
/// order only within a lane) on the contended synthetic workload of
/// Fig 5b.
pub fn ablation_ordered(args: &Args) -> Table {
    let futures = 2;
    let clients_set: Vec<usize> = if args.quick { vec![2, 4] } else { vec![2, 4, 8] };
    let ops = args.ops.unwrap_or(if args.quick { 40 } else { 200 });
    let cfg = SyntheticConfig {
        array_size: args.array_size.unwrap_or(1 << 14),
        tx_len: if args.quick { 64 } else { 512 },
        iters_between: 100,
        hot_spots: 20,
        hot_writes: 10,
    };
    let mut t = Table::new(
        "A5 — ordered-commit lane: throughput under contention (fig 5b workload)",
        &[
            "clients",
            "unordered (txs/s)",
            "ordered 1 lane",
            "ordered 4 lanes",
            "1-lane overhead (x)",
            "turn wait (ms total, 1 lane)",
        ],
    );
    for clients in clients_set {
        let run = |shards: Option<usize>| -> (f64, f64) {
            let mut b = args.tm().workers(clients * futures);
            if let Some(s) = shards {
                b = b.ordered(s);
            }
            let tm = b.build();
            // Fresh data per cell: contended runs mutate hot spots.
            let data = SyntheticArray::new(cfg);
            let before = tm.stats();
            let m = run_clients(clients, ops, |c, i| {
                data.run_contended(&tm, futures, (c * ops + i) as u64);
            });
            let d = tm.stats().since(&before);
            (m.throughput(), d.ticket_wait_ns as f64 / 1e6)
        };
        let (unordered, _) = run(None);
        let (one_lane, wait_ms) = run(Some(1));
        let (four_lanes, _) = run(Some(4));
        t.row(vec![
            clients.to_string(),
            fmt_f64(unordered),
            fmt_f64(one_lane),
            fmt_f64(four_lanes),
            fmt_f64(unordered / one_lane),
            fmt_f64(wait_ms),
        ]);
    }
    t
}
