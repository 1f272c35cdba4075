//! Property-style test of the paper's core guarantee: *any* program built
//! from reads, writes and (nested) transactional futures produces exactly
//! the results of its sequential execution — the one in which every future
//! body runs synchronously at its submission point (§II).
//!
//! Random programs are generated as trees of operations from a seeded PRNG
//! (deterministic across runs), executed twice: once by a trivial
//! sequential interpreter over a plain array, once by the TM with real
//! parallelism. Final box states and every context's accumulator must
//! match bit-for-bit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rtf::{Rtf, RunBudget, Tx, VBox};
use std::sync::Arc;

const BOXES: usize = 6;

/// One step of a program; `Fork` splits into a future and a continuation.
#[derive(Clone, Debug)]
enum Step {
    /// Fold the value of box `k` into the accumulator.
    Read(u8),
    /// Write a value derived from the accumulator into box `k`.
    Write(u8),
    /// Fork: run the first program as a transactional future, the second as
    /// the continuation; both start from the current accumulator. The
    /// future's result is folded in afterwards.
    Fork(Box<Prog>, Box<Prog>),
}

type Prog = Vec<Step>;

fn mix(acc: u64, v: u64) -> u64 {
    acc.wrapping_mul(31).wrapping_add(v ^ 0x9E3779B9)
}

/// Sequential reference semantics.
fn interp(prog: &Prog, state: &mut [u64; BOXES], acc0: u64) -> u64 {
    let mut acc = acc0;
    for step in prog {
        match step {
            Step::Read(k) => acc = mix(acc, state[*k as usize % BOXES]),
            Step::Write(k) => {
                state[*k as usize % BOXES] = acc.wrapping_add(*k as u64);
            }
            Step::Fork(fut, cont) => {
                // Future first (serialized at its submission point), then
                // the continuation; both see the fork-point accumulator.
                let facc = interp(fut, state, acc);
                let cacc = interp(cont, state, acc);
                acc = mix(facc, cacc);
            }
        }
    }
    acc
}

/// The same semantics through the TM, futures actually parallel.
fn run_tm(tx: &mut Tx, prog: &Prog, boxes: &Arc<Vec<VBox<u64>>>, acc0: u64) -> u64 {
    let mut acc = acc0;
    for step in prog {
        match step {
            Step::Read(k) => acc = mix(acc, *tx.read(&boxes[*k as usize % BOXES])),
            Step::Write(k) => {
                tx.write(&boxes[*k as usize % BOXES], acc.wrapping_add(*k as u64));
            }
            Step::Fork(fut, cont) => {
                let fut2 = (**fut).clone();
                let boxes2 = Arc::clone(boxes);
                let facc_cacc = tx.fork(
                    move |tx| run_tm(tx, &fut2, &boxes2, acc0_of(acc)),
                    |tx, f| {
                        let cacc = run_tm(tx, cont, boxes, acc0_of(acc));
                        let facc = *tx.eval(f);
                        (facc, cacc)
                    },
                );
                let (facc, cacc) = facc_cacc;
                acc = mix(facc, cacc);
            }
        }
    }
    acc
}

// Helper so the closure captures a copy, keeping `run_tm` recursion simple.
fn acc0_of(acc: u64) -> u64 {
    acc
}

/// One random step. `depth` bounds fork nesting (matching the previous
/// proptest strategy: leaves are reads/writes, forks recurse twice at most
/// with 1–2 future steps and 0–2 continuation steps).
fn gen_step(rng: &mut StdRng, depth: u32) -> Step {
    if depth > 0 && rng.gen_range(0..4u32) == 0 {
        let fut: Prog = {
            let n = rng.gen_range(1..3usize);
            (0..n).map(|_| gen_step(rng, depth - 1)).collect()
        };
        let cont: Prog = {
            let n = rng.gen_range(0..3usize);
            (0..n).map(|_| gen_step(rng, depth - 1)).collect()
        };
        Step::Fork(Box::new(fut), Box::new(cont))
    } else if rng.gen_bool(0.5) {
        Step::Read(rng.gen_range(0..BOXES as u8))
    } else {
        Step::Write(rng.gen_range(0..BOXES as u8))
    }
}

fn gen_prog(rng: &mut StdRng, max_len: usize) -> Prog {
    let n = rng.gen_range(1..max_len);
    (0..n).map(|_| gen_step(rng, 2)).collect()
}

/// Random future-trees equal their sequential execution — final state
/// *and* accumulator.
#[test]
fn random_programs_match_sequential() {
    for seed in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(0x5E00 + seed);
        let prog = gen_prog(&mut rng, 8);

        // Reference run.
        let mut expect_state = [0u64; BOXES];
        for (i, s) in expect_state.iter_mut().enumerate() {
            *s = (i as u64 + 1) * 100;
        }
        let expect_acc = interp(&prog, &mut expect_state, 7);

        // TM run with real parallelism.
        let tm = Rtf::builder().workers(3).build();
        let boxes: Arc<Vec<VBox<u64>>> =
            Arc::new((0..BOXES).map(|i| VBox::new((i as u64 + 1) * 100)).collect());
        let got_acc = tm.atomic(|tx| run_tm(tx, &prog, &boxes, 7));

        assert_eq!(got_acc, expect_acc, "accumulator diverged (seed {seed}, prog {prog:?})");
        for (i, b) in boxes.iter().enumerate() {
            assert_eq!(
                *b.read_committed(),
                expect_state[i],
                "box {i} diverged (seed {seed}, prog {prog:?})"
            );
        }
    }
}

/// Ordered mode extends the equivalence *across* transactions: a batch of
/// random programs run as ticketed top-level transactions must equal the
/// sequential execution of those programs in ticket order — and the commit
/// log must be exactly the ticket order — even though worker threads race
/// through them out of order.
#[test]
fn ordered_mode_batch_matches_sequential_spec_in_ticket_order() {
    for seed in 0..8u64 {
        ordered_batch_case(seed);
    }
}

fn ordered_batch_case(seed: u64) {
    use rtf::CommitLog;
    {
        let mut rng = StdRng::seed_from_u64(0x08D0 + seed);
        let progs: Vec<Prog> = (0..12).map(|_| gen_prog(&mut rng, 6)).collect();

        // Reference: one sequential pass, program k applied at position k.
        let mut expect_state = [0u64; BOXES];
        for (i, s) in expect_state.iter_mut().enumerate() {
            *s = (i as u64 + 1) * 100;
        }
        let expect_accs: Vec<u64> = progs.iter().map(|p| interp(p, &mut expect_state, 7)).collect();

        // TM: tickets drawn in program order pin the commit order; three
        // threads then race through disjoint round-robin slices (each
        // slice in increasing ticket order, so turn waits cannot
        // deadlock).
        let log = CommitLog::new();
        let tm = Rtf::builder().workers(2).ordered(1).event_sink(Arc::clone(&log) as _).build();
        let boxes: Arc<Vec<VBox<u64>>> =
            Arc::new((0..BOXES).map(|i| VBox::new((i as u64 + 1) * 100)).collect());
        let threads = 3;
        let mut per_thread: Vec<Vec<(usize, rtf::OrderedTicket)>> =
            (0..threads).map(|_| Vec::new()).collect();
        for k in 0..progs.len() {
            per_thread[k % threads].push((k, tm.ticket()));
        }
        let got_accs = {
            let accs = Arc::new(std::sync::Mutex::new(vec![0u64; progs.len()]));
            let handles: Vec<_> = per_thread
                .into_iter()
                .map(|slice| {
                    let tm = tm.clone();
                    let boxes = Arc::clone(&boxes);
                    let progs = progs.clone();
                    let accs = Arc::clone(&accs);
                    std::thread::spawn(move || {
                        for (k, ticket) in slice {
                            let prog = progs[k].clone();
                            let boxes = Arc::clone(&boxes);
                            let acc = tm
                                .run_with(RunBudget::default(), Some(ticket), move |tx| {
                                    run_tm(tx, &prog, &boxes, 7)
                                })
                                .expect("ticketed program failed");
                            accs.lock().unwrap()[k] = acc;
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("runner thread crashed");
            }
            Arc::try_unwrap(accs).unwrap().into_inner().unwrap()
        };

        assert_eq!(got_accs, expect_accs, "accumulators diverged (seed {seed})");
        for (i, b) in boxes.iter().enumerate() {
            assert_eq!(*b.read_committed(), expect_state[i], "box {i} diverged (seed {seed})");
        }
        // Commit log == ticket order: one lane, dense ascending sequence.
        let expected_log: Vec<(u32, u64)> = (0..progs.len() as u64).map(|s| (0, s)).collect();
        assert_eq!(log.entries(), expected_log, "commit order != ticket order (seed {seed})");
    }
}

/// The same programs must also be deterministic across repeated TM runs
/// (fresh boxes each time).
#[test]
fn tm_runs_are_deterministic() {
    for seed in 0..20u64 {
        let mut rng = StdRng::seed_from_u64(0xDE7E + seed);
        let prog = gen_prog(&mut rng, 6);
        let run = || {
            let tm = Rtf::builder().workers(2).build();
            let boxes: Arc<Vec<VBox<u64>>> =
                Arc::new((0..BOXES).map(|i| VBox::new(i as u64)).collect());
            let acc = tm.atomic(|tx| run_tm(tx, &prog, &boxes, 1));
            let state: Vec<u64> = boxes.iter().map(|b| *b.read_committed()).collect();
            (acc, state)
        };
        assert_eq!(run(), run(), "non-deterministic result (seed {seed}, prog {prog:?})");
    }
}
