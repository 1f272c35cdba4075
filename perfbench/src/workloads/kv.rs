//! `kv_zipf`: two closed-loop client threads, each op one `Rtf::run` on a
//! `THashMap<u64, u64>` of 2^20 keys (one bucket per key), keys drawn from
//! a Zipfian with theta 0.99; 90% gets, 10% read-modify-write increments.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rtf::Rtf;
use rtf_tstructs::THashMap;
use rtf_txserver::Zipfian;

use super::{measure, span, splitmix64, substream, Phase, Until, Workload};
use crate::stats::Recorder;
use crate::trace::{self, Name, Tracer};

const KEYS: u64 = 1 << 20;
const CLIENTS: u64 = 2;
/// Keys inserted per load transaction.
const LOAD_CHUNK: u64 = 4096;

pub struct Input {
    seed: u64,
    zipf: Arc<Zipfian>,
}

pub struct Kv {
    tm: Rtf,
    map: THashMap<u64, u64>,
    /// Per-client generator state, carried across phases.
    streams: Vec<u64>,
    initial_sum: u64,
    /// Sum of the deltas of every committed increment.
    committed: u64,
}

fn initial_value(seed: u64, key: u64) -> u64 {
    substream(seed, key) % 1000
}

/// One closed-loop client. Records into `rec` (increments are the
/// workload's longer transaction type) and returns the deltas it committed
/// and, when traced, its spans.
fn client<const TRACED: bool>(
    tm: &Rtf,
    map: &THashMap<u64, u64>,
    zipf: &Zipfian,
    state: &mut u64,
    dur: Duration,
    rec: &mut Recorder,
    id: u64,
) -> (u64, Option<Tracer>) {
    if TRACED {
        trace::install(rec.start(), id);
    }
    let mut committed = 0u64;
    let mut until = Until::new(dur, 16);
    while until.more() {
        let key = zipf.sample(state);
        let r = splitmix64(state);
        let incr = r.is_multiple_of(10);
        let delta = 1 + (r >> 8) % 8;
        let t0 = Instant::now();
        let res = {
            let _run = span::<TRACED>(Name::Run);
            tm.run(|tx| {
                let _body = span::<TRACED>(Name::Body);
                let v = {
                    let _get = span::<TRACED>(Name::HashGet);
                    map.get(tx, &key)
                };
                if incr {
                    let _ins = span::<TRACED>(Name::HashInsert);
                    map.insert(tx, key, v.unwrap_or(0).wrapping_add(delta));
                }
                v
            })
        };
        let end = Instant::now();
        match res {
            Ok(v) => {
                black_box(v);
                rec.ok(end, end - t0, incr);
                if incr {
                    committed = committed.wrapping_add(delta);
                }
            }
            Err(_) => rec.fail(end),
        }
    }
    (committed, if TRACED { trace::take() } else { None })
}

impl Workload for Kv {
    type Input = Input;

    fn input(seed: u64) -> Input {
        Input { seed, zipf: Arc::new(Zipfian::new(KEYS, 0.99)) }
    }

    fn setup(input: &Input) -> Kv {
        let tm = Rtf::builder().workers(1).retry_deadline(super::RETRY_DEADLINE).build();
        let map = THashMap::with_buckets(KEYS as usize);
        let mut initial_sum = 0u64;
        for lo in (0..KEYS).step_by(LOAD_CHUNK as usize) {
            let seed = input.seed;
            initial_sum = tm.atomic(|tx| {
                let mut sum = initial_sum;
                for key in lo..lo + LOAD_CHUNK {
                    let v = initial_value(seed, key);
                    map.insert(tx, key, v);
                    sum = sum.wrapping_add(v);
                }
                sum
            });
        }
        let streams = (0..CLIENTS).map(|c| substream(input.seed, 1 + c)).collect();
        Kv { tm, map, streams, initial_sum, committed: 0 }
    }

    fn run(&mut self, input: &Input, dur: Duration, traced: bool) -> Phase {
        let (tm, map, zipf) = (&self.tm, &self.map, &*input.zipf);
        let streams = &mut self.streams;
        let committed = &mut self.committed;
        measure(tm, dur, |rec| {
            let results: Vec<_> = std::thread::scope(|s| {
                let handles: Vec<_> = streams
                    .iter_mut()
                    .enumerate()
                    .map(|(i, state)| {
                        let (id, mut rec) = (i as u64 + 1, rec.clone());
                        s.spawn(move || {
                            let (c, t) = if traced {
                                client::<true>(tm, map, zipf, state, dur, &mut rec, id)
                            } else {
                                client::<false>(tm, map, zipf, state, dur, &mut rec, id)
                            };
                            (rec, c, t)
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("kv client panicked")).collect()
            });
            let mut all = rec;
            let mut traces = Vec::new();
            for (r, c, t) in results {
                all.merge(&r);
                *committed = committed.wrapping_add(c);
                traces.extend(t);
            }
            let trace = traces.into_iter().reduce(|mut a, b| {
                a.merge(b);
                a
            });
            (all, trace, Vec::new())
        })
    }

    fn finish(self) -> Result<(), String> {
        let map = &self.map;
        let sum = self.tm.atomic_ro(|tx| {
            let mut sum = 0u64;
            map.for_each(tx, &mut |_, v| sum = sum.wrapping_add(*v));
            sum
        });
        let want = self.initial_sum.wrapping_add(self.committed);
        if sum == want {
            Ok(())
        } else {
            Err(format!(
                "kv_zipf: final sum {sum} != initial {} + committed increments {}",
                self.initial_sum, self.committed
            ))
        }
    }
}
