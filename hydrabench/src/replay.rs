//! Component replays: the workload's own generated ops fed straight into
//! the `store`, `wire` and `lockfree` layers, timed on the host clock.
//!
//! Each replay runs outside the simulator, so its cost is the layer's own:
//! no events, no fabric, no other layer in between. Per-call timings
//! subtract the cost of reading the clock, measured the same way.

use std::hint::black_box;
use std::time::Instant;

use hydra_db::client::CachedPtr;
use hydra_db::ClusterConfig;
use hydra_lockfree::ClockCache;
use hydra_store::{EngineConfig, ShardEngine};
use hydra_wire::{scan_items_begin, scan_items_finish, scan_items_push, Request, ScanItems};
use hydra_ycsb::{Op, OpStream, Workload};

use crate::util::{rss_kib, Json};

/// Virtual time between replayed ops (ns): leases granted by GETs stay live,
/// as in the run.
const STEP_NS: u64 = 1_000;

/// Interleaves the client streams round-robin, as the clients issue them.
fn interleave(streams: &[OpStream]) -> Vec<(usize, Op)> {
    let longest = streams.iter().map(|s| s.ops.len()).max().unwrap_or(0);
    let mut out = Vec::with_capacity(streams.iter().map(|s| s.ops.len()).sum());
    for i in 0..longest {
        for (c, s) in streams.iter().enumerate() {
            if let Some(&op) = s.ops.get(i) {
                out.push((c, op));
            }
        }
    }
    out
}

/// Mean cost of one `Instant::now()` pair, ns.
fn clock_overhead_ns() -> f64 {
    const N: u32 = 20_000;
    let t = Instant::now();
    let mut acc = 0u128;
    for _ in 0..N {
        let a = Instant::now();
        acc += a.elapsed().as_nanos();
    }
    black_box(acc);
    t.elapsed().as_nanos() as f64 / N as f64
}

/// Accumulates per-call host time.
#[derive(Default)]
struct Timer {
    ns: u128,
    calls: u64,
}

impl Timer {
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ns += t.elapsed().as_nanos();
        self.calls += 1;
        r
    }

    /// Host ns per unit of work (`units` of it done over all calls), net
    /// of clock overhead; 0 when there was none.
    fn per(&self, units: u64, overhead: f64) -> f64 {
        if units == 0 {
            0.0
        } else {
            (self.ns as f64 - overhead * self.calls as f64).max(0.0) / units as f64
        }
    }

    /// Mean ns per call net of clock overhead (0 when never called).
    fn mean(&self, overhead: f64) -> f64 {
        self.per(self.calls, overhead)
    }
}

/// Pre-rendered keys and the loaded values of every record.
struct Keys {
    keys: Vec<Vec<u8>>,
    values: Vec<Vec<u8>>,
}

impl Keys {
    fn new(wl: &Workload) -> Keys {
        Keys {
            keys: (0..wl.records).map(|id| wl.key_of(id)).collect(),
            values: (0..wl.records).map(|id| wl.value_of(id, 0)).collect(),
        }
    }
}

/// Prepared op: record id, kind, and (for updates) the value written.
enum Prepared {
    Get(usize),
    Update(usize, Vec<u8>),
    Scan(usize, u32),
}

fn prepare(wl: &Workload, streams: &[OpStream]) -> Vec<Prepared> {
    let mut versions = vec![1u64; streams.len()];
    interleave(streams)
        .into_iter()
        .filter_map(|(c, op)| match op {
            Op::Read(id) => Some(Prepared::Get(id as usize)),
            Op::Update(id) => {
                versions[c] += 1;
                Some(Prepared::Update(id as usize, wl.value_of(id, versions[c])))
            }
            Op::Scan(id, len) => Some(Prepared::Scan(id as usize, len)),
            // Inserts add fresh records; none of the benchmark mixes issue them.
            Op::Insert(_) => None,
        })
        .collect()
}

/// `store`: a standalone `ShardEngine` configured like one shard, holding
/// every record, serving the workload's ops.
fn store(cfg: &ClusterConfig, keys: &Keys, ops: &[Prepared], overhead: f64, m: &mut Json) {
    let mut engine = ShardEngine::new(EngineConfig {
        arena_words: cfg.arena_words,
        expected_items: cfg.expected_items,
        index: cfg.index,
        write_mode: cfg.write_mode,
        min_lease_ns: cfg.min_lease_ns,
        max_lease_ns: cfg.max_lease_ns,
    });
    for (k, v) in keys.keys.iter().zip(&keys.values) {
        engine
            .insert(0, k, v)
            .expect("standalone load fits one shard");
    }
    let (mut get, mut update, mut scan) = (Timer::default(), Timer::default(), Timer::default());
    let mut scan_items = 0u64;
    let mut out = Vec::new();
    let mut scratch = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let now = (i as u64 + 1) * STEP_NS;
        match op {
            Prepared::Get(id) => {
                let hit = get.time(|| engine.get_into(now, &keys.keys[*id], &mut out));
                assert!(hit.is_some(), "replayed GET of a loaded record missed");
            }
            Prepared::Update(id, v) => {
                update
                    .time(|| engine.update(now, &keys.keys[*id], v))
                    .expect("replayed UPDATE of a loaded record");
            }
            Prepared::Scan(id, len) => {
                let mut n = 0u32;
                scan.time(|| {
                    engine.scan_into(&keys.keys[*id], &mut scratch, |k, v| {
                        black_box((k, v));
                        n += 1;
                        n < *len
                    })
                });
                scan_items += n as u64;
            }
        }
    }
    m.set("store.get_ns", Json::Num(get.mean(overhead)));
    m.set("store.update_ns", Json::Num(update.mean(overhead)));
    m.set(
        "store.scan_ns_per_item",
        Json::Num(scan.per(scan_items, overhead)),
    );
}

/// `wire`: encode and decode every op's request; pack and parse every
/// scan's item list. A request round trip costs about as much as reading
/// the clock twice, so the request loop is timed as a whole, not per call.
fn wire(keys: &Keys, ops: &[Prepared], overhead: f64, m: &mut Json) {
    let mut buf = Vec::new();
    let t = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        let req_id = i as u64;
        let request = match op {
            Prepared::Get(id) => Request::Get {
                req_id,
                key: &keys.keys[*id],
            },
            Prepared::Update(id, v) => Request::Update {
                req_id,
                key: &keys.keys[*id],
                value: v,
            },
            Prepared::Scan(id, len) => Request::Scan {
                req_id,
                start: &keys.keys[*id],
                limit: *len,
            },
        };
        request.encode_into(&mut buf);
        let decoded = Request::decode(&buf).expect("own encoding decodes");
        black_box(decoded.req_id());
    }
    let request_ns = t.elapsed().as_nanos() as f64 / ops.len().max(1) as f64;
    m.set("wire.request_ns", Json::Num(request_ns));

    let mut items = Timer::default();
    let mut item_count = 0u64;
    let mut packed = Vec::new();
    for op in ops {
        let Prepared::Scan(id, len) = op else {
            continue;
        };
        let n = (*len as usize).min(keys.keys.len() - id);
        items.time(|| {
            scan_items_begin(&mut packed);
            for j in *id..*id + n {
                scan_items_push(&mut packed, &keys.keys[j], &keys.values[j]);
            }
            scan_items_finish(&mut packed, false, n as u32);
            let parsed = ScanItems::parse(&packed).expect("own packing parses");
            let bytes: usize = parsed.iter().map(|(k, v)| k.len() + v.len()).sum();
            black_box(bytes);
        });
        item_count += n as u64;
    }
    m.set(
        "wire.scan_items_ns_per_item",
        Json::Num(items.per(item_count, overhead)),
    );
}

/// `lockfree`: footprint of one empty pointer cache at the configured
/// capacity, then the workload's GET keys through `get`, inserting on miss
/// as the client does.
fn lockfree(cfg: &ClusterConfig, keys: &Keys, ops: &[Prepared], overhead: f64, m: &mut Json) {
    let before = rss_kib();
    let cache: ClockCache<CachedPtr> = ClockCache::new(cfg.ptr_cache_capacity);
    let after = rss_kib();
    m.set(
        "lockfree.cache_new_kib",
        Json::Num(after.saturating_sub(before) as f64),
    );
    let (mut get, mut insert) = (Timer::default(), Timer::default());
    for (i, op) in ops.iter().enumerate() {
        let Prepared::Get(id) = op else { continue };
        let key = &keys.keys[*id];
        if get.time(|| cache.get(key)).is_none() {
            let expiry = (i as u64 + 1) * STEP_NS + cfg.min_lease_ns;
            let ptr = CachedPtr {
                partition: 0,
                rptr: Default::default(),
                lease_expiry: expiry,
                version: None,
                replicas: Default::default(),
                n_replicas: 0,
            };
            insert.time(|| cache.insert(key, ptr, expiry));
        }
    }
    m.set("lockfree.get_ns", Json::Num(get.mean(overhead)));
    m.set("lockfree.insert_ns", Json::Num(insert.mean(overhead)));
}

/// Runs the three replays on `streams`, adding their metrics to `m`.
/// Returns each replay's host-time span for the trace.
pub fn replay_all(
    cfg: &ClusterConfig,
    wl: &Workload,
    streams: &[OpStream],
    m: &mut Json,
) -> Vec<(&'static str, Instant, Instant)> {
    let overhead = clock_overhead_ns();
    let keys = Keys::new(wl);
    let ops = prepare(wl, streams);
    let mut spans = Vec::new();
    let t = Instant::now();
    lockfree(cfg, &keys, &ops, overhead, m);
    spans.push(("replay.lockfree", t, Instant::now()));
    let t = Instant::now();
    store(cfg, &keys, &ops, overhead, m);
    spans.push(("replay.store", t, Instant::now()));
    let t = Instant::now();
    wire(&keys, &ops, overhead, m);
    spans.push(("replay.wire", t, Instant::now()));
    spans
}
