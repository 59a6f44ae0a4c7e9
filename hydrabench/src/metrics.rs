//! Turns an [`Outcome`] into end-to-end metrics, correctness checks and
//! per-layer metrics.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::time::Instant;

use hydra_db::{ClientStats, HydraClient};
use hydra_sim::Sim;
use hydra_ycsb::{KvClient, Op, OpStream, Workload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::probe::{Kind, Probe};
use crate::run::{shard_handles, LayerSnap, Outcome};
use crate::util::Json;
use crate::workloads::{Spec, CLIENTS, RECORDS, WARMUP_FRAC};

/// Value reported for a percentile that lands on failed requests: a failure
/// misses every latency limit.
pub const MISSED_US: f64 = 1e300;

/// A correctness check: name, passed, detail.
pub type Check = (String, bool, String);

/// Keys read back through a fresh client after the run.
const READBACK_KEYS: usize = 256;

/// A percentile over successes plus failures, failures ranked slowest.
/// Returns the value (`None` when it lands on a failure) and the number of
/// samples beyond it.
pub fn percentile(sorted_ok: &[u64], failed: u64, p: f64) -> (Option<u64>, u64) {
    let n = sorted_ok.len() as u64 + failed;
    let rank = ((p * n as f64).ceil() as u64).clamp(1, n.max(1));
    let value = sorted_ok.get(rank as usize - 1).copied();
    (value, n.saturating_sub(rank))
}

/// The virtual-clock end-to-end metrics and their sample counts.
pub fn virtual_metrics(out: &Outcome) -> (Json, Vec<Check>) {
    let rec = out.rec.borrow();
    let mut m = Json::obj();
    let mut checks = Vec::new();
    m.set("throughput_mops", Json::Num(out.report.mops));
    for kind in Kind::ALL {
        let failed = rec.failed(kind);
        let mut lat = rec.latencies(kind).to_vec();
        if lat.is_empty() && failed == 0 {
            continue; // the workload does not issue this kind
        }
        lat.sort_unstable();
        let name = kind.name();
        let (p50, _) = percentile(&lat, failed, 0.5);
        let (p999, beyond) = percentile(&lat, failed, 0.999);
        let us = |v: Option<u64>| v.map_or(MISSED_US, |ns| ns as f64 / 1e3);
        m.set(&format!("{name}_p50_us"), Json::Num(us(p50)));
        m.set(&format!("{name}_p999_us"), Json::Num(us(p999)));
        m.set(
            &format!("{name}_samples"),
            Json::Int(lat.len() as u64 + failed),
        );
        m.set(&format!("{name}_beyond_p999"), Json::Int(beyond));
        checks.push((
            format!("{name}_p999_has_10_beyond"),
            beyond >= 10,
            format!("{beyond} samples beyond p99.9"),
        ));
    }
    m.set(
        "failed_frac",
        Json::Num(failed(out) as f64 / out.attempted.max(1) as f64),
    );
    (m, checks)
}

/// Failed measured requests.
pub fn failed(out: &Outcome) -> u64 {
    let rec = out.rec.borrow();
    Kind::ALL.iter().map(|&k| rec.failed(k)).sum()
}

/// Sum of every probed client's counters.
fn client_totals(clients: &[Probe]) -> ClientStats {
    let mut t = ClientStats::default();
    for c in clients {
        let s = c.inner.stats();
        t.gets += s.gets;
        t.msg_gets += s.msg_gets;
        t.rptr_reads += s.rptr_reads;
        t.rptr_hits += s.rptr_hits;
        t.invalid_hits += s.invalid_hits;
        t.scans += s.scans;
        t.scan_steps += s.scan_steps;
        t.timeouts += s.timeouts;
        t.retries += s.retries;
        t.redirects += s.redirects;
        t.get_lat.merge(&s.get_lat);
        t.update_lat.merge(&s.update_lat);
        t.scan_lat.merge(&s.scan_lat);
    }
    t
}

/// Correctness gates.
pub fn checks(spec: &Spec, out: &mut Outcome, streams: &[OpStream]) -> Vec<Check> {
    let mut checks = Vec::new();
    let mut check = |name: &str, ok: bool, detail: String| {
        checks.push((name.to_string(), ok, detail));
    };

    // The driver measured exactly the stream it was given.
    let measured_from_streams: u64 = streams
        .iter()
        .map(|s| (s.ops.len() - (s.ops.len() as f64 * WARMUP_FRAC) as usize) as u64)
        .sum();
    check(
        "attempted_matches_streams",
        measured_from_streams == out.attempted,
        format!(
            "streams {measured_from_streams}, expected {}",
            out.attempted
        ),
    );
    let issued = out.rec.borrow().issued();
    check(
        "every_request_issued",
        issued == out.attempted,
        format!("issued {issued} of {}", out.attempted),
    );
    let completed: u64 = {
        let rec = out.rec.borrow();
        Kind::ALL
            .iter()
            .map(|&k| rec.latencies(k).len() as u64 + rec.failed(k))
            .sum()
    };
    check(
        "every_request_completed",
        completed == out.attempted,
        format!("completed {completed} of {}", out.attempted),
    );

    // The probe's samples agree with the client's own histograms.
    let totals = client_totals(&out.clients);
    {
        let rec = out.rec.borrow();
        for (kind, hist) in [
            (Kind::Get, &totals.get_lat),
            (Kind::Update, &totals.update_lat),
            (Kind::Scan, &totals.scan_lat),
        ] {
            let probe = rec.latencies(kind).len() as u64;
            check(
                &format!("{}_samples_match_client", kind.name()),
                probe == hist.count(),
                format!("probe {probe}, client histogram {}", hist.count()),
            );
        }
    }
    let ops: u64 = out.clients.iter().map(|c| c.kv_snapshot().ops).sum();
    check(
        "driver_ops_match",
        out.report.ops == ops && out.report.ops == completed,
        format!(
            "report {}, clients {ops}, probe {completed}",
            out.report.ops
        ),
    );

    // Item count: loaded records plus inserts.
    let inserts = streams
        .iter()
        .flat_map(|s| &s.ops)
        .filter(|op| matches!(op, Op::Insert(_)))
        .count() as u64;
    let items = out.cluster.total_items() as u64;
    check(
        "total_items",
        items == RECORDS + inserts,
        format!("{items} items, expected {}", RECORDS + inserts),
    );

    // Read back a seeded key sample through a fresh client.
    let (ok, detail) = readback(spec, out, streams);
    check("readback", ok, detail);

    // Replicas agree once replication settles.
    if spec.cluster.replicas > 0 {
        out.cluster.settle_replication();
        let mut diverged = Vec::new();
        for p in 0..out.cluster.cfg.total_shards() {
            let dumps = out.cluster.replica_dumps(p);
            if dumps.len() < 2 || dumps.iter().any(|(_, items)| *items != dumps[0].1) {
                diverged.push(p);
            }
        }
        check(
            "replicas_identical",
            diverged.is_empty(),
            format!("partitions diverged or unreplicated: {diverged:?}"),
        );
    }
    checks
}

/// Versions each sampled id may hold: 0 (as loaded) when no update touched
/// it, else one of the versions its updates wrote. The driver numbers a
/// client's updates 2, 3, … across warm-up and measurement.
fn allowed_versions(streams: &[OpStream], ids: &HashSet<u64>) -> HashMap<u64, Vec<u64>> {
    let mut allowed: HashMap<u64, Vec<u64>> = HashMap::new();
    for s in streams {
        let mut version = 1u64;
        for op in &s.ops {
            if let Op::Update(id) = *op {
                version += 1;
                if ids.contains(&id) {
                    allowed.entry(id).or_default().push(version);
                }
            }
        }
    }
    allowed
}

fn readback(spec: &Spec, out: &mut Outcome, streams: &[OpStream]) -> (bool, String) {
    let mut rng = SmallRng::seed_from_u64(spec.workload.seed ^ 0x5EED_BAC4);
    let ids: Vec<u64> = (0..READBACK_KEYS)
        .map(|_| rng.gen_range(0..RECORDS))
        .collect();
    let allowed = allowed_versions(streams, &ids.iter().copied().collect());
    let client = out.cluster.add_client(0);
    let results = Rc::new(RefCell::new(Vec::new()));
    let wl = Rc::new(spec.workload.clone());
    read_next(
        &mut out.cluster.sim,
        client,
        wl,
        ids.clone(),
        0,
        results.clone(),
    );
    out.cluster.sim.run();
    let results = results.borrow();
    if results.len() != ids.len() {
        return (
            false,
            format!("{} of {} reads completed", results.len(), ids.len()),
        );
    }
    let wl = &spec.workload;
    for (id, got) in ids.iter().zip(results.iter()) {
        let Some(value) = got else {
            return (false, format!("key {id} missing or failed"));
        };
        let ok = match allowed.get(id) {
            Some(versions) => versions.iter().any(|&v| *value == wl.value_of(*id, v)),
            None => *value == wl.value_of(*id, 0),
        };
        if !ok {
            return (false, format!("key {id} holds a value no write produced"));
        }
    }
    (true, format!("{} keys match", ids.len()))
}

/// Reads `ids[i..]` one after another (the client is closed-loop).
fn read_next(
    sim: &mut Sim,
    client: HydraClient,
    wl: Rc<Workload>,
    ids: Vec<u64>,
    i: usize,
    results: Rc<RefCell<Vec<Option<Vec<u8>>>>>,
) {
    let Some(&id) = ids.get(i) else { return };
    let key = wl.key_of(id);
    let c2 = client.clone();
    client.get(
        sim,
        &key,
        Box::new(move |sim, r| {
            results.borrow_mut().push(r.ok().flatten());
            read_next(sim, c2, wl, ids, i + 1, results);
        }),
    );
}

/// p99 of a server log2 histogram (bucket k ≥ 1 holds [2^(k-1), 2^k) ns,
/// bucket 0 holds 0), interpolated linearly inside the bucket it falls in.
fn log2_p99(hist: &[u64]) -> f64 {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let target = (total as f64 * 0.99).ceil();
    let mut seen = 0.0;
    for (k, &c) in hist.iter().enumerate() {
        let c = c as f64;
        if c > 0.0 && seen + c >= target {
            let (lo, hi) = if k == 0 {
                (0.0, 0.0)
            } else {
                ((1u64 << (k - 1)) as f64, (1u64 << k) as f64)
            };
            return lo + (hi - lo) * (target - seen) / c;
        }
        seen += c;
    }
    unreachable!("target is within the total")
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-layer metrics read from the cluster (component replays are added
/// by the caller).
pub fn layer_metrics(out: &Outcome, m: &mut Json) {
    let ops = out.attempted as f64;
    let first = out.first.layers.as_ref().expect("traced run");
    let last = out.last.layers.as_ref().expect("traced run");
    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();

    // sim
    let measured_events = (out.last.events - out.first.events) as f64;
    let drain_events = out.end_events - out.last.events;
    m.set("sim.events_per_op", Json::Num(measured_events / ops));
    m.set(
        "sim.host_ns_per_event",
        Json::Num(ratio(
            secs(out.first.at, out.last.at) * 1e9,
            measured_events,
        )),
    );
    m.set("sim.measured_s", Json::Num(secs(out.first.at, out.last.at)));
    m.set("sim.drain_s", Json::Num(secs(out.last.at, out.returned)));
    m.set("sim.drain_events", Json::Int(drain_events));
    m.set(
        "sim.drain_virtual_s",
        Json::Num((out.end_now - out.last.now) as f64 / 1e9),
    );
    m.set(
        "sim.drain_event_frac",
        Json::Num(ratio(drain_events as f64, out.end_events as f64)),
    );
    m.set(
        "sim.peak_pending_events",
        Json::Int(out.cluster.sim.arena_cells() as u64),
    );

    // hydradb.cluster
    m.set("cluster.build_s", Json::Num(out.build_s));
    m.set("cluster.clients_s", Json::Num(out.clients_s));
    m.set(
        "cluster.rss_build_mib",
        Json::Num(out.rss_build_kib.saturating_sub(out.rss_before_kib) as f64 / 1024.0),
    );
    m.set(
        "cluster.rss_per_client_kib",
        Json::Num(out.rss_clients_kib.saturating_sub(out.rss_build_kib) as f64 / CLIENTS as f64),
    );
    m.set(
        "cluster.load_warmup_s",
        Json::Num(secs(out.call_at, out.first.at)),
    );

    // hydradb.client
    let c = client_totals(&out.clients);
    m.set(
        "client.fastpath_hit_ratio",
        Json::Num(ratio(c.rptr_hits as f64, c.rptr_reads as f64)),
    );
    m.set(
        "client.invalid_per_get",
        Json::Num(ratio(c.invalid_hits as f64, c.gets as f64)),
    );
    m.set(
        "client.msg_get_frac",
        Json::Num(ratio(c.msg_gets as f64, c.gets as f64)),
    );
    m.set("client.retries", Json::Int(c.retries));
    m.set("client.timeouts", Json::Int(c.timeouts));
    m.set("client.redirects", Json::Int(c.redirects));
    m.set(
        "client.scan_steps_per_scan",
        Json::Num(ratio(c.scan_steps as f64, c.scans as f64)),
    );
    {
        let rec = out.rec.borrow();
        let spans = rec.spans();
        let host: u64 = spans.iter().map(|s| s.host_ns).sum();
        m.set(
            "client.issue_ns",
            Json::Num(ratio(host as f64, spans.len() as f64)),
        );
    }

    // hydradb.server: primaries, measured window (first → last completion)
    let sum = |f: &dyn Fn(&hydra_db::server::ServerStats) -> u64, s: &LayerSnap| -> u64 {
        s.servers.iter().map(f).sum()
    };
    let delta = |f: &dyn Fn(&hydra_db::server::ServerStats) -> u64| sum(f, last) - sum(f, first);
    let requests = delta(&|s| s.requests) as f64;
    m.set("server.requests_per_op", Json::Num(requests / ops));
    let arrivals = delta(&|s| s.queue_depth_hist_by_op.iter().flatten().sum()) as f64;
    let idle = delta(&|s| s.queue_depth_hist_by_op.iter().map(|row| row[0]).sum()) as f64;
    m.set(
        "server.busy_arrival_frac",
        Json::Num(ratio(arrivals - idle, arrivals)),
    );
    m.set(
        "server.batched_frac",
        Json::Num(ratio(delta(&|s| s.batched_requests) as f64, requests)),
    );
    let service = |slots: &[usize]| -> Vec<u64> {
        let buckets = first.servers[0].service_time_hist_by_op[0].len();
        (0..buckets)
            .map(|b| {
                let at = |snap: &LayerSnap| -> u64 {
                    snap.servers
                        .iter()
                        .map(|s| {
                            slots
                                .iter()
                                .map(|&k| s.service_time_hist_by_op[k][b])
                                .sum::<u64>()
                        })
                        .sum()
                };
                at(last) - at(first)
            })
            .collect()
    };
    m.set(
        "server.get_service_p99_ns",
        Json::Num(log2_p99(&service(&[0]))),
    );
    m.set(
        "server.update_service_p99_ns",
        Json::Num(log2_p99(&service(&[1, 2, 3]))),
    );
    m.set(
        "server.scan_service_p99_ns",
        Json::Num(log2_p99(&service(&[5]))),
    );
    let scans = delta(&|s| s.scans) as f64;
    m.set(
        "server.scan_chunks_per_scan",
        Json::Num(ratio(delta(&|s| s.scan_chunks) as f64, scans)),
    );
    m.set(
        "server.scan_preemptions_per_scan",
        Json::Num(ratio(delta(&|s| s.scan_preemptions) as f64, scans)),
    );

    // store: primaries' engines, measured window through the drain
    let shards = shard_handles(&out.cluster);
    let reclaimed_end: u64 = shards
        .iter()
        .map(|h| h.primary.borrow().engine.borrow().stats().reclaimed_blocks)
        .sum();
    let reclaimed_first: u64 = first.engines.iter().map(|e| e.reclaimed_blocks).sum();
    m.set(
        "store.reclaimed_blocks",
        Json::Int(reclaimed_end - reclaimed_first),
    );
    let reclaim_peak = shards
        .iter()
        .map(|h| h.primary.borrow().engine.borrow().reclaim_peak().0)
        .max()
        .unwrap_or(0);
    m.set("store.reclaim_peak_blocks", Json::Int(reclaim_peak as u64));
    let report = out.cluster.report();
    m.set(
        "store.arena_occupancy",
        Json::Num(
            report.rows.iter().map(|r| r.arena_occupancy).sum::<f64>() / report.rows.len() as f64,
        ),
    );
    let index_bytes: usize = shards
        .iter()
        .map(|h| h.primary.borrow().engine.borrow().index_mem_bytes())
        .sum();
    m.set(
        "store.index_mib",
        Json::Num(index_bytes as f64 / (1u64 << 20) as f64),
    );

    // fabric: every node, measured window
    let node_delta = |f: &dyn Fn(&hydra_fabric::NodeStats) -> u64| -> f64 {
        let at = |s: &LayerSnap| -> u64 { s.nodes.iter().map(f).sum() };
        (at(last) - at(first)) as f64
    };
    m.set(
        "fabric.doorbells_per_op",
        Json::Num(node_delta(&|n| n.doorbells) / ops),
    );
    m.set(
        "fabric.bytes_per_op",
        Json::Num(node_delta(&|n| n.bytes_tx) / ops),
    );
    m.set(
        "fabric.reads_per_op",
        Json::Num(node_delta(&|n| n.reads) / ops),
    );
    m.set(
        "fabric.writes_per_op",
        Json::Num(node_delta(&|n| n.writes) / ops),
    );
    let qp_miss = node_delta(&|n| n.qp_cache_misses);
    m.set(
        "fabric.qp_cache_miss_ratio",
        Json::Num(ratio(qp_miss, qp_miss + node_delta(&|n| n.qp_cache_hits))),
    );
    let mtt_miss = node_delta(&|n| n.mtt_cache_misses);
    m.set(
        "fabric.mtt_cache_miss_ratio",
        Json::Num(ratio(
            mtt_miss,
            mtt_miss + node_delta(&|n| n.mtt_cache_hits),
        )),
    );
    m.set(
        "fabric.miss_penalty_ns_per_op",
        Json::Num(node_delta(&|n| n.miss_penalty_ns) / ops),
    );

    // replication: PartitionReport once the run has drained
    let replicated: Vec<_> = report.rows.iter().filter(|r| r.secondaries > 0).collect();
    m.set(
        "replication.acks_per_record",
        Json::Num(ratio(
            replicated.iter().map(|r| r.repl_acks_per_record).sum(),
            replicated.len() as f64,
        )),
    );
    m.set(
        "replication.lag_max",
        Json::Int(
            report
                .rows
                .iter()
                .map(|r| r.repl_lag_max)
                .max()
                .unwrap_or(0),
        ),
    );
    m.set(
        "replication.backlog_max",
        Json::Int(
            report
                .rows
                .iter()
                .map(|r| r.repl_backlog as u64)
                .max()
                .unwrap_or(0),
        ),
    );
    let releases: u64 = report
        .rows
        .iter()
        .map(|r| r.repl_release_hist.iter().sum::<u64>())
        .sum();
    let held_writes: u64 = shards
        .iter()
        .zip(&report.rows)
        .map(|(h, r)| {
            let s = h.primary.borrow().stats();
            (s.inserts + s.updates + s.deletes) * r.secondaries as u64
        })
        .sum();
    m.set(
        "replication.release_batch_mean",
        Json::Num(ratio(held_writes as f64, releases as f64)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_ranks_failures_last() {
        let ok: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&ok, 0, 0.5), (Some(500), 500));
        assert_eq!(percentile(&ok, 0, 0.999), (Some(999), 1));
        // Ten failures push p99.9 onto a failure.
        assert_eq!(percentile(&ok, 10, 0.999), (None, 1));
        assert_eq!(percentile(&ok, 10, 0.5), (Some(505), 505));
    }

    #[test]
    fn log2_p99_interpolates_inside_the_bucket() {
        let mut hist = [0u64; 16];
        // 100 samples in [4, 8): the 99th sits 99 % of the way through.
        hist[3] = 100;
        assert_eq!(log2_p99(&hist), 4.0 + 4.0 * 0.99);
        // 98 below, 2 in [512, 1024): the 99th is the first of those two.
        hist[3] = 98;
        hist[10] = 2;
        assert_eq!(log2_p99(&hist), 512.0 + 512.0 * 0.5);
        assert_eq!(log2_p99(&[0; 16]), 0.0);
    }
}
