//! Scheduler observational equivalence: Fifo vs DualLane.
//!
//! The dual-lane deficit-round-robin scheduler changes *when* work runs on a
//! contended shard core, never *what* it computes. Two properties pin that
//! down:
//!
//! 1. **Sequential parity** — for a single closed-loop client (the shard is
//!    idle at every arrival), DualLane must be indistinguishable from Fifo:
//!    identical per-op results *and* identical virtual completion times, for
//!    arbitrary op mixes including scans long enough to truncate at the scan
//!    quantum and continue via the `more` cursor.
//! 2. **Concurrent point parity** — several closed-loop clients racing on
//!    one shard with point ops only (GET/INSERT/UPDATE/DELETE and lease
//!    renewals): Fifo serves every task on one lane, DualLane every task on
//!    the latency lane, and no scan exists to preempt, so both runs are
//!    tick-identical — same results, same completion instants.
//! 3. **Preemption transparency** — when a point client races a scan client
//!    over a read-only keyspace, DualLane preempts running scans at chunk
//!    boundaries, yet every scan payload and every GET value is byte-equal
//!    to the Fifo run, and the preemption visibly shortens the worst point
//!    latency.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use hydra_db::client::{OpCb, OpError};
use hydra_db::{
    Cluster, ClusterBuilder, ClusterConfig, HydraClient, IndexKind, ReplicationMode, SchedulerKind,
};
use hydra_sim::SimTime;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Get(u8),
    Insert(u8, u8),
    Update(u8, u8),
    Delete(u8),
    Scan(u8, u32),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            3 => any::<u8>().prop_map(|k| Op::Get(k % 24)),
            1 => (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Insert(k % 24, v)),
            1 => (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Update(k % 24, v)),
            1 => any::<u8>().prop_map(|k| Op::Delete(k % 24)),
            // Long enough to cross the scan quantum and the chunk size, so
            // truncation + continuation is exercised on both paths.
            1 => (any::<u8>(), 1..40u32).prop_map(|(k, l)| Op::Scan(k % 24, l)),
        ],
        1..32,
    )
}

fn key_of(k: u8) -> Vec<u8> {
    format!("seq-key-{k:03}").into_bytes()
}

fn value_of(k: u8, v: u8) -> Vec<u8> {
    format!("val-{k}-{v}").into_bytes()
}

/// A comparable trace entry: virtual completion time plus a canonical
/// rendering of the op result (value bytes or error discriminant).
type Trace = Vec<(SimTime, String)>;

fn render(res: &Result<Option<Vec<u8>>, OpError>) -> String {
    match res {
        Ok(Some(v)) => format!("ok:{v:?}"),
        Ok(None) => "miss".to_string(),
        Err(e) => format!("err:{e:?}"),
    }
}

fn cluster_with(scheduler: SchedulerKind, cfg_tweak: impl FnOnce(&mut ClusterConfig)) -> Cluster {
    let mut cfg = ClusterConfig {
        seed: 4242,
        server_nodes: 1,
        partitions: Some(2),
        client_nodes: 1,
        index: IndexKind::Hybrid,
        // Small chunks so even modest scans span several chunk boundaries.
        scan_chunk_items: 4,
        scheduler,
        ..ClusterConfig::default()
    };
    cfg_tweak(&mut cfg);
    ClusterBuilder::new(cfg).build()
}

/// Replays `ops` closed-loop (op i+1 issued from op i's callback) and
/// returns the completion-time/result trace.
fn run_sequential(scheduler: SchedulerKind, ops: &[Op]) -> Trace {
    let mut cluster = cluster_with(scheduler, |_| {});
    let client = cluster.add_client(0);
    // Seed half the key space so GETs hit, INSERTs collide, UPDATEs land.
    for k in 0..12u8 {
        hydra_integration::put_ok(&mut cluster, &client, &key_of(k), &value_of(k, 0));
    }
    let trace: Rc<RefCell<Trace>> = Rc::new(RefCell::new(Vec::new()));
    let done = Rc::new(Cell::new(false));

    fn step(
        sim: &mut hydra_sim::Sim,
        client: HydraClient,
        ops: Rc<Vec<Op>>,
        i: usize,
        trace: Rc<RefCell<Trace>>,
        done: Rc<Cell<bool>>,
    ) {
        if i >= ops.len() {
            done.set(true);
            return;
        }
        let op = ops[i].clone();
        let c2 = client.clone();
        let t2 = trace.clone();
        let cont: OpCb = Box::new(move |sim, res| {
            t2.borrow_mut().push((sim.now(), render(&res)));
            step(sim, c2, ops, i + 1, trace, done);
        });
        match op {
            Op::Get(k) => client.get(sim, &key_of(k), cont),
            Op::Insert(k, v) => client.insert(sim, &key_of(k), &value_of(k, v), cont),
            Op::Update(k, v) => client.update(sim, &key_of(k), &value_of(k, v), cont),
            Op::Delete(k) => client.delete(sim, &key_of(k), cont),
            Op::Scan(k, limit) => client.scan(sim, &key_of(k), limit, cont),
        }
    }

    let ops_rc = Rc::new(ops.to_vec());
    step(
        &mut cluster.sim,
        client,
        ops_rc,
        0,
        trace.clone(),
        done.clone(),
    );
    cluster.sim.run();
    assert!(done.get(), "op chain did not complete");
    Rc::try_unwrap(trace).unwrap().into_inner()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sequential workloads observe *nothing* from the scheduler swap: the
    /// dual-lane pump arms with the same detection latency as the FIFO
    /// path, so every result and every virtual completion time is
    /// identical.
    #[test]
    fn sequential_dual_lane_is_indistinguishable_from_fifo(ops in ops()) {
        let fifo = run_sequential(SchedulerKind::Fifo, &ops);
        let dual = run_sequential(SchedulerKind::DualLane, &ops);
        prop_assert_eq!(fifo, dual);
    }
}

/// Concurrent pure-point traffic on one contended shard: `CLIENTS`
/// closed-loop clients each issue `OPS_PER_CLIENT` seeded point ops
/// (GET/INSERT/UPDATE/DELETE, plus lease-renewal batches for the pointers
/// their GETs cached) against a shared 24-key space, and every write
/// replicates strictly to one secondary. Arrivals routinely land on a busy
/// core, and responses share the server NIC with replication traffic, so
/// same-nanosecond events are common; both schedulers run the same
/// one-task-at-a-time dispatch, so every `(client, time, result)` entry
/// must match. A renewal has no completion callback, so its client polls
/// every `RENEW_POLL_NS` until idle and records that instant.
#[test]
fn concurrent_point_clients_are_tick_identical() {
    const CLIENTS: usize = 8;
    const OPS_PER_CLIENT: usize = 150;
    const RENEW_POLL_NS: SimTime = 250;
    const SEC: SimTime = 1_000_000_000;

    type ClientTrace = Rc<RefCell<Vec<(usize, SimTime, String)>>>;

    /// splitmix64: a self-contained seeded stream, so the op mix is the
    /// same for both runs without sharing an RNG object.
    fn mix(x: u64) -> u64 {
        let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn step(sim: &mut hydra_sim::Sim, client: HydraClient, c: usize, i: usize, trace: ClientTrace) {
        if i >= OPS_PER_CLIENT {
            return;
        }
        let r = mix(((c as u64) << 32) | i as u64);
        let k = (r % 24) as u8;
        let v = (r >> 8) as u8;
        if (r >> 16) % 8 == 7 {
            if client.renew_expiring_leases(sim, 10 * SEC) {
                wait_idle(sim, client, c, i, trace);
            } else {
                trace.borrow_mut().push((c, sim.now(), "renew:none".into()));
                step(sim, client, c, i + 1, trace);
            }
            return;
        }
        let c2 = client.clone();
        let t2 = trace.clone();
        let cont: OpCb = Box::new(move |sim, res| {
            t2.borrow_mut().push((c, sim.now(), render(&res)));
            step(sim, c2, c, i + 1, trace);
        });
        match (r >> 16) % 8 {
            0..=2 => client.get(sim, &key_of(k), cont),
            3 => client.insert(sim, &key_of(k), &value_of(k, v), cont),
            4 | 5 => client.update(sim, &key_of(k), &value_of(k, v), cont),
            _ => client.delete(sim, &key_of(k), cont),
        }
    }

    fn wait_idle(
        sim: &mut hydra_sim::Sim,
        client: HydraClient,
        c: usize,
        i: usize,
        trace: ClientTrace,
    ) {
        sim.schedule_in(RENEW_POLL_NS, move |sim| {
            if client.is_busy() {
                wait_idle(sim, client, c, i, trace);
            } else {
                trace.borrow_mut().push((c, sim.now(), "renewed".into()));
                step(sim, client, c, i + 1, trace);
            }
        });
    }

    fn run(scheduler: SchedulerKind) -> (Vec<(usize, SimTime, String)>, u64) {
        let mut cluster = cluster_with(scheduler, |cfg| {
            cfg.server_nodes = 2;
            cfg.partitions = Some(1);
            cfg.replicas = 2;
            cfg.replication = ReplicationMode::Strict;
        });
        let clients: Vec<HydraClient> = (0..CLIENTS).map(|_| cluster.add_client(0)).collect();
        for k in 0..12u8 {
            hydra_integration::put_ok(&mut cluster, &clients[0], &key_of(k), &value_of(k, 0));
        }
        let trace: ClientTrace = Rc::new(RefCell::new(Vec::new()));
        for (c, client) in clients.iter().enumerate() {
            step(&mut cluster.sim, client.clone(), c, 0, trace.clone());
        }
        cluster.sim.run();
        let stats = cluster.shard(0).primary.borrow().stats();
        // Arrivals that queued behind at least one request's worth of work.
        let contended = stats.queue_depth_hist[1..].iter().sum::<u64>();
        (Rc::try_unwrap(trace).unwrap().into_inner(), contended)
    }

    let (fifo, fifo_contended) = run(SchedulerKind::Fifo);
    let (dual, dual_contended) = run(SchedulerKind::DualLane);
    assert_eq!(fifo.len(), CLIENTS * OPS_PER_CLIENT, "every op completed");
    assert!(
        fifo.iter().any(|(_, _, r)| r == "renewed"),
        "some lease-renewal batch was sent"
    );
    assert!(fifo_contended > 0, "the shard core was actually contended");
    assert_eq!(fifo, dual);
    assert_eq!(fifo_contended, dual_contended);
}

/// Concurrent point + scan clients over a *read-only* keyspace: execution
/// order differs between schedulers (that is the point), but with no
/// mutations every response is a pure function of the pre-populated engine
/// state, so all payloads must be byte-identical — even though the DualLane
/// run demonstrably preempted scans mid-flight.
#[test]
fn preempted_scans_return_byte_identical_results() {
    fn wide_key(k: u16) -> Vec<u8> {
        format!("wide-key-{k:04}").into_bytes()
    }

    /// Per-run server counters summed over shards: (scan_preemptions,
    /// scans, scan_chunks).
    type ScanCounts = (u64, u64, u64);

    fn run(scheduler: SchedulerKind) -> (Vec<String>, Vec<String>, SimTime, ScanCounts) {
        let mut cluster = cluster_with(scheduler, |cfg| {
            // Message-path GETs only, so every point op actually crosses the
            // shard core and contends with the scans.
            cfg.client_mode = hydra_db::ClientMode::RdmaWrite;
            // ~1.6 us chunks against ~20 us scan dispatches.
            cfg.scan_chunk_items = 32;
        });
        let scanner = cluster.add_client(0);
        let pointer = cluster.add_client(0);
        for k in 0..400u16 {
            let v = format!("wv-{k}").into_bytes();
            hydra_integration::put_ok(&mut cluster, &scanner, &wide_key(k), &v);
        }

        let scans: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        let gets: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        let worst_get: Rc<Cell<SimTime>> = Rc::new(Cell::new(0));
        let done = Rc::new(Cell::new(false));

        fn scan_loop(
            sim: &mut hydra_sim::Sim,
            client: HydraClient,
            i: usize,
            out: Rc<RefCell<Vec<String>>>,
        ) {
            if i >= 12 {
                return;
            }
            let c2 = client.clone();
            let o2 = out.clone();
            client.scan(
                sim,
                b"wide-key-0000",
                300,
                Box::new(move |sim, res| {
                    o2.borrow_mut().push(render(&res));
                    scan_loop(sim, c2, i + 1, out);
                }),
            );
        }
        fn get_loop(
            sim: &mut hydra_sim::Sim,
            client: HydraClient,
            i: usize,
            out: Rc<RefCell<Vec<String>>>,
            worst: Rc<Cell<SimTime>>,
            done: Rc<Cell<bool>>,
        ) {
            if i >= 64 {
                done.set(true);
                return;
            }
            let c2 = client.clone();
            let o2 = out.clone();
            let issued = sim.now();
            client.get(
                sim,
                &wide_key((i % 400) as u16),
                Box::new(move |sim, res| {
                    o2.borrow_mut().push(render(&res));
                    worst.set(worst.get().max(sim.now() - issued));
                    get_loop(sim, c2, i + 1, out, worst, done);
                }),
            );
        }

        scan_loop(&mut cluster.sim, scanner, 0, scans.clone());
        get_loop(
            &mut cluster.sim,
            pointer,
            0,
            gets.clone(),
            worst_get.clone(),
            done.clone(),
        );
        cluster.sim.run();
        assert!(done.get(), "point chain did not complete");
        let counts = (0..cluster.cfg.total_shards())
            .map(|p| cluster.shard(p).primary.borrow().stats())
            .fold((0, 0, 0), |(p, s, c), st| {
                (p + st.scan_preemptions, s + st.scans, c + st.scan_chunks)
            });
        (
            Rc::try_unwrap(scans).unwrap().into_inner(),
            Rc::try_unwrap(gets).unwrap().into_inner(),
            worst_get.get(),
            counts,
        )
    }

    let (fifo_scans, fifo_gets, fifo_worst, (fifo_preempt, _, _)) = run(SchedulerKind::Fifo);
    let (dual_scans, dual_gets, dual_worst, (dual_preempt, dual_scan_count, dual_chunks)) =
        run(SchedulerKind::DualLane);

    assert_eq!(fifo_scans, dual_scans, "scan payloads must be byte-equal");
    assert_eq!(fifo_gets, dual_gets, "GET values must be byte-equal");
    assert_eq!(fifo_preempt, 0, "the FIFO path never preempts");
    assert!(
        dual_preempt > 0,
        "the DualLane run must actually have preempted scans"
    );
    assert!(
        dual_worst < fifo_worst,
        "preemption must shorten the worst point latency \
         (dual {dual_worst} ns vs fifo {fifo_worst} ns)"
    );
    // Chunk accounting: every server scan covers at least one chunk, and each
    // preemption splits a scan into one more chunk run.
    assert!(
        dual_chunks >= dual_scan_count + dual_preempt,
        "scan_chunks {dual_chunks} < scans {dual_scan_count} + preemptions {dual_preempt}"
    );
    // Exact values: any change to chunk accounting (which the repository
    // benchmark reads as `server.scan_chunks_per_scan`) must show up here.
    assert_eq!(
        (dual_preempt, dual_scan_count, dual_chunks),
        (24, 24, 156),
        "DualLane (scan_preemptions, scans, scan_chunks)"
    );
}
