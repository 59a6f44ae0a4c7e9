//! One measured run: build, load, warm up, measure, drain — timed on both
//! clocks from outside the program.
//!
//! The run goes through the public driver, `run_workload_hooked`, with two
//! hooks: one on the first measured completion and one on the last. They
//! split host time into set-up (process start → first completion), the
//! measured window (first → last completion) and the drain (last completion
//! → the driver returns with an idle simulator).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use hydra_db::server::ServerStats;
use hydra_db::{Cluster, ClusterBuilder, ShardHandle};
use hydra_fabric::{Fabric, NodeId, NodeStats};
use hydra_sim::Sim;
use hydra_store::EngineStats;
use hydra_ycsb::{run_workload_hooked, DriverConfig, OpHook, WorkloadReport};

use crate::probe::{Probe, Recorder};
use crate::util::{hwm_kib, rss_kib};
use crate::workloads::{Spec, CLIENTS, WARMUP_FRAC};

/// Counters of every layer at one instant (traced runs only).
pub struct LayerSnap {
    pub servers: Vec<ServerStats>,
    pub engines: Vec<EngineStats>,
    pub nodes: Vec<NodeStats>,
}

/// What a hook saw when it fired.
pub struct Mark {
    pub at: Instant,
    /// Virtual time (ns).
    pub now: u64,
    pub events: u64,
    pub layers: Option<LayerSnap>,
}

/// Everything one run measured; the caller turns it into metrics.
pub struct Outcome {
    pub cluster: Cluster,
    pub clients: Vec<Probe>,
    pub rec: Rc<RefCell<Recorder>>,
    pub report: WorkloadReport,
    /// Measured requests the driver replays: the stream length after the
    /// warm-up slice, summed over clients.
    pub attempted: u64,
    pub first: Mark,
    pub last: Mark,
    pub returned: Instant,
    pub process_start: Instant,
    pub build_s: f64,
    pub clients_s: f64,
    pub call_at: Instant,
    pub rss_before_kib: u64,
    pub rss_build_kib: u64,
    pub rss_clients_kib: u64,
    pub hwm_kib: u64,
    pub end_events: u64,
    /// Virtual time (ns) when the simulator went idle.
    pub end_now: u64,
}

/// Requests the driver measures: each client's stream minus its warm-up
/// slice, computed as the driver splits it.
pub fn measured_ops(spec: &Spec) -> u64 {
    let per = spec.workload.ops / CLIENTS as u64;
    let split = (per as f64 * WARMUP_FRAC) as u64;
    (per - split) * CLIENTS as u64
}

/// Snapshots every layer's counters through public handles.
pub fn snap_layers(shards: &[ShardHandle], fab: &Fabric, nodes: &[NodeId]) -> LayerSnap {
    LayerSnap {
        servers: shards.iter().map(|h| h.primary.borrow().stats()).collect(),
        engines: shards
            .iter()
            .map(|h| h.primary.borrow().engine.borrow().stats())
            .collect(),
        nodes: nodes.iter().map(|&n| fab.node_stats(n)).collect(),
    }
}

/// Every fabric node of the cluster, servers first.
pub fn all_nodes(cluster: &Cluster) -> Vec<NodeId> {
    cluster
        .server_nodes
        .iter()
        .chain(cluster.client_nodes.iter())
        .copied()
        .collect()
}

/// Primary handles of every partition.
pub fn shard_handles(cluster: &Cluster) -> Vec<ShardHandle> {
    (0..cluster.cfg.total_shards())
        .map(|p| cluster.shard(p))
        .collect()
}

fn mark_hook(
    slot: Rc<RefCell<Option<Mark>>>,
    layers: Option<(Vec<ShardHandle>, Fabric, Vec<NodeId>)>,
) -> OpHook {
    Box::new(move |sim: &mut Sim| {
        let at = Instant::now();
        let now = sim.now();
        let events = sim.executed_events();
        let layers = layers
            .as_ref()
            .map(|(shards, fab, nodes)| snap_layers(shards, fab, nodes));
        *slot.borrow_mut() = Some(Mark {
            at,
            now,
            events,
            layers,
        });
    })
}

/// Runs `spec` once on a fresh cluster. `trace` turns on request spans and
/// layer snapshots.
pub fn run(spec: &Spec, trace: bool, process_start: Instant) -> Outcome {
    let attempted = measured_ops(spec);
    let rss_before_kib = rss_kib();

    let t = Instant::now();
    let mut cluster = ClusterBuilder::new(spec.cluster.clone()).build();
    let build_s = t.elapsed().as_secs_f64();
    let rss_build_kib = rss_kib();

    let t = Instant::now();
    let nodes = spec.cluster.client_nodes.max(1) as usize;
    let hydra: Vec<_> = (0..CLIENTS)
        .map(|i| cluster.add_client(i % nodes))
        .collect();
    let clients_s = t.elapsed().as_secs_f64();
    let rss_clients_kib = rss_kib();

    let rec = Recorder::new(trace, attempted as usize);
    let clients: Vec<Probe> = hydra
        .into_iter()
        .map(|c| Probe::new(c, rec.clone()))
        .collect();

    let first = Rc::new(RefCell::new(None));
    let last = Rc::new(RefCell::new(None));
    let layer_handles = || {
        trace.then(|| {
            (
                shard_handles(&cluster),
                cluster.fab.clone(),
                all_nodes(&cluster),
            )
        })
    };
    let hooks = vec![
        (1, mark_hook(first.clone(), layer_handles())),
        (attempted, mark_hook(last.clone(), layer_handles())),
    ];
    let dcfg = DriverConfig {
        warmup_frac: WARMUP_FRAC,
        strict: false,
        window: 1,
    };

    let call_at = Instant::now();
    let report = run_workload_hooked(&mut cluster.sim, &clients, &spec.workload, &dcfg, hooks);
    let returned = Instant::now();
    let hwm_kib = hwm_kib();
    let end_events = cluster.sim.executed_events();
    let end_now = cluster.sim.now();

    let take = |slot: &Rc<RefCell<Option<Mark>>>, what: &str| {
        slot.borrow_mut()
            .take()
            .unwrap_or_else(|| panic!("the {what} measured completion never happened"))
    };
    Outcome {
        first: take(&first, "first"),
        last: take(&last, "last"),
        cluster,
        clients,
        rec,
        report,
        attempted,
        returned,
        process_start,
        build_s,
        clients_s,
        call_at,
        rss_before_kib,
        rss_build_kib,
        rss_clients_kib,
        hwm_kib,
        end_events,
        end_now,
    }
}

impl Outcome {
    /// Process start → first measured completion.
    pub fn setup_s(&self) -> f64 {
        (self.first.at - self.process_start).as_secs_f64()
    }

    /// First measured completion → the driver returns (drain included).
    pub fn run_s(&self) -> f64 {
        (self.returned - self.first.at).as_secs_f64()
    }
}
