//! The shard server: a single-threaded partition owner (§4.1.1).
//!
//! One `ShardServer` models one *shard* process pinned to one core. Clients
//! deposit framed requests into per-connection request buffers with RDMA
//! Writes; the shard's polling loop detects them, executes the operation
//! against its [`ShardEngine`], replicates writes to its secondaries, and
//! RDMA-Writes the framed response back into the client's response buffer.
//!
//! Under the simulator the "polling loop" is event-driven but cost-faithful:
//! request pickup pays the sweep/sleep detection latency, every operation
//! queues on the shard's deficit-round-robin run queue and occupies its core
//! (a [`FifoResource`]) one task at a time, and the optional
//! *pipelined* execution model (§6.2.1 ablation) routes requests through a
//! dispatcher resource plus worker resources with per-request hand-off and
//! synchronization costs — reproducing why decoupling I/O from computation
//! loses when the NIC already moves the data.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::rc::Rc;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use hydra_fabric::{Fabric, NodeId, QpId, RegionId};
use hydra_replication::{replicate_strict, ReplicationPair};
use hydra_sim::time::SimTime;
use hydra_sim::{EventId, FifoResource, Sim};
use hydra_store::{EngineError, HeatSketch, ItemInfo, ShardEngine};
use hydra_wire::{
    for_each_message_mut, frame, scan_items_begin, scan_items_finish, scan_items_push,
    set_backlog_hint, BatchBuilder, BatchFrame, LogOp, RemotePtr, ReplicaPtr, ReplicaSet, Request,
    Response, Status, MAX_EXPORT_PTRS,
};

use crate::config::{ClusterConfig, ExecModel, ReplicationMode, SchedulerKind};
use crate::migration::{ChannelShipments, MigrationState, RecordsByDst};
use crate::ring::ShardId;

/// Buckets in the log2 observability histograms.
pub const HIST_BUCKETS: usize = 16;

/// Distinct request kinds tracked by the per-op queue-depth breakdown
/// (rows of [`ServerStats::queue_depth_hist_by_op`], in [`op_slot`] order).
pub const OP_KINDS: usize = 6;

/// Row index of `req`'s kind in [`ServerStats::queue_depth_hist_by_op`]:
/// Get, Insert, Update, Delete, LeaseRenew, Scan.
pub fn op_slot(req: &Request<'_>) -> usize {
    match req {
        Request::Get { .. } => 0,
        Request::Insert { .. } => 1,
        Request::Update { .. } => 2,
        Request::Delete { .. } => 3,
        Request::LeaseRenew { .. } => 4,
        Request::Scan { .. } => 5,
    }
}

/// Log2 bucket index for a histogram sample (0 stays in bucket 0).
fn log2_bucket(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Largest item count one scan may return inside its quantum: the biggest
/// `C` with `scan_base_ns + C × scan_item_ns ≤ scan_quantum_ns`, floored at
/// 1 so a scan always makes progress. The server truncates longer scans here
/// and sets the response's `more` flag; the client continues from its last
/// received key.
pub fn scan_quantum_items(cfg: &ClusterConfig) -> u32 {
    let c = &cfg.costs;
    (cfg.scan_quantum_ns.saturating_sub(c.scan_base_ns) / c.scan_item_ns.max(1)).max(1) as u32
}

/// Shard-core charge for a scan requesting `limit` items: the descent base
/// plus per-item cost for the items actually served (the quantum cap bounds
/// the count, so for any `limit` the charge never exceeds
/// `scan_quantum_ns` — pinned by `scan_cost_respects_quantum_budget`).
pub fn scan_cost(cfg: &ClusterConfig, limit: u32) -> SimTime {
    let c = &cfg.costs;
    c.scan_base_ns + limit.min(scan_quantum_items(cfg)) as SimTime * c.scan_item_ns
}

/// Operation counters for one shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    pub requests: u64,
    pub gets: u64,
    pub inserts: u64,
    pub updates: u64,
    pub deletes: u64,
    pub lease_renews: u64,
    pub scans: u64,
    pub responses: u64,
    pub dropped_while_dead: u64,
    /// Batch frames executed through the quantum path.
    pub batches: u64,
    /// Requests that arrived inside batch frames (subset of `requests`).
    pub batched_requests: u64,
    /// Log2 histogram of the shard-core queue depth observed at request
    /// arrival (estimated as core backlog divided by this request's cost):
    /// bucket 0 counts arrivals that found the core idle, bucket k counts
    /// arrivals that queued behind ~2^(k-1) requests' worth of work.
    pub queue_depth_hist: [u64; HIST_BUCKETS],
    /// Per-op-kind breakdown of the queue-depth histogram, one row per
    /// [`op_slot`] (Get, Insert, Update, Delete, LeaseRenew, Scan). Sampled
    /// once per *request* on both the singleton and batched paths (the
    /// aggregate histogram keeps its one-sample-per-frame batching), so
    /// scan-induced backlog is distinguishable from point-op backlog.
    pub queue_depth_hist_by_op: [[u64; HIST_BUCKETS]; OP_KINDS],
    /// Per-op-kind log2 histogram of *service time* (sojourn: arrival to
    /// engine completion, ns), one row per [`op_slot`]. This is the server
    /// side of the tail-latency story: queueing plus execution, before the
    /// response travels back.
    pub service_time_hist_by_op: [[u64; HIST_BUCKETS]; OP_KINDS],
    /// Scan chunk grains executed by the run queue (a never-yielded scan
    /// counts its whole dispatch as chunks too).
    pub scan_chunks: u64,
    /// Times a running scan was forced to yield at a chunk boundary because
    /// the latency lane went non-empty.
    pub scan_preemptions: u64,
}

/// A secondary's remotely readable arena, registered with the primary so
/// hot GETs can export replica pointers (read spreading).
pub struct ReplicaExport {
    /// Fabric node hosting the replica (clients open per-node QPs).
    pub node: NodeId,
    /// The replica's registered arena region.
    pub region: RegionId,
    /// The replica engine, peeked at export time for offset/version match
    /// and lease pinning.
    pub engine: Rc<RefCell<ShardEngine>>,
}

/// The shard's skew-resilient read plane: a space-saving heat sketch that
/// identifies the hot key set, plus the replica-export registry used to
/// piggyback replica remote pointers on hot GET responses.
///
/// Consistency of exported pointers rests on three facts, each pinned by a
/// test elsewhere in the tree:
///
/// 1. **Export-time match** — a replica pointer is exported only when the
///    replica holds the key at the *same item version* as the primary, so
///    the pointer refers to exactly the value being returned.
/// 2. **Update invalidation** — applying an update on the replica runs the
///    same `replace_item` path as the primary: the superseded block's
///    guardian flips to `GUARD_DEAD` *immediately*, so every cached pointer
///    to it (client-side, any node) fails validation on its next fetch. The
///    version bits catch the residual ABA (block reused for the same key).
/// 3. **Lease pinning** — the primary pins the replica item's lease to the
///    expiry it granted ([`ShardEngine::pin_lease`]), so replica-side
///    reclamation honours exported leases exactly like local ones.
pub struct ReadPlane {
    heat: HeatSketch,
    exports: Vec<ReplicaExport>,
    spread: bool,
    threshold: u64,
    min_lease_ns: u64,
    /// Log2 histogram of per-key heat-sketch counts observed at GET time:
    /// the read-skew profile actually seen by this shard.
    pub heat_hist: [u64; HIST_BUCKETS],
    /// GET responses that carried a replica set.
    pub exported_sets: u64,
    /// Total replica pointers exported (≤ `exported_sets * MAX_EXPORT_PTRS`).
    pub exported_ptrs: u64,
}

impl ReadPlane {
    /// Builds a read plane; `spread` gates pointer export, the sketch always
    /// runs (it feeds the heat histogram and client-side admission parity).
    pub fn new(sketch_cap: usize, spread: bool, threshold: u64, min_lease_ns: u64) -> ReadPlane {
        ReadPlane {
            heat: HeatSketch::new(sketch_cap),
            exports: Vec::new(),
            spread,
            threshold,
            min_lease_ns: min_lease_ns.max(1),
            heat_hist: [0; HIST_BUCKETS],
            exported_sets: 0,
            exported_ptrs: 0,
        }
    }

    /// A plane that tracks heat but never exports (tests, baselines).
    pub fn disabled() -> ReadPlane {
        ReadPlane::new(16, false, u64::MAX, 1)
    }

    /// Drops every registered export (fail-over re-couples replicas).
    pub fn clear_exports(&mut self) {
        self.exports.clear();
    }

    /// Registers a secondary's arena for read spreading.
    pub fn add_export(&mut self, export: ReplicaExport) {
        self.exports.push(export);
    }

    /// Records one GET against `key` in the sketch; returns whether the key
    /// is confidently hot (count minus sketch error beats the threshold).
    fn note_get(&mut self, key: &[u8]) -> bool {
        let hash = hydra_store::hash_key(key);
        let count = self.heat.touch(hash);
        self.heat_hist[log2_bucket(count)] += 1;
        self.heat.is_hot(hash, self.threshold)
    }

    /// Builds the replica set piggybacked on a hot GET response: one entry
    /// per replica currently holding `key` at the primary's item version,
    /// with the replica's lease pinned to the granted expiry.
    fn export(
        &mut self,
        now: SimTime,
        key: &[u8],
        info: &ItemInfo,
        hot: bool,
    ) -> Option<ReplicaSet> {
        if !self.spread || !hot || self.exports.is_empty() {
            return None;
        }
        let mut set = ReplicaSet::new(info.version);
        // Lease class: granted duration in units of the minimum lease — the
        // client's renewal wheel files longer classes into later buckets.
        let lease_class =
            (info.lease_expiry.saturating_sub(now) / self.min_lease_ns).min(255) as u8;
        for ex in self.exports.iter().take(MAX_EXPORT_PTRS) {
            let mut eng = ex.engine.borrow_mut();
            let Some(rinfo) = eng.peek(key) else { continue };
            if rinfo.version != info.version {
                continue; // replica lags (or ran ahead): not this version
            }
            if !eng.pin_lease(key, info.lease_expiry) {
                continue;
            }
            set.push(ReplicaPtr {
                node: ex.node.0,
                lease_class,
                rptr: RemotePtr::new(ex.region.0, rinfo.off_words * 8, rinfo.read_len),
            });
        }
        self.exported_sets += 1;
        self.exported_ptrs += set.len() as u64;
        Some(set)
    }
}

/// Index of the latency lane (GET / PUT / DELETE / lease traffic) in the
/// run queue; used only under [`SchedulerKind::DualLane`].
const LAT: usize = 0;
/// Index of the throughput lane (scans, batch quanta and migration work;
/// under [`SchedulerKind::Fifo`], every task).
const THR: usize = 1;
/// Deficit-round-robin credit each lane earns per visit (ns of shard-core
/// time). Equal quanta: a saturated shard splits core time evenly between
/// the lanes; either lane may use the full core when the other is idle
/// (DRR is work-conserving).
const LANE_QUANTUM_NS: SimTime = 4_000;

/// In-engine state of a scan executing in preemptible chunks: the response
/// accumulates across chunk executions and the cursor tracks the next key,
/// so a yielded scan resumes exactly where it stopped and the final wire
/// frame (items, `more` flag, count) is identical to an uninterrupted scan
/// over a quiescent engine.
struct ScanTask {
    conn_idx: usize,
    req_id: u64,
    /// Next key to walk from (original start, then `last_key + 0x00`).
    cursor: Vec<u8>,
    /// Items still allowed (starts at `limit.min(scan_quantum_items)`).
    remaining: u32,
    /// Items already packed into `buf` by earlier chunks.
    served: u32,
    /// Accumulated packed-items payload (`scan_items_begin` applied).
    buf: Vec<u8>,
    arrived: SimTime,
}

/// Deferred migration work executed once its shard-core charge has been
/// paid (a snapshot/catch-up/drain quantum, or an inbound record batch).
pub(crate) type MigWork = Box<dyn FnOnce(&Rc<RefCell<ShardServer>>, &mut Sim)>;

/// One unit of work queued on a lane. The shard-core cost rides alongside
/// in the lane deque (it is fixed at enqueue time).
enum LaneTask {
    /// A singleton point op (anything but SCAN), executed via [`ShardServer::execute`].
    Point {
        conn_idx: usize,
        payload: Vec<u8>,
        arrived: SimTime,
    },
    /// A whole batch frame, executed via [`ShardServer::execute_batch`].
    Batch {
        conn_idx: usize,
        payload: Vec<u8>,
        arrived: SimTime,
    },
    /// A singleton scan, executed in preemptible chunks.
    Scan(ScanTask),
    /// A point op that already executed at dispatch (a group-commit write
    /// whose replication ship overlaps the modeled merge): the completion
    /// event only frees the core.
    Executed,
    /// A migration quantum or inbound record batch (throughput lane: data
    /// movement shares bandwidth with scans and never blocks point ops).
    Mig(MigWork),
}

/// The task currently occupying the shard core (at most one at a time;
/// lanes queue behind it).
struct Running {
    /// Completion (or, once preempted, yield-boundary) event.
    ev: EventId,
    start: SimTime,
    end: SimTime,
    /// Service time before the first item grain of this dispatch (scan
    /// descent or resume cost plus fixed per-op overheads); chunk boundaries
    /// step from `start + head_ns`.
    head_ns: SimTime,
    /// Set when a yield is armed: items this dispatch will have served by
    /// the boundary. Also marks the dispatch non-preemptible (one yield per
    /// dispatch; the remainder re-queues and can be preempted again there).
    yield_items: Option<u32>,
    task: LaneTask,
}

/// Deficit-round-robin dual-lane run queue (§ tail-latency isolation), the
/// one dispatch path of a single-threaded shard. Under
/// [`SchedulerKind::DualLane`] the latency lane holds point ops and the
/// throughput lane scans, batch quanta and migration work; under
/// [`SchedulerKind::Fifo`] every task rides the throughput lane, which then
/// serves in arrival order and never preempts. Each lane earns
/// [`LANE_QUANTUM_NS`] of credit per visit and serves its FIFO head while
/// the credit lasts, so point ops are isolated from scan/batch head-of-line
/// blocking while the throughput lane keeps an equal bandwidth share. Tasks
/// are dispatched one at a time onto the shard core; queued tasks live
/// here, not in the core's reservation queue, which is what makes scan
/// preemption (releasing the core's reserved tail) possible.
#[derive(Default)]
struct DualLaneSched {
    lanes: [VecDeque<(LaneTask, SimTime)>; 2],
    /// Sum of queued (undispatched) costs per lane — the scheduler's share
    /// of the backlog hint.
    queued_ns: [SimTime; 2],
    deficit: [SimTime; 2],
    current: usize,
    running: Option<Running>,
    /// A detection-latency pump is armed (arrival found the shard fully
    /// idle); further arrivals queue behind it instead of re-arming.
    pump_armed: bool,
}

impl DualLaneSched {
    /// Whether the shard is fully idle from the scheduler's point of view:
    /// nothing running, nothing queued, no detection pump pending.
    fn is_idle(&self) -> bool {
        self.running.is_none()
            && self.lanes[LAT].is_empty()
            && self.lanes[THR].is_empty()
            && !self.pump_armed
    }

    /// Total undispatched backlog across both lanes, in ns of shard-core time.
    fn queued_total(&self) -> SimTime {
        self.queued_ns[LAT] + self.queued_ns[THR]
    }

    fn enqueue(&mut self, lane: usize, task: LaneTask, cost: SimTime) {
        self.queued_ns[lane] += cost;
        self.lanes[lane].push_back((task, cost));
    }

    /// Re-queues a yielded scan remainder at the *front* of its lane: it
    /// already consumed throughput-lane credit, so it goes next when the
    /// lane is served again.
    fn push_front(&mut self, lane: usize, task: LaneTask, cost: SimTime) {
        self.queued_ns[lane] += cost;
        self.lanes[lane].push_front((task, cost));
    }

    /// DRR pick: serves the current lane's FIFO head while its deficit
    /// lasts, crediting [`LANE_QUANTUM_NS`] and rotating otherwise. Deficits
    /// reset when the queue fully drains, so an idle period never banks
    /// credit.
    fn next(&mut self) -> Option<(LaneTask, SimTime)> {
        if self.lanes[LAT].is_empty() && self.lanes[THR].is_empty() {
            self.deficit = [0; 2];
            return None;
        }
        loop {
            let lane = self.current;
            match self.lanes[lane].front() {
                None => {
                    self.deficit[lane] = 0;
                    self.current ^= 1;
                }
                Some((_, cost)) if self.deficit[lane] >= *cost => {
                    let (task, cost) = self.lanes[lane].pop_front().expect("non-empty head");
                    self.deficit[lane] -= cost;
                    self.queued_ns[lane] = self.queued_ns[lane].saturating_sub(cost);
                    return Some((task, cost));
                }
                Some(_) => {
                    self.deficit[lane] += LANE_QUANTUM_NS;
                    self.current ^= 1;
                }
            }
        }
    }

    /// Drops everything queued (shard crashed); returns the task count.
    fn clear_queued(&mut self) -> u64 {
        let n = (self.lanes[LAT].len() + self.lanes[THR].len()) as u64;
        self.lanes[LAT].clear();
        self.lanes[THR].clear();
        self.queued_ns = [0; 2];
        self.deficit = [0; 2];
        n
    }
}

/// Ownership checks consulted by the execution kernels while a migration is
/// installed on the shard. `wrong_owner` yields the directory generation for
/// a wire-level redirect when the *live* ring routes the key elsewhere (a
/// stale client pointer landed here after the flip); `owns` filters scan
/// items so moved-in copies stay invisible before the flip and moved-out
/// copies become invisible at it.
pub struct OwnershipGate<'g> {
    pub wrong_owner: &'g dyn Fn(&[u8]) -> Option<u64>,
    pub owns: &'g dyn Fn(&[u8]) -> bool,
}

/// Runs `f` under the ownership gate for `mig` (or with no gate when the
/// shard is not participating in a migration). The gate is self-deactivating:
/// it consults the live ring, so once a completed plan's ring is in place it
/// passes every key the shard owns.
pub(crate) fn with_gate<R>(
    mig: Option<&Rc<RefCell<MigrationState>>>,
    f: impl FnOnce(Option<&OwnershipGate<'_>>) -> R,
) -> R {
    match mig {
        Some(m) => {
            let wrong_owner = |k: &[u8]| m.borrow().wrong_owner(k);
            let owns = |k: &[u8]| m.borrow().owns(k);
            let gate = OwnershipGate {
                wrong_owner: &wrong_owner,
                owns: &owns,
            };
            f(Some(&gate))
        }
        None => f(None),
    }
}

/// Applies one decoded request to `engine`, appending the encoded response
/// to `out`. Returns the replication action for successful writes.
///
/// This is the single execution kernel shared by the singleton path and the
/// batched quantum path, so batched execution is behaviourally identical by
/// construction; the batched-vs-sequential property test in `tests/` pins
/// that down. `scratch` is the reused GET value buffer; `scan_cap` bounds
/// the items one SCAN may return (its quantum, [`scan_quantum_items`]) and
/// `scan_buf` is the reused packed-items response buffer. The returned
/// slices borrow from the request payload, never from the engine.
#[allow(clippy::too_many_arguments)]
pub fn apply_request<'a>(
    engine: &mut ShardEngine,
    now: SimTime,
    req: &Request<'a>,
    arena_region: RegionId,
    scratch: &mut Vec<u8>,
    scan_cap: u32,
    scan_buf: &mut Vec<u8>,
    plane: &mut ReadPlane,
    gate: Option<&OwnershipGate<'_>>,
    out: &mut Vec<u8>,
) -> Option<(LogOp, &'a [u8], &'a [u8])> {
    let req_id = req.req_id();
    let err_status = |e: EngineError| match e {
        EngineError::Exists => Status::Exists,
        EngineError::NotFound => Status::NotFound,
        _ => Status::Error,
    };
    if let Some(g) = gate {
        let keyed = match req {
            Request::Get { key, .. }
            | Request::Insert { key, .. }
            | Request::Update { key, .. }
            | Request::Delete { key, .. } => Some(*key),
            _ => None,
        };
        if let Some(k) = keyed {
            if let Some(generation) = (g.wrong_owner)(k) {
                Response::wrong_owner(req_id, generation).encode_into(out);
                return None;
            }
        }
    }
    match req {
        Request::Get { key, .. } => {
            match engine.get_into(now, key, scratch) {
                Some(info) => {
                    let hot = plane.note_get(key);
                    let replicas = plane.export(now, key, &info, hot);
                    Response {
                        status: Status::Ok,
                        req_id,
                        value: scratch,
                        rptr: RemotePtr::new(arena_region.0, info.off_words * 8, info.read_len),
                        lease_expiry: info.lease_expiry,
                        replicas,
                    }
                    .encode_into(out)
                }
                None => {
                    plane.note_get(key);
                    Response::status_only(Status::NotFound, req_id).encode_into(out)
                }
            }
            None
        }
        Request::Insert { key, value, .. } => match engine.insert(now, key, value) {
            Ok(_) => {
                Response::status_only(Status::Ok, req_id).encode_into(out);
                Some((LogOp::Put, *key, *value))
            }
            Err(e) => {
                Response::status_only(err_status(e), req_id).encode_into(out);
                None
            }
        },
        Request::Update { key, value, .. } => match engine.update(now, key, value) {
            Ok(_) => {
                Response::status_only(Status::Ok, req_id).encode_into(out);
                Some((LogOp::Put, *key, *value))
            }
            Err(e) => {
                Response::status_only(err_status(e), req_id).encode_into(out);
                None
            }
        },
        Request::Delete { key, .. } => match engine.delete(now, key) {
            Ok(()) => {
                Response::status_only(Status::Ok, req_id).encode_into(out);
                Some((LogOp::Delete, *key, &[][..]))
            }
            Err(e) => {
                Response::status_only(err_status(e), req_id).encode_into(out);
                None
            }
        },
        Request::LeaseRenew { keys, .. } => {
            for k in keys.iter() {
                // A moved-away key's lease is not renewable here; the next
                // point op on it earns the redirect.
                if gate.is_none_or(|g| (g.owns)(k)) {
                    engine.renew_lease(now, k);
                }
            }
            Response::status_only(Status::Ok, req_id).encode_into(out);
            None
        }
        Request::Scan { start, limit, .. } => {
            // Read-only: walk the ordered index from `start`, pack up to
            // `min(limit, scan_cap)` items, and flag truncation so the
            // client can continue from its last key. The cap is the scan
            // quantum — a long range never occupies the core past its
            // budget.
            let cap = (*limit).min(scan_cap);
            scan_items_begin(scan_buf);
            let mut count: u32 = 0;
            let exhausted = engine.scan_into(start, scratch, |k, v| {
                if count == cap {
                    return false;
                }
                if gate.is_some_and(|g| !(g.owns)(k)) {
                    return true; // not ours under the live ring: skip
                }
                scan_items_push(scan_buf, k, v);
                count += 1;
                true
            });
            scan_items_finish(scan_buf, !exhausted, count);
            Response {
                status: Status::Ok,
                req_id,
                value: scan_buf,
                rptr: RemotePtr::none(),
                lease_expiry: 0,
                replicas: None,
            }
            .encode_into(out);
            None
        }
    }
}

/// Replication records produced by a batch: one `(op, key, value)` triple
/// per successful write, borrowing the request payloads.
pub type ReplRecords<'a> = Vec<(LogOp, &'a [u8], &'a [u8])>;

/// Per-kind operation counts accumulated by [`run_batch`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BatchOpCounts {
    pub gets: u64,
    pub inserts: u64,
    pub updates: u64,
    pub deletes: u64,
    pub lease_renews: u64,
    pub scans: u64,
}

/// Executes a decoded batch against `engine`, packing the responses into
/// `builder` (cleared by the caller) in request order. Maximal runs of GETs
/// probe the index interleaved ([`ShardEngine::get_batch_into`]); everything
/// else goes through [`apply_request`], so a batch is behaviourally identical
/// to executing its requests sequentially. Returns the replication records
/// for successful writes (borrowing the request payloads) plus op counts.
#[allow(clippy::too_many_arguments)]
pub fn run_batch<'a>(
    engine: &mut ShardEngine,
    now: SimTime,
    reqs: &[Request<'a>],
    arena_region: RegionId,
    scratch: &mut Vec<u8>,
    scan_cap: u32,
    scan_buf: &mut Vec<u8>,
    plane: &mut ReadPlane,
    gate: Option<&OwnershipGate<'_>>,
    builder: &mut BatchBuilder,
) -> (ReplRecords<'a>, BatchOpCounts) {
    let mut repl: ReplRecords<'_> = Vec::new();
    let mut counts = BatchOpCounts::default();
    let mut i = 0;
    while i < reqs.len() {
        // A key the live ring routes elsewhere answers with a redirect,
        // bypassing the engine (mirrors the gate in [`apply_request`]).
        if let Some(g) = gate {
            let keyed = match &reqs[i] {
                Request::Get { key, .. }
                | Request::Insert { key, .. }
                | Request::Update { key, .. }
                | Request::Delete { key, .. } => Some(*key),
                _ => None,
            };
            if let Some(generation) = keyed.and_then(|k| (g.wrong_owner)(k)) {
                let req_id = reqs[i].req_id();
                builder.push_with(|out| Response::wrong_owner(req_id, generation).encode_into(out));
                match &reqs[i] {
                    Request::Get { .. } => counts.gets += 1,
                    Request::Insert { .. } => counts.inserts += 1,
                    Request::Update { .. } => counts.updates += 1,
                    Request::Delete { .. } => counts.deletes += 1,
                    _ => unreachable!("only keyed ops are gated"),
                }
                i += 1;
                continue;
            }
        }
        if matches!(reqs[i], Request::Get { .. }) {
            // Maximal GET run: probe interleaved, emit in order. A gated
            // key ends the run (the next iteration redirects it).
            let mut j = i;
            while j < reqs.len() {
                let Request::Get { key, .. } = &reqs[j] else {
                    break;
                };
                if j > i && gate.is_some_and(|g| (g.wrong_owner)(key).is_some()) {
                    break;
                }
                j += 1;
            }
            let keys: Vec<&[u8]> = reqs[i..j]
                .iter()
                .map(|r| match r {
                    Request::Get { key, .. } => *key,
                    _ => unreachable!("run holds only GETs"),
                })
                .collect();
            let req_ids: Vec<u64> = reqs[i..j].iter().map(|r| r.req_id()).collect();
            engine.get_batch_into(now, &keys, scratch, |k, info, val| match info {
                Some(info) => {
                    let hot = plane.note_get(keys[k]);
                    let replicas = plane.export(now, keys[k], &info, hot);
                    builder.push_with(|out| {
                        Response {
                            status: Status::Ok,
                            req_id: req_ids[k],
                            value: val,
                            rptr: RemotePtr::new(arena_region.0, info.off_words * 8, info.read_len),
                            lease_expiry: info.lease_expiry,
                            replicas,
                        }
                        .encode_into(out)
                    })
                }
                None => {
                    plane.note_get(keys[k]);
                    builder.push_with(|out| {
                        Response::status_only(Status::NotFound, req_ids[k]).encode_into(out)
                    })
                }
            });
            counts.gets += (j - i) as u64;
            i = j;
        } else {
            let req = &reqs[i];
            let mut action = None;
            builder.push_with(|out| {
                action = apply_request(
                    engine,
                    now,
                    req,
                    arena_region,
                    scratch,
                    scan_cap,
                    scan_buf,
                    plane,
                    gate,
                    out,
                );
            });
            if let Some(a) = action {
                repl.push(a);
            }
            match req {
                Request::Get { .. } => unreachable!("handled by the run path"),
                Request::Insert { .. } => counts.inserts += 1,
                Request::Update { .. } => counts.updates += 1,
                Request::Delete { .. } => counts.deletes += 1,
                Request::LeaseRenew { .. } => counts.lease_renews += 1,
                Request::Scan { .. } => counts.scans += 1,
            }
            i += 1;
        }
    }
    (repl, counts)
}

/// One client connection as seen by the server.
pub(crate) struct ServerConn {
    pub qp: QpId,
    /// Request buffer (registered on the server's node). Unused in
    /// Send/Recv mode.
    pub req_mem: Arc<[AtomicU64]>,
    /// The client's response buffer region (on the client's node).
    pub resp_region: RegionId,
    /// Invoked after the response write is delivered — the client's
    /// polling-loop kick.
    pub client_kick: Rc<dyn Fn(&mut Sim)>,
    /// Whether this connection runs the two-sided Send/Recv protocol
    /// (the §6.2 baseline) instead of RDMA-Write message passing.
    pub send_recv: bool,
}

/// A shard server instance. Wrapped in `Rc<RefCell<..>>` by the cluster.
pub struct ShardServer {
    pub id: ShardId,
    pub node: NodeId,
    pub engine: Rc<RefCell<ShardEngine>>,
    /// The arena registered for one-sided client reads.
    pub arena_region: RegionId,
    pub(crate) cfg: Rc<ClusterConfig>,
    /// Shard core (single-threaded model) or dispatcher (pipelined model).
    cpu: FifoResource,
    /// Worker cores (pipelined model only).
    workers: Vec<FifoResource>,
    pub(crate) conns: Vec<ServerConn>,
    /// Replication channels to this shard's secondaries.
    pub(crate) repl: Vec<ReplicationPair>,
    pub alive: bool,
    fab: Fabric,
    stats: ServerStats,
    /// Instants with an armed reclamation pump, at most one pump each (lazy
    /// GC scheduling).
    reclaim_armed: BTreeSet<SimTime>,
    /// Reused GET value buffer — steady-state GETs allocate nothing for the
    /// value copy.
    get_scratch: Vec<u8>,
    /// Reused packed-items buffer for SCAN responses — steady-state scans
    /// allocate nothing for item assembly.
    scan_scratch: Vec<u8>,
    /// Reused response-batch builder for the quantum path.
    resp_batch: BatchBuilder,
    /// Heat tracking + replica pointer export (read spreading).
    plane: ReadPlane,
    /// DRR run queue: every arrival under the single-threaded execution
    /// model, whatever `cfg.scheduler` (which only picks the lanes); empty
    /// under the decoupled ablations.
    sched: DualLaneSched,
    /// Live-migration bookkeeping while this shard participates in a plan
    /// (source or destination); provides the ownership gate and the
    /// double-write forwarding hook. Carried across fail-over by promotion.
    pub(crate) mig: Option<Rc<RefCell<MigrationState>>>,
}

impl ShardServer {
    /// Creates a shard bound to `node`, registering its arena with the
    /// fabric.
    pub fn new(
        id: ShardId,
        node: NodeId,
        fab: &Fabric,
        cfg: Rc<ClusterConfig>,
    ) -> Rc<RefCell<ShardServer>> {
        let engine = Rc::new(RefCell::new(ShardEngine::new(hydra_store::EngineConfig {
            arena_words: cfg.arena_words,
            expected_items: cfg.expected_items,
            index: cfg.index,
            write_mode: cfg.write_mode,
            min_lease_ns: cfg.min_lease_ns,
            max_lease_ns: cfg.max_lease_ns,
        })));
        let arena_region = fab.register_paged(node, engine.borrow().memory(), cfg.page_bytes);
        let workers = match cfg.exec_model {
            ExecModel::SingleThreaded => Vec::new(),
            ExecModel::Pipelined { workers } => (0..workers)
                .map(|w| FifoResource::new(format!("shard{}.worker{}", id.0, w)))
                .collect(),
            ExecModel::SubSharded { subs } => (0..subs)
                .map(|w| FifoResource::new(format!("shard{}.sub{}", id.0, w)))
                .collect(),
        };
        let plane = ReadPlane::new(
            cfg.heat_sketch_cap,
            cfg.replica_read_spread,
            cfg.hot_read_threshold,
            cfg.min_lease_ns,
        );
        Rc::new(RefCell::new(ShardServer {
            id,
            node,
            engine,
            arena_region,
            cfg,
            cpu: FifoResource::new(format!("shard{}.core", id.0)),
            workers,
            conns: Vec::new(),
            repl: Vec::new(),
            alive: true,
            fab: fab.clone(),
            stats: ServerStats::default(),
            reclaim_armed: BTreeSet::new(),
            get_scratch: Vec::new(),
            scan_scratch: Vec::new(),
            resp_batch: BatchBuilder::new(),
            plane,
            sched: DualLaneSched::default(),
            mig: None,
        }))
    }

    /// Attaches a replication channel to a secondary.
    pub fn add_replica(&mut self, pair: ReplicationPair) {
        self.repl.push(pair);
    }

    /// Registers a secondary's arena for hot-key pointer export.
    pub fn add_replica_export(&mut self, export: ReplicaExport) {
        self.plane.add_export(export);
    }

    /// Drops all registered exports (fail-over re-couples the group).
    pub fn clear_replica_exports(&mut self) {
        self.plane.clear_exports();
    }

    /// The read-skew histogram observed by this shard (log2 buckets of
    /// per-key sketch counts at GET time).
    pub fn read_heat_hist(&self) -> [u64; HIST_BUCKETS] {
        self.plane.heat_hist
    }

    /// (responses carrying a replica set, total replica pointers exported).
    pub fn export_counters(&self) -> (u64, u64) {
        (self.plane.exported_sets, self.plane.exported_ptrs)
    }

    /// Registers a client connection; returns its index (used by the
    /// client's kick closures).
    pub(crate) fn add_conn(&mut self, conn: ServerConn) -> usize {
        self.conns.push(conn);
        self.conns.len() - 1
    }

    /// Operation counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Utilization of the shard core over the window since reset.
    pub fn cpu_utilization(&self, now: SimTime) -> f64 {
        self.cpu.utilization(now)
    }

    /// Restarts CPU accounting (after warm-up).
    pub fn reset_cpu_window(&mut self, now: SimTime) {
        self.cpu.reset_window(now);
        for w in &mut self.workers {
            w.reset_window(now);
        }
    }

    /// Engine cost of `req` alone (no detection/post overhead).
    fn base_cost(&self, req: &Request<'_>) -> SimTime {
        let c = &self.cfg.costs;
        match req {
            Request::Get { .. } => c.get_ns,
            Request::Insert { value, .. } | Request::Update { value, .. } => {
                c.write_ns + (value.len() as f64 * c.per_byte_ns).round() as SimTime
            }
            Request::Delete { .. } => c.delete_ns,
            Request::LeaseRenew { keys, .. } => c.get_ns / 2 * keys.len().max(1) as SimTime,
            Request::Scan { limit, .. } => scan_cost(&self.cfg, *limit),
        }
    }

    /// Per-op receive-queue surcharge: two-sided transports make the server
    /// CPU shepherd every message through the receive queue (§4.2.1 / HERD).
    fn recv_surcharge(&self, send_recv: bool) -> SimTime {
        if send_recv {
            self.cfg.costs.recv_cpu_ns
        } else {
            0
        }
    }

    /// CPU-cost of serving `req` on the singleton path: the op itself plus
    /// one polling-sweep step and one response verb post.
    fn op_cost(&self, req: &Request<'_>, send_recv: bool) -> SimTime {
        let c = &self.cfg.costs;
        self.base_cost(req) + c.poll_ns + c.post_wqe_ns + self.recv_surcharge(send_recv)
    }

    /// CPU-cost of one request executed inside a batch quantum. The fixed
    /// per-frame work (one sweep step, one response WQE for the whole
    /// frame) is charged once by the caller; batched GETs probe the index
    /// interleaved, overlapping their cache misses, and batched writes
    /// likewise overlap their probe/allocation misses (value copies stay
    /// serial).
    fn batch_item_cost(&self, req: &Request<'_>, send_recv: bool) -> SimTime {
        let c = &self.cfg.costs;
        let base = match req {
            Request::Get { .. } => (c.get_ns as f64 * c.batch_probe_factor).round() as SimTime,
            Request::Insert { value, .. } | Request::Update { value, .. } => {
                (c.write_ns as f64 * c.batch_write_factor).round() as SimTime
                    + (value.len() as f64 * c.per_byte_ns).round() as SimTime
            }
            _ => self.base_cost(req),
        };
        base + self.recv_surcharge(send_recv)
    }

    /// Entry point for RDMA-Write mode: a request frame has landed in
    /// connection `conn_idx`'s buffer. Polls it out and schedules processing.
    pub fn on_request(this: &Rc<RefCell<ShardServer>>, sim: &mut Sim, conn_idx: usize) {
        let payload = {
            let mut s = this.borrow_mut();
            if !s.alive {
                s.stats.dropped_while_dead += 1;
                return;
            }
            let conn = &s.conns[conn_idx];
            match frame::poll_message(&conn.req_mem) {
                Ok(Some(p)) => {
                    frame::consume_message(&conn.req_mem, p.len());
                    p
                }
                Ok(None) => return, // spurious kick (already drained)
                Err(e) => panic!("corrupt request frame: {e}"),
            }
        };
        Self::on_request_payload(this, sim, conn_idx, payload);
    }

    /// Entry point for Send/Recv mode (payload arrives through the verbs
    /// receive queue) and the common scheduling path.
    pub fn on_request_payload(
        this: &Rc<RefCell<ShardServer>>,
        sim: &mut Sim,
        conn_idx: usize,
        payload: Vec<u8>,
    ) {
        if BatchFrame::is_batch(&payload) {
            Self::on_batch_payload(this, sim, conn_idx, payload);
            return;
        }
        if this.borrow().single_threaded() {
            Self::on_single(this, sim, conn_idx, payload);
            return;
        }
        // The decoupled execution ablations (§6.2.1): a dispatcher resource
        // hands requests to worker (or sub-shard) resources.
        let (done_at, arrived) = {
            let mut s = this.borrow_mut();
            if !s.alive {
                s.stats.dropped_while_dead += 1;
                return;
            }
            let req = Request::decode(&payload).expect("well-formed request");
            let send_recv = s.conns[conn_idx].send_recv;
            let cost = s.op_cost(&req, send_recv);
            s.stats.requests += 1;
            // Queue depth at arrival ≈ core backlog over this request's cost.
            let backlog = s.cpu.free_at().saturating_sub(sim.now());
            let depth_bucket = log2_bucket(backlog / cost.max(1));
            s.stats.queue_depth_hist[depth_bucket] += 1;
            s.stats.queue_depth_hist_by_op[op_slot(&req)][depth_bucket] += 1;
            // Detection latency: when the core is idle, the sweep position
            // and the sleep backoff determine how fast the shard notices the
            // write; when busy, the queueing delay dominates and detection is
            // free (the loop re-polls right after finishing).
            let now = sim.now();
            let mut arrival = now;
            if s.cpu.idle_at(now) {
                let sweep = s.cfg.costs.poll_ns * (s.conns.len() as u64 / 2);
                let sleep = s.cfg.sleep_backoff_ns.unwrap_or(0) / 2;
                arrival += sweep + sleep;
            }
            let done_at = match s.cfg.exec_model {
                ExecModel::SingleThreaded => unreachable!("served by the run queue"),
                ExecModel::Pipelined { .. } => {
                    let costs = &s.cfg.costs;
                    let mutation = cost.saturating_sub(costs.get_ns + costs.poll_ns);
                    let serial = costs.dispatch_ns
                        + (costs.pipeline_mutation_factor * mutation as f64).round() as SimTime;
                    let sync = costs.sync_ns;
                    let dispatched = s.cpu.acquire(arrival, serial);
                    let worker = s
                        .workers
                        .iter_mut()
                        .min_by_key(|w| w.free_at())
                        .expect("pipelined model has workers");
                    worker.acquire(dispatched + sync, cost)
                }
                ExecModel::SubSharded { subs } => {
                    // The connection-owning thread pays only the poll +
                    // route cost; sub-shards are keyed, not load-balanced
                    // (they own disjoint partitions).
                    let route = s.cfg.costs.poll_ns + s.cfg.costs.subshard_handoff_ns;
                    let routed = s.cpu.acquire(arrival, route);
                    let key_hash = match &req {
                        Request::Get { key, .. }
                        | Request::Insert { key, .. }
                        | Request::Update { key, .. }
                        | Request::Delete { key, .. } => hydra_store::hash_key(key),
                        Request::LeaseRenew { keys, .. } => {
                            keys.iter().next().map(hydra_store::hash_key).unwrap_or(0)
                        }
                        // Scans route by start key: cost accounting only —
                        // every sub-shard sees the same engine.
                        Request::Scan { start, .. } => hydra_store::hash_key(start),
                    };
                    let sub = (key_hash % subs as u64) as usize;
                    s.workers[sub].acquire(routed, cost)
                }
            };
            (done_at, now)
        };
        let this2 = this.clone();
        sim.schedule_at(done_at, move |sim| {
            Self::execute(&this2, sim, conn_idx, payload, arrived, done_at);
        });
    }

    /// Whether this singleton payload is a write whose execution can start
    /// at its core slot's *start* with the response gated on the slot's
    /// end: under group commit the replication WQE is posted as the local
    /// merge begins, so the record's flight and the cumulative ack overlap
    /// the modeled merge time instead of queueing behind it. Same-shard
    /// requests still serialize on the core — no other execution lands
    /// inside the slot — and the write's linearization point stays within
    /// its invocation-response window, so the early mutation is
    /// observationally equivalent.
    fn overlap_exec(&self, payload: &[u8]) -> bool {
        matches!(self.cfg.replication, ReplicationMode::GroupCommit)
            && !self.repl.is_empty()
            && matches!(
                Request::decode(payload),
                Some(Request::Insert { .. } | Request::Update { .. } | Request::Delete { .. })
            )
    }

    /// Whether this shard serves every arrival through its DRR run queue
    /// (the single-threaded execution model; the §6.2.1 decoupled ablations
    /// keep their own dispatch paths).
    fn single_threaded(&self) -> bool {
        matches!(self.cfg.exec_model, ExecModel::SingleThreaded)
    }

    /// Run-queue arrival path for singleton requests: classify into a lane,
    /// account arrival stats, and kick the scheduler. Scans ride the
    /// throughput lane; point ops ride the latency lane under
    /// [`SchedulerKind::DualLane`] (preempting a running scan at its next
    /// chunk boundary) and the throughput lane under [`SchedulerKind::Fifo`],
    /// whose one lane serves everything in arrival order.
    fn on_single(
        this: &Rc<RefCell<ShardServer>>,
        sim: &mut Sim,
        conn_idx: usize,
        payload: Vec<u8>,
    ) {
        let now = sim.now();
        let (lane, task, cost) = {
            let mut s = this.borrow_mut();
            if !s.alive {
                s.stats.dropped_while_dead += 1;
                return;
            }
            let send_recv = s.conns[conn_idx].send_recv;
            let (cost, slot, scan) = {
                let req = Request::decode(&payload).expect("well-formed request");
                let scan = match &req {
                    Request::Scan {
                        req_id,
                        start,
                        limit,
                    } => Some((*req_id, start.to_vec(), *limit)),
                    _ => None,
                };
                (s.op_cost(&req, send_recv), op_slot(&req), scan)
            };
            s.stats.requests += 1;
            // Queue depth at arrival: core backlog (running task) plus both
            // lanes' undispatched work, over this request's cost.
            let backlog = s.cpu.free_at().saturating_sub(now) + s.sched.queued_total();
            let depth_bucket = log2_bucket(backlog / cost.max(1));
            s.stats.queue_depth_hist[depth_bucket] += 1;
            s.stats.queue_depth_hist_by_op[slot][depth_bucket] += 1;
            match scan {
                Some((req_id, cursor, limit)) => {
                    let mut buf = Vec::new();
                    scan_items_begin(&mut buf);
                    let task = LaneTask::Scan(ScanTask {
                        conn_idx,
                        req_id,
                        cursor,
                        remaining: limit.min(scan_quantum_items(&s.cfg)),
                        served: 0,
                        buf,
                        arrived: now,
                    });
                    (THR, task, cost)
                }
                None => {
                    let task = LaneTask::Point {
                        conn_idx,
                        payload,
                        arrived: now,
                    };
                    let lane = match s.cfg.scheduler {
                        SchedulerKind::DualLane => LAT,
                        SchedulerKind::Fifo => THR,
                    };
                    (lane, task, cost)
                }
            }
        };
        Self::enqueue(this, sim, lane, task, cost);
    }

    /// Queues a task on `lane` and kicks the scheduler: a fully idle shard
    /// pays the detection latency (sweep position + sleep backoff) via an
    /// armed pump; a busy shard just queues — the completion event re-pumps
    /// for free, as the polling loop re-polls right after finishing.
    /// Latency-lane arrivals additionally force a running scan to its next
    /// chunk boundary.
    fn enqueue(
        this: &Rc<RefCell<ShardServer>>,
        sim: &mut Sim,
        lane: usize,
        task: LaneTask,
        cost: SimTime,
    ) {
        let now = sim.now();
        let armed_at = {
            let mut s = this.borrow_mut();
            let idle = s.sched.is_idle() && s.cpu.idle_at(now);
            s.sched.enqueue(lane, task, cost);
            if idle {
                s.sched.pump_armed = true;
                let sweep = s.cfg.costs.poll_ns * (s.conns.len() as u64 / 2);
                let sleep = s.cfg.sleep_backoff_ns.unwrap_or(0) / 2;
                Some(now + sweep + sleep)
            } else {
                if lane == LAT {
                    Self::preempt_running_scan(&mut s, sim, now, this);
                }
                None
            }
        };
        if let Some(at) = armed_at {
            let this2 = this.clone();
            sim.schedule_at(at, move |sim| {
                this2.borrow_mut().sched.pump_armed = false;
                Self::pump(&this2, sim);
            });
        }
    }

    /// If the task occupying the core is a not-yet-preempted scan, truncate
    /// its reservation at the next chunk boundary at or after `now` and
    /// re-aim its event there: the covered chunks execute at the boundary,
    /// the remainder re-queues, and the freed tail serves the latency lane.
    fn preempt_running_scan(
        s: &mut ShardServer,
        sim: &mut Sim,
        now: SimTime,
        this: &Rc<RefCell<ShardServer>>,
    ) {
        let Some(mut r) = s.sched.running.take() else {
            return;
        };
        if matches!(r.task, LaneTask::Scan(_)) && r.yield_items.is_none() {
            let chunk_items = s.cfg.scan_chunk_items.max(1) as u64;
            let chunk_ns = chunk_items * s.cfg.costs.scan_item_ns.max(1);
            let head_end = r.start + r.head_ns;
            // Smallest whole-chunk boundary at or after the arrival (at
            // least one chunk completes per dispatch, so a scan always
            // makes progress).
            let k = if now <= head_end {
                1
            } else {
                (now - head_end).div_ceil(chunk_ns).max(1)
            };
            let boundary = head_end + k * chunk_ns;
            // A boundary at or past the dispatch end means the scan is
            // nearly done: let it finish (k × chunk ≥ remaining items).
            if boundary < r.end {
                sim.cancel(r.ev);
                s.cpu.preempt_tail(boundary);
                s.stats.scan_preemptions += 1;
                r.end = boundary;
                r.yield_items = Some((k * chunk_items) as u32);
                let this2 = this.clone();
                r.ev = sim.schedule_at(boundary, move |sim| {
                    Self::on_scan_yield(&this2, sim);
                });
            }
        }
        s.sched.running = Some(r);
    }

    /// Dispatches the next DRR pick onto the (idle) shard core. At most one
    /// task runs at a time; its completion event executes it and re-pumps.
    fn pump(this: &Rc<RefCell<ShardServer>>, sim: &mut Sim) {
        let mut s = this.borrow_mut();
        if s.sched.running.is_some() {
            return;
        }
        if !s.alive {
            let dropped = s.sched.clear_queued();
            s.stats.dropped_while_dead += dropped;
            return;
        }
        let Some((task, cost)) = s.sched.next() else {
            return;
        };
        let now = sim.now();
        let done = s.cpu.acquire(now, cost);
        let head_ns = match &task {
            LaneTask::Scan(t) => {
                cost.saturating_sub(t.remaining as SimTime * s.cfg.costs.scan_item_ns)
            }
            _ => 0,
        };
        let this2 = this.clone();
        let ev = sim.schedule_at(done, move |sim| {
            Self::on_task_complete(&this2, sim);
        });
        // A group-commit write posts its replication WQE as the merge
        // starts: execute at dispatch (the mutation is synchronous, so the
        // log record only ships for a write that succeeded) and gate the
        // response on the slot's end, letting the record's flight and the
        // cumulative ack overlap the modeled merge time.
        let (task, early) = match task {
            LaneTask::Point {
                conn_idx,
                payload,
                arrived,
            } if s.overlap_exec(&payload) => {
                (LaneTask::Executed, Some((conn_idx, payload, arrived)))
            }
            t => (t, None),
        };
        s.sched.running = Some(Running {
            ev,
            start: now,
            end: done,
            head_ns,
            yield_items: None,
            task,
        });
        if let Some((conn_idx, payload, arrived)) = early {
            drop(s);
            Self::execute(this, sim, conn_idx, payload, arrived, done);
        }
    }

    /// A dispatched task ran to completion: execute it (decode + engine +
    /// replication + response, through the same [`apply_request`] /
    /// [`run_batch`] kernels the decoupled ablations use) and pump the next
    /// pick.
    fn on_task_complete(this: &Rc<RefCell<ShardServer>>, sim: &mut Sim) {
        let r = this.borrow_mut().sched.running.take();
        let Some(r) = r else { return };
        let now = sim.now();
        match r.task {
            LaneTask::Point {
                conn_idx,
                payload,
                arrived,
            } => Self::execute(this, sim, conn_idx, payload, arrived, now),
            LaneTask::Batch {
                conn_idx,
                payload,
                arrived,
            } => Self::execute_batch(this, sim, conn_idx, payload, arrived),
            LaneTask::Scan(task) => Self::finish_scan_dispatch(this, sim, task),
            LaneTask::Mig(work) => work(this, sim),
            LaneTask::Executed => {}
        }
        Self::pump(this, sim);
    }

    /// Charges `cost` of shard-core time, then runs `work`. On a
    /// single-threaded shard the charge rides the run queue's throughput
    /// lane, so migration quanta share bandwidth with scans and batches (and
    /// under [`SchedulerKind::DualLane`] point-op tails stay isolated); the
    /// decoupled ablations queue it on the dispatcher core directly.
    /// Dropped silently if the shard is (or goes) dead — the migration
    /// engine's stall guard turns the missing progress into an abort.
    pub(crate) fn run_on_core(
        this: &Rc<RefCell<ShardServer>>,
        sim: &mut Sim,
        cost: SimTime,
        work: MigWork,
    ) {
        if !this.borrow().alive {
            return;
        }
        if this.borrow().single_threaded() {
            Self::enqueue(this, sim, THR, LaneTask::Mig(work), cost);
            return;
        }
        let done = {
            let mut s = this.borrow_mut();
            s.cpu.acquire(sim.now(), cost)
        };
        let this2 = this.clone();
        sim.schedule_at(done, move |sim| {
            if this2.borrow().alive {
                work(&this2, sim);
            }
        });
    }

    /// Applies inbound migration records at a destination shard: Put
    /// upserts, Delete removes-if-present (merge semantics — a catch-up
    /// record may supersede a snapshot one). The records then replicate to
    /// this shard's own secondaries and `on_applied` fires (the channel's
    /// applied counter, which the flip's quiescence check reads).
    pub(crate) fn apply_migration_records(
        this: &Rc<RefCell<ShardServer>>,
        sim: &mut Sim,
        records: Vec<(LogOp, Vec<u8>, Vec<u8>)>,
        on_applied: Box<dyn FnOnce(&mut Sim)>,
    ) {
        if records.is_empty() {
            on_applied(sim);
            return;
        }
        if !this.borrow().alive {
            return;
        }
        let cost = {
            let s = this.borrow();
            let c = &s.cfg.costs;
            records
                .iter()
                .map(|(op, _k, v)| match op {
                    LogOp::Delete => c.delete_ns,
                    _ => c.write_ns + (v.len() as f64 * c.per_byte_ns).round() as SimTime,
                })
                .sum::<SimTime>()
                + c.poll_ns
        };
        Self::run_on_core(
            this,
            sim,
            cost,
            Box::new(move |this, sim| {
                let pairs = {
                    let s = this.borrow_mut();
                    let now = sim.now();
                    let engine_rc = s.engine.clone();
                    let mut engine = engine_rc.borrow_mut();
                    for (op, k, v) in &records {
                        match op {
                            LogOp::Delete => {
                                let _ = engine.delete(now, k);
                            }
                            _ => {
                                engine
                                    .put(now, k, v)
                                    .expect("destination arena sized for migration");
                            }
                        }
                    }
                    drop(engine);
                    if let Some(m) = s.mig.clone() {
                        let mut m = m.borrow_mut();
                        for (op, k, _v) in &records {
                            match op {
                                LogOp::Delete => {
                                    m.received.remove(k);
                                }
                                _ => {
                                    m.received.insert(k.clone());
                                }
                            }
                        }
                    }
                    s.repl.clone()
                };
                if !pairs.is_empty() {
                    let borrowed: Vec<(LogOp, &[u8], &[u8])> = records
                        .iter()
                        .map(|(op, k, v)| (*op, k.as_slice(), v.as_slice()))
                        .collect();
                    for pair in &pairs {
                        pair.replicate_batch(sim, &borrowed, None)
                            .expect("migrated records bounded by msg slot, fit repl ring");
                    }
                }
                on_applied(sim);
            }),
        );
    }

    /// A preempted scan reached its yield boundary: execute the chunks
    /// covered so far (packing items and advancing the cursor), then either
    /// finish (range drained ⇒ `more = false`) or re-queue the remainder at
    /// the front of the throughput lane with the cheaper resume cost.
    fn on_scan_yield(this: &Rc<RefCell<ShardServer>>, sim: &mut Sim) {
        let mut s = this.borrow_mut();
        let Some(r) = s.sched.running.take() else {
            return;
        };
        let LaneTask::Scan(mut task) = r.task else {
            s.sched.running = Some(r);
            return;
        };
        if !s.alive {
            drop(s);
            Self::pump(this, sim);
            return;
        }
        let allowance = r.yield_items.unwrap_or(0).min(task.remaining);
        match s.run_scan_quantum(sim.now(), &mut task, allowance, true) {
            // The range drained inside the covered chunks: the scan is
            // complete and the freed tail already serves the latency lane.
            Some(resp) => {
                let conn_idx = task.conn_idx;
                drop(s);
                Self::send_response(this, sim, conn_idx, resp);
            }
            None => {
                let c = &s.cfg.costs;
                let cost = c.scan_resume_ns + task.remaining as SimTime * c.scan_item_ns;
                s.sched.push_front(THR, LaneTask::Scan(task), cost);
                drop(s);
            }
        }
        Self::pump(this, sim);
    }

    /// A scan dispatch ran to its (un-preempted) end: serve the remaining
    /// allowance, probe one item past it for the `more` flag — the same
    /// callback contract as a scan inside a batch ([`apply_request`]), so
    /// the wire frame is byte-identical over a quiescent engine — and
    /// respond.
    fn finish_scan_dispatch(this: &Rc<RefCell<ShardServer>>, sim: &mut Sim, mut task: ScanTask) {
        let (conn_idx, resp) = {
            let mut s = this.borrow_mut();
            if !s.alive {
                return;
            }
            let allowance = task.remaining;
            let resp = s
                .run_scan_quantum(sim.now(), &mut task, allowance, false)
                .expect("a non-yielding quantum always completes its scan");
            (task.conn_idx, resp)
        };
        Self::maybe_schedule_reclaim(this, sim);
        Self::send_response(this, sim, conn_idx, resp);
    }

    /// Executes one run-queue scan quantum: packs up to `allowance` items
    /// from `task`'s cursor into its response buffer (skipping keys the
    /// live ring no longer assigns here), advances `served`/`remaining` and
    /// counts the chunks covered. A `yielding` quantum that did not drain
    /// the range moves the cursor just past its last packed key and returns
    /// `None` so the remainder can re-queue. Otherwise the scan completes:
    /// its frame is sealed with `more` set iff the range did not drain, and
    /// the encoded `Ok` response is returned.
    fn run_scan_quantum(
        &mut self,
        now: SimTime,
        task: &mut ScanTask,
        allowance: u32,
        yielding: bool,
    ) -> Option<Vec<u8>> {
        let engine_rc = self.engine.clone();
        let mig = self.mig.clone();
        let mut scratch = std::mem::take(&mut self.get_scratch);
        let mut count = 0u32;
        let mut last_key: Vec<u8> = Vec::new();
        let buf = &mut task.buf;
        let exhausted = engine_rc
            .borrow_mut()
            .scan_into(&task.cursor, &mut scratch, |k, v| {
                if count == allowance {
                    return false;
                }
                if mig.as_ref().is_some_and(|m| !m.borrow().owns(k)) {
                    return true; // not ours under the live ring: skip
                }
                scan_items_push(buf, k, v);
                if yielding {
                    last_key.clear();
                    last_key.extend_from_slice(k);
                }
                count += 1;
                true
            });
        self.get_scratch = scratch;
        task.served += count;
        task.remaining -= count;
        let chunk = self.cfg.scan_chunk_items.max(1) as u64;
        self.stats.scan_chunks += (count as u64).div_ceil(chunk).max(1);
        if yielding && !exhausted {
            last_key.push(0);
            task.cursor = last_key;
            return None;
        }
        scan_items_finish(&mut task.buf, !exhausted, task.served);
        self.stats.scans += 1;
        self.stats.service_time_hist_by_op[5][log2_bucket(now.saturating_sub(task.arrived))] += 1;
        let mut resp = Vec::new();
        Response {
            status: Status::Ok,
            req_id: task.req_id,
            value: &task.buf,
            rptr: RemotePtr::none(),
            lease_expiry: 0,
            replicas: None,
        }
        .encode_into(&mut resp);
        Some(resp)
    }

    /// A batch frame landed: price the whole quantum — one sweep step and
    /// one response WQE for the frame, per-request marginal cost
    /// back-to-back — and queue it on the throughput lane as one task (one
    /// frame, one dispatch: batches never preempt and are never preempted).
    fn on_batch_payload(
        this: &Rc<RefCell<ShardServer>>,
        sim: &mut Sim,
        conn_idx: usize,
        payload: Vec<u8>,
    ) {
        // The decoupled execution ablations (§6.2.1) have no quantum
        // scheduling path: unpack and run each request individually.
        if !this.borrow().single_threaded() {
            let msgs: Vec<Vec<u8>> = BatchFrame::parse(&payload)
                .expect("validated batch frame")
                .iter()
                .map(|m| m.to_vec())
                .collect();
            for msg in msgs {
                Self::on_request_payload(this, sim, conn_idx, msg);
            }
            return;
        }
        let cost = {
            let mut s = this.borrow_mut();
            if !s.alive {
                s.stats.dropped_while_dead += 1;
                return;
            }
            let frame = BatchFrame::parse(&payload).expect("validated batch frame");
            let send_recv = s.conns[conn_idx].send_recv;
            let backlog = s.cpu.free_at().saturating_sub(sim.now()) + s.sched.queued_total();
            let mut total: SimTime = 0;
            let mut n: u64 = 0;
            for msg in frame.iter() {
                let req = Request::decode(msg).expect("well-formed request");
                let cost = s.batch_item_cost(&req, send_recv);
                // Per-op depth samples are per request even on this path.
                s.stats.queue_depth_hist_by_op[op_slot(&req)]
                    [log2_bucket(backlog / cost.max(1))] += 1;
                total += cost;
                n += 1;
            }
            s.stats.requests += n;
            s.stats.batches += 1;
            s.stats.batched_requests += n;
            // One depth sample per frame, against the mean per-item cost.
            let mean_cost = (total / n.max(1)).max(1);
            s.stats.queue_depth_hist[log2_bucket(backlog / mean_cost)] += 1;
            s.cfg.costs.poll_ns + s.cfg.costs.post_wqe_ns + total
        };
        let task = LaneTask::Batch {
            conn_idx,
            payload,
            arrived: sim.now(),
        };
        Self::enqueue(this, sim, THR, task, cost);
    }

    /// Runs the engine operation and emits the response (after replication,
    /// for writes under HA).
    ///
    /// Hot-path contract: the request is decoded exactly once and its
    /// key/value slices stay borrowed from `payload` end to end — the engine
    /// copies into its arena where it must, replication reads the borrowed
    /// slices directly, and GET values land in a per-shard scratch buffer
    /// reused across requests. No per-request `to_vec()`.
    ///
    /// `ready_at` is the modeled completion time of this request's core
    /// slot: it equals `sim.now()` except for overlapped group-commit
    /// writes (see [`Self::overlap_exec`]), which execute at slot start and
    /// gate their response on the slot's end.
    fn execute(
        this: &Rc<RefCell<ShardServer>>,
        sim: &mut Sim,
        conn_idx: usize,
        payload: Vec<u8>,
        arrived: SimTime,
        ready_at: SimTime,
    ) {
        enum Action<'a> {
            Respond(Vec<u8>),
            Replicate {
                resp: Vec<u8>,
                op: LogOp,
                key: &'a [u8],
                value: &'a [u8],
            },
        }
        let (action, forward) = {
            let mut s = this.borrow_mut();
            if !s.alive {
                return;
            }
            let now = sim.now();
            let req = Request::decode(&payload).expect("validated on arrival");
            let arena_region = s.arena_region;
            let scan_cap = scan_quantum_items(&s.cfg);
            let mut scratch = std::mem::take(&mut s.get_scratch);
            let mut scan_buf = std::mem::take(&mut s.scan_scratch);
            let engine_rc = s.engine.clone();
            let mig = s.mig.clone();
            let mut engine = engine_rc.borrow_mut();
            let mut resp = Vec::new();
            let repl = with_gate(mig.as_ref(), |gate| {
                apply_request(
                    &mut engine,
                    now,
                    &req,
                    arena_region,
                    &mut scratch,
                    scan_cap,
                    &mut scan_buf,
                    &mut s.plane,
                    gate,
                    &mut resp,
                )
            });
            match req {
                Request::Get { .. } => s.stats.gets += 1,
                Request::Insert { .. } => s.stats.inserts += 1,
                Request::Update { .. } => s.stats.updates += 1,
                Request::Delete { .. } => s.stats.deletes += 1,
                Request::LeaseRenew { .. } => s.stats.lease_renews += 1,
                Request::Scan { .. } => s.stats.scans += 1,
            }
            s.stats.service_time_hist_by_op[op_slot(&req)]
                [log2_bucket(ready_at.saturating_sub(arrived))] += 1;
            drop(engine);
            s.get_scratch = scratch;
            s.scan_scratch = scan_buf;
            // Migration hook for a successful write: dirty the key during
            // the copy phases, or forward it to the new owner during
            // DoubleWrite (shipped after the borrow drops).
            let forward = match (&repl, &mig) {
                (Some((op, key, value)), Some(m)) => {
                    let dst = m.borrow_mut().on_local_write(key);
                    dst.and_then(|d| m.borrow().channel(d))
                        .map(|ch| (ch, *op, key.to_vec(), value.to_vec()))
                }
                _ => None,
            };
            let action = match repl {
                Some((op, key, value)) => Action::Replicate {
                    resp,
                    op,
                    key,
                    value,
                },
                None => Action::Respond(resp),
            };
            (action, forward)
        };
        Self::maybe_schedule_reclaim(this, sim);
        if let Some((ch, op, key, value)) = forward {
            ch.ship(sim, vec![(op, key, value)]);
        }
        match action {
            Action::Respond(resp) => Self::respond_at(this, sim, conn_idx, resp, ready_at),
            Action::Replicate {
                resp,
                op,
                key,
                value,
            } => {
                let (pairs, mode) = {
                    let s = this.borrow();
                    (s.repl.clone(), s.cfg.replication)
                };
                if pairs.is_empty() || matches!(mode, ReplicationMode::None) {
                    Self::respond_at(this, sim, conn_idx, resp, ready_at);
                    return;
                }
                // Star replication: respond once every secondary reports
                // completion for its mode. The shard pipeline is NOT held
                // for the replication round trip — subsequent requests
                // execute and ship while these completions are in flight;
                // strict-semantics modes merely hold this one response
                // until its covering ack (per-record for Strict, cumulative
                // for GroupCommit) arrives. An overlapped group-commit
                // write adds one more gate: the core slot itself, so the
                // client never sees a completion before the modeled merge
                // finishes.
                let extra = usize::from(sim.now() < ready_at);
                let remaining = Rc::new(std::cell::Cell::new(pairs.len() + extra));
                if extra == 1 {
                    let remaining = remaining.clone();
                    let this2 = this.clone();
                    let resp2 = resp.clone();
                    sim.schedule_at(ready_at, move |sim| {
                        remaining.set(remaining.get() - 1);
                        if remaining.get() == 0 {
                            Self::send_response(&this2, sim, conn_idx, resp2);
                        }
                    });
                }
                for pair in &pairs {
                    let remaining = remaining.clone();
                    let this2 = this.clone();
                    let resp2 = resp.clone();
                    let done: Box<dyn FnOnce(&mut Sim)> = Box::new(move |sim| {
                        remaining.set(remaining.get() - 1);
                        if remaining.get() == 0 {
                            Self::send_response(&this2, sim, conn_idx, resp2);
                        }
                    });
                    match mode {
                        ReplicationMode::Strict => {
                            replicate_strict(pair, sim, op, key, value, done)
                                .expect("write bounded by msg slot, fits repl ring")
                        }
                        // GroupCommit ships even a singleton through the
                        // doorbell-batched path so its AckRequest rides the
                        // same doorbell as the record.
                        ReplicationMode::GroupCommit => pair
                            .replicate_batch(sim, &[(op, key, value)], Some(done))
                            .expect("write bounded by msg slot, fits repl ring"),
                        _ => pair
                            .replicate(sim, op, key, value, Some(done))
                            .expect("write bounded by msg slot, fits repl ring"),
                    }
                }
            }
        }
    }

    /// Executes a whole batch frame as one quantum: decode once, serve
    /// consecutive GET runs through the engine's interleaved batched probe,
    /// coalesce the quantum's replication records into one doorbell-batched
    /// shipment per secondary, and answer with a single response frame (one
    /// RDMA Write for the whole batch). Responses keep request order.
    fn execute_batch(
        this: &Rc<RefCell<ShardServer>>,
        sim: &mut Sim,
        conn_idx: usize,
        payload: Vec<u8>,
        arrived: SimTime,
    ) {
        let (resp_bytes, resp_count, repl_records, forwards) = {
            let mut s = this.borrow_mut();
            if !s.alive {
                return;
            }
            let now = sim.now();
            let frame = BatchFrame::parse(&payload).expect("validated on arrival");
            let reqs: Vec<Request<'_>> = frame
                .iter()
                .map(|m| Request::decode(m).expect("validated on arrival"))
                .collect();
            // All requests of a quantum complete when the quantum does.
            let sojourn_bucket = log2_bucket(now.saturating_sub(arrived));
            for req in &reqs {
                s.stats.service_time_hist_by_op[op_slot(req)][sojourn_bucket] += 1;
            }
            let arena_region = s.arena_region;
            let scan_cap = scan_quantum_items(&s.cfg);
            let mut scratch = std::mem::take(&mut s.get_scratch);
            let mut scan_buf = std::mem::take(&mut s.scan_scratch);
            let mut builder = std::mem::take(&mut s.resp_batch);
            builder.clear();
            let engine_rc = s.engine.clone();
            let mig = s.mig.clone();
            let mut engine = engine_rc.borrow_mut();
            let (repl, counts) = with_gate(mig.as_ref(), |gate| {
                run_batch(
                    &mut engine,
                    now,
                    &reqs,
                    arena_region,
                    &mut scratch,
                    scan_cap,
                    &mut scan_buf,
                    &mut s.plane,
                    gate,
                    &mut builder,
                )
            });
            drop(engine);
            s.stats.gets += counts.gets;
            s.stats.inserts += counts.inserts;
            s.stats.updates += counts.updates;
            s.stats.deletes += counts.deletes;
            s.stats.lease_renews += counts.lease_renews;
            s.stats.scans += counts.scans;
            s.get_scratch = scratch;
            s.scan_scratch = scan_buf;
            let resp_count = builder.count() as u64;
            let resp_bytes = builder.bytes().to_vec();
            s.resp_batch = builder;
            // Migration hooks for the quantum's successful writes, grouped
            // per destination channel (shipped after the borrow drops).
            let mut forwards: ChannelShipments = Vec::new();
            if let Some(m) = &mig {
                let mut grouped: RecordsByDst = BTreeMap::new();
                {
                    let mut mm = m.borrow_mut();
                    for (op, k, v) in &repl {
                        if let Some(d) = mm.on_local_write(k) {
                            grouped
                                .entry(d)
                                .or_default()
                                .push((*op, k.to_vec(), v.to_vec()));
                        }
                    }
                }
                let mm = m.borrow();
                for (d, recs) in grouped {
                    if let Some(ch) = mm.channel(d) {
                        forwards.push((ch, recs));
                    }
                }
            }
            (resp_bytes, resp_count, repl, forwards)
        };
        Self::maybe_schedule_reclaim(this, sim);
        for (ch, recs) in forwards {
            ch.ship(sim, recs);
        }
        let (pairs, mode) = {
            let s = this.borrow();
            (s.repl.clone(), s.cfg.replication)
        };
        if repl_records.is_empty() || pairs.is_empty() || matches!(mode, ReplicationMode::None) {
            Self::send_response_frame(this, sim, conn_idx, resp_bytes, resp_count);
            return;
        }
        // One doorbell-batched shipment per secondary; respond once every
        // pair reports the whole quantum complete (per its mode).
        let remaining = Rc::new(std::cell::Cell::new(pairs.len()));
        for pair in &pairs {
            let remaining = remaining.clone();
            let this2 = this.clone();
            let resp2 = resp_bytes.clone();
            let done: Box<dyn FnOnce(&mut Sim)> = Box::new(move |sim| {
                remaining.set(remaining.get() - 1);
                if remaining.get() == 0 {
                    Self::send_response_frame(&this2, sim, conn_idx, resp2, resp_count);
                }
            });
            pair.replicate_batch(sim, &repl_records, Some(done))
                .expect("writes bounded by msg slot, fit repl ring");
        }
    }

    /// Arms the background-reclamation event for the earliest pending lease
    /// expiry. The paper uses a background thread; the event-driven pump has
    /// identical semantics and terminates when the queue drains.
    ///
    /// A pump already armed at or before that expiry covers it, so none is
    /// added. An earlier expiry still arms its own pump and the later one
    /// stays armed; when the earlier pump fires it re-arms only if no armed
    /// pump covers the next expiry. Each instant thus holds at most one
    /// pump, and chains merge instead of multiplying.
    fn maybe_schedule_reclaim(this: &Rc<RefCell<ShardServer>>, sim: &mut Sim) {
        let at = {
            let mut s = this.borrow_mut();
            let Some(t) = s.engine.borrow().next_reclaim_at() else {
                return;
            };
            let at = t.max(sim.now());
            if s.reclaim_armed.range(..=at).next().is_some() {
                return; // an earlier (or equal) pump is already armed
            }
            s.reclaim_armed.insert(at);
            at
        };
        let this2 = this.clone();
        sim.schedule_at(at, move |sim| {
            {
                let mut s = this2.borrow_mut();
                s.reclaim_armed.remove(&at);
                s.engine.borrow_mut().pump_reclaim(sim.now());
            }
            Self::maybe_schedule_reclaim(&this2, sim);
        });
    }

    /// Frames and writes the response into the client's response buffer
    /// (RDMA-Write mode), or posts it as a Send (Send/Recv mode).
    fn send_response(
        this: &Rc<RefCell<ShardServer>>,
        sim: &mut Sim,
        conn_idx: usize,
        resp: Vec<u8>,
    ) {
        Self::send_response_frame(this, sim, conn_idx, resp, 1);
    }

    /// Emits a response at `ready_at` — immediately in the common case
    /// where the core slot already completed, deferred for an overlapped
    /// group-commit write that executed at its slot's start.
    fn respond_at(
        this: &Rc<RefCell<ShardServer>>,
        sim: &mut Sim,
        conn_idx: usize,
        resp: Vec<u8>,
        ready_at: SimTime,
    ) {
        if sim.now() >= ready_at {
            Self::send_response(this, sim, conn_idx, resp);
        } else {
            let this2 = this.clone();
            sim.schedule_at(ready_at, move |sim| {
                Self::send_response(&this2, sim, conn_idx, resp);
            });
        }
    }

    /// Like [`Self::send_response`], for a frame carrying `count` responses
    /// (a whole batch travels as one write / one doorbell).
    fn send_response_frame(
        this: &Rc<RefCell<ShardServer>>,
        sim: &mut Sim,
        conn_idx: usize,
        mut resp: Vec<u8>,
        count: u64,
    ) {
        let (fab, qp, node, region, kick, send_recv) = {
            let mut s = this.borrow_mut();
            if !s.alive {
                return;
            }
            s.stats.responses += count;
            // Piggyback the shard's backlog (µs, saturating at u16::MAX) in
            // the response pad bytes: core reservation still ahead of `now`
            // plus both lanes' undispatched work. The client's AIMD window
            // controller reads it as its congestion signal. An unloaded
            // shard stamps 0, which is byte-identical to the zeroed pad.
            let backlog = s.cpu.free_at().saturating_sub(sim.now()) + s.sched.queued_total();
            let hint = (backlog / 1_000).min(u16::MAX as u64) as u16;
            if BatchFrame::is_batch(&resp) {
                for_each_message_mut(&mut resp, |m| set_backlog_hint(m, hint));
            } else {
                set_backlog_hint(&mut resp, hint);
            }
            let conn = &s.conns[conn_idx];
            (
                s.fab.clone(),
                conn.qp,
                s.node,
                conn.resp_region,
                conn.client_kick.clone(),
                conn.send_recv,
            )
        };
        if send_recv {
            // The client's recv handler consumes the payload directly.
            fab.post_send(sim, qp, node, resp);
        } else {
            let words = frame::frame_to_words(&resp);
            fab.post_write(
                sim,
                qp,
                node,
                words,
                region,
                0,
                Some(Box::new(move |sim| kick(sim))),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scan-quantum invariant: for ANY requested limit, the shard-core
    /// charge of one scan stays within the configured quantum budget, and
    /// the item cap is exactly the largest count that fits.
    #[test]
    fn scan_cost_respects_quantum_budget() {
        let cfg = ClusterConfig::default();
        let cap = scan_quantum_items(&cfg);
        assert!(cap >= 1);
        // The cap fills the budget: one more item would overflow it.
        assert!(scan_cost(&cfg, cap) <= cfg.scan_quantum_ns);
        assert!(
            cfg.costs.scan_base_ns + (cap as SimTime + 1) * cfg.costs.scan_item_ns
                > cfg.scan_quantum_ns
        );
        for limit in [0u32, 1, 10, 100, cap, cap + 1, 1 << 20, u32::MAX] {
            let cost = scan_cost(&cfg, limit);
            assert!(
                cost <= cfg.scan_quantum_ns,
                "limit={limit}: cost {cost} exceeds quantum {}",
                cfg.scan_quantum_ns
            );
        }
        // Below the cap the charge is exactly base + items × per-item.
        assert_eq!(
            scan_cost(&cfg, 100),
            cfg.costs.scan_base_ns + 100 * cfg.costs.scan_item_ns
        );
        // Tighter budgets shrink the cap but never below progress.
        let tight = ClusterConfig {
            scan_quantum_ns: 0,
            ..ClusterConfig::default()
        };
        assert_eq!(scan_quantum_items(&tight), 1);
    }

    /// Retiring blocks with decreasing expiries arms an earlier pump each
    /// time. The chains must merge: draining an idle shard runs exactly one
    /// pump per distinct expiry, and every block is freed.
    #[test]
    fn reclaim_pumps_merge_into_one_per_expiry() {
        let cfg = Rc::new(ClusterConfig::default());
        let mut sim = Sim::new(cfg.seed);
        let fab = Fabric::new(cfg.fabric.clone());
        let node = fab.add_node();
        let srv = ShardServer::new(ShardId(0), node, &fab, cfg.clone());
        let engine = srv.borrow().engine.clone();
        let keys: Vec<Vec<u8>> = (0..4).map(|i| format!("rk{i}").into_bytes()).collect();
        for (i, key) in keys.iter().enumerate() {
            engine.borrow_mut().insert(0, key, b"v").unwrap();
            // A GET leases the item until `now + min_lease_ns`.
            engine.borrow_mut().get(i as SimTime * 1_000, key).unwrap();
        }
        // Latest lease first: every retire arms a pump earlier than the last.
        for key in keys.iter().rev() {
            engine.borrow_mut().delete(10_000, key).unwrap();
            ShardServer::maybe_schedule_reclaim(&srv, &mut sim);
        }
        let before = sim.executed_events();
        sim.run();
        assert_eq!(sim.executed_events() - before, keys.len() as u64);
        assert_eq!(sim.now(), cfg.min_lease_ns + 3_000);
        assert_eq!(engine.borrow().stats().reclaimed_blocks, keys.len() as u64);
        assert_eq!(engine.borrow().reclaim_pending(), 0);
        assert!(srv.borrow().reclaim_armed.is_empty());
    }

    fn point(cost: SimTime) -> (LaneTask, SimTime) {
        (
            LaneTask::Point {
                conn_idx: 0,
                payload: Vec::new(),
                arrived: 0,
            },
            cost,
        )
    }

    fn batch(cost: SimTime) -> (LaneTask, SimTime) {
        (
            LaneTask::Batch {
                conn_idx: 0,
                payload: Vec::new(),
                arrived: 0,
            },
            cost,
        )
    }

    /// Latency isolation: point ops enqueued *behind* two full scan quanta
    /// are still served first — the latency lane's credit covers them long
    /// before the throughput lane banks enough deficit for a scan.
    #[test]
    fn drr_serves_latency_lane_past_queued_scans() {
        let mut s = DualLaneSched::default();
        for (t, c) in [batch(8_000), batch(8_000)] {
            s.enqueue(THR, t, c);
        }
        for _ in 0..8 {
            let (t, c) = point(500);
            s.enqueue(LAT, t, c);
        }
        assert_eq!(s.queued_total(), 2 * 8_000 + 8 * 500);
        let mut order = Vec::new();
        while let Some((t, c)) = s.next() {
            order.push((matches!(t, LaneTask::Point { .. }), c));
        }
        assert_eq!(order.len(), 10);
        assert!(
            order[..8].iter().all(|(is_point, _)| *is_point),
            "all point ops before any scan quantum: {order:?}"
        );
        assert!(order[8..].iter().all(|(is_point, _)| !*is_point));
        assert_eq!(s.queued_total(), 0);
        // Draining resets the deficits: no credit is banked across idle.
        assert_eq!(s.deficit, [0; 2]);
        assert!(s.next().is_none());
    }

    /// With sustained load on both lanes, equal quanta split the core's
    /// bandwidth roughly evenly rather than starving the throughput lane.
    #[test]
    fn drr_shares_bandwidth_between_backlogged_lanes() {
        let mut s = DualLaneSched::default();
        for _ in 0..64 {
            let (t, c) = point(500);
            s.enqueue(LAT, t, c);
        }
        for _ in 0..4 {
            let (t, c) = batch(8_000);
            s.enqueue(THR, t, c);
        }
        // Serve half the total work and measure the split.
        let mut lat_ns = 0u64;
        let mut thr_ns = 0u64;
        while lat_ns + thr_ns < 32_000 {
            let (t, c) = s.next().expect("backlogged");
            match t {
                LaneTask::Point { .. } => lat_ns += c,
                _ => thr_ns += c,
            }
        }
        let share = thr_ns as f64 / (lat_ns + thr_ns) as f64;
        assert!(
            (0.3..=0.7).contains(&share),
            "throughput share {share:.2} not balanced (lat {lat_ns} thr {thr_ns})"
        );
    }

    /// FIFO order within a lane, and push_front puts a yielded remainder
    /// at the head of its lane.
    #[test]
    fn drr_keeps_fifo_within_lane_and_honours_push_front() {
        let mut s = DualLaneSched::default();
        for id in 0..3u64 {
            s.enqueue(
                LAT,
                LaneTask::Point {
                    conn_idx: id as usize,
                    payload: Vec::new(),
                    arrived: 0,
                },
                100,
            );
        }
        let (t, _) = s.next().unwrap();
        assert!(matches!(t, LaneTask::Point { conn_idx: 0, .. }));
        s.push_front(
            LAT,
            LaneTask::Point {
                conn_idx: 9,
                payload: Vec::new(),
                arrived: 0,
            },
            100,
        );
        let picks: Vec<usize> = std::iter::from_fn(|| s.next())
            .map(|(t, _)| match t {
                LaneTask::Point { conn_idx, .. } => conn_idx,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(picks, vec![9, 1, 2]);
    }

    #[test]
    fn op_slot_covers_every_request_kind() {
        let keys = [b"k".as_slice()];
        let reqs = [
            Request::Get {
                req_id: 1,
                key: b"k",
            },
            Request::Insert {
                req_id: 2,
                key: b"k",
                value: b"v",
            },
            Request::Update {
                req_id: 3,
                key: b"k",
                value: b"v",
            },
            Request::Delete {
                req_id: 4,
                key: b"k",
            },
            Request::LeaseRenew {
                req_id: 5,
                keys: hydra_wire::KeyList::Slices(&keys),
            },
            Request::Scan {
                req_id: 6,
                start: b"k",
                limit: 10,
            },
        ];
        let slots: Vec<usize> = reqs.iter().map(op_slot).collect();
        assert_eq!(slots, (0..OP_KINDS).collect::<Vec<_>>());
    }
}
