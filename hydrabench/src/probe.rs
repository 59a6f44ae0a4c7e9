//! A `KvClient` wrapper that measures each request from outside the client.
//!
//! The YCSB driver sees a [`Probe`] where it would see a `HydraClient`. Once
//! the driver resets statistics (the start of the measured window), every
//! request's virtual latency is recorded exactly, per op kind, together with
//! whether it failed. With tracing on, the probe also records one span per
//! request: id, kind, virtual issue and completion time, and the host time
//! spent inside the client call. Load and warm-up requests pass through
//! untouched. Wrapping the completion callback schedules nothing, so the
//! simulated run is the same event for event with or without the probe.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use hydra_db::HydraClient;
use hydra_sim::Sim;
use hydra_ycsb::{KvCb, KvClient, KvSnapshot};

/// Op kinds with their own latency metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Get = 0,
    Update = 1,
    Scan = 2,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Get, Kind::Update, Kind::Scan];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Get => "get",
            Kind::Update => "update",
            Kind::Scan => "scan",
        }
    }
}

/// One measured request.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub kind: Kind,
    /// Virtual issue time (ns).
    pub issued: u64,
    /// Virtual completion time (ns); `u64::MAX` while outstanding.
    pub completed: u64,
    /// Host nanoseconds spent inside the client call that issued it.
    pub host_ns: u64,
    pub ok: bool,
}

/// Shared by every probe of one run.
#[derive(Default)]
pub struct Recorder {
    measuring: bool,
    trace: bool,
    /// Successful virtual latencies (ns), per [`Kind`].
    lat: [Vec<u64>; 3],
    /// Failed requests, per [`Kind`].
    failed: [u64; 3],
    issued: u64,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(trace: bool, expected_ops: usize) -> Rc<RefCell<Recorder>> {
        Rc::new(RefCell::new(Recorder {
            trace,
            spans: Vec::with_capacity(if trace { expected_ops } else { 0 }),
            lat: std::array::from_fn(|_| Vec::with_capacity(expected_ops)),
            ..Recorder::default()
        }))
    }

    /// Requests issued in the measured window.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Successful latencies of `kind`, in completion order.
    pub fn latencies(&self, kind: Kind) -> &[u64] {
        &self.lat[kind as usize]
    }

    pub fn failed(&self, kind: Kind) -> u64 {
        self.failed[kind as usize]
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn complete(&mut self, kind: Kind, id: u64, issued: u64, now: u64, ok: bool) {
        if ok {
            self.lat[kind as usize].push(now - issued);
        } else {
            self.failed[kind as usize] += 1;
        }
        if self.trace {
            let span = &mut self.spans[id as usize];
            span.completed = now;
            span.ok = ok;
        }
    }
}

/// The wrapped client.
#[derive(Clone)]
pub struct Probe {
    pub inner: HydraClient,
    rec: Rc<RefCell<Recorder>>,
}

impl Probe {
    pub fn new(inner: HydraClient, rec: Rc<RefCell<Recorder>>) -> Probe {
        Probe { inner, rec }
    }

    /// Issues one request through `call`, measuring it when the measured
    /// window is open.
    fn issue(&self, sim: &mut Sim, kind: Kind, cb: KvCb, call: impl FnOnce(&mut Sim, KvCb)) {
        let (measuring, trace) = {
            let r = self.rec.borrow();
            (r.measuring, r.trace)
        };
        if !measuring {
            call(sim, cb);
            return;
        }
        let issued = sim.now();
        let id = {
            let mut r = self.rec.borrow_mut();
            let id = r.issued;
            r.issued += 1;
            if trace {
                r.spans.push(Span {
                    id,
                    kind,
                    issued,
                    completed: u64::MAX,
                    host_ns: 0,
                    ok: false,
                });
            }
            id
        };
        let rec = self.rec.clone();
        let wrapped: KvCb = Box::new(move |sim, r| {
            rec.borrow_mut()
                .complete(kind, id, issued, sim.now(), r.is_ok());
            cb(sim, r);
        });
        if trace {
            let t = Instant::now();
            call(sim, wrapped);
            let host_ns = t.elapsed().as_nanos() as u64;
            self.rec.borrow_mut().spans[id as usize].host_ns = host_ns;
        } else {
            call(sim, wrapped);
        }
    }
}

impl KvClient for Probe {
    fn kv_get(&self, sim: &mut Sim, key: &[u8], cb: KvCb) {
        self.issue(sim, Kind::Get, cb, |sim, cb| self.inner.get(sim, key, cb));
    }
    fn kv_insert(&self, sim: &mut Sim, key: &[u8], value: &[u8], cb: KvCb) {
        self.issue(sim, Kind::Update, cb, |sim, cb| {
            self.inner.insert(sim, key, value, cb)
        });
    }
    fn kv_update(&self, sim: &mut Sim, key: &[u8], value: &[u8], cb: KvCb) {
        self.issue(sim, Kind::Update, cb, |sim, cb| {
            self.inner.update(sim, key, value, cb)
        });
    }
    fn kv_scan(&self, sim: &mut Sim, start: &[u8], limit: u32, cb: KvCb) {
        self.issue(sim, Kind::Scan, cb, |sim, cb| {
            self.inner.scan(sim, start, limit, cb)
        });
    }
    /// The driver resets every client as the measured window opens.
    fn kv_reset_stats(&self) {
        self.inner.reset_stats();
        self.rec.borrow_mut().measuring = true;
    }
    fn kv_snapshot(&self) -> KvSnapshot {
        self.inner.kv_snapshot()
    }
}
