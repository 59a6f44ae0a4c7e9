//! The three benchmark workloads: a cluster shape plus a YCSB op mix.
//!
//! All three load 100 K records (16 B keys, 32 B values), draw keys from a
//! scrambled Zipfian with θ = 0.99 and run 50 closed-loop clients (window 1)
//! spread over 5 client machines. README.md records why each was chosen.

use hydra_db::{ClusterConfig, IndexKind, ReplicationMode, SchedulerKind};
use hydra_ycsb::{KeyDist, OpMix, Workload};

/// Records loaded before the run.
pub const RECORDS: u64 = 100_000;
/// Operations generated per run of the mixes with a 10 % op kind, warm-up
/// slice included: 5 % warm up, so 114 K are measured and the 10 % kind
/// still leaves ≥ 10 samples past its p99.9.
pub const OPS: u64 = 120_000;
/// Operations per run of the 50/50 mix: 57 K measured, ≥ 28 samples past
/// each kind's p99.9. Its post-run drain grows with the square of the
/// updates (README.md), so this size keeps one process near 6 s and lets a
/// run repeat it.
pub const OPS_WRITE_HEAVY: u64 = 60_000;
/// Closed-loop clients.
pub const CLIENTS: usize = 50;
/// Share of every client stream replayed before measurement starts.
pub const WARMUP_FRAC: f64 = 0.05;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = [
    "read_mostly_zipf",
    "write_heavy_replicated",
    "point_scan_mix",
];

/// One benchmark workload: where it runs and what it issues.
pub struct Spec {
    pub name: &'static str,
    pub cluster: ClusterConfig,
    pub workload: Workload,
}

/// Builds workload `name` at `seed`, or `None` for an unknown name.
pub fn spec(name: &str, seed: u64) -> Option<Spec> {
    let base = ClusterConfig {
        seed,
        ..hydra_bench::paper_cluster_config()
    };
    let zipf_mix = |read_ratio: f64, ops: u64| Workload {
        records: RECORDS,
        ops,
        read_ratio,
        dist: KeyDist::zipfian(),
        key_len: 16,
        value_len: 32,
        seed,
        mix: OpMix::ReadUpdate,
    };
    let spec = match name {
        "read_mostly_zipf" => Spec {
            name: NAMES[0],
            cluster: ClusterConfig {
                index: IndexKind::Packed,
                replication: ReplicationMode::None,
                ..base
            },
            workload: zipf_mix(0.9, OPS),
        },
        "write_heavy_replicated" => Spec {
            name: NAMES[1],
            cluster: ClusterConfig {
                server_nodes: 2,
                shards_per_node: 2,
                replicas: 1,
                replication: ReplicationMode::GroupCommit,
                ..base
            },
            workload: zipf_mix(0.5, OPS_WRITE_HEAVY),
        },
        "point_scan_mix" => Spec {
            name: NAMES[2],
            cluster: ClusterConfig {
                index: IndexKind::Hybrid,
                scheduler: SchedulerKind::DualLane,
                ..base
            },
            workload: Workload::workload_mix(RECORDS, OPS, seed, 0.9),
        },
        _ => return None,
    };
    Some(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_builds_and_unknown_does_not() {
        for name in NAMES {
            let s = spec(name, 7).expect("listed workload");
            assert_eq!(s.name, name);
            assert_eq!(s.workload.seed, 7);
            assert_eq!(s.workload.records, RECORDS);
        }
        assert!(spec("nope", 7).is_none());
    }

    #[test]
    fn ten_percent_kinds_leave_ten_samples_past_p999() {
        for name in NAMES {
            let s = spec(name, 1).unwrap();
            let measured = s.workload.ops as f64 * (1.0 - WARMUP_FRAC);
            let minor = measured * s.workload.read_ratio.min(1.0 - s.workload.read_ratio);
            assert!(minor * 0.001 >= 10.0, "{name}: {minor} samples");
        }
    }
}
