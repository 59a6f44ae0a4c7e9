//! Resident-memory check for the pointer cache: capacity is a bound, not a
//! preallocation, so an empty cache costs its admission sketch and nothing
//! that scales with its slot count. Kept alone in its own test binary so no
//! other test's allocations move `VmRSS` while it is measured.
#![cfg(target_os = "linux")]

use hydra_lockfree::ClockCache;

/// Resident set size of this process in KiB, from `/proc/self/status`.
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS line");
    line.split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmRSS value in kB")
}

#[test]
fn empty_cache_is_not_sized_by_capacity() {
    let before = vm_rss_kib();
    let cache = ClockCache::<[u8; 128]>::new(65_536);
    let grown = vm_rss_kib().saturating_sub(before);
    assert!(
        grown < 2 * 1024,
        "an empty 64 K-slot cache made {grown} KiB resident"
    );
    assert!(cache.insert(b"k", [7; 128], 1));
    assert_eq!(cache.get(b"k"), Some([7; 128]));
}
