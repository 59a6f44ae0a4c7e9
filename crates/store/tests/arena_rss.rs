//! Resident-memory check for the registered-memory arena: a fresh arena is
//! demand-paged, so reserving 64 MiB of capacity must not make 64 MiB
//! resident. Kept alone in its own test binary so no other test's
//! allocations move `VmRSS` while it is measured.
#![cfg(target_os = "linux")]

use std::sync::atomic::Ordering;

use hydra_store::Arena;

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
fn fresh_arena_is_not_resident() {
    const WORDS: usize = 1 << 23; // 64 MiB of capacity
    let before = vm_rss_kib();
    let mut arena = Arena::new(WORDS);
    let grown = vm_rss_kib().saturating_sub(before);
    assert!(
        grown < 4 * 1024,
        "a fresh 64 MiB arena made {grown} KiB resident"
    );

    let words = arena.words();
    assert_eq!(words.len(), WORDS);
    for i in [0, WORDS / 2, WORDS - 1] {
        assert_eq!(words[i].load(Ordering::Relaxed), 0, "word {i} not zero");
    }

    let off = arena.alloc(4).expect("fresh arena has room") as usize;
    for i in 0..4 {
        arena.words()[off + i].store(0xA5A5_0000 + i as u64, Ordering::Release);
    }
    for i in 0..4 {
        assert_eq!(
            arena.words()[off + i].load(Ordering::Acquire),
            0xA5A5_0000 + i as u64
        );
    }
}
