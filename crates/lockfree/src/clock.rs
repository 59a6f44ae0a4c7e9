//! A bounded CLOCK cache with TinyLFU-style admission and an integrated
//! lease-expiry wheel — the client-side remote-pointer cache.
//!
//! Three requirements shape the structure (Storm, Novakovic et al.: pointer
//! caches only pay off when they stay bounded *and* hot):
//!
//! * **Bounded**: capacity is fixed at construction; the slot array grows
//!   on demand to at most capacity. Under overload the CLOCK hand evicts,
//!   so memory is `O(min(distinct keys, capacity))` no matter how many
//!   distinct keys stream past, and an idle cache costs only its sketch.
//! * **Hot**: admission is gated by a [`FreqSketch`] — a newcomer only
//!   displaces the CLOCK victim when its estimated access frequency exceeds
//!   the victim's, so a scan of cold keys cannot flush the hot working set.
//! * **Renewal without scans**: every entry is indexed by lease expiry in a
//!   coarse bucket wheel, so `expiring(now, horizon)` visits only the
//!   buckets that are actually due instead of walking the whole cache
//!   (previously an O(cache) sweep per renewal tick).
//!
//! Interior mutability is a single `Mutex` (the sketch is lock-free): the
//! cache is shared by every client on a node via `Arc`, and the critical
//! sections are a few probes long. This is deliberately not a lock-free
//! structure — CLOCK's hand and the wheel want coherent mutation, and the
//! paper's shared-cache contention point is the *pointer lookup*, which is
//! one mutex acquire + one `HashMap` probe here.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

use crate::sketch::FreqSketch;

/// Expiry bucket granularity: wheel bucket = expiry >> this. 2^20 ns ≈ 1 ms
/// of virtual time per bucket — far finer than the 1 s minimum lease, so a
/// renewal horizon maps to a handful of buckets.
const WHEEL_SHIFT: u32 = 20;

struct Slot<V> {
    key: Vec<u8>,
    hash: u64,
    value: V,
    /// CLOCK second-chance bit, set on every hit.
    referenced: bool,
    /// Lease expiry this slot is filed under in the wheel.
    expiry: u64,
}

struct Inner<V> {
    /// Slot array, grown on demand up to capacity; `None` entries are free.
    slots: Vec<Option<Slot<V>>>,
    /// Key -> slot index.
    map: HashMap<Vec<u8>, usize>,
    /// Slot indices released by `remove`, reused before the array grows.
    free: Vec<usize>,
    /// CLOCK hand position.
    hand: usize,
    /// Expiry wheel: coarse time bucket -> (slot, expiry recorded at filing).
    /// Entries are lazily invalidated — a slot whose current expiry or
    /// occupancy no longer matches is skipped and dropped on scan.
    wheel: BTreeMap<u64, Vec<(usize, u64)>>,
}

/// Statistics counters (monotonic since construction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClockCacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries displaced by the CLOCK hand.
    pub evictions: u64,
    /// Insertions rejected by sketch admission (victim was hotter).
    pub rejected: u64,
}

/// Bounded CLOCK cache with sketch-gated admission. See module docs.
pub struct ClockCache<V> {
    inner: Mutex<Inner<V>>,
    sketch: FreqSketch,
    capacity: usize,
    stats: Mutex<ClockCacheStats>,
}

impl<V: Clone> ClockCache<V> {
    /// Builds a cache holding at most `capacity` entries.
    pub fn new(capacity: usize) -> ClockCache<V> {
        let capacity = capacity.max(1);
        ClockCache {
            inner: Mutex::new(Inner {
                slots: Vec::new(),
                map: HashMap::new(),
                free: Vec::new(),
                hand: 0,
                wheel: BTreeMap::new(),
            }),
            sketch: FreqSketch::new(capacity),
            capacity,
            stats: Mutex::new(ClockCacheStats::default()),
        }
    }

    /// Maximum entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current live entries.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ClockCacheStats {
        *self.stats.lock().unwrap()
    }

    /// Looks up `key`, cloning the value on a hit. Records the touch in the
    /// admission sketch and sets the slot's CLOCK reference bit.
    pub fn get(&self, key: &[u8]) -> Option<V> {
        let hash = crate::hash_bytes(key);
        self.sketch.touch(hash);
        let mut inner = self.inner.lock().unwrap();
        let idx = inner.map.get(key).copied();
        let out = idx.and_then(|i| {
            inner.slots[i].as_mut().map(|s| {
                s.referenced = true;
                s.value.clone()
            })
        });
        drop(inner);
        let mut st = self.stats.lock().unwrap();
        if out.is_some() {
            st.hits += 1;
        } else {
            st.misses += 1;
        }
        out
    }

    /// Inserts or replaces `key`. `expiry` files the entry in the lease
    /// wheel (pass the pointer's lease expiry). Replacement of an existing
    /// key always succeeds; a brand-new key entering a full cache must beat
    /// the CLOCK victim's sketch estimate or it is rejected (returns
    /// `false`). Rejected keys still record their touch, so a key that keeps
    /// arriving eventually qualifies.
    pub fn insert(&self, key: &[u8], value: V, expiry: u64) -> bool {
        let hash = crate::hash_bytes(key);
        self.sketch.touch(hash);
        let mut inner = self.inner.lock().unwrap();
        if let Some(&idx) = inner.map.get(key) {
            let slot = inner.slots[idx].as_mut().expect("mapped slot occupied");
            slot.value = value;
            slot.referenced = true;
            let refile = slot.expiry != expiry;
            if refile {
                slot.expiry = expiry;
                Self::file(&mut inner.wheel, idx, expiry);
            }
            return true;
        }
        // Released slots first, then the lowest never-used index: the order
        // a stack pre-filled with `(0..capacity).rev()` yields, so placement
        // and eviction do not depend on how far the array has grown.
        let idx = if let Some(idx) = inner.free.pop() {
            idx
        } else if inner.slots.len() < self.capacity {
            inner.slots.push(None);
            inner.slots.len() - 1
        } else {
            // CLOCK sweep: clear reference bits until a victim surfaces,
            // then let the sketch arbitrate newcomer vs victim.
            let cap = self.capacity;
            let victim = loop {
                let hand = inner.hand;
                inner.hand = (hand + 1) % cap;
                let slot = inner.slots[hand].as_mut().expect("full cache: occupied");
                if slot.referenced {
                    slot.referenced = false;
                } else {
                    break hand;
                }
            };
            let victim_hash = inner.slots[victim].as_ref().unwrap().hash;
            if self.sketch.estimate(hash) <= self.sketch.estimate(victim_hash) {
                drop(inner);
                self.stats.lock().unwrap().rejected += 1;
                return false;
            }
            let old = inner.slots[victim].take().expect("victim occupied");
            inner.map.remove(&old.key);
            self.stats.lock().unwrap().evictions += 1;
            victim
        };
        inner.slots[idx] = Some(Slot {
            key: key.to_vec(),
            hash,
            value,
            referenced: true,
            expiry,
        });
        inner.map.insert(key.to_vec(), idx);
        Self::file(&mut inner.wheel, idx, expiry);
        true
    }

    /// Removes `key`, returning its value. The wheel entry is left to lazy
    /// invalidation.
    pub fn remove(&self, key: &[u8]) -> Option<V> {
        let mut inner = self.inner.lock().unwrap();
        let idx = inner.map.remove(key)?;
        inner.slots[idx].take().map(|s| {
            inner.free.push(idx);
            s.value
        })
    }

    /// Collects up to `limit` entries whose lease expires within
    /// `(now, now + horizon]`, already expired included. Only wheel buckets
    /// covering that window are visited — the rest of the cache is never
    /// touched. Stale wheel entries (evicted slots, refiled expiries) are
    /// dropped as they are encountered.
    pub fn expiring(&self, now: u64, horizon: u64, limit: usize) -> Vec<(Vec<u8>, V)> {
        let deadline = now.saturating_add(horizon);
        let last_bucket = deadline >> WHEEL_SHIFT;
        let mut inner = self.inner.lock().unwrap();
        let mut out = Vec::new();
        let due: Vec<u64> = inner.wheel.range(..=last_bucket).map(|(b, _)| *b).collect();
        for bucket in due {
            let Some(mut entries) = inner.wheel.remove(&bucket) else {
                continue;
            };
            let mut keep = Vec::new();
            while let Some((idx, filed_expiry)) = entries.pop() {
                let live = inner.slots[idx]
                    .as_ref()
                    .is_some_and(|s| s.expiry == filed_expiry);
                if !live {
                    continue; // evicted, removed, or refiled: drop lazily
                }
                let slot = inner.slots[idx].as_ref().unwrap();
                if slot.expiry > deadline {
                    keep.push((idx, filed_expiry));
                    continue;
                }
                if out.len() < limit {
                    out.push((slot.key.clone(), slot.value.clone()));
                } else {
                    keep.push((idx, filed_expiry));
                }
            }
            if !keep.is_empty() {
                inner.wheel.entry(bucket).or_default().extend(keep);
            }
            if out.len() >= limit {
                break;
            }
        }
        out
    }

    /// Re-files `key` under a new lease expiry (after a successful renewal).
    pub fn refile(&self, key: &[u8], expiry: u64) {
        let mut inner = self.inner.lock().unwrap();
        let Some(&idx) = inner.map.get(key) else {
            return;
        };
        if let Some(slot) = inner.slots[idx].as_mut() {
            if slot.expiry != expiry {
                slot.expiry = expiry;
                Self::file(&mut inner.wheel, idx, expiry);
            }
        }
    }

    /// Visits a snapshot of live entries (diagnostics / tests).
    pub fn for_each(&self, mut f: impl FnMut(&[u8], &V)) {
        let inner = self.inner.lock().unwrap();
        for slot in inner.slots.iter().flatten() {
            f(&slot.key, &slot.value);
        }
    }

    fn file(wheel: &mut BTreeMap<u64, Vec<(usize, u64)>>, idx: usize, expiry: u64) {
        wheel
            .entry(expiry >> WHEEL_SHIFT)
            .or_default()
            .push((idx, expiry));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: u64 = 1 << WHEEL_SHIFT; // one wheel bucket

    #[test]
    fn bounded_under_overload() {
        let c: ClockCache<u64> = ClockCache::new(64);
        for i in 0..640u64 {
            c.insert(format!("k{i:05}").as_bytes(), i, 1_000 * MS);
        }
        assert!(c.len() <= 64, "cache exceeded capacity: {}", c.len());
        let mut count = 0;
        c.for_each(|_, _| count += 1);
        assert_eq!(count, c.len());
    }

    #[test]
    fn hot_keys_survive_cold_floods() {
        let c: ClockCache<u64> = ClockCache::new(32);
        // Establish a hot set with repeated touches.
        for round in 0..50 {
            for h in 0..16u64 {
                let key = format!("hot{h:02}");
                c.insert(key.as_bytes(), round, 1_000 * MS);
                c.get(key.as_bytes());
            }
        }
        // Flood with one-shot cold keys (10x capacity).
        for i in 0..320u64 {
            c.insert(format!("cold{i:04}").as_bytes(), i, 1_000 * MS);
        }
        let mut hot_alive = 0;
        for h in 0..16u64 {
            if c.get(format!("hot{h:02}").as_bytes()).is_some() {
                hot_alive += 1;
            }
        }
        assert!(
            hot_alive >= 12,
            "admission must protect the hot set: {hot_alive}/16 alive"
        );
        assert!(c.stats().rejected > 0, "cold keys must have been rejected");
    }

    #[test]
    fn replace_existing_key_always_succeeds() {
        let c: ClockCache<u64> = ClockCache::new(4);
        for i in 0..4u64 {
            assert!(c.insert(format!("k{i}").as_bytes(), i, 100 * MS));
        }
        // Full cache: replacing an existing key is not an admission decision.
        assert!(c.insert(b"k2", 99, 100 * MS));
        assert_eq!(c.get(b"k2"), Some(99));
    }

    #[test]
    fn remove_frees_a_slot() {
        let c: ClockCache<u64> = ClockCache::new(2);
        c.insert(b"a", 1, 100 * MS);
        c.insert(b"b", 2, 100 * MS);
        assert_eq!(c.remove(b"a"), Some(1));
        assert_eq!(c.remove(b"a"), None);
        assert_eq!(c.len(), 1);
        // The freed slot admits a newcomer without an eviction fight.
        assert!(c.insert(b"c", 3, 100 * MS));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn expiring_visits_only_due_buckets() {
        let c: ClockCache<u64> = ClockCache::new(64);
        // 8 entries due soon, 40 due far in the future.
        for i in 0..8u64 {
            c.insert(format!("soon{i}").as_bytes(), i, 10 * MS + i);
        }
        for i in 0..40u64 {
            c.insert(format!("late{i:02}").as_bytes(), i, 100_000 * MS + i);
        }
        let due = c.expiring(9 * MS, 2 * MS, 16);
        assert_eq!(due.len(), 8);
        assert!(due.iter().all(|(k, _)| k.starts_with(b"soon")));
        // Far-future entries stay filed: a later scan at their time sees them.
        let later = c.expiring(100_000 * MS, MS, 64);
        assert_eq!(later.len(), 40);
    }

    #[test]
    fn expiring_respects_limit_and_keeps_leftovers() {
        let c: ClockCache<u64> = ClockCache::new(64);
        for i in 0..20u64 {
            c.insert(format!("e{i:02}").as_bytes(), i, 5 * MS);
        }
        let first = c.expiring(5 * MS, MS, 8);
        assert_eq!(first.len(), 8);
        let rest = c.expiring(5 * MS, MS, 64);
        assert_eq!(rest.len(), 12, "unharvested entries must stay filed");
    }

    #[test]
    fn refile_moves_the_wheel_entry() {
        let c: ClockCache<u64> = ClockCache::new(8);
        c.insert(b"r", 7, 10 * MS);
        c.refile(b"r", 500 * MS);
        assert!(c.expiring(10 * MS, MS, 8).is_empty(), "old filing is stale");
        let due = c.expiring(500 * MS, MS, 8);
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].0, b"r");
    }

    /// Live keys after `seeded_churn(20_000)`, captured from the eagerly
    /// allocated cache.
    const SURVIVORS: [&str; 64] = [
        "sk003", "sk008", "sk013", "sk014", "sk017", "sk021", "sk022", "sk025", "sk026", "sk027",
        "sk029", "sk030", "sk031", "sk033", "sk036", "sk037", "sk040", "sk041", "sk043", "sk044",
        "sk045", "sk048", "sk049", "sk050", "sk051", "sk054", "sk055", "sk057", "sk061", "sk063",
        "sk064", "sk069", "sk071", "sk073", "sk076", "sk077", "sk078", "sk083", "sk084", "sk085",
        "sk086", "sk092", "sk096", "sk106", "sk109", "sk110", "sk117", "sk118", "sk120", "sk130",
        "sk139", "sk143", "sk144", "sk147", "sk154", "sk160", "sk170", "sk178", "sk185", "sk193",
        "sk195", "sk209", "sk213", "sk224",
    ];
    const SURVIVOR_VALUE_SUM: u64 = 1_265_168;
    const SURVIVOR_STATS: ClockCacheStats = ClockCacheStats {
        hits: 1_950,
        misses: 3_996,
        evictions: 1_273,
        rejected: 4_683,
    };

    /// Runs a seeded insert/get/remove/`expiring` mix over 256 keys
    /// (skewed towards the low ids) on a capacity-64 cache, far past full.
    /// Returns the cache and the high-water mark of `len()`.
    fn seeded_churn(steps: usize) -> (ClockCache<u64>, usize) {
        let c: ClockCache<u64> = ClockCache::new(64);
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut high_water = 0;
        for step in 0..steps as u64 {
            let r = next();
            // min of two draws skews towards low ids, giving a hot set.
            let id = (r % 256).min((r >> 8) % 256);
            let key = format!("sk{id:03}");
            match (r >> 16) % 10 {
                0..=4 => {
                    c.insert(key.as_bytes(), step, (step + (r >> 24) % 512) * MS);
                }
                5..=7 => {
                    c.get(key.as_bytes());
                }
                8 => {
                    c.remove(key.as_bytes());
                }
                _ => {
                    c.expiring(step * MS, 64 * MS, 8);
                }
            }
            high_water = high_water.max(c.len());
            let slots = c.inner.lock().unwrap().slots.len();
            assert!(
                slots <= high_water.min(c.capacity()),
                "step {step}: {slots} slots for high water {high_water}"
            );
        }
        (c, high_water)
    }

    /// Pins the outcome of a seeded churn to what the eagerly allocated
    /// cache (a slot array pre-filled to capacity) produced: growing the
    /// array on demand must not change placement, admission or eviction.
    #[test]
    fn seeded_churn_matches_eager_allocation() {
        let (c, high_water) = seeded_churn(20_000);
        assert_eq!(high_water, 64, "the sequence must fill the cache");
        let mut live = Vec::new();
        c.for_each(|k, v| live.push((String::from_utf8(k.to_vec()).unwrap(), *v)));
        let mut keys: Vec<&str> = live.iter().map(|(k, _)| k.as_str()).collect();
        keys.sort_unstable();
        let sum: u64 = live.iter().map(|(_, v)| v).sum();
        assert_eq!(keys, SURVIVORS);
        assert_eq!(sum, SURVIVOR_VALUE_SUM);
        assert_eq!(c.stats(), SURVIVOR_STATS);
    }

    #[test]
    fn slot_array_grows_only_to_the_high_water_mark() {
        let c: ClockCache<u64> = ClockCache::new(1 << 16);
        assert_eq!(c.inner.lock().unwrap().slots.len(), 0);
        for i in 0..10u64 {
            c.insert(format!("g{i}").as_bytes(), i, 100 * MS);
        }
        for i in 0..5u64 {
            c.remove(format!("g{i}").as_bytes());
        }
        // Released slots are reused before the array grows again.
        for i in 10..15u64 {
            c.insert(format!("g{i}").as_bytes(), i, 100 * MS);
        }
        assert_eq!(c.inner.lock().unwrap().slots.len(), 10);
    }

    #[test]
    fn stale_wheel_entries_for_evicted_slots_are_dropped() {
        let c: ClockCache<u64> = ClockCache::new(2);
        c.insert(b"x", 1, 10 * MS);
        c.insert(b"y", 2, 10 * MS);
        c.remove(b"x");
        c.insert(b"z", 3, 10 * MS);
        let due = c.expiring(10 * MS, MS, 8);
        let keys: Vec<&[u8]> = due.iter().map(|(k, _)| k.as_slice()).collect();
        assert!(keys.contains(&b"y".as_slice()));
        assert!(keys.contains(&b"z".as_slice()));
        assert!(!keys.contains(&b"x".as_slice()));
    }
}
