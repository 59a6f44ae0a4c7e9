//! The client-side remote-pointer cache of §4.2.4: a bounded CLOCK cache
//! ([`ClockCache`]) with TinyLFU-style admission through a lock-free
//! count-min sketch ([`FreqSketch`]) and an integrated lease-expiry wheel.
//! One cache is either private to a client or shared by every client on a
//! node through an `Arc`.

mod clock;
mod sketch;

pub use clock::{ClockCache, ClockCacheStats};
pub use sketch::FreqSketch;

/// Hashes a key with FNV-1a + a splitmix64 avalanche; stable and
/// dependency-free. The bytes hashed are the key's native-endian `usize`
/// length followed by the key itself (what `Hash for [u8]` feeds a hasher).
/// CLOCK placement and sketch admission depend on every bit of the result.
pub(crate) fn hash_bytes(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in key.len().to_ne_bytes().iter().chain(key) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::hash_bytes;

    /// Golden values (64-bit little-endian targets). A hash that drops the
    /// length prefix or changes a constant reorders CLOCK placement and
    /// sketch admission, and with them every cache-dependent figure.
    #[test]
    fn hash_bytes_matches_golden_values() {
        assert_eq!(hash_bytes(b""), 0x813f_0174_a236_7c13);
        assert_eq!(hash_bytes(b"a"), 0xb2a8_1edc_870f_611d);
        assert_eq!(hash_bytes(b"\0"), 0x2bd2_f3b4_ca8a_517b);
        assert_eq!(hash_bytes(b"user000000000042"), 0xfdd5_5e39_27ab_49bf);
        assert_eq!(hash_bytes(&[0xff; 32]), 0xe092_90e6_ff49_e129);
    }
}
