//! Deterministic FNV-1a hashing.
//!
//! Used for two jobs that must not depend on `std`'s randomized
//! `RandomState` (banned by emr-lint R1): picking the shard of a mesh
//! name, and folding served response bytes into the repository
//! benchmark's run checksums. FNV-1a is tiny, stable across platforms
//! and runs, and good enough for both.

/// FNV-1a offset basis (64-bit).
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a prime (64-bit).
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into an FNV-1a state. Start from [`FNV_OFFSET`] and
/// chain calls to hash a logical sequence of byte strings.
pub fn fnv1a64(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// Folds one `u64` (little-endian) into an FNV-1a state; used to combine
/// per-client digests in client order.
pub fn fnv1a64_u64(state: u64, v: u64) -> u64 {
    fnv1a64(state, &v.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a64(FNV_OFFSET, b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(FNV_OFFSET, b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(FNV_OFFSET, b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn chaining_matches_concatenation() {
        let whole = fnv1a64(FNV_OFFSET, b"hello world");
        let chained = fnv1a64(fnv1a64(FNV_OFFSET, b"hello "), b"world");
        assert_eq!(whole, chained);
        assert_ne!(fnv1a64_u64(FNV_OFFSET, 1), fnv1a64_u64(FNV_OFFSET, 2));
    }
}
