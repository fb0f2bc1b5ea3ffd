//! Per-block state tables for the coherence controllers.
//!
//! Every controller used to resolve a block through two to four separate
//! SipHash `HashMap`s per event (state map + data store, writeback map +
//! tracked-sharer map). [`BlockTable`] replaces those pairs with one
//! table holding a *combined* entry per block, so the per-event hot path
//! costs a single lookup.
//!
//! Design points:
//!
//! * **std's SwissTable** (`std::collections::HashMap`). A lookup first
//!   compares a 16-byte group of control bytes, so a miss — the common
//!   case for a snooping cache that does not hold the block — is
//!   rejected without reading any (wide, cold) entry.
//! * **Folded Fibonacci hashing** — `h = (key ^ seed) * 2^64/φ`, then
//!   `h ^ (h >> 32)`. The multiply scatters dense, sequential and strided
//!   block addresses into the high bits without SipHash's per-lookup
//!   setup cost; the fold carries them down into the low bits SwissTable
//!   takes its bucket index from (a bare multiply leaves the low bits of
//!   a stride-4096 address all zero).
//! * **No ordering guarantees** on [`BlockTable::values`]: controllers
//!   may use it only for order-independent folds (quiescence booleans).
//!   Anything feeding canonical report text must go through
//!   [`BlockTable::sorted_keys`], which drains in block-address order.
//!
//! The probe seed is normally a fixed constant; tests inject alternate
//! seeds through [`set_probe_seed`] to prove no observable output
//! depends on iteration order (the goldens-under-both-seeds gate).

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::types::BlockAddr;

/// 2^64 / φ — the classic Fibonacci-hashing multiplier.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// Process-wide probe seed newly created tables pick up. Zero in normal
/// operation; the order-independence tests flip it between runs.
static PROBE_SEED: AtomicU64 = AtomicU64::new(0);

/// Overrides the probe seed used by tables created from now on.
///
/// Testing hook only: changing the seed permutes every table's iteration
/// order without changing its contents, which the report-determinism
/// tests use to prove canonical output never leaks hash order. Not for
/// production use — runs mixing seeds are still deterministic but their
/// tables hash differently.
#[doc(hidden)]
pub fn set_probe_seed(seed: u64) {
    PROBE_SEED.store(seed, Ordering::Relaxed);
}

/// Builds [`FoldedFibHasher`]s for one table's seed.
#[derive(Debug, Clone, Copy)]
struct FoldedFib {
    seed: u64,
}

impl BuildHasher for FoldedFib {
    type Hasher = FoldedFibHasher;

    fn build_hasher(&self) -> FoldedFibHasher {
        FoldedFibHasher {
            seed: self.seed,
            hash: 0,
        }
    }
}

/// The folded Fibonacci hash of the one `u64` block number a table key
/// is made of.
struct FoldedFibHasher {
    seed: u64,
    hash: u64,
}

impl Hasher for FoldedFibHasher {
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("block tables are keyed by u64 block numbers")
    }

    fn write_u64(&mut self, key: u64) {
        let h = (key ^ self.seed).wrapping_mul(FIB);
        self.hash = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A map from [`BlockAddr`] to a combined per-block entry. See the
/// module docs for the hashing scheme and the ordering contract.
#[derive(Debug, Clone)]
pub struct BlockTable<V> {
    map: HashMap<u64, V, FoldedFib>,
}

impl<V> Default for BlockTable<V> {
    fn default() -> Self {
        BlockTable::new()
    }
}

impl<V> BlockTable<V> {
    /// An empty table hashing with the current probe seed. Allocates
    /// nothing until the first insert, so the per-node controllers of a
    /// 4096-node system stay cheap while untouched.
    pub fn new() -> Self {
        let seed = PROBE_SEED.load(Ordering::Relaxed);
        BlockTable {
            map: HashMap::with_hasher(FoldedFib { seed }),
        }
    }

    /// Number of blocks with an entry.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no block has an entry.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The entry for `block`, if present.
    pub fn get(&self, block: BlockAddr) -> Option<&V> {
        self.map.get(&block.0)
    }

    /// The entry for `block`, if present (mutable).
    pub fn get_mut(&mut self, block: BlockAddr) -> Option<&mut V> {
        self.map.get_mut(&block.0)
    }

    /// The entry for `block`, inserting `init()` if absent.
    pub fn or_insert_with(&mut self, block: BlockAddr, init: impl FnOnce() -> V) -> &mut V {
        self.map.entry(block.0).or_insert_with(init)
    }

    /// The entry for `block`, inserting the default if absent.
    pub fn or_default(&mut self, block: BlockAddr) -> &mut V
    where
        V: Default,
    {
        self.or_insert_with(block, V::default)
    }

    /// Removes and returns the entry for `block`, if present.
    pub fn remove(&mut self, block: BlockAddr) -> Option<V> {
        self.map.remove(&block.0)
    }

    /// Entries in **unspecified (hash) order** — for order-independent
    /// folds only (quiescence booleans, counters). Canonical output must
    /// use [`BlockTable::sorted_keys`].
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.map.values()
    }

    /// All block addresses, sorted ascending — the explicit deterministic
    /// drain order for anything feeding report text or aggregated stats.
    pub fn sorted_keys(&self) -> Vec<BlockAddr> {
        let mut keys: Vec<BlockAddr> = self.map.keys().map(|&k| BlockAddr(k)).collect();
        keys.sort_unstable_by_key(|b| b.0);
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn insert_get_grow() {
        let mut t: BlockTable<u64> = BlockTable::new();
        assert!(t.is_empty());
        assert!(t.get(BlockAddr(7)).is_none());
        for i in 0..1000u64 {
            *t.or_default(BlockAddr(i)) = i * 3;
        }
        assert_eq!(t.len(), 1000);
        for i in 0..1000u64 {
            assert_eq!(t.get(BlockAddr(i)), Some(&(i * 3)));
            *t.get_mut(BlockAddr(i)).unwrap() += 1;
        }
        assert_eq!(t.get(BlockAddr(999)), Some(&(999 * 3 + 1)));
        assert!(t.get(BlockAddr(1000)).is_none());
        // or_insert_with on an existing key must not overwrite.
        assert_eq!(*t.or_insert_with(BlockAddr(0), || 555), 1);
        assert_eq!(t.remove(BlockAddr(0)), Some(1));
        assert_eq!(t.remove(BlockAddr(0)), None);
        assert!(t.get(BlockAddr(0)).is_none());
        assert_eq!(t.len(), 999);
    }

    #[test]
    fn sorted_keys_are_sorted_regardless_of_seed() {
        for seed in [0u64, 0xDEAD_BEEF] {
            set_probe_seed(seed);
            let mut t: BlockTable<u8> = BlockTable::new();
            for i in [9u64, 2, 77, 31, 4, 0] {
                t.or_default(BlockAddr(i));
            }
            let keys: Vec<u64> = t.sorted_keys().iter().map(|b| b.0).collect();
            assert_eq!(keys, vec![0, 2, 4, 9, 31, 77]);
        }
        set_probe_seed(0);
    }

    /// SwissTable takes its bucket index from the hash's low bits. Page-
    /// strided block numbers leave the low bits of the bare multiply all
    /// zero (one bucket for every key); the fold spreads them over at
    /// least 7/8 of 4096 buckets, where a uniformly random hash would
    /// reach about 63%.
    #[test]
    fn fold_spreads_strided_addresses_over_low_bits() {
        for seed in [0u64, 0x5EED_FACE_CAFE_F00D] {
            let hasher = FoldedFib { seed };
            let low: HashSet<u64> = (0..4096u64)
                .map(|i| hasher.hash_one(i * 4096) & 4095)
                .collect();
            assert!(low.len() >= 3584, "seed {seed:#x}: {} buckets", low.len());
        }
    }

    proptest! {
        /// The table agrees with a `HashMap` across arbitrary key sets —
        /// including the clustered/strided addresses block maps see.
        #[test]
        fn prop_matches_hashmap(
            keys in proptest::collection::vec(0u64..10_000, 0..300),
            stride in 1u64..64,
        ) {
            let mut t: BlockTable<u64> = BlockTable::new();
            let mut m: HashMap<u64, u64> = HashMap::new();
            for (n, &k) in keys.iter().enumerate() {
                let k = k * stride;
                *t.or_default(BlockAddr(k)) = n as u64;
                m.insert(k, n as u64);
            }
            prop_assert_eq!(t.len(), m.len());
            for (&k, v) in &m {
                prop_assert_eq!(t.get(BlockAddr(k)), Some(v));
            }
            let mut want: Vec<u64> = m.keys().copied().collect();
            want.sort_unstable();
            let got: Vec<u64> = t.sorted_keys().iter().map(|b| b.0).collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(t.values().count(), m.len());
        }
    }
}
