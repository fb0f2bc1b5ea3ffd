//! A set-associative cache array with LRU replacement.
//!
//! Holds only *stable* MOSI states; transient transaction state lives in the
//! controllers' MSHR / writeback buffers. The paper's target is a 4 MB
//! 4-way unified L2 with 64-byte blocks; the geometry is configurable.

use crate::types::{BlockAddr, BlockData};
use std::fmt;

/// Stable MOSI states. `I` is represented by absence from the array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mosi {
    /// Modified: sole, dirty, owned copy.
    M,
    /// Owned: dirty, shared with S copies elsewhere; this cache responds.
    O,
    /// Shared: clean read-only copy.
    S,
}

impl Mosi {
    /// Short name for traces and the transition registry.
    pub fn name(self) -> &'static str {
        match self {
            Mosi::M => "M",
            Mosi::O => "O",
            Mosi::S => "S",
        }
    }
}

impl fmt::Display for Mosi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One resident cache line.
#[derive(Debug, Clone)]
struct Line {
    block: BlockAddr,
    state: Mosi,
    data: BlockData,
    lru: u64,
}

/// A block evicted to make room for a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// The evicted block.
    pub block: BlockAddr,
    /// Its state at eviction (M/O victims must be written back).
    pub state: Mosi,
    /// Its data (needed for the writeback).
    pub data: BlockData,
}

/// Cache geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Number of sets (power of two not required).
    pub sets: usize,
    /// Associativity.
    pub ways: usize,
}

/// The set-associative array.
///
/// # Example
///
/// ```
/// use bash_coherence::cache::{CacheArray, CacheGeometry, Mosi};
/// use bash_coherence::types::{BlockAddr, BlockData};
///
/// let mut cache = CacheArray::new(CacheGeometry { sets: 2, ways: 1 });
/// assert!(cache.insert(BlockAddr(0), Mosi::S, BlockData::ZERO).is_none());
/// // Same set (2 sets ⇒ blocks 0 and 2 collide), 1 way ⇒ eviction.
/// let victim = cache.insert(BlockAddr(2), Mosi::M, BlockData::ZERO).unwrap();
/// assert_eq!(victim.block, BlockAddr(0));
/// ```
#[derive(Debug, Clone)]
pub struct CacheArray {
    geometry: CacheGeometry,
    sets: Vec<Vec<Line>>,
    stamp: u64,
}

impl CacheArray {
    /// Builds an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if sets or ways is zero.
    pub fn new(geometry: CacheGeometry) -> Self {
        assert!(geometry.sets > 0 && geometry.ways > 0);
        CacheArray {
            geometry,
            sets: (0..geometry.sets).map(|_| Vec::new()).collect(),
            stamp: 0,
        }
    }

    /// The geometry this cache was built with.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    fn set_of(&self, block: BlockAddr) -> usize {
        (block.0 % self.geometry.sets as u64) as usize
    }

    /// Current state of `block`, or `None` when invalid (not resident).
    pub fn state(&self, block: BlockAddr) -> Option<Mosi> {
        let set = &self.sets[self.set_of(block)];
        set.iter().find(|l| l.block == block).map(|l| l.state)
    }

    /// Reads the block's data without touching LRU (snoop responses).
    pub fn data(&self, block: BlockAddr) -> Option<BlockData> {
        let set = &self.sets[self.set_of(block)];
        set.iter().find(|l| l.block == block).map(|l| l.data)
    }

    /// A processor access: returns the state and bumps LRU on hit.
    pub fn touch(&mut self, block: BlockAddr) -> Option<Mosi> {
        self.stamp += 1;
        let stamp = self.stamp;
        let set_idx = self.set_of(block);
        let set = &mut self.sets[set_idx];
        set.iter_mut().find(|l| l.block == block).map(|l| {
            l.lru = stamp;
            l.state
        })
    }

    /// Changes the state of a resident block.
    ///
    /// # Panics
    ///
    /// Panics if the block is not resident.
    pub fn set_state(&mut self, block: BlockAddr, state: Mosi) {
        let set_idx = self.set_of(block);
        let line = self.sets[set_idx]
            .iter_mut()
            .find(|l| l.block == block)
            .expect("set_state on non-resident block");
        line.state = state;
    }

    /// Overwrites one word of a resident block (a store hit).
    ///
    /// # Panics
    ///
    /// Panics if the block is not resident.
    pub fn write_word(&mut self, block: BlockAddr, word: usize, value: u64) {
        let set_idx = self.set_of(block);
        let line = self.sets[set_idx]
            .iter_mut()
            .find(|l| l.block == block)
            .expect("write_word on non-resident block");
        line.data.write(word, value);
    }

    /// Removes a block (silent S→I drop, invalidation, or writeback start).
    /// Returns its data if it was resident.
    pub fn invalidate(&mut self, block: BlockAddr) -> Option<BlockData> {
        let set_idx = self.set_of(block);
        let set = &mut self.sets[set_idx];
        let pos = set.iter().position(|l| l.block == block)?;
        Some(set.swap_remove(pos).data)
    }

    /// Fills `block` with `state`/`data`, evicting the LRU line of the set
    /// if it is full. The victim (if any) is returned so the controller can
    /// write back M/O victims.
    ///
    /// # Panics
    ///
    /// Panics if the block is already resident (fills only happen for
    /// invalid blocks).
    pub fn insert(&mut self, block: BlockAddr, state: Mosi, data: BlockData) -> Option<Victim> {
        self.stamp += 1;
        let stamp = self.stamp;
        let ways = self.geometry.ways;
        let set_idx = self.set_of(block);
        let set = &mut self.sets[set_idx];
        assert!(
            set.iter().all(|l| l.block != block),
            "insert of already-resident block"
        );
        let victim = if set.len() >= ways {
            let (pos, _) = set
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                .expect("non-empty set");
            let evicted = set.swap_remove(pos);
            Some(Victim {
                block: evicted.block,
                state: evicted.state,
                data: evicted.data,
            })
        } else {
            None
        };
        set.push(Line {
            block,
            state,
            data,
            lru: stamp,
        });
        victim
    }

    /// Iterates `(block, state)` over all resident lines (invariant checks).
    pub fn iter(&self) -> impl Iterator<Item = (BlockAddr, Mosi)> + '_ {
        self.sets
            .iter()
            .flat_map(|s| s.iter().map(|l| (l.block, l.state)))
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geo(sets: usize, ways: usize) -> CacheGeometry {
        CacheGeometry { sets, ways }
    }

    #[test]
    fn miss_then_hit() {
        let mut c = CacheArray::new(geo(4, 2));
        assert_eq!(c.touch(BlockAddr(9)), None);
        c.insert(BlockAddr(9), Mosi::S, BlockData::ZERO);
        assert_eq!(c.touch(BlockAddr(9)), Some(Mosi::S));
        assert_eq!(c.state(BlockAddr(9)), Some(Mosi::S));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = CacheArray::new(geo(1, 2));
        c.insert(BlockAddr(1), Mosi::S, BlockData::ZERO);
        c.insert(BlockAddr(2), Mosi::S, BlockData::ZERO);
        c.touch(BlockAddr(1)); // block 2 is now LRU
        let v = c.insert(BlockAddr(3), Mosi::M, BlockData::ZERO).unwrap();
        assert_eq!(v.block, BlockAddr(2));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn victim_carries_state_and_data() {
        let mut c = CacheArray::new(geo(1, 1));
        let mut d = BlockData::ZERO;
        d.write(0, 42);
        c.insert(BlockAddr(5), Mosi::M, d);
        let v = c.insert(BlockAddr(6), Mosi::S, BlockData::ZERO).unwrap();
        assert_eq!(v.state, Mosi::M);
        assert_eq!(v.data.read(0), 42);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = CacheArray::new(geo(2, 2));
        c.insert(BlockAddr(0), Mosi::O, BlockData::ZERO);
        assert!(c.invalidate(BlockAddr(0)).is_some());
        assert_eq!(c.state(BlockAddr(0)), None);
        assert!(c.invalidate(BlockAddr(0)).is_none());
    }

    #[test]
    fn write_word_updates_data() {
        let mut c = CacheArray::new(geo(2, 2));
        c.insert(BlockAddr(0), Mosi::M, BlockData::ZERO);
        c.write_word(BlockAddr(0), 3, 77);
        assert_eq!(c.data(BlockAddr(0)).unwrap().read(3), 77);
    }

    #[test]
    fn blocks_map_to_distinct_sets() {
        let mut c = CacheArray::new(geo(2, 1));
        c.insert(BlockAddr(0), Mosi::S, BlockData::ZERO);
        // Block 1 → set 1: no eviction despite 1 way.
        assert!(c.insert(BlockAddr(1), Mosi::S, BlockData::ZERO).is_none());
        assert_eq!(c.len(), 2);
    }

    #[test]
    #[should_panic(expected = "already-resident")]
    fn double_insert_panics() {
        let mut c = CacheArray::new(geo(2, 2));
        c.insert(BlockAddr(0), Mosi::S, BlockData::ZERO);
        c.insert(BlockAddr(0), Mosi::M, BlockData::ZERO);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;
        use std::collections::HashMap;

        #[derive(Debug, Clone)]
        enum Op {
            Touch(u64),
            Insert(u64),
            Invalidate(u64),
            Write(u64, usize, u64),
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0u64..64).prop_map(Op::Touch),
                (0u64..64).prop_map(Op::Insert),
                (0u64..64).prop_map(Op::Invalidate),
                ((0u64..64), (0usize..8), any::<u64>()).prop_map(|(b, w, v)| Op::Write(b, w, v)),
            ]
        }

        proptest! {
            /// Model-based test against a hash-map reference: residency,
            /// per-set capacity, data round-trips and eviction bookkeeping
            /// all agree after any operation sequence.
            #[test]
            fn prop_cache_matches_reference_model(
                ops in proptest::collection::vec(op_strategy(), 1..300),
            ) {
                let geometry = CacheGeometry { sets: 4, ways: 2 };
                let mut cache = CacheArray::new(geometry);
                let mut model: HashMap<u64, BlockData> = HashMap::new();
                for op in ops {
                    match op {
                        Op::Touch(b) => {
                            prop_assert_eq!(
                                cache.touch(BlockAddr(b)).is_some(),
                                model.contains_key(&b)
                            );
                        }
                        Op::Insert(b) => {
                            if model.contains_key(&b) {
                                continue; // fills only happen for invalid blocks
                            }
                            let mut d = BlockData::ZERO;
                            d.write(0, b + 1);
                            if let Some(v) = cache.insert(BlockAddr(b), Mosi::M, d) {
                                // The victim must be from the same set and
                                // must have been resident in the model.
                                prop_assert_eq!(v.block.0 % 4, b % 4);
                                prop_assert!(model.remove(&v.block.0).is_some());
                                prop_assert_eq!(v.data, model.get(&v.block.0).copied().unwrap_or(v.data));
                            }
                            model.insert(b, d);
                        }
                        Op::Invalidate(b) => {
                            prop_assert_eq!(
                                cache.invalidate(BlockAddr(b)).is_some(),
                                model.remove(&b).is_some()
                            );
                        }
                        Op::Write(b, w, val) => {
                            if let Some(d) = model.get_mut(&b) {
                                d.write(w, val);
                                cache.write_word(BlockAddr(b), w, val);
                            }
                        }
                    }
                    // Global invariants after every step.
                    prop_assert_eq!(cache.len(), model.len());
                    for (&b, d) in &model {
                        prop_assert_eq!(cache.data(BlockAddr(b)), Some(*d));
                    }
                    // Per-set capacity is never exceeded.
                    let mut per_set = [0usize; 4];
                    for (b, _) in cache.iter() {
                        per_set[(b.0 % 4) as usize] += 1;
                    }
                    prop_assert!(per_set.iter().all(|&n| n <= 2));
                }
            }

            /// The LRU victim is always the least recently touched line of
            /// its set.
            #[test]
            fn prop_lru_evicts_least_recent(
                touches in proptest::collection::vec(0u64..3, 0..20),
            ) {
                // One set (sets=1, ways=2): blocks 0 and 1 resident, then
                // insert 2 and check the victim.
                let mut cache = CacheArray::new(CacheGeometry { sets: 1, ways: 2 });
                cache.insert(BlockAddr(0), Mosi::S, BlockData::ZERO);
                cache.insert(BlockAddr(1), Mosi::S, BlockData::ZERO);
                let mut last_touch: HashMap<u64, usize> = HashMap::from([(0, 0), (1, 1)]);
                for (i, &b) in touches.iter().enumerate() {
                    if b < 2 {
                        cache.touch(BlockAddr(b));
                        last_touch.insert(b, i + 2);
                    }
                }
                let expected = if last_touch[&0] < last_touch[&1] { 0 } else { 1 };
                let victim = cache.insert(BlockAddr(2), Mosi::M, BlockData::ZERO).unwrap();
                prop_assert_eq!(victim.block.0, expected);
            }
        }
    }
}
