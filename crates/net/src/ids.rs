//! Node identifiers and destination sets.
//!
//! [`NodeSet`] is scale-adaptive: the common near-empty sets (sharer
//! lists, dualcast masks) live inline, contiguous masks (full
//! broadcasts, hierarchy cluster-casts) are carried as lazy spans that
//! never materialize per-node bits, and only genuinely scattered large
//! sets spill to heap-allocated bitset words sized by their largest
//! member. This is what lifts the node cap from the old fixed
//! `[u64; 4]` bitset's 256 to [`MAX_NODES`] without making every
//! message carry a 4096-bit mask.

use std::fmt;

/// Maximum number of nodes a [`NodeSet`] can represent.
pub const MAX_NODES: usize = 4096;

/// Number of inline ids the small representation holds before spilling.
const SMALL_CAP: usize = 10;

/// Identifies one integrated processor/memory node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u16);

impl NodeId {
    /// The numeric index of this node.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// A half-open id range `[start, end)`. `(0, 0)` marks an unused slot.
type Span = (u16, u16);

/// The adaptive storage behind [`NodeSet`].
///
/// Invariants:
/// * `Small`: `ids[..len]` sorted strictly ascending.
/// * `Spans`: `spans[0]` non-empty when the set is non-empty; `spans[1]`
///   either `(0, 0)` (unused) or non-empty with `spans[1].0 >
///   spans[0].1` (disjoint, non-adjacent, ascending) — so equal sets
///   have structurally equal span arrays.
/// * `Big`: bit `i` of `words[i / 64]` set iff node `i` is a member;
///   trailing all-zero words are permitted (ops use a zero-extended
///   word view).
#[derive(Clone)]
enum Repr {
    Small { len: u8, ids: [u16; SMALL_CAP] },
    Spans { spans: [Span; 2] },
    Big { words: Box<[u64]> },
}

/// A set of nodes, used as multicast destination mask and directory sharer
/// set. Supports ids `0..`[`MAX_NODES`].
///
/// The representation adapts to the set's shape (see the module docs):
/// comparisons, hashing and all set algebra are **semantic** — two sets
/// with the same members are equal regardless of how they are stored.
/// Iteration is always in increasing id order.
///
/// # Example
///
/// ```
/// use bash_net::{NodeId, NodeSet};
///
/// let mut mask = NodeSet::EMPTY;
/// mask.insert(NodeId(3));
/// mask.insert(NodeId(7));
/// assert!(mask.contains(NodeId(3)));
/// assert_eq!(mask.len(), 2);
/// assert!(NodeSet::all(8).is_superset(&mask));
/// ```
#[derive(Clone)]
pub struct NodeSet {
    repr: Repr,
}

impl NodeSet {
    /// The empty set.
    pub const EMPTY: NodeSet = NodeSet {
        repr: Repr::Small {
            len: 0,
            ids: [0; SMALL_CAP],
        },
    };

    /// The set `{0, 1, .., n-1}` — a full broadcast mask for an `n`-node
    /// system. Stored as one lazy span regardless of `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n > MAX_NODES`.
    pub fn all(n: usize) -> NodeSet {
        assert!(n <= MAX_NODES, "at most {MAX_NODES} nodes supported");
        NodeSet::range(0, n as u16)
    }

    /// The contiguous set `{start, .., end-1}` (half-open; empty when
    /// `end <= start`). Stored as one lazy span — this is how hierarchy
    /// cluster masks avoid materializing per-node bits.
    ///
    /// # Panics
    ///
    /// Panics if `end > MAX_NODES`.
    pub fn range(start: u16, end: u16) -> NodeSet {
        assert!(
            (end as usize) <= MAX_NODES,
            "at most {MAX_NODES} nodes supported"
        );
        if end <= start {
            return NodeSet::EMPTY;
        }
        NodeSet {
            repr: Repr::Spans {
                spans: [(start, end), (0, 0)],
            },
        }
    }

    /// A set containing only `node`.
    #[inline]
    pub fn singleton(node: NodeId) -> NodeSet {
        let mut s = NodeSet::EMPTY;
        s.insert(node);
        s
    }

    /// Builds a set from an iterator of nodes.
    pub fn from_nodes<I: IntoIterator<Item = NodeId>>(nodes: I) -> NodeSet {
        let mut s = NodeSet::EMPTY;
        for n in nodes {
            s.insert(n);
        }
        s
    }

    fn check_id(node: NodeId) {
        assert!(
            node.index() < MAX_NODES,
            "node id {} out of range",
            node.index()
        );
    }

    /// Adds `node`; returns true if it was newly inserted.
    pub fn insert(&mut self, node: NodeId) -> bool {
        Self::check_id(node);
        let id = node.0;
        // Spill decisions hand a replacement representation out of the
        // match so no `&mut self.repr` borrow is live when it lands.
        let mut spill: Option<Repr> = None;
        let inserted = match &mut self.repr {
            Repr::Small { len, ids } => {
                let n = *len as usize;
                match ids[..n].binary_search(&id) {
                    Ok(_) => false,
                    Err(pos) => {
                        if n < SMALL_CAP {
                            ids.copy_within(pos..n, pos + 1);
                            ids[pos] = id;
                            *len += 1;
                        } else {
                            let top = ids[n - 1].max(id);
                            let mut words = vec![0u64; words_for(top)].into_boxed_slice();
                            for &x in ids.iter() {
                                set_bit(&mut words, x);
                            }
                            set_bit(&mut words, id);
                            spill = Some(Repr::Big { words });
                        }
                        true
                    }
                }
            }
            Repr::Spans { spans } => {
                if spans_contain(spans, id) {
                    false
                } else if try_span_insert(spans, id) {
                    true
                } else {
                    // No slot fits: demote to Small when everything fits
                    // inline, otherwise spill to heap words.
                    let total = span_len(spans) + 1;
                    if total <= SMALL_CAP {
                        let mut ids = [0u16; SMALL_CAP];
                        let mut n = 0;
                        for (s, e) in active_spans(spans) {
                            for i in s..e {
                                ids[n] = i;
                                n += 1;
                            }
                        }
                        ids[n] = id;
                        n += 1;
                        ids[..n].sort_unstable();
                        spill = Some(Repr::Small { len: n as u8, ids });
                    } else {
                        let top = spans_max_id(spans).max(id);
                        let mut words = vec![0u64; words_for(top)].into_boxed_slice();
                        for (s, e) in active_spans(spans) {
                            for i in s..e {
                                set_bit(&mut words, i);
                            }
                        }
                        set_bit(&mut words, id);
                        spill = Some(Repr::Big { words });
                    }
                    true
                }
            }
            Repr::Big { words } => {
                let wi = id as usize / 64;
                if wi >= words.len() {
                    let mut grown = vec![0u64; wi + 1];
                    grown[..words.len()].copy_from_slice(words);
                    *words = grown.into_boxed_slice();
                }
                let bit = 1u64 << (id % 64);
                let was = words[wi] & bit != 0;
                words[wi] |= bit;
                !was
            }
        };
        if let Some(repr) = spill {
            self.repr = repr;
        }
        inserted
    }

    /// Removes `node`; returns true if it was present.
    pub fn remove(&mut self, node: NodeId) -> bool {
        Self::check_id(node);
        let id = node.0;
        match &mut self.repr {
            Repr::Small { len, ids } => {
                let n = *len as usize;
                match ids[..n].binary_search(&id) {
                    Err(_) => false,
                    Ok(pos) => {
                        ids.copy_within(pos + 1..n, pos);
                        *len -= 1;
                        true
                    }
                }
            }
            Repr::Spans { spans } => {
                if !spans_contain(spans, id) {
                    return false;
                }
                if try_span_remove(spans, id) {
                    if spans[0].0 >= spans[0].1 {
                        // First span emptied: promote the second.
                        spans[0] = spans[1];
                        spans[1] = (0, 0);
                        if spans[0].0 >= spans[0].1 {
                            self.repr = NodeSet::EMPTY.repr;
                        }
                    }
                    return true;
                }
                // Interior split with both slots busy: fall off spans.
                let spans = *spans;
                let total = span_len(&spans) - 1;
                if total <= SMALL_CAP {
                    let mut ids = [0u16; SMALL_CAP];
                    let mut n = 0;
                    for (s, e) in active_spans(&spans) {
                        for i in s..e {
                            if i != id {
                                ids[n] = i;
                                n += 1;
                            }
                        }
                    }
                    self.repr = Repr::Small { len: n as u8, ids };
                } else {
                    let top = spans_max_id(&spans);
                    let mut words = vec![0u64; words_for(top)].into_boxed_slice();
                    for (s, e) in active_spans(&spans) {
                        for i in s..e {
                            set_bit(&mut words, i);
                        }
                    }
                    clear_bit(&mut words, id);
                    self.repr = Repr::Big { words };
                }
                true
            }
            Repr::Big { words } => {
                let wi = id as usize / 64;
                if wi >= words.len() {
                    return false;
                }
                let bit = 1u64 << (id % 64);
                let was = words[wi] & bit != 0;
                words[wi] &= !bit;
                was
            }
        }
    }

    /// True if `node` is in the set.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        let id = node.0;
        match &self.repr {
            Repr::Small { len, ids } => ids[..*len as usize].binary_search(&id).is_ok(),
            Repr::Spans { spans } => spans_contain(spans, id),
            Repr::Big { words } => {
                let wi = id as usize / 64;
                wi < words.len() && words[wi] & (1u64 << (id % 64)) != 0
            }
        }
    }

    /// Number of nodes in the set.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Small { len, .. } => *len as usize,
            Repr::Spans { spans } => span_len(spans),
            Repr::Big { words } => words.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }

    /// True when no node is in the set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        match &self.repr {
            Repr::Small { len, .. } => *len == 0,
            Repr::Spans { spans } => spans[0].0 >= spans[0].1 && spans[1].0 >= spans[1].1,
            Repr::Big { words } => words.iter().all(|&w| w == 0),
        }
    }

    /// Set union.
    pub fn union(&self, other: &NodeSet) -> NodeSet {
        if self.is_empty() {
            return other.clone();
        }
        if other.is_empty() {
            return self.clone();
        }
        match (&self.repr, &other.repr) {
            (Repr::Small { len: la, ids: a }, Repr::Small { len: lb, ids: b }) => {
                small_union(&a[..*la as usize], &b[..*lb as usize])
            }
            (Repr::Spans { spans }, Repr::Small { len, ids })
            | (Repr::Small { len, ids }, Repr::Spans { spans }) => {
                let mut out = NodeSet {
                    repr: Repr::Spans { spans: *spans },
                };
                for &id in &ids[..*len as usize] {
                    out.insert(NodeId(id));
                }
                out
            }
            (Repr::Spans { spans: a }, Repr::Spans { spans: b }) => spans_union(a, b),
            _ => {
                // At least one side is Big: word-wise or.
                let hint = self.max_id().max(other.max_id());
                let mut words = vec![0u64; words_for(hint)].into_boxed_slice();
                for (wi, w) in words.iter_mut().enumerate() {
                    *w = self.word_at(wi) | other.word_at(wi);
                }
                NodeSet {
                    repr: Repr::Big { words },
                }
            }
        }
    }

    /// Set difference (`self - other`).
    pub fn difference(&self, other: &NodeSet) -> NodeSet {
        if self.is_empty() || other.is_empty() {
            return self.clone();
        }
        match &self.repr {
            Repr::Small { len, ids } => {
                let mut out = [0u16; SMALL_CAP];
                let mut n = 0;
                for &id in &ids[..*len as usize] {
                    if !other.contains(NodeId(id)) {
                        out[n] = id;
                        n += 1;
                    }
                }
                NodeSet {
                    repr: Repr::Small {
                        len: n as u8,
                        ids: out,
                    },
                }
            }
            Repr::Spans { spans } => {
                if let Repr::Small { len, ids } = &other.repr {
                    let mut out = NodeSet {
                        repr: Repr::Spans { spans: *spans },
                    };
                    for &id in &ids[..*len as usize] {
                        out.remove(NodeId(id));
                    }
                    return out;
                }
                self.word_difference(other)
            }
            Repr::Big { .. } => self.word_difference(other),
        }
    }

    fn word_difference(&self, other: &NodeSet) -> NodeSet {
        let hint = self.max_id();
        let mut words = vec![0u64; words_for(hint)].into_boxed_slice();
        for (wi, w) in words.iter_mut().enumerate() {
            *w = self.word_at(wi) & !other.word_at(wi);
        }
        NodeSet {
            repr: Repr::Big { words },
        }
    }

    /// True if every node of `other` is also in `self`.
    pub fn is_superset(&self, other: &NodeSet) -> bool {
        match &other.repr {
            Repr::Small { len, ids } => ids[..*len as usize]
                .iter()
                .all(|&id| self.contains(NodeId(id))),
            Repr::Spans { spans } => match &self.repr {
                Repr::Spans { spans: mine } => active_spans(spans)
                    .all(|(s, e)| active_spans(mine).any(|(ms, me)| ms <= s && e <= me)),
                _ => {
                    let top = other.max_id();
                    (0..words_for(top)).all(|wi| {
                        let b = other.word_at(wi);
                        self.word_at(wi) & b == b
                    })
                }
            },
            Repr::Big { words } => words
                .iter()
                .enumerate()
                .all(|(wi, &b)| self.word_at(wi) & b == b),
        }
    }

    /// Removes all nodes.
    pub fn clear(&mut self) {
        *self = NodeSet::EMPTY;
    }

    /// Iterates the members in increasing id order.
    #[inline]
    pub fn iter(&self) -> NodeSetIter<'_> {
        NodeSetIter {
            inner: match &self.repr {
                Repr::Small { len, ids } => IterRepr::Small {
                    ids: &ids[..*len as usize],
                    i: 0,
                },
                Repr::Spans { spans } => IterRepr::Spans {
                    spans: *spans,
                    si: 0,
                    cur: spans[0].0,
                },
                Repr::Big { words } => IterRepr::Big {
                    words,
                    wi: 0,
                    bits: words.first().copied().unwrap_or(0),
                },
            },
        }
    }

    /// Largest member id, or 0 when empty (sizing hint for word ops).
    fn max_id(&self) -> u16 {
        match &self.repr {
            Repr::Small { len, ids } => {
                if *len == 0 {
                    0
                } else {
                    ids[*len as usize - 1]
                }
            }
            Repr::Spans { spans } => {
                let (s1, e1) = spans[1];
                if s1 < e1 {
                    e1 - 1
                } else if spans[0].0 < spans[0].1 {
                    spans[0].1 - 1
                } else {
                    0
                }
            }
            Repr::Big { words } => {
                for (wi, &w) in words.iter().enumerate().rev() {
                    if w != 0 {
                        return (wi * 64) as u16 + (63 - w.leading_zeros() as u16);
                    }
                }
                0
            }
        }
    }

    /// Bitset word `wi` of this set's zero-extended word view, whatever
    /// the representation.
    fn word_at(&self, wi: usize) -> u64 {
        match &self.repr {
            Repr::Small { len, ids } => {
                let lo = (wi * 64) as u16;
                let mut w = 0u64;
                for &id in &ids[..*len as usize] {
                    if id >= lo && (id as usize) < (wi + 1) * 64 {
                        w |= 1u64 << (id % 64);
                    }
                }
                w
            }
            Repr::Spans { spans } => {
                let mut w = 0u64;
                let lo = wi * 64;
                let hi = lo + 64;
                for (s, e) in active_spans(spans) {
                    let s = (s as usize).max(lo);
                    let e = (e as usize).min(hi);
                    if s < e {
                        // Bits [s-lo, e-lo) of this word.
                        let width = e - s;
                        let mask = if width == 64 {
                            !0u64
                        } else {
                            ((1u64 << width) - 1) << (s - lo)
                        };
                        w |= mask;
                    }
                }
                w
            }
            Repr::Big { words } => words.get(wi).copied().unwrap_or(0),
        }
    }
}

/// Words needed to hold bit `max_id`.
fn words_for(max_id: u16) -> usize {
    max_id as usize / 64 + 1
}

fn set_bit(words: &mut [u64], id: u16) {
    words[id as usize / 64] |= 1u64 << (id % 64);
}

fn clear_bit(words: &mut [u64], id: u16) {
    words[id as usize / 64] &= !(1u64 << (id % 64));
}

/// The non-empty spans of a slot array, in ascending order.
fn active_spans(spans: &[Span; 2]) -> impl Iterator<Item = Span> + '_ {
    spans.iter().copied().filter(|(s, e)| s < e)
}

fn spans_contain(spans: &[Span; 2], id: u16) -> bool {
    active_spans(spans).any(|(s, e)| s <= id && id < e)
}

fn span_len(spans: &[Span; 2]) -> usize {
    active_spans(spans).map(|(s, e)| (e - s) as usize).sum()
}

/// Largest member of a non-empty span array.
fn spans_max_id(spans: &[Span; 2]) -> u16 {
    active_spans(spans).map(|(_, e)| e - 1).max().unwrap_or(0)
}

/// Tries to add `id` (known absent) by extending a span edge or using a
/// free slot, preserving the sorted / disjoint / non-adjacent invariant.
/// Returns false when neither fits.
fn try_span_insert(spans: &mut [Span; 2], id: u16) -> bool {
    for i in 0..2 {
        let (s, e) = spans[i];
        if s >= e {
            continue;
        }
        if id + 1 == s {
            spans[i].0 = id;
            merge_adjacent(spans);
            return true;
        }
        if id == e {
            spans[i].1 = id + 1;
            merge_adjacent(spans);
            return true;
        }
    }
    // A free slot (only one active span, or fully empty).
    if spans[1].0 >= spans[1].1 {
        if spans[0].0 >= spans[0].1 {
            spans[0] = (id, id + 1);
        } else if id < spans[0].0 {
            spans[1] = spans[0];
            spans[0] = (id, id + 1);
        } else {
            spans[1] = (id, id + 1);
        }
        return true;
    }
    false
}

/// Re-merges the two slots if an edge extension made them adjacent.
fn merge_adjacent(spans: &mut [Span; 2]) {
    let (s0, e0) = spans[0];
    let (s1, e1) = spans[1];
    if s0 < e0 && s1 < e1 && e0 >= s1 {
        spans[0] = (s0, e1);
        spans[1] = (0, 0);
    }
}

/// Tries to remove `id` (known present) by shrinking a span edge or
/// splitting into the free slot. Returns false when a split is needed
/// but both slots are busy. May leave `spans[0]` empty for the caller
/// to normalize.
fn try_span_remove(spans: &mut [Span; 2], id: u16) -> bool {
    for i in 0..2 {
        let (s, e) = spans[i];
        if !(s < e && s <= id && id < e) {
            continue;
        }
        if id == s {
            spans[i].0 = s + 1;
            if spans[i].0 >= spans[i].1 && i == 1 {
                spans[1] = (0, 0);
            }
            return true;
        }
        if id + 1 == e {
            spans[i].1 = e - 1;
            if spans[i].0 >= spans[i].1 && i == 1 {
                spans[1] = (0, 0);
            }
            return true;
        }
        // Interior: split needs the other slot free. By the invariant a
        // free slot can only be slot 1 (so `i == 0` here), and the split
        // halves land in ascending order.
        if spans[1 - i].0 >= spans[1 - i].1 {
            spans[0] = (s, id);
            spans[1] = (id + 1, e);
            return true;
        }
        return false;
    }
    false
}

/// Union of two sorted inline id lists.
fn small_union(a: &[u16], b: &[u16]) -> NodeSet {
    let mut buf = [0u16; 2 * SMALL_CAP];
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() || j < b.len() {
        let next = match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x == y => {
                i += 1;
                j += 1;
                x
            }
            (Some(&x), Some(&y)) if x < y => {
                i += 1;
                x
            }
            (Some(_), Some(&y)) => {
                j += 1;
                y
            }
            (Some(&x), None) => {
                i += 1;
                x
            }
            (None, Some(&y)) => {
                j += 1;
                y
            }
            (None, None) => unreachable!(),
        };
        buf[n] = next;
        n += 1;
    }
    if n <= SMALL_CAP {
        let mut ids = [0u16; SMALL_CAP];
        ids[..n].copy_from_slice(&buf[..n]);
        NodeSet {
            repr: Repr::Small { len: n as u8, ids },
        }
    } else {
        let top = buf[n - 1];
        let mut words = vec![0u64; words_for(top)].into_boxed_slice();
        for &id in &buf[..n] {
            set_bit(&mut words, id);
        }
        NodeSet {
            repr: Repr::Big { words },
        }
    }
}

/// Union of two span arrays: stays spans when the merged cover fits two
/// slots, otherwise falls back to words.
fn spans_union(a: &[Span; 2], b: &[Span; 2]) -> NodeSet {
    let mut merged: [Span; 4] = [(0, 0); 4];
    let mut n = 0;
    for sp in active_spans(a).chain(active_spans(b)) {
        merged[n] = sp;
        n += 1;
    }
    merged[..n].sort_unstable();
    // Coalesce overlapping / adjacent spans in place.
    let mut out: [Span; 4] = [(0, 0); 4];
    let mut m = 0;
    for &(s, e) in &merged[..n] {
        if m > 0 && s <= out[m - 1].1 {
            out[m - 1].1 = out[m - 1].1.max(e);
        } else {
            out[m] = (s, e);
            m += 1;
        }
    }
    if m <= 2 {
        NodeSet {
            repr: Repr::Spans {
                spans: [out[0], out[1]],
            },
        }
    } else {
        let top = out[m - 1].1 - 1;
        let mut words = vec![0u64; words_for(top)].into_boxed_slice();
        for &(s, e) in &out[..m] {
            for id in s..e {
                set_bit(&mut words, id);
            }
        }
        NodeSet {
            repr: Repr::Big { words },
        }
    }
}

impl Default for NodeSet {
    fn default() -> Self {
        NodeSet::EMPTY
    }
}

impl PartialEq for NodeSet {
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Small { len: la, ids: a }, Repr::Small { len: lb, ids: b }) => {
                la == lb && a[..*la as usize] == b[..*lb as usize]
            }
            // Normalized span arrays are canonical for span-shaped sets.
            (Repr::Spans { spans: a }, Repr::Spans { spans: b }) => a == b,
            _ => self.len() == other.len() && self.iter().eq(other.iter()),
        }
    }
}

impl Eq for NodeSet {}

impl std::hash::Hash for NodeSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Members in ascending order: representation-independent.
        for n in self.iter() {
            n.0.hash(state);
        }
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        NodeSet::from_nodes(iter)
    }
}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Display for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, n) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{n}")?;
        }
        write!(f, "}}")
    }
}

/// Ascending-order member iterator over a [`NodeSet`].
pub struct NodeSetIter<'a> {
    inner: IterRepr<'a>,
}

enum IterRepr<'a> {
    Small {
        ids: &'a [u16],
        i: usize,
    },
    Spans {
        spans: [Span; 2],
        si: usize,
        cur: u16,
    },
    Big {
        words: &'a [u64],
        wi: usize,
        bits: u64,
    },
}

impl Iterator for NodeSetIter<'_> {
    type Item = NodeId;

    #[inline]
    fn next(&mut self) -> Option<NodeId> {
        match &mut self.inner {
            IterRepr::Small { ids, i } => {
                let id = *ids.get(*i)?;
                *i += 1;
                Some(NodeId(id))
            }
            IterRepr::Spans { spans, si, cur } => loop {
                if *si >= 2 {
                    return None;
                }
                let (s, e) = spans[*si];
                if s >= e || *cur >= e {
                    *si += 1;
                    if *si < 2 {
                        *cur = spans[*si].0;
                    }
                    continue;
                }
                if *cur < s {
                    *cur = s;
                }
                let id = *cur;
                *cur += 1;
                return Some(NodeId(id));
            },
            IterRepr::Big { words, wi, bits } => loop {
                if *bits != 0 {
                    let b = bits.trailing_zeros();
                    *bits &= *bits - 1;
                    return Some(NodeId((*wi * 64) as u16 + b as u16));
                }
                *wi += 1;
                if *wi >= words.len() {
                    return None;
                }
                *bits = words[*wi];
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Bitset words needed to cover [`MAX_NODES`] ids.
    const WORDS_MAX: usize = MAX_NODES / 64;

    /// Plain fixed-size bitset covering [`MAX_NODES`] ids — the old
    /// `NodeSet` representation, kept as the reference the equivalence
    /// proptests pin the adaptive set against.
    #[derive(Clone, Copy)]
    struct ReferenceBitSet {
        words: [u64; WORDS_MAX],
    }

    impl ReferenceBitSet {
        const EMPTY: ReferenceBitSet = ReferenceBitSet {
            words: [0; WORDS_MAX],
        };

        fn insert(&mut self, node: NodeId) -> bool {
            let (w, b) = (node.index() / 64, 1u64 << (node.index() % 64));
            let was = self.words[w] & b != 0;
            self.words[w] |= b;
            !was
        }

        fn remove(&mut self, node: NodeId) -> bool {
            let (w, b) = (node.index() / 64, 1u64 << (node.index() % 64));
            let was = self.words[w] & b != 0;
            self.words[w] &= !b;
            was
        }

        fn contains(&self, node: NodeId) -> bool {
            self.words[node.index() / 64] & (1u64 << (node.index() % 64)) != 0
        }

        fn len(&self) -> usize {
            self.words.iter().map(|w| w.count_ones() as usize).sum()
        }

        fn is_empty(&self) -> bool {
            self.words.iter().all(|&w| w == 0)
        }

        fn union(&self, other: &ReferenceBitSet) -> ReferenceBitSet {
            let mut out = *self;
            for (a, b) in out.words.iter_mut().zip(other.words.iter()) {
                *a |= b;
            }
            out
        }

        fn difference(&self, other: &ReferenceBitSet) -> ReferenceBitSet {
            let mut out = *self;
            for (a, b) in out.words.iter_mut().zip(other.words.iter()) {
                *a &= !b;
            }
            out
        }

        fn is_superset(&self, other: &ReferenceBitSet) -> bool {
            self.words
                .iter()
                .zip(other.words.iter())
                .all(|(a, b)| a & b == *b)
        }

        fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
            self.words.iter().enumerate().flat_map(|(wi, &w)| {
                let mut bits = w;
                std::iter::from_fn(move || {
                    if bits == 0 {
                        None
                    } else {
                        let b = bits.trailing_zeros();
                        bits &= bits - 1;
                        Some(NodeId((wi * 64) as u16 + b as u16))
                    }
                })
            })
        }
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = NodeSet::EMPTY;
        assert!(s.insert(NodeId(5)));
        assert!(!s.insert(NodeId(5)));
        assert!(s.contains(NodeId(5)));
        assert!(!s.contains(NodeId(6)));
        assert!(s.remove(NodeId(5)));
        assert!(!s.remove(NodeId(5)));
        assert!(s.is_empty());
    }

    #[test]
    fn all_and_len() {
        let s = NodeSet::all(64);
        assert_eq!(s.len(), 64);
        assert!(s.contains(NodeId(63)));
        assert!(!s.contains(NodeId(64)));
        let big = NodeSet::all(200);
        assert_eq!(big.len(), 200);
        assert!(big.contains(NodeId(199)));
        let huge = NodeSet::all(4096);
        assert_eq!(huge.len(), 4096);
        assert!(huge.contains(NodeId(4095)));
    }

    #[test]
    fn union_difference_superset() {
        let a = NodeSet::from_nodes([NodeId(1), NodeId(2)]);
        let b = NodeSet::from_nodes([NodeId(2), NodeId(3)]);
        assert_eq!(a.union(&b).len(), 3);
        assert_eq!(a.difference(&b), NodeSet::singleton(NodeId(1)));
        assert!(a.union(&b).is_superset(&a));
        assert!(!a.is_superset(&b));
        assert!(a.is_superset(&NodeSet::EMPTY));
    }

    #[test]
    fn iter_in_order_across_words() {
        let s = NodeSet::from_nodes([NodeId(130), NodeId(3), NodeId(64)]);
        let v: Vec<u16> = s.iter().map(|n| n.0).collect();
        assert_eq!(v, vec![3, 64, 130]);
    }

    #[test]
    fn display_formats() {
        let s = NodeSet::from_nodes([NodeId(1), NodeId(9)]);
        assert_eq!(s.to_string(), "{P1,P9}");
        assert_eq!(NodeSet::EMPTY.to_string(), "{}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut s = NodeSet::EMPTY;
        s.insert(NodeId(5000));
    }

    #[test]
    fn representations_compare_semantically() {
        // The same four-member set built three ways: spans, inline ids,
        // and spilled words.
        let spans = NodeSet::all(4);
        let small = NodeSet::from_nodes((0..4).map(NodeId));
        let mut big = NodeSet::from_nodes((0..2000).map(NodeId));
        for i in 4..2000 {
            big.remove(NodeId(i));
        }
        assert_eq!(spans, small);
        assert_eq!(small, big);
        assert_eq!(spans, big);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |s: &NodeSet| {
            let mut h = DefaultHasher::new();
            s.hash(&mut h);
            h.finish()
        };
        assert_eq!(h(&spans), h(&small));
        assert_eq!(h(&small), h(&big));
    }

    #[test]
    fn cluster_cast_stays_spans() {
        // A hierarchy cluster-cast — cluster range plus a remote home
        // bank — must stay allocation-free spans at any scale.
        let cluster = NodeSet::range(1024, 1088);
        let cast = cluster.union(&NodeSet::singleton(NodeId(0)));
        assert_eq!(cast.len(), 65);
        assert!(cast.contains(NodeId(0)));
        assert!(cast.contains(NodeId(1087)));
        assert!(!cast.contains(NodeId(1)));
        assert!(matches!(cast.repr, Repr::Spans { .. }));
        // Expanding back over the cluster is a span-covered superset.
        assert!(cast.is_superset(&cluster));
        assert!(NodeSet::all(4096).is_superset(&cast));
    }

    #[test]
    fn span_edges_insert_and_remove() {
        let mut s = NodeSet::range(10, 14);
        assert!(s.insert(NodeId(9)));
        assert!(s.insert(NodeId(14)));
        assert_eq!(s.len(), 6);
        assert!(matches!(s.repr, Repr::Spans { .. }));
        // Removing an interior id splits into the free slot.
        assert!(s.remove(NodeId(11)));
        assert_eq!(s.len(), 5);
        let v: Vec<u16> = s.iter().map(|n| n.0).collect();
        assert_eq!(v, vec![9, 10, 12, 13, 14]);
        // Filling the gap re-merges into one span.
        assert!(s.insert(NodeId(11)));
        assert!(matches!(
            s.repr,
            Repr::Spans {
                spans: [(9, 15), (0, 0)]
            }
        ));
    }

    #[test]
    fn small_spills_to_words_and_back_ops_stay_correct() {
        let mut s = NodeSet::EMPTY;
        for i in 0..(SMALL_CAP as u16 + 3) {
            assert!(s.insert(NodeId(i * 100)));
        }
        assert!(matches!(s.repr, Repr::Big { .. }));
        assert_eq!(s.len(), SMALL_CAP + 3);
        assert!(s.contains(NodeId(1200)));
        assert!(!s.contains(NodeId(1201)));
        let d = s.difference(&NodeSet::singleton(NodeId(0)));
        assert_eq!(d.len(), SMALL_CAP + 2);
        assert!(s.is_superset(&d));
    }

    fn reference(ids: &[u16]) -> ReferenceBitSet {
        let mut r = ReferenceBitSet::EMPTY;
        for &i in ids {
            r.insert(NodeId(i));
        }
        r
    }

    proptest! {
        /// The equivalence suite the scale overhaul is pinned by: the
        /// adaptive set must agree with the fixed reference bitset on
        /// every operation, across the full 1..4096 id range (which
        /// drives it through all three representations and the spill /
        /// demote transitions).
        #[test]
        fn prop_matches_reference_bitset(
            a in proptest::collection::vec(0u16..4096, 0..80),
            b in proptest::collection::vec(0u16..4096, 0..80),
            removals in proptest::collection::vec(0u16..4096, 0..40),
        ) {
            let mut s = NodeSet::from_nodes(a.iter().map(|&i| NodeId(i)));
            let mut r = reference(&a);
            for &i in &removals {
                prop_assert_eq!(s.remove(NodeId(i)), r.remove(NodeId(i)));
            }
            let sb = NodeSet::from_nodes(b.iter().map(|&i| NodeId(i)));
            let rb = reference(&b);

            prop_assert_eq!(s.len(), r.len());
            prop_assert_eq!(s.is_empty(), r.is_empty());
            for &i in a.iter().chain(b.iter()) {
                prop_assert_eq!(s.contains(NodeId(i)), r.contains(NodeId(i)));
            }
            let ids = |s: &NodeSet| s.iter().map(|n| n.0).collect::<Vec<_>>();
            let rids = |r: &ReferenceBitSet| r.iter().map(|n| n.0).collect::<Vec<_>>();
            prop_assert_eq!(ids(&s), rids(&r));
            prop_assert_eq!(ids(&s.union(&sb)), rids(&r.union(&rb)));
            prop_assert_eq!(ids(&s.difference(&sb)), rids(&r.difference(&rb)));
            prop_assert_eq!(s.is_superset(&sb), r.is_superset(&rb));
            prop_assert_eq!(s.union(&sb).is_superset(&s), true);
        }

        /// Spans (ranges, full masks) agree with the reference too, and
        /// semantic equality holds across construction orders.
        #[test]
        fn prop_span_sets_match_reference(
            start in 0u16..4000,
            width in 0u16..200,
            extra in proptest::collection::vec(0u16..4096, 0..12),
        ) {
            let end = (start + width).min(4096);
            let mut s = NodeSet::range(start, end);
            let mut r = reference(&(start..end).collect::<Vec<_>>());
            for &i in &extra {
                prop_assert_eq!(s.insert(NodeId(i)), r.insert(NodeId(i)));
            }
            prop_assert_eq!(s.len(), r.len());
            let got: Vec<u16> = s.iter().map(|n| n.0).collect();
            let want: Vec<u16> = r.iter().map(|n| n.0).collect();
            prop_assert_eq!(got, want);
            // Rebuilding member-by-member lands in a possibly different
            // representation but must compare equal and hash equal.
            let rebuilt = NodeSet::from_nodes(s.iter());
            prop_assert_eq!(&rebuilt, &s);
        }

        #[test]
        fn prop_set_semantics(ids in proptest::collection::vec(0u16..4096, 0..64)) {
            use std::collections::BTreeSet;
            let s = NodeSet::from_nodes(ids.iter().map(|&i| NodeId(i)));
            let reference: BTreeSet<u16> = ids.iter().copied().collect();
            prop_assert_eq!(s.len(), reference.len());
            let collected: Vec<u16> = s.iter().map(|n| n.0).collect();
            let expect: Vec<u16> = reference.iter().copied().collect();
            prop_assert_eq!(collected, expect);
        }

        #[test]
        fn prop_superset_iff_union_identity(
            a in proptest::collection::vec(0u16..128, 0..32),
            b in proptest::collection::vec(0u16..128, 0..32),
        ) {
            let sa = NodeSet::from_nodes(a.iter().map(|&i| NodeId(i)));
            let sb = NodeSet::from_nodes(b.iter().map(|&i| NodeId(i)));
            prop_assert_eq!(sa.is_superset(&sb), sa.union(&sb) == sa);
        }
    }
}
