//! A fixed-capacity LRU set keyed by `u64`, used by the fully-associative
//! shadow cache that separates conflict misses from capacity misses.
//!
//! Implemented as a slab-allocated doubly-linked list plus a dense
//! key → node table ([`DenseMap64`]), so `touch`/`insert`/`remove` are all
//! O(1) and none of them hashes. The shadow cache for the paper's 1 MB L2
//! holds 8192 lines and is touched on every L2 access, and the TLB on every
//! reference, so constant factors matter.

use std::num::NonZeroU32;

use cdpc_core::fastmap::DenseMap64;

const NIL: u32 = u32::MAX;

/// Slab index `idx` as a key-table entry: shifted up by one into
/// `NonZeroU32` so that a vacant table slot costs no extra bytes.
fn node_ref(idx: u32) -> NonZeroU32 {
    NonZeroU32::new(idx + 1).expect("slab index below u32::MAX")
}

/// Inverse of [`node_ref`].
fn slab_index(node: NonZeroU32) -> u32 {
    node.get() - 1
}

#[derive(Debug, Clone, Copy)]
struct Node {
    key: u64,
    prev: u32,
    next: u32,
}

/// A fixed-capacity LRU set of `u64` keys.
#[derive(Debug, Clone)]
pub struct LruSet {
    capacity: usize,
    /// Key → slab index of its node, plus one: the non-zero niche keeps
    /// each dense slot at 4 bytes (the table spans every key ever seen —
    /// for the shadow cache, every physical line the CPU touched).
    map: DenseMap64<NonZeroU32>,
    nodes: Vec<Node>,
    free: Vec<u32>,
    head: u32, // most recently used
    tail: u32, // least recently used
}

/// Result of inserting a key into an [`LruSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LruInsert {
    /// The key was already present (and has been moved to MRU).
    Hit,
    /// The key was inserted without eviction.
    Inserted,
    /// The key was inserted and the returned LRU key was evicted.
    Evicted(u64),
}

impl LruSet {
    /// Creates an empty set that holds at most `capacity` keys.
    ///
    /// Keys are expected to be multiples of `1 << shift` (line addresses
    /// with the line shift, page numbers with 0): those index the key
    /// table directly. Any other key still works, through the table's
    /// hashed spill.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or not below `u32::MAX`, or if `shift`
    /// is 64 or more.
    pub fn new(capacity: usize, shift: u32) -> Self {
        assert!(
            capacity > 0 && capacity < u32::MAX as usize,
            "LRU capacity must be positive and below u32::MAX"
        );
        Self {
            capacity,
            map: DenseMap64::new(shift),
            nodes: Vec::with_capacity(capacity.min(1 << 20)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of keys currently resident.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Returns `true` when no keys are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Returns `true` if `key` is resident (without touching recency).
    pub fn contains(&self, key: u64) -> bool {
        self.map.contains_key(key)
    }

    /// Touches `key` if resident, making it most-recently-used.
    /// Returns `true` on hit.
    pub fn touch(&mut self, key: u64) -> bool {
        match self.map.get(key) {
            Some(&node) => {
                let idx = slab_index(node);
                self.unlink(idx);
                self.push_front(idx);
                true
            }
            None => false,
        }
    }

    /// Inserts `key` as most-recently-used, evicting the LRU key if full.
    pub fn insert(&mut self, key: u64) -> LruInsert {
        if self.touch(key) {
            return LruInsert::Hit;
        }
        let mut evicted = None;
        if self.map.len() == self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            let old_key = self.nodes[lru as usize].key;
            self.unlink(lru);
            self.map.remove(old_key);
            self.free.push(lru);
            evicted = Some(old_key);
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize].key = key;
                i
            }
            None => {
                self.nodes.push(Node {
                    key,
                    prev: NIL,
                    next: NIL,
                });
                (self.nodes.len() - 1) as u32
            }
        };
        self.map.insert(key, node_ref(idx));
        self.push_front(idx);
        match evicted {
            Some(k) => LruInsert::Evicted(k),
            None => LruInsert::Inserted,
        }
    }

    /// Removes `key`, returning `true` if it was resident.
    pub fn remove(&mut self, key: u64) -> bool {
        match self.map.remove(key) {
            Some(node) => {
                let idx = slab_index(node);
                self.unlink(idx);
                self.free.push(idx);
                true
            }
            None => false,
        }
    }

    /// Iterates keys from most- to least-recently-used.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            cursor: self.head,
        }
    }

    fn unlink(&mut self, idx: u32) {
        let node = self.nodes[idx as usize];
        if node.prev != NIL {
            self.nodes[node.prev as usize].next = node.next;
        } else if self.head == idx {
            self.head = node.next;
        }
        if node.next != NIL {
            self.nodes[node.next as usize].prev = node.prev;
        } else if self.tail == idx {
            self.tail = node.prev;
        }
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = NIL;
    }

    fn push_front(&mut self, idx: u32) {
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

/// Iterator over an [`LruSet`] from MRU to LRU; see [`LruSet::iter`].
#[derive(Debug)]
pub struct Iter<'a> {
    set: &'a LruSet,
    cursor: u32,
}

impl Iterator for Iter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.cursor == NIL {
            return None;
        }
        let node = self.set.nodes[self.cursor as usize];
        self.cursor = node.next;
        Some(node.key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_hit() {
        let mut l = LruSet::new(2, 0);
        assert_eq!(l.insert(1), LruInsert::Inserted);
        assert_eq!(l.insert(2), LruInsert::Inserted);
        assert_eq!(l.insert(1), LruInsert::Hit);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn eviction_removes_least_recent() {
        let mut l = LruSet::new(2, 0);
        l.insert(1);
        l.insert(2);
        l.touch(1); // 2 becomes LRU
        assert_eq!(l.insert(3), LruInsert::Evicted(2));
        assert!(l.contains(1));
        assert!(l.contains(3));
        assert!(!l.contains(2));
    }

    #[test]
    fn iteration_is_mru_to_lru() {
        let mut l = LruSet::new(3, 0);
        l.insert(1);
        l.insert(2);
        l.insert(3);
        l.touch(1);
        let order: Vec<u64> = l.iter().collect();
        assert_eq!(order, vec![1, 3, 2]);
    }

    #[test]
    fn remove_frees_capacity() {
        let mut l = LruSet::new(2, 0);
        l.insert(1);
        l.insert(2);
        assert!(l.remove(1));
        assert!(!l.remove(1));
        assert_eq!(l.insert(3), LruInsert::Inserted);
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn slots_are_reused_after_removal() {
        let mut l = LruSet::new(2, 0);
        for round in 0..100u64 {
            l.insert(round);
        }
        // Capacity bounded regardless of churn.
        assert_eq!(l.len(), 2);
        assert!(l.nodes.len() <= 3, "slab should recycle nodes");
    }

    #[test]
    fn capacity_one_behaves() {
        let mut l = LruSet::new(1, 0);
        assert_eq!(l.insert(5), LruInsert::Inserted);
        assert_eq!(l.insert(6), LruInsert::Evicted(5));
        assert_eq!(l.insert(6), LruInsert::Hit);
        let order: Vec<u64> = l.iter().collect();
        assert_eq!(order, vec![6]);
    }

    #[test]
    fn mirrors_a_naive_model() {
        // Seed loops over insert/touch/remove/contains against a Vec LRU
        // (front = MRU), with dense, unaligned and hog-style keys so both
        // halves of the key table are exercised.
        for seed in 0..100u64 {
            let mut rng = cdpc_obs::SplitMix64::new(seed);
            let capacity = 1 + rng.index(12);
            let shift = [0, 7][seed as usize % 2];
            let mut fast = LruSet::new(capacity, shift);
            let mut slow: Vec<u64> = Vec::new();
            for step in 0..500 {
                let key = match rng.below(4) {
                    0 | 1 => rng.below(24) << shift,
                    2 => (rng.below(24) << shift) | 1,
                    _ => u64::MAX / 2 + rng.below(4),
                };
                let ctx = format!("seed {seed} step {step} key {key:#x}");
                let pos = slow.iter().position(|&k| k == key);
                match rng.below(4) {
                    0 | 1 => {
                        let want = match pos {
                            Some(i) => {
                                slow.remove(i);
                                LruInsert::Hit
                            }
                            None if slow.len() == capacity => {
                                LruInsert::Evicted(slow.pop().expect("full"))
                            }
                            None => LruInsert::Inserted,
                        };
                        slow.insert(0, key);
                        assert_eq!(fast.insert(key), want, "insert: {ctx}");
                    }
                    2 => {
                        if let Some(i) = pos {
                            slow.remove(i);
                            slow.insert(0, key);
                        }
                        assert_eq!(fast.touch(key), pos.is_some(), "touch: {ctx}");
                    }
                    _ => {
                        if let Some(i) = pos {
                            slow.remove(i);
                        }
                        assert_eq!(fast.remove(key), pos.is_some(), "remove: {ctx}");
                    }
                }
                assert_eq!(fast.contains(key), slow.contains(&key), "contains: {ctx}");
                assert_eq!(fast.len(), slow.len(), "len: {ctx}");
                assert_eq!(fast.iter().collect::<Vec<_>>(), slow, "order: {ctx}");
            }
        }
    }
}
