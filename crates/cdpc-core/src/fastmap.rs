//! Maps and sets specialized for `u64` keys: an open-addressing hash map
//! and set, and dense direct-indexed tables for small identifiers.
//!
//! The simulator's per-reference hot path (coherence directory, shadow
//! cache, TLB, in-flight miss tables) hammers small-to-medium maps keyed by
//! line or page addresses. `std::collections::HashMap` defaults to
//! SipHash-1-3, which is DoS-resistant but costs tens of cycles per lookup
//! — far more than the probe itself. [`FxMap64`] uses the Firefox/rustc
//! "Fx" multiply hash (one wrapping multiply by a 64-bit odd constant) with
//! power-of-two capacity, linear probing, and tombstones. Keys here are
//! simulated addresses, not attacker-controlled input, so hash-flooding
//! resistance buys nothing.
//!
//! When the keys are *dense* — physical line numbers, page numbers — even
//! one hash probe is wasted work: [`DenseMap64`] and [`DenseSet64`] index a
//! plain vector by the key itself and keep the hash structures only as a
//! spill for rare outliers.
//!
//! Iteration order is **slot order** (a function of the key hashes and the
//! insertion history), which is stable for a given sequence of operations —
//! unlike `std::collections::HashMap`, whose per-process random seed makes
//! iteration order differ between runs. Deterministic simulation must still
//! not depend on slot order (callers sort where order reaches results), but
//! the stability removes one class of run-to-run divergence.

/// 2^64 / golden ratio, forced odd — the classic Fibonacci-hashing
/// multiplier also used by rustc's `FxHasher` for the final mix.
const FX_SEED: u64 = 0x9e37_79b9_7f4a_7c15;

#[inline]
fn fx_hash(key: u64) -> u64 {
    // One multiply plus a rotate to spread high-entropy bits into the low
    // bits used for masking. Line addresses differ mostly in mid bits;
    // the multiply diffuses them across the word.
    key.wrapping_mul(FX_SEED).rotate_left(26)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    Empty,
    Tombstone,
    Full(u64),
}

/// An open-addressing hash map from `u64` keys to `V`, tuned for the
/// simulator hot path.
///
/// Supports the subset of the `HashMap` API the simulator uses:
/// [`get`](FxMap64::get), [`get_mut`](FxMap64::get_mut),
/// [`insert`](FxMap64::insert), [`remove`](FxMap64::remove),
/// [`entry_or_insert_with`](FxMap64::entry_or_insert_with),
/// [`iter`](FxMap64::iter), [`iter_mut`](FxMap64::iter_mut).
#[derive(Debug, Clone)]
pub struct FxMap64<V> {
    /// Key slots; `values[i]` is meaningful only when `slots[i]` is `Full`.
    slots: Vec<Slot>,
    values: Vec<Option<V>>,
    /// Number of `Full` slots.
    len: usize,
    /// Number of `Full` + `Tombstone` slots (governs growth).
    used: usize,
}

impl<V> Default for FxMap64<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> FxMap64<V> {
    /// Creates an empty map. Does not allocate until the first insert.
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            values: Vec::new(),
            len: 0,
            used: 0,
        }
    }

    /// Creates a map pre-sized for at least `cap` entries.
    pub fn with_capacity(cap: usize) -> Self {
        let mut m = Self::new();
        if cap > 0 {
            m.rehash(Self::slots_for(cap));
        }
        m
    }

    /// Smallest power-of-two slot count that holds `cap` entries below the
    /// 7/8 load factor.
    fn slots_for(cap: usize) -> usize {
        let needed = cap.max(4) * 8 / 7 + 1;
        needed.next_power_of_two()
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// Index of the slot holding `key`, if present.
    #[inline]
    fn find(&self, key: u64) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.mask();
        let mut i = (fx_hash(key) as usize) & mask;
        loop {
            match self.slots[i] {
                Slot::Empty => return None,
                Slot::Full(k) if k == key => return Some(i),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Slot where `key` should be inserted: its existing slot, or the first
    /// tombstone/empty slot on its probe path.
    #[inline]
    fn find_insert(&self, key: u64) -> (usize, bool) {
        let mask = self.mask();
        let mut i = (fx_hash(key) as usize) & mask;
        let mut first_tomb: Option<usize> = None;
        loop {
            match self.slots[i] {
                Slot::Empty => return (first_tomb.unwrap_or(i), false),
                Slot::Tombstone => {
                    if first_tomb.is_none() {
                        first_tomb = Some(i);
                    }
                    i = (i + 1) & mask;
                }
                Slot::Full(k) => {
                    if k == key {
                        return (i, true);
                    }
                    i = (i + 1) & mask;
                }
            }
        }
    }

    fn rehash(&mut self, new_slots: usize) {
        let old_slots = std::mem::replace(&mut self.slots, vec![Slot::Empty; new_slots]);
        let old_values = std::mem::take(&mut self.values);
        self.values.resize_with(new_slots, || None);
        self.used = self.len;
        let mask = self.mask();
        for (slot, value) in old_slots.into_iter().zip(old_values) {
            if let Slot::Full(key) = slot {
                let mut i = (fx_hash(key) as usize) & mask;
                while self.slots[i] != Slot::Empty {
                    i = (i + 1) & mask;
                }
                self.slots[i] = Slot::Full(key);
                self.values[i] = value;
            }
        }
    }

    #[inline]
    fn maybe_grow(&mut self) {
        if self.slots.is_empty() {
            self.rehash(8);
        } else if self.used * 8 >= self.slots.len() * 7 {
            // Grow on live entries; a tombstone-heavy table rehashes in
            // place at the same size, reclaiming the dead slots.
            let target = if self.len * 8 >= self.slots.len() * 4 {
                self.slots.len() * 2
            } else {
                self.slots.len()
            };
            self.rehash(target);
        }
    }

    /// Returns a reference to the value for `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        self.find(key).map(|i| self.values[i].as_ref().unwrap())
    }

    /// Returns a mutable reference to the value for `key`.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.find(key).map(|i| self.values[i].as_mut().unwrap())
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains_key(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    /// Inserts `key → value`, returning the previous value if any.
    #[inline]
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        self.maybe_grow();
        let (i, existed) = self.find_insert(key);
        if existed {
            self.values[i].replace(value)
        } else {
            if self.slots[i] == Slot::Empty {
                self.used += 1;
            }
            self.slots[i] = Slot::Full(key);
            self.values[i] = Some(value);
            self.len += 1;
            None
        }
    }

    /// Removes `key`, returning its value if it was present.
    #[inline]
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let i = self.find(key)?;
        self.slots[i] = Slot::Tombstone;
        self.len -= 1;
        self.values[i].take()
    }

    /// Returns a mutable reference to the value for `key`, inserting
    /// `default()` first if absent (the hot-path replacement for
    /// `HashMap::entry(k).or_insert_with(f)`).
    #[inline]
    pub fn entry_or_insert_with<F: FnOnce() -> V>(&mut self, key: u64, default: F) -> &mut V {
        self.maybe_grow();
        let (i, existed) = self.find_insert(key);
        if !existed {
            if self.slots[i] == Slot::Empty {
                self.used += 1;
            }
            self.slots[i] = Slot::Full(key);
            self.values[i] = Some(default());
            self.len += 1;
        }
        self.values[i].as_mut().unwrap()
    }

    /// Iterates `(key, &value)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        self.slots
            .iter()
            .zip(self.values.iter())
            .filter_map(|(s, v)| match s {
                Slot::Full(k) => Some((*k, v.as_ref().unwrap())),
                _ => None,
            })
    }

    /// Iterates `(key, &mut value)` pairs in slot order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut V)> + '_ {
        self.slots
            .iter()
            .zip(self.values.iter_mut())
            .filter_map(|(s, v)| match s {
                Slot::Full(k) => Some((*k, v.as_mut().unwrap())),
                _ => None,
            })
    }

    /// Removes all entries, keeping the allocation.
    pub fn clear(&mut self) {
        for s in &mut self.slots {
            *s = Slot::Empty;
        }
        for v in &mut self.values {
            *v = None;
        }
        self.len = 0;
        self.used = 0;
    }
}

/// An open-addressing hash set of `u64` keys (an [`FxMap64`] with unit
/// values, kept as its own type for readability at call sites).
#[derive(Debug, Clone, Default)]
pub struct FxSet64 {
    map: FxMap64<()>,
}

impl FxSet64 {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Whether `key` is a member.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        self.map.contains_key(key)
    }

    /// Adds `key`; returns `true` if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, key: u64) -> bool {
        self.map.insert(key, ()).is_none()
    }

    /// Removes `key`; returns `true` if it was a member.
    #[inline]
    pub fn remove(&mut self, key: u64) -> bool {
        self.map.remove(key).is_some()
    }

    /// Iterates the members in slot order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.map.iter().map(|(k, _)| k)
    }

    /// Removes all members, keeping the allocation.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

/// Keys below this index live in the dense bitmap; larger ones spill to a
/// hash set. At one bit per key the dense region tops out at 8 MB, and the
/// bitmap only grows to the largest key actually inserted.
const DENSE_SET_LIMIT: u64 = 1 << 26;

/// A monotone-friendly set of small-ish `u64` indices: a growable bitmap
/// for keys below [`DENSE_SET_LIMIT`], an [`FxSet64`] spill for the rest.
///
/// Built for membership sets keyed by *dense* identifiers — line indices,
/// frame numbers — that are probed on every simulated reference and only
/// ever grow. A hash set of a million 64-bit keys spreads its probes over
/// tens of megabytes (every lookup is a DRAM miss); the bitmap packs the
/// same members into one bit each, so the hot probe loop stays in cache.
/// Arbitrary outliers (e.g. addresses parked near `u64::MAX`) still work:
/// they take the spill path and cost one hash probe.
#[derive(Debug, Clone, Default)]
pub struct DenseSet64 {
    /// Bit `k & 63` of `words[k >> 6]` is set when `k` is a member.
    words: Vec<u64>,
    /// Members at or above [`DENSE_SET_LIMIT`].
    spill: FxSet64,
    /// Total member count across both regions.
    len: usize,
}

impl DenseSet64 {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `key` is a member.
    #[inline]
    pub fn contains(&self, key: u64) -> bool {
        if key < DENSE_SET_LIMIT {
            self.words
                .get((key >> 6) as usize)
                .is_some_and(|w| w & (1u64 << (key & 63)) != 0)
        } else {
            self.spill.contains(key)
        }
    }

    /// Adds `key`; returns `true` if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, key: u64) -> bool {
        let new = if key < DENSE_SET_LIMIT {
            let word = (key >> 6) as usize;
            if word >= self.words.len() {
                self.words.resize(word + 1, 0);
            }
            let bit = 1u64 << (key & 63);
            let was = self.words[word] & bit != 0;
            self.words[word] |= bit;
            !was
        } else {
            self.spill.insert(key)
        };
        self.len += new as usize;
        new
    }

    /// Removes `key`; returns `true` if it was a member.
    #[inline]
    pub fn remove(&mut self, key: u64) -> bool {
        let removed = if key < DENSE_SET_LIMIT {
            match self.words.get_mut((key >> 6) as usize) {
                Some(w) => {
                    let bit = 1u64 << (key & 63);
                    let was = *w & bit != 0;
                    *w &= !bit;
                    was
                }
                None => false,
            }
        } else {
            self.spill.remove(key)
        };
        self.len -= removed as usize;
        removed
    }

    /// Removes all members, keeping the allocations.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
        self.spill.clear();
        self.len = 0;
    }
}

/// Keys whose dense index (`key >> shift`) is below this live in
/// [`DenseMap64`]'s vector; larger ones spill to a hash map. A key just
/// under the limit grows the vector to 4 Mi slots — 16 MB of 4-byte
/// slots — while covering 512 MB of physical memory at 128-byte lines,
/// far beyond any simulated footprint.
const DENSE_MAP_LIMIT: u64 = 1 << 22;

/// A map from small-ish `u64` keys to `V`: a growable vector indexed by
/// `key >> shift`, with an [`FxMap64`] spill for every other key.
///
/// The map-shaped sibling of [`DenseSet64`], for tables keyed by dense
/// identifiers on the per-reference path: line addresses (with `shift` =
/// the line shift, so consecutive lines take consecutive slots) and page
/// numbers (`shift` 0). A lookup is one bounds check and one load — no
/// hashing. A key lands in the vector only when its low `shift` bits are
/// zero and its index is below the dense limit; anything else (an
/// unaligned key, a hog page parked near `u64::MAX / 2`) takes the spill
/// path and costs one hash probe, so every `u64` key works. The vector
/// grows only to the largest dense index inserted.
///
/// Iteration visits dense keys in increasing order, then spilled keys in
/// slot order.
#[derive(Debug, Clone)]
pub struct DenseMap64<V> {
    shift: u32,
    /// `slots[k >> shift]` holds the value of dense key `k`.
    slots: Vec<Option<V>>,
    /// Keys that are unaligned or at or above the dense limit.
    spill: FxMap64<V>,
    /// Total entry count across both regions.
    len: usize,
}

impl<V> DenseMap64<V> {
    /// Creates an empty map whose dense keys are multiples of
    /// `1 << shift`. Does not allocate until the first insert.
    ///
    /// # Panics
    ///
    /// Panics if `shift` is 64 or more.
    pub fn new(shift: u32) -> Self {
        assert!(shift < 64, "shift must be below 64");
        Self {
            shift,
            slots: Vec::new(),
            spill: FxMap64::new(),
            len: 0,
        }
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The vector slot of `key`, or `None` when it belongs to the spill.
    #[inline]
    fn dense_index(&self, key: u64) -> Option<usize> {
        let idx = key >> self.shift;
        (idx < DENSE_MAP_LIMIT && idx << self.shift == key).then_some(idx as usize)
    }

    /// Returns a reference to the value for `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        match self.dense_index(key) {
            Some(i) => self.slots.get(i).and_then(Option::as_ref),
            None => self.spill.get(key),
        }
    }

    /// Returns a mutable reference to the value for `key`.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        match self.dense_index(key) {
            Some(i) => self.slots.get_mut(i).and_then(Option::as_mut),
            None => self.spill.get_mut(key),
        }
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains_key(&self, key: u64) -> bool {
        self.get(key).is_some()
    }

    /// Inserts `key → value`, returning the previous value if any.
    #[inline]
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        let old = match self.dense_index(key) {
            Some(i) => grow_to(&mut self.slots, i).replace(value),
            None => self.spill.insert(key, value),
        };
        self.len += old.is_none() as usize;
        old
    }

    /// Removes `key`, returning its value if it was present.
    #[inline]
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let old = match self.dense_index(key) {
            Some(i) => self.slots.get_mut(i).and_then(Option::take),
            None => self.spill.remove(key),
        };
        self.len -= old.is_some() as usize;
        old
    }

    /// Returns a mutable reference to the value for `key`, inserting
    /// `default()` first if absent.
    #[inline]
    pub fn entry_or_insert_with<F: FnOnce() -> V>(&mut self, key: u64, default: F) -> &mut V {
        match self.dense_index(key) {
            Some(i) => {
                let slot = grow_to(&mut self.slots, i);
                self.len += slot.is_none() as usize;
                slot.get_or_insert_with(default)
            }
            None => {
                self.len += !self.spill.contains_key(key) as usize;
                self.spill.entry_or_insert_with(key, default)
            }
        }
    }

    /// Iterates `(key, &value)` pairs: dense keys in increasing order, then
    /// spilled keys in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        let shift = self.shift;
        self.slots
            .iter()
            .enumerate()
            .filter_map(move |(i, v)| v.as_ref().map(|v| ((i as u64) << shift, v)))
            .chain(self.spill.iter())
    }
}

/// Slot `idx` of `slots`, growing the vector with vacant slots to reach it.
#[inline]
fn grow_to<V>(slots: &mut Vec<Option<V>>, idx: usize) -> &mut Option<V> {
    if idx >= slots.len() {
        slots.resize_with(idx + 1, || None);
    }
    &mut slots[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m = FxMap64::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(7, "seven"), None);
        assert_eq!(m.insert(11, "eleven"), None);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(7), Some(&"seven"));
        assert_eq!(m.get(11), Some(&"eleven"));
        assert_eq!(m.get(13), None);
        assert_eq!(m.insert(7, "SEVEN"), Some("seven"));
        assert_eq!(m.len(), 2, "overwrite must not change len");
        assert_eq!(m.remove(7), Some("SEVEN"));
        assert_eq!(m.remove(7), None);
        assert_eq!(m.len(), 1);
        assert!(!m.contains_key(7));
        assert!(m.contains_key(11));
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut m = FxMap64::new();
        m.insert(3, 10u32);
        *m.get_mut(3).unwrap() += 5;
        assert_eq!(m.get(3), Some(&15));
        assert_eq!(m.get_mut(99), None);
    }

    #[test]
    fn entry_or_insert_with_inserts_once() {
        let mut m: FxMap64<Vec<u64>> = FxMap64::new();
        m.entry_or_insert_with(5, Vec::new).push(1);
        m.entry_or_insert_with(5, || panic!("must not rebuild"))
            .push(2);
        assert_eq!(m.get(5), Some(&vec![1, 2]));
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn growth_preserves_all_entries() {
        let mut m = FxMap64::new();
        // Far past several doublings.
        for k in 0..10_000u64 {
            m.insert(k * 64, k);
        }
        assert_eq!(m.len(), 10_000);
        for k in 0..10_000u64 {
            assert_eq!(m.get(k * 64), Some(&k), "lost key {k}");
        }
        assert_eq!(m.get(10_000 * 64), None);
    }

    #[test]
    fn tombstones_are_reused_without_unbounded_growth() {
        let mut m = FxMap64::new();
        for k in 0..64u64 {
            m.insert(k, k);
        }
        let slots_before = m.slots.len();
        // Churn far more keys through than the table has slots; removals
        // leave tombstones which must be recycled (in place or by
        // same-size rehash), not force doubling.
        for k in 64..100_000u64 {
            m.remove(k - 64);
            m.insert(k, k);
            assert_eq!(m.len(), 64);
        }
        assert_eq!(
            m.slots.len(),
            slots_before,
            "steady-state churn must not grow the table"
        );
        for k in 100_000 - 64..100_000u64 {
            assert_eq!(m.get(k), Some(&k));
        }
    }

    #[test]
    fn removed_key_on_probe_path_does_not_hide_later_keys() {
        // Force collisions by filling enough keys that probe chains form,
        // then delete from the middle of chains and verify lookups still
        // find everything behind the tombstone.
        let mut m = FxMap64::new();
        for k in 0..1000u64 {
            m.insert(k, k);
        }
        for k in (0..1000u64).step_by(3) {
            m.remove(k);
        }
        for k in 0..1000u64 {
            if k % 3 == 0 {
                assert_eq!(m.get(k), None);
            } else {
                assert_eq!(m.get(k), Some(&k));
            }
        }
    }

    #[test]
    fn iteration_visits_each_live_entry_exactly_once() {
        let mut m = FxMap64::new();
        for k in 0..100u64 {
            m.insert(k * 4096, k);
        }
        for k in 0..50u64 {
            m.remove(k * 4096);
        }
        let mut seen: Vec<u64> = m.iter().map(|(k, _)| k).collect();
        seen.sort_unstable();
        let want: Vec<u64> = (50..100u64).map(|k| k * 4096).collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn iter_mut_updates_every_value() {
        let mut m = FxMap64::new();
        for k in 0..10u64 {
            m.insert(k, k as u32);
        }
        for (_, v) in m.iter_mut() {
            *v *= 2;
        }
        assert_eq!(m.len(), 10);
        for k in 0..10u64 {
            assert_eq!(m.get(k), Some(&(2 * k as u32)));
        }
    }

    #[test]
    fn clear_keeps_capacity_and_empties() {
        let mut m = FxMap64::new();
        for k in 0..100u64 {
            m.insert(k, k);
        }
        let slots = m.slots.len();
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.slots.len(), slots);
        assert_eq!(m.get(1), None);
        m.insert(1, 1);
        assert_eq!(m.get(1), Some(&1));
    }

    #[test]
    fn with_capacity_avoids_early_growth() {
        let mut m: FxMap64<u64> = FxMap64::with_capacity(100);
        let slots = m.slots.len();
        assert!(slots >= 100);
        for k in 0..100u64 {
            m.insert(k, k);
        }
        assert_eq!(m.slots.len(), slots, "pre-sized map must not grow");
    }

    #[test]
    fn extreme_keys() {
        let mut m = FxMap64::new();
        m.insert(0, "zero");
        m.insert(u64::MAX, "max");
        m.insert(u64::MAX / 2, "mid");
        assert_eq!(m.get(0), Some(&"zero"));
        assert_eq!(m.get(u64::MAX), Some(&"max"));
        assert_eq!(m.get(u64::MAX / 2), Some(&"mid"));
    }

    #[test]
    fn set_basics() {
        let mut s = FxSet64::new();
        assert!(s.insert(42));
        assert!(!s.insert(42), "second insert of same key returns false");
        assert!(s.contains(42));
        assert_eq!(s.len(), 1);
        assert!(s.remove(42));
        assert!(!s.remove(42));
        assert!(s.is_empty());
        for k in 0..1000u64 {
            s.insert(k * 64);
        }
        assert_eq!(s.len(), 1000);
        let mut all: Vec<u64> = s.iter().collect();
        all.sort_unstable();
        assert_eq!(all, (0..1000u64).map(|k| k * 64).collect::<Vec<_>>());
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn dense_set_basics() {
        let mut s = DenseSet64::new();
        assert!(s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(63));
        assert!(s.insert(64));
        assert!(!s.insert(64), "second insert of same key returns false");
        assert!(s.contains(0) && s.contains(63) && s.contains(64));
        assert!(!s.contains(65));
        assert_eq!(s.len(), 3);
        assert!(s.remove(63));
        assert!(!s.remove(63));
        assert!(!s.contains(63));
        assert_eq!(s.len(), 2);
        s.clear();
        assert!(s.is_empty());
        assert!(!s.contains(0));
    }

    #[test]
    fn dense_set_spills_huge_keys_without_huge_allocations() {
        let mut s = DenseSet64::new();
        for k in [u64::MAX, u64::MAX / 2, DENSE_SET_LIMIT, DENSE_SET_LIMIT - 1] {
            assert!(s.insert(k));
            assert!(s.contains(k));
        }
        assert_eq!(s.len(), 4);
        // The dense bitmap only covers keys below the limit; a key just
        // under it bounds the allocation at the 8 MB ceiling, and the
        // huge keys must not have grown it further.
        assert!(s.words.len() as u64 <= DENSE_SET_LIMIT / 64);
        assert_eq!(s.spill.len(), 3);
        assert!(s.remove(u64::MAX));
        assert!(!s.contains(u64::MAX));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn dense_set_grows_only_to_largest_inserted_key() {
        let mut s = DenseSet64::new();
        for k in 0..10_000u64 {
            s.insert(k);
        }
        assert_eq!(s.len(), 10_000);
        assert!(s.words.len() <= 10_000 / 64 + 1);
        for k in 0..10_000u64 {
            assert!(s.contains(k), "{k} must be a member");
        }
        assert!(!s.contains(10_000));
    }

    /// One key from the mix the differential test draws: aligned dense
    /// keys (hot), keys at the vector's current growth boundary,
    /// unaligned keys, keys at and past the dense limit, and hog-style
    /// keys near `u64::MAX / 2` and `u64::MAX`. Keys just *below* the limit
    /// are left to `dense_map_limit_boundary`, which pays for the one big
    /// allocation they cost.
    fn mixed_key(rng: &mut cdpc_obs::SplitMix64, shift: u32, dense_len: usize) -> u64 {
        match rng.below(8) {
            0..=2 => rng.below(64) << shift,
            3 => (dense_len as u64 + rng.below(3)).saturating_sub(1) << shift,
            4 if shift > 0 => (rng.below(64) << shift) | (1 + rng.below((1 << shift) - 1)),
            5 => (DENSE_MAP_LIMIT + rng.below(4))
                .checked_shl(shift)
                .unwrap_or(u64::MAX),
            6 => u64::MAX / 2 + rng.below(8),
            _ => u64::MAX - rng.below(4),
        }
    }

    #[test]
    fn dense_map_matches_fx_map_on_random_operations() {
        for seed in 0..200u64 {
            let mut rng = cdpc_obs::SplitMix64::new(seed);
            let shift = [0, 3, 7, 12][seed as usize % 4];
            let mut dense: DenseMap64<u64> = DenseMap64::new(shift);
            let mut reference: FxMap64<u64> = FxMap64::new();
            for step in 0..400 {
                let key = mixed_key(&mut rng, shift, dense.slots.len());
                let value = rng.next_u64();
                let ctx = format!("seed {seed} step {step} key {key:#x}");
                match rng.below(6) {
                    0 => assert_eq!(dense.get(key), reference.get(key), "get: {ctx}"),
                    1 => assert_eq!(
                        dense.insert(key, value),
                        reference.insert(key, value),
                        "insert: {ctx}"
                    ),
                    2 => assert_eq!(dense.remove(key), reference.remove(key), "remove: {ctx}"),
                    3 => {
                        *dense.entry_or_insert_with(key, || value) += 1;
                        *reference.entry_or_insert_with(key, || value) += 1;
                    }
                    4 => {
                        if let Some(v) = dense.get_mut(key) {
                            *v ^= value;
                        }
                        if let Some(v) = reference.get_mut(key) {
                            *v ^= value;
                        }
                    }
                    _ => assert_eq!(
                        dense.contains_key(key),
                        reference.contains_key(key),
                        "contains_key: {ctx}"
                    ),
                }
                assert_eq!(dense.len(), reference.len(), "len: {ctx}");
                assert_eq!(dense.is_empty(), reference.is_empty(), "is_empty: {ctx}");
            }
            let mut got: Vec<(u64, u64)> = dense.iter().map(|(k, &v)| (k, v)).collect();
            let mut want: Vec<(u64, u64)> = reference.iter().map(|(k, &v)| (k, v)).collect();
            let dense_keys: Vec<u64> = got
                .iter()
                .map(|&(k, _)| k)
                .take_while(|&k| dense.dense_index(k).is_some())
                .collect();
            assert!(
                dense_keys.windows(2).all(|w| w[0] < w[1]),
                "seed {seed}: dense keys iterate in increasing order"
            );
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "seed {seed}: iter");
        }
    }

    #[test]
    fn dense_map_limit_boundary() {
        // u8 values keep the one vector this test grows to the limit at
        // a few MB.
        let mut m: DenseMap64<u8> = DenseMap64::new(0);
        let last = DENSE_MAP_LIMIT - 1;
        assert_eq!(m.insert(last, 1), None);
        assert_eq!(m.slots.len() as u64, DENSE_MAP_LIMIT, "last dense key");
        assert_eq!(m.insert(DENSE_MAP_LIMIT, 2), None);
        assert_eq!(m.slots.len() as u64, DENSE_MAP_LIMIT, "first spilled key");
        assert_eq!(m.spill.len(), 1);
        assert_eq!((m.get(last), m.get(DENSE_MAP_LIMIT)), (Some(&1), Some(&2)));
        assert_eq!(
            m.iter().map(|(k, _)| k).collect::<Vec<_>>(),
            [last, DENSE_MAP_LIMIT]
        );
        assert_eq!(m.remove(last), Some(1));
        assert_eq!(m.len(), 1);
    }
}
