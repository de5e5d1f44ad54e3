//! A fully-associative, LRU translation lookaside buffer.
//!
//! The TLB matters to the paper twice: TLB-fault servicing is the dominant
//! kernel overhead of the workloads (Figure 2), and the R10000-style
//! prefetch instruction is *dropped* when the target page is not mapped in
//! the TLB — which is why applu's large-stride prefetches are ineffective
//! (Section 6.2, footnote 1).

use crate::lru::{LruInsert, LruSet};
use cdpc_vm::addr::Vpn;

/// A per-CPU TLB holding virtual page numbers.
#[derive(Debug, Clone)]
pub struct Tlb {
    entries: LruSet,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates a TLB with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn new(entries: usize) -> Self {
        Self {
            entries: LruSet::new(entries, 0),
            hits: 0,
            misses: 0,
        }
    }

    /// Performs a translation for a demand access: on a miss the entry is
    /// filled (the kernel services the fault). Returns `true` on hit.
    pub fn access(&mut self, vpn: Vpn) -> bool {
        match self.entries.insert(vpn.0) {
            LruInsert::Hit => {
                self.hits += 1;
                true
            }
            _ => {
                self.misses += 1;
                false
            }
        }
    }

    /// Checks residency without filling — the prefetch path: a prefetch to
    /// an unmapped page is dropped, it does *not* fault the entry in.
    pub fn probe(&self, vpn: Vpn) -> bool {
        self.entries.contains(vpn.0)
    }

    /// Invalidates one entry (page unmapped / recolored).
    pub fn invalidate(&mut self, vpn: Vpn) -> bool {
        self.entries.remove(vpn.0)
    }

    /// Demand hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Demand misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Demand hit rate (0.0–1.0; 0.0 before any access).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_fills_then_hits() {
        let mut t = Tlb::new(4);
        assert!(!t.access(Vpn(1)));
        assert!(t.access(Vpn(1)));
        assert_eq!(t.misses(), 1);
        assert_eq!(t.hits(), 1);
    }

    #[test]
    fn capacity_evicts_lru() {
        let mut t = Tlb::new(2);
        t.access(Vpn(1));
        t.access(Vpn(2));
        t.access(Vpn(1)); // 2 becomes LRU
        t.access(Vpn(3)); // evicts 2
        assert!(t.probe(Vpn(1)));
        assert!(!t.probe(Vpn(2)));
        assert!(t.probe(Vpn(3)));
    }

    #[test]
    fn probe_does_not_fill() {
        let mut t = Tlb::new(2);
        assert!(!t.probe(Vpn(9)));
        assert!(!t.access(Vpn(9)), "probe must not have filled the entry");
    }

    #[test]
    fn hit_rate_tracks_accesses() {
        let mut t = Tlb::new(4);
        assert_eq!(t.hit_rate(), 0.0);
        t.access(Vpn(1));
        t.access(Vpn(1));
        assert!((t.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn invalidate_removes() {
        let mut t = Tlb::new(2);
        t.access(Vpn(5));
        assert!(t.invalidate(Vpn(5)));
        assert!(!t.probe(Vpn(5)));
        assert!(!t.invalidate(Vpn(5)));
    }
}
