//! Virtual-memory substrate for the compiler-directed page coloring stack.
//!
//! This crate models the part of an operating system that the ASPLOS '96
//! paper *Compiler-Directed Page Coloring for Multiprocessors* interacts
//! with: the physical page allocator, the virtual-to-physical page tables,
//! and — most importantly — the **page mapping policy** that picks the
//! *color* of the physical page backing each virtual page.
//!
//! Two pages have the same color when they map to the same location in a
//! physically-indexed cache; cache conflicts can only occur between pages of
//! the same color. The number of colors is
//! `cache_size / (page_size * associativity)`.
//!
//! The crate provides the two static policies used by 1990s commercial
//! operating systems, plus the paper's hint-driven extension:
//!
//! * [`policy::PageColoring`] — consecutive virtual pages get consecutive
//!   colors (IRIX, Windows NT).
//! * [`policy::BinHopping`] — colors are assigned in fault order, cycling
//!   through all colors (Digital UNIX).
//! * [`policy::CdpcPolicy`] — an `madvise`-style hint table consulted first,
//!   falling back to a base policy when no hint exists or memory pressure
//!   prevents honoring the hint.
//!
//! It also implements the *user-level* realization of CDPC used on Digital
//! UNIX in the paper ([`touch`]): selectively touching pages in a computed
//! order so that the kernel's own bin-hopping policy produces the desired
//! coloring without any kernel modification.
//!
//! # Example
//!
//! ```
//! use cdpc_vm::addr::{ColorSpace, PageGeometry, Vpn};
//! use cdpc_vm::policy::{MappingPolicy, PageColoring};
//! use cdpc_vm::AddressSpace;
//!
//! // 1 MB direct-mapped cache, 4 KB pages => 256 colors.
//! let colors = ColorSpace::new(1 << 20, 4096, 1);
//! assert_eq!(colors.num_colors(), 256);
//!
//! let mut vm = AddressSpace::new(PageGeometry::new(4096), 1024, colors);
//! let mut policy = PageColoring::new(colors);
//! let ppn = vm.fault(Vpn(7), &mut policy)?;
//! assert_eq!(colors.color_of_ppn(ppn), policy.preferred_color(Vpn(7)).unwrap());
//! # Ok::<(), cdpc_vm::VmError>(())
//! ```

pub mod addr;
pub mod hint_table;
pub mod pagetable;
pub mod phys;
pub mod policy;
pub mod region;
pub mod touch;

mod error;

pub use error::VmError;
pub use region::{Region, RegionMap};

use addr::{ColorSpace, PageGeometry, PhysAddr, Ppn, VirtAddr, Vpn};
use pagetable::PageTable;
use phys::PhysicalMemory;
use policy::MappingPolicy;

/// A single application's virtual address space together with the physical
/// memory that backs it.
///
/// This is the integration point used by the machine simulator: every
/// first-touch of a virtual page raises a fault, the fault consults the
/// mapping policy for a preferred color, and the physical allocator tries to
/// honor that color.
#[derive(Debug)]
pub struct AddressSpace {
    geometry: PageGeometry,
    colors: ColorSpace,
    page_table: PageTable,
    phys: PhysicalMemory,
    stats: FaultStats,
}

/// Counters describing how page faults were served.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Total page faults served.
    pub faults: u64,
    /// Faults for which the policy expressed a color preference.
    pub preferred: u64,
    /// Faults where the preferred color was honored exactly.
    pub honored: u64,
    /// Faults that fell back to a different color (memory pressure).
    pub fallback: u64,
}

impl FaultStats {
    /// Fraction of color-preferring faults that were honored, or 1.0 when no
    /// fault expressed a preference.
    pub fn honor_rate(&self) -> f64 {
        if self.preferred == 0 {
            1.0
        } else {
            self.honored as f64 / self.preferred as f64
        }
    }
}

impl AddressSpace {
    /// Creates an address space backed by `phys_pages` physical pages.
    ///
    /// # Panics
    ///
    /// Panics if `phys_pages` is zero.
    pub fn new(geometry: PageGeometry, phys_pages: usize, colors: ColorSpace) -> Self {
        assert!(
            phys_pages > 0,
            "physical memory must hold at least one page"
        );
        Self {
            geometry,
            colors,
            page_table: PageTable::new(),
            phys: PhysicalMemory::new(phys_pages, colors),
            stats: FaultStats::default(),
        }
    }

    /// The page geometry (page size) of this address space.
    pub fn geometry(&self) -> PageGeometry {
        self.geometry
    }

    /// The color space used to classify physical pages.
    pub fn colors(&self) -> ColorSpace {
        self.colors
    }

    /// Translates a virtual address, returning `None` if the page is unmapped.
    pub fn translate(&self, va: VirtAddr) -> Option<PhysAddr> {
        let vpn = self.geometry.vpn_of(va);
        let offset = self.geometry.offset_of(va);
        self.page_table
            .lookup(vpn)
            .map(|ppn| self.geometry.phys_addr(ppn, offset))
    }

    /// Translates a virtual page number, returning `None` if unmapped.
    pub fn translate_page(&self, vpn: Vpn) -> Option<Ppn> {
        self.page_table.lookup(vpn)
    }

    /// Returns `true` if the virtual page is currently mapped.
    pub fn is_mapped(&self, vpn: Vpn) -> bool {
        self.page_table.lookup(vpn).is_some()
    }

    /// Serves a page fault on `vpn` using `policy` to pick the preferred
    /// color.
    ///
    /// The preference is a *hint*: when no page of that color is free the
    /// allocator falls back to the nearest color with free pages, exactly as
    /// an OS under memory pressure would.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::OutOfMemory`] when no physical page is free at all
    /// and [`VmError::AlreadyMapped`] when the page is already mapped.
    pub fn fault<P: MappingPolicy + ?Sized>(
        &mut self,
        vpn: Vpn,
        policy: &mut P,
    ) -> Result<Ppn, VmError> {
        if self.page_table.lookup(vpn).is_some() {
            return Err(VmError::AlreadyMapped(vpn));
        }
        self.stats.faults += 1;
        let preferred = policy.preferred_color(vpn);
        let ppn = match preferred {
            Some(color) => {
                self.stats.preferred += 1;
                let ppn = self.phys.alloc_preferring(color)?;
                if self.colors.color_of_ppn(ppn) == color {
                    self.stats.honored += 1;
                } else {
                    self.stats.fallback += 1;
                }
                ppn
            }
            None => self.phys.alloc_any()?,
        };
        self.page_table.map(vpn, ppn)?;
        policy.note_mapped(vpn, self.colors.color_of_ppn(ppn));
        Ok(ppn)
    }

    /// Unmaps a virtual page and returns its physical page to the free pool.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::NotMapped`] if the page was not mapped.
    pub fn unmap(&mut self, vpn: Vpn) -> Result<Ppn, VmError> {
        let ppn = self.page_table.unmap(vpn)?;
        self.phys.free(ppn);
        Ok(ppn)
    }

    /// Recolors a mapped page: allocates a new physical page preferring
    /// `color`, moves the mapping, and frees the old page. This is the
    /// mechanism behind *dynamic* page-coloring policies (paper §2.1):
    /// the OS copies the page contents and atomically swaps the
    /// virtual-to-physical mapping. The caller is responsible for the
    /// machine-level consequences (cache invalidation, TLB shootdown,
    /// copy cost).
    ///
    /// # Errors
    ///
    /// Returns [`VmError::NotMapped`] if `vpn` has no mapping, or
    /// [`VmError::OutOfMemory`] when no replacement page exists (the
    /// original mapping is left untouched in that case).
    pub fn recolor(&mut self, vpn: Vpn, color: addr::Color) -> Result<(Ppn, Ppn), VmError> {
        let old = self.page_table.lookup(vpn).ok_or(VmError::NotMapped(vpn))?;
        let new = self.phys.alloc_preferring(color)?;
        self.page_table.unmap(vpn).expect("checked above");
        self.page_table.map(vpn, new).expect("just unmapped");
        self.phys.free(old);
        Ok((old, new))
    }

    /// Fault statistics accumulated so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Number of physical pages still free.
    pub fn free_pages(&self) -> usize {
        self.phys.free_pages()
    }

    /// Total number of physical pages.
    pub fn total_pages(&self) -> usize {
        self.phys.total_pages()
    }

    /// Iterates over all current `(vpn, ppn)` mappings in ascending `vpn`
    /// order.
    pub fn mappings(&self) -> impl Iterator<Item = (Vpn, Ppn)> + '_ {
        self.page_table.iter()
    }

    /// The color of the physical page backing `vpn`, if mapped.
    pub fn color_of(&self, vpn: Vpn) -> Option<addr::Color> {
        self.page_table
            .lookup(vpn)
            .map(|ppn| self.colors.color_of_ppn(ppn))
    }

    /// Number of currently mapped virtual pages.
    pub fn mapped_pages(&self) -> usize {
        self.page_table.iter().count()
    }

    /// How many mapped pages are backed by each color — the mapping's
    /// color balance, one bucket per color. A skewed histogram is the
    /// visible signature of a hostile mapping (many same-colored pages →
    /// cache conflicts).
    pub fn color_histogram(&self) -> Vec<u64> {
        let mut hist = vec![0u64; self.colors.num_colors() as usize];
        for (_, ppn) in self.page_table.iter() {
            hist[self.colors.color_of_ppn(ppn).0 as usize] += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use policy::PageColoring;

    fn space() -> (AddressSpace, PageColoring) {
        let colors = ColorSpace::new(1 << 16, 4096, 1); // 16 colors
        let vm = AddressSpace::new(PageGeometry::new(4096), 64, colors);
        let policy = PageColoring::new(colors);
        (vm, policy)
    }

    #[test]
    fn fault_maps_page_and_honors_color() {
        let (mut vm, mut policy) = space();
        let ppn = vm.fault(Vpn(3), &mut policy).unwrap();
        assert_eq!(vm.translate_page(Vpn(3)), Some(ppn));
        assert_eq!(vm.color_of(Vpn(3)).unwrap().0, 3);
        assert_eq!(vm.stats().honored, 1);
    }

    #[test]
    fn double_fault_is_rejected() {
        let (mut vm, mut policy) = space();
        vm.fault(Vpn(0), &mut policy).unwrap();
        assert_eq!(
            vm.fault(Vpn(0), &mut policy),
            Err(VmError::AlreadyMapped(Vpn(0)))
        );
    }

    #[test]
    fn translate_combines_page_and_offset() {
        let (mut vm, mut policy) = space();
        let ppn = vm.fault(Vpn(2), &mut policy).unwrap();
        let va = VirtAddr(2 * 4096 + 123);
        assert_eq!(vm.translate(va), Some(PhysAddr(ppn.0 * 4096 + 123)));
    }

    #[test]
    fn unmap_frees_the_page() {
        let (mut vm, mut policy) = space();
        let free0 = vm.free_pages();
        vm.fault(Vpn(9), &mut policy).unwrap();
        assert_eq!(vm.free_pages(), free0 - 1);
        vm.unmap(Vpn(9)).unwrap();
        assert_eq!(vm.free_pages(), free0);
        assert!(!vm.is_mapped(Vpn(9)));
    }

    #[test]
    fn memory_pressure_falls_back_to_other_colors() {
        // 4 pages, 2 colors: after exhausting color 0, faults preferring
        // color 0 must fall back to color 1.
        let colors = ColorSpace::new(2 * 4096, 4096, 1);
        let mut vm = AddressSpace::new(PageGeometry::new(4096), 4, colors);
        let mut policy = policy::FixedColor::new(addr::Color(0));
        for i in 0..4 {
            vm.fault(Vpn(i), &mut policy).unwrap();
        }
        let stats = vm.stats();
        assert_eq!(stats.faults, 4);
        assert_eq!(stats.honored, 2);
        assert_eq!(stats.fallback, 2);
        assert_eq!(vm.fault(Vpn(99), &mut policy), Err(VmError::OutOfMemory));
    }

    #[test]
    fn honor_rate_reflects_fallbacks() {
        let mut s = FaultStats::default();
        assert_eq!(s.honor_rate(), 1.0);
        s.preferred = 4;
        s.honored = 3;
        assert_eq!(s.honor_rate(), 0.75);
    }

    #[test]
    fn color_histogram_counts_backing_colors() {
        let (mut vm, mut policy) = space();
        assert_eq!(vm.mapped_pages(), 0);
        vm.fault(Vpn(0), &mut policy).unwrap(); // color 0
        vm.fault(Vpn(1), &mut policy).unwrap(); // color 1
        vm.fault(Vpn(16), &mut policy).unwrap(); // wraps to color 0
        let hist = vm.color_histogram();
        assert_eq!(hist.len(), 16);
        assert_eq!(hist[0], 2);
        assert_eq!(hist[1], 1);
        assert_eq!(hist.iter().sum::<u64>(), vm.mapped_pages() as u64);
    }

    #[test]
    fn recolor_moves_page_to_new_color() {
        let (mut vm, mut policy) = space();
        vm.fault(Vpn(3), &mut policy).unwrap(); // color 3 under page coloring
        let (old, new) = vm.recolor(Vpn(3), addr::Color(9)).unwrap();
        assert_ne!(old, new);
        assert_eq!(vm.color_of(Vpn(3)), Some(addr::Color(9)));
        // The old frame is reusable.
        let free_before = vm.free_pages();
        vm.fault(Vpn(40), &mut policy).unwrap();
        assert_eq!(vm.free_pages(), free_before - 1);
    }

    #[test]
    fn recolor_of_unmapped_page_fails() {
        let (mut vm, _) = space();
        assert_eq!(
            vm.recolor(Vpn(5), addr::Color(1)),
            Err(VmError::NotMapped(Vpn(5)))
        );
    }

    #[test]
    fn recolor_under_pressure_keeps_old_mapping() {
        // Fill memory completely; recolor must fail without corrupting the
        // page table.
        let colors = ColorSpace::with_colors(2);
        let mut vm = AddressSpace::new(PageGeometry::new(4096), 2, colors);
        let mut policy = policy::NoPreference;
        vm.fault(Vpn(0), &mut policy).unwrap();
        vm.fault(Vpn(1), &mut policy).unwrap();
        let before = vm.translate_page(Vpn(0)).unwrap();
        assert_eq!(
            vm.recolor(Vpn(0), addr::Color(1)),
            Err(VmError::OutOfMemory)
        );
        assert_eq!(vm.translate_page(Vpn(0)), Some(before));
    }
}
