//! The x86-64 Linux kernel virtual-memory layout (Table 1 of the paper)
//! and its KASLR randomization.
//!
//! The layout defines fixed *ranges* for each region; KASLR randomizes only
//! the *base* of three of them, with coarse alignment:
//!
//! - the kernel text base is 2 MiB aligned, so the low 21 bits of every
//!   text address survive randomization;
//! - `page_offset_base` (direct map) and `vmemmap_base` are 1 GiB aligned,
//!   so their low 30 bits survive.
//!
//! §2.4 of the paper shows that these invariants let an attacker recover
//! every randomized base from a single leaked pointer per region.

use crate::addr::{Kva, Pfn, PhysAddr, PAGE_SHIFT};
use crate::error::{DmaError, Result};
use crate::rng::DetRng;

const TB: u64 = 1 << 40;
const GB: u64 = 1 << 30;
const MB: u64 = 1 << 20;

/// Size of one `struct page` entry in the virtual memory map (vmemmap).
pub const STRUCT_PAGE_SIZE: u64 = 64;

/// Alignment of the randomized kernel text base (2 MiB, from page-table
/// restrictions; "unlikely to change" per §2.4).
pub const TEXT_ALIGN: u64 = 2 * MB;
/// Alignment of the randomized direct-map and vmemmap bases (1 GiB; the
/// page upper directory has a 30-bit shift).
pub const SECTION_ALIGN: u64 = GB;

/// A named region of the kernel virtual address space (one row of Table 1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum VmRegion {
    /// Direct map of all physical memory (`page_offset_base`).
    DirectMap,
    /// vmalloc/ioremap space (`vmalloc_base`).
    Vmalloc,
    /// Virtual memory map of `struct page` entries (`vmemmap_base`).
    Vmemmap,
    /// KASAN shadow memory.
    KasanShadow,
    /// Kernel text mapping (maps physical address 0 of the kernel image).
    KernelText,
    /// Module mapping space.
    Modules,
}

impl VmRegion {
    /// All regions in ascending address order, as in Table 1.
    pub const ALL: [VmRegion; 6] = [
        VmRegion::DirectMap,
        VmRegion::Vmalloc,
        VmRegion::Vmemmap,
        VmRegion::KasanShadow,
        VmRegion::KernelText,
        VmRegion::Modules,
    ];

    /// The fixed start of this region's range (pre-KASLR).
    pub const fn start(self) -> u64 {
        match self {
            VmRegion::DirectMap => 0xffff_8880_0000_0000,
            VmRegion::Vmalloc => 0xffff_c900_0000_0000,
            VmRegion::Vmemmap => 0xffff_ea00_0000_0000,
            VmRegion::KasanShadow => 0xffff_ec00_0000_0000,
            VmRegion::KernelText => 0xffff_ffff_8000_0000,
            VmRegion::Modules => 0xffff_ffff_a000_0000,
        }
    }

    /// The size of the region's range in bytes.
    pub const fn size(self) -> u64 {
        match self {
            VmRegion::DirectMap => 64 * TB,
            VmRegion::Vmalloc => 32 * TB,
            VmRegion::Vmemmap => TB,
            VmRegion::KasanShadow => 16 * TB,
            VmRegion::KernelText => 512 * MB,
            VmRegion::Modules => 1520 * MB,
        }
    }

    /// The inclusive end address of the region's range.
    pub const fn end(self) -> u64 {
        self.start() + self.size() - 1
    }

    /// Human-readable description matching Table 1.
    pub const fn description(self) -> &'static str {
        match self {
            VmRegion::DirectMap => "direct map of phys memory (page_offset_base)",
            VmRegion::Vmalloc => "vmalloc/ioremap space (vmalloc_base)",
            VmRegion::Vmemmap => "virtual memory map (vmemmap_base)",
            VmRegion::KasanShadow => "KASAN shadow memory",
            VmRegion::KernelText => "kernel text mapping (physical address 0)",
            VmRegion::Modules => "module mapping space",
        }
    }

    /// Classifies a raw 64-bit value as belonging to a region's range.
    ///
    /// Since KASLR randomizes only the offset *within* each fixed range,
    /// a leaked pointer still reveals which region it came from. This is
    /// the first step of every KASLR-subversion attack in §2.4.
    ///
    /// The module range overlaps the tail of the text range (as on real
    /// x86-64); text takes precedence for values below the module start.
    pub fn classify(value: u64) -> Option<VmRegion> {
        if (VmRegion::KernelText.start()..VmRegion::Modules.start()).contains(&value) {
            return Some(VmRegion::KernelText);
        }
        for r in VmRegion::ALL {
            if (r.start()..=r.end()).contains(&value) {
                return Some(r);
            }
        }
        None
    }
}

/// A concrete (possibly KASLR-randomized) instantiation of the layout.
///
/// The randomized bases are the secrets an attacker must recover; the
/// per-region ranges and alignments are architectural and public.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelLayout {
    /// Base KVA of the direct physical-memory map (`page_offset_base`).
    pub page_offset_base: Kva,
    /// Base KVA of the vmalloc area (`vmalloc_base`).
    pub vmalloc_base: Kva,
    /// Base KVA of the `struct page` array (`vmemmap_base`).
    pub vmemmap_base: Kva,
    /// Base KVA at which the kernel image text is mapped.
    pub text_base: Kva,
    /// Size of the kernel text section in bytes.
    pub text_size: u64,
    /// Amount of simulated physical memory in bytes.
    pub phys_mem_bytes: u64,
}

impl KernelLayout {
    /// Default simulated kernel text size (16 MiB, a typical vmlinux).
    pub const DEFAULT_TEXT_SIZE: u64 = 16 * MB;

    /// Creates a layout with KASLR disabled: every base sits at the start
    /// of its Table-1 range.
    pub fn identity(phys_mem_bytes: u64) -> Self {
        KernelLayout {
            page_offset_base: Kva(VmRegion::DirectMap.start()),
            vmalloc_base: Kva(VmRegion::Vmalloc.start()),
            vmemmap_base: Kva(VmRegion::Vmemmap.start()),
            text_base: Kva(VmRegion::KernelText.start()),
            text_size: Self::DEFAULT_TEXT_SIZE,
            phys_mem_bytes,
        }
    }

    /// Creates a KASLR-randomized layout.
    ///
    /// Randomization mirrors Linux: the text base is 2 MiB aligned inside
    /// the 512 MiB text range; the direct-map and vmemmap bases are 1 GiB
    /// aligned inside a 16 GiB window at the start of their ranges (real
    /// kernels shrink the entropy window similarly so the regions still
    /// fit their contents).
    pub fn randomize(rng: &mut DetRng, phys_mem_bytes: u64) -> Self {
        let text_slots = (VmRegion::KernelText.size() - Self::DEFAULT_TEXT_SIZE) / TEXT_ALIGN;
        let text_base = VmRegion::KernelText.start() + rng.below(text_slots) * TEXT_ALIGN;

        let window_slots = 16; // 16 GiB entropy window, 1 GiB steps.
        let dm_base = VmRegion::DirectMap.start() + rng.below(window_slots) * SECTION_ALIGN;
        let vm_base = VmRegion::Vmemmap.start() + rng.below(window_slots) * SECTION_ALIGN;

        KernelLayout {
            page_offset_base: Kva(dm_base),
            vmalloc_base: Kva(VmRegion::Vmalloc.start()),
            vmemmap_base: Kva(vm_base),
            text_base: Kva(text_base),
            text_size: Self::DEFAULT_TEXT_SIZE,
            phys_mem_bytes,
        }
    }

    /// Highest valid PFN (exclusive).
    pub fn max_pfn(&self) -> Pfn {
        Pfn(self.phys_mem_bytes >> PAGE_SHIFT)
    }

    /// Translates a direct-map KVA to its physical address.
    pub fn kva_to_phys(&self, kva: Kva) -> Result<PhysAddr> {
        if kva.raw() < self.page_offset_base.raw() {
            return Err(DmaError::NotDirectMap(kva.raw()));
        }
        let off = kva.raw() - self.page_offset_base.raw();
        if off >= self.phys_mem_bytes {
            return Err(DmaError::NotDirectMap(kva.raw()));
        }
        Ok(PhysAddr(off))
    }

    /// Translates a physical address to its direct-map KVA.
    pub fn phys_to_kva(&self, pa: PhysAddr) -> Result<Kva> {
        if pa.raw() >= self.phys_mem_bytes {
            return Err(DmaError::BadPhysAddr(pa.raw()));
        }
        Ok(Kva(self.page_offset_base.raw() + pa.raw()))
    }

    /// Translates a PFN to the direct-map KVA of its first byte
    /// (`page_address()` in Linux).
    pub fn pfn_to_kva(&self, pfn: Pfn) -> Result<Kva> {
        self.phys_to_kva(pfn.base())
    }

    /// Translates a direct-map KVA to its PFN (`virt_to_pfn()`).
    pub fn kva_to_pfn(&self, kva: Kva) -> Result<Pfn> {
        Ok(self.kva_to_phys(kva)?.pfn())
    }

    /// Returns the KVA of the `struct page` describing `pfn`
    /// (`pfn_to_page()`), inside the vmemmap region.
    pub fn pfn_to_page(&self, pfn: Pfn) -> Result<Kva> {
        if pfn >= self.max_pfn() {
            return Err(DmaError::BadPfn(pfn.raw()));
        }
        Ok(Kva(self.vmemmap_base.raw() + pfn.raw() * STRUCT_PAGE_SIZE))
    }

    /// Returns the PFN described by a `struct page` KVA (`page_to_pfn()`).
    pub fn page_to_pfn(&self, page: Kva) -> Result<Pfn> {
        if page.raw() < self.vmemmap_base.raw() {
            return Err(DmaError::BadStructPage(page.raw()));
        }
        let off = page.raw() - self.vmemmap_base.raw();
        if !off.is_multiple_of(STRUCT_PAGE_SIZE) {
            return Err(DmaError::BadStructPage(page.raw()));
        }
        let pfn = Pfn(off / STRUCT_PAGE_SIZE);
        if pfn >= self.max_pfn() {
            return Err(DmaError::BadStructPage(page.raw()));
        }
        Ok(pfn)
    }

    /// Returns `true` if `kva` lies inside the mapped kernel text.
    pub fn in_text(&self, kva: Kva) -> bool {
        (self.text_base.raw()..self.text_base.raw() + self.text_size).contains(&kva.raw())
    }

    /// Formats the Table-1 layout rows (fixed ranges, not randomized
    /// bases), one row per region.
    pub fn table1() -> Vec<(String, String, String, &'static str)> {
        VmRegion::ALL
            .iter()
            .map(|r| {
                (
                    format!("{:016x}", r.start()),
                    format!("{:016x}", r.end()),
                    human_size(r.size()),
                    r.description(),
                )
            })
            .collect()
    }
}

/// Renders a byte count the way Table 1 does ("64 TB", "512 MB", "1520 MB").
pub fn human_size(bytes: u64) -> String {
    if bytes >= TB && bytes.is_multiple_of(TB) {
        format!("{} TB", bytes / TB)
    } else if bytes >= GB && bytes.is_multiple_of(GB) {
        format!("{} GB", bytes / GB)
    } else {
        format!("{} MB", bytes / MB)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MEM: u64 = 256 * MB;

    #[test]
    fn table1_matches_paper_rows() {
        // Row-by-row check against Table 1 of the paper.
        assert_eq!(VmRegion::DirectMap.start(), 0xffff_8880_0000_0000);
        assert_eq!(VmRegion::DirectMap.end(), 0xffff_c87f_ffff_ffff);
        assert_eq!(human_size(VmRegion::DirectMap.size()), "64 TB");

        assert_eq!(VmRegion::Vmalloc.start(), 0xffff_c900_0000_0000);
        assert_eq!(VmRegion::Vmalloc.end(), 0xffff_e8ff_ffff_ffff);
        assert_eq!(human_size(VmRegion::Vmalloc.size()), "32 TB");

        assert_eq!(VmRegion::Vmemmap.start(), 0xffff_ea00_0000_0000);
        assert_eq!(VmRegion::Vmemmap.end(), 0xffff_eaff_ffff_ffff);
        assert_eq!(human_size(VmRegion::Vmemmap.size()), "1 TB");

        assert_eq!(VmRegion::KasanShadow.start(), 0xffff_ec00_0000_0000);
        assert_eq!(VmRegion::KasanShadow.end(), 0xffff_fbff_ffff_ffff);
        assert_eq!(human_size(VmRegion::KasanShadow.size()), "16 TB");

        assert_eq!(VmRegion::KernelText.start(), 0xffff_ffff_8000_0000);
        assert_eq!(human_size(VmRegion::KernelText.size()), "512 MB");

        assert_eq!(VmRegion::Modules.start(), 0xffff_ffff_a000_0000);
        assert_eq!(human_size(VmRegion::Modules.size()), "1520 MB");
    }

    #[test]
    fn classify_identifies_regions() {
        assert_eq!(
            VmRegion::classify(0xffff_8880_1234_5678),
            Some(VmRegion::DirectMap)
        );
        assert_eq!(
            VmRegion::classify(0xffff_ffff_8123_4567),
            Some(VmRegion::KernelText)
        );
        assert_eq!(
            VmRegion::classify(0xffff_ea00_0000_1000),
            Some(VmRegion::Vmemmap)
        );
        assert_eq!(VmRegion::classify(0x0000_7fff_0000_0000), None);
    }

    #[test]
    fn kaslr_respects_alignment_invariants() {
        // §2.4: text keeps its low 21 bits; direct map / vmemmap their low 30.
        for seed in 0..64 {
            let mut rng = DetRng::new(seed);
            let l = KernelLayout::randomize(&mut rng, MEM);
            assert_eq!(l.text_base.raw() % TEXT_ALIGN, 0);
            assert_eq!(l.page_offset_base.raw() % SECTION_ALIGN, 0);
            assert_eq!(l.vmemmap_base.raw() % SECTION_ALIGN, 0);
            assert!(l.text_base.raw() >= VmRegion::KernelText.start());
            assert!(l.text_base.raw() + l.text_size <= VmRegion::KernelText.end() + 1);
            assert_eq!(
                VmRegion::classify(l.text_base.raw()),
                Some(VmRegion::KernelText)
            );
        }
    }

    #[test]
    fn kaslr_actually_randomizes() {
        let mut bases = std::collections::HashSet::new();
        for seed in 0..32 {
            let mut rng = DetRng::new(seed);
            bases.insert(KernelLayout::randomize(&mut rng, MEM).text_base.raw());
        }
        assert!(
            bases.len() > 8,
            "text base entropy too low: {}",
            bases.len()
        );
    }

    #[test]
    fn translations_roundtrip() {
        let mut rng = DetRng::new(7);
        let l = KernelLayout::randomize(&mut rng, MEM);
        let pfn = Pfn(0x1234);
        let kva = l.pfn_to_kva(pfn).unwrap();
        assert_eq!(l.kva_to_pfn(kva).unwrap(), pfn);
        let page = l.pfn_to_page(pfn).unwrap();
        assert_eq!(l.page_to_pfn(page).unwrap(), pfn);
        assert_eq!(VmRegion::classify(page.raw()), Some(VmRegion::Vmemmap));
    }

    #[test]
    fn out_of_range_translations_fail() {
        let l = KernelLayout::identity(MEM);
        assert!(l.kva_to_phys(Kva(0xffff_ffff_8000_0000)).is_err());
        assert!(l.pfn_to_kva(l.max_pfn()).is_err());
        assert!(l.pfn_to_page(Pfn(u64::MAX >> 13)).is_err());
        assert!(l.page_to_pfn(Kva(l.vmemmap_base.raw() + 3)).is_err());
        assert!(l.page_to_pfn(Kva(0)).is_err());
    }

    #[test]
    fn struct_page_entries_are_64_bytes_apart() {
        let l = KernelLayout::identity(MEM);
        let a = l.pfn_to_page(Pfn(10)).unwrap();
        let b = l.pfn_to_page(Pfn(11)).unwrap();
        assert_eq!(b - a, STRUCT_PAGE_SIZE);
    }
}
