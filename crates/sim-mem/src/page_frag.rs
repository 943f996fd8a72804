//! The `page_frag` bump-down allocator of Figure 5.
//!
//! A per-CPU contiguous region (32 KiB by default) is carved from its end
//! toward its start: an allocation of `B` bytes subtracts `B` from the
//! offset and returns the new offset. Network drivers allocate their RX
//! data buffers this way (`netdev_alloc_skb`, `napi_alloc_skb` — used 344
//! times in Linux 5.0 per §5.2.2), which means **consecutive RX buffers
//! routinely share a physical page**. Each buffer gets its own DMA
//! mapping, so one page ends up reachable through multiple IOVAs — the
//! type (c) vulnerability of Figure 1, and the path (iii) time window of
//! Figure 7.

use crate::buddy::BuddyAllocator;
use dma_core::{DetHashMap, DmaError, Event, KernelLayout, Kva, Pfn, Result, SimCtx};

/// Buddy order of each page_frag region: 2^3 pages = 32 KiB, matching
/// Linux's `PAGE_FRAG_CACHE_MAX_ORDER`.
pub const FRAG_REGION_ORDER: u32 = 3;
/// Size of each region in bytes.
pub const FRAG_REGION_SIZE: usize = dma_core::PAGE_SIZE << FRAG_REGION_ORDER;

#[derive(Debug, Clone, Copy)]
struct FragCache {
    /// Base frame of the active region (`None` before first use).
    base: Option<Pfn>,
    /// Current carve offset from the region base (allocations descend).
    offset: usize,
}

#[derive(Clone, Debug)]
struct Region {
    /// Live fragments carved from the region.
    refs: u32,
    /// `true` once the allocator has moved on to a new region; a retired
    /// region is freed when its last fragment is released.
    retired: bool,
}

/// Per-CPU page_frag caches plus region refcounts.
#[derive(Clone, Debug)]
pub struct PageFragAllocator {
    per_cpu: Vec<FragCache>,
    regions: DetHashMap<u64, Region>,
}

impl PageFragAllocator {
    /// Creates caches for `num_cpus` CPUs.
    pub fn new(num_cpus: usize) -> Self {
        PageFragAllocator {
            per_cpu: vec![
                FragCache {
                    base: None,
                    offset: 0
                };
                num_cpus.max(1)
            ],
            regions: DetHashMap::default(),
        }
    }

    /// Allocates `size` bytes from CPU `cpu`'s region (Figure 5).
    ///
    /// Returns the KVA of the fragment. `size` must fit a region.
    pub fn alloc(
        &mut self,
        ctx: &mut SimCtx,
        buddy: &mut BuddyAllocator,
        layout: &KernelLayout,
        cpu: usize,
        size: usize,
        site: &'static str,
    ) -> Result<Kva> {
        if size == 0 || size > FRAG_REGION_SIZE {
            return Err(DmaError::InvalidAlloc(size));
        }
        let ncpu = self.per_cpu.len();
        let cache = &mut self.per_cpu[cpu % ncpu];

        let needs_new = match cache.base {
            None => true,
            Some(_) => cache.offset < size,
        };
        if needs_new {
            // Retire the old region (freed once its fragments die).
            if let Some(old) = cache.base {
                let region = self
                    .regions
                    .get_mut(&old.raw())
                    .expect("active region tracked");
                region.retired = true;
                if region.refs == 0 {
                    self.regions.remove(&old.raw());
                    buddy.free_pages(ctx, cpu, old, FRAG_REGION_ORDER)?;
                }
            }
            let base = buddy.alloc_pages(ctx, cpu, FRAG_REGION_ORDER, site)?;
            ctx.metrics.incr("sim_mem.page_frag.refills");
            self.regions.insert(
                base.raw(),
                Region {
                    refs: 0,
                    retired: false,
                },
            );
            cache.base = Some(base);
            cache.offset = FRAG_REGION_SIZE;
        }

        let base = cache.base.expect("region present");
        // Carve from the end: offset -= size (Figure 5). Linux aligns
        // fragments to a cacheline-ish boundary; we keep 64-byte alignment.
        let mut off = cache.offset - size;
        off &= !63;
        cache.offset = off;
        self.regions
            .get_mut(&base.raw())
            .expect("region tracked")
            .refs += 1;

        let kva = Kva(layout.pfn_to_kva(base)?.raw() + off as u64);
        ctx.emit(Event::Alloc {
            at: ctx.clock.now(),
            kva,
            size,
            site,
            cache: "page_frag",
        });
        Ok(kva)
    }

    /// Releases a fragment; the backing region is freed when retired and
    /// drained.
    pub fn free(
        &mut self,
        ctx: &mut SimCtx,
        buddy: &mut BuddyAllocator,
        layout: &KernelLayout,
        cpu: usize,
        kva: Kva,
    ) -> Result<()> {
        let pfn = layout.kva_to_pfn(kva)?;
        // Regions are naturally aligned order-3 blocks.
        let base = Pfn(pfn.raw() & !((1u64 << FRAG_REGION_ORDER) - 1));
        let region = self
            .regions
            .get_mut(&base.raw())
            .ok_or(DmaError::BadFree(kva.raw()))?;
        if region.refs == 0 {
            return Err(DmaError::BadFree(kva.raw()));
        }
        region.refs -= 1;
        ctx.emit(Event::Free {
            at: ctx.clock.now(),
            kva,
        });
        if region.refs == 0 && region.retired {
            self.regions.remove(&base.raw());
            buddy.free_pages(ctx, cpu, base, FRAG_REGION_ORDER)?;
        }
        Ok(())
    }

    /// Base frame of the active region for `cpu`, if any.
    pub fn active_region(&self, cpu: usize) -> Option<Pfn> {
        self.per_cpu[cpu % self.per_cpu.len()].base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dma_core::PAGE_SIZE;

    fn mk() -> (SimCtx, BuddyAllocator, KernelLayout, PageFragAllocator) {
        let layout = KernelLayout::identity(64 << 20);
        (
            SimCtx::new(),
            BuddyAllocator::new(Pfn(16), Pfn((64 << 20) / PAGE_SIZE as u64), 2),
            layout,
            PageFragAllocator::new(2),
        )
    }

    #[test]
    fn fragments_descend_within_region() {
        // Figure 5: each allocation subtracts from the offset.
        let (mut ctx, mut buddy, layout, mut pf) = mk();
        let a = pf
            .alloc(&mut ctx, &mut buddy, &layout, 0, 2048, "rx")
            .unwrap();
        let b = pf
            .alloc(&mut ctx, &mut buddy, &layout, 0, 2048, "rx")
            .unwrap();
        assert!(b < a, "second fragment must sit below the first");
        assert_eq!(a - b, 2048);
    }

    #[test]
    fn consecutive_buffers_share_pages() {
        // The type (c) substrate: with 2 KiB buffers, pairs of consecutive
        // fragments land on the same 4 KiB page (§5.2.2).
        let (mut ctx, mut buddy, layout, mut pf) = mk();
        let frags: Vec<Kva> = (0..16)
            .map(|_| {
                pf.alloc(&mut ctx, &mut buddy, &layout, 0, 2048, "rx")
                    .unwrap()
            })
            .collect();
        let sharing = frags
            .windows(2)
            .filter(|w| w[0].page_align_down() == w[1].page_align_down())
            .count();
        assert!(
            sharing >= 7,
            "expected ~every pair to share a page, got {sharing}"
        );
    }

    #[test]
    fn per_cpu_regions_are_disjoint() {
        let (mut ctx, mut buddy, layout, mut pf) = mk();
        let a = pf
            .alloc(&mut ctx, &mut buddy, &layout, 0, 1024, "rx")
            .unwrap();
        let b = pf
            .alloc(&mut ctx, &mut buddy, &layout, 1, 1024, "rx")
            .unwrap();
        assert_ne!(pf.active_region(0), pf.active_region(1));
        assert_ne!(a.page_align_down(), b.page_align_down());
    }

    #[test]
    fn exhausted_region_is_replaced_and_freed_when_drained() {
        let (mut ctx, mut buddy, layout, mut pf) = mk();
        let free_before = buddy.free_page_count();
        let mut frags = Vec::new();
        // 17 × 2 KiB > 32 KiB forces a second region.
        for _ in 0..17 {
            frags.push(
                pf.alloc(&mut ctx, &mut buddy, &layout, 0, 2048, "rx")
                    .unwrap(),
            );
        }
        let first_region_pages: std::collections::HashSet<u64> = frags[..16]
            .iter()
            .map(|k| k.page_align_down().raw())
            .collect();
        assert!(!first_region_pages.contains(&frags[16].page_align_down().raw()));
        for f in frags {
            pf.free(&mut ctx, &mut buddy, &layout, 0, f).unwrap();
        }
        // Retired region returned to the buddy; active one still held.
        assert_eq!(
            buddy.free_page_count(),
            free_before - (1 << FRAG_REGION_ORDER)
        );
    }

    #[test]
    fn oversized_and_zero_requests_rejected() {
        let (mut ctx, mut buddy, layout, mut pf) = mk();
        assert!(pf.alloc(&mut ctx, &mut buddy, &layout, 0, 0, "rx").is_err());
        assert!(pf
            .alloc(&mut ctx, &mut buddy, &layout, 0, FRAG_REGION_SIZE + 1, "rx")
            .is_err());
    }

    #[test]
    fn bad_free_rejected() {
        let (mut ctx, mut buddy, layout, mut pf) = mk();
        assert!(pf
            .free(
                &mut ctx,
                &mut buddy,
                &layout,
                0,
                Kva(layout.page_offset_base.raw() + 0x40000)
            )
            .is_err());
        let a = pf
            .alloc(&mut ctx, &mut buddy, &layout, 0, 512, "rx")
            .unwrap();
        pf.free(&mut ctx, &mut buddy, &layout, 0, a).unwrap();
        assert!(pf.free(&mut ctx, &mut buddy, &layout, 0, a).is_err());
    }

    #[test]
    fn fragments_are_cacheline_aligned() {
        let (mut ctx, mut buddy, layout, mut pf) = mk();
        for size in [100, 700, 1500, 2048, 3000] {
            let k = pf
                .alloc(&mut ctx, &mut buddy, &layout, 0, size, "rx")
                .unwrap();
            assert_eq!(k.raw() % 64, 0);
        }
    }
}
