//! SLUB-style `kmalloc` size-class caches.
//!
//! Two properties matter to the paper and are modeled faithfully:
//!
//! 1. **Freelist-in-object**: a free object's first 8 bytes hold the KVA
//!    of the next free object *on the page itself*. When a driver
//!    DMA-maps a kmalloc'd buffer, this allocator metadata shares the
//!    mapped page — the type (b) exposure of Figure 1 (and the classic
//!    freelist-corruption attack surface [Phrack 66-8]).
//! 2. **Size-class co-location**: unrelated objects of similar size share
//!    pages, so a DMA-mapped object randomly exposes its page neighbours —
//!    the type (d) exposure that D-KASAN exists to catch.

use crate::buddy::BuddyAllocator;
use crate::phys::PhysMemory;
use dma_core::{DetHashMap, DmaError, Event, KernelLayout, Kva, Pfn, Result, SimCtx, PAGE_SIZE};

/// The kmalloc size classes, as in Linux (plus the 96/192 odd sizes).
pub const SIZE_CLASSES: [usize; 13] = [
    8, 16, 32, 64, 96, 128, 192, 256, 512, 1024, 2048, 4096, 8192,
];

/// Largest size served from a slab; bigger requests go straight to the
/// buddy allocator (`kmalloc_large`).
pub const KMALLOC_MAX_CACHE: usize = 8192;

#[derive(Clone, Debug)]
struct Slab {
    /// KVA of the first free object, 0 if the slab is full.
    free_head: u64,
    /// Objects currently allocated from this slab.
    inuse: u32,
}

#[derive(Clone, Debug)]
struct Cache {
    object_size: usize,
    order: u32,
    objects_per_slab: u32,
    /// Slabs with at least one free object (LIFO for cache locality).
    partial: Vec<Pfn>,
    /// All live slabs, keyed by base PFN.
    slabs: DetHashMap<u64, Slab>,
}

impl Cache {
    fn new(object_size: usize) -> Self {
        let order = if object_size <= PAGE_SIZE { 0 } else { 1 };
        let slab_bytes = PAGE_SIZE << order;
        Cache {
            object_size,
            order,
            objects_per_slab: (slab_bytes / object_size) as u32,
            partial: Vec::new(),
            slabs: DetHashMap::default(),
        }
    }

    fn cache_name(&self) -> &'static str {
        match self.object_size {
            8 => "kmalloc-8",
            16 => "kmalloc-16",
            32 => "kmalloc-32",
            64 => "kmalloc-64",
            96 => "kmalloc-96",
            128 => "kmalloc-128",
            192 => "kmalloc-192",
            256 => "kmalloc-256",
            512 => "kmalloc-512",
            1024 => "kmalloc-1k",
            2048 => "kmalloc-2k",
            4096 => "kmalloc-4k",
            8192 => "kmalloc-8k",
            _ => "kmalloc-?",
        }
    }
}

/// Record of a live allocation (for double-free detection and event
/// reporting; SLUB itself keeps no such table, but the simulator checks
/// invariants the kernel merely hopes for).
#[derive(Debug, Clone, Copy)]
struct LiveObject {
    cache_idx: usize,
}

/// The set of kmalloc caches plus the page→cache ownership index.
#[derive(Clone, Debug)]
pub struct KmallocCaches {
    caches: Vec<Cache>,
    /// Every page of every slab → (cache index, slab base PFN).
    page_owner: DetHashMap<u64, (usize, u64)>,
    /// Live objects by KVA.
    live: DetHashMap<u64, LiveObject>,
    /// kmalloc_large allocations: KVA → buddy order.
    large: DetHashMap<u64, u32>,
}

impl Default for KmallocCaches {
    fn default() -> Self {
        Self::new()
    }
}

impl KmallocCaches {
    /// Creates empty caches.
    pub fn new() -> Self {
        KmallocCaches {
            caches: SIZE_CLASSES.iter().map(|&s| Cache::new(s)).collect(),
            page_owner: DetHashMap::default(),
            live: DetHashMap::default(),
            large: DetHashMap::default(),
        }
    }

    /// Returns the size class a request of `size` bytes is served from.
    pub fn size_class(size: usize) -> Option<usize> {
        SIZE_CLASSES.iter().copied().find(|&c| c >= size)
    }

    /// Returns the cache name serving `kva`, if it is a live slab object.
    pub fn cache_of(&self, kva: Kva) -> Option<&'static str> {
        let obj = self.live.get(&kva.raw())?;
        Some(self.caches[obj.cache_idx].cache_name())
    }

    /// Returns the object size class backing a live allocation.
    pub fn allocated_size(&self, kva: Kva) -> Option<usize> {
        self.live
            .get(&kva.raw())
            .map(|o| self.caches[o.cache_idx].object_size)
    }

    /// `true` if `pfn` currently backs a slab.
    pub fn is_slab_page(&self, pfn: Pfn) -> bool {
        self.page_owner.contains_key(&pfn.raw())
    }

    /// Allocates `size` bytes, returning the object's KVA.
    ///
    /// Objects ≤ [`KMALLOC_MAX_CACHE`] come from size-class slabs; larger
    /// requests are whole-page allocations.
    #[allow(clippy::too_many_arguments)]
    pub fn kmalloc(
        &mut self,
        ctx: &mut SimCtx,
        phys: &mut PhysMemory,
        buddy: &mut BuddyAllocator,
        layout: &KernelLayout,
        cpu: usize,
        size: usize,
        site: &'static str,
    ) -> Result<Kva> {
        if size == 0 {
            return Err(DmaError::InvalidAlloc(0));
        }
        if size > KMALLOC_MAX_CACHE {
            return self.kmalloc_large(ctx, buddy, layout, cpu, size, site);
        }
        let cache_idx = SIZE_CLASSES
            .iter()
            .position(|&c| c >= size)
            .expect("size fits the largest class");

        // Grab a slab with space, creating one if needed.
        let mut fresh_slab = false;
        let base = loop {
            match self.caches[cache_idx].partial.last().copied() {
                Some(p) => break p,
                None => {
                    self.new_slab(ctx, phys, buddy, layout, cpu, cache_idx, site)?;
                    fresh_slab = true;
                }
            }
        };
        ctx.metrics.incr(if fresh_slab {
            "sim_mem.kmalloc.fresh"
        } else {
            "sim_mem.kmalloc.reuse"
        });

        let cache = &mut self.caches[cache_idx];
        let slab = cache
            .slabs
            .get_mut(&base.raw())
            .expect("partial slab exists");
        let kva = Kva(slab.free_head);
        debug_assert_ne!(kva.raw(), 0, "partial slab with empty freelist");
        // Pop the freelist: the next pointer lives in the object itself.
        let pa = layout.kva_to_phys(kva)?;
        slab.free_head = phys.read_u64(pa)?;
        slab.inuse += 1;
        if slab.free_head == 0 {
            // Slab is now full; drop it from the partial list.
            let pos = cache
                .partial
                .iter()
                .position(|p| *p == base)
                .expect("was partial");
            cache.partial.swap_remove(pos);
        }
        // Scrub the freelist pointer so the caller sees zeroed-ish memory.
        phys.write_u64(pa, 0)?;

        self.live.insert(kva.raw(), LiveObject { cache_idx });
        ctx.emit(Event::Alloc {
            at: ctx.clock.now(),
            kva,
            size,
            site,
            cache: self.caches[cache_idx].cache_name(),
        });
        Ok(kva)
    }

    /// Creates a fresh slab for `cache_idx` and threads its freelist
    /// through the objects on the page(s).
    #[allow(clippy::too_many_arguments)]
    fn new_slab(
        &mut self,
        ctx: &mut SimCtx,
        phys: &mut PhysMemory,
        buddy: &mut BuddyAllocator,
        layout: &KernelLayout,
        cpu: usize,
        cache_idx: usize,
        site: &'static str,
    ) -> Result<()> {
        let (order, objs, osize) = {
            let c = &self.caches[cache_idx];
            (c.order, c.objects_per_slab, c.object_size)
        };
        let base = buddy.alloc_pages(ctx, cpu, order, site)?;
        let base_kva = layout.pfn_to_kva(base)?;
        // Thread the freelist: object i points at object i+1; last → 0.
        for i in 0..objs {
            let obj = Kva(base_kva.raw() + (i as u64) * osize as u64);
            let next = if i + 1 < objs {
                base_kva.raw() + ((i + 1) as u64) * osize as u64
            } else {
                0
            };
            phys.write_u64(layout.kva_to_phys(obj)?, next)?;
        }
        let cache = &mut self.caches[cache_idx];
        cache.slabs.insert(
            base.raw(),
            Slab {
                free_head: base_kva.raw(),
                inuse: 0,
            },
        );
        cache.partial.push(base);
        for i in 0..(1u64 << order) {
            self.page_owner
                .insert(base.raw() + i, (cache_idx, base.raw()));
        }
        Ok(())
    }

    fn kmalloc_large(
        &mut self,
        ctx: &mut SimCtx,
        buddy: &mut BuddyAllocator,
        layout: &KernelLayout,
        cpu: usize,
        size: usize,
        site: &'static str,
    ) -> Result<Kva> {
        let pages = size.div_ceil(PAGE_SIZE);
        let order = pages.next_power_of_two().trailing_zeros();
        let pfn = buddy.alloc_pages(ctx, cpu, order, site)?;
        let kva = layout.pfn_to_kva(pfn)?;
        self.large.insert(kva.raw(), order);
        ctx.metrics.incr("sim_mem.kmalloc.fresh");
        ctx.emit(Event::Alloc {
            at: ctx.clock.now(),
            kva,
            size,
            site,
            cache: "kmalloc-large",
        });
        Ok(kva)
    }

    /// Frees an object previously returned by [`Self::kmalloc`].
    pub fn kfree(
        &mut self,
        ctx: &mut SimCtx,
        phys: &mut PhysMemory,
        buddy: &mut BuddyAllocator,
        layout: &KernelLayout,
        cpu: usize,
        kva: Kva,
    ) -> Result<()> {
        if let Some(order) = self.large.remove(&kva.raw()) {
            let pfn = layout.kva_to_pfn(kva)?;
            buddy.free_pages(ctx, cpu, pfn, order)?;
            ctx.emit(Event::Free {
                at: ctx.clock.now(),
                kva,
            });
            return Ok(());
        }
        let obj = self
            .live
            .remove(&kva.raw())
            .ok_or(DmaError::BadFree(kva.raw()))?;
        let cache_idx = obj.cache_idx;
        let pfn = layout.kva_to_pfn(kva)?;
        let (owner_idx, base) = *self
            .page_owner
            .get(&pfn.raw())
            .ok_or(DmaError::BadFree(kva.raw()))?;
        debug_assert_eq!(owner_idx, cache_idx);

        let cache = &mut self.caches[cache_idx];
        let slab = cache
            .slabs
            .get_mut(&base)
            .ok_or(DmaError::BadFree(kva.raw()))?;
        // Push onto the freelist (pointer written into the object).
        let was_full = slab.free_head == 0;
        phys.write_u64(layout.kva_to_phys(kva)?, slab.free_head)?;
        slab.free_head = kva.raw();
        slab.inuse -= 1;
        ctx.emit(Event::Free {
            at: ctx.clock.now(),
            kva,
        });

        if was_full {
            cache.partial.push(Pfn(base));
        }
        if slab.inuse == 0 && cache.partial.len() > 1 {
            // Return fully-free slabs to the buddy when we have spares.
            let order = cache.order;
            cache.slabs.remove(&base);
            if let Some(pos) = cache.partial.iter().position(|p| p.raw() == base) {
                cache.partial.swap_remove(pos);
            }
            for i in 0..(1u64 << order) {
                self.page_owner.remove(&(base + i));
            }
            buddy.free_pages(ctx, cpu, Pfn(base), order)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dma_core::KernelLayout;

    fn mk() -> (
        SimCtx,
        PhysMemory,
        BuddyAllocator,
        KernelLayout,
        KmallocCaches,
    ) {
        let layout = KernelLayout::identity(64 << 20);
        (
            SimCtx::new(),
            PhysMemory::new(64 << 20),
            BuddyAllocator::new(Pfn(16), Pfn((64 << 20) / PAGE_SIZE as u64), 1),
            layout,
            KmallocCaches::new(),
        )
    }

    #[test]
    fn size_class_rounding() {
        assert_eq!(KmallocCaches::size_class(1), Some(8));
        assert_eq!(KmallocCaches::size_class(8), Some(8));
        assert_eq!(KmallocCaches::size_class(9), Some(16));
        assert_eq!(KmallocCaches::size_class(100), Some(128));
        assert_eq!(KmallocCaches::size_class(512), Some(512));
        assert_eq!(KmallocCaches::size_class(8192), Some(8192));
        assert_eq!(KmallocCaches::size_class(8193), None);
    }

    #[test]
    fn same_class_objects_share_a_page() {
        // Type (d) substrate: similar-size objects co-reside on a page.
        let (mut ctx, mut phys, mut buddy, layout, mut km) = mk();
        let a = km
            .kmalloc(&mut ctx, &mut phys, &mut buddy, &layout, 0, 512, "a")
            .unwrap();
        let b = km
            .kmalloc(&mut ctx, &mut phys, &mut buddy, &layout, 0, 500, "b")
            .unwrap();
        assert_eq!(a.page_align_down(), b.page_align_down());
        assert_eq!(b - a, 512);
    }

    #[test]
    fn freelist_pointer_lives_in_free_object() {
        // The type (b) exposure: a freed neighbour's next-pointer is plain
        // data on the shared page, readable/corruptible over DMA.
        let (mut ctx, mut phys, mut buddy, layout, mut km) = mk();
        let a = km
            .kmalloc(&mut ctx, &mut phys, &mut buddy, &layout, 0, 512, "a")
            .unwrap();
        let b = km
            .kmalloc(&mut ctx, &mut phys, &mut buddy, &layout, 0, 512, "b")
            .unwrap();
        km.kfree(&mut ctx, &mut phys, &mut buddy, &layout, 0, a)
            .unwrap();
        // `a` now heads the freelist; its first 8 bytes hold the old head,
        // which was the next unallocated object right after `b`.
        let next = phys.read_u64(layout.kva_to_phys(a).unwrap()).unwrap();
        assert_eq!(next, b.raw() + 512);
    }

    #[test]
    fn freed_object_is_reused_lifo() {
        let (mut ctx, mut phys, mut buddy, layout, mut km) = mk();
        let a = km
            .kmalloc(&mut ctx, &mut phys, &mut buddy, &layout, 0, 256, "a")
            .unwrap();
        km.kfree(&mut ctx, &mut phys, &mut buddy, &layout, 0, a)
            .unwrap();
        let b = km
            .kmalloc(&mut ctx, &mut phys, &mut buddy, &layout, 0, 256, "b")
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn double_free_rejected() {
        let (mut ctx, mut phys, mut buddy, layout, mut km) = mk();
        let a = km
            .kmalloc(&mut ctx, &mut phys, &mut buddy, &layout, 0, 64, "a")
            .unwrap();
        km.kfree(&mut ctx, &mut phys, &mut buddy, &layout, 0, a)
            .unwrap();
        assert_eq!(
            km.kfree(&mut ctx, &mut phys, &mut buddy, &layout, 0, a),
            Err(DmaError::BadFree(a.raw()))
        );
    }

    #[test]
    fn zero_size_rejected() {
        let (mut ctx, mut phys, mut buddy, layout, mut km) = mk();
        assert!(km
            .kmalloc(&mut ctx, &mut phys, &mut buddy, &layout, 0, 0, "z")
            .is_err());
    }

    #[test]
    fn large_allocation_roundtrip() {
        let (mut ctx, mut phys, mut buddy, layout, mut km) = mk();
        let k = km
            .kmalloc(
                &mut ctx,
                &mut phys,
                &mut buddy,
                &layout,
                0,
                64 * 1024,
                "lro",
            )
            .unwrap();
        assert!(k.is_page_aligned());
        km.kfree(&mut ctx, &mut phys, &mut buddy, &layout, 0, k)
            .unwrap();
    }

    #[test]
    fn a_full_slab_opens_a_new_page() {
        let (mut ctx, mut phys, mut buddy, layout, mut km) = mk();
        let per_page = PAGE_SIZE / 1024;
        let first = km
            .kmalloc(&mut ctx, &mut phys, &mut buddy, &layout, 0, 1024, "x")
            .unwrap();
        for _ in 1..per_page {
            km.kmalloc(&mut ctx, &mut phys, &mut buddy, &layout, 0, 1024, "x")
                .unwrap();
        }
        let next = km
            .kmalloc(&mut ctx, &mut phys, &mut buddy, &layout, 0, 1024, "x")
            .unwrap();
        assert_ne!(first.page_align_down(), next.page_align_down());
    }

    #[test]
    fn allocated_size_and_cache_lookup() {
        let (mut ctx, mut phys, mut buddy, layout, mut km) = mk();
        let a = km
            .kmalloc(&mut ctx, &mut phys, &mut buddy, &layout, 0, 300, "a")
            .unwrap();
        assert_eq!(km.allocated_size(a), Some(512));
        assert_eq!(km.cache_of(a), Some("kmalloc-512"));
        assert!(km.is_slab_page(layout.kva_to_pfn(a).unwrap()));
    }

    #[test]
    fn exhausting_and_refilling_many_objects() {
        let (mut ctx, mut phys, mut buddy, layout, mut km) = mk();
        let mut objs = Vec::new();
        for i in 0..1000 {
            objs.push(
                km.kmalloc(
                    &mut ctx,
                    &mut phys,
                    &mut buddy,
                    &layout,
                    0,
                    96 + (i % 3),
                    "m",
                )
                .unwrap(),
            );
        }
        let distinct: std::collections::HashSet<_> = objs.iter().map(|k| k.raw()).collect();
        assert_eq!(distinct.len(), objs.len());
        for o in objs {
            km.kfree(&mut ctx, &mut phys, &mut buddy, &layout, 0, o)
                .unwrap();
        }
    }
}
