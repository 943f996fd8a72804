//! A buddy page allocator with per-CPU hot-page caches.
//!
//! Placement behaviour is what the paper's attacks depend on:
//!
//! - freed order-0 pages go to a per-CPU LIFO cache and are handed back
//!   immediately on the next allocation ("Linux reuses hot pages",
//!   §5.2.1 point 2), which is what lets a page freed while still in a
//!   stale IOTLB entry be re-purposed under the attacker's reach;
//! - allocation order is deterministic for a given call sequence, which
//!   is what makes the boot process deterministic enough for the
//!   RingFlood PFN survey (§5.3).

use dma_core::{DetHashMap, DmaError, Event, Pfn, Result, SimCtx};

/// Maximum buddy order (2^10 pages = 4 MiB blocks), as in Linux.
pub const MAX_ORDER: u32 = 10;
/// Capacity of each per-CPU hot-page cache.
const PCP_CACHE_MAX: usize = 64;

/// The buddy allocator over a contiguous PFN range.
#[derive(Clone, Debug)]
pub struct BuddyAllocator {
    /// Free blocks per order, used as LIFO stacks (hot reuse).
    free_lists: Vec<Vec<Pfn>>,
    /// Every free block's order, for O(1) buddy lookup during coalescing.
    free_blocks: DetHashMap<u64, u32>,
    /// Per-CPU caches of hot order-0 pages.
    pcp: Vec<Vec<Pfn>>,
    first_pfn: Pfn,
    end_pfn: Pfn,
    free_pages: u64,
}

impl BuddyAllocator {
    /// Creates an allocator managing frames `[first, end)`. Frames below
    /// `first` model the kernel image / reserved low memory.
    pub fn new(first: Pfn, end: Pfn, num_cpus: usize) -> Self {
        assert!(first.raw() < end.raw(), "empty buddy range");
        let mut b = BuddyAllocator {
            free_lists: (0..=MAX_ORDER).map(|_| Vec::new()).collect(),
            free_blocks: DetHashMap::default(),
            pcp: (0..num_cpus.max(1)).map(|_| Vec::new()).collect(),
            first_pfn: first,
            end_pfn: end,
            free_pages: 0,
        };
        // Seed the free lists with maximal aligned blocks covering the
        // range, highest addresses pushed last so the *lowest* addresses
        // come off the stacks first — matching Linux's tendency to hand
        // out low memory early in boot.
        let mut pfn = first.raw();
        let mut blocks = Vec::new();
        while pfn < end.raw() {
            let align_order = pfn.trailing_zeros().min(MAX_ORDER);
            let mut order = align_order;
            while pfn + (1 << order) > end.raw() {
                order -= 1;
            }
            blocks.push((Pfn(pfn), order));
            pfn += 1 << order;
        }
        for (pfn, order) in blocks.into_iter().rev() {
            b.insert_free(pfn, order);
        }
        b
    }

    fn insert_free(&mut self, pfn: Pfn, order: u32) {
        self.free_lists[order as usize].push(pfn);
        self.free_blocks.insert(pfn.raw(), order);
        self.free_pages += 1 << order;
    }

    fn remove_specific(&mut self, pfn: Pfn, order: u32) {
        let list = &mut self.free_lists[order as usize];
        let pos = list
            .iter()
            .position(|p| *p == pfn)
            .expect("free block missing from its list");
        list.swap_remove(pos);
        self.free_blocks.remove(&pfn.raw());
        self.free_pages -= 1 << order;
    }

    /// Number of currently free pages (including per-CPU cached ones).
    pub fn free_page_count(&self) -> u64 {
        self.free_pages + self.pcp.iter().map(|l| l.len() as u64).sum::<u64>()
    }

    /// Allocates `2^order` contiguous, naturally aligned frames.
    ///
    /// Order-0 requests are served from the per-CPU hot cache first.
    pub fn alloc_pages(
        &mut self,
        ctx: &mut SimCtx,
        cpu: usize,
        order: u32,
        site: &'static str,
    ) -> Result<Pfn> {
        if order > MAX_ORDER {
            return Err(DmaError::InvalidAlloc(1usize << order));
        }
        if order == 0 {
            let idx = cpu % self.pcp.len();
            if let Some(pfn) = self.pcp[idx].pop() {
                ctx.emit(Event::PageAlloc {
                    at: ctx.clock.now(),
                    pfn,
                    order,
                    site,
                });
                return Ok(pfn);
            }
        }
        let pfn = self.alloc_from_lists(order)?;
        ctx.emit(Event::PageAlloc {
            at: ctx.clock.now(),
            pfn,
            order,
            site,
        });
        Ok(pfn)
    }

    fn alloc_from_lists(&mut self, order: u32) -> Result<Pfn> {
        // Find the smallest available order >= requested.
        let mut o = order;
        while (o as usize) < self.free_lists.len() && self.free_lists[o as usize].is_empty() {
            o += 1;
        }
        if o > MAX_ORDER {
            return Err(DmaError::OutOfMemory);
        }
        let pfn = self.free_lists[o as usize]
            .pop()
            .expect("checked non-empty");
        self.free_blocks.remove(&pfn.raw());
        self.free_pages -= 1 << o;
        // Split down to the requested order, freeing the upper halves.
        while o > order {
            o -= 1;
            let buddy = Pfn(pfn.raw() + (1 << o));
            self.insert_free(buddy, o);
        }
        Ok(pfn)
    }

    /// Frees `2^order` frames starting at `pfn`.
    ///
    /// Order-0 frees land in the per-CPU hot cache; overflow spills back
    /// into the buddy lists with coalescing.
    pub fn free_pages(&mut self, ctx: &mut SimCtx, cpu: usize, pfn: Pfn, order: u32) -> Result<()> {
        if order > MAX_ORDER
            || pfn.raw() < self.first_pfn.raw()
            || pfn.raw() + (1 << order) > self.end_pfn.raw()
            || pfn.raw() & ((1 << order) - 1) != 0
        {
            return Err(DmaError::BadFree(pfn.base().raw()));
        }
        if self.free_blocks.contains_key(&pfn.raw()) {
            return Err(DmaError::BadFree(pfn.base().raw()));
        }
        ctx.emit(Event::PageFree {
            at: ctx.clock.now(),
            pfn,
            order,
        });
        if order == 0 {
            let idx = cpu % self.pcp.len();
            let cache = &mut self.pcp[idx];
            cache.push(pfn);
            if cache.len() <= PCP_CACHE_MAX {
                return Ok(());
            }
            // Spill the oldest half back to the buddy lists.
            let spill: Vec<Pfn> = cache.drain(..PCP_CACHE_MAX / 2).collect();
            for p in spill {
                self.free_with_coalesce(p, 0);
            }
            return Ok(());
        }
        self.free_with_coalesce(pfn, order);
        Ok(())
    }

    fn free_with_coalesce(&mut self, mut pfn: Pfn, mut order: u32) {
        while order < MAX_ORDER {
            let buddy = Pfn(pfn.raw() ^ (1 << order));
            if buddy.raw() < self.first_pfn.raw() || buddy.raw() + (1 << order) > self.end_pfn.raw()
            {
                break;
            }
            match self.free_blocks.get(&buddy.raw()) {
                Some(&bo) if bo == order => {
                    self.remove_specific(buddy, order);
                    pfn = Pfn(pfn.raw() & !(1u64 << order));
                    order += 1;
                }
                _ => break,
            }
        }
        self.insert_free(pfn, order);
    }

    /// First managed frame.
    pub fn first_pfn(&self) -> Pfn {
        self.first_pfn
    }

    /// One past the last managed frame.
    pub fn end_pfn(&self) -> Pfn {
        self.end_pfn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk() -> (SimCtx, BuddyAllocator) {
        (
            SimCtx::new(),
            BuddyAllocator::new(Pfn(16), Pfn(16 + 4096), 2),
        )
    }

    #[test]
    fn alloc_is_aligned_and_in_range() {
        let (mut ctx, mut b) = mk();
        for order in 0..=MAX_ORDER {
            let pfn = b.alloc_pages(&mut ctx, 0, order, "t").unwrap();
            assert_eq!(
                pfn.raw() & ((1 << order) - 1),
                0,
                "order {order} misaligned"
            );
            assert!(pfn.raw() >= 16);
            assert!(pfn.raw() + (1 << order) <= 16 + 4096);
            b.free_pages(&mut ctx, 0, pfn, order).unwrap();
        }
    }

    #[test]
    fn hot_page_is_reused_immediately() {
        // §5.2.1: "Linux reuses hot pages ... as they are likely to reside
        // in the CPU caches". A freed order-0 page must come back on the
        // very next same-CPU allocation.
        let (mut ctx, mut b) = mk();
        let a = b.alloc_pages(&mut ctx, 0, 0, "t").unwrap();
        let _other = b.alloc_pages(&mut ctx, 0, 0, "t").unwrap();
        b.free_pages(&mut ctx, 0, a, 0).unwrap();
        let again = b.alloc_pages(&mut ctx, 0, 0, "t").unwrap();
        assert_eq!(a, again);
    }

    #[test]
    fn coalescing_restores_high_orders() {
        let (mut ctx, mut b) = mk();
        let before = b.free_page_count();
        let big = b.alloc_pages(&mut ctx, 0, MAX_ORDER, "t").unwrap();
        // Split into order-0 frees and ensure they merge back.
        for i in 0..(1u64 << MAX_ORDER) {
            b.free_with_coalesce(Pfn(big.raw() + i), 0);
        }
        assert_eq!(b.free_page_count(), before);
        // The merged block must be allocatable again at MAX_ORDER.
        let re = b.alloc_pages(&mut ctx, 0, MAX_ORDER, "t").unwrap();
        assert_eq!(re, big);
    }

    #[test]
    fn double_free_detected() {
        let (mut ctx, mut b) = mk();
        let p = b.alloc_pages(&mut ctx, 0, 3, "t").unwrap();
        b.free_pages(&mut ctx, 0, p, 3).unwrap();
        assert_eq!(
            b.free_pages(&mut ctx, 0, p, 3),
            Err(DmaError::BadFree(p.base().raw()))
        );
    }

    #[test]
    fn misaligned_or_out_of_range_free_rejected() {
        let (mut ctx, mut b) = mk();
        assert!(b.free_pages(&mut ctx, 0, Pfn(17), 1).is_err()); // misaligned
        assert!(b.free_pages(&mut ctx, 0, Pfn(2), 0).is_err()); // below range
        assert!(b.free_pages(&mut ctx, 0, Pfn(1 << 32), 0).is_err()); // above range
    }

    #[test]
    fn exhaustion_returns_oom() {
        let mut ctx = SimCtx::new();
        let mut b = BuddyAllocator::new(Pfn(0), Pfn(8), 1);
        let mut got = Vec::new();
        loop {
            match b.alloc_pages(&mut ctx, 0, 0, "t") {
                Ok(p) => got.push(p),
                Err(DmaError::OutOfMemory) => break,
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert_eq!(got.len(), 8);
        // All distinct.
        let set: std::collections::HashSet<_> = got.iter().map(|p| p.raw()).collect();
        assert_eq!(set.len(), 8);
    }

    #[test]
    fn deterministic_sequence_across_instances() {
        let seq = |n: usize| -> Vec<u64> {
            let (mut ctx, mut b) = mk();
            (0..n)
                .map(|i| {
                    b.alloc_pages(&mut ctx, i % 2, (i % 3) as u32, "t")
                        .unwrap()
                        .raw()
                })
                .collect()
        };
        assert_eq!(seq(64), seq(64));
    }

    #[test]
    fn events_emitted_when_traced() {
        let mut ctx = SimCtx::traced();
        let mut b = BuddyAllocator::new(Pfn(0), Pfn(64), 1);
        let p = b.alloc_pages(&mut ctx, 0, 1, "site_x").unwrap();
        b.free_pages(&mut ctx, 0, p, 1).unwrap();
        let evs = ctx.trace.drain();
        assert!(matches!(evs[0], Event::PageAlloc { site: "site_x", .. }));
        assert!(matches!(evs[1], Event::PageFree { .. }));
    }
}
