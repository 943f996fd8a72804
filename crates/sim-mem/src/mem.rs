//! The [`MemorySystem`] facade: KASLR layout + physical memory + the
//! three allocators, with all CPU access routed through KVAs.
//!
//! Devices never touch this type directly; their accesses are brokered by
//! the IOMMU in `sim-iommu`, which translates IOVAs to physical addresses
//! and only then reads/writes [`PhysMemory`].

use crate::buddy::BuddyAllocator;
use crate::page_frag::PageFragAllocator;
use crate::phys::PhysMemory;
use crate::slab::KmallocCaches;
use dma_core::{
    DetRng, DmaError, Event, KernelLayout, Kva, Pfn, Result, SimCtx, PAGE_SHIFT, PAGE_SIZE,
};
use std::sync::Arc;

/// Configuration of a simulated machine's memory.
#[derive(Clone, Debug)]
pub struct MemConfig {
    /// Physical memory size in bytes.
    pub phys_bytes: u64,
    /// Number of CPUs (per-CPU allocator instances).
    pub num_cpus: usize,
    /// KASLR seed; `None` disables randomization.
    pub kaslr_seed: Option<u64>,
    /// Low frames reserved for the kernel image / firmware.
    pub reserved_pages: u64,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            phys_bytes: 256 << 20,
            num_cpus: 4,
            kaslr_seed: None,
            reserved_pages: 256,
        }
    }
}

/// A machine's memory: layout, backing store, and allocators.
#[derive(Clone, Debug)]
pub struct MemorySystem {
    /// The (possibly randomized) kernel virtual-memory layout.
    pub layout: KernelLayout,
    /// Backing physical frames.
    pub phys: PhysMemory,
    /// Page allocator.
    pub buddy: BuddyAllocator,
    /// kmalloc caches.
    pub kmalloc: KmallocCaches,
    /// page_frag caches.
    pub frag: PageFragAllocator,
    /// The installed prefix of the synthetic kernel text, mapped
    /// read/execute-only at `layout.text_base`; the rest of the
    /// `layout.text_size` section reads as zeros, so a machine that
    /// never installs text never allocates it. Shared copy-on-write:
    /// W^X keeps CPU stores out, so cloned machines alias one buffer
    /// until someone calls [`MemorySystem::install_text`].
    text: Arc<Vec<u8>>,
    cur_cpu: usize,
}

impl MemorySystem {
    /// Builds a memory system from `config`.
    pub fn new(config: &MemConfig) -> Self {
        let layout = match config.kaslr_seed {
            Some(seed) => {
                let mut rng = DetRng::new(seed);
                KernelLayout::randomize(&mut rng, config.phys_bytes)
            }
            None => KernelLayout::identity(config.phys_bytes),
        };
        let end = Pfn(config.phys_bytes >> PAGE_SHIFT);
        MemorySystem {
            phys: PhysMemory::new(config.phys_bytes),
            buddy: BuddyAllocator::new(Pfn(config.reserved_pages), end, config.num_cpus),
            kmalloc: KmallocCaches::new(),
            frag: PageFragAllocator::new(config.num_cpus),
            text: Arc::new(Vec::new()),
            layout,
            cur_cpu: 0,
        }
    }

    /// Installs synthetic kernel text bytes (the gadget corpus) at the
    /// start of the section, truncated to `layout.text_size`; bytes past
    /// them keep whatever an earlier install put there.
    pub fn install_text(&mut self, bytes: &[u8]) {
        let n = bytes.len().min(self.layout.text_size as usize);
        let text = Arc::make_mut(&mut self.text);
        if text.len() < n {
            text.resize(n, 0);
        }
        text[..n].copy_from_slice(&bytes[..n]);
    }

    /// Selects the CPU subsequent allocations are attributed to.
    pub fn set_cpu(&mut self, cpu: usize) {
        self.cur_cpu = cpu;
    }

    /// Currently selected CPU.
    pub fn cpu(&self) -> usize {
        self.cur_cpu
    }

    // ------------------------------------------------------------------
    // Allocation API (Linux-shaped).
    // ------------------------------------------------------------------

    /// `alloc_pages()`: 2^order frames from the buddy allocator.
    ///
    /// Fault-injection site `sim_mem.alloc_pages` (the
    /// `fail_page_alloc` analog): an injected hit fails the request
    /// with `OutOfMemory` before any allocator state changes.
    pub fn alloc_pages(&mut self, ctx: &mut SimCtx, order: u32, site: &'static str) -> Result<Pfn> {
        ctx.metrics.incr("sim_mem.alloc_pages.calls");
        if ctx.fault("sim_mem.alloc_pages") {
            return Err(DmaError::OutOfMemory);
        }
        let pfn = ctx.prof("mem.alloc_pages", |ctx| {
            self.buddy.alloc_pages(ctx, self.cur_cpu, order, site)
        })?;
        ctx.metrics
            .gauge_set("sim_mem.buddy.free_pages", self.buddy.free_page_count());
        Ok(pfn)
    }

    /// `__free_pages()`.
    pub fn free_pages(&mut self, ctx: &mut SimCtx, pfn: Pfn, order: u32) -> Result<()> {
        ctx.metrics.incr("sim_mem.free_pages.calls");
        ctx.prof("mem.free_pages", |ctx| {
            self.buddy.free_pages(ctx, self.cur_cpu, pfn, order)
        })?;
        ctx.metrics
            .gauge_set("sim_mem.buddy.free_pages", self.buddy.free_page_count());
        Ok(())
    }

    /// `kmalloc()`.
    ///
    /// Fault-injection site `sim_mem.kmalloc` (the `failslab` analog):
    /// an injected hit fails the request with `OutOfMemory` before any
    /// cache state changes.
    pub fn kmalloc(&mut self, ctx: &mut SimCtx, size: usize, site: &'static str) -> Result<Kva> {
        ctx.metrics.incr("sim_mem.kmalloc.calls");
        ctx.metrics.observe("sim_mem.kmalloc.size", size as u64);
        if ctx.fault("sim_mem.kmalloc") {
            return Err(DmaError::OutOfMemory);
        }
        ctx.prof("mem.kmalloc", |ctx| {
            self.kmalloc.kmalloc(
                ctx,
                &mut self.phys,
                &mut self.buddy,
                &self.layout,
                self.cur_cpu,
                size,
                site,
            )
        })
    }

    /// `kzalloc()`: kmalloc + zero.
    pub fn kzalloc(&mut self, ctx: &mut SimCtx, size: usize, site: &'static str) -> Result<Kva> {
        let kva = self.kmalloc(ctx, size, site)?;
        self.phys.zero(self.layout.kva_to_phys(kva)?, size)?;
        Ok(kva)
    }

    /// `kfree()`.
    pub fn kfree(&mut self, ctx: &mut SimCtx, kva: Kva) -> Result<()> {
        ctx.metrics.incr("sim_mem.kfree.calls");
        ctx.prof("mem.kfree", |ctx| {
            self.kmalloc.kfree(
                ctx,
                &mut self.phys,
                &mut self.buddy,
                &self.layout,
                self.cur_cpu,
                kva,
            )
        })
    }

    /// `page_frag_alloc()` (used by `netdev_alloc_skb`/`napi_alloc_skb`).
    ///
    /// Fault-injection site `sim_mem.page_frag_alloc`: an injected hit
    /// fails with `OutOfMemory` before touching the per-CPU frag cache.
    pub fn page_frag_alloc(
        &mut self,
        ctx: &mut SimCtx,
        size: usize,
        site: &'static str,
    ) -> Result<Kva> {
        ctx.metrics.incr("sim_mem.page_frag.allocs");
        if ctx.fault("sim_mem.page_frag_alloc") {
            return Err(DmaError::OutOfMemory);
        }
        ctx.prof("mem.page_frag.alloc", |ctx| {
            self.frag
                .alloc(ctx, &mut self.buddy, &self.layout, self.cur_cpu, size, site)
        })
    }

    /// `page_frag_free()` (a.k.a. `skb_free_frag`).
    pub fn page_frag_free(&mut self, ctx: &mut SimCtx, kva: Kva) -> Result<()> {
        ctx.metrics.incr("sim_mem.page_frag.frees");
        ctx.prof("mem.page_frag.free", |ctx| {
            self.frag
                .free(ctx, &mut self.buddy, &self.layout, self.cur_cpu, kva)
        })
    }

    // ------------------------------------------------------------------
    // CPU access path (by KVA).
    // ------------------------------------------------------------------

    /// CPU load of `buf.len()` bytes at `kva`.
    ///
    /// Direct-map reads hit physical memory; text reads hit the synthetic
    /// text section, zeros past its installed bytes. Emits a `CpuAccess`
    /// event when tracing is on.
    pub fn cpu_read(
        &self,
        ctx: &mut SimCtx,
        kva: Kva,
        buf: &mut [u8],
        site: &'static str,
    ) -> Result<()> {
        if self.layout.in_text(kva) {
            let off = (kva.raw() - self.layout.text_base.raw()) as usize;
            let end = off
                .checked_add(buf.len())
                .ok_or(DmaError::NotDirectMap(kva.raw()))?;
            if end > self.layout.text_size as usize {
                return Err(DmaError::NotDirectMap(kva.raw()));
            }
            let installed = self.text.get(off..).unwrap_or_default();
            let n = installed.len().min(buf.len());
            buf[..n].copy_from_slice(&installed[..n]);
            buf[n..].fill(0);
        } else {
            let pa = self.layout.kva_to_phys(kva)?;
            self.phys.read(pa, buf)?;
        }
        ctx.emit(Event::CpuAccess {
            at: ctx.clock.now(),
            kva,
            len: buf.len(),
            write: false,
            site,
        });
        Ok(())
    }

    /// CPU store of `buf` at `kva`. Kernel text is write-protected (W^X).
    pub fn cpu_write(
        &mut self,
        ctx: &mut SimCtx,
        kva: Kva,
        buf: &[u8],
        site: &'static str,
    ) -> Result<()> {
        if self.layout.in_text(kva) {
            return Err(DmaError::CpuFault("write to read-only kernel text"));
        }
        let pa = self.layout.kva_to_phys(kva)?;
        self.phys.write(pa, buf)?;
        ctx.emit(Event::CpuAccess {
            at: ctx.clock.now(),
            kva,
            len: buf.len(),
            write: true,
            site,
        });
        Ok(())
    }

    /// CPU load of a little-endian u64.
    pub fn cpu_read_u64(&self, ctx: &mut SimCtx, kva: Kva, site: &'static str) -> Result<u64> {
        let mut b = [0u8; 8];
        self.cpu_read(ctx, kva, &mut b, site)?;
        Ok(u64::from_le_bytes(b))
    }

    /// CPU store of a little-endian u64.
    pub fn cpu_write_u64(
        &mut self,
        ctx: &mut SimCtx,
        kva: Kva,
        v: u64,
        site: &'static str,
    ) -> Result<()> {
        self.cpu_write(ctx, kva, &v.to_le_bytes(), site)
    }

    /// Number of whole pages of physical memory.
    pub fn num_pages(&self) -> u64 {
        self.phys.size() / PAGE_SIZE as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk() -> (SimCtx, MemorySystem) {
        (SimCtx::new(), MemorySystem::new(&MemConfig::default()))
    }

    #[test]
    fn kmalloc_roundtrip_through_cpu_access() {
        let (mut ctx, mut m) = mk();
        let k = m.kmalloc(&mut ctx, 100, "t").unwrap();
        m.cpu_write(&mut ctx, k, b"payload", "t").unwrap();
        let mut buf = [0u8; 7];
        m.cpu_read(&mut ctx, k, &mut buf, "t").unwrap();
        assert_eq!(&buf, b"payload");
        m.kfree(&mut ctx, k).unwrap();
    }

    #[test]
    fn kzalloc_zeroes() {
        let (mut ctx, mut m) = mk();
        let k = m.kmalloc(&mut ctx, 64, "t").unwrap();
        m.cpu_write(&mut ctx, k, &[0xff; 64], "t").unwrap();
        m.kfree(&mut ctx, k).unwrap();
        let k2 = m.kzalloc(&mut ctx, 64, "t").unwrap();
        assert_eq!(k, k2, "LIFO reuse expected");
        let mut buf = [0u8; 64];
        m.cpu_read(&mut ctx, k2, &mut buf, "t").unwrap();
        assert_eq!(buf, [0u8; 64]);
    }

    #[test]
    fn text_is_readable_but_not_writable() {
        let (mut ctx, mut m) = mk();
        m.install_text(&[0x90, 0x90, 0xc3]);
        let t = m.layout.text_base;
        let mut b = [0u8; 3];
        m.cpu_read(&mut ctx, t, &mut b, "t").unwrap();
        assert_eq!(b, [0x90, 0x90, 0xc3]);
        assert_eq!(
            m.cpu_write(&mut ctx, t, &[0; 1], "t"),
            Err(DmaError::CpuFault("write to read-only kernel text"))
        );
    }

    #[test]
    fn text_past_the_installed_bytes_reads_zero() {
        let (mut ctx, mut m) = mk();
        let t = m.layout.text_base.raw();
        let mut b = [0xaau8; 4];
        m.cpu_read(&mut ctx, Kva(t + 0x1000), &mut b, "t").unwrap();
        assert_eq!(b, [0; 4], "nothing installed yet");
        m.install_text(&[0x90, 0x90, 0xc3]);
        let mut b = [0xaau8; 6];
        m.cpu_read(&mut ctx, Kva(t + 1), &mut b, "t").unwrap();
        assert_eq!(b, [0x90, 0xc3, 0, 0, 0, 0], "straddles the installed end");
        let mut b = [0xaau8; 8];
        let last = Kva(t + m.layout.text_size - 8);
        m.cpu_read(&mut ctx, last, &mut b, "t").unwrap();
        assert_eq!(b, [0; 8]);
    }

    #[test]
    fn a_shorter_second_install_keeps_the_first_installs_tail() {
        let (mut ctx, mut m) = mk();
        m.install_text(&[1, 2, 3, 4, 5]);
        let shared = m.clone();
        m.install_text(&[9, 9]);
        let t = m.layout.text_base;
        let mut b = [0u8; 6];
        m.cpu_read(&mut ctx, t, &mut b, "t").unwrap();
        assert_eq!(b, [9, 9, 3, 4, 5, 0]);
        shared.cpu_read(&mut ctx, t, &mut b, "t").unwrap();
        assert_eq!(b, [1, 2, 3, 4, 5, 0], "the clone kept its own text");
    }

    #[test]
    fn text_read_past_end_rejected() {
        let (mut ctx, m) = mk();
        let near_end = Kva(m.layout.text_base.raw() + m.layout.text_size - 4);
        let mut b = [0u8; 8];
        assert!(m.cpu_read(&mut ctx, near_end, &mut b, "t").is_err());
    }

    #[test]
    fn kaslr_seed_changes_layout() {
        let a = MemorySystem::new(&MemConfig {
            kaslr_seed: Some(1),
            ..Default::default()
        });
        let b = MemorySystem::new(&MemConfig {
            kaslr_seed: Some(2),
            ..Default::default()
        });
        let c = MemorySystem::new(&MemConfig {
            kaslr_seed: Some(1),
            ..Default::default()
        });
        assert_eq!(a.layout, c.layout);
        assert_ne!(a.layout, b.layout);
    }

    #[test]
    fn vmalloc_kva_rejected_by_cpu_path() {
        let (mut ctx, m) = mk();
        let mut b = [0u8; 4];
        assert!(m
            .cpu_read(
                &mut ctx,
                Kva(dma_core::layout::VmRegion::Vmalloc.start()),
                &mut b,
                "t"
            )
            .is_err());
    }

    #[test]
    fn reserved_pages_never_allocated() {
        let (mut ctx, mut m) = mk();
        for _ in 0..100 {
            let p = m.alloc_pages(&mut ctx, 0, "t").unwrap();
            assert!(p.raw() >= MemConfig::default().reserved_pages);
        }
    }

    #[test]
    fn allocator_event_stream_yields_reuse_provenance_edges() {
        // The real allocator's trace, not a synthetic stream: slab LIFO
        // reuse and buddy hot-frame reuse must surface as SlabReuse /
        // PageReuse edges when the drained events hit the graph.
        use dma_core::{EdgeKind, ProvenanceGraph};
        let mut ctx = SimCtx::traced();
        let mut m = MemorySystem::new(&MemConfig::default());

        let a = m.kmalloc(&mut ctx, 128, "t_first").unwrap();
        m.kfree(&mut ctx, a).unwrap();
        let b = m.kmalloc(&mut ctx, 128, "t_second").unwrap();
        assert_eq!(a, b, "slab LIFO reuse expected");

        let p = m.alloc_pages(&mut ctx, 0, "t_page").unwrap();
        m.free_pages(&mut ctx, p, 0).unwrap();
        let q = m.alloc_pages(&mut ctx, 0, "t_page").unwrap();
        assert_eq!(p, q, "buddy hot-frame reuse expected");

        let mut g = ProvenanceGraph::new();
        g.ingest_all(ctx.trace.drain());
        let kinds: Vec<EdgeKind> = (0..g.len())
            .flat_map(|i| g.parents(i).iter().map(|&(_, k)| k))
            .collect();
        assert!(kinds.contains(&EdgeKind::FreeOfAlloc), "{kinds:?}");
        assert!(kinds.contains(&EdgeKind::SlabReuse), "{kinds:?}");
        assert!(kinds.contains(&EdgeKind::PageReuse), "{kinds:?}");
    }
}
