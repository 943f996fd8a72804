//! NIC driver models.
//!
//! The driver is the code that actually calls the DMA API, and the paper
//! shows that *how* it calls it decides which attacks work:
//!
//! - **RX allocation policy**: `page_frag` (the common case, creates
//!   type (c) page sharing), page-per-buffer (isolated; closes path iii),
//!   or kmalloc (random co-location, type (d)).
//! - **Unmap ordering**: "prevalent device drivers (e.g., Intel 40GbE
//!   driver, i40e) first create an sk_buff and only then unmap the
//!   buffer" (§5.2.2 path (i)). Both orders are modeled; `rx_poll`
//!   accepts a *race hook* that runs between the two steps so the
//!   attack harness can demonstrate exactly what a concurrently-DMAing
//!   device can do in that window.
//! - **RX buffer size**: 2 KiB (MTU-sized, kernel-5.0 mlx5 style) or
//!   64 KiB (HW-LRO, kernel-4.15 style) — the driver memory footprint
//!   that drives the RingFlood survey (§5.3).

use crate::shinfo::SHINFO_SIZE;
use crate::skb::{build_skb, kfree_skb, AllocKind, PendingCallback, SkBuff};
use dma_core::clock::{Cycles, CYCLES_PER_MS};
use dma_core::trace::DeviceId;
use dma_core::vuln::DmaDirection;
use dma_core::{DmaError, Iova, Kva, Result, SimCtx, PAGE_SIZE};
use sim_iommu::{dma_map_single, dma_unmap_single, DmaMapping, Iommu};
use sim_mem::MemorySystem;
use std::collections::VecDeque;

/// RX data-buffer allocation policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocPolicy {
    /// `napi_alloc_frag` / page_frag carving (the Linux default for
    /// MTU-sized buffers). Creates type (c) page sharing.
    PageFrag,
    /// One full page (or compound page) per buffer; no sharing.
    PagePerBuffer,
    /// `kmalloc`-backed buffers; shares slab pages with unrelated kernel
    /// objects (type (d)).
    Kmalloc,
}

/// Order of sk_buff construction vs DMA unmap on the RX completion path
/// (Figure 7 paths (i) and (ii)).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnmapOrder {
    /// Correct order: revoke device access, then initialize metadata.
    UnmapThenBuild,
    /// i40e-style: build (initializing `skb_shared_info`) while the
    /// device still holds a live mapping.
    BuildThenUnmap,
}

/// Static driver configuration.
#[derive(Clone, Copy, Debug)]
pub struct DriverConfig {
    /// Human-readable name ("mlx5_core", "i40e", ...).
    pub name: &'static str,
    /// The device this driver serves.
    pub dev: DeviceId,
    /// RX descriptor ring size.
    pub rx_ring_size: usize,
    /// RX buffer size in bytes (2048 default; 65536 with HW LRO).
    pub rx_buf_size: usize,
    /// RX allocation policy.
    pub alloc: AllocPolicy,
    /// RX completion ordering.
    pub unmap_order: UnmapOrder,
    /// Whether the driver DMA-maps a kmalloc'd control block
    /// bidirectionally (admin/event queues do this in real drivers; it
    /// is the random-co-location leak D-KASAN flags).
    pub map_ctrl_block: bool,
    /// XDP enabled: RX buffers are mapped BIDIRECTIONAL instead of
    /// device-write-only (§5.1: "in some cases, such as XDP, with
    /// BIDIRECTIONAL"), widening what a malicious device can *read*.
    pub xdp: bool,
    /// Number of RX queues. Linux runs one RX ring per CPU, each served
    /// by its own per-CPU page_frag region (§5.2.2, Figure 5); the
    /// driver's total footprint — and hence RingFlood's success odds —
    /// scales with this (§5.3: "a higher chance of success on larger
    /// machines").
    pub num_queues: usize,
    /// TX completion timeout before the driver resets (§5.4: "usually a
    /// few seconds, which is sufficient to complete the attack").
    pub tx_timeout: Cycles,
    /// TX descriptor ring size; `transmit` rejects with `RingFull` when
    /// this many skbs are outstanding (posted but not yet reaped).
    pub tx_ring_size: usize,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            name: "simnic",
            dev: 1,
            rx_ring_size: 64,
            rx_buf_size: 2048,
            alloc: AllocPolicy::PageFrag,
            unmap_order: UnmapOrder::UnmapThenBuild,
            map_ctrl_block: false,
            xdp: false,
            num_queues: 1,
            tx_timeout: 5_000 * CYCLES_PER_MS,
            tx_ring_size: 64,
        }
    }
}

/// Retries `rx_refill` performs on a transient failure before giving up
/// and running with a partially-filled ring.
const RX_REFILL_MAX_RETRIES: u32 = 3;

/// Backoff between RX refill retries (real drivers reschedule NAPI or a
/// refill worker; here the simulated clock advances instead).
const RX_REFILL_BACKOFF: Cycles = CYCLES_PER_MS / 4;

/// Counters, modeled on the `rx_alloc_failed` / `tx_dropped` families
/// real NIC drivers export through ethtool.
#[derive(Clone, Copy, Debug, Default)]
pub struct DriverStats {
    /// Packets delivered up the stack.
    pub rx_packets: u64,
    /// Packets handed to the device for transmit.
    pub tx_packets: u64,
    /// TX watchdog resets.
    pub resets: u64,
    /// RX buffer allocations that failed transiently during refill.
    pub rx_alloc_failed: u64,
    /// RX buffers allocated but dropped because the DMA map failed.
    pub rx_map_failed: u64,
    /// Backoff-and-retry rounds taken by `rx_refill`.
    pub rx_refill_retries: u64,
    /// Transmits rejected because the TX ring was full.
    pub tx_ring_full: u64,
    /// skbs dropped on the TX path because a DMA map failed.
    pub tx_dropped: u64,
}

/// A posted RX buffer awaiting device DMA.
#[derive(Clone, Copy, Debug)]
pub struct RxSlot {
    /// The live mapping (WRITE for the device).
    pub mapping: DmaMapping,
    /// Usable bytes before the shared info.
    pub buf_size: usize,
    /// Bytes the device reported writing (set on completion).
    pub written: usize,
    /// How the buffer was allocated (for freeing).
    pub alloc: AllocKind,
}

/// A TX descriptor visible to the device.
#[derive(Clone, Debug)]
pub struct TxDesc {
    /// Slot index (used to signal completion).
    pub idx: usize,
    /// IOVA of the linear part (READ for the device).
    pub iova: Iova,
    /// Length of the linear part.
    pub len: usize,
    /// IOVAs and lengths of the fragment mappings.
    pub frags: Vec<(Iova, usize)>,
}

#[derive(Clone, Debug)]
struct TxSlot {
    skb: SkBuff,
    linear: DmaMapping,
    frag_maps: Vec<DmaMapping>,
    posted_at: Cycles,
    completed: bool,
    reaped: bool,
}

/// A simulated NIC driver instance.
#[derive(Clone, Debug)]
pub struct NicDriver {
    /// Configuration.
    pub cfg: DriverConfig,
    /// Counters.
    pub stats: DriverStats,
    posted: VecDeque<RxSlot>,
    completed: VecDeque<RxSlot>,
    tx: Vec<TxSlot>,
    /// The kmalloc'd, bidirectionally mapped control block, if enabled.
    pub ctrl_block: Option<(Kva, DmaMapping)>,
}

impl NicDriver {
    /// Probes the driver: attaches the device to the IOMMU, maps the
    /// control block if configured, and fills the RX ring.
    pub fn probe(
        cfg: DriverConfig,
        ctx: &mut SimCtx,
        mem: &mut MemorySystem,
        iommu: &mut Iommu,
    ) -> Result<Self> {
        iommu.attach_device(cfg.dev);
        let mut d = NicDriver {
            cfg,
            stats: DriverStats::default(),
            posted: VecDeque::new(),
            completed: VecDeque::new(),
            tx: Vec::new(),
            ctrl_block: None,
        };
        if cfg.map_ctrl_block {
            let kva = mem.kzalloc(ctx, 512, "nic_alloc_cmd_queue")?;
            let m = dma_map_single(
                ctx,
                iommu,
                &mem.layout,
                cfg.dev,
                kva,
                512,
                DmaDirection::Bidirectional,
                "nic_map_cmd_queue",
            )?;
            d.ctrl_block = Some((kva, m));
        }
        d.rx_refill(ctx, mem, iommu)?;
        Ok(d)
    }

    /// Usable payload capacity of an RX buffer (before the shared info).
    pub fn rx_payload_capacity(&self) -> usize {
        self.cfg.rx_buf_size - SHINFO_SIZE
    }

    /// Refills the RX ring to capacity, allocating and DMA-mapping fresh
    /// buffers per the configured policy.
    ///
    /// Transient failures (allocator pressure, IOVA exhaustion, injected
    /// faults) are absorbed: the refill backs off and retries up to
    /// [`RX_REFILL_MAX_RETRIES`] times, then returns `Ok` with a
    /// partially-filled ring — exactly how real drivers degrade when
    /// `napi_alloc_frag` fails under memory pressure. The shortfall is
    /// visible in `stats.rx_alloc_failed` / `stats.rx_map_failed`, and
    /// the next poll's refill tries again. Non-transient errors (layout
    /// or invariant violations) still propagate.
    pub fn rx_refill(
        &mut self,
        ctx: &mut SimCtx,
        mem: &mut MemorySystem,
        iommu: &mut Iommu,
    ) -> Result<()> {
        let span = ctx.span_begin("rx.refill");
        let res = self.rx_refill_inner(ctx, mem, iommu);
        ctx.span_end(span);
        res
    }

    fn rx_refill_inner(
        &mut self,
        ctx: &mut SimCtx,
        mem: &mut MemorySystem,
        iommu: &mut Iommu,
    ) -> Result<()> {
        let queues = self.cfg.num_queues.max(1);
        let target = self.cfg.rx_ring_size * queues;
        let mut retries_left = RX_REFILL_MAX_RETRIES;
        while self.posted.len() + self.completed.len() < target {
            // Round-robin the refills across the per-CPU rings: each
            // queue draws from its own CPU's page_frag region.
            let slot_index = self.posted.len() + self.completed.len();
            mem.set_cpu(slot_index % queues);
            match self.try_post_rx_buffer(ctx, mem, iommu) {
                Ok(()) => {}
                Err(e) if e.is_transient() => {
                    if retries_left == 0 {
                        // Degrade: run with a short ring rather than fail
                        // the poll path.
                        break;
                    }
                    retries_left -= 1;
                    self.stats.rx_refill_retries += 1;
                    ctx.metrics.incr("sim_net.rx.refill_retries");
                    ctx.clock.advance(RX_REFILL_BACKOFF);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Allocates, maps, and posts one RX buffer. On a map failure the
    /// just-allocated buffer is freed again so nothing leaks.
    fn try_post_rx_buffer(
        &mut self,
        ctx: &mut SimCtx,
        mem: &mut MemorySystem,
        iommu: &mut Iommu,
    ) -> Result<()> {
        if ctx.fault("sim_net.rx_refill") {
            self.stats.rx_alloc_failed += 1;
            ctx.metrics.incr("sim_net.rx.alloc_failed");
            return Err(DmaError::OutOfMemory);
        }
        let (kva, alloc) = match self.alloc_rx_buffer(ctx, mem) {
            Ok(pair) => pair,
            Err(e) => {
                if e.is_transient() {
                    self.stats.rx_alloc_failed += 1;
                    ctx.metrics.incr("sim_net.rx.alloc_failed");
                }
                return Err(e);
            }
        };
        let dir = if self.cfg.xdp {
            DmaDirection::Bidirectional
        } else {
            DmaDirection::FromDevice
        };
        let mapping = match dma_map_single(
            ctx,
            iommu,
            &mem.layout,
            self.cfg.dev,
            kva,
            self.cfg.rx_buf_size,
            dir,
            "nic_rx_map",
        ) {
            Ok(m) => m,
            Err(e) => {
                if e.is_transient() {
                    self.stats.rx_map_failed += 1;
                    ctx.metrics.incr("sim_net.rx.map_failed");
                }
                Self::free_rx_buffer(ctx, mem, kva, alloc)?;
                return Err(e);
            }
        };
        self.posted.push_back(RxSlot {
            mapping,
            buf_size: self.cfg.rx_buf_size - SHINFO_SIZE,
            written: 0,
            alloc,
        });
        ctx.metrics.gauge_set(
            "sim_net.rx_ring.occupancy",
            (self.posted.len() + self.completed.len()) as u64,
        );
        Ok(())
    }

    fn alloc_rx_buffer(
        &mut self,
        ctx: &mut SimCtx,
        mem: &mut MemorySystem,
    ) -> Result<(Kva, AllocKind)> {
        Ok(match self.cfg.alloc {
            AllocPolicy::PageFrag => (
                mem.page_frag_alloc(ctx, self.cfg.rx_buf_size, "netdev_alloc_frag")?,
                AllocKind::PageFrag,
            ),
            AllocPolicy::PagePerBuffer => {
                let pages = self.cfg.rx_buf_size.div_ceil(PAGE_SIZE);
                let order = pages.next_power_of_two().trailing_zeros();
                let pfn = mem.alloc_pages(ctx, order, "nic_alloc_rx_page")?;
                (mem.layout.pfn_to_kva(pfn)?, AllocKind::Pages { order })
            }
            AllocPolicy::Kmalloc => (
                mem.kmalloc(ctx, self.cfg.rx_buf_size, "nic_alloc_rx_kmalloc")?,
                AllocKind::Kmalloc,
            ),
        })
    }

    /// Returns an RX buffer to the allocator it came from.
    fn free_rx_buffer(
        ctx: &mut SimCtx,
        mem: &mut MemorySystem,
        kva: Kva,
        alloc: AllocKind,
    ) -> Result<()> {
        match alloc {
            AllocKind::PageFrag => mem.page_frag_free(ctx, kva),
            AllocKind::Pages { order } => {
                let pfn = mem.layout.kva_to_pfn(kva)?;
                mem.free_pages(ctx, pfn, order)
            }
            AllocKind::Kmalloc => mem.kfree(ctx, kva),
        }
    }

    // ------------------------------------------------------------------
    // Device-facing interface (what the NIC hardware sees).
    // ------------------------------------------------------------------

    /// The posted RX descriptors: (IOVA, capacity). This is what the
    /// device reads from the descriptor ring.
    pub fn rx_descriptors(&self) -> Vec<(Iova, usize)> {
        self.posted
            .iter()
            .map(|s| (s.mapping.iova, s.buf_size))
            .collect()
    }

    /// Read-only view of the posted RX slots (diagnostics and tests).
    pub fn posted_slots(&self) -> impl Iterator<Item = &RxSlot> {
        self.posted.iter()
    }

    /// The device signals that it wrote `written` bytes into the head
    /// RX buffer.
    pub fn device_rx_complete(&mut self, written: usize) -> Result<()> {
        let mut slot = self.posted.pop_front().ok_or(DmaError::RingEmpty)?;
        slot.written = written.min(slot.buf_size);
        self.completed.push_back(slot);
        Ok(())
    }

    /// The posted TX descriptors awaiting device read + completion.
    pub fn tx_descriptors(&self) -> Vec<TxDesc> {
        self.tx
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.completed)
            .map(|(idx, s)| TxDesc {
                idx,
                iova: s.linear.iova,
                len: s.linear.len,
                frags: s.frag_maps.iter().map(|m| (m.iova, m.len)).collect(),
            })
            .collect()
    }

    /// The device signals TX completion for slot `idx`.
    pub fn device_tx_complete(&mut self, idx: usize) -> Result<()> {
        let slot = self.tx.get_mut(idx).ok_or(DmaError::RingEmpty)?;
        slot.completed = true;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Kernel-facing interface.
    // ------------------------------------------------------------------

    /// Processes one completed RX buffer into an sk_buff.
    ///
    /// `race` runs between the two completion steps (build / unmap, in
    /// the configured order) and models device DMA concurrent with the
    /// CPU — the window of Figure 7 path (i).
    pub fn rx_poll<F>(
        &mut self,
        ctx: &mut SimCtx,
        mem: &mut MemorySystem,
        iommu: &mut Iommu,
        mut race: F,
    ) -> Result<Option<SkBuff>>
    where
        F: FnMut(&mut SimCtx, &mut MemorySystem, &mut Iommu, &RxSlot),
    {
        let span = ctx.span_begin("rx.poll");
        let res = self.rx_poll_inner(ctx, mem, iommu, &mut race);
        ctx.span_end(span);
        res
    }

    fn rx_poll_inner<F>(
        &mut self,
        ctx: &mut SimCtx,
        mem: &mut MemorySystem,
        iommu: &mut Iommu,
        race: &mut F,
    ) -> Result<Option<SkBuff>>
    where
        F: FnMut(&mut SimCtx, &mut MemorySystem, &mut Iommu, &RxSlot),
    {
        let Some(slot) = self.completed.pop_front() else {
            return Ok(None);
        };
        // The min watermark of this gauge shows how close the ring came
        // to starvation before the refill below restocked it.
        ctx.metrics.gauge_set(
            "sim_net.rx_ring.occupancy",
            (self.posted.len() + self.completed.len()) as u64,
        );
        let skb = match self.cfg.unmap_order {
            UnmapOrder::BuildThenUnmap => {
                // i40e-style: metadata initialized while the device still
                // has WRITE access — it can undo the CPU's changes.
                let mut skb = build_skb(ctx, mem, slot.mapping.kva, slot.buf_size, slot.alloc)?;
                skb.len = slot.written;
                race(ctx, mem, iommu, &slot);
                dma_unmap_single(ctx, iommu, &slot.mapping)?;
                skb
            }
            UnmapOrder::UnmapThenBuild => {
                dma_unmap_single(ctx, iommu, &slot.mapping)?;
                let mut skb = build_skb(ctx, mem, slot.mapping.kva, slot.buf_size, slot.alloc)?;
                skb.len = slot.written;
                // The race window: the device keeps DMAing after the CPU
                // finished initializing the metadata. Whether its writes
                // land depends on the invalidation mode and page sharing
                // (Figure 7 paths (ii)/(iii)).
                race(ctx, mem, iommu, &slot);
                skb
            }
        };
        self.stats.rx_packets += 1;
        ctx.metrics.incr("sim_net.rx.packets");
        self.rx_refill(ctx, mem, iommu)?;
        Ok(Some(skb))
    }

    /// Convenience: poll with no concurrent device activity.
    pub fn rx_poll_quiet(
        &mut self,
        ctx: &mut SimCtx,
        mem: &mut MemorySystem,
        iommu: &mut Iommu,
    ) -> Result<Option<SkBuff>> {
        self.rx_poll(ctx, mem, iommu, |_, _, _, _| {})
    }

    /// Queues an sk_buff for transmission: maps the linear part and every
    /// fragment **as described by the shared info in memory** for device
    /// read.
    ///
    /// Trusting the in-memory `frags[]` is exactly what Linux does — and
    /// what lets a forged fragment list map arbitrary pages (§5.5).
    ///
    /// Returns `RingFull` (skb untouched by the caller's standards: it is
    /// freed here, as `ndo_start_xmit` drops on error) once
    /// `tx_ring_size` skbs are outstanding. A DMA-map failure mid-way
    /// unmaps whatever was already mapped, frees the skb, and counts
    /// `tx_dropped` — the driver stays consistent instead of leaking the
    /// partial mappings.
    pub fn transmit(
        &mut self,
        ctx: &mut SimCtx,
        mem: &mut MemorySystem,
        iommu: &mut Iommu,
        skb: SkBuff,
    ) -> Result<usize> {
        let span = ctx.span_begin("tx.xmit");
        let res = self.transmit_inner(ctx, mem, iommu, skb);
        ctx.span_end(span);
        res
    }

    fn transmit_inner(
        &mut self,
        ctx: &mut SimCtx,
        mem: &mut MemorySystem,
        iommu: &mut Iommu,
        skb: SkBuff,
    ) -> Result<usize> {
        if self.tx.len() >= self.cfg.tx_ring_size {
            self.stats.tx_ring_full += 1;
            ctx.metrics.incr("sim_net.tx.ring_full");
            let _ = kfree_skb(ctx, mem, skb)?;
            return Err(DmaError::RingFull);
        }
        let linear = match dma_map_single(
            ctx,
            iommu,
            &mem.layout,
            self.cfg.dev,
            skb.payload_kva(),
            skb.len.max(1),
            DmaDirection::ToDevice,
            "nic_tx_map",
        ) {
            Ok(m) => m,
            Err(e) => {
                self.stats.tx_dropped += 1;
                ctx.metrics.incr("sim_net.tx.dropped");
                let _ = kfree_skb(ctx, mem, skb)?;
                return Err(e);
            }
        };
        let frags = skb.shinfo().frags(ctx, mem)?;
        let mut frag_maps = Vec::with_capacity(frags.len());
        for f in &frags {
            // struct page → PFN → KVA, then map for device read.
            let pfn = mem.layout.page_to_pfn(Kva(f.page))?;
            let kva = Kva(mem.layout.pfn_to_kva(pfn)?.raw() + f.offset as u64);
            let fm = match dma_map_single(
                ctx,
                iommu,
                &mem.layout,
                self.cfg.dev,
                kva,
                (f.size as usize).max(1),
                DmaDirection::ToDevice,
                "nic_tx_map_frag",
            ) {
                Ok(m) => m,
                Err(e) => {
                    // Roll back: revoke every mapping taken so far.
                    dma_unmap_single(ctx, iommu, &linear)?;
                    for m in &frag_maps {
                        dma_unmap_single(ctx, iommu, m)?;
                    }
                    self.stats.tx_dropped += 1;
                    ctx.metrics.incr("sim_net.tx.dropped");
                    let _ = kfree_skb(ctx, mem, skb)?;
                    return Err(e);
                }
            };
            frag_maps.push(fm);
        }
        self.stats.tx_packets += 1;
        ctx.metrics.incr("sim_net.tx.packets");
        self.tx.push(TxSlot {
            skb,
            linear,
            frag_maps,
            posted_at: ctx.clock.now(),
            completed: false,
            reaped: false,
        });
        ctx.metrics
            .gauge_set("sim_net.tx_ring.occupancy", self.tx.len() as u64);
        Ok(self.tx.len() - 1)
    }

    /// Reaps completed TX slots: unmaps, frees the skbs, and returns any
    /// destructor callbacks `kfree_skb` surfaced.
    pub fn tx_reap(
        &mut self,
        ctx: &mut SimCtx,
        mem: &mut MemorySystem,
        iommu: &mut Iommu,
    ) -> Result<Vec<PendingCallback>> {
        let mut callbacks = Vec::new();
        for slot in self.tx.iter_mut().filter(|s| s.completed && !s.reaped) {
            dma_unmap_single(ctx, iommu, &slot.linear)?;
            for m in &slot.frag_maps {
                dma_unmap_single(ctx, iommu, m)?;
            }
            slot.reaped = true;
            let skb = std::mem::replace(
                &mut slot.skb,
                SkBuff {
                    data: Kva(0),
                    buf_size: 0,
                    data_offset: 0,
                    len: 0,
                    alloc: AllocKind::Kmalloc,
                    flow: None,
                    sock: None,
                    owned_frag_buffers: Vec::new(),
                },
            );
            if let Some(cb) = kfree_skb(ctx, mem, skb)? {
                callbacks.push(cb);
            }
        }
        self.tx.retain(|s| !s.reaped);
        ctx.metrics
            .gauge_set("sim_net.tx_ring.occupancy", self.tx.len() as u64);
        Ok(callbacks)
    }

    /// TX watchdog: if any posted TX is older than the timeout, the
    /// driver resets (flushes all TX state). Returns `true` on reset.
    ///
    /// §5.4: a device delaying completions must finish its attack before
    /// this fires.
    pub fn tx_timeout_check(
        &mut self,
        ctx: &mut SimCtx,
        mem: &mut MemorySystem,
        iommu: &mut Iommu,
    ) -> Result<bool> {
        let now = ctx.clock.now();
        let timed_out = self
            .tx
            .iter()
            .any(|s| !s.completed && now.saturating_sub(s.posted_at) > self.cfg.tx_timeout);
        if !timed_out {
            return Ok(false);
        }
        // Reset: complete and reap everything.
        for s in self.tx.iter_mut() {
            s.completed = true;
        }
        let _ = self.tx_reap(ctx, mem, iommu)?;
        self.stats.resets += 1;
        ctx.metrics.incr("sim_net.tx.watchdog_resets");
        Ok(true)
    }

    /// Tears the driver down: reaps all TX (completing outstanding slots
    /// first), unmaps and frees every RX buffer — posted and completed —
    /// and releases the control block.
    ///
    /// After `shutdown` returns `Ok`, the device holds **zero** DMA
    /// mappings from this driver; the chaos harness asserts
    /// `iommu.mapped_pages(dev) == 0` as its leak audit, so any path
    /// that loses track of a mapping under fault injection fails here.
    pub fn shutdown(
        &mut self,
        ctx: &mut SimCtx,
        mem: &mut MemorySystem,
        iommu: &mut Iommu,
    ) -> Result<Vec<PendingCallback>> {
        for s in self.tx.iter_mut() {
            s.completed = true;
        }
        let callbacks = self.tx_reap(ctx, mem, iommu)?;
        while let Some(slot) = self
            .posted
            .pop_front()
            .or_else(|| self.completed.pop_front())
        {
            dma_unmap_single(ctx, iommu, &slot.mapping)?;
            Self::free_rx_buffer(ctx, mem, slot.mapping.kva, slot.alloc)?;
        }
        if let Some((kva, m)) = self.ctrl_block.take() {
            dma_unmap_single(ctx, iommu, &m)?;
            mem.kfree(ctx, kva)?;
        }
        Ok(callbacks)
    }

    /// Number of in-flight (not completed) TX slots.
    pub fn tx_in_flight(&self) -> usize {
        self.tx.iter().filter(|s| !s.completed).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_iommu::{InvalidationMode, IommuConfig};
    use sim_mem::MemConfig;

    fn setup(cfg: DriverConfig) -> (SimCtx, MemorySystem, Iommu, NicDriver) {
        let mut ctx = SimCtx::new();
        let mut mem = MemorySystem::new(&MemConfig::default());
        let mut iommu = Iommu::new(IommuConfig {
            mode: InvalidationMode::Strict,
            ..Default::default()
        });
        let drv = NicDriver::probe(cfg, &mut ctx, &mut mem, &mut iommu).unwrap();
        (ctx, mem, iommu, drv)
    }

    #[test]
    fn probe_fills_the_rx_ring() {
        let (_, _, mut iommu, drv) = setup(DriverConfig::default());
        assert_eq!(drv.rx_descriptors().len(), 64);
        // Each 2 KiB buffer maps one page; page_frag pairs share pages, so
        // there are half as many distinct pages but 64 live mappings.
        assert!(iommu.mapped_pages(1) >= 32);
        let _ = &mut iommu;
    }

    #[test]
    fn rx_path_delivers_device_bytes() {
        let (mut ctx, mut mem, mut iommu, mut drv) = setup(DriverConfig::default());
        let (iova, _) = drv.rx_descriptors()[0];
        let wire = crate::packet::Packet::tcp(7, 8, 0, b"payload!".to_vec()).to_wire();
        // Device writes at the payload offset (headroom NET_SKB_PAD).
        iommu
            .dev_write(&mut ctx, &mut mem.phys, 1, Iova(iova.raw() + 64), &wire)
            .unwrap();
        drv.device_rx_complete(wire.len()).unwrap();
        let skb = drv
            .rx_poll_quiet(&mut ctx, &mut mem, &mut iommu)
            .unwrap()
            .unwrap();
        assert_eq!(skb.len, wire.len());
        assert_eq!(skb.payload(&mut ctx, &mem).unwrap(), wire);
        assert_eq!(drv.stats.rx_packets, 1);
        // Ring was refilled.
        assert_eq!(drv.rx_descriptors().len(), 64);
    }

    #[test]
    fn consecutive_rx_buffers_share_pages_with_page_frag() {
        // Type (c): the attack-relevant property of the default policy —
        // "pairs of successive RX descriptors map the same page" (§5.2.2).
        let (_, mem, iommu, drv) = setup(DriverConfig::default());
        let kvas: Vec<Kva> = drv.posted_slots().map(|s| s.mapping.kva).collect();
        let sharing_pairs = kvas
            .windows(2)
            .filter(|w| w[0].page_align_down() == w[1].page_align_down())
            .count();
        assert!(
            sharing_pairs >= 24,
            "expected ~half the pairs to share, got {sharing_pairs}"
        );
        // And each shared page is reachable through BOTH buffers' IOVAs.
        let shared_kva = kvas
            .windows(2)
            .find(|w| w[0].page_align_down() == w[1].page_align_down())
            .unwrap()[0];
        let pfn = mem.layout.kva_to_pfn(shared_kva).unwrap();
        assert_eq!(iommu.iovas_of(1, pfn).len(), 2);
    }

    #[test]
    fn page_per_buffer_policy_isolates_pages() {
        let cfg = DriverConfig {
            alloc: AllocPolicy::PagePerBuffer,
            rx_ring_size: 8,
            ..Default::default()
        };
        let (_, mem, iommu, drv) = setup(cfg);
        for (iova, _) in drv.rx_descriptors() {
            let _ = iova;
        }
        // Every buffer has its own page: mapped pages == ring size.
        assert_eq!(iommu.mapped_pages(1), 8);
        let _ = mem;
    }

    #[test]
    fn build_then_unmap_runs_race_while_mapped() {
        let cfg = DriverConfig {
            unmap_order: UnmapOrder::BuildThenUnmap,
            ..Default::default()
        };
        let (mut ctx, mut mem, mut iommu, mut drv) = setup(cfg);
        iommu
            .dev_write(
                &mut ctx,
                &mut mem.phys,
                1,
                drv.rx_descriptors()[0].0,
                b"pkt",
            )
            .unwrap();
        drv.device_rx_complete(3).unwrap();
        let mut raced_while_mapped = false;
        drv.rx_poll(&mut ctx, &mut mem, &mut iommu, |ctx, mem, iommu, slot| {
            // The device writes during the race window — still mapped.
            raced_while_mapped = iommu
                .dev_write(ctx, &mut mem.phys, 1, slot.mapping.iova, b"evil")
                .is_ok();
        })
        .unwrap()
        .unwrap();
        assert!(raced_while_mapped);
    }

    #[test]
    fn unmap_then_build_blocks_race_in_strict_mode() {
        let (mut ctx, mut mem, mut iommu, mut drv) = setup(DriverConfig::default());
        iommu
            .dev_write(
                &mut ctx,
                &mut mem.phys,
                1,
                drv.rx_descriptors()[0].0,
                b"pkt",
            )
            .unwrap();
        drv.device_rx_complete(3).unwrap();
        let mut race_blocked = false;
        drv.rx_poll(&mut ctx, &mut mem, &mut iommu, |ctx, mem, iommu, slot| {
            race_blocked = iommu
                .dev_write(ctx, &mut mem.phys, 1, slot.mapping.iova, b"evil")
                .is_err();
        })
        .unwrap()
        .unwrap();
        assert!(
            race_blocked,
            "strict mode + correct order must fault the race write"
        );
    }

    #[test]
    fn tx_roundtrip_with_completion() {
        let (mut ctx, mut mem, mut iommu, mut drv) = setup(DriverConfig::default());
        let mut skb = crate::skb::alloc_skb(&mut ctx, &mut mem, 256).unwrap();
        skb.put(&mut ctx, &mut mem, b"tx-bytes").unwrap();
        let idx = drv.transmit(&mut ctx, &mut mem, &mut iommu, skb).unwrap();
        // Device reads the packet.
        let desc = &drv.tx_descriptors()[0];
        let mut buf = vec![0u8; desc.len];
        iommu
            .dev_read(&mut ctx, &mem.phys, 1, desc.iova, &mut buf)
            .unwrap();
        assert_eq!(&buf, b"tx-bytes");
        drv.device_tx_complete(idx).unwrap();
        let cbs = drv.tx_reap(&mut ctx, &mut mem, &mut iommu).unwrap();
        assert!(cbs.is_empty());
        assert_eq!(drv.tx_in_flight(), 0);
    }

    #[test]
    fn tx_watchdog_resets_after_timeout() {
        let (mut ctx, mut mem, mut iommu, mut drv) = setup(DriverConfig::default());
        let skb = crate::skb::alloc_skb(&mut ctx, &mut mem, 64).unwrap();
        drv.transmit(&mut ctx, &mut mem, &mut iommu, skb).unwrap();
        assert!(!drv
            .tx_timeout_check(&mut ctx, &mut mem, &mut iommu)
            .unwrap());
        ctx.clock.advance(drv.cfg.tx_timeout + 1);
        assert!(drv
            .tx_timeout_check(&mut ctx, &mut mem, &mut iommu)
            .unwrap());
        assert_eq!(drv.stats.resets, 1);
        assert_eq!(drv.tx_in_flight(), 0);
    }

    #[test]
    fn ctrl_block_is_mapped_bidirectionally_from_slab_page() {
        let cfg = DriverConfig {
            map_ctrl_block: true,
            ..Default::default()
        };
        let (mut ctx, mut mem, mut iommu, drv) = setup(cfg);
        let (kva, m) = drv.ctrl_block.unwrap();
        // The control block lives on a kmalloc-512 slab page that other
        // 512-byte objects will share — the type (d) leak.
        assert_eq!(mem.kmalloc.cache_of(kva), Some("kmalloc-512"));
        let neighbour = mem.kmalloc(&mut ctx, 512, "sock_alloc_inode").unwrap();
        assert_eq!(kva.page_align_down(), neighbour.page_align_down());
        // Device can read AND write through it.
        iommu
            .dev_write(&mut ctx, &mut mem.phys, 1, m.iova, b"w")
            .unwrap();
        let mut b = [0u8; 1];
        iommu
            .dev_read(&mut ctx, &mem.phys, 1, m.iova, &mut b)
            .unwrap();
    }

    #[test]
    fn lro_config_allocates_64k_buffers() {
        let cfg = DriverConfig {
            rx_buf_size: 65536,
            alloc: AllocPolicy::Kmalloc,
            rx_ring_size: 4,
            ..Default::default()
        };
        let (_, _, iommu, drv) = setup(cfg);
        assert_eq!(drv.rx_descriptors().len(), 4);
        // 4 × 16 pages mapped.
        assert_eq!(iommu.mapped_pages(1), 64);
    }

    #[test]
    fn xdp_mappings_are_readable_by_the_device() {
        // §5.1: XDP RX buffers are BIDIRECTIONAL — the device can *read*
        // back whatever lands on RX pages, not only write packets.
        let cfg = DriverConfig {
            xdp: true,
            ..Default::default()
        };
        let (mut ctx, mut mem, mut iommu, drv) = setup(cfg);
        let (iova, _) = drv.rx_descriptors()[0];
        iommu
            .dev_write(&mut ctx, &mut mem.phys, 1, iova, b"probe")
            .unwrap();
        let mut b = [0u8; 5];
        iommu
            .dev_read(&mut ctx, &mem.phys, 1, iova, &mut b)
            .unwrap();
        assert_eq!(&b, b"probe");
        // Without XDP the same read faults.
        let (mut ctx2, mut mem2, mut iommu2, drv2) = setup(DriverConfig::default());
        let (iova2, _) = drv2.rx_descriptors()[0];
        iommu2
            .dev_write(&mut ctx2, &mut mem2.phys, 1, iova2, b"probe")
            .unwrap();
        assert!(iommu2
            .dev_read(&mut ctx2, &mem2.phys, 1, iova2, &mut b)
            .is_err());
    }

    #[test]
    fn tx_ring_full_rejects_and_counts() {
        let cfg = DriverConfig {
            tx_ring_size: 2,
            ..Default::default()
        };
        let (mut ctx, mut mem, mut iommu, mut drv) = setup(cfg);
        for _ in 0..2 {
            let skb = crate::skb::alloc_skb(&mut ctx, &mut mem, 64).unwrap();
            drv.transmit(&mut ctx, &mut mem, &mut iommu, skb).unwrap();
        }
        let skb = crate::skb::alloc_skb(&mut ctx, &mut mem, 64).unwrap();
        let err = drv
            .transmit(&mut ctx, &mut mem, &mut iommu, skb)
            .unwrap_err();
        assert!(matches!(err, DmaError::RingFull));
        assert_eq!(drv.stats.tx_ring_full, 1);
        assert_eq!(drv.stats.tx_packets, 2);
        // Reaping frees a slot and transmit works again.
        drv.device_tx_complete(0).unwrap();
        drv.tx_reap(&mut ctx, &mut mem, &mut iommu).unwrap();
        let skb = crate::skb::alloc_skb(&mut ctx, &mut mem, 64).unwrap();
        drv.transmit(&mut ctx, &mut mem, &mut iommu, skb).unwrap();
    }

    #[test]
    fn rx_refill_degrades_gracefully_under_injected_allocation_faults() {
        let mut ctx = SimCtx::new();
        ctx.faults = dma_core::FaultPlan::seeded(7).fail_every("sim_net.rx_refill", 3);
        let mut mem = MemorySystem::new(&MemConfig::default());
        let mut iommu = Iommu::new(IommuConfig {
            mode: InvalidationMode::Strict,
            ..Default::default()
        });
        // Probe survives the faults: the ring comes up short, not broken.
        let drv = NicDriver::probe(DriverConfig::default(), &mut ctx, &mut mem, &mut iommu)
            .expect("probe must degrade, not fail");
        let posted = drv.rx_descriptors().len();
        assert!(posted > 0, "some buffers must still post");
        assert!(posted < 64, "every-3rd faulting must leave the ring short");
        assert!(drv.stats.rx_alloc_failed > 0);
        assert_eq!(drv.stats.rx_refill_retries, RX_REFILL_MAX_RETRIES as u64);
        assert!(ctx.faults.injected_total() > 0);
    }

    #[test]
    fn rx_map_failure_frees_the_buffer_and_the_retry_recovers() {
        let (mut ctx, mut mem, mut iommu, mut drv) = setup(DriverConfig::default());
        iommu
            .dev_write(&mut ctx, &mut mem.phys, 1, drv.rx_descriptors()[0].0, b"p")
            .unwrap();
        drv.device_rx_complete(1).unwrap();
        // The next dma_map call is the refill remap inside rx_poll.
        ctx.faults = dma_core::FaultPlan::seeded(1).fail_nth("sim_iommu.dma_map", 1);
        let skb = drv
            .rx_poll_quiet(&mut ctx, &mut mem, &mut iommu)
            .unwrap()
            .unwrap();
        assert_eq!(skb.len, 1);
        assert_eq!(drv.stats.rx_map_failed, 1);
        // The retry filled the ring back to capacity.
        assert_eq!(drv.rx_descriptors().len(), 64);
    }

    #[test]
    fn shutdown_releases_every_mapping() {
        let cfg = DriverConfig {
            map_ctrl_block: true,
            ..Default::default()
        };
        let (mut ctx, mut mem, mut iommu, mut drv) = setup(cfg);
        // Leave the driver mid-flight: an unreaped TX and a completed RX.
        let mut skb = crate::skb::alloc_skb(&mut ctx, &mut mem, 128).unwrap();
        skb.put(&mut ctx, &mut mem, b"inflight").unwrap();
        drv.transmit(&mut ctx, &mut mem, &mut iommu, skb).unwrap();
        drv.device_rx_complete(16).unwrap();
        assert!(iommu.mapped_pages(1) > 0);
        drv.shutdown(&mut ctx, &mut mem, &mut iommu).unwrap();
        assert_eq!(
            iommu.mapped_pages(1),
            0,
            "shutdown must leave zero live mappings"
        );
    }

    #[test]
    fn device_rx_complete_on_empty_ring_fails() {
        let cfg = DriverConfig {
            rx_ring_size: 1,
            ..Default::default()
        };
        let (_, _, _, mut drv) = setup(cfg);
        drv.device_rx_complete(10).unwrap();
        assert!(drv.device_rx_complete(10).is_err());
    }

    #[test]
    fn rx_refill_links_each_mapping_to_its_covered_allocation() {
        // The RX-refill path allocates a buffer and immediately maps it
        // for the device; in the provenance graph every nic_rx_map event
        // must carry a MapCoversObject edge back to the Alloc it covers.
        use dma_core::{EdgeKind, Event, ProvenanceGraph};
        let mut ctx = dma_core::SimCtx::traced();
        let mut mem = MemorySystem::new(&MemConfig::default());
        let mut iommu = Iommu::new(IommuConfig {
            mode: InvalidationMode::Strict,
            ..Default::default()
        });
        let _drv =
            NicDriver::probe(DriverConfig::default(), &mut ctx, &mut mem, &mut iommu).unwrap();

        let mut g = ProvenanceGraph::new();
        g.ingest_all(ctx.trace.drain());
        let rx_maps: Vec<usize> = (0..g.len())
            .filter(|&i| matches!(g.event(i), Event::DmaMap { site, .. } if site.contains("rx")))
            .collect();
        assert!(!rx_maps.is_empty(), "probe fills the RX ring through maps");
        for m in rx_maps {
            let covered = g.parents(m).iter().any(|&(p, k)| {
                k == EdgeKind::MapCoversObject && matches!(g.event(p), Event::Alloc { .. })
            });
            assert!(
                covered,
                "map {m} has no covered allocation: {:?}",
                g.parents(m)
            );
        }
    }
}
