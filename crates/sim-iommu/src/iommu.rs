//! The IOMMU façade: per-device domains, the device DMA access path, and
//! both invalidation policies.
//!
//! Every device access in the workspace funnels through
//! [`Iommu::dev_read`] / [`Iommu::dev_write`] — there is no back door.
//! This enforces the paper's threat model (§3.1): the attacker is a
//! device and can only reach memory the IOMMU (including its stale IOTLB
//! entries) lets it reach.

use crate::iotlb::Iotlb;
use crate::iova::IovaAllocator;
use crate::pagetable::IoPageTable;
use dma_core::clock::{
    Cycles, DEFERRED_FLUSH_PERIOD, DMA_ACCESS_CYCLES, IOTLB_HIT_CYCLES, IOTLB_INV_CYCLES,
    PT_WALK_CYCLES,
};
use dma_core::metrics::Histogram;
use dma_core::posture::{GroupPosture, PostureReport, StaleWindowStats};
use dma_core::trace::DeviceId;
use dma_core::{AccessRight, DetHashMap, DmaError, Event, Iova, Pfn, Result, SimCtx, PAGE_SIZE};
use sim_mem::PhysMemory;

/// IOTLB invalidation policy (§5.2.1, Figure 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InvalidationMode {
    /// Invalidate the IOTLB entry on every unmap (secure, slow).
    Strict,
    /// Leave entries stale and flush globally every
    /// [`DEFERRED_FLUSH_PERIOD`] cycles (the Linux default; fast, leaves
    /// the deferred window open).
    Deferred,
}

/// IOMMU configuration.
#[derive(Clone, Copy, Debug)]
pub struct IommuConfig {
    /// Invalidation policy.
    pub mode: InvalidationMode,
    /// Deferred-mode global flush period in cycles.
    pub flush_period: Cycles,
    /// IOTLB capacity in entries.
    pub iotlb_capacity: usize,
}

impl Default for IommuConfig {
    fn default() -> Self {
        IommuConfig {
            mode: InvalidationMode::Deferred,
            flush_period: DEFERRED_FLUSH_PERIOD,
            iotlb_capacity: 4096,
        }
    }
}

/// Counters for the Figure-6 overhead comparison.
#[derive(Clone, Copy, Debug, Default)]
pub struct IommuStats {
    /// Individual IOTLB invalidations performed (strict mode).
    pub invalidations: u64,
    /// Global flushes performed (deferred mode).
    pub global_flushes: u64,
    /// Cycles spent invalidating.
    pub invalidation_cycles: Cycles,
    /// Device accesses served from stale IOTLB entries.
    pub stale_hits: u64,
    /// Faulted device accesses.
    pub faults: u64,
    /// Total pages mapped over the IOMMU's lifetime.
    pub pages_mapped: u64,
}

/// One recorded translation fault, in the style of the VT-d fault
/// recording registers: who faulted, where, and when. The OS (or a
/// monitoring defense) drains these to spot devices probing memory they
/// were never given.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultRecord {
    /// Faulting device.
    pub device: DeviceId,
    /// Faulting IOVA.
    pub iova: Iova,
    /// `true` for a write access.
    pub write: bool,
    /// Timestamp in simulated cycles.
    pub at: Cycles,
}

#[derive(Clone, Debug, Default)]
struct Domain {
    pt: IoPageTable,
    iova: IovaAllocator,
    /// IOVA ranges whose release is deferred to the next global flush,
    /// stamped with the unmap time so the flush can report how long each
    /// stale window stayed open (§5.2.1).
    deferred_free: Vec<(Iova, usize, Cycles)>,
}

/// The simulated IOMMU.
#[derive(Clone, Debug)]
pub struct Iommu {
    /// Active configuration.
    pub config: IommuConfig,
    /// Counters.
    pub stats: IommuStats,
    /// Device → translation domain. Several devices may share one
    /// domain (as the paper's §6 rig shares an IOVA page table between
    /// the FireWire controller and the NIC).
    device_domain: DetHashMap<DeviceId, u32>,
    domains: DetHashMap<u32, Domain>,
    next_domain: u32,
    iotlb: Iotlb,
    next_flush: Cycles,
    /// Ring of the most recent faults (VT-d fault recording registers).
    fault_log: std::collections::VecDeque<FaultRecord>,
}

/// Capacity of the fault-record ring.
const FAULT_LOG_CAPACITY: usize = 256;

impl Iommu {
    /// Creates an IOMMU with the given policy.
    pub fn new(config: IommuConfig) -> Self {
        Iommu {
            iotlb: Iotlb::new(config.iotlb_capacity),
            device_domain: DetHashMap::default(),
            domains: DetHashMap::default(),
            next_domain: 0,
            next_flush: config.flush_period,
            stats: IommuStats::default(),
            fault_log: std::collections::VecDeque::new(),
            config,
        }
    }

    /// Drains the fault log (what the OS fault handler does).
    pub fn drain_faults(&mut self) -> Vec<FaultRecord> {
        self.fault_log.drain(..).collect()
    }

    /// Creates a fresh translation domain for `dev`. Idempotent.
    pub fn attach_device(&mut self, dev: DeviceId) {
        if self.device_domain.contains_key(&dev) {
            return;
        }
        let id = self.next_domain;
        self.next_domain += 1;
        self.device_domain.insert(dev, id);
        self.domains.insert(id, Domain::default());
    }

    /// Attaches `dev` to the *same* domain as `peer` — the two devices
    /// then share one IOVA page table, as in the paper's §6 test rig
    /// ("an IOVA page table that is shared between the FireWire and the
    /// actual NIC"). `peer` must already be attached.
    pub fn attach_device_shared(&mut self, dev: DeviceId, peer: DeviceId) -> Result<()> {
        let id = *self
            .device_domain
            .get(&peer)
            .ok_or(DmaError::Invariant("peer device not attached to IOMMU"))?;
        self.device_domain.insert(dev, id);
        Ok(())
    }

    /// `true` if the two devices translate through one domain.
    pub fn same_domain(&self, a: DeviceId, b: DeviceId) -> bool {
        match (self.device_domain.get(&a), self.device_domain.get(&b)) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        }
    }

    fn domain_id(&self, dev: DeviceId) -> Result<u32> {
        self.device_domain
            .get(&dev)
            .copied()
            .ok_or(DmaError::Invariant("device not attached to IOMMU"))
    }

    fn domain_mut(&mut self, dev: DeviceId) -> Result<&mut Domain> {
        let id = self.domain_id(dev)?;
        self.domains
            .get_mut(&id)
            .ok_or(DmaError::Invariant("device not attached to IOMMU"))
    }

    /// Allocates an IOVA range of `pages` pages in `dev`'s domain.
    ///
    /// Fault-injection site `sim_iommu.alloc_iova`: an injected hit
    /// models IOVA-space exhaustion (`OutOfIova`) before the allocator
    /// is consulted.
    pub fn alloc_iova(&mut self, ctx: &mut SimCtx, dev: DeviceId, pages: usize) -> Result<Iova> {
        ctx.metrics.incr("sim_iommu.iova.alloc");
        if ctx.fault("sim_iommu.alloc_iova") {
            return Err(DmaError::OutOfIova);
        }
        let d = self.domain_mut(dev)?;
        let iova = d.iova.alloc(pages)?;
        ctx.metrics
            .gauge_set("sim_iommu.iova.live", d.iova.live_ranges() as u64);
        Ok(iova)
    }

    /// Installs a translation for one page.
    pub fn map_page(
        &mut self,
        dev: DeviceId,
        iova: Iova,
        pfn: Pfn,
        right: AccessRight,
    ) -> Result<()> {
        let d = self.domain_mut(dev)?;
        d.pt.map(iova, pfn, right)?;
        self.stats.pages_mapped += 1;
        Ok(())
    }

    /// Tears down the translations for a `pages`-page range starting at
    /// the page containing `iova`, applying the configured invalidation
    /// policy, and releases the IOVA range.
    pub fn unmap_range(
        &mut self,
        ctx: &mut SimCtx,
        dev: DeviceId,
        iova: Iova,
        pages: usize,
    ) -> Result<()> {
        let mode = self.config.mode;
        let base = iova.page_align_down();
        ctx.metrics.add("sim_iommu.unmap.pages", pages as u64);
        // Invalidation is per *domain*: every device sharing the page
        // table must lose (or keep-stale) its cached entry.
        let id = self.domain_id(dev)?;
        let peers: Vec<DeviceId> = self
            .device_domain
            .iter()
            .filter(|(_, did)| **did == id)
            .map(|(d, _)| *d)
            .collect();
        let d = self
            .domains
            .get_mut(&id)
            .ok_or(DmaError::Invariant("device not attached to IOMMU"))?;
        for i in 0..pages {
            let page_iova = Iova(base.raw() + (i * PAGE_SIZE) as u64);
            d.pt.unmap(page_iova)?;
            match mode {
                InvalidationMode::Strict => {
                    // The synchronous per-page invalidation is the
                    // strict-mode cost center ROADMAP item 4 targets;
                    // give it its own profile frame inside iommu.unmap.
                    let frame = ctx.prof_begin("iommu.iotlb.inv");
                    for &peer in &peers {
                        self.iotlb.invalidate(peer, page_iova);
                    }
                    self.stats.invalidations += 1;
                    self.stats.invalidation_cycles += IOTLB_INV_CYCLES;
                    ctx.metrics.incr("sim_iommu.iotlb.invalidate");
                    ctx.clock.advance(IOTLB_INV_CYCLES);
                    ctx.prof_end(frame);
                    ctx.emit(Event::IotlbInvalidate {
                        at: ctx.clock.now(),
                        device: dev,
                        iova_page: page_iova,
                    });
                }
                InvalidationMode::Deferred => {
                    for &peer in &peers {
                        self.iotlb.mark_stale(peer, page_iova);
                    }
                }
            }
        }
        // Ranges mapped via map_page() directly (rather than through the
        // DMA API) were never IOVA-allocated; skip releasing those.
        if d.iova.is_live(base) {
            match mode {
                InvalidationMode::Strict => d.iova.free(base, pages)?,
                InvalidationMode::Deferred => {
                    let at = ctx.clock.now();
                    d.deferred_free.push((base, pages, at));
                }
            }
        }
        Ok(())
    }

    /// Runs deferred housekeeping: performs the periodic global flush if
    /// its deadline has passed. Called implicitly by every device access
    /// and explicitly by schedulers.
    pub fn tick(&mut self, ctx: &mut SimCtx) {
        if self.config.mode != InvalidationMode::Deferred {
            return;
        }
        while ctx.clock.now() >= self.next_flush {
            // Fault-injection site `sim_iommu.flush_jitter`: delays the
            // periodic flush by a quarter period, widening the stale
            // window (flush-timer jitter under load). Terminates because
            // every hit pushes the deadline forward.
            if ctx.fault("sim_iommu.flush_jitter") {
                self.next_flush += (self.config.flush_period / 4).max(1);
                continue;
            }
            let frame = ctx.prof_begin("iommu.iotlb.flush");
            let dropped = self.iotlb.global_flush();
            self.stats.global_flushes += 1;
            self.stats.invalidation_cycles += IOTLB_INV_CYCLES;
            ctx.metrics.incr("sim_iommu.iotlb.flush.global");
            ctx.metrics
                .observe("sim_iommu.iotlb.flush.dropped", dropped as u64);
            ctx.clock.advance(IOTLB_INV_CYCLES);
            ctx.emit(Event::IotlbGlobalFlush {
                at: ctx.clock.now(),
                dropped,
            });
            let flushed_at = ctx.clock.now();
            for (id, domain) in self.domains.iter_mut() {
                let _ = id;
                for (base, pages, unmapped_at) in domain.deferred_free.drain(..) {
                    // The stale window of §5.2.1: unmap → global flush.
                    ctx.metrics.observe(
                        "sim_iommu.stale_window.cycles",
                        flushed_at.saturating_sub(unmapped_at),
                    );
                    // IOVA release is deferred together with invalidation.
                    let _ = domain.iova.free(base, pages);
                }
            }
            ctx.prof_end(frame);
            self.next_flush += self.config.flush_period;
        }
    }

    /// Translates one page for a device access, consulting the IOTLB
    /// first (including stale entries — that is the point).
    ///
    /// Returns `(pfn, stale)`.
    fn translate(
        &mut self,
        ctx: &mut SimCtx,
        dev: DeviceId,
        iova: Iova,
        write: bool,
    ) -> Result<(Pfn, bool)> {
        ctx.prof("iommu.iotlb.probe", |ctx| {
            self.translate_inner(ctx, dev, iova, write)
        })
    }

    fn translate_inner(
        &mut self,
        ctx: &mut SimCtx,
        dev: DeviceId,
        iova: Iova,
        write: bool,
    ) -> Result<(Pfn, bool)> {
        // Fault-injection site `sim_iommu.iotlb_evict`: drop the cached
        // translation before the lookup, forcing a page-table walk —
        // capacity eviction under adversarial IOTLB pressure. Note this
        // *closes* stale windows early rather than opening them, so it
        // perturbs timing without weakening any security invariant.
        if ctx.fault("sim_iommu.iotlb_evict") {
            self.iotlb.invalidate(dev, iova.page_align_down());
        }
        if let Some(e) = self.iotlb.lookup(dev, iova) {
            ctx.clock.advance(IOTLB_HIT_CYCLES);
            ctx.metrics.incr("sim_iommu.iotlb.hit");
            let ok = if write {
                e.right.allows_write()
            } else {
                e.right.allows_read()
            };
            if !ok {
                return Err(DmaError::IommuPermission {
                    device: dev,
                    iova: iova.raw(),
                    write,
                });
            }
            if e.stale {
                self.stats.stale_hits += 1;
                ctx.metrics.incr("sim_iommu.iotlb.stale_hit");
            }
            return Ok((e.pfn, e.stale));
        }
        ctx.clock.advance(PT_WALK_CYCLES);
        ctx.metrics.incr("sim_iommu.iotlb.miss");
        let id = self.domain_id(dev)?;
        let d = self
            .domains
            .get(&id)
            .ok_or(DmaError::Invariant("device not attached to IOMMU"))?;
        let pte = d.pt.walk(iova).ok_or(DmaError::IommuFault {
            device: dev,
            iova: iova.raw(),
            write,
        })?;
        let ok = if write {
            pte.right.allows_write()
        } else {
            pte.right.allows_read()
        };
        if !ok {
            return Err(DmaError::IommuPermission {
                device: dev,
                iova: iova.raw(),
                write,
            });
        }
        self.iotlb.fill(dev, iova, pte.pfn, pte.right);
        Ok((pte.pfn, false))
    }

    /// Device DMA read of `buf.len()` bytes at `iova`. May cross pages;
    /// each page is translated (and permission-checked) independently.
    pub fn dev_read(
        &mut self,
        ctx: &mut SimCtx,
        phys: &PhysMemory,
        dev: DeviceId,
        iova: Iova,
        buf: &mut [u8],
    ) -> Result<()> {
        self.dev_access(ctx, dev, iova, buf.len(), false, |pa, n, done| {
            phys.read(pa, &mut buf[done..done + n])
        })
    }

    /// Device DMA write of `buf` at `iova`.
    pub fn dev_write(
        &mut self,
        ctx: &mut SimCtx,
        phys: &mut PhysMemory,
        dev: DeviceId,
        iova: Iova,
        buf: &[u8],
    ) -> Result<()> {
        self.dev_access(ctx, dev, iova, buf.len(), true, |pa, n, done| {
            phys.write(pa, &buf[done..done + n])
        })
    }

    fn dev_access(
        &mut self,
        ctx: &mut SimCtx,
        dev: DeviceId,
        iova: Iova,
        len: usize,
        write: bool,
        xfer: impl FnMut(dma_core::PhysAddr, usize, usize) -> Result<()>,
    ) -> Result<()> {
        ctx.prof("iommu.dev_access", |ctx| {
            self.dev_access_inner(ctx, dev, iova, len, write, xfer)
        })
    }

    fn dev_access_inner(
        &mut self,
        ctx: &mut SimCtx,
        dev: DeviceId,
        iova: Iova,
        len: usize,
        write: bool,
        mut xfer: impl FnMut(dma_core::PhysAddr, usize, usize) -> Result<()>,
    ) -> Result<()> {
        self.tick(ctx);
        ctx.clock.advance(DMA_ACCESS_CYCLES);
        let mut done = 0;
        let mut any_stale = false;
        while done < len {
            let cur = Iova(iova.raw() + done as u64);
            let off = cur.page_offset();
            let n = (PAGE_SIZE - off).min(len - done);
            let (pfn, stale) = match self.translate(ctx, dev, cur, write) {
                Ok(v) => v,
                Err(e) => {
                    self.stats.faults += 1;
                    ctx.metrics.incr("sim_iommu.fault.count");
                    if self.fault_log.len() == FAULT_LOG_CAPACITY {
                        self.fault_log.pop_front();
                    }
                    self.fault_log.push_back(FaultRecord {
                        device: dev,
                        iova,
                        write,
                        at: ctx.clock.now(),
                    });
                    ctx.emit(Event::DevAccess {
                        at: ctx.clock.now(),
                        device: dev,
                        iova,
                        len,
                        write,
                        allowed: false,
                        stale: false,
                    });
                    return Err(e);
                }
            };
            any_stale |= stale;
            let pa = dma_core::PhysAddr(pfn.base().raw() + off as u64);
            xfer(pa, n, done)?;
            done += n;
        }
        ctx.emit(Event::DevAccess {
            at: ctx.clock.now(),
            device: dev,
            iova,
            len,
            write,
            allowed: true,
            stale: any_stale,
        });
        Ok(())
    }

    /// All live IOVAs translating to `pfn` in `dev`'s domain (diagnostic;
    /// used by D-KASAN's multiple-map detection and tests).
    pub fn iovas_of(&self, dev: DeviceId, pfn: Pfn) -> Vec<(Iova, AccessRight)> {
        self.domain_id(dev)
            .ok()
            .and_then(|id| self.domains.get(&id))
            .map(|d| d.pt.iovas_of(pfn))
            .unwrap_or_default()
    }

    /// Number of pages currently mapped in `dev`'s domain.
    pub fn mapped_pages(&self, dev: DeviceId) -> usize {
        self.domain_id(dev)
            .ok()
            .and_then(|id| self.domains.get(&id))
            .map(|d| d.pt.mapped_pages())
            .unwrap_or(0)
    }

    /// Read-only view of the IOTLB (tests and experiments).
    pub fn iotlb(&self) -> &Iotlb {
        &self.iotlb
    }

    /// Simulated `/sys/kernel/iommu_groups`: one entry per translation
    /// domain, with its attached devices and live-mapping counts.
    /// Deterministically ordered (domains by id, devices sorted) so the
    /// posture report renders byte-identically per seed.
    pub fn groups(&self) -> Vec<GroupPosture> {
        let mut out: Vec<GroupPosture> = self
            .domains
            .iter()
            .map(|(&id, d)| {
                let mut devices: Vec<DeviceId> = self
                    .device_domain
                    .iter()
                    .filter(|(_, &dom)| dom == id)
                    .map(|(&dev, _)| dev)
                    .collect();
                devices.sort_unstable();
                GroupPosture {
                    domain: id,
                    devices,
                    mapped_pages: d.pt.mapped_pages(),
                    live_iovas: d.iova.live_ranges(),
                    deferred_pending: d.deferred_free.len(),
                }
            })
            .collect();
        out.sort_unstable_by_key(|g| g.domain);
        out
    }

    /// Assembles an `iommu_status.py`-style [`PostureReport`] from the
    /// live IOMMU state: invalidation policy, isolation groups, and the
    /// accumulated stale/fault counters. The caller supplies what the
    /// IOMMU cannot see — the driver's RX buffer size (the sub-page
    /// sharing surface) and the observed §5.2.1 stale-window histogram
    /// (`sim_iommu.stale_window.cycles`) — and gets back a fully
    /// [`assessed`](PostureReport::assess) report.
    pub fn posture(
        &self,
        label: &str,
        rx_buf_size: usize,
        stale_window: Option<&Histogram>,
    ) -> PostureReport {
        let invalidation = match self.config.mode {
            InvalidationMode::Strict => "strict",
            InvalidationMode::Deferred => "deferred",
        };
        let mut report = PostureReport::new(label, invalidation);
        report.flush_period = match self.config.mode {
            InvalidationMode::Strict => 0,
            InvalidationMode::Deferred => self.config.flush_period,
        };
        report.iotlb_capacity = self.config.iotlb_capacity;
        report.groups = self.groups();
        report.rx_buf_size = rx_buf_size;
        report.stale_window = stale_window.and_then(StaleWindowStats::from_histogram);
        report.stale_hits = self.stats.stale_hits;
        report.faults = self.stats.faults;
        report.assess();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dma_core::PhysAddr;

    fn setup(mode: InvalidationMode) -> (SimCtx, PhysMemory, Iommu) {
        let ctx = SimCtx::new();
        let phys = PhysMemory::new(16 << 20);
        let iommu = Iommu::new(IommuConfig {
            mode,
            ..Default::default()
        });
        (ctx, phys, iommu)
    }

    #[test]
    fn mapped_page_is_accessible_with_correct_rights() {
        let (mut ctx, mut phys, mut iommu) = setup(InvalidationMode::Strict);
        iommu.attach_device(1);
        iommu
            .map_page(1, Iova(0x10000), Pfn(5), AccessRight::Write)
            .unwrap();
        iommu
            .dev_write(&mut ctx, &mut phys, 1, Iova(0x10010), b"attack")
            .unwrap();
        let mut b = [0u8; 6];
        phys.read(PhysAddr(5 * PAGE_SIZE as u64 + 0x10), &mut b)
            .unwrap();
        assert_eq!(&b, b"attack");
        // WRITE does not grant READ (§2.2).
        let mut r = [0u8; 4];
        assert!(matches!(
            iommu.dev_read(&mut ctx, &phys, 1, Iova(0x10010), &mut r),
            Err(DmaError::IommuPermission { .. })
        ));
        assert_eq!(iommu.stats.faults, 1);
    }

    #[test]
    fn unmapped_access_faults() {
        let (mut ctx, phys, mut iommu) = setup(InvalidationMode::Strict);
        iommu.attach_device(1);
        let mut b = [0u8; 4];
        assert!(matches!(
            iommu.dev_read(&mut ctx, &phys, 1, Iova(0x9000), &mut b),
            Err(DmaError::IommuFault { .. })
        ));
    }

    #[test]
    fn strict_unmap_revokes_immediately() {
        let (mut ctx, mut phys, mut iommu) = setup(InvalidationMode::Strict);
        iommu.attach_device(1);
        iommu
            .map_page(1, Iova(0x10000), Pfn(5), AccessRight::Write)
            .unwrap();
        iommu
            .dev_write(&mut ctx, &mut phys, 1, Iova(0x10000), b"x")
            .unwrap(); // fills IOTLB
        iommu.unmap_range(&mut ctx, 1, Iova(0x10000), 1).unwrap();
        assert!(iommu
            .dev_write(&mut ctx, &mut phys, 1, Iova(0x10000), b"y")
            .is_err());
        assert_eq!(iommu.stats.invalidations, 1);
    }

    #[test]
    fn deferred_unmap_leaves_stale_window_then_flushes() {
        // Figure 6: the data stays device-accessible after unmap until the
        // periodic flush.
        let (mut ctx, mut phys, mut iommu) = setup(InvalidationMode::Deferred);
        iommu.attach_device(1);
        iommu
            .map_page(1, Iova(0x10000), Pfn(5), AccessRight::Write)
            .unwrap();
        iommu
            .dev_write(&mut ctx, &mut phys, 1, Iova(0x10000), b"x")
            .unwrap();
        iommu.unmap_range(&mut ctx, 1, Iova(0x10000), 1).unwrap();

        // Inside the window: the stale IOTLB entry still answers.
        iommu
            .dev_write(&mut ctx, &mut phys, 1, Iova(0x10000), b"evil")
            .unwrap();
        assert_eq!(iommu.stats.stale_hits, 1);

        // After the flush period the access faults.
        ctx.clock.advance(DEFERRED_FLUSH_PERIOD + 1);
        assert!(iommu
            .dev_write(&mut ctx, &mut phys, 1, Iova(0x10000), b"late")
            .is_err());
        assert_eq!(iommu.stats.global_flushes, 1);
    }

    #[test]
    fn deferred_window_closed_if_iotlb_cold() {
        // If the device never touched the mapping, there is no stale entry
        // to exploit: the cleared page table faults the access.
        let (mut ctx, mut phys, mut iommu) = setup(InvalidationMode::Deferred);
        iommu.attach_device(1);
        iommu
            .map_page(1, Iova(0x10000), Pfn(5), AccessRight::Write)
            .unwrap();
        iommu.unmap_range(&mut ctx, 1, Iova(0x10000), 1).unwrap();
        assert!(iommu
            .dev_write(&mut ctx, &mut phys, 1, Iova(0x10000), b"x")
            .is_err());
    }

    #[test]
    fn neighbor_iova_still_maps_page_after_strict_unmap() {
        // Type (c): two IOVAs alias one frame; strict-unmapping the first
        // leaves the second fully usable.
        let (mut ctx, mut phys, mut iommu) = setup(InvalidationMode::Strict);
        iommu.attach_device(1);
        iommu
            .map_page(1, Iova(0x10000), Pfn(5), AccessRight::Write)
            .unwrap();
        iommu
            .map_page(1, Iova(0x20000), Pfn(5), AccessRight::Write)
            .unwrap();
        iommu.unmap_range(&mut ctx, 1, Iova(0x10000), 1).unwrap();
        iommu
            .dev_write(&mut ctx, &mut phys, 1, Iova(0x20000), b"still here")
            .unwrap();
        let mut b = [0u8; 10];
        phys.read(PhysAddr(5 * PAGE_SIZE as u64), &mut b).unwrap();
        assert_eq!(&b, b"still here");
    }

    #[test]
    fn cross_page_access_needs_both_pages_mapped() {
        let (mut ctx, mut phys, mut iommu) = setup(InvalidationMode::Strict);
        iommu.attach_device(1);
        iommu
            .map_page(1, Iova(0x10000), Pfn(5), AccessRight::Write)
            .unwrap();
        // Write straddling into the unmapped next page must fault.
        let near_end = Iova(0x10000 + PAGE_SIZE as u64 - 2);
        assert!(iommu
            .dev_write(&mut ctx, &mut phys, 1, near_end, b"abcd")
            .is_err());
        // Map the neighbour and retry.
        iommu
            .map_page(1, Iova(0x11000), Pfn(6), AccessRight::Write)
            .unwrap();
        iommu
            .dev_write(&mut ctx, &mut phys, 1, near_end, b"abcd")
            .unwrap();
    }

    #[test]
    fn devices_are_isolated_by_domain() {
        let (mut ctx, mut phys, mut iommu) = setup(InvalidationMode::Strict);
        iommu.attach_device(1);
        iommu.attach_device(2);
        iommu
            .map_page(1, Iova(0x10000), Pfn(5), AccessRight::Bidirectional)
            .unwrap();
        assert!(iommu
            .dev_write(&mut ctx, &mut phys, 2, Iova(0x10000), b"x")
            .is_err());
    }

    #[test]
    fn strict_costs_invalidation_cycles_per_unmap() {
        let (mut ctx, _phys, mut iommu) = setup(InvalidationMode::Strict);
        iommu.attach_device(1);
        for i in 0..10u64 {
            iommu
                .map_page(
                    1,
                    Iova(0x10000 + i * 0x1000),
                    Pfn(5 + i),
                    AccessRight::Write,
                )
                .unwrap();
        }
        let before = ctx.clock.now();
        iommu.unmap_range(&mut ctx, 1, Iova(0x10000), 10).unwrap();
        assert_eq!(ctx.clock.now() - before, 10 * IOTLB_INV_CYCLES);
        assert_eq!(iommu.stats.invalidation_cycles, 10 * IOTLB_INV_CYCLES);
    }

    #[test]
    fn deferred_unmap_is_cheap() {
        let (mut ctx, _phys, mut iommu) = setup(InvalidationMode::Deferred);
        iommu.attach_device(1);
        for i in 0..10u64 {
            iommu
                .map_page(
                    1,
                    Iova(0x10000 + i * 0x1000),
                    Pfn(5 + i),
                    AccessRight::Write,
                )
                .unwrap();
        }
        let before = ctx.clock.now();
        iommu.unmap_range(&mut ctx, 1, Iova(0x10000), 10).unwrap();
        assert_eq!(
            ctx.clock.now(),
            before,
            "no invalidation cost at unmap time"
        );
    }

    #[test]
    fn groups_enumerate_domains_deterministically() {
        let (mut ctx, _phys, mut iommu) = setup(InvalidationMode::Deferred);
        iommu.attach_device(3);
        iommu.attach_device(1);
        iommu.attach_device_shared(7, 3).unwrap();
        iommu
            .map_page(1, Iova(0x10000), Pfn(5), AccessRight::Read)
            .unwrap();
        let iova = iommu.alloc_iova(&mut ctx, 1, 1).unwrap();
        iommu.map_page(1, iova, Pfn(6), AccessRight::Read).unwrap();
        iommu.unmap_range(&mut ctx, 1, iova, 1).unwrap();
        let groups = iommu.groups();
        assert_eq!(groups.len(), 2);
        assert!(groups.windows(2).all(|w| w[0].domain < w[1].domain));
        let shared = groups.iter().find(|g| g.devices.len() == 2).unwrap();
        assert_eq!(shared.devices, vec![3, 7], "devices sorted");
        let solo = groups.iter().find(|g| g.devices == vec![1]).unwrap();
        assert_eq!(solo.mapped_pages, 1);
        assert_eq!(solo.deferred_pending, 1, "deferred unmap still pending");
    }

    #[test]
    fn posture_distinguishes_strict_from_deferred() {
        for (mode, inval, grade_expected) in [
            (InvalidationMode::Strict, "strict", "hardened"),
            (InvalidationMode::Deferred, "deferred", "exposed"),
        ] {
            let (_ctx, _phys, mut iommu) = setup(mode);
            iommu.attach_device(1);
            let r = iommu.posture("unit", PAGE_SIZE, None);
            assert_eq!(r.invalidation, inval);
            assert_eq!(r.grade, grade_expected, "mode {inval}");
            if inval == "deferred" {
                assert!(r.flush_period > 0);
                let f = &r.findings[0];
                assert_eq!(f.code, "stale-translation-window");
                assert!(f.detail.contains("5.2.1"));
            } else {
                assert_eq!(r.flush_period, 0);
            }
        }
    }

    #[test]
    fn posture_reflects_observed_stale_windows_and_shared_domains() {
        let (mut ctx, mut phys, mut iommu) = setup(InvalidationMode::Deferred);
        iommu.attach_device(1);
        iommu.attach_device_shared(2, 1).unwrap();
        let iova = iommu.alloc_iova(&mut ctx, 1, 1).unwrap();
        iommu.map_page(1, iova, Pfn(5), AccessRight::Write).unwrap();
        iommu.dev_write(&mut ctx, &mut phys, 1, iova, b"x").unwrap();
        iommu.unmap_range(&mut ctx, 1, iova, 1).unwrap();
        // Stale IOTLB entry still serves the device until the flush.
        iommu.dev_write(&mut ctx, &mut phys, 1, iova, b"y").unwrap();
        ctx.clock.advance(iommu.config.flush_period);
        iommu.tick(&mut ctx);
        let hist = ctx
            .metrics
            .histogram("sim_iommu.stale_window.cycles")
            .cloned()
            .expect("flush observed the window");
        let r = iommu.posture("rig", 2048, Some(&hist));
        assert_eq!(r.grade, "exposed");
        let codes: Vec<&str> = r.findings.iter().map(|f| f.code).collect();
        assert!(codes.contains(&"stale-translation-window"));
        assert!(codes.contains(&"stale-hits-observed"));
        assert!(codes.contains(&"shared-domain"));
        assert!(codes.contains(&"subpage-sharing"));
        let w = r.stale_window.expect("window stats present");
        assert!(w.count >= 1 && w.max_cycles > 0);
        // Deterministic rendering.
        assert_eq!(
            r.to_json(),
            iommu.posture("rig", 2048, Some(&hist)).to_json()
        );
    }
}
