//! A whole simulated machine: memory + IOMMU + NIC driver + stack +
//! malicious device, wired together.
//!
//! This mirrors the paper's test setup (§6): a victim machine with an
//! IOMMU and a NIC whose DMA the attacker controls.

use crate::device::MaliciousNic;
use crate::model::{BootSpec, DeviceKind, DeviceModel, WindowHit};
use dma_core::posture::PostureReport;
use dma_core::vuln::WindowPath;
use dma_core::{Iova, Kva, Result, SimCtx, PAGE_SIZE};
use sim_iommu::{Iommu, IommuConfig};
use sim_mem::{MemConfig, MemorySystem};
use sim_net::driver::{AllocPolicy, DriverConfig, NicDriver, UnmapOrder};
use sim_net::packet::Packet;
use sim_net::shinfo::SHINFO_DESTRUCTOR_ARG;
use sim_net::skb::{PendingCallback, NET_SKB_PAD};
use sim_net::stack::{NetStack, StackConfig};

/// Full machine configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct TestbedConfig {
    /// Which device family to boot (see [`crate::model::boot_model`];
    /// [`Testbed::new`] itself always builds the NIC machine and
    /// ignores non-NIC values).
    pub device: DeviceKind,
    /// Memory/KASLR configuration.
    pub mem: MemConfigLite,
    /// IOMMU configuration.
    pub iommu: IommuConfig,
    /// NIC driver configuration. Non-NIC models reuse the shared knobs
    /// (`dev`, `unmap_order`, ring sizing) and ignore the rest.
    pub driver: DriverConfig,
    /// Upper-stack configuration.
    pub stack: StackConfig,
    /// Boot-time allocation jitter seed (§5.3): models the timing noise
    /// that makes per-boot PFN assignment *vary slightly* while the boot
    /// sequence itself stays deterministic. `None` = perfectly quiet
    /// boot.
    pub boot_noise_seed: Option<u64>,
}

/// A copyable subset of [`MemConfig`] (the full struct is not `Copy`).
#[derive(Clone, Copy, Debug)]
pub struct MemConfigLite {
    /// Physical memory bytes.
    pub phys_bytes: u64,
    /// CPU count.
    pub num_cpus: usize,
    /// KASLR seed (`None` = identity layout).
    pub kaslr_seed: Option<u64>,
}

impl Default for MemConfigLite {
    fn default() -> Self {
        MemConfigLite {
            phys_bytes: 256 << 20,
            num_cpus: 4,
            kaslr_seed: Some(0xd0e5_1e5e),
        }
    }
}

impl From<MemConfigLite> for MemConfig {
    fn from(l: MemConfigLite) -> MemConfig {
        MemConfig {
            phys_bytes: l.phys_bytes,
            num_cpus: l.num_cpus,
            kaslr_seed: l.kaslr_seed,
            ..Default::default()
        }
    }
}

/// The assembled machine.
///
/// `Clone` yields an independent machine — memory, IOMMU, rings, stack
/// — which is what lets a fuzzing shard boot one template per machine
/// config and stamp out per-exec copies instead of re-running the (far
/// more expensive) boot sequence. It copies only the touched physical
/// frames; page-table nodes and kernel text are shared copy-on-write.
#[derive(Clone)]
pub struct Testbed {
    /// Simulation context (clock + trace).
    pub ctx: SimCtx,
    /// Memory system.
    pub mem: MemorySystem,
    /// IOMMU.
    pub iommu: Iommu,
    /// NIC driver.
    pub driver: NicDriver,
    /// Upper stack.
    pub stack: NetStack,
    /// The attacker-controlled NIC (same device the driver serves).
    pub nic: MaliciousNic,
}

impl Testbed {
    /// Boots a machine.
    ///
    /// # Examples
    ///
    /// ```
    /// use devsim::{Testbed, TestbedConfig};
    /// use sim_net::packet::Packet;
    ///
    /// let mut tb = Testbed::new(TestbedConfig::default()).unwrap();
    /// tb.deliver_packet(&Packet::udp(9, 1, b"hi".to_vec())).unwrap();
    /// assert_eq!(tb.stack.stats.delivered, 1);
    /// ```
    pub fn new(cfg: TestbedConfig) -> Result<Self> {
        Self::build(SimCtx::new(), cfg)
    }

    /// Boots a machine into a caller-prepared simulation context (the
    /// [`BootSpec::TracedBoot`] path enables tracing *before* boot so
    /// the boot-time ring population reaches the event stream).
    fn build(mut ctx: SimCtx, cfg: TestbedConfig) -> Result<Self> {
        let mut mem = MemorySystem::new(&cfg.mem.into());
        let mut iommu = Iommu::new(cfg.iommu);
        if let Some(seed) = cfg.boot_noise_seed {
            boot_noise(&mut ctx, &mut mem, seed)?;
        }
        let driver = NicDriver::probe(cfg.driver, &mut ctx, &mut mem, &mut iommu)?;
        let stack = NetStack::new(cfg.stack, &mem);
        let nic = MaliciousNic::new(cfg.driver.dev);
        Ok(Testbed {
            ctx,
            mem,
            iommu,
            driver,
            stack,
            nic,
        })
    }

    /// Boots a machine with event tracing enabled (for D-KASAN).
    pub fn new_traced(cfg: TestbedConfig) -> Result<Self> {
        let mut tb = Self::new(cfg)?;
        tb.ctx.trace.enabled = true;
        tb.ctx.clock.advance(0);
        Ok(tb)
    }

    /// Boots a machine whose event capture goes through a bounded
    /// flight recorder of `capacity` events (evictions are counted
    /// under the `trace.dropped` metric). The long-running harnesses —
    /// chaos soak, fuzz executor — use this instead of the unbounded
    /// trace.
    pub fn new_recorded(cfg: TestbedConfig, capacity: usize) -> Result<Self> {
        let mut tb = Self::new(cfg)?;
        tb.ctx.trace = dma_core::Trace::recorded(capacity);
        tb.ctx.trace.enabled = true;
        tb.ctx.clock.advance(0);
        Ok(tb)
    }

    /// Boots a machine under a [`BootSpec`] — the constructor the
    /// device-model dispatch ([`crate::model::boot_model`]) uses.
    pub fn boot(cfg: TestbedConfig, spec: BootSpec) -> Result<Self> {
        match spec {
            BootSpec::Quiet => Self::new(cfg),
            BootSpec::Recorded(cap) => {
                let mut tb = Self::new_recorded(cfg, cap)?;
                tb.ctx.trace.record_cpu_access = true;
                Ok(tb)
            }
            BootSpec::TracedBoot => {
                let mut ctx = SimCtx::new();
                ctx.trace.enabled = true;
                ctx.trace.record_cpu_access = true;
                let mut tb = Self::build(ctx, cfg)?;
                tb.ctx.clock.advance(0);
                Ok(tb)
            }
        }
    }

    /// Device delivers one packet and the driver/stack process it to
    /// completion (the benign fast path).
    pub fn deliver_packet(&mut self, packet: &Packet) -> Result<()> {
        let descs = self.driver.rx_descriptors();
        let (iova, _) = *descs.first().ok_or(dma_core::DmaError::RingEmpty)?;
        let n = self.nic.inject_rx(
            &mut self.ctx,
            &mut self.iommu,
            &mut self.mem.phys,
            iova,
            packet,
        )?;
        self.driver.device_rx_complete(n)?;
        self.rx_process()
    }

    /// Device delivers `bytes` verbatim — no `Packet` framing — into the
    /// head RX buffer at the payload offset and signals completion. This
    /// is the fuzzer's malformed-frame path: the wire bytes need not
    /// parse, and the stack is expected to drop garbage gracefully
    /// rather than panic.
    pub fn deliver_raw(&mut self, bytes: &[u8]) -> Result<()> {
        let descs = self.driver.rx_descriptors();
        let (iova, buf_size) = *descs.first().ok_or(dma_core::DmaError::RingEmpty)?;
        let room = buf_size.saturating_sub(NET_SKB_PAD);
        if room == 0 {
            return Err(dma_core::DmaError::RingEmpty);
        }
        let n = bytes.len().min(room);
        self.nic.deposit(
            &mut self.ctx,
            &mut self.iommu,
            &mut self.mem.phys,
            iova,
            NET_SKB_PAD,
            &bytes[..n],
        )?;
        self.driver.device_rx_complete(n)?;
        self.rx_process()
    }

    /// Polls RX until empty and runs the stack on everything.
    pub fn rx_process(&mut self) -> Result<()> {
        while let Some(skb) =
            self.driver
                .rx_poll_quiet(&mut self.ctx, &mut self.mem, &mut self.iommu)?
        {
            self.stack.rx(
                &mut self.ctx,
                &mut self.mem,
                &mut self.iommu,
                &mut self.driver,
                skb,
            )?;
        }
        self.stack.flush(
            &mut self.ctx,
            &mut self.mem,
            &mut self.iommu,
            &mut self.driver,
        )
    }

    /// Completes every in-flight TX (an honest device would) and reaps,
    /// returning any surfaced destructor callbacks.
    pub fn complete_all_tx(&mut self) -> Result<Vec<PendingCallback>> {
        let descs = self.driver.tx_descriptors();
        for d in &descs {
            self.driver.device_tx_complete(d.idx)?;
        }
        self.driver
            .tx_reap(&mut self.ctx, &mut self.mem, &mut self.iommu)
    }

    /// Advances simulated time.
    pub fn advance_ms(&mut self, ms: u64) {
        self.ctx.clock.advance_ms(ms);
        self.iommu.tick(&mut self.ctx);
    }

    /// Tears the machine down — completes and reaps all TX, unmaps and
    /// frees every driver-held buffer — and returns the number of pages
    /// the device can still DMA to afterwards.
    ///
    /// This is the mapping-leak audit: a clean shutdown returns `0`; any
    /// path that lost track of a mapping (for example under fault
    /// injection) shows up as a non-zero residue.
    pub fn shutdown(&mut self) -> Result<usize> {
        for d in &self.driver.tx_descriptors() {
            self.driver.device_tx_complete(d.idx)?;
        }
        let _ = self
            .driver
            .shutdown(&mut self.ctx, &mut self.mem, &mut self.iommu)?;
        Ok(self.iommu.mapped_pages(self.nic.id))
    }
}

impl DeviceModel for Testbed {
    fn kind(&self) -> DeviceKind {
        DeviceKind::Nic
    }

    fn sim(&mut self) -> &mut SimCtx {
        &mut self.ctx
    }

    fn sim_ref(&self) -> &SimCtx {
        &self.ctx
    }

    fn deliver(&mut self, len: usize, fill: u8) -> Result<()> {
        let pkt = Packet::udp(60 + (fill as u32 % 8), 1, vec![fill; len]);
        self.deliver_packet(&pkt)
    }

    fn inject_raw(&mut self, bytes: &[u8]) -> Result<()> {
        self.deliver_raw(bytes)
    }

    fn descriptors(&self) -> Vec<(Iova, usize)> {
        self.driver.rx_descriptors()
    }

    fn dev_deposit(&mut self, iova: Iova, offset: usize, bytes: &[u8]) -> Result<()> {
        let nic = self.nic;
        nic.deposit(
            &mut self.ctx,
            &mut self.iommu,
            &mut self.mem.phys,
            iova,
            offset,
            bytes,
        )
    }

    /// Delivers a frame and fires the device write *inside* the rx_poll
    /// race window — between build_skb and dma_unmap on BuildThenUnmap
    /// drivers (path (i)), or after the unmap on UnmapThenBuild
    /// drivers, where it only lands through a stale IOTLB entry
    /// (path (ii)).
    fn window_race(&mut self, value: u64) -> Result<Option<WindowHit>> {
        let descs = self.driver.rx_descriptors();
        let (iova, _) = *descs.first().ok_or(dma_core::DmaError::RingEmpty)?;
        let pkt = Packet::udp(61, 1, vec![0xa5; 64]);
        let n = self.nic.inject_rx(
            &mut self.ctx,
            &mut self.iommu,
            &mut self.mem.phys,
            iova,
            &pkt,
        )?;
        self.driver.device_rx_complete(n)?;

        let nic = self.nic;
        let start = self.ctx.clock.now();
        let mut landed: Option<Iova> = None;
        loop {
            let polled = self.driver.rx_poll(
                &mut self.ctx,
                &mut self.mem,
                &mut self.iommu,
                |ctx, mem, iommu, slot| {
                    let shinfo = nic.shinfo_iova(slot.mapping.iova, slot.buf_size);
                    let target = Iova(shinfo.raw() + SHINFO_DESTRUCTOR_ARG as u64);
                    if nic
                        .write_u64(ctx, iommu, &mut mem.phys, target, value)
                        .is_ok()
                    {
                        landed = Some(target);
                    }
                },
            )?;
            match polled {
                Some(skb) => self.stack.rx(
                    &mut self.ctx,
                    &mut self.mem,
                    &mut self.iommu,
                    &mut self.driver,
                    skb,
                )?,
                None => break,
            }
        }
        self.stack.flush(
            &mut self.ctx,
            &mut self.mem,
            &mut self.iommu,
            &mut self.driver,
        )?;

        Ok(landed.map(|target| {
            let path = match self.driver.cfg.unmap_order {
                UnmapOrder::BuildThenUnmap => WindowPath::UnmapAfterBuild,
                UnmapOrder::UnmapThenBuild => WindowPath::DeferredIotlb,
            };
            WindowHit {
                site: "skb_shared_info.destructor_arg",
                field: "destructor_arg",
                target,
                path,
                start,
                end: self.ctx.clock.now(),
            }
        }))
    }

    /// Captures the head descriptor, lets the driver consume and unmap
    /// it, then writes through the captured IOVA: only a stale IOTLB
    /// entry (deferred invalidation, §5.2.1) lets this land.
    fn window_stale(&mut self, value: u64) -> Result<WindowHit> {
        let descs = self.driver.rx_descriptors();
        let (iova, buf_size) = *descs.first().ok_or(dma_core::DmaError::RingEmpty)?;
        let target = Iova(iova.raw() + buf_size as u64 + SHINFO_DESTRUCTOR_ARG as u64);
        let start = self.ctx.clock.now();
        // Consuming the head frame fills the IOTLB through this IOVA and
        // then unmaps it; under deferred invalidation the entry lingers.
        self.deliver_packet(&Packet::udp(62, 1, vec![0x5a; 48]))?;
        self.nic.write_u64(
            &mut self.ctx,
            &mut self.iommu,
            &mut self.mem.phys,
            target,
            value,
        )?;
        Ok(WindowHit {
            site: "skb_shared_info.destructor_arg",
            field: "destructor_arg",
            target,
            path: WindowPath::DeferredIotlb,
            start,
            end: self.ctx.clock.now(),
        })
    }

    fn tick_ms(&mut self, ms: u64) {
        self.advance_ms(ms);
    }

    fn churn_alloc(&mut self, size: usize, site: &'static str) -> Result<Kva> {
        self.mem.kmalloc(&mut self.ctx, size, site)
    }

    fn churn_free(&mut self, kva: Kva) -> Result<()> {
        self.mem.kfree(&mut self.ctx, kva)
    }

    fn scan_leaks(&mut self) -> usize {
        let descs = self.driver.rx_descriptors();
        let nic = self.nic;
        nic.scan_descriptors(&mut self.ctx, &mut self.iommu, &self.mem.phys, &descs)
            .len()
    }

    fn complete_io(&mut self) -> Result<()> {
        self.complete_all_tx().map(|_| ())
    }

    fn recover(&mut self) -> Result<()> {
        self.driver
            .rx_refill(&mut self.ctx, &mut self.mem, &mut self.iommu)
    }

    fn teardown(&mut self) -> Result<usize> {
        self.shutdown()
    }

    fn delivered_count(&self) -> u64 {
        self.stack.stats.delivered + self.stack.stats.echoed
    }

    fn colocates_random(&self) -> bool {
        matches!(self.driver.cfg.alloc, AllocPolicy::Kmalloc) || self.driver.cfg.map_ctrl_block
    }

    fn posture(&self, label: &str) -> PostureReport {
        // PagePerBuffer wastes the page's tail but shares it with
        // nothing: the effective sub-page surface is the whole page.
        let effective_buf = match self.driver.cfg.alloc {
            AllocPolicy::PagePerBuffer => PAGE_SIZE,
            _ => self.driver.cfg.rx_buf_size,
        };
        let stale = self.ctx.metrics.histogram("sim_iommu.stale_window.cycles");
        self.iommu.posture(label, effective_buf, stale)
    }

    fn clone_model(&self) -> Box<dyn DeviceModel> {
        Box::new(self.clone())
    }
}

/// Early-boot allocation jitter: a seed-dependent number of page and
/// object allocations made before the NIC driver probes, shifting where
/// its RX buffers land — "while the pages each module receives may vary
/// in a multi-core environment due to timing issues, we do not expect
/// the drift to be too large" (§5.3).
pub(crate) fn boot_noise(ctx: &mut SimCtx, mem: &mut MemorySystem, seed: u64) -> Result<()> {
    let mut rng = dma_core::DetRng::new(seed ^ 0xb007_b007);
    // Leaked (never-freed) early allocations: modules, firmware blobs...
    let pages = rng.below(49);
    for _ in 0..pages {
        mem.alloc_pages(ctx, 0, "boot_early_alloc")?;
    }
    let objs = rng.below(32);
    let mut transient = Vec::new();
    for _ in 0..objs {
        let size = 32 << rng.below(5);
        let kva = mem.kmalloc(ctx, size as usize, "boot_module_init")?;
        // Most early-boot allocations are short-lived (initdata, probe
        // scratch); roughly two thirds are freed again before drivers
        // settle, leaving partially filled slab pages behind.
        if rng.chance(2, 3) {
            transient.push(kva);
        }
    }
    for kva in transient {
        mem.kfree(ctx, kva)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn local_udp(payload: &[u8]) -> Packet {
        Packet::udp(99, 1, payload.to_vec())
    }

    #[test]
    fn boot_and_deliver() {
        let mut tb = Testbed::new(TestbedConfig::default()).unwrap();
        tb.deliver_packet(&local_udp(b"hello world")).unwrap();
        assert_eq!(tb.stack.stats.delivered, 1);
        assert_eq!(tb.stack.delivered()[0].payload, b"hello world");
    }

    #[test]
    fn many_packets_cycle_the_ring() {
        let mut tb = Testbed::new(TestbedConfig::default()).unwrap();
        for i in 0..200u32 {
            tb.deliver_packet(&local_udp(&i.to_le_bytes())).unwrap();
        }
        assert_eq!(tb.stack.stats.delivered, 200);
        assert_eq!(tb.driver.stats.rx_packets, 200);
    }

    #[test]
    fn echo_roundtrip_with_completion() {
        let cfg = TestbedConfig {
            stack: StackConfig {
                echo_service: true,
                ..Default::default()
            },
            ..Default::default()
        };
        let mut tb = Testbed::new(cfg).unwrap();
        tb.deliver_packet(&local_udp(&[7u8; 128])).unwrap();
        assert_eq!(tb.stack.stats.echoed, 1);
        let cbs = tb.complete_all_tx().unwrap();
        assert!(cbs.is_empty());
    }

    #[test]
    fn raw_garbage_frames_are_dropped_not_fatal() {
        let mut tb = Testbed::new(TestbedConfig::default()).unwrap();
        tb.deliver_raw(&[0xff; 97]).unwrap();
        assert_eq!(tb.stack.stats.delivered, 0);
        assert_eq!(tb.stack.stats.dropped, 1, "garbage is dropped, not fatal");
        // A well-formed packet still flows afterwards.
        tb.deliver_packet(&local_udp(b"after")).unwrap();
        assert_eq!(tb.stack.stats.delivered, 1);
        assert_eq!(tb.shutdown().unwrap(), 0);
    }

    #[test]
    fn traced_testbed_captures_events() {
        let mut tb = Testbed::new_traced(TestbedConfig::default()).unwrap();
        tb.deliver_packet(&local_udp(b"x")).unwrap();
        assert!(!tb.ctx.trace.is_empty());
    }
}
