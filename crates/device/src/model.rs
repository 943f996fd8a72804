//! The `DeviceModel` trait: one device-agnostic surface over every
//! machine the zoo can boot.
//!
//! The fuzz executor, the posture audit, and the inference workload all
//! drive a machine through this trait instead of reaching into the NIC
//! testbed directly, which is what lets `machine_config` grow into a
//! device×mode matrix: a config id selects *which* device family boots
//! ([`DeviceKind`]) as well as its unmap ordering and invalidation mode,
//! and every downstream consumer — D-KASAN, SPADE posture, forensics,
//! the sharded campaign — runs unchanged across the zoo.

use crate::nvme::NvmeTestbed;
use crate::testbed::{Testbed, TestbedConfig};
use crate::virtio::VirtioTestbed;
use dma_core::posture::PostureReport;
use dma_core::vuln::WindowPath;
use dma_core::{Iova, Kva, Result, SimCtx};

/// Which device family a machine configuration boots.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum DeviceKind {
    /// The original malicious NIC behind `sim-net`'s driver/stack.
    #[default]
    Nic,
    /// A virtio-style split-ring transport: an in-memory descriptor
    /// table the device *reads*, kmalloc-backed payload buffers it
    /// *writes*, and a long-lived used ring it publishes completions to.
    VirtioSplit,
    /// An NVMe-ish paired queue device: a submission queue the device
    /// reads commands (with PRP pointers) from, a completion queue it
    /// writes entries to, and page-frag data buffers.
    NvmeQueuePair,
}

impl DeviceKind {
    /// Short machine-readable family name (posture frames, reports).
    pub fn name(self) -> &'static str {
        match self {
            DeviceKind::Nic => "nic",
            DeviceKind::VirtioSplit => "virtio",
            DeviceKind::NvmeQueuePair => "nvme",
        }
    }
}

/// A device write that landed inside a §5.2 time window. The executor
/// turns one of these into a taxonomy-classified fuzz finding; the
/// model only reports the mechanics (where it hit, through which path,
/// over which simulated-cycle span).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WindowHit {
    /// Finding site, e.g. `skb_shared_info.destructor_arg`.
    pub site: &'static str,
    /// The tampered field name (callback-exposure attribute).
    pub field: &'static str,
    /// IOVA the write landed at.
    pub target: Iova,
    /// Which §5.2.2 path the window opened through.
    pub path: WindowPath,
    /// Simulated cycle the window race began.
    pub start: u64,
    /// Simulated cycle the race resolved.
    pub end: u64,
}

/// How a model's boot should wire up event capture.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BootSpec {
    /// No tracing — posture audits and plain delivery tests.
    Quiet,
    /// Bounded flight recorder installed *after* boot, CPU accesses
    /// recorded: the fuzz executor's shape (boot events are not
    /// captured, exactly like `Testbed::new_recorded`).
    Recorded(usize),
    /// Unbounded trace enabled *before* boot, CPU accesses recorded:
    /// the inference workload's shape — `dma-infer` needs the boot-time
    /// ring population and control-block mappings in the stream.
    TracedBoot,
}

/// One device model the fuzzer can drive. Every method is deterministic
/// given the machine's state; none consults wall-clock time or host
/// randomness. `Send` because shard threads own warm boot templates.
pub trait DeviceModel: Send {
    /// Which family this machine is.
    fn kind(&self) -> DeviceKind;
    /// The simulation context (clock, trace, faults, metrics).
    fn sim(&mut self) -> &mut SimCtx;
    /// Read-only view of the simulation context.
    fn sim_ref(&self) -> &SimCtx;
    /// Deliver one well-formed unit of device input (a UDP frame, a
    /// virtio buffer, an NVMe read completion) of `len` payload bytes.
    fn deliver(&mut self, len: usize, fill: u8) -> Result<()>;
    /// Deliver raw adversarial bytes with no framing; the consumer is
    /// expected to drop garbage gracefully.
    fn inject_raw(&mut self, bytes: &[u8]) -> Result<()>;
    /// The device-visible posted buffers: `(iova, usable_len)` pairs.
    fn descriptors(&self) -> Vec<(Iova, usize)>;
    /// Raw device write at `iova + offset` (the mutation primitive the
    /// inferred-channel vocabulary drives).
    fn dev_deposit(&mut self, iova: Iova, offset: usize, bytes: &[u8]) -> Result<()>;
    /// Deliver a frame and fire a device write *inside* the consume
    /// window (§5.2.2 paths (i)/(ii)); `Some` when the write landed.
    fn window_race(&mut self, value: u64) -> Result<Option<WindowHit>>;
    /// Capture the head buffer, let the driver consume/unmap it, then
    /// write through the captured IOVA — lands only while a stale IOTLB
    /// entry survives (path (ii)); `Err` when the window was closed.
    fn window_stale(&mut self, value: u64) -> Result<WindowHit>;
    /// Advance simulated time (triggers deferred IOTLB flushes).
    fn tick_ms(&mut self, ms: u64);
    /// Kmalloc on the machine's memory system (churn vocabulary).
    fn churn_alloc(&mut self, size: usize, site: &'static str) -> Result<Kva>;
    /// Kfree for [`DeviceModel::churn_alloc`].
    fn churn_free(&mut self, kva: Kva) -> Result<()>;
    /// Device scans everything it can read for leaked kernel pointers;
    /// returns how many it found.
    fn scan_leaks(&mut self) -> usize;
    /// Honest completion of all in-flight device→driver work.
    fn complete_io(&mut self) -> Result<()>;
    /// Re-arm the receive path after a tolerated drop (ring refill).
    fn recover(&mut self) -> Result<()>;
    /// Tear the machine down; returns the number of pages the device
    /// can still DMA to afterwards (the mapping-leak audit).
    fn teardown(&mut self) -> Result<usize>;
    /// Units of input the consumer accepted so far.
    fn delivered_count(&self) -> u64;
    /// Whether this machine's DMA buffers co-locate *random* kernel
    /// objects (kmalloc-backed buffers, mapped control blocks) rather
    /// than driver-owned metadata — decides the Figure-1 letter for
    /// allocator-class D-KASAN findings.
    fn colocates_random(&self) -> bool;
    /// SPADE-style posture report from the live IOMMU state.
    fn posture(&self, label: &str) -> PostureReport;
    /// An independent copy (templates in the warm executor clone per
    /// exec). It costs what the machine has touched: resident frames are
    /// copied, page-table nodes and kernel text are shared copy-on-write,
    /// and a first write under a shared page-table node copies only that
    /// node's populated slots.
    fn clone_model(&self) -> Box<dyn DeviceModel>;
}

/// Boots the device family `cfg.device` selects. This is the single
/// constructor every consumer (executor, posture audit, inference,
/// CLI) goes through.
pub fn boot_model(cfg: TestbedConfig, spec: BootSpec) -> Result<Box<dyn DeviceModel>> {
    Ok(match cfg.device {
        DeviceKind::Nic => Box::new(Testbed::boot(cfg, spec)?),
        DeviceKind::VirtioSplit => Box::new(VirtioTestbed::boot(cfg, spec)?),
        DeviceKind::NvmeQueuePair => Box::new(NvmeTestbed::boot(cfg, spec)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(DeviceKind::Nic.name(), "nic");
        assert_eq!(DeviceKind::VirtioSplit.name(), "virtio");
        assert_eq!(DeviceKind::NvmeQueuePair.name(), "nvme");
    }

    #[test]
    fn boot_model_dispatches_on_device_kind() {
        for kind in [
            DeviceKind::Nic,
            DeviceKind::VirtioSplit,
            DeviceKind::NvmeQueuePair,
        ] {
            let cfg = TestbedConfig {
                device: kind,
                ..Default::default()
            };
            let mut m = boot_model(cfg, BootSpec::Quiet).unwrap();
            assert_eq!(m.kind(), kind);
            m.deliver(64, 0xab).unwrap();
            assert_eq!(m.delivered_count(), 1);
            assert!(!m.descriptors().is_empty());
            assert_eq!(m.teardown().unwrap(), 0, "{:?} leaked mappings", kind);
        }
    }

    #[test]
    fn a_clone_behaves_exactly_like_a_fresh_boot() {
        // The fuzz executor runs every input on a clone of a booted
        // template; that is sound only if a clone and a second boot of
        // the same config evolve identically under the same ops. Clones
        // share page-table nodes and kernel text with the template until
        // they write, so a second clone, run after the first, must match
        // too: a write that leaked into the template would not.
        for kind in [
            DeviceKind::Nic,
            DeviceKind::VirtioSplit,
            DeviceKind::NvmeQueuePair,
        ] {
            let cfg = TestbedConfig {
                device: kind,
                mem: crate::testbed::MemConfigLite {
                    kaslr_seed: Some(7),
                    ..Default::default()
                },
                boot_noise_seed: Some(7),
                ..Default::default()
            };
            let run = |mut m: Box<dyn DeviceModel>| {
                let mut events = Vec::new();
                for i in 0..6u8 {
                    m.deliver(64 + usize::from(i) * 100, i).unwrap();
                    events.extend(m.sim().trace.drain());
                }
                m.tick_ms(2);
                m.complete_io().unwrap();
                let leaked = m.teardown().unwrap();
                events.extend(m.sim().trace.drain());
                let snapshot = m.sim_ref().metrics_snapshot().to_json();
                let clock = m.sim_ref().clock.now();
                (events, snapshot, clock, m.delivered_count(), leaked)
            };
            let template = boot_model(cfg, BootSpec::Recorded(8192)).unwrap();
            let cloned = run(template.clone_model());
            let second = run(template.clone_model());
            let booted = run(boot_model(cfg, BootSpec::Recorded(8192)).unwrap());
            assert!(!cloned.0.is_empty(), "{kind:?} emitted no events");
            assert_eq!(cloned, booted, "{kind:?}: clone diverged from a fresh boot");
            assert_eq!(
                second, booted,
                "{kind:?}: the first clone leaked into the template"
            );
        }
    }

    #[test]
    fn every_model_survives_raw_garbage() {
        for kind in [
            DeviceKind::Nic,
            DeviceKind::VirtioSplit,
            DeviceKind::NvmeQueuePair,
        ] {
            let cfg = TestbedConfig {
                device: kind,
                ..Default::default()
            };
            let mut m = boot_model(cfg, BootSpec::Quiet).unwrap();
            m.inject_raw(&[0xff; 97]).unwrap();
            m.deliver(32, 1).unwrap();
            assert!(m.delivered_count() >= 1);
        }
    }
}
