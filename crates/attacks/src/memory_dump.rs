//! Full memory dump (§3.1: "a full memory dump is possible when an
//! attacker can modify data pointers before they are mapped, causing the
//! driver to map arbitrary kernel addresses") — the Inception/Volatility
//! class of attack (§2.1), rebuilt on the Forward Thinking surveillance
//! primitive.
//!
//! Each forged-frag forwarding round maps one arbitrary frame for READ;
//! iterating over the PFN range exfiltrates all of physical memory.

use crate::forward_thinking::surveil;
use crate::kaslr::AttackerKnowledge;
use devsim::Testbed;
use dma_core::{DmaError, Pfn, Result, PAGE_SIZE};

/// A captured dump segment.
#[derive(Clone, Debug)]
pub struct DumpReport {
    /// First frame captured.
    pub start: Pfn,
    /// The captured bytes (`frames × PAGE_SIZE`).
    pub bytes: Vec<u8>,
    /// Frames that could not be read (holes).
    pub failed_frames: Vec<Pfn>,
    /// Simulated cycles the exfiltration took.
    pub cycles: u64,
}

impl DumpReport {
    /// Number of frames captured (including failed ones as zero-filled).
    pub fn frames(&self) -> usize {
        self.bytes.len() / PAGE_SIZE
    }

    /// View of one captured frame.
    pub fn frame(&self, index: usize) -> &[u8] {
        &self.bytes[index * PAGE_SIZE..(index + 1) * PAGE_SIZE]
    }
}

/// Dumps `frames` frames starting at `start` through the surveillance
/// channel. Requires a forwarding-enabled testbed and complete KASLR
/// knowledge (see [`crate::ringflood::break_kaslr`] and
/// [`crate::forward_thinking::leak_vmemmap`]). A range that does not
/// fit in the machine's memory is [`DmaError::BadPfn`], naming its
/// first frame past the end.
pub fn dump_range(
    tb: &mut Testbed,
    knowledge: &AttackerKnowledge,
    start: Pfn,
    frames: usize,
) -> Result<DumpReport> {
    // Inside memory, `frames * PAGE_SIZE` is at most the memory's size.
    let pages = tb.mem.num_pages();
    let end = u64::try_from(frames)
        .ok()
        .and_then(|n| start.raw().checked_add(n));
    if end.is_none_or(|end| end > pages) {
        return Err(DmaError::BadPfn(start.raw().max(pages)));
    }
    let t0 = tb.ctx.clock.now();
    let mut bytes = Vec::with_capacity(frames * PAGE_SIZE);
    let mut failed_frames = Vec::new();
    for i in 0..frames {
        let pfn = Pfn(start.raw() + i as u64);
        // A page read is split in two frags-sized chunks? One surveil
        // round reads up to a full page (one frag).
        match surveil(tb, knowledge, pfn, 0, PAGE_SIZE as u32) {
            Ok(r) if r.stolen.len() == PAGE_SIZE => bytes.extend_from_slice(&r.stolen),
            Ok(r) => {
                let mut padded = r.stolen;
                padded.resize(PAGE_SIZE, 0);
                bytes.extend_from_slice(&padded);
            }
            Err(_) => {
                failed_frames.push(pfn);
                bytes.extend_from_slice(&[0u8; PAGE_SIZE]);
            }
        }
    }
    Ok(DumpReport {
        start,
        bytes,
        failed_frames,
        cycles: tb.ctx.clock.now() - t0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forward_thinking::{boot, leak_vmemmap};
    use crate::image::KernelImage;
    use crate::ringflood::break_kaslr;
    use dma_core::vuln::WindowPath;
    use dma_core::Kva;

    fn armed_testbed() -> (Testbed, AttackerKnowledge) {
        let image = KernelImage::build(1, 16 << 20);
        let mut tb = boot(WindowPath::UnmapAfterBuild, 77).unwrap();
        tb.mem.install_text(&image.bytes);
        let k = break_kaslr(&mut tb).unwrap();
        let k = leak_vmemmap(&mut tb, &k).unwrap();
        (tb, k)
    }

    #[test]
    fn dump_captures_planted_content_across_frames() {
        let (mut tb, k) = armed_testbed();
        // Plant recognizable content across 3 contiguous frames.
        let buf = tb.mem.kmalloc(&mut tb.ctx, 8192, "vault").unwrap();
        for i in 0..2u64 {
            tb.mem
                .cpu_write(
                    &mut tb.ctx,
                    Kva(buf.raw() + i * 4096 + 7),
                    format!("frame-{i}").as_bytes(),
                    "vault",
                )
                .unwrap();
        }
        let start = tb.mem.layout.kva_to_pfn(buf).unwrap();
        let dump = dump_range(&mut tb, &k, start, 2).unwrap();
        assert_eq!(dump.frames(), 2);
        assert!(dump.failed_frames.is_empty());
        assert_eq!(&dump.frame(0)[7..14], b"frame-0");
        assert_eq!(&dump.frame(1)[7..14], b"frame-1");
        assert!(dump.cycles > 0);
    }

    #[test]
    fn dump_survives_unreadable_frames() {
        let (mut tb, k) = armed_testbed();
        // Without the vmemmap leak no frag can be forged, so every frame
        // fails; the dump records holes instead of aborting.
        let blind = AttackerKnowledge {
            vmemmap_base: None,
            ..k
        };
        let dump = dump_range(&mut tb, &blind, Pfn(0x400), 2).unwrap();
        assert_eq!(dump.frames(), 2);
        assert_eq!(dump.failed_frames, [Pfn(0x400), Pfn(0x401)]);
    }

    #[test]
    fn dump_rejects_ranges_past_memory_before_reserving_them() {
        let (mut tb, k) = armed_testbed();
        let pages = tb.mem.num_pages();
        // The last frame is in range; one more is not, and a frame
        // count near usize::MAX neither reserves its bytes nor wraps.
        let dump = dump_range(&mut tb, &k, Pfn(pages - 1), 1).unwrap();
        assert_eq!(dump.frames(), 1);
        for (start, frames) in [(pages - 1, 2), (pages, 1), (1, usize::MAX), (u64::MAX, 1)] {
            assert!(
                matches!(
                    dump_range(&mut tb, &k, Pfn(start), frames),
                    Err(DmaError::BadPfn(pfn)) if pfn == start.max(pages)
                ),
                "start {start}, {frames} frames"
            );
        }
    }

    #[test]
    fn dump_throughput_is_macroscopic() {
        // Each frame costs a full forwarded-packet round trip — the dump
        // is slow but steady, as the paper's "persistent surveillance"
        // framing implies.
        let (mut tb, k) = armed_testbed();
        let dump = dump_range(&mut tb, &k, Pfn(0x400), 8).unwrap();
        assert_eq!(dump.frames(), 8);
        let per_frame = dump.cycles / 8;
        assert!(per_frame > 1000, "per-frame cost {per_frame} cycles");
    }
}
