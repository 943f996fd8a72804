//! Byte layout of `skb_shared_info` and `ubuf_info`, written into and
//! read from *simulated memory* so that device DMA tampering is fully
//! effective.
//!
//! The layout mirrors Linux 5.0 (x86-64):
//!
//! ```text
//! struct skb_shared_info {            offset
//!     u8  nr_frags;                        0
//!     u8  tx_flags;                        1
//!     u16 gso_size;                        2
//!     u16 gso_segs;                        4
//!     u16 gso_type;                        6
//!     struct sk_buff *frag_list;           8
//!     struct skb_shared_hwtstamps;        16
//!     u32 tskey;                          24
//!     u32 ip6_frag_id;                    28
//!     atomic_t dataref (+pad);            32
//!     void *destructor_arg;               40   <-- the hijacked pointer
//!     skb_frag_t frags[17];               48   (16 bytes each: page, off, size)
//! };                                  = 320 bytes
//!
//! struct ubuf_info {
//!     void (*callback)(struct ubuf_info *, bool);   0
//!     void *ctx;                                    8
//!     u64 desc;                                    16
//! };                                  = 24 bytes
//! ```

use dma_core::{Kva, Result, SimCtx};
use sim_mem::MemorySystem;

/// Size of `skb_shared_info` in bytes.
pub const SHINFO_SIZE: usize = 320;
/// Offset of `nr_frags` (u8).
pub const SHINFO_NR_FRAGS: usize = 0;
/// Offset of `gso_size` (u16).
pub const SHINFO_GSO_SIZE: usize = 2;
/// Offset of `frag_list` (pointer).
pub const SHINFO_FRAG_LIST: usize = 8;
/// Offset of `dataref`.
pub const SHINFO_DATAREF: usize = 32;
/// Offset of `destructor_arg` — the callback-bearing pointer of §5.1.
pub const SHINFO_DESTRUCTOR_ARG: usize = 40;
/// Offset of `frags[0]`.
pub const SHINFO_FRAGS: usize = 48;
/// Size of one `skb_frag_t`.
pub const FRAG_SIZE: usize = 16;
/// Maximum number of fragments (`MAX_SKB_FRAGS`).
pub const MAX_FRAGS: usize = 17;

/// Size of `ubuf_info` in bytes.
pub const UBUF_INFO_SIZE: usize = 24;
/// Offset of the `callback` function pointer inside `ubuf_info`.
pub const UBUF_CALLBACK: usize = 0;
/// Offset of `ctx`.
pub const UBUF_CTX: usize = 8;
/// Offset of `desc`.
pub const UBUF_DESC: usize = 16;

/// One fragment descriptor as stored in `frags[]`: a `struct page`
/// pointer (a vmemmap KVA — a kernel pointer on a device-visible page!),
/// a byte offset into that page's compound buffer, and a length.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Frag {
    /// `struct page *` of the fragment (vmemmap address).
    pub page: u64,
    /// Offset within the page.
    pub offset: u32,
    /// Fragment length.
    pub size: u32,
}

/// CPU-side view of an `skb_shared_info` at `base` (always
/// `skb.data + skb.buf_size`; always on the DMA-mapped page).
#[derive(Clone, Copy, Debug)]
pub struct SharedInfo {
    /// KVA of the structure.
    pub base: Kva,
}

impl SharedInfo {
    /// Initializes the structure the way `build_skb`/`__alloc_skb` do:
    /// zero everything, set `dataref = 1`.
    pub fn init(&self, ctx: &mut SimCtx, mem: &mut MemorySystem) -> Result<()> {
        mem.cpu_write(ctx, self.base, &[0u8; SHINFO_SIZE], "skb_init_shared_info")?;
        mem.cpu_write(
            ctx,
            Kva(self.base.raw() + SHINFO_DATAREF as u64),
            &1u32.to_le_bytes(),
            "skb_init_shared_info",
        )
    }

    /// Reads `nr_frags`.
    pub fn nr_frags(&self, ctx: &mut SimCtx, mem: &MemorySystem) -> Result<u8> {
        let mut b = [0u8; 1];
        mem.cpu_read(
            ctx,
            Kva(self.base.raw() + SHINFO_NR_FRAGS as u64),
            &mut b,
            "skb",
        )?;
        Ok(b[0])
    }

    /// Writes `nr_frags`.
    pub fn set_nr_frags(&self, ctx: &mut SimCtx, mem: &mut MemorySystem, n: u8) -> Result<()> {
        mem.cpu_write(
            ctx,
            Kva(self.base.raw() + SHINFO_NR_FRAGS as u64),
            &[n],
            "skb",
        )
    }

    /// Reads `dataref` (the buffer share count).
    pub fn dataref(&self, ctx: &mut SimCtx, mem: &MemorySystem) -> Result<u32> {
        let mut b = [0u8; 4];
        mem.cpu_read(
            ctx,
            Kva(self.base.raw() + SHINFO_DATAREF as u64),
            &mut b,
            "skb",
        )?;
        Ok(u32::from_le_bytes(b))
    }

    /// Writes `dataref`.
    pub fn set_dataref(&self, ctx: &mut SimCtx, mem: &mut MemorySystem, v: u32) -> Result<()> {
        mem.cpu_write(
            ctx,
            Kva(self.base.raw() + SHINFO_DATAREF as u64),
            &v.to_le_bytes(),
            "skb",
        )
    }

    /// Reads `destructor_arg`.
    pub fn destructor_arg(&self, ctx: &mut SimCtx, mem: &MemorySystem) -> Result<u64> {
        mem.cpu_read_u64(
            ctx,
            Kva(self.base.raw() + SHINFO_DESTRUCTOR_ARG as u64),
            "skb",
        )
    }

    /// Writes `destructor_arg` (the kernel does this for zero-copy TX;
    /// the attacker does it over DMA).
    pub fn set_destructor_arg(
        &self,
        ctx: &mut SimCtx,
        mem: &mut MemorySystem,
        v: u64,
    ) -> Result<()> {
        mem.cpu_write_u64(
            ctx,
            Kva(self.base.raw() + SHINFO_DESTRUCTOR_ARG as u64),
            v,
            "skb",
        )
    }

    /// Reads `frags[idx]`.
    pub fn frag(&self, ctx: &mut SimCtx, mem: &MemorySystem, idx: usize) -> Result<Frag> {
        debug_assert!(idx < MAX_FRAGS);
        let off = self.base.raw() + (SHINFO_FRAGS + idx * FRAG_SIZE) as u64;
        let page = mem.cpu_read_u64(ctx, Kva(off), "skb")?;
        let mut b = [0u8; 8];
        mem.cpu_read(ctx, Kva(off + 8), &mut b, "skb")?;
        Ok(Frag {
            page,
            offset: u32::from_le_bytes(b[0..4].try_into().expect("4 bytes")),
            size: u32::from_le_bytes(b[4..8].try_into().expect("4 bytes")),
        })
    }

    /// Writes `frags[idx]` (GRO and zero-copy TX do this — kernel
    /// pointers written to a device-visible page).
    pub fn set_frag(
        &self,
        ctx: &mut SimCtx,
        mem: &mut MemorySystem,
        idx: usize,
        f: Frag,
    ) -> Result<()> {
        debug_assert!(idx < MAX_FRAGS);
        let off = self.base.raw() + (SHINFO_FRAGS + idx * FRAG_SIZE) as u64;
        mem.cpu_write_u64(ctx, Kva(off), f.page, "skb")?;
        let mut b = [0u8; 8];
        b[0..4].copy_from_slice(&f.offset.to_le_bytes());
        b[4..8].copy_from_slice(&f.size.to_le_bytes());
        mem.cpu_write(ctx, Kva(off + 8), &b, "skb")
    }

    /// Reads all populated frags.
    pub fn frags(&self, ctx: &mut SimCtx, mem: &MemorySystem) -> Result<Vec<Frag>> {
        let n = self.nr_frags(ctx, mem)? as usize;
        (0..n.min(MAX_FRAGS))
            .map(|i| self.frag(ctx, mem, i))
            .collect()
    }
}

/// CPU-side view of a `ubuf_info` at `base`.
#[derive(Clone, Copy, Debug)]
pub struct UbufInfo {
    /// KVA of the structure.
    pub base: Kva,
}

impl UbufInfo {
    /// Writes the three fields (what `sock_zerocopy_alloc` does).
    pub fn write(
        &self,
        ctx: &mut SimCtx,
        mem: &mut MemorySystem,
        callback: u64,
        ctx_ptr: u64,
        desc: u64,
    ) -> Result<()> {
        mem.cpu_write_u64(
            ctx,
            Kva(self.base.raw() + UBUF_CALLBACK as u64),
            callback,
            "ubuf",
        )?;
        mem.cpu_write_u64(ctx, Kva(self.base.raw() + UBUF_CTX as u64), ctx_ptr, "ubuf")?;
        mem.cpu_write_u64(ctx, Kva(self.base.raw() + UBUF_DESC as u64), desc, "ubuf")
    }

    /// Reads the callback pointer.
    pub fn callback(&self, ctx: &mut SimCtx, mem: &MemorySystem) -> Result<u64> {
        mem.cpu_read_u64(ctx, Kva(self.base.raw() + UBUF_CALLBACK as u64), "ubuf")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_mem::MemConfig;

    fn mk() -> (SimCtx, MemorySystem, SharedInfo) {
        let mut ctx = SimCtx::new();
        let mut mem = MemorySystem::new(&MemConfig::default());
        let buf = mem.kmalloc(&mut ctx, 2048, "t").unwrap();
        let sh = SharedInfo {
            base: Kva(buf.raw() + 1728),
        };
        sh.init(&mut ctx, &mut mem).unwrap();
        (ctx, mem, sh)
    }

    #[test]
    fn layout_constants_are_consistent() {
        // Computed through locals so the relationships are checked as
        // data rather than folded away.
        let (frags, nfrags, fsz) = (SHINFO_FRAGS, MAX_FRAGS, FRAG_SIZE);
        assert_eq!(frags + nfrags * fsz, SHINFO_SIZE);
        let darg = SHINFO_DESTRUCTOR_ARG;
        assert!(darg + 8 <= frags);
        assert_eq!(UBUF_INFO_SIZE, 24);
    }

    #[test]
    fn init_zeroes_and_sets_dataref() {
        let (mut ctx, mem, sh) = mk();
        assert_eq!(sh.nr_frags(&mut ctx, &mem).unwrap(), 0);
        assert_eq!(sh.destructor_arg(&mut ctx, &mem).unwrap(), 0);
        let dataref = mem
            .cpu_read_u64(&mut ctx, Kva(sh.base.raw() + SHINFO_DATAREF as u64), "t")
            .unwrap() as u32;
        assert_eq!(dataref, 1);
    }

    #[test]
    fn frag_roundtrip() {
        let (mut ctx, mut mem, sh) = mk();
        let f = Frag {
            page: 0xffff_ea00_0000_1240,
            offset: 256,
            size: 1448,
        };
        sh.set_frag(&mut ctx, &mut mem, 0, f).unwrap();
        sh.set_nr_frags(&mut ctx, &mut mem, 1).unwrap();
        assert_eq!(sh.frag(&mut ctx, &mem, 0).unwrap(), f);
        assert_eq!(sh.frags(&mut ctx, &mem).unwrap(), vec![f]);
    }

    #[test]
    fn destructor_arg_roundtrip() {
        let (mut ctx, mut mem, sh) = mk();
        sh.set_destructor_arg(&mut ctx, &mut mem, 0xffff_8880_0bad_f00d)
            .unwrap();
        assert_eq!(
            sh.destructor_arg(&mut ctx, &mem).unwrap(),
            0xffff_8880_0bad_f00d
        );
    }

    #[test]
    fn ubuf_info_roundtrip() {
        let (mut ctx, mut mem, _sh) = mk();
        let b = mem.kmalloc(&mut ctx, UBUF_INFO_SIZE, "u").unwrap();
        let u = UbufInfo { base: b };
        u.write(&mut ctx, &mut mem, 0xffff_ffff_8123_0000, 0, 7)
            .unwrap();
        assert_eq!(u.callback(&mut ctx, &mem).unwrap(), 0xffff_ffff_8123_0000);
    }
}
