//! The simulated physical memory backing store.
//!
//! Frames are materialized lazily (zero-filled) on first touch and kept
//! in a sparse map, so a machine — and every clone of it — costs only
//! the frames it has touched; all reads and writes are bounds checked
//! against the configured physical size.

use dma_core::{DmaError, Pfn, PhysAddr, Result, PAGE_SIZE};
use std::collections::BTreeMap;

/// A lazily populated, sparse set of 4 KiB physical frames.
#[derive(Clone, Debug)]
pub struct PhysMemory {
    /// Materialized frames by frame number; absent frames read as zeros.
    /// Ordered, so anything that ever iterates it stays deterministic.
    frames: BTreeMap<u64, Box<[u8; PAGE_SIZE]>>,
    nframes: u64,
}

impl PhysMemory {
    /// Creates `bytes` of simulated physical memory (rounded down to a
    /// whole number of pages).
    pub fn new(bytes: u64) -> Self {
        PhysMemory {
            frames: BTreeMap::new(),
            nframes: bytes / PAGE_SIZE as u64,
        }
    }

    /// Total size in bytes.
    pub fn size(&self) -> u64 {
        self.nframes * PAGE_SIZE as u64
    }

    /// Number of frames actually materialized (touched at least once).
    pub fn resident_frames(&self) -> usize {
        self.frames.len()
    }

    fn frame_mut(&mut self, pfn: Pfn) -> Result<&mut [u8; PAGE_SIZE]> {
        if pfn.raw() >= self.nframes {
            return Err(DmaError::BadPfn(pfn.raw()));
        }
        Ok(self
            .frames
            .entry(pfn.raw())
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE])))
    }

    fn frame(&self, pfn: Pfn) -> Result<Option<&[u8; PAGE_SIZE]>> {
        if pfn.raw() >= self.nframes {
            return Err(DmaError::BadPfn(pfn.raw()));
        }
        Ok(self.frames.get(&pfn.raw()).map(|f| &**f))
    }

    /// Reads `buf.len()` bytes starting at `pa`; may cross frame
    /// boundaries. Untouched frames read as zeros.
    pub fn read(&self, pa: PhysAddr, buf: &mut [u8]) -> Result<()> {
        if pa
            .raw()
            .checked_add(buf.len() as u64)
            .is_none_or(|end| end > self.size())
        {
            return Err(DmaError::BadPhysAddr(pa.raw()));
        }
        let mut addr = pa.raw();
        let mut done = 0;
        while done < buf.len() {
            let pfn = PhysAddr(addr).pfn();
            let off = (addr as usize) % PAGE_SIZE;
            let n = (PAGE_SIZE - off).min(buf.len() - done);
            match self.frame(pfn)? {
                Some(frame) => buf[done..done + n].copy_from_slice(&frame[off..off + n]),
                None => buf[done..done + n].fill(0),
            }
            done += n;
            addr += n as u64;
        }
        Ok(())
    }

    /// Writes `buf` starting at `pa`; may cross frame boundaries.
    pub fn write(&mut self, pa: PhysAddr, buf: &[u8]) -> Result<()> {
        if pa
            .raw()
            .checked_add(buf.len() as u64)
            .is_none_or(|end| end > self.size())
        {
            return Err(DmaError::BadPhysAddr(pa.raw()));
        }
        let mut addr = pa.raw();
        let mut done = 0;
        while done < buf.len() {
            let pfn = PhysAddr(addr).pfn();
            let off = (addr as usize) % PAGE_SIZE;
            let n = (PAGE_SIZE - off).min(buf.len() - done);
            let frame = self.frame_mut(pfn)?;
            frame[off..off + n].copy_from_slice(&buf[done..done + n]);
            done += n;
            addr += n as u64;
        }
        Ok(())
    }

    /// Reads a little-endian u64 at `pa`.
    pub fn read_u64(&self, pa: PhysAddr) -> Result<u64> {
        let mut b = [0u8; 8];
        self.read(pa, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Writes a little-endian u64 at `pa`.
    pub fn write_u64(&mut self, pa: PhysAddr, v: u64) -> Result<()> {
        self.write(pa, &v.to_le_bytes())
    }

    /// Zero-fills `len` bytes at `pa`.
    pub fn zero(&mut self, pa: PhysAddr, len: usize) -> Result<()> {
        // Avoid a temp buffer for the common whole-page case.
        if pa.is_page_aligned() && len == PAGE_SIZE {
            self.frame_mut(pa.pfn())?.fill(0);
            return Ok(());
        }
        self.write(pa, &vec![0u8; len])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut m = PhysMemory::new(1 << 20);
        m.write(PhysAddr(0x1234), b"hello").unwrap();
        let mut buf = [0u8; 5];
        m.read(PhysAddr(0x1234), &mut buf).unwrap();
        assert_eq!(&buf, b"hello");
    }

    #[test]
    fn cross_page_access_works() {
        let mut m = PhysMemory::new(1 << 20);
        let pa = PhysAddr(PAGE_SIZE as u64 - 3);
        m.write(pa, b"abcdefgh").unwrap();
        let mut buf = [0u8; 8];
        m.read(pa, &mut buf).unwrap();
        assert_eq!(&buf, b"abcdefgh");
    }

    #[test]
    fn untouched_frames_read_zero() {
        let m = PhysMemory::new(1 << 20);
        let mut buf = [0xaa; 16];
        m.read(PhysAddr(0x8000), &mut buf).unwrap();
        assert_eq!(buf, [0; 16]);
        assert_eq!(m.resident_frames(), 0);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut m = PhysMemory::new(1 << 20);
        let end = m.size();
        assert!(m.write(PhysAddr(end - 2), b"abcd").is_err());
        let mut buf = [0u8; 4];
        assert!(m.read(PhysAddr(end), &mut buf).is_err());
        // Overflowing address must not wrap.
        assert!(m.read(PhysAddr(u64::MAX - 1), &mut buf).is_err());
    }

    #[test]
    fn u64_helpers() {
        let mut m = PhysMemory::new(1 << 20);
        m.write_u64(PhysAddr(0x100), 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(m.read_u64(PhysAddr(0x100)).unwrap(), 0xdead_beef_cafe_f00d);
    }

    #[test]
    fn zero_clears_page() {
        let mut m = PhysMemory::new(1 << 20);
        m.write(PhysAddr(0x2000), &[0xff; 64]).unwrap();
        m.zero(PhysAddr(0x2000), PAGE_SIZE).unwrap();
        assert_eq!(m.read_u64(PhysAddr(0x2000)).unwrap(), 0);
    }

    #[test]
    fn zero_of_a_whole_page_past_the_end_is_a_bad_pfn() {
        let mut m = PhysMemory::new(1 << 20);
        let end = m.size();
        assert_eq!(
            m.zero(PhysAddr(end), PAGE_SIZE),
            Err(DmaError::BadPfn(end / PAGE_SIZE as u64))
        );
        assert_eq!(m.resident_frames(), 0);
    }

    #[test]
    fn a_clone_and_its_original_do_not_see_each_others_writes() {
        let mut original = PhysMemory::new(1 << 20);
        original.write_u64(PhysAddr(0x3000), 1).unwrap();
        let mut clone = original.clone();
        clone.write_u64(PhysAddr(0x3000), 2).unwrap();
        clone.write_u64(PhysAddr(0x5000), 3).unwrap();
        original.write_u64(PhysAddr(0x3008), 4).unwrap();
        assert_eq!(original.read_u64(PhysAddr(0x3000)).unwrap(), 1);
        assert_eq!(original.read_u64(PhysAddr(0x5000)).unwrap(), 0);
        assert_eq!(clone.read_u64(PhysAddr(0x3000)).unwrap(), 2);
        assert_eq!(clone.read_u64(PhysAddr(0x3008)).unwrap(), 0);
        assert_eq!(clone.read_u64(PhysAddr(0x5000)).unwrap(), 3);
        assert_eq!(original.resident_frames(), 1);
        assert_eq!(clone.resident_frames(), 2);
    }
}
