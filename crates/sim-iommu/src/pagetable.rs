//! A 4-level radix I/O page table, structurally like VT-d second-level
//! translation: 9 bits per level, 4 KiB leaves, per-leaf access rights.
//!
//! Table nodes are shared copy-on-write: a cloned table aliases every
//! node of the original until one side maps or unmaps beneath it. A
//! node holds only its populated slots, sorted by slot index, so the
//! first write under a shared node copies those slots (one or two above
//! the leaf level), not all 512.

use dma_core::{AccessRight, DmaError, Iova, Pfn, Result, PAGE_SHIFT};
use std::sync::Arc;

const LEVEL_BITS: u32 = 9;
/// Slots per table node.
const FANOUT: u64 = 1 << LEVEL_BITS;
/// Number of translation levels (48-bit IOVA space).
pub const LEVELS: u32 = 4;

/// A leaf translation: frame plus rights.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IoPte {
    /// Target frame.
    pub pfn: Pfn,
    /// Rights recorded for the mapping.
    pub right: AccessRight,
}

#[derive(Clone)]
enum Node {
    /// The populated slots, sorted by slot index.
    Table(Arc<Vec<(u16, Node)>>),
    Leaf(IoPte),
}

impl Node {
    fn new_table() -> Node {
        Node::Table(Arc::default())
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Node::Table(_) => write!(f, "Table"),
            Node::Leaf(pte) => write!(f, "Leaf({pte:?})"),
        }
    }
}

/// The page table of one IOMMU domain.
#[derive(Clone, Debug, Default)]
pub struct IoPageTable {
    root: Option<Node>,
    mapped_pages: usize,
}

fn index(iova: Iova, level: u32) -> u16 {
    ((iova.raw() >> (PAGE_SHIFT + LEVEL_BITS * level)) & (FANOUT - 1)) as u16
}

/// Position of slot `idx` in a node's sorted slots: `Ok` if populated,
/// `Err` with the insertion point if not.
fn find(slots: &[(u16, Node)], idx: u16) -> std::result::Result<usize, usize> {
    slots.binary_search_by_key(&idx, |&(i, _)| i)
}

impl IoPageTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        IoPageTable::default()
    }

    /// Number of currently mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.mapped_pages
    }

    /// Installs a translation for the page containing `iova`, unsharing
    /// each node on the way down.
    ///
    /// Fails with [`DmaError::AlreadyMapped`] if the page already has one
    /// (Linux never silently overwrites a live IOVA mapping).
    pub fn map(&mut self, iova: Iova, pfn: Pfn, right: AccessRight) -> Result<()> {
        let iova = iova.page_align_down();
        let mut node = self.root.get_or_insert_with(Node::new_table);
        for level in (1..LEVELS).rev() {
            let idx = index(iova, level);
            let Node::Table(slots) = node else {
                return Err(DmaError::Invariant("leaf at interior level"));
            };
            let slots = Arc::make_mut(slots);
            let pos = find(slots, idx).unwrap_or_else(|pos| {
                slots.insert(pos, (idx, Node::new_table()));
                pos
            });
            node = &mut slots[pos].1;
        }
        let Node::Table(slots) = node else {
            return Err(DmaError::Invariant("leaf at interior level"));
        };
        let idx = index(iova, 0);
        let Err(pos) = find(slots, idx) else {
            return Err(DmaError::AlreadyMapped(iova.raw()));
        };
        Arc::make_mut(slots).insert(pos, (idx, Node::Leaf(IoPte { pfn, right })));
        self.mapped_pages += 1;
        Ok(())
    }

    /// Removes the translation for the page containing `iova`, returning
    /// the old entry; unshares each node on the way down. Interior
    /// tables stay in place even when they empty.
    pub fn unmap(&mut self, iova: Iova) -> Result<IoPte> {
        let iova = iova.page_align_down();
        let not_mapped = || DmaError::NotMapped(iova.raw());
        let mut node = self.root.as_mut().ok_or_else(not_mapped)?;
        for level in (1..LEVELS).rev() {
            let Node::Table(slots) = node else {
                return Err(DmaError::Invariant("leaf at interior level"));
            };
            let pos = find(slots, index(iova, level)).map_err(|_| not_mapped())?;
            node = &mut Arc::make_mut(slots)[pos].1;
        }
        let Node::Table(slots) = node else {
            return Err(DmaError::Invariant("leaf at interior level"));
        };
        let pos = find(slots, index(iova, 0)).map_err(|_| not_mapped())?;
        let Node::Leaf(pte) = slots[pos].1 else {
            return Err(DmaError::Invariant("table at leaf level"));
        };
        Arc::make_mut(slots).remove(pos);
        self.mapped_pages -= 1;
        Ok(pte)
    }

    /// Walks the table for the page containing `iova`.
    pub fn walk(&self, iova: Iova) -> Option<IoPte> {
        let iova = iova.page_align_down();
        let mut node = self.root.as_ref()?;
        for level in (0..LEVELS).rev() {
            let Node::Table(slots) = node else {
                return None;
            };
            node = &slots[find(slots, index(iova, level)).ok()?].1;
        }
        match node {
            Node::Leaf(pte) => Some(*pte),
            Node::Table(_) => None,
        }
    }

    /// Returns every live translation targeting `pfn` (used by tests and
    /// D-KASAN's multiple-map detection), in IOVA order.
    pub fn iovas_of(&self, pfn: Pfn) -> Vec<(Iova, AccessRight)> {
        let mut out = Vec::new();
        if let Some(root) = &self.root {
            Self::collect(root, 0, LEVELS - 1, pfn, &mut out);
        }
        out
    }

    fn collect(node: &Node, prefix: u64, level: u32, pfn: Pfn, out: &mut Vec<(Iova, AccessRight)>) {
        match node {
            Node::Leaf(pte) => {
                if pte.pfn == pfn {
                    out.push((Iova(prefix), pte.right));
                }
            }
            Node::Table(slots) => {
                for (i, child) in slots.iter() {
                    let child_prefix =
                        prefix | (u64::from(*i) << (PAGE_SHIFT + LEVEL_BITS * level));
                    Self::collect(child, child_prefix, level.saturating_sub(1), pfn, out);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dma_core::PAGE_SIZE;

    #[test]
    fn map_walk_unmap_roundtrip() {
        let mut pt = IoPageTable::new();
        let iova = Iova(0xffee_d000);
        pt.map(iova, Pfn(0x42), AccessRight::Write).unwrap();
        assert_eq!(pt.mapped_pages(), 1);
        let pte = pt.walk(Iova(0xffee_d123)).unwrap();
        assert_eq!(pte.pfn, Pfn(0x42));
        assert_eq!(pte.right, AccessRight::Write);
        let old = pt.unmap(iova).unwrap();
        assert_eq!(old.pfn, Pfn(0x42));
        assert_eq!(pt.mapped_pages(), 0);
        assert!(pt.walk(iova).is_none());
    }

    #[test]
    fn double_map_rejected() {
        let mut pt = IoPageTable::new();
        pt.map(Iova(0x1000), Pfn(1), AccessRight::Read).unwrap();
        assert_eq!(
            pt.map(Iova(0x1fff), Pfn(2), AccessRight::Read),
            Err(DmaError::AlreadyMapped(0x1000))
        );
    }

    #[test]
    fn unmap_missing_rejected() {
        let mut pt = IoPageTable::new();
        assert_eq!(pt.unmap(Iova(0x5000)), Err(DmaError::NotMapped(0x5000)));
        pt.map(Iova(0x5000), Pfn(1), AccessRight::Read).unwrap();
        pt.unmap(Iova(0x5000)).unwrap();
        assert_eq!(pt.unmap(Iova(0x5000)), Err(DmaError::NotMapped(0x5000)));
    }

    #[test]
    fn distinct_pages_do_not_collide() {
        let mut pt = IoPageTable::new();
        // Spread across all 4 levels' index bits.
        let iovas = [
            0x0000_0000_0000_1000u64,
            0x0000_0000_0020_1000,
            0x0000_0000_4000_1000,
            0x0000_7f00_0000_1000,
            0x0000_7fff_ffff_f000,
        ];
        for (i, &v) in iovas.iter().enumerate() {
            pt.map(Iova(v), Pfn(i as u64 + 1), AccessRight::Bidirectional)
                .unwrap();
        }
        for (i, &v) in iovas.iter().enumerate() {
            assert_eq!(
                pt.walk(Iova(v)).unwrap().pfn,
                Pfn(i as u64 + 1),
                "iova {v:#x}"
            );
        }
    }

    #[test]
    fn multiple_iovas_can_target_one_pfn() {
        // The type (c) situation: two live IOVAs naming one frame.
        let mut pt = IoPageTable::new();
        pt.map(Iova(0x10000), Pfn(7), AccessRight::Write).unwrap();
        pt.map(Iova(0x20000), Pfn(7), AccessRight::Write).unwrap();
        let mut aliases = pt.iovas_of(Pfn(7));
        aliases.sort();
        assert_eq!(
            aliases,
            vec![
                (Iova(0x10000), AccessRight::Write),
                (Iova(0x20000), AccessRight::Write)
            ]
        );
        // Unmapping one leaves the other usable.
        pt.unmap(Iova(0x10000)).unwrap();
        assert!(pt.walk(Iova(0x20000)).is_some());
    }

    #[test]
    fn adjacent_pages_are_independent() {
        let mut pt = IoPageTable::new();
        pt.map(Iova(0x3000), Pfn(3), AccessRight::Read).unwrap();
        assert!(pt.walk(Iova(0x3000 - PAGE_SIZE as u64)).is_none());
        assert!(pt.walk(Iova(0x3000 + PAGE_SIZE as u64)).is_none());
    }
}
