//! The IOTLB: a cache of recent translations.
//!
//! The IOMMU does not keep the IOTLB coherent with the page tables; the
//! OS must invalidate explicitly (§5.2.1). In *deferred* mode, unmapped
//! translations linger here — marked stale for telemetry but served
//! exactly like live ones — until the periodic global flush.

use dma_core::trace::DeviceId;
use dma_core::{AccessRight, DetHashMap, Iova, Pfn};
use std::collections::VecDeque;

/// A cached translation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IotlbEntry {
    /// Cached target frame.
    pub pfn: Pfn,
    /// Cached rights.
    pub right: AccessRight,
    /// `true` once the OS unmapped the IOVA but the entry has not been
    /// invalidated yet (the deferred window).
    pub stale: bool,
}

/// The translation cache, shared by all domains (tagged by device).
#[derive(Clone, Debug)]
pub struct Iotlb {
    entries: DetHashMap<(DeviceId, u64), IotlbEntry>,
    /// The keys of `entries`, oldest insertion first (capacity eviction
    /// is FIFO).
    order: VecDeque<(DeviceId, u64)>,
    capacity: usize,
}

impl Iotlb {
    /// Creates a cache holding up to `capacity` translations.
    pub fn new(capacity: usize) -> Self {
        Iotlb {
            entries: DetHashMap::default(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    /// Looks up the translation for the page containing `iova`.
    pub fn lookup(&self, dev: DeviceId, iova: Iova) -> Option<IotlbEntry> {
        self.entries
            .get(&(dev, iova.page_align_down().raw()))
            .copied()
    }

    /// Inserts a translation after a successful page-table walk.
    pub fn fill(&mut self, dev: DeviceId, iova: Iova, pfn: Pfn, right: AccessRight) {
        let key = (dev, iova.page_align_down().raw());
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            if let Some(oldest) = self.order.pop_front() {
                self.entries.remove(&oldest);
            }
        }
        if self
            .entries
            .insert(
                key,
                IotlbEntry {
                    pfn,
                    right,
                    stale: false,
                },
            )
            .is_none()
        {
            self.order.push_back(key);
        }
    }

    /// Drops one translation immediately (strict-mode invalidation).
    ///
    /// Returns `true` if an entry was present.
    pub fn invalidate(&mut self, dev: DeviceId, iova: Iova) -> bool {
        let key = (dev, iova.page_align_down().raw());
        if self.entries.remove(&key).is_none() {
            return false;
        }
        // Strict mode invalidates what it just filled: search from the back.
        if let Some(i) = self.order.iter().rposition(|k| *k == key) {
            self.order.remove(i);
        }
        true
    }

    /// Marks a translation stale (deferred-mode unmap): the entry keeps
    /// serving accesses until the global flush.
    pub fn mark_stale(&mut self, dev: DeviceId, iova: Iova) {
        if let Some(e) = self.entries.get_mut(&(dev, iova.page_align_down().raw())) {
            e.stale = true;
        }
    }

    /// Drops everything (the periodic global flush). Returns how many
    /// stale entries were dropped.
    pub fn global_flush(&mut self) -> usize {
        let stale = self.entries.values().filter(|e| e.stale).count();
        self.entries.clear();
        self.order.clear();
        stale
    }

    /// Number of cached translations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of currently stale entries.
    pub fn stale_count(&self) -> usize {
        self.entries.values().filter(|e| e.stale).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_and_lookup_by_page() {
        let mut t = Iotlb::new(16);
        t.fill(1, Iova(0x12345), Pfn(9), AccessRight::Write);
        let e = t.lookup(1, Iova(0x12fff)).unwrap();
        assert_eq!(e.pfn, Pfn(9));
        assert!(!e.stale);
        assert!(t.lookup(2, Iova(0x12345)).is_none(), "tagged by device");
        assert!(t.lookup(1, Iova(0x13000)).is_none(), "different page");
    }

    #[test]
    fn invalidate_removes() {
        let mut t = Iotlb::new(16);
        t.fill(1, Iova(0x1000), Pfn(1), AccessRight::Read);
        assert!(t.invalidate(1, Iova(0x1000)));
        assert!(!t.invalidate(1, Iova(0x1000)));
        assert!(t.lookup(1, Iova(0x1000)).is_none());
    }

    #[test]
    fn stale_entries_survive_until_global_flush() {
        // Figure 6: after a deferred unmap the translation still answers.
        let mut t = Iotlb::new(16);
        t.fill(1, Iova(0x1000), Pfn(1), AccessRight::Write);
        t.mark_stale(1, Iova(0x1000));
        let e = t.lookup(1, Iova(0x1000)).unwrap();
        assert!(e.stale);
        assert_eq!(e.pfn, Pfn(1));
        assert_eq!(t.stale_count(), 1);
        assert_eq!(t.global_flush(), 1);
        assert!(t.lookup(1, Iova(0x1000)).is_none());
        assert!(t.is_empty());
    }

    #[test]
    fn capacity_eviction_is_fifo() {
        let mut t = Iotlb::new(2);
        t.fill(1, Iova(0x1000), Pfn(1), AccessRight::Read);
        t.fill(1, Iova(0x2000), Pfn(2), AccessRight::Read);
        t.fill(1, Iova(0x3000), Pfn(3), AccessRight::Read);
        assert!(t.lookup(1, Iova(0x1000)).is_none(), "oldest evicted");
        assert!(t.lookup(1, Iova(0x2000)).is_some());
        assert!(t.lookup(1, Iova(0x3000)).is_some());
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn a_refilled_entry_is_evicted_in_fifo_order() {
        let mut t = Iotlb::new(2);
        t.fill(1, Iova(0xa000), Pfn(1), AccessRight::Read);
        t.fill(1, Iova(0xb000), Pfn(2), AccessRight::Read);
        assert!(t.invalidate(1, Iova(0xa000)));
        t.fill(1, Iova(0xa000), Pfn(3), AccessRight::Read);
        t.fill(1, Iova(0xc000), Pfn(4), AccessRight::Read);
        assert!(t.lookup(1, Iova(0xb000)).is_none(), "B is the oldest entry");
        assert_eq!(t.lookup(1, Iova(0xa000)).map(|e| e.pfn), Some(Pfn(3)));
        assert!(t.lookup(1, Iova(0xc000)).is_some());

        // Strict-mode churn below capacity must not grow the FIFO.
        let mut t = Iotlb::new(4);
        for i in 0..1000u64 {
            let iova = Iova(0x10_0000 + (i % 7) * 0x1000);
            t.fill(1, iova, Pfn(i), AccessRight::Write);
            assert!(t.invalidate(1, iova));
            assert!(t.order.len() <= t.capacity, "cycle {i}");
        }
        assert!(t.is_empty());
        assert!(t.order.is_empty());
    }

    #[test]
    fn refill_updates_in_place() {
        let mut t = Iotlb::new(4);
        t.fill(1, Iova(0x1000), Pfn(1), AccessRight::Read);
        t.fill(1, Iova(0x1000), Pfn(2), AccessRight::Write);
        let e = t.lookup(1, Iova(0x1000)).unwrap();
        assert_eq!(e.pfn, Pfn(2));
        assert_eq!(e.right, AccessRight::Write);
        assert_eq!(t.len(), 1);
    }
}
