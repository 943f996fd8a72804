//! The causal provenance graph over trace [`Event`]s.
//!
//! D-KASAN tells you *that* a sub-page exposure happened; the graph
//! records *why*: each ingested event is linked to the earlier events
//! that causally enabled it — the mapping that exposed an allocation's
//! page, the allocation a mapping covered, the unmap whose stale IOTLB
//! entry a device write slipped through (§5.2.1), the slab/page reuse
//! that put an object on a hot frame, the deferred flush that finally
//! retired an unmap. Forensic timelines (crate `dkasan`) are rendered
//! by walking this graph backward from a finding's trigger event.
//!
//! Determinism: indexes are hash maps, but they are only ever *probed*
//! by key (never iterated), and all per-key lists are insertion-ordered
//! vectors, so identical event streams produce identical graphs.

use crate::addr::{PAGE_MASK, PAGE_SIZE};
use crate::dethash::DetHashMap;
use crate::trace::{DeviceId, Event};

/// Why a parent event is causally upstream of a child.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeKind {
    /// An allocation landed on a page a live DMA mapping already
    /// exposes (the alloc-after-map shape).
    ObjectOnMappedPage,
    /// A DMA mapping exposed a page holding this live allocation (the
    /// map-after-alloc / co-residency shape).
    MapCoversObject,
    /// A free (object or page) releases this earlier allocation.
    FreeOfAlloc,
    /// An unmap retires this earlier DMA mapping.
    UnmapOfMap,
    /// A CPU or device access went through this live DMA mapping.
    AccessViaMapping,
    /// A device access was served by a *stale* IOTLB translation left
    /// behind by this unmap (deferred-invalidation window, §5.2.1).
    StaleTranslation,
    /// An allocation reuses the address a recent free released
    /// (slab hot-object reuse).
    SlabReuse,
    /// A page allocation reuses a recently freed frame (buddy hot-page
    /// reuse — what makes RingFlood's PFN guess work).
    PageReuse,
    /// An IOTLB invalidation or global flush retired this pending
    /// unmap's translation, closing its stale window.
    FlushRetiresUnmap,
}

impl core::fmt::Display for EdgeKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            EdgeKind::ObjectOnMappedPage => "allocated on an already-mapped page",
            EdgeKind::MapCoversObject => "mapping exposes co-resident object",
            EdgeKind::FreeOfAlloc => "frees",
            EdgeKind::UnmapOfMap => "unmaps",
            EdgeKind::AccessViaMapping => "access via live mapping",
            EdgeKind::StaleTranslation => "served by stale IOTLB entry of",
            EdgeKind::SlabReuse => "reuses slab slot freed by",
            EdgeKind::PageReuse => "reuses page frame freed by",
            EdgeKind::FlushRetiresUnmap => "flush retires",
        })
    }
}

/// One causal edge: the parent event's index plus why it is upstream.
pub type Edge = (usize, EdgeKind);

fn kva_pages(kva: u64, len: usize) -> impl Iterator<Item = u64> {
    let start = kva & !PAGE_MASK;
    let n = crate::addr::pages_spanned((kva & PAGE_MASK) as usize, len.max(1));
    (0..n as u64).map(move |i| start + i * PAGE_SIZE as u64)
}

fn iova_pages(iova: u64, len: usize) -> impl Iterator<Item = u64> {
    kva_pages(iova, len)
}

/// The graph: every ingested event, its causal parent edges, and the
/// page-keyed indexes used to resolve them online.
#[derive(Debug, Default)]
pub struct ProvenanceGraph {
    events: Vec<Event>,
    parents: Vec<Vec<Edge>>,
    edges: usize,
    /// kva → index of the live allocation starting there.
    live_alloc_at: DetHashMap<u64, usize>,
    /// kva → index of the most recent free of that address.
    last_free_at: DetHashMap<u64, usize>,
    /// kva page → live allocation indexes on that page (insertion order).
    live_allocs_on_page: DetHashMap<u64, Vec<usize>>,
    /// (device, iova page) → index of the live mapping covering it.
    live_map_at: DetHashMap<(DeviceId, u64), usize>,
    /// (device, iova page) → index of the last unmap that covered it.
    last_unmap_at: DetHashMap<(DeviceId, u64), usize>,
    /// kva page → live mapping indexes exposing that page.
    live_maps_on_page: DetHashMap<u64, Vec<usize>>,
    /// Unmaps whose IOTLB translation has not been invalidated yet.
    pending_unmaps: Vec<usize>,
    /// pfn → index of the live page allocation providing that frame.
    live_page_at: DetHashMap<u64, usize>,
    /// pfn → index of the most recent page free of that frame.
    last_page_free_at: DetHashMap<u64, usize>,
    /// kva page → every event index that touched that page.
    touched: DetHashMap<u64, Vec<usize>>,
}

impl ProvenanceGraph {
    /// An empty graph.
    pub fn new() -> Self {
        ProvenanceGraph::default()
    }

    /// Number of ingested events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing has been ingested.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total number of causal edges resolved so far.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// The ingested event at `idx`.
    pub fn event(&self, idx: usize) -> &Event {
        &self.events[idx]
    }

    /// All ingested events, in ingestion (chronological) order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Direct causal parents of the event at `idx`.
    pub fn parents(&self, idx: usize) -> &[Edge] {
        &self.parents[idx]
    }

    /// Every event index that touched the (kva) page containing `kva`,
    /// in chronological order. Device accesses are resolved through
    /// their mapping so they appear on the page they actually hit.
    pub fn events_touching_page(&self, kva: u64) -> &[usize] {
        self.touched
            .get(&(kva & !PAGE_MASK))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Full causal ancestry of `idx`: breadth-first over parent edges,
    /// first-discovery order, each ancestor tagged with the edge kind
    /// through which it was first reached. `idx` itself is excluded.
    pub fn ancestry(&self, idx: usize) -> Vec<Edge> {
        let mut seen = vec![false; self.events.len()];
        seen[idx] = true;
        let mut queue = std::collections::VecDeque::from([idx]);
        let mut out = Vec::new();
        while let Some(cur) = queue.pop_front() {
            for &(p, kind) in &self.parents[cur] {
                if !seen[p] {
                    seen[p] = true;
                    out.push((p, kind));
                    queue.push_back(p);
                }
            }
        }
        out
    }

    fn touch(&mut self, kva: u64, idx: usize) {
        self.touched.entry(kva & !PAGE_MASK).or_default().push(idx);
    }

    fn link(&mut self, child: usize, parent: usize, kind: EdgeKind) {
        self.parents[child].push((parent, kind));
        self.edges += 1;
    }

    /// Ingests every event of a drained trace, in order.
    pub fn ingest_all<I: IntoIterator<Item = Event>>(&mut self, evs: I) {
        for ev in evs {
            self.ingest(ev);
        }
    }

    /// Ingests one event, resolving its causal parents against the live
    /// indexes. Returns the event's index in the graph.
    pub fn ingest(&mut self, ev: Event) -> usize {
        let idx = self.events.len();
        self.parents.push(Vec::new());
        match ev {
            Event::Alloc { kva, size, .. } => {
                if let Some(&free) = self.last_free_at.get(&kva.raw()) {
                    self.link(idx, free, EdgeKind::SlabReuse);
                }
                for page in kva_pages(kva.raw(), size) {
                    let maps = self
                        .live_maps_on_page
                        .get(&page)
                        .cloned()
                        .unwrap_or_default();
                    for m in maps {
                        self.link(idx, m, EdgeKind::ObjectOnMappedPage);
                    }
                    self.live_allocs_on_page.entry(page).or_default().push(idx);
                    self.touch(page, idx);
                }
                self.live_alloc_at.insert(kva.raw(), idx);
            }
            Event::Free { kva, .. } => {
                if let Some(alloc) = self.live_alloc_at.remove(&kva.raw()) {
                    self.link(idx, alloc, EdgeKind::FreeOfAlloc);
                    let size = match self.events[alloc] {
                        Event::Alloc { size, .. } => size,
                        _ => 1,
                    };
                    for page in kva_pages(kva.raw(), size) {
                        if let Some(v) = self.live_allocs_on_page.get_mut(&page) {
                            v.retain(|&i| i != alloc);
                        }
                        self.touch(page, idx);
                    }
                } else {
                    self.touch(kva.raw(), idx);
                }
                self.last_free_at.insert(kva.raw(), idx);
            }
            Event::PageAlloc { pfn, order, .. } => {
                if let Some(&free) = self.last_page_free_at.get(&pfn.raw()) {
                    self.link(idx, free, EdgeKind::PageReuse);
                }
                for f in 0..(1u64 << order) {
                    self.live_page_at.insert(pfn.raw() + f, idx);
                }
            }
            Event::PageFree { pfn, order, .. } => {
                if let Some(&alloc) = self.live_page_at.get(&pfn.raw()) {
                    self.link(idx, alloc, EdgeKind::FreeOfAlloc);
                }
                for f in 0..(1u64 << order) {
                    self.live_page_at.remove(&(pfn.raw() + f));
                    self.last_page_free_at.insert(pfn.raw() + f, idx);
                }
            }
            Event::DmaMap {
                device,
                iova,
                kva,
                len,
                ..
            } => {
                for page in kva_pages(kva.raw(), len) {
                    let allocs = self
                        .live_allocs_on_page
                        .get(&page)
                        .cloned()
                        .unwrap_or_default();
                    for a in allocs {
                        self.link(idx, a, EdgeKind::MapCoversObject);
                    }
                    self.live_maps_on_page.entry(page).or_default().push(idx);
                    self.touch(page, idx);
                }
                for page in iova_pages(iova.raw(), len) {
                    self.live_map_at.insert((device, page), idx);
                }
            }
            Event::DmaUnmap {
                device, iova, len, ..
            } => {
                let mut map = None;
                for page in iova_pages(iova.raw(), len) {
                    if let Some(m) = self.live_map_at.remove(&(device, page)) {
                        map = Some(m);
                    }
                    self.last_unmap_at.insert((device, page), idx);
                }
                if let Some(m) = map {
                    self.link(idx, m, EdgeKind::UnmapOfMap);
                    if let Event::DmaMap { kva, len, .. } = self.events[m] {
                        for page in kva_pages(kva.raw(), len) {
                            if let Some(v) = self.live_maps_on_page.get_mut(&page) {
                                v.retain(|&i| i != m);
                            }
                            self.touch(page, idx);
                        }
                    }
                }
                self.pending_unmaps.push(idx);
            }
            Event::CpuAccess { kva, .. } => {
                let page = kva.raw() & !PAGE_MASK;
                if let Some(maps) = self.live_maps_on_page.get(&page) {
                    if let Some(&m) = maps.last() {
                        self.link(idx, m, EdgeKind::AccessViaMapping);
                    }
                }
                self.touch(page, idx);
            }
            Event::DevAccess {
                device,
                iova,
                stale,
                ..
            } => {
                let page = iova.raw() & !PAGE_MASK;
                let mut resolved = None;
                if let Some(&m) = self.live_map_at.get(&(device, page)) {
                    self.link(idx, m, EdgeKind::AccessViaMapping);
                    resolved = Some(m);
                }
                if stale || resolved.is_none() {
                    if let Some(&u) = self.last_unmap_at.get(&(device, page)) {
                        self.link(idx, u, EdgeKind::StaleTranslation);
                        if resolved.is_none() {
                            if let Some(&(m, _)) = self.parents[u]
                                .iter()
                                .find(|&&(_, k)| k == EdgeKind::UnmapOfMap)
                            {
                                resolved = Some(m);
                            }
                        }
                    }
                }
                // Land the access on the kva page the translation (live
                // or stale) pointed at, so per-page timelines see it.
                if let Some(m) = resolved {
                    if let Event::DmaMap { kva, .. } = self.events[m] {
                        let off = iova.raw() & PAGE_MASK;
                        self.touch((kva.raw() & !PAGE_MASK) | off, idx);
                    }
                }
            }
            Event::IotlbInvalidate {
                device, iova_page, ..
            } => {
                let key = (device, iova_page.raw() & !PAGE_MASK);
                let mut retired = Vec::new();
                self.pending_unmaps.retain(|&u| {
                    let hit = matches!(
                        self.events[u],
                        Event::DmaUnmap { device: d, iova, .. }
                            if d == key.0 && iova.raw() & !PAGE_MASK == key.1
                    );
                    if hit {
                        retired.push(u);
                    }
                    !hit
                });
                for u in retired {
                    self.link(idx, u, EdgeKind::FlushRetiresUnmap);
                }
            }
            Event::IotlbGlobalFlush { .. } => {
                for u in core::mem::take(&mut self.pending_unmaps) {
                    self.link(idx, u, EdgeKind::FlushRetiresUnmap);
                }
            }
            Event::FaultInjected { .. } => {}
        }
        self.events.push(ev);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vuln::DmaDirection;
    use crate::{Iova, Kva, Pfn};

    const PAGE: u64 = 0xffff_8880_0010_0000;

    fn alloc(at: u64, kva: u64, size: usize) -> Event {
        Event::Alloc {
            at,
            kva: Kva(kva),
            size,
            site: "t_alloc",
            cache: "kmalloc-512",
        }
    }

    fn map(at: u64, iova: u64, kva: u64, len: usize) -> Event {
        Event::DmaMap {
            at,
            device: 1,
            iova: Iova(iova),
            kva: Kva(kva),
            len,
            dir: DmaDirection::FromDevice,
            site: "t_map",
        }
    }

    #[test]
    fn alloc_map_access_chain_resolves() {
        let mut g = ProvenanceGraph::new();
        let a = g.ingest(alloc(10, PAGE, 512));
        let b = g.ingest(alloc(11, PAGE + 512, 512));
        let m = g.ingest(map(20, 0xf000, PAGE, 256));
        let d = g.ingest(Event::DevAccess {
            at: 30,
            device: 1,
            iova: Iova(0xf040),
            len: 8,
            write: true,
            allowed: true,
            stale: false,
        });
        // The map co-resides with BOTH allocations on the page.
        let map_parents: Vec<_> = g.parents(m).to_vec();
        assert!(map_parents.contains(&(a, EdgeKind::MapCoversObject)));
        assert!(map_parents.contains(&(b, EdgeKind::MapCoversObject)));
        assert_eq!(g.parents(d), &[(m, EdgeKind::AccessViaMapping)]);
        // Ancestry of the device access reaches both allocations.
        let anc = g.ancestry(d);
        assert!(anc.iter().any(|&(i, _)| i == a));
        assert!(anc.iter().any(|&(i, _)| i == b));
        // The device write lands on the page timeline.
        assert!(g.events_touching_page(PAGE).contains(&d));
    }

    #[test]
    fn alloc_after_map_gets_the_exposure_edge() {
        let mut g = ProvenanceGraph::new();
        let m = g.ingest(map(5, 0xf000, PAGE, 2048));
        let a = g.ingest(alloc(9, PAGE + 2048, 512));
        assert_eq!(g.parents(a), &[(m, EdgeKind::ObjectOnMappedPage)]);
    }

    #[test]
    fn slab_and_page_reuse_edges() {
        let mut g = ProvenanceGraph::new();
        let a = g.ingest(alloc(1, PAGE, 512));
        let f = g.ingest(Event::Free {
            at: 2,
            kva: Kva(PAGE),
        });
        let b = g.ingest(alloc(3, PAGE, 512));
        assert_eq!(g.parents(f), &[(a, EdgeKind::FreeOfAlloc)]);
        assert_eq!(g.parents(b), &[(f, EdgeKind::SlabReuse)]);

        let pa = g.ingest(Event::PageAlloc {
            at: 4,
            pfn: Pfn(0x100),
            order: 0,
            site: "t_page",
        });
        let pf = g.ingest(Event::PageFree {
            at: 5,
            pfn: Pfn(0x100),
            order: 0,
        });
        let pb = g.ingest(Event::PageAlloc {
            at: 6,
            pfn: Pfn(0x100),
            order: 0,
            site: "t_page",
        });
        assert_eq!(g.parents(pf), &[(pa, EdgeKind::FreeOfAlloc)]);
        assert_eq!(g.parents(pb), &[(pf, EdgeKind::PageReuse)]);
    }

    #[test]
    fn stale_access_points_at_the_unmap_and_flush_retires_it() {
        let mut g = ProvenanceGraph::new();
        let m = g.ingest(map(1, 0xf000, PAGE, 256));
        let u = g.ingest(Event::DmaUnmap {
            at: 2,
            device: 1,
            iova: Iova(0xf000),
            len: 256,
        });
        let s = g.ingest(Event::DevAccess {
            at: 3,
            device: 1,
            iova: Iova(0xf010),
            len: 8,
            write: true,
            allowed: true,
            stale: true,
        });
        let fl = g.ingest(Event::IotlbGlobalFlush { at: 9, dropped: 1 });
        assert_eq!(g.parents(u), &[(m, EdgeKind::UnmapOfMap)]);
        assert_eq!(g.parents(s), &[(u, EdgeKind::StaleTranslation)]);
        assert_eq!(g.parents(fl), &[(u, EdgeKind::FlushRetiresUnmap)]);
        // The stale write still lands on the (stale) kva page timeline.
        assert!(g.events_touching_page(PAGE).contains(&s));
    }

    #[test]
    fn strict_invalidate_retires_only_its_page() {
        let mut g = ProvenanceGraph::new();
        g.ingest(map(1, 0xf000, PAGE, 256));
        let u1 = g.ingest(Event::DmaUnmap {
            at: 2,
            device: 1,
            iova: Iova(0xf000),
            len: 256,
        });
        g.ingest(map(3, 0x1f000, PAGE + 0x1000, 256));
        let u2 = g.ingest(Event::DmaUnmap {
            at: 4,
            device: 1,
            iova: Iova(0x1f000),
            len: 256,
        });
        let inv = g.ingest(Event::IotlbInvalidate {
            at: 5,
            device: 1,
            iova_page: Iova(0xf000),
        });
        assert_eq!(g.parents(inv), &[(u1, EdgeKind::FlushRetiresUnmap)]);
        let fl = g.ingest(Event::IotlbGlobalFlush { at: 9, dropped: 1 });
        assert_eq!(g.parents(fl), &[(u2, EdgeKind::FlushRetiresUnmap)]);
    }

    #[test]
    fn identical_streams_build_identical_graphs() {
        let build = || {
            let mut g = ProvenanceGraph::new();
            for i in 0..32u64 {
                g.ingest(alloc(i, PAGE + (i % 7) * 512, 256));
                if i % 3 == 0 {
                    g.ingest(map(i, 0xf000 + i * 0x1000, PAGE + (i % 7) * 512, 128));
                }
            }
            let anc: Vec<_> = (0..g.len()).map(|i| g.ancestry(i)).collect();
            (g.edge_count(), anc)
        };
        assert_eq!(build(), build());
    }
}
