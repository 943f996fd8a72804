//! Shadow state: the event-stream replay engine.
//!
//! KASAN proper uses shadow bytes filled in by compiler instrumentation;
//! here the simulators emit explicit events, and the shadow is rebuilt
//! by replaying them in order. The state tracked per page mirrors what
//! D-KASAN records: live objects (with allocation site and size) and
//! live DMA mappings (with device, rights, and mapping site).

use crate::report::{DKasanFinding, FindingKind};
use dma_core::metrics::{Histogram, Metrics};
use dma_core::trace::DeviceId;
use dma_core::vuln::AccessRight;
use dma_core::{DetHashMap, DetHashSet, Event, Kva, PAGE_SIZE};

/// Replay-cost counters: what D-KASAN's shadow maintenance costs, in
/// shadow-entry touches. The replay engine has no `SimCtx`, so these
/// accumulate internally and are published into a [`Metrics`] registry
/// afterwards via [`DKasan::publish_metrics`].
#[derive(Clone, Debug, Default)]
pub struct DKasanStats {
    /// Events replayed.
    pub events: u64,
    /// Page-shadow entries mutated across all replayed events.
    pub shadow_updates: u64,
    /// Shadow entries mutated per event (the per-event cost profile).
    pub touches_per_event: Histogram,
}

#[derive(Clone, Debug)]
struct LiveObject {
    kva: Kva,
    size: usize,
    site: &'static str,
}

#[derive(Clone, Debug)]
struct LiveMapping {
    device: DeviceId,
    iova: u64,
    right: AccessRight,
    site: &'static str,
}

#[derive(Clone, Debug, Default)]
struct PageShadow {
    objects: Vec<LiveObject>,
    mappings: Vec<LiveMapping>,
}

/// The D-KASAN replay engine.
///
/// # Examples
///
/// ```
/// use dkasan::{DKasan, FindingKind};
/// use dma_core::{Event, Iova, Kva, vuln::DmaDirection};
///
/// let mut dk = DKasan::new();
/// dk.process(&[
///     Event::DmaMap { at: 0, device: 1, iova: Iova(0xf0001000),
///                     kva: Kva(0xffff_8880_0010_0000), len: 2048,
///                     dir: DmaDirection::FromDevice, site: "nic_rx_map" },
///     Event::Alloc { at: 1, kva: Kva(0xffff_8880_0010_0800), size: 512,
///                    site: "load_elf_phdrs", cache: "kmalloc-512" },
/// ]);
/// assert_eq!(dk.findings_of(FindingKind::AllocAfterMap).len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct DKasan {
    pages: DetHashMap<u64, PageShadow>,
    /// Object index for O(1) free handling: KVA → (page keys, size).
    objects: DetHashMap<u64, (Vec<u64>, usize)>,
    /// Mapping index: (device, iova page) → page keys.
    mappings: DetHashMap<(DeviceId, u64), Vec<u64>>,
    findings: Vec<DKasanFinding>,
    /// Suppress duplicate (kind, site) reports, like the real tool's
    /// once-per-site reporting.
    seen: DetHashSet<(FindingKind, &'static str)>,
    /// Report every occurrence instead of once per (kind, site).
    pub report_all: bool,
    /// Injected-fault census: site tag → count. Fault-injection runs
    /// replay streams in which some Alloc/DmaMap events are *missing*
    /// (the operation failed); tracking the injections keeps the report
    /// explainable instead of silently dropping the events.
    faults: std::collections::BTreeMap<&'static str, u64>,
    /// Replay-cost counters (see [`DKasanStats`]).
    stats: DKasanStats,
}

fn pages_of(kva: Kva, len: usize) -> Vec<u64> {
    let first = kva.page_align_down().raw();
    let last = Kva(kva.raw() + len.max(1) as u64 - 1)
        .page_align_down()
        .raw();
    (0..=(last - first) / PAGE_SIZE as u64)
        .map(|i| first + i * PAGE_SIZE as u64)
        .collect()
}

impl DKasan {
    /// Creates an empty shadow.
    pub fn new() -> Self {
        DKasan::default()
    }

    /// Replays a batch of events.
    pub fn process(&mut self, events: &[Event]) {
        for ev in events {
            self.step(ev);
        }
    }

    /// Collected findings so far.
    pub fn findings(&self) -> &[DKasanFinding] {
        &self.findings
    }

    /// Findings of one kind.
    pub fn findings_of(&self, kind: FindingKind) -> Vec<&DKasanFinding> {
        self.findings.iter().filter(|f| f.kind == kind).collect()
    }

    fn emit(&mut self, f: DKasanFinding) {
        if self.report_all || self.seen.insert((f.kind, f.site)) {
            self.findings.push(f);
        }
    }

    fn step(&mut self, ev: &Event) {
        self.stats.events += 1;
        let before = self.stats.shadow_updates;
        self.dispatch(ev);
        self.stats
            .touches_per_event
            .observe(self.stats.shadow_updates - before);
    }

    fn dispatch(&mut self, ev: &Event) {
        match ev {
            Event::Alloc {
                at,
                kva,
                size,
                site,
                ..
            } => self.on_alloc(*at, *kva, *size, site),
            Event::Free { kva, .. } => self.on_free(*kva),
            Event::DmaMap {
                at,
                device,
                iova,
                kva,
                len,
                dir,
                site,
            } => self.on_map(
                *at,
                *device,
                iova.raw(),
                *kva,
                *len,
                dir.access_right(),
                site,
            ),
            Event::DmaUnmap { device, iova, .. } => self.on_unmap(*device, iova.raw()),
            Event::CpuAccess {
                at,
                kva,
                len,
                write,
                site,
            } => self.on_cpu_access(*at, *kva, *len, *write, site),
            // Injected faults mean the corresponding Alloc/DmaMap never
            // happened — the shadow must NOT invent state for them, only
            // record the injection so reports stay explainable.
            Event::FaultInjected { site, .. } => {
                *self.faults.entry(site).or_insert(0) += 1;
            }
            _ => {}
        }
    }

    /// Injected faults seen in the replayed stream, per site tag, in
    /// deterministic (sorted) order.
    pub fn injected_faults(&self) -> &std::collections::BTreeMap<&'static str, u64> {
        &self.faults
    }

    fn on_alloc(&mut self, at: u64, kva: Kva, size: usize, site: &'static str) {
        let keys = pages_of(kva, size);
        // Class 1: alloc-after-map.
        let mapped_rights: Vec<AccessRight> = keys
            .iter()
            .filter_map(|k| self.pages.get(k))
            .flat_map(|p| p.mappings.iter().map(|m| m.right))
            .collect();
        if let Some(merged) = merge_rights(&mapped_rights) {
            self.emit(DKasanFinding {
                kind: FindingKind::AllocAfterMap,
                size,
                rights: merged,
                site,
                page: kva.page_align_down().raw(),
                at,
            });
        }
        self.stats.shadow_updates += keys.len() as u64;
        for k in &keys {
            self.pages
                .entry(*k)
                .or_default()
                .objects
                .push(LiveObject { kva, size, site });
        }
        self.objects.insert(kva.raw(), (keys, size));
    }

    fn on_free(&mut self, kva: Kva) {
        if let Some((keys, _)) = self.objects.remove(&kva.raw()) {
            self.stats.shadow_updates += keys.len() as u64;
            for k in keys {
                if let Some(p) = self.pages.get_mut(&k) {
                    p.objects.retain(|o| o.kva != kva);
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_map(
        &mut self,
        at: u64,
        device: DeviceId,
        iova: u64,
        kva: Kva,
        len: usize,
        right: AccessRight,
        site: &'static str,
    ) {
        let keys = pages_of(kva, len);
        self.stats.shadow_updates += keys.len() as u64;
        for k in &keys {
            let page = self.pages.entry(*k).or_default();
            // Class 4: multiple-map (possibly different permissions).
            let prev = merge_rights(&page.mappings.iter().map(|m| m.right).collect::<Vec<_>>());
            // Class 2: map-after-alloc — report each live co-located
            // object whose page just became device-visible.
            let co_located: Vec<(usize, &'static str)> = page
                .objects
                .iter()
                .filter(|o| o.kva != kva)
                .map(|o| (o.size, o.site))
                .collect();
            page.mappings.push(LiveMapping {
                device,
                iova,
                right,
                site,
            });
            if let Some(prev) = prev {
                self.emit(DKasanFinding {
                    kind: FindingKind::MultipleMap,
                    size: len,
                    rights: prev.union(right),
                    site,
                    page: *k,
                    at,
                });
            }
            for (osize, osite) in co_located {
                self.emit(DKasanFinding {
                    kind: FindingKind::MapAfterAlloc,
                    size: osize,
                    rights: right,
                    site: osite,
                    page: *k,
                    at,
                });
            }
        }
        self.mappings
            .insert((device, iova & !(PAGE_SIZE as u64 - 1)), keys);
    }

    fn on_unmap(&mut self, device: DeviceId, iova: u64) {
        if let Some(keys) = self
            .mappings
            .remove(&(device, iova & !(PAGE_SIZE as u64 - 1)))
        {
            self.stats.shadow_updates += keys.len() as u64;
            for k in keys {
                if let Some(p) = self.pages.get_mut(&k) {
                    if let Some(pos) = p
                        .mappings
                        .iter()
                        .position(|m| m.device == device && m.iova == iova)
                    {
                        p.mappings.swap_remove(pos);
                    }
                }
            }
        }
    }

    fn on_cpu_access(&mut self, at: u64, kva: Kva, len: usize, _write: bool, site: &'static str) {
        // Class 3: access-after-map.
        let rights: Vec<AccessRight> = pages_of(kva, len)
            .iter()
            .filter_map(|k| self.pages.get(k))
            .flat_map(|p| p.mappings.iter().map(|m| m.right))
            .collect();
        if let Some(merged) = merge_rights(&rights) {
            self.emit(DKasanFinding {
                kind: FindingKind::AccessAfterMap,
                size: len,
                rights: merged,
                site,
                page: kva.page_align_down().raw(),
                at,
            });
        }
    }

    /// Replay-cost counters accumulated so far.
    pub fn stats(&self) -> &DKasanStats {
        &self.stats
    }

    /// Publishes the replay cost and findings census into `m` under the
    /// `dkasan.*` metric names (additive, so repeated publishes from
    /// separate replay engines aggregate).
    pub fn publish_metrics(&self, m: &mut Metrics) {
        m.add("dkasan.events", self.stats.events);
        m.add("dkasan.shadow.updates", self.stats.shadow_updates);
        m.merge_histogram(
            "dkasan.shadow.touches_per_event",
            &self.stats.touches_per_event,
        );
        m.gauge_set("dkasan.shadow.pages", self.pages.len() as u64);
        m.gauge_set("dkasan.exposed_pages", self.exposed_pages() as u64);
        m.add("dkasan.findings.total", self.findings.len() as u64);
        for kind in FindingKind::ALL {
            let n = self.findings.iter().filter(|f| f.kind == kind).count();
            m.add(kind.metric_name(), n as u64);
        }
    }

    /// The mapping sites currently covering a page (diagnostics).
    pub fn mapping_sites(&self, page: u64) -> Vec<&'static str> {
        self.pages
            .get(&page)
            .map(|p| p.mappings.iter().map(|m| m.site).collect())
            .unwrap_or_default()
    }

    /// Number of pages currently carrying both live objects and live
    /// mappings (the standing exposure surface).
    pub fn exposed_pages(&self) -> usize {
        self.pages
            .values()
            .filter(|p| !p.objects.is_empty() && !p.mappings.is_empty())
            .count()
    }
}

fn merge_rights(rights: &[AccessRight]) -> Option<AccessRight> {
    rights.iter().copied().reduce(AccessRight::union)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dma_core::vuln::DmaDirection;
    use dma_core::Iova;

    fn alloc(at: u64, kva: u64, size: usize, site: &'static str) -> Event {
        Event::Alloc {
            at,
            kva: Kva(kva),
            size,
            site,
            cache: "kmalloc",
        }
    }

    fn map(at: u64, kva: u64, len: usize, dir: DmaDirection, site: &'static str) -> Event {
        Event::DmaMap {
            at,
            device: 1,
            iova: Iova(0xf000_0000 + (kva & 0xfff)),
            kva: Kva(kva),
            len,
            dir,
            site,
        }
    }

    const PAGE: u64 = 0xffff_8880_0020_0000;

    #[test]
    fn alloc_after_map_detected() {
        let mut dk = DKasan::new();
        dk.process(&[
            map(0, PAGE + 0x100, 256, DmaDirection::FromDevice, "nic_rx_map"),
            alloc(1, PAGE + 0x800, 512, "load_elf_phdrs"),
        ]);
        let f = dk.findings_of(FindingKind::AllocAfterMap);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].size, 512);
        assert_eq!(f[0].site, "load_elf_phdrs");
        assert_eq!(f[0].rights, AccessRight::Write);
        assert_eq!(f[0].at, 1, "finding stamped with the trigger cycle");
        assert!(f[0].id().starts_with("dk-"));
    }

    #[test]
    fn map_after_alloc_detected_per_object() {
        let mut dk = DKasan::new();
        dk.process(&[
            alloc(0, PAGE, 64, "sock_alloc_inode"),
            alloc(1, PAGE + 0x40, 328, "assoc_array_insert"),
            map(
                2,
                PAGE + 0x800,
                512,
                DmaDirection::Bidirectional,
                "nic_cmd_map",
            ),
        ]);
        let f = dk.findings_of(FindingKind::MapAfterAlloc);
        assert_eq!(f.len(), 2);
        let sites: Vec<_> = f.iter().map(|x| x.site).collect();
        assert!(sites.contains(&"sock_alloc_inode"));
        assert!(sites.contains(&"assoc_array_insert"));
        assert!(f.iter().all(|x| x.rights == AccessRight::Bidirectional));
    }

    #[test]
    fn unmap_clears_exposure() {
        let mut dk = DKasan::new();
        dk.process(&[map(0, PAGE, 256, DmaDirection::FromDevice, "m")]);
        dk.process(&[Event::DmaUnmap {
            at: 1,
            device: 1,
            iova: Iova(0xf000_0000),
            len: 256,
        }]);
        dk.process(&[alloc(2, PAGE + 0x800, 512, "late_alloc")]);
        assert!(dk.findings_of(FindingKind::AllocAfterMap).is_empty());
    }

    #[test]
    fn multiple_map_merges_rights() {
        // §4.2 / Figure 3 line 1: a buffer mapped twice — once for read,
        // once for write — shows as [READ, WRITE].
        let mut dk = DKasan::new();
        dk.process(&[
            map(0, PAGE, 512, DmaDirection::FromDevice, "__alloc_skb"),
            map(1, PAGE + 0x200, 512, DmaDirection::ToDevice, "__alloc_skb"),
        ]);
        let f = dk.findings_of(FindingKind::MultipleMap);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rights, AccessRight::Bidirectional);
    }

    #[test]
    fn access_after_map_detected() {
        let mut dk = DKasan::new();
        dk.process(&[
            map(0, PAGE, 2048, DmaDirection::FromDevice, "nic_rx_map"),
            Event::CpuAccess {
                at: 1,
                kva: Kva(PAGE + 0x10),
                len: 8,
                write: true,
                site: "memcpy_to_ring",
            },
        ]);
        assert_eq!(dk.findings_of(FindingKind::AccessAfterMap).len(), 1);
    }

    #[test]
    fn duplicate_sites_suppressed_unless_report_all() {
        let mut dk = DKasan::new();
        let evs = [
            map(0, PAGE, 256, DmaDirection::FromDevice, "m"),
            alloc(1, PAGE + 0x400, 64, "hot_site"),
            Event::Free {
                at: 2,
                kva: Kva(PAGE + 0x400),
            },
            alloc(3, PAGE + 0x400, 64, "hot_site"),
        ];
        dk.process(&evs);
        assert_eq!(dk.findings_of(FindingKind::AllocAfterMap).len(), 1);

        let mut all = DKasan::new();
        all.report_all = true;
        all.process(&evs);
        assert_eq!(all.findings_of(FindingKind::AllocAfterMap).len(), 2);
    }

    #[test]
    fn fault_events_are_censused_without_perturbing_the_shadow() {
        // Regression: a FaultInjected event marks an operation that did
        // NOT happen. It must not create shadow state, must not panic,
        // and must not change the findings a clean stream produces —
        // only the census should differ.
        let clean = [
            map(0, PAGE + 0x100, 256, DmaDirection::FromDevice, "nic_rx_map"),
            alloc(2, PAGE + 0x800, 512, "load_elf_phdrs"),
        ];
        let faulted = [
            map(0, PAGE + 0x100, 256, DmaDirection::FromDevice, "nic_rx_map"),
            Event::FaultInjected {
                at: 1,
                site: "sim_mem.kmalloc",
            },
            alloc(2, PAGE + 0x800, 512, "load_elf_phdrs"),
            Event::FaultInjected {
                at: 3,
                site: "sim_iommu.dma_map",
            },
            Event::FaultInjected {
                at: 4,
                site: "sim_mem.kmalloc",
            },
        ];
        let mut a = DKasan::new();
        a.process(&clean);
        let mut b = DKasan::new();
        b.process(&faulted);
        assert_eq!(a.findings().len(), b.findings().len());
        let f = b.findings_of(FindingKind::AllocAfterMap);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].site, "load_elf_phdrs", "site tags stay accurate");
        assert!(a.injected_faults().is_empty());
        assert_eq!(b.injected_faults().get("sim_mem.kmalloc"), Some(&2));
        assert_eq!(b.injected_faults().get("sim_iommu.dma_map"), Some(&1));
    }

    #[test]
    fn straddling_buffers_shadow_both_pages() {
        let mut dk = DKasan::new();
        dk.process(&[
            map(0, PAGE + 0xf00, 0x200, DmaDirection::FromDevice, "m"), // spans 2 pages
            alloc(1, PAGE + 0x1800, 64, "second_page_obj"),
        ]);
        assert_eq!(dk.findings_of(FindingKind::AllocAfterMap).len(), 1);
        assert_eq!(dk.exposed_pages(), 1);
    }
}
