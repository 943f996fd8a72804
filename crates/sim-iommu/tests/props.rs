//! Property-style tests for the IOMMU: page-table consistency under
//! arbitrary map/unmap sequences, IOVA allocator disjointness, IOTLB
//! coherence rules, and the central security invariant — a device can
//! never reach an unmapped frame in strict mode.
//!
//! Inputs are generated from the in-tree seeded `DetRng` (no external
//! property-testing framework) so the suite builds offline.

use dma_core::vuln::DmaDirection;
use dma_core::{AccessRight, DetRng, DmaError, Iova, Pfn, SimCtx, PAGE_SIZE};
use sim_iommu::{
    dma_map_single, dma_unmap_single, InvalidationMode, IoPageTable, Iommu, IommuConfig,
    IovaAllocator,
};
use sim_mem::{MemConfig, MemorySystem};
use std::collections::{BTreeMap, HashMap};

const CASES: usize = 64;

/// Spreads a page number's bits over all four table levels, so the
/// pages drawn below share some table nodes and not others.
fn spread(page: u64) -> Iova {
    let (l0, l1, l2, l3) = (page & 31, (page >> 5) & 1, (page >> 6) & 1, page >> 7);
    Iova((l0 | l1 << 9 | l2 << 18 | l3 << 27) * PAGE_SIZE as u64)
}

#[test]
fn page_table_matches_reference_model() {
    // Clones taken at random steps share table nodes copy-on-write; the
    // original and every clone keep mutating, and each must still match
    // its own model, so a write leaking through a shared node fails.
    let mut meta = DetRng::new(0x31);
    for case in 0..CASES {
        let mut rng = meta.fork();
        let mut copies = vec![(IoPageTable::new(), HashMap::<u64, u64>::new())];
        let nops = rng.range(1, 199) as usize;
        for _ in 0..nops {
            if rng.chance(1, 16) {
                let k = rng.below(copies.len() as u64) as usize;
                copies.push(copies[k].clone());
            }
            let k = rng.below(copies.len() as u64) as usize;
            let (pt, model) = &mut copies[k];
            let page = rng.below(256);
            let pfn = rng.below(16);
            let do_unmap = rng.chance(1, 2);
            let iova = spread(page);
            if do_unmap {
                let expect = model.remove(&page);
                let got = pt.unmap(iova).ok().map(|e| e.pfn.raw());
                assert_eq!(got, expect, "case {case}");
            } else {
                let ok = pt.map(iova, Pfn(pfn), AccessRight::Write).is_ok();
                assert_eq!(ok, !model.contains_key(&page), "case {case}");
                if ok {
                    model.insert(page, pfn);
                }
            }
            assert_eq!(pt.mapped_pages(), model.len(), "case {case}");
        }
        // Final agreement of every copy with its own model.
        for (k, (pt, model)) in copies.iter().enumerate() {
            assert_eq!(pt.mapped_pages(), model.len(), "case {case} copy {k}");
            for page in 0..256 {
                assert_eq!(
                    pt.walk(spread(page)).map(|e| e.pfn.raw()),
                    model.get(&page).copied(),
                    "case {case} copy {k} page {page}"
                );
            }
            for pfn in 0..16 {
                let mut got = pt.iovas_of(Pfn(pfn));
                got.sort();
                let mut want: Vec<_> = model
                    .iter()
                    .filter(|&(_, &p)| p == pfn)
                    .map(|(&page, _)| (spread(page), AccessRight::Write))
                    .collect();
                want.sort();
                assert_eq!(got, want, "case {case} copy {k} pfn {pfn}");
            }
        }
    }
}

/// Checks one table against its model: the mapped count, a walk of
/// every page in `iovas`, and the aliases of `pfn` (in IOVA order).
fn check_table(pt: &IoPageTable, model: &BTreeMap<u64, u64>, iovas: &[Iova], pfn: u64, at: &str) {
    assert_eq!(pt.mapped_pages(), model.len(), "{at}");
    for &iova in iovas {
        assert_eq!(
            pt.walk(iova).map(|e| e.pfn.raw()),
            model.get(&iova.raw()).copied(),
            "{at}: walk {:#x}",
            iova.raw()
        );
    }
    let want: Vec<_> = model
        .iter()
        .filter(|&(_, &p)| p == pfn)
        .map(|(&v, _)| (Iova(v), AccessRight::Write))
        .collect();
    assert_eq!(pt.iovas_of(Pfn(pfn)), want, "{at}: iovas_of {pfn}");
}

/// Checks the copy just mutated in full, and every other copy at the
/// page that changed, so a write leaking through a shared node shows.
fn check_copies(
    copies: &[(IoPageTable, BTreeMap<u64, u64>)],
    k: usize,
    iovas: &[Iova],
    iova: Iova,
    pfn: u64,
    at: &str,
) {
    for (j, (pt, model)) in copies.iter().enumerate() {
        if j == k {
            check_table(pt, model, iovas, pfn, &format!("{at} copy {j}"));
        } else {
            assert_eq!(pt.mapped_pages(), model.len(), "{at} copy {j}");
            assert_eq!(
                pt.walk(iova).map(|e| e.pfn.raw()),
                model.get(&iova.raw()).copied(),
                "{at} copy {j}"
            );
        }
    }
}

#[test]
fn a_full_leaf_table_matches_reference_model() {
    // `spread` reaches only slots 0-31 of a leaf table. Here the IOVA
    // allocator's first 512 pages fill every slot of its top leaf table,
    // top-down, so each map inserts in front of the slots already
    // present; the 513th page opens the next table, so the node above
    // holds two slots. One page is held back and mapped last, leaving a
    // never-mapped slot between mapped ones until then.
    let mut alloc = IovaAllocator::new();
    let iovas: Vec<Iova> = (0..513).map(|_| alloc.alloc(1).unwrap()).collect();
    let leaf_span = 512 * PAGE_SIZE as u64;
    assert_eq!(iovas[511].raw() % leaf_span, 0, "512 pages fill one leaf");
    assert_eq!(
        iovas[0].raw() - iovas[511].raw(),
        leaf_span - PAGE_SIZE as u64
    );
    let mut meta = DetRng::new(0x37);
    for case in 0..3 {
        let mut rng = meta.fork();
        let hole = iovas[rng.range(1, 510) as usize];
        let mut copies = vec![(IoPageTable::new(), BTreeMap::<u64, u64>::new())];
        let order = iovas.iter().copied().filter(|&v| v != hole).chain([hole]);
        for (n, iova) in order.enumerate() {
            if rng.chance(1, 64) {
                let k = rng.below(copies.len() as u64) as usize;
                copies.push(copies[k].clone());
            }
            let at = format!("case {case} map {n}");
            let (pt, model) = &mut copies[0];
            if iova == hole {
                let before = pt.mapped_pages();
                assert_eq!(pt.unmap(hole), Err(DmaError::NotMapped(hole.raw())), "{at}");
                assert_eq!(pt.mapped_pages(), before, "{at}");
            }
            let pfn = rng.below(8);
            pt.map(iova, Pfn(pfn), AccessRight::Write).unwrap();
            model.insert(iova.raw(), pfn);
            check_copies(&copies, 0, &iovas, iova, pfn, &at);
        }
        assert_eq!(copies[0].0.mapped_pages(), 513);

        // Empty every copy, interleaved, each in its own random order.
        let mut left: Vec<Vec<u64>> = copies
            .iter()
            .map(|(_, m)| m.keys().copied().collect())
            .collect();
        for n in 0.. {
            let live: Vec<usize> = (0..copies.len()).filter(|&k| !left[k].is_empty()).collect();
            if live.is_empty() {
                break;
            }
            let k = live[rng.below(live.len() as u64) as usize];
            let i = rng.below(left[k].len() as u64) as usize;
            let v = left[k].swap_remove(i);
            let (pt, model) = &mut copies[k];
            let pfn = model.remove(&v).unwrap();
            assert_eq!(pt.unmap(Iova(v)).map(|e| e.pfn.raw()), Ok(pfn));
            check_copies(
                &copies,
                k,
                &iovas,
                Iova(v),
                pfn,
                &format!("case {case} unmap {n}"),
            );
        }
        for (k, (pt, model)) in copies.iter_mut().enumerate() {
            for pfn in 0..8 {
                check_table(
                    pt,
                    model,
                    &iovas,
                    pfn,
                    &format!("case {case} copy {k} empty"),
                );
            }
            assert_eq!(pt.unmap(hole), Err(DmaError::NotMapped(hole.raw())));
        }
    }
}

#[test]
fn iova_ranges_are_disjoint() {
    let mut meta = DetRng::new(0x32);
    for case in 0..CASES {
        let mut rng = meta.fork();
        let mut a = IovaAllocator::new();
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        let n = rng.range(1, 79) as usize;
        for _ in 0..n {
            let pages = rng.range(1, 63) as usize;
            if let Ok(base) = a.alloc(pages) {
                let span = (pages * PAGE_SIZE) as u64;
                for &(s, e) in &ranges {
                    assert!(base.raw() + span <= s || base.raw() >= e, "case {case}");
                }
                ranges.push((base.raw(), base.raw() + span));
            }
        }
    }
}

#[test]
fn iova_free_realloc_cycles() {
    let mut meta = DetRng::new(0x33);
    for case in 0..CASES {
        let mut rng = meta.fork();
        let mut a = IovaAllocator::new();
        let mut live: Vec<(Iova, usize)> = Vec::new();
        let nops = rng.range(1, 119) as usize;
        for _ in 0..nops {
            let pages = rng.range(1, 15) as usize;
            if rng.chance(1, 2) && !live.is_empty() {
                let (base, n) = live.swap_remove(0);
                a.free(base, n).unwrap();
            } else if let Ok(base) = a.alloc(pages) {
                live.push((base, pages));
            }
        }
        assert_eq!(a.live_ranges(), live.len(), "case {case}");
    }
}

#[test]
fn strict_mode_never_leaks_unmapped_frames() {
    // The central security property: after strict unmap, access via
    // the dead IOVA always faults, and access to live mappings always
    // succeeds.
    let mut meta = DetRng::new(0x34);
    for case in 0..CASES {
        let mut rng = meta.fork();
        let mut ctx = SimCtx::new();
        let mut mem = MemorySystem::new(&MemConfig::default());
        let mut iommu = Iommu::new(IommuConfig {
            mode: InvalidationMode::Strict,
            ..Default::default()
        });
        iommu.attach_device(1);
        let mut live = Vec::new();
        let mut dead = Vec::new();
        let nops = rng.range(1, 59) as usize;
        for _ in 0..nops {
            let len = rng.range(1, 1999) as usize;
            if rng.chance(1, 2) && !live.is_empty() {
                let m: sim_iommu::DmaMapping = live.swap_remove(0);
                dma_unmap_single(&mut ctx, &mut iommu, &m).unwrap();
                dead.push(m);
            } else {
                let buf = mem.kmalloc(&mut ctx, len, "prop").unwrap();
                let m = dma_map_single(
                    &mut ctx,
                    &mut iommu,
                    &mem.layout,
                    1,
                    buf,
                    len,
                    DmaDirection::Bidirectional,
                    "prop",
                )
                .unwrap();
                live.push(m);
            }
        }
        let mut b = [0u8; 1];
        for m in &live {
            assert!(
                iommu
                    .dev_read(&mut ctx, &mem.phys, 1, m.iova, &mut b)
                    .is_ok(),
                "case {case}"
            );
        }
        // A dead IOVA may have been *recycled* to a live mapping (correct
        // allocator behaviour); only never-recycled dead IOVAs must fault.
        let live_pages: std::collections::HashSet<u64> = live
            .iter()
            .flat_map(|m| {
                (0..m.pages as u64)
                    .map(move |i| m.iova.page_align_down().raw() + i * PAGE_SIZE as u64)
            })
            .collect();
        for m in &dead {
            if !live_pages.contains(&m.iova.page_align_down().raw()) {
                assert!(
                    iommu
                        .dev_read(&mut ctx, &mem.phys, 1, m.iova, &mut b)
                        .is_err(),
                    "case {case}"
                );
            }
        }
    }
}

#[test]
fn device_writes_land_exactly_where_mapped() {
    let mut meta = DetRng::new(0x35);
    for case in 0..CASES {
        let mut rng = meta.fork();
        let mut ctx = SimCtx::new();
        let mut mem = MemorySystem::new(&MemConfig::default());
        let mut iommu = Iommu::new(IommuConfig::default());
        iommu.attach_device(1);
        let len = rng.range(1, 2047) as usize;
        let off = rng.below(1024) as usize;
        let mut data = vec![0u8; rng.range(1, 63) as usize];
        rng.fill_bytes(&mut data);
        let size = len.max(off + data.len());
        let buf = mem.kmalloc(&mut ctx, size, "prop").unwrap();
        let m = dma_map_single(
            &mut ctx,
            &mut iommu,
            &mem.layout,
            1,
            buf,
            size,
            DmaDirection::FromDevice,
            "prop",
        )
        .unwrap();
        iommu
            .dev_write(
                &mut ctx,
                &mut mem.phys,
                1,
                Iova(m.iova.raw() + off as u64),
                &data,
            )
            .unwrap();
        let mut back = vec![0u8; data.len()];
        mem.cpu_read(
            &mut ctx,
            dma_core::Kva(buf.raw() + off as u64),
            &mut back,
            "prop",
        )
        .unwrap();
        assert_eq!(back, data, "case {case} off={off}");
    }
}

#[test]
fn deferred_window_always_closes() {
    // Whatever the timing, a stale translation must be dead after
    // one full flush period.
    let mut meta = DetRng::new(0x36);
    for case in 0..CASES {
        let mut rng = meta.fork();
        let latency_us = rng.below(20_000);
        let mut ctx = SimCtx::new();
        let mut mem = MemorySystem::new(&MemConfig::default());
        let mut iommu = Iommu::new(IommuConfig {
            mode: InvalidationMode::Deferred,
            ..Default::default()
        });
        iommu.attach_device(1);
        let buf = mem.kmalloc(&mut ctx, 512, "prop").unwrap();
        let m = dma_map_single(
            &mut ctx,
            &mut iommu,
            &mem.layout,
            1,
            buf,
            512,
            DmaDirection::FromDevice,
            "prop",
        )
        .unwrap();
        iommu
            .dev_write(&mut ctx, &mut mem.phys, 1, m.iova, b"x")
            .unwrap();
        dma_unmap_single(&mut ctx, &mut iommu, &m).unwrap();
        ctx.clock.advance_us(latency_us);
        let poked = iommu.dev_write(&mut ctx, &mut mem.phys, 1, m.iova, b"y");
        // Within the window it may succeed; past it, it must not.
        if latency_us > 10_000 {
            assert!(poked.is_err(), "case {case} latency={latency_us}");
        }
        ctx.clock.advance_us(10_001);
        assert!(
            iommu
                .dev_write(&mut ctx, &mut mem.phys, 1, m.iova, b"z")
                .is_err(),
            "case {case} latency={latency_us}"
        );
    }
}
