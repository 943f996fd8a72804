//! Figure 6: strict vs deferred IOTLB invalidation.
//!
//! Measures (a) host wall-time of the map→DMA→unmap cycle under both
//! policies and (b) the *simulated-cycle* accounting the paper reasons
//! about (2000-cycle invalidations, 10 ms windows). The simulated
//! numbers are printed once at startup as the Figure-6 "series".

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dma_core::vuln::DmaDirection;
use dma_lab::benchfile::{iommu_setup, one_io};
use sim_iommu::{dma_map_single, dma_unmap_single, InvalidationMode};

fn print_figure6_series() {
    eprintln!("== Figure 6 (simulated cycles): strict vs deferred ==");
    for mode in [InvalidationMode::Strict, InvalidationMode::Deferred] {
        let (mut ctx, mut mem, mut iommu) = iommu_setup(mode);
        for _ in 0..1000 {
            one_io(&mut ctx, &mut mem, &mut iommu).unwrap();
        }
        // Let any pending flush run.
        ctx.clock.advance_ms(11);
        iommu.tick(&mut ctx);
        eprintln!(
            "  {:?}: invalidation cycles total {:>8} | per-unmap invalidations {} | global flushes {} | stale hits {}",
            mode,
            iommu.stats.invalidation_cycles,
            iommu.stats.invalidations,
            iommu.stats.global_flushes,
            iommu.stats.stale_hits,
        );
    }
}

fn bench_io_cycle(c: &mut Criterion) {
    print_figure6_series();
    let mut g = c.benchmark_group("figure6_io_cycle");
    g.sample_size(20);
    for (name, mode) in [
        ("strict", InvalidationMode::Strict),
        ("deferred", InvalidationMode::Deferred),
    ] {
        g.bench_function(format!("map_dma_unmap_{name}"), |b| {
            b.iter_batched(
                || iommu_setup(mode),
                |(mut ctx, mut mem, mut iommu)| {
                    for _ in 0..64 {
                        one_io(&mut ctx, &mut mem, &mut iommu).unwrap();
                    }
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_translation(c: &mut Criterion) {
    let mut g = c.benchmark_group("iommu_translation");
    g.sample_size(20);
    // IOTLB hit vs page-table walk.
    g.bench_function("dev_write_iotlb_hot", |b| {
        let (mut ctx, mut mem, mut iommu) = iommu_setup(InvalidationMode::Strict);
        let buf = mem.kmalloc(&mut ctx, 2048, "io").unwrap();
        let m = dma_map_single(
            &mut ctx,
            &mut iommu,
            &mem.layout,
            1,
            buf,
            2048,
            DmaDirection::FromDevice,
            "m",
        )
        .unwrap();
        iommu
            .dev_write(&mut ctx, &mut mem.phys, 1, m.iova, b"warm")
            .unwrap();
        b.iter(|| {
            iommu
                .dev_write(&mut ctx, &mut mem.phys, 1, m.iova, b"payload")
                .unwrap()
        })
    });
    g.bench_function("map_unmap_page_table_churn", |b| {
        let (mut ctx, mut mem, mut iommu) = iommu_setup(InvalidationMode::Strict);
        let buf = mem.kmalloc(&mut ctx, 2048, "io").unwrap();
        b.iter(|| {
            let m = dma_map_single(
                &mut ctx,
                &mut iommu,
                &mem.layout,
                1,
                buf,
                2048,
                DmaDirection::FromDevice,
                "m",
            )
            .unwrap();
            dma_unmap_single(&mut ctx, &mut iommu, &m).unwrap();
        })
    });
    g.finish();
}

criterion_group!(benches, bench_io_cycle, bench_translation);
criterion_main!(benches);
