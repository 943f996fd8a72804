//! Chaos soak: randomized-but-seeded fault schedules over the whole
//! simulated machine (allocators → IOMMU → driver → stack → device).
//!
//! The acceptance bar for the graceful-degradation layer:
//!
//! 1. **No panics** — every schedule runs to completion; non-tolerated
//!    errors fail the soak inside `run_soak` itself.
//! 2. **No leaked DMA mappings** — after `Testbed::shutdown` the device
//!    must hold zero mapped pages, every schedule.
//! 3. **Every schedule actually injects** — a soak that never fires a
//!    fault proves nothing.
//! 4. **Deterministic replay** — the same seed reproduces the same fault
//!    sequence and therefore the identical `SoakReport` (delivered,
//!    dropped, and per-site hit counters included).

use dma_lab::devsim::chaos::{run_soak, SoakReport};

/// Seeds for the soak matrix: a spread of small, large, and bit-pattern
/// seeds, then the two dozen-seed sweeps of `dma-lab chaos --seed 1000
/// --runs 12` and `dma-lab chaos --seed 424242 --runs 12`.
fn seeds() -> impl Iterator<Item = u64> {
    SPREAD.into_iter().chain(1000..1012).chain(424_242..424_254)
}

const SPREAD: [u64; 26] = [
    1,
    2,
    3,
    5,
    7,
    11,
    13,
    17,
    19,
    23,
    42,
    64,
    99,
    128,
    255,
    256,
    1024,
    4096,
    65535,
    0xdead_beef,
    0xcafe_babe,
    0x0123_4567_89ab_cdef,
    0xffff_ffff_ffff_fffe,
    0xaaaa_aaaa_5555_5555,
    0x1_0000_0001,
    0x7fff_ffff_ffff_ffff,
];

#[test]
fn chaos_soak_survives_every_schedule_without_leaks() {
    let mut total_injected = 0u64;
    for seed in seeds() {
        let r = run_soak(seed)
            .unwrap_or_else(|e| panic!("seed {seed:#x}: stack failed to degrade: {e}"));
        assert!(
            r.injected_total >= 1,
            "seed {seed:#x}: schedule never injected a fault"
        );
        assert_eq!(
            r.leaked_pages, 0,
            "seed {seed:#x}: {} DMA-mapped pages leaked past shutdown",
            r.leaked_pages
        );
        assert!(
            r.delivered + r.echoed + r.dropped > 0,
            "seed {seed:#x}: workload did no work"
        );
        total_injected += r.injected_total;
    }
    // Across the matrix the faults must be plentiful, not incidental.
    let schedules = seeds().count() as u64;
    assert!(
        total_injected >= schedules * 2,
        "only {total_injected} faults injected across {schedules} schedules"
    );
}

#[test]
fn chaos_soak_replays_identically_from_the_same_seed() {
    for &seed in &[7u64, 42, 0xdead_beef] {
        let a: SoakReport = run_soak(seed).unwrap();
        let b: SoakReport = run_soak(seed).unwrap();
        assert_eq!(
            a, b,
            "seed {seed:#x}: replay diverged — fault engine is not deterministic"
        );
    }
}

/// Pulls `"name":value` out of a flat JSON counter table.
fn counter(json: &str, name: &str) -> Option<u64> {
    let key = format!("\"{name}\":");
    let at = json.find(&key)? + key.len();
    let rest = &json[at..];
    let end = rest.find([',', '}'])?;
    rest[..end].parse().ok()
}

#[test]
fn metrics_survive_fault_schedules_without_drift() {
    // Under every schedule the registry must (a) replay byte-identically
    // and (b) stay consistent with the fault engine's own census: the
    // `fault.injected` counter is incremented at the injection sites,
    // `injected_total` is counted by the plan — if they ever disagree, a
    // code path bumped one but not the other.
    for &seed in &[3u64, 42, 0xcafe_babe] {
        let a = run_soak(seed).unwrap();
        let b = run_soak(seed).unwrap();
        assert_eq!(
            a.stats_json, b.stats_json,
            "seed {seed:#x}: metrics snapshot diverged across replays"
        );
        assert_eq!(
            counter(&a.stats_json, "fault.injected").unwrap_or(0),
            a.injected_total,
            "seed {seed:#x}: fault.injected counter drifted from the plan census"
        );
        // The recovery paths count what the report counts as drops.
        assert_eq!(
            counter(&a.stats_json, "fault.recovered").unwrap_or(0),
            a.dropped,
            "seed {seed:#x}: fault.recovered counter drifted from dropped"
        );
    }
}

#[test]
fn fuzz_corpus_entry_survives_chaos_fault_schedules() {
    // Cross-subsystem soak: take a real admitted corpus entry from the
    // pinned campaign and re-execute it with a chaos fault plan armed on
    // top of whatever faults the input itself carries. The combined
    // schedule must degrade gracefully — no panics, no leaked DMA
    // mappings — and replay identically.
    use dma_lab::fuzz::{run_fuzz, ExecContext, FuzzConfig, FuzzInput};
    let report = run_fuzz(&FuzzConfig {
        seed: 7,
        iters: 8,
        corpus_dir: None,
    })
    .unwrap();
    let entry = report.corpus.first().expect("campaign admitted an entry");
    let input = FuzzInput::generate(entry.seed, entry.iteration);
    let replay = |fault_seed| ExecContext::new().execute_under_faults(&input, fault_seed);
    for fault_seed in [1u64, 42, 0xdead_beef] {
        let a = replay(fault_seed)
            .unwrap_or_else(|e| panic!("fault seed {fault_seed:#x}: failed to degrade: {e}"));
        assert_eq!(
            a.leaked_pages, 0,
            "fault seed {fault_seed:#x}: DMA mappings leaked past shutdown"
        );
        let b = replay(fault_seed).unwrap();
        assert_eq!(
            a.signature, b.signature,
            "fault seed {fault_seed:#x}: replay under faults diverged"
        );
        assert_eq!(a.dropped, b.dropped);
    }
}

#[test]
fn different_seeds_produce_different_schedules() {
    let a = run_soak(1).unwrap();
    let b = run_soak(2).unwrap();
    // The reports may coincide on a single counter, but not in full
    // (different plans, different traffic, different hit maps).
    assert_ne!(a, b, "seeds 1 and 2 produced identical soak reports");
}
