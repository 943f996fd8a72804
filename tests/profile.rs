//! The cycle-attribution profiler's determinism contract: folded
//! output is byte-identical across runs and independent of which
//! execution context ran each input, the per-exec phase breakdown is
//! pinned for every zoo config, and the hottest self-cycle frame names
//! an IOMMU invalidation path.

use dma_lab::dma_core::Profile;
use dma_lab::fuzz::{config_name, ExecContext, FuzzInput, NUM_CONFIGS};
use dma_lab::profiling::{run_profile, ProfileConfig};

const SEED: u64 = 7;
const ITERS: u64 = 24;

fn profiled(only_config: Option<u8>) -> Profile {
    run_profile(&ProfileConfig {
        only_config,
        ..ProfileConfig::new(SEED, ITERS)
    })
    .expect("profile workload")
    .profile
}

#[test]
fn two_runs_fold_to_identical_bytes() {
    let a = profiled(None);
    let b = profiled(None);
    assert_eq!(a.folded(), b.folded(), "folded output must be replayable");
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn fresh_contexts_fold_to_the_same_tree() {
    // The workload runs every input on one shared context; folding the
    // profiles of a fresh context per input must give the same bytes.
    let mut fresh = Profile::new();
    for it in 0..ITERS {
        let out = ExecContext::new()
            .execute(&FuzzInput::generate(SEED, it))
            .expect("fresh-context exec");
        fresh.merge(&out.profile);
    }
    assert_eq!(profiled(None).folded(), fresh.folded());
}

#[test]
fn the_hottest_self_frame_is_an_iommu_invalidation_path() {
    let run = run_profile(&ProfileConfig::new(SEED, 96)).expect("profile workload");
    let (frame, cycles) = run.profile.top_self().expect("non-empty profile");
    assert!(
        frame.starts_with("iommu."),
        "hottest frame {frame} ({cycles} self cycles) is not an IOMMU path"
    );
    assert!(cycles > 0);
    // The paper's cost story: invalidation dominates the IOMMU's
    // simulated cycle budget, and the profiler must say so.
    assert!(
        frame.contains("iotlb"),
        "expected an IOTLB invalidation path, got {frame}"
    );
}

#[test]
fn phase_breakdown_is_pinned_for_every_zoo_config() {
    for config in 0..NUM_CONFIGS {
        let name = config_name(config);
        let profile = profiled(Some(config));
        let phases = profile.phases();
        let calls = |phase: &str| -> u64 {
            phases
                .iter()
                .find(|(n, _, _)| n == phase)
                .map(|(_, c, _)| *c)
                .unwrap_or(0)
        };
        // Every exec opens with a clone marker and closes with exactly
        // one teardown, whatever the machine shape.
        assert_eq!(calls("exec.clone"), ITERS, "{name}");
        assert_eq!(calls("exec.teardown"), ITERS, "{name}");
        assert!(calls("exec.deliver") > 0, "{name} never delivered");
        assert!(calls("exec.oracle") > 0, "{name} never ran the oracle");
        assert_eq!(
            calls("exec.oracle"),
            calls("exec.infer"),
            "{name}: oracle and inference drain the same trace batches"
        );
        // Delivery moves simulated time on every shape (teardown may
        // not: deferred-invalidation configs batch the unmap cost into
        // timer ticks); breakdown bytes are pinned by a second run.
        let cycles = |phase: &str| -> u64 {
            phases
                .iter()
                .find(|(n, _, _)| n == phase)
                .map(|(_, _, c)| *c)
                .unwrap_or(0)
        };
        assert!(cycles("exec.deliver") > 0, "{name}: free delivery");
        let again = profiled(Some(config));
        assert_eq!(profile.folded(), again.folded(), "{name} not deterministic");
    }
}

#[test]
fn attributed_cycles_never_exceed_total_cycles() {
    let run = run_profile(&ProfileConfig::new(SEED, ITERS)).expect("profile workload");
    assert!(run.profile.attributed_cycles() <= run.total_cycles);
    assert_eq!(run.execs, ITERS);
}
