//! Sharded-campaign scale contracts (DESIGN.md §13): the merged report
//! is a pure function of `(seed, iters, shards)` — never of the thread
//! count — a 1-shard sharded run is the legacy engine byte for byte,
//! kill+resume restores every shard (RNG position included), and a
//! long-lived execution context is outcome-identical to a fresh one.

use dma_lab::fuzz::{
    run_fuzz, snapshot, Campaign, ExecContext, FuzzConfig, FuzzInput, ShardConfig, ShardedCampaign,
    NUM_CONFIGS,
};

/// The pinned campaign shared with CI, the README, and `fuzz_bench`.
const SEED: u64 = 7;
const ITERS: u64 = 96;

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("dma-scale-{}-{name}", std::process::id()))
}

#[test]
fn merged_report_is_identical_for_any_thread_count() {
    let run = |threads: usize| {
        ShardedCampaign::new(ShardConfig::new(SEED, 12, 8, threads))
            .run()
            .unwrap()
            .to_json()
    };
    let t1 = run(1);
    let t4 = run(4);
    let t8 = run(8);
    assert_eq!(t1, t4, "T=1 vs T=4 merged reports differ");
    assert_eq!(t1, t8, "T=1 vs T=8 merged reports differ");
}

#[test]
fn one_shard_run_is_the_legacy_engine_byte_for_byte() {
    // Shard 0 keeps the base seed unchanged, so a 1-shard sharded run
    // must reproduce the legacy single-campaign pinned report exactly.
    let legacy = run_fuzz(&FuzzConfig {
        seed: SEED,
        iters: ITERS,
        corpus_dir: None,
    })
    .unwrap();
    let sharded = ShardedCampaign::new(ShardConfig::new(SEED, ITERS, 1, 1))
        .run()
        .unwrap();
    assert_eq!(legacy.to_json(), sharded.to_json());
    assert_eq!(legacy.series_json(), sharded.series_json());
    assert_eq!(legacy.stats_json, sharded.stats_json);
}

#[test]
fn killed_shards_resume_to_the_uninterrupted_bytes() {
    let dir = tmp("kill-resume");
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ShardConfig::new(11, 10, 3, 1);
    cfg.checkpoint_dir = Some(dir.clone());
    cfg.checkpoint_every = 3;
    let sc = ShardedCampaign::new(cfg.clone());

    // Kill each shard at a different point: shard 0 past two cadences,
    // shard 1 past one, shard 2 before its first checkpoint (the
    // restart-from-scratch path).
    for (shard_id, kill_at) in [(0u32, 7u64), (1, 4), (2, 2)] {
        let mut doomed = Campaign::new(sc.shard_campaign_config(shard_id)).unwrap();
        doomed.run_until(kill_at).unwrap();
        drop(doomed);
    }

    // Every shard's RNG position (with the rest of its state) must come
    // back exactly: the resumed state captures byte-identically to a
    // fresh campaign advanced to the same iteration.
    for (shard_id, resumes_from) in [(0u32, 6u64), (1, 3)] {
        let shard_cfg = sc.shard_campaign_config(shard_id);
        let resumed = Campaign::resume(shard_cfg.clone()).unwrap();
        assert_eq!(resumed.next_iter(), resumes_from, "shard {shard_id}");
        let mut control_cfg = shard_cfg.clone();
        control_cfg.checkpoint_dir = None;
        control_cfg.checkpoint_every = 0;
        let mut control = Campaign::new(control_cfg).unwrap();
        control.run_until(resumes_from).unwrap();
        assert_eq!(
            snapshot::capture(shard_cfg.seed, resumed.state()),
            snapshot::capture(shard_cfg.seed, control.state()),
            "shard {shard_id} state (RNG position included) diverged on resume"
        );
    }

    let resumed = sc.resume().unwrap();
    let mut control_cfg = ShardConfig::new(11, 10, 3, 1);
    control_cfg.checkpoint_dir = None;
    let control = ShardedCampaign::new(control_cfg).run().unwrap();
    assert_eq!(
        resumed.to_json(),
        control.to_json(),
        "kill+resume must land on the uninterrupted merged bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn warm_executor_matches_the_cold_path() {
    // "Cold" is a fresh context per input; "warm" is one shared context
    // whose templates were booted by earlier inputs. Pinning each input
    // to `i % NUM_CONFIGS` walks every template through reuse.
    let key = |out: &dma_lab::fuzz::ExecOutcome| {
        let keys: Vec<String> = out.findings.iter().map(|f| f.key()).collect();
        (
            out.signature,
            out.status,
            out.cycles,
            keys,
            out.profile.folded(),
        )
    };
    let mut cx = ExecContext::new();
    for i in 0..2 * u64::from(NUM_CONFIGS) {
        let mut input = FuzzInput::generate(SEED, i);
        input.config_id = (i % u64::from(NUM_CONFIGS)) as u8;
        let cold = ExecContext::new().execute(&input).unwrap();
        let warm = cx.execute(&input).unwrap();
        assert_eq!(key(&cold), key(&warm), "iteration {i}");
    }
}
