//! Crash-safety model (DESIGN.md §11), end to end: kill-and-resume
//! byte-identity, panic/hang quarantine with two-integer replay, and
//! the A/B checkpoint store falling back past every corruption shape
//! the model promises to survive (torn write, bit flip, version skew).

use dma_lab::dma_core::checkpoint::{fnv64, SLOT_FILES};
use dma_lab::fuzz::{
    crash_id, kill_and_resume, Campaign, CampaignConfig, CrashKind, ExecContext, ExecStatus,
    FuzzInput, MutationOp, PLANT_HANG_BIT, PLANT_PANIC_BIT,
};
use std::path::{Path, PathBuf};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dma-lab-resilience-{}-{name}", std::process::id()))
}

/// Path of the slot holding the highest-sequence generation.
fn newest_slot(dir: &Path) -> PathBuf {
    SLOT_FILES
        .iter()
        .map(|f| dir.join(f))
        .filter(|p| p.exists())
        .max_by_key(|p| {
            let body = std::fs::read_to_string(p).unwrap();
            let tail = &body[body.find("\"sequence\":").unwrap() + 11..];
            let digits: String = tail.chars().take_while(|c| c.is_ascii_digit()).collect();
            digits.parse::<u64>().unwrap()
        })
        .expect("no checkpoint generation on disk")
}

/// A campaign that has written three generations (iters 2, 4, 6 with a
/// cadence of 2), killed at iteration 7.
fn killed_campaign(dir: &Path) -> CampaignConfig {
    let _ = std::fs::remove_dir_all(dir);
    let mut cfg = CampaignConfig::new(7, 10);
    cfg.checkpoint_dir = Some(dir.to_path_buf());
    cfg.checkpoint_every = 2;
    let mut doomed = Campaign::new(cfg.clone()).unwrap();
    doomed.run_until(7).unwrap();
    drop(doomed); // simulated SIGKILL
    cfg
}

fn uninterrupted_json(seed: u64, iters: u64) -> String {
    Campaign::run(CampaignConfig::new(seed, iters))
        .unwrap()
        .to_json()
}

#[test]
fn kill_and_resume_is_byte_identical() {
    let dir = tmp("kill-resume");
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = CampaignConfig::new(7, 12);
    cfg.checkpoint_dir = Some(dir.clone());
    cfg.checkpoint_every = 3;
    let out = kill_and_resume(&cfg, 8).unwrap();
    assert_eq!(out.resumed_from, 6, "resume point is the last checkpoint");
    assert!(
        out.identical(),
        "resumed vs uninterrupted reports diverged:\n{}\n{}",
        out.resumed_json,
        out.uninterrupted_json
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn planted_panic_and_hang_are_both_quarantined_without_aborting() {
    let mut cfg = CampaignConfig::new(7, 8);
    cfg.plant_panic_at = Some(2);
    cfg.plant_hang_at = Some(5);
    let report = Campaign::run(cfg).unwrap();
    // Neither contained failure stopped the campaign.
    assert_eq!(report.execs, 8);
    assert_eq!(report.crashes.len(), 2);
    let panic = &report.crashes[0];
    let hang = &report.crashes[1];
    assert_eq!(panic.kind, CrashKind::Panic);
    assert_eq!(panic.iteration, 2 | PLANT_PANIC_BIT);
    assert_eq!(hang.kind, CrashKind::Hang);
    assert_eq!(hang.iteration, 5 | PLANT_HANG_BIT);
    for c in &report.crashes {
        assert_eq!(c.id, crash_id(c.kind, c.seed, c.iteration), "unstable id");
        assert!(c.id.starts_with("dq-"), "{}", c.id);
    }
    // The quarantined executions still count in the metrics snapshot.
    assert!(report.stats_json.contains("\"fuzz.crashes\":1"));
    assert!(report.stats_json.contains("\"fuzz.hangs\":1"));
    // The normal findings pipeline was unaffected by the quarantines.
    assert!(report.coverage_bits > 0);
}

#[test]
fn quarantined_findings_replay_from_two_integers() {
    let mut cfg = CampaignConfig::new(23, 6);
    cfg.plant_panic_at = Some(1);
    cfg.plant_hang_at = Some(3);
    let report = Campaign::run(cfg.clone()).unwrap();
    let panic = &report.crashes[0];
    let hang = &report.crashes[1];

    // The hang replays under the same budget and aborts at the same
    // deterministic cycle the campaign recorded.
    let out = ExecContext::new()
        .execute_with_budget(
            &FuzzInput::generate(hang.seed, hang.iteration),
            cfg.watchdog_budget,
        )
        .unwrap();
    match out.status {
        ExecStatus::HangAborted { at_cycles, .. } => {
            assert!(
                hang.detail.contains(&format!("{at_cycles}")),
                "replayed abort cycle {at_cycles} not in detail {:?}",
                hang.detail
            );
        }
        ExecStatus::Completed => panic!("hang replay did not trip the watchdog"),
    }

    // The panic replays too: regenerating from (seed, iteration) yields
    // the same panicking program the campaign contained.
    let input = FuzzInput::generate(panic.seed, panic.iteration);
    assert!(matches!(input.ops.last(), Some(MutationOp::DebugPanic)));
    let caught = std::panic::catch_unwind(|| ExecContext::new().execute(&input));
    assert!(caught.is_err(), "panic replay did not panic");
}

#[test]
fn truncated_newest_generation_falls_back_to_the_previous_one() {
    let dir = tmp("truncate");
    let cfg = killed_campaign(&dir);
    // Torn write: the newest generation is cut mid-payload.
    let newest = newest_slot(&dir);
    let body = std::fs::read_to_string(&newest).unwrap();
    std::fs::write(&newest, &body[..body.len() / 2]).unwrap();

    let mut resumed = Campaign::resume(cfg.clone()).unwrap();
    assert_eq!(resumed.next_iter(), 4, "fell back to the gen-4 checkpoint");
    assert_eq!(resumed.store().unwrap().recovered(), 1);
    resumed.run_to_end().unwrap();
    let json = resumed.finish().unwrap().to_json();
    assert_eq!(json, uninterrupted_json(7, 10));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flipped_checksum_byte_falls_back_to_the_previous_generation() {
    let dir = tmp("bitflip");
    let cfg = killed_campaign(&dir);
    // One flipped payload byte must fail the FNV checksum.
    let newest = newest_slot(&dir);
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&newest, &bytes).unwrap();

    let mut resumed = Campaign::resume(cfg).unwrap();
    assert_eq!(resumed.next_iter(), 4);
    assert_eq!(resumed.store().unwrap().recovered(), 1);
    resumed.run_to_end().unwrap();
    assert_eq!(
        resumed.finish().unwrap().to_json(),
        uninterrupted_json(7, 10)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_skew_is_treated_as_corruption_not_misparse() {
    let dir = tmp("version-skew");
    let cfg = killed_campaign(&dir);
    // A generation stamped by a hypothetical newer build must not be
    // half-understood: it is rejected wholesale and the store falls
    // back, exactly like any other corruption.
    let newest = newest_slot(&dir);
    let body = std::fs::read_to_string(&newest).unwrap();
    assert!(body.contains("\"version\":1"));
    std::fs::write(&newest, body.replace("\"version\":1", "\"version\":99")).unwrap();

    let mut resumed = Campaign::resume(cfg).unwrap();
    assert_eq!(resumed.next_iter(), 4);
    assert_eq!(resumed.store().unwrap().recovered(), 1);
    resumed.run_to_end().unwrap();
    assert_eq!(
        resumed.finish().unwrap().to_json(),
        uninterrupted_json(7, 10)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn both_generations_corrupt_is_a_clean_resume_error() {
    let dir = tmp("both-corrupt");
    let cfg = killed_campaign(&dir);
    for f in SLOT_FILES {
        let p = dir.join(f);
        if p.exists() {
            std::fs::write(&p, "garbage").unwrap();
        }
    }
    assert!(Campaign::resume(cfg).is_err());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_checksummed_generation_with_a_foreign_bucket_bound_is_a_resume_error() {
    let dir = tmp("bucket-bound");
    let cfg = killed_campaign(&dir);
    // A crafted generation: its checksum matches, but a histogram bucket
    // bound of 2^40 names a bucket past the registry's 32.
    let newest = newest_slot(&dir);
    let body = std::fs::read_to_string(&newest).unwrap();
    let at = body.find(",\"payload\":").unwrap() + ",\"payload\":".len();
    let payload = &body[at..body.len() - 1];
    let metrics = payload.find("\"metrics\":").unwrap();
    let bound = metrics + payload[metrics..].find("\"buckets\":[[").unwrap() + 12;
    let bound_end = bound + payload[bound..].find(',').unwrap();
    let crafted = format!(
        "{}{}{}",
        &payload[..bound],
        1u64 << 40,
        &payload[bound_end..]
    );
    let checksum = |p: &str| format!("\"checksum\":\"{:016x}\"", fnv64(p.as_bytes()));
    let header = body[..at].replace(&checksum(payload), &checksum(&crafted));
    std::fs::write(&newest, format!("{header}{crafted}}}")).unwrap();

    let err = Campaign::resume(cfg)
        .err()
        .expect("the crafted generation resumed");
    assert!(err.to_string().contains("malformed"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_and_rng_state_survive_a_resume_byte_identically() {
    let dir = tmp("journal");
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = CampaignConfig::new(11, 9);
    cfg.checkpoint_dir = Some(dir.clone());
    cfg.checkpoint_every = 4;

    let mut doomed = Campaign::new(cfg.clone()).unwrap();
    doomed.run_until(6).unwrap();
    drop(doomed);

    let mut resumed = Campaign::resume(cfg.clone()).unwrap();
    assert_eq!(resumed.next_iter(), 4);
    resumed.run_to_end().unwrap();

    let mut control = Campaign::new(CampaignConfig::new(11, 9)).unwrap();
    control.run_to_end().unwrap();

    // The snapshot payload captures *everything* — journal ring,
    // eviction count, DetRng position, metrics, series — so comparing
    // payloads proves the resumed campaign's internal state, not just
    // its report, reconverged exactly.
    assert_eq!(resumed.snapshot_payload(), control.snapshot_payload());
    let _ = std::fs::remove_dir_all(&dir);
}
