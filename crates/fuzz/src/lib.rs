//! # `fuzz` — deterministic coverage-guided DMA-input fuzzing
//!
//! This crate closes the loop the paper opens: if sub-page DMA
//! vulnerabilities (§3) arise from mapping layouts and unmap/invalidate
//! orderings, then a fuzzer that *drives the device side* of the
//! simulated stack — depositing adversarial frames, tampering with
//! `skb_shared_info`, firing writes inside the §5.2 time windows — and
//! uses D-KASAN as its oracle should rediscover the Figure-1 classes
//! without being told where they are.
//!
//! Everything is deterministic:
//!
//! * an input is a pure function of `(seed, iteration)` ([`FuzzInput`]);
//! * execution runs on the simulated clock, so cycle counts and the
//!   coverage-over-time series are identical across runs;
//! * one executor, [`ExecContext`], runs every input on a clone of a
//!   booted machine template; a fresh context and a long-lived one give
//!   the same outcome, so an input never depends on what ran before it;
//! * coverage is a fixed-size bitmap ([`CoverageMap`]) fed only from
//!   deterministic observations (trace-event shapes, fault sites,
//!   D-KASAN classes, taxonomy letters, window paths);
//! * the corpus admits by coverage novelty, dedups by signature, and
//!   minimizes by signature-preserving op removal.
//!
//! Any finding is therefore replayable from two integers:
//! [`replay`]`(seed, iteration)` re-executes bit for bit.
//!
//! The [`campaign`] module wraps the loop in the crash-safety model
//! (DESIGN.md §11): periodic checkpoints through a two-generation A/B
//! store ([`snapshot`] is the codec), `catch_unwind` panic isolation
//! with quarantine, and a deterministic simulated-cycle watchdog. The
//! [`resilience`] module is the kill-and-resume harness proving a
//! resumed campaign's report is byte-identical to an uninterrupted
//! one's.

pub mod campaign;
pub mod corpus;
pub mod exec;
pub mod forensics;
pub mod input;
pub mod report;
pub mod resilience;
pub mod shard;
pub mod snapshot;

pub use campaign::{
    crash_id, silence_quarantined_panics, Campaign, CampaignConfig, CampaignEvent, CampaignState,
    CrashFinding, CrashKind, JOURNAL_CAPACITY,
};
pub use corpus::{Corpus, CorpusEntry};
pub use exec::{
    config_device, config_name, machine_config, parse_config, taxonomy_of, ExecContext,
    ExecOutcome, ExecStatus, ForensicRun, FuzzFinding, DEFAULT_WATCHDOG_BUDGET,
    EXEC_RECORDER_CAPACITY, SPIN_COST,
};
pub use forensics::{run_forensics, ForensicsCase, ForensicsReport};
pub use input::{
    FuzzInput, MutationOp, FAULT_GLOBS, MAX_OPS, NUM_CONFIGS, PLANT_HANG_BIT, PLANT_HANG_SPINS,
    PLANT_PANIC_BIT,
};
pub use report::{FuzzReport, SeriesPoint};
pub use resilience::{kill_and_resume, KillResumeOutcome};
pub use shard::{ShardConfig, ShardOutcome, ShardedCampaign};

pub use dma_infer::{ChannelInference, ChannelKind, ChannelMap};

use devsim::{boot_model, BootSpec};
use dma_core::Result;
use std::path::PathBuf;

/// Configuration for one fuzzing run.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Run seed; every input derives from this plus its iteration.
    pub seed: u64,
    /// Iteration budget.
    pub iters: u64,
    /// When set, admitted corpus entries are written here as JSON.
    pub corpus_dir: Option<PathBuf>,
}

/// Runs the canonical inference workload against one machine
/// configuration and returns the inferred [`ChannelMap`].
///
/// The machine boots with the trace enabled *before* boot
/// ([`BootSpec::TracedBoot`]) so ring population and control-block
/// mappings are in the stream, then runs a fixed device-agnostic
/// exercise: a burst of deliveries (recycling ring slots and exposing
/// lifetimes), a time tick, honest IO completion, a tick past the
/// deferred-flush horizon, and a full teardown (bounding every
/// lifetime). Everything is a pure function of `(seed, config_id)`;
/// [`ChannelMap::to_json`] is byte-identical across runs and CI pins
/// it.
pub fn infer_channels(seed: u64, config_id: u8) -> Result<ChannelMap> {
    let mut model = boot_model(machine_config(config_id, seed), BootSpec::TracedBoot)?;
    for i in 0..24u64 {
        model.deliver(48 + (i as usize % 7) * 96, i as u8)?;
    }
    model.tick_ms(2);
    model.complete_io()?;
    model.tick_ms(11);
    model.teardown()?;
    let events = model.sim().trace.drain();
    let mut inference = ChannelInference::new();
    inference.observe_all(&events);
    Ok(inference.channel_map())
}

/// Re-executes the input for `(seed, iteration)` on a fresh
/// [`ExecContext`] — the replay half of the "replayable from two
/// integers" contract.
pub fn replay(seed: u64, iteration: u64) -> Result<ExecOutcome> {
    ExecContext::new().execute(&FuzzInput::generate(seed, iteration))
}

/// Runs the fuzzing loop: generate, execute, merge coverage, admit to
/// the corpus, record findings. Returns the full [`FuzzReport`].
///
/// This is the plain front-end over the crash-safe [`Campaign`] engine
/// — no checkpoints, no planted inputs, default watchdog. Output is
/// byte-identical to the historical standalone loop.
pub fn run_fuzz(cfg: &FuzzConfig) -> Result<FuzzReport> {
    let mut ccfg = CampaignConfig::new(cfg.seed, cfg.iters);
    ccfg.corpus_dir = cfg.corpus_dir.clone();
    Campaign::run(ccfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_runs_same_seed_are_identical() {
        let cfg = FuzzConfig {
            seed: 11,
            iters: 8,
            corpus_dir: None,
        };
        let a = run_fuzz(&cfg).unwrap();
        let b = run_fuzz(&cfg).unwrap();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.series_json(), b.series_json());
        assert_eq!(a.stats_json, b.stats_json);
    }

    #[test]
    fn replay_reproduces_the_recorded_signature() {
        let cfg = FuzzConfig {
            seed: 11,
            iters: 8,
            corpus_dir: None,
        };
        let report = run_fuzz(&cfg).unwrap();
        assert!(!report.corpus.is_empty());
        let e = &report.corpus[0];
        // Replay regenerates the *original* (un-minimized) input; its
        // signature matches what the corpus recorded on admission.
        let out = replay(e.seed, e.iteration).unwrap();
        assert_eq!(out.signature, e.signature);
    }

    #[test]
    fn coverage_grows_monotonically_in_the_series() {
        let cfg = FuzzConfig {
            seed: 3,
            iters: 12,
            corpus_dir: None,
        };
        let report = run_fuzz(&cfg).unwrap();
        let mut prev = 0;
        for p in &report.series {
            assert!(p.coverage_bits >= prev);
            prev = p.coverage_bits;
        }
        assert!(report.coverage_bits > 0);
        assert_eq!(report.execs, 12);
    }
}
