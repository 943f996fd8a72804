//! Sharded campaigns: N independent seeded shards across T OS threads,
//! merged into one deterministic [`FuzzReport`].
//!
//! Every piece of mutable simulator state is already shard-local — a
//! [`Campaign`] owns its own machine (memory, IOMMU domain, rings,
//! driver), its own metrics registry, corpus, and RNG stream — so a
//! shard is simply a campaign running under the derived seed
//! `shard_seed(base, shard_id)` ([`dma_core::shard_seed`]). Shard 0
//! keeps the base seed unchanged, which makes a 1-shard sharded run
//! byte-identical to the legacy single-campaign engine.
//!
//! The merge is a pure function of the per-shard outcomes taken in
//! shard-id order, never in thread-completion order, so the merged
//! report is **byte-identical regardless of the thread count**:
//!
//! - counters (`execs`, `minimize_execs`, `delivered`, `dropped`,
//!   `total_cycles`, `trace_dropped`) are sums;
//! - coverage maps are bitwise OR-ed;
//! - corpora concatenate in shard order, deduped by coverage signature
//!   (first shard to discover a signature keeps it);
//! - findings concatenate in shard order, deduped by
//!   [`FuzzFinding::key`]; crash findings concatenate (their `dq-…` ids
//!   embed the shard seed, so they never collide);
//! - the series keeps shard 0's curve and appends one milestone point
//!   per additional shard (global iteration index, merged bits, merged
//!   corpus size, cumulative simulated cycles);
//! - metrics snapshots fold with [`Snapshot::merge`] (deterministic
//!   counter/histogram addition).
//!
//! Checkpointing nests one two-generation store per shard under
//! `checkpoint_dir/shard-NNNN/`
//! ([`dma_core::checkpoint::shard_dir`]); [`ShardedCampaign::resume`]
//! restores every shard that managed to persist a generation and
//! re-runs the rest from scratch, landing on the same merged bytes as
//! an uninterrupted run.

use std::collections::BTreeSet;
use std::path::PathBuf;

use dma_core::checkpoint::shard_dir;
use dma_core::{shard_seed, CheckpointStore, CoverageMap, DmaError, Result, Snapshot};

use crate::campaign::{Campaign, CampaignConfig};
use crate::exec::DEFAULT_WATCHDOG_BUDGET;
use crate::input::FuzzInput;
use crate::report::{FuzzReport, SeriesPoint};
use crate::Corpus;

/// Configuration of a sharded campaign.
#[derive(Clone, Debug)]
pub struct ShardConfig {
    /// Base seed; shard `i` runs under `shard_seed(seed, i)`.
    pub seed: u64,
    /// Iteration budget **per shard** (total execs = `shards * iters`).
    pub iters: u64,
    /// Number of independent shards.
    pub shards: u32,
    /// OS threads to spread the shards over (clamped to ≥ 1; the merge
    /// is thread-count-agnostic).
    pub threads: usize,
    /// Merged corpus/quarantine output directory.
    pub corpus_dir: Option<PathBuf>,
    /// Base checkpoint directory; shard `i` checkpoints under
    /// `shard-NNNN/` inside it.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint cadence per shard; 0 disables periodic saves.
    pub checkpoint_every: u64,
    /// Per-exec watchdog budget in simulated cycles.
    pub watchdog_budget: u64,
    /// Restrict every shard to one machine configuration (the
    /// `dma-lab fuzz --config` path).
    pub only_config: Option<u8>,
}

impl ShardConfig {
    /// A plain sharded campaign: no checkpoints, no output dirs.
    pub fn new(seed: u64, iters: u64, shards: u32, threads: usize) -> ShardConfig {
        ShardConfig {
            seed,
            iters,
            shards,
            threads,
            corpus_dir: None,
            checkpoint_dir: None,
            checkpoint_every: 0,
            watchdog_budget: DEFAULT_WATCHDOG_BUDGET,
            only_config: None,
        }
    }
}

/// Everything one shard hands to the merge: its report plus the raw
/// coverage map and metrics snapshot the report's scalar fields were
/// rendered from (the merge needs the structures, not the renderings).
pub struct ShardOutcome {
    /// Shard index (merge key — outcomes are sorted by it).
    pub shard_id: u32,
    /// The shard's own finished report.
    pub report: FuzzReport,
    /// The shard's final global coverage map.
    pub coverage: CoverageMap,
    /// The shard's final metrics snapshot.
    pub snapshot: Snapshot,
}

/// The sharded campaign driver. See the module docs for the model.
pub struct ShardedCampaign {
    cfg: ShardConfig,
}

impl ShardedCampaign {
    /// A sharded campaign over `cfg` (validated at run time).
    pub fn new(cfg: ShardConfig) -> ShardedCampaign {
        ShardedCampaign { cfg }
    }

    /// The configuration this sharded campaign runs under.
    pub fn config(&self) -> &ShardConfig {
        &self.cfg
    }

    /// The [`CampaignConfig`] shard `shard_id` runs under: derived
    /// seed, per-shard checkpoint subdirectory, no direct corpus dir
    /// (the merge writes corpus and quarantine files once, centrally).
    pub fn shard_campaign_config(&self, shard_id: u32) -> CampaignConfig {
        CampaignConfig {
            seed: shard_seed(self.cfg.seed, shard_id),
            iters: self.cfg.iters,
            corpus_dir: None,
            checkpoint_dir: self
                .cfg
                .checkpoint_dir
                .as_ref()
                .map(|base| shard_dir(base, shard_id)),
            checkpoint_every: self.cfg.checkpoint_every,
            watchdog_budget: self.cfg.watchdog_budget,
            plant_panic_at: None,
            plant_hang_at: None,
            only_config: self.cfg.only_config,
        }
    }

    /// Runs every shard from iteration 0 and merges.
    pub fn run(&self) -> Result<FuzzReport> {
        let outcomes = self.run_shards(false)?;
        self.merge(outcomes)
    }

    /// Resumes every shard from its newest valid checkpoint generation
    /// (shards without one restart from iteration 0) and merges. The
    /// base seed is the campaign's, not the configured one: shard 0 runs
    /// under the base seed, so its newest generation names it. Only when
    /// shard 0 has no generation does the configured seed stand.
    pub fn resume(&self) -> Result<FuzzReport> {
        let seed = match &self.cfg.checkpoint_dir {
            Some(base) => CheckpointStore::open(shard_dir(base, 0))?.load()?,
            None => None,
        }
        .and_then(|newest| newest.payload.u64_field("seed"));
        let resumed = ShardedCampaign::new(ShardConfig {
            seed: seed.unwrap_or(self.cfg.seed),
            ..self.cfg.clone()
        });
        let outcomes = resumed.run_shards(true)?;
        resumed.merge(outcomes)
    }

    /// Runs the shards across the configured thread count and returns
    /// their outcomes sorted by shard id. Exposed (next to
    /// [`ShardedCampaign::merge`]) so the scale bench can time the
    /// execution and merge phases separately.
    pub fn run_shards(&self, resume: bool) -> Result<Vec<ShardOutcome>> {
        if self.cfg.shards == 0 {
            return Err(DmaError::Invariant("sharded campaign needs >= 1 shard"));
        }
        let threads = self.cfg.threads.max(1).min(self.cfg.shards as usize);
        let mut outcomes: Vec<ShardOutcome> = if threads == 1 {
            (0..self.cfg.shards)
                .map(|id| self.run_one_shard(id, resume))
                .collect::<Result<_>>()?
        } else {
            // Round-robin shard ids over the workers; each worker runs
            // its shards in ascending order. The assignment only
            // affects scheduling — outcomes are re-sorted by shard id
            // before the merge, so T never reaches the bytes.
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|t| {
                        scope.spawn(move || {
                            (t as u32..self.cfg.shards)
                                .step_by(threads)
                                .map(|id| self.run_one_shard(id, resume))
                                .collect::<Result<Vec<_>>>()
                        })
                    })
                    .collect();
                let mut all = Vec::with_capacity(self.cfg.shards as usize);
                for h in handles {
                    let batch = h
                        .join()
                        .map_err(|_| DmaError::Invariant("shard worker thread panicked"))?;
                    all.extend(batch?);
                }
                Ok::<_, DmaError>(all)
            })?
        };
        outcomes.sort_by_key(|o| o.shard_id);
        Ok(outcomes)
    }

    fn run_one_shard(&self, shard_id: u32, resume: bool) -> Result<ShardOutcome> {
        let cfg = self.shard_campaign_config(shard_id);
        let mut c = if resume && cfg.checkpoint_dir.is_some() {
            match Campaign::resume(cfg.clone()) {
                // Shard 0 lost its generations and the configured seed is
                // not the campaign's: never merge two campaigns.
                Ok(c) if c.config().seed != cfg.seed => {
                    return Err(DmaError::Invariant("shard checkpoint is from another seed"))
                }
                Ok(c) => c,
                // A shard that never persisted a generation (killed
                // before its first cadence) restarts from scratch.
                Err(DmaError::Invariant("no valid checkpoint to resume from")) => {
                    Campaign::new(cfg)?
                }
                Err(e) => return Err(e),
            }
        } else {
            Campaign::new(cfg)?
        };
        c.run_to_end()?;
        let coverage = c.state().global.clone();
        let snapshot = c.state().metrics.snapshot(c.state().total_cycles);
        let report = c.finish()?;
        Ok(ShardOutcome {
            shard_id,
            report,
            coverage,
            snapshot,
        })
    }

    /// Folds shard outcomes (must be sorted by shard id) into the
    /// merged report, then writes the merged corpus and quarantine
    /// files when a corpus dir is configured. Pure in the outcomes:
    /// byte-identical output for any thread count.
    pub fn merge(&self, outcomes: Vec<ShardOutcome>) -> Result<FuzzReport> {
        let mut it = outcomes.into_iter();
        let first = it
            .next()
            .ok_or(DmaError::Invariant("nothing to merge: no shard outcomes"))?;
        let mut coverage = first.coverage;
        let mut snapshot = first.snapshot;
        let mut merged = first.report;
        merged.seed = self.cfg.seed;
        let mut signatures: BTreeSet<u64> = merged.corpus.iter().map(|e| e.signature).collect();
        let mut seen_keys: BTreeSet<String> = merged.findings.iter().map(|f| f.key()).collect();
        for o in it {
            coverage.merge(&o.coverage);
            snapshot.merge(&o.snapshot);
            merged.iters += o.report.iters;
            merged.execs += o.report.execs;
            merged.minimize_execs += o.report.minimize_execs;
            merged.delivered += o.report.delivered;
            merged.dropped += o.report.dropped;
            merged.total_cycles += o.report.total_cycles;
            merged.trace_dropped += o.report.trace_dropped;
            merged.profile.merge(&o.report.profile);
            for e in o.report.corpus {
                if signatures.insert(e.signature) {
                    merged.corpus.push(e);
                }
            }
            for f in o.report.findings {
                if seen_keys.insert(f.key()) {
                    merged.findings.push(f);
                }
            }
            merged.crashes.extend(o.report.crashes);
            // One milestone point per extra shard keeps the merged
            // series monotone in global iterations without interleaving
            // per-shard curves (which would depend on nothing the
            // reader can replay).
            if self.cfg.iters > 0 {
                merged.series.push(SeriesPoint {
                    iteration: u64::from(o.shard_id + 1) * self.cfg.iters - 1,
                    coverage_bits: coverage.count_ones(),
                    corpus_size: merged.corpus.len(),
                    sim_cycles: merged.total_cycles,
                });
            }
        }
        merged.coverage_bits = coverage.count_ones();
        merged.stats_json = snapshot.to_json();
        if let Some(dir) = &self.cfg.corpus_dir {
            Corpus::restore(merged.corpus.clone())
                .write_to_dir(dir)
                .map_err(|_| DmaError::Invariant("corpus dir not writable"))?;
            if !merged.crashes.is_empty() {
                let qdir = dir.join("quarantine");
                std::fs::create_dir_all(&qdir)
                    .map_err(|_| DmaError::Invariant("quarantine dir not writable"))?;
                for c in &merged.crashes {
                    // (seed, iteration) regenerates the exact offending
                    // program, flag bits included.
                    let input = FuzzInput::generate(c.seed, c.iteration);
                    std::fs::write(qdir.join(format!("{}.json", c.id)), c.to_json(&input))
                        .map_err(|_| DmaError::Invariant("quarantine dir not writable"))?;
                }
            }
        }
        Ok(merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_shards_is_rejected() {
        let sc = ShardedCampaign::new(ShardConfig::new(7, 4, 0, 1));
        assert!(sc.run().is_err());
    }

    #[test]
    fn shard_zero_runs_under_the_base_seed() {
        let sc = ShardedCampaign::new(ShardConfig::new(7, 4, 3, 1));
        assert_eq!(sc.shard_campaign_config(0).seed, 7);
        assert_ne!(sc.shard_campaign_config(1).seed, 7);
        assert_ne!(
            sc.shard_campaign_config(1).seed,
            sc.shard_campaign_config(2).seed
        );
    }

    #[test]
    fn merged_counters_are_sums_and_coverage_is_a_union() {
        let one = ShardedCampaign::new(ShardConfig::new(7, 6, 1, 1))
            .run()
            .unwrap();
        let four = ShardedCampaign::new(ShardConfig::new(7, 6, 4, 1))
            .run()
            .unwrap();
        assert_eq!(four.iters, 24);
        assert_eq!(four.execs, 24);
        assert!(four.total_cycles > one.total_cycles);
        // Shard 0 of the 4-shard run IS the 1-shard run; the union can
        // only grow from there.
        assert!(four.coverage_bits >= one.coverage_bits);
        assert!(four.corpus.len() >= one.corpus.len());
    }

    #[test]
    fn merge_is_thread_count_agnostic() {
        let a = ShardedCampaign::new(ShardConfig::new(11, 4, 3, 1))
            .run()
            .unwrap();
        let b = ShardedCampaign::new(ShardConfig::new(11, 4, 3, 3))
            .run()
            .unwrap();
        assert_eq!(a.to_json(), b.to_json());
    }
}
