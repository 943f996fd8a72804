//! The crash-safe campaign engine.
//!
//! [`Campaign`] owns everything the plain fuzzing loop used to keep in
//! locals — the global coverage map, corpus, metrics registry, finding
//! sets, series, and a campaign-level [`DetRng`] — as one
//! checkpointable [`CampaignState`]. Around each execution it adds the
//! three robustness layers of the crash-safety model (DESIGN.md §11):
//!
//! 1. **Checkpoint/resume** — every `checkpoint_every` iterations the
//!    state is serialized ([`crate::snapshot`]) and persisted through a
//!    [`CheckpointStore`]'s two-generation A/B scheme. A campaign
//!    resumed from the last good generation replays the lost tail
//!    deterministically, so its final report is byte-identical to an
//!    uninterrupted run.
//! 2. **Panic isolation** — each exec runs under `catch_unwind`; a
//!    panicking input becomes a [`CrashFinding`] with a stable `dq-…`
//!    id, its program is quarantined under `corpus_dir/quarantine/`,
//!    and the campaign keeps going.
//! 3. **Deterministic watchdogs** — each exec carries a simulated-cycle
//!    budget ([`crate::exec::DEFAULT_WATCHDOG_BUDGET`]); a runaway
//!    input is aborted at a replayable cycle and quarantined as a hang.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use dkasan::stable_id;
use dma_core::checkpoint::intern;
use dma_core::jsonw::JsonWriter;
use dma_core::{
    CheckpointStore, CoverageMap, DetRng, DmaError, Event, FlightRecorder, Metrics, Profile, Result,
};

use crate::exec::{ExecContext, ExecStatus, FuzzFinding, DEFAULT_WATCHDOG_BUDGET};
use crate::input::{FuzzInput, PLANT_HANG_BIT, PLANT_PANIC_BIT};
use crate::report::{FuzzReport, SeriesPoint};
use crate::snapshot;
use crate::Corpus;

/// Capacity of the campaign journal ring: big enough for the admission
/// and quarantine history of realistic budgets, small enough that a
/// soak exercises eviction (the evicted count rides along in every
/// checkpoint, so `trace.dropped`-style accounting survives a resume).
pub const JOURNAL_CAPACITY: usize = 256;

std::thread_local! {
    /// True while this thread is inside a guarded (quarantinable)
    /// execution — the window the quiet panic hook silences.
    static IN_GUARDED_EXEC: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Installs a process-wide panic hook that silences the default
/// "thread panicked at …" + backtrace spew for panics the campaign is
/// about to contain and quarantine. Panics outside a guarded execution
/// still reach the previous hook untouched.
///
/// Called once by the CLI front-end; library users who want raw hook
/// output (e.g. the test harness) simply never call it.
pub fn silence_quarantined_panics() {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !IN_GUARDED_EXEC.with(|f| f.get()) {
            default_hook(info);
        }
    }));
}

/// What kind of execution failure a quarantined input caused.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashKind {
    /// The executor panicked; `catch_unwind` contained it.
    Panic,
    /// The deterministic watchdog aborted the run at its cycle budget.
    Hang,
}

impl CrashKind {
    /// Stable tag used in ids, metrics, and JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            CrashKind::Panic => "panic",
            CrashKind::Hang => "hang",
        }
    }
}

/// A quarantined execution, reported as a first-class finding. The
/// `(seed, iteration)` pair replays it — `iteration` keeps any planted
/// flag bits, so replay regenerates the exact offending input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CrashFinding {
    /// Stable id: `stable_id("dq", kind ++ seed ++ iteration)`.
    pub id: String,
    /// Panic or hang.
    pub kind: CrashKind,
    /// Run seed (replay key, with `iteration`).
    pub seed: u64,
    /// Full iteration value, including planted flag bits.
    pub iteration: u64,
    /// Human-readable cause (panic message / watchdog cycle count).
    pub detail: String,
}

impl CrashFinding {
    /// The quarantine-file rendering: id, replay key, cause, and the
    /// offending program.
    pub fn to_json(&self, input: &FuzzInput) -> String {
        let mut w = JsonWriter::new();
        w.obj(|w| {
            w.field_str("id", &self.id);
            w.field_str("kind", self.kind.as_str());
            w.field_u64("seed", self.seed);
            w.field_u64("iteration", self.iteration);
            w.field_str("detail", &self.detail);
            w.field("program", |w| {
                w.arr(|w| {
                    for op in &input.ops {
                        w.elem(|w| w.str(&op.describe()));
                    }
                });
            });
        });
        w.finish()
    }
}

/// One live campaign occurrence, published on the event bus the moment
/// it happens. `dma-lab serve` drains these between steps and streams
/// them to clients as finding/health frames — the push-side complement
/// of the pull-side metrics snapshots. Events are *transient*: they are
/// not part of [`CampaignState`] and never enter a checkpoint (the
/// durable record of the same occurrences is the journal, findings, and
/// crash lists), so adding or draining them cannot perturb resume
/// byte-identity.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CampaignEvent {
    /// A new class-deduped finding entered the finding set.
    Finding {
        /// Iteration of first discovery.
        iteration: u64,
        /// Stable `dk-…` id (oracle-backed or observation-derived).
        id: String,
        /// Figure-1 taxonomy letter (`a`–`d`).
        taxonomy: char,
        /// D-KASAN class name, or `device-write` for oracle-less
        /// tampered-field observations.
        class: String,
        /// Site tag or tampered field name.
        site: String,
        /// §5.2 window path, when one applies.
        window: Option<String>,
    },
    /// An execution was contained and quarantined.
    Quarantine {
        /// Iteration (including planted flag bits — the replay key).
        iteration: u64,
        /// Stable `dq-…` id.
        id: String,
        /// Panic or hang.
        kind: CrashKind,
        /// Human-readable cause.
        detail: String,
    },
    /// Global coverage grew at this iteration.
    CoverageGrew {
        /// Iteration where the growth happened.
        iteration: u64,
        /// New global coverage bit count.
        bits: usize,
        /// Corpus size after admission.
        corpus: usize,
    },
    /// A checkpoint generation was persisted.
    Checkpoint {
        /// `next_iter` captured by the checkpoint.
        iteration: u64,
        /// Store sequence number of the generation.
        sequence: u64,
    },
}

/// Derives the stable `dq-…` id of a crash/hang finding.
pub fn crash_id(kind: CrashKind, seed: u64, iteration: u64) -> String {
    stable_id(
        "dq",
        &[
            kind.as_str().as_bytes(),
            &seed.to_le_bytes(),
            &iteration.to_le_bytes(),
        ],
    )
}

/// Configuration of one campaign (a superset of the plain
/// [`crate::FuzzConfig`]).
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Run seed.
    pub seed: u64,
    /// Iteration budget.
    pub iters: u64,
    /// Corpus (and quarantine) output directory.
    pub corpus_dir: Option<PathBuf>,
    /// Checkpoint directory (A/B generations live here).
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint cadence in iterations; 0 disables periodic saves.
    pub checkpoint_every: u64,
    /// Per-exec watchdog budget in simulated cycles.
    pub watchdog_budget: u64,
    /// Plant the panicking input at this iteration (testing/CI).
    pub plant_panic_at: Option<u64>,
    /// Plant the runaway input at this iteration (testing/CI).
    pub plant_hang_at: Option<u64>,
    /// Restrict the campaign to one machine configuration: every
    /// generated input's `config_id` is overridden to this row of the
    /// device×mode matrix (the `dma-lab fuzz --config` path).
    pub only_config: Option<u8>,
}

impl CampaignConfig {
    /// A plain campaign: no checkpoints, no planted inputs, default
    /// watchdog.
    pub fn new(seed: u64, iters: u64) -> CampaignConfig {
        CampaignConfig {
            seed,
            iters,
            corpus_dir: None,
            checkpoint_dir: None,
            checkpoint_every: 0,
            watchdog_budget: DEFAULT_WATCHDOG_BUDGET,
            plant_panic_at: None,
            plant_hang_at: None,
            only_config: None,
        }
    }
}

/// Everything a campaign accumulates — exactly what a checkpoint
/// captures and a resume restores.
pub struct CampaignState {
    /// Next iteration to execute.
    pub next_iter: u64,
    /// Global coverage map.
    pub global: CoverageMap,
    /// Admitted corpus.
    pub corpus: Corpus,
    /// Campaign metrics registry.
    pub metrics: Metrics,
    /// Class-deduped findings in first-discovery order.
    pub findings: Vec<FuzzFinding>,
    /// Finding keys already seen (rebuilt from `findings` on restore).
    pub seen_keys: BTreeSet<String>,
    /// Quarantined crash/hang findings.
    pub crashes: Vec<CrashFinding>,
    /// Coverage-over-time series.
    pub series: Vec<SeriesPoint>,
    /// Extra executions spent minimizing.
    pub minimize_execs: u64,
    /// Packets delivered/echoed.
    pub delivered: u64,
    /// Tolerated drops.
    pub dropped: u64,
    /// Accumulated simulated cycles.
    pub total_cycles: u64,
    /// Per-exec recorder evictions, summed.
    pub trace_dropped: u64,
    /// Merged cycle-attribution profile of every admitted execution
    /// (minimization execs inside the corpus are not folded in). Rides
    /// in checkpoints, so a resumed campaign's profile stays
    /// byte-identical to an uninterrupted run's.
    pub profile: Profile,
    /// Campaign-level RNG; advanced exactly once per iteration, its
    /// position rides in every checkpoint so a resumed journal stays
    /// bit-identical.
    pub rng: DetRng,
    /// The campaign journal: admissions, quarantines, and sampled
    /// heartbeats in a bounded flight-recorder ring.
    pub journal: FlightRecorder,
}

impl CampaignState {
    /// Fresh state for a seed.
    pub fn new(seed: u64) -> CampaignState {
        CampaignState {
            next_iter: 0,
            global: CoverageMap::new(),
            corpus: Corpus::new(),
            metrics: Metrics::new(),
            findings: Vec::new(),
            seen_keys: BTreeSet::new(),
            crashes: Vec::new(),
            series: Vec::new(),
            minimize_execs: 0,
            delivered: 0,
            dropped: 0,
            total_cycles: 0,
            trace_dropped: 0,
            profile: Profile::new(),
            rng: DetRng::new(seed ^ 0xca_a1_90_01),
            journal: FlightRecorder::new(JOURNAL_CAPACITY),
        }
    }
}

/// The crash-safe campaign engine. See the module docs for the model.
pub struct Campaign {
    cfg: CampaignConfig,
    store: Option<CheckpointStore>,
    state: CampaignState,
    /// Transient event bus (see [`CampaignEvent`]); not checkpointed.
    bus: Vec<CampaignEvent>,
    /// Execution context: cached boot templates plus a scratch input
    /// buffer. Pure cache — never checkpointed, and its executions are
    /// outcome-identical to a fresh context's, so resume byte-identity
    /// is unaffected.
    exec_cx: ExecContext,
    /// Newest persisted checkpoint as `(sequence, at_iteration)` —
    /// the health-frame "checkpoint age" source.
    last_checkpoint: Option<(u64, u64)>,
}

impl Campaign {
    /// A fresh campaign. Opens (and creates) the checkpoint store when
    /// a checkpoint directory is configured.
    pub fn new(cfg: CampaignConfig) -> Result<Campaign> {
        let store = match &cfg.checkpoint_dir {
            Some(dir) => Some(CheckpointStore::open(dir)?),
            None => None,
        };
        let state = CampaignState::new(cfg.seed);
        Ok(Campaign {
            cfg,
            store,
            state,
            bus: Vec::new(),
            exec_cx: ExecContext::new(),
            last_checkpoint: None,
        })
    }

    /// Resumes from the newest valid checkpoint generation under
    /// `cfg.checkpoint_dir`. The snapshot's seed is authoritative: a
    /// mismatched `cfg.seed` is overridden so the resumed stream stays
    /// coherent.
    pub fn resume(mut cfg: CampaignConfig) -> Result<Campaign> {
        let dir = cfg
            .checkpoint_dir
            .clone()
            .ok_or(DmaError::Invariant("resume needs a checkpoint dir"))?;
        let mut store = CheckpointStore::open(dir)?;
        let loaded = store
            .load()?
            .ok_or(DmaError::Invariant("no valid checkpoint to resume from"))?;
        let (seed, state) = snapshot::restore(&loaded.payload)
            .ok_or(DmaError::Invariant("checkpoint payload malformed"))?;
        cfg.seed = seed;
        let last_checkpoint = Some((loaded.sequence, state.next_iter));
        Ok(Campaign {
            cfg,
            store: Some(store),
            state,
            bus: Vec::new(),
            exec_cx: ExecContext::new(),
            last_checkpoint,
        })
    }

    /// The configuration this campaign runs under.
    pub fn config(&self) -> &CampaignConfig {
        &self.cfg
    }

    /// Next iteration to execute (what a checkpoint would resume at).
    pub fn next_iter(&self) -> u64 {
        self.state.next_iter
    }

    /// The live state (tests inspect journal/metrics through this).
    pub fn state(&self) -> &CampaignState {
        &self.state
    }

    /// The checkpoint store, when one is configured.
    pub fn store(&self) -> Option<&CheckpointStore> {
        self.store.as_ref()
    }

    /// Swaps in a restored state (the snapshot tests' transplant hook;
    /// production resumes go through [`Campaign::resume`]).
    pub fn replace_state_for_tests(&mut self, state: CampaignState) {
        self.state = state;
    }

    /// Serializes the current state (the checkpoint payload bytes).
    pub fn snapshot_payload(&self) -> String {
        snapshot::capture(self.cfg.seed, &self.state)
    }

    /// Writes a checkpoint now; returns its sequence number.
    pub fn checkpoint_now(&mut self) -> Result<u64> {
        let payload = snapshot::capture(self.cfg.seed, &self.state);
        match self.store.as_mut() {
            Some(store) => {
                let sequence = store.save(&payload)?;
                self.last_checkpoint = Some((sequence, self.state.next_iter));
                self.bus.push(CampaignEvent::Checkpoint {
                    iteration: self.state.next_iter,
                    sequence,
                });
                Ok(sequence)
            }
            None => Err(DmaError::Invariant("no checkpoint dir configured")),
        }
    }

    /// Drains the transient event bus: everything published since the
    /// previous drain, in occurrence order.
    pub fn drain_events(&mut self) -> Vec<CampaignEvent> {
        std::mem::take(&mut self.bus)
    }

    /// Newest persisted checkpoint as `(sequence, at_iteration)`;
    /// `None` until the first save (or resume).
    pub fn last_checkpoint(&self) -> Option<(u64, u64)> {
        self.last_checkpoint
    }

    /// Executes one iteration; returns `false` once the budget is
    /// exhausted. Panics and watchdog aborts are converted into
    /// quarantined [`CrashFinding`]s; the campaign keeps running.
    pub fn step(&mut self) -> Result<bool> {
        let it = self.state.next_iter;
        if it >= self.cfg.iters {
            return Ok(false);
        }
        // One RNG draw per iteration — the "DetRng position" every
        // checkpoint captures — samples a journal heartbeat so long
        // campaigns exercise ring eviction deterministically.
        if self.state.rng.below(8) == 0 {
            self.state.journal.push(Event::FaultInjected {
                at: it,
                site: intern("campaign.tick"),
            });
        }
        let gen_it = if self.cfg.plant_panic_at == Some(it) {
            it | PLANT_PANIC_BIT
        } else if self.cfg.plant_hang_at == Some(it) {
            it | PLANT_HANG_BIT
        } else {
            it
        };
        let mut input = FuzzInput::generate(self.cfg.seed, gen_it);
        if let Some(c) = self.cfg.only_config {
            input.config_id = c;
        }
        let budget = self.cfg.watchdog_budget;
        // Boot templates live outside the unwind scope and are only ever
        // cloned, so a contained panic cannot poison them; the scratch
        // buffer resets on next use.
        let cx = &mut self.exec_cx;
        IN_GUARDED_EXEC.with(|f| f.set(true));
        let guarded = catch_unwind(AssertUnwindSafe(|| cx.execute_with_budget(&input, budget)));
        IN_GUARDED_EXEC.with(|f| f.set(false));
        match guarded {
            Err(payload) => {
                let detail = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "opaque panic payload".to_string());
                self.quarantine(CrashKind::Panic, gen_it, detail, &input)?;
            }
            Ok(Err(e)) => return Err(e),
            Ok(Ok(out)) => match out.status {
                ExecStatus::HangAborted {
                    at_cycles,
                    after_op,
                } => {
                    let detail = format!(
                        "watchdog abort at {at_cycles} simulated cycles \
                         (budget {budget}) after op {after_op}"
                    );
                    self.quarantine(CrashKind::Hang, gen_it, detail, &input)?;
                }
                ExecStatus::Completed => {
                    self.admit(it, &input, &out)?;
                }
            },
        }
        self.state.next_iter = it + 1;
        if self.cfg.checkpoint_every > 0
            && self.store.is_some()
            && (it + 1).is_multiple_of(self.cfg.checkpoint_every)
        {
            self.checkpoint_now()?;
        }
        Ok(true)
    }

    /// The normal (completed-exec) bookkeeping path. Field-for-field
    /// the same sequence as the historical `run_fuzz` loop, so reports
    /// without crashes are byte-identical to pre-campaign output.
    fn admit(&mut self, it: u64, input: &FuzzInput, out: &crate::ExecOutcome) -> Result<()> {
        let s = &mut self.state;
        s.metrics.incr("fuzz.execs");
        s.metrics.observe("fuzz.exec.cycles", out.cycles);
        s.delivered += out.delivered;
        s.dropped += out.dropped;
        s.total_cycles += out.cycles;
        s.trace_dropped += out.trace_dropped;
        s.profile.merge(&out.profile);

        let bits_before = s.global.count_ones();
        let extra = s
            .corpus
            .consider_with(Some(&mut self.exec_cx), input, out, &mut s.global)?
            as u64;
        s.minimize_execs += extra;
        let bits_after = s.global.count_ones();
        if bits_after != bits_before {
            s.journal.push(Event::FaultInjected {
                at: it,
                site: intern("campaign.admit"),
            });
            self.bus.push(CampaignEvent::CoverageGrew {
                iteration: it,
                bits: bits_after as usize,
                corpus: s.corpus.len(),
            });
        }
        s.metrics
            .gauge_set("fuzz.corpus.size", s.corpus.len() as u64);
        s.metrics.gauge_set("fuzz.coverage.bits", bits_after as u64);

        for f in &out.findings {
            if s.seen_keys.insert(f.key()) {
                let window = f.attrs.window.map(|w| w.path.to_string());
                self.bus.push(CampaignEvent::Finding {
                    iteration: it,
                    id: if f.dkasan_id.is_empty() {
                        dkasan::observation_id(
                            f.taxonomy.letter(),
                            &f.site,
                            window.as_deref().unwrap_or(""),
                        )
                    } else {
                        f.dkasan_id.clone()
                    },
                    taxonomy: f.taxonomy.letter(),
                    class: f
                        .dkasan
                        .map(|k| k.to_string())
                        .unwrap_or_else(|| "device-write".to_string()),
                    site: f.site.clone(),
                    window,
                });
                s.findings.push(f.clone());
            }
        }
        s.metrics
            .gauge_set("fuzz.findings", s.findings.len() as u64);

        if bits_after != bits_before {
            self.push_series_point(it);
        }
        Ok(())
    }

    fn push_series_point(&mut self, it: u64) {
        let s = &mut self.state;
        s.series.push(SeriesPoint {
            iteration: it,
            coverage_bits: s.global.count_ones(),
            corpus_size: s.corpus.len(),
            sim_cycles: s.total_cycles,
        });
    }

    /// Converts a contained failure into a quarantined finding: stable
    /// id, metrics, journal entry, and (when a corpus dir is set) a
    /// quarantine file carrying the offending program.
    fn quarantine(
        &mut self,
        kind: CrashKind,
        iteration: u64,
        detail: String,
        input: &FuzzInput,
    ) -> Result<()> {
        let s = &mut self.state;
        s.metrics.incr("fuzz.execs");
        s.metrics.incr(match kind {
            CrashKind::Panic => "fuzz.crashes",
            CrashKind::Hang => "fuzz.hangs",
        });
        s.journal.push(Event::FaultInjected {
            at: iteration,
            site: intern(match kind {
                CrashKind::Panic => "campaign.panic",
                CrashKind::Hang => "campaign.hang",
            }),
        });
        let finding = CrashFinding {
            id: crash_id(kind, self.cfg.seed, iteration),
            kind,
            seed: self.cfg.seed,
            iteration,
            detail,
        };
        self.bus.push(CampaignEvent::Quarantine {
            iteration,
            id: finding.id.clone(),
            kind,
            detail: finding.detail.clone(),
        });
        if let Some(dir) = &self.cfg.corpus_dir {
            let qdir = dir.join("quarantine");
            std::fs::create_dir_all(&qdir)
                .and_then(|_| {
                    std::fs::write(
                        qdir.join(format!("{}.json", finding.id)),
                        finding.to_json(input),
                    )
                })
                .map_err(|_| DmaError::Invariant("quarantine dir not writable"))?;
        }
        s.crashes.push(finding);
        Ok(())
    }

    /// Runs every remaining iteration.
    pub fn run_to_end(&mut self) -> Result<()> {
        while self.step()? {}
        Ok(())
    }

    /// Runs until `next_iter` reaches `stop_at` (the kill point of the
    /// kill-and-resume harness) or the budget ends.
    pub fn run_until(&mut self, stop_at: u64) -> Result<()> {
        while self.state.next_iter < stop_at && self.step()? {}
        Ok(())
    }

    /// Finalizes: writes the corpus directory and assembles the report.
    ///
    /// The final series sample (one point at the last iteration even
    /// when coverage did not grow there) is taken *here*, not in
    /// [`Campaign::step`]: it depends on the iteration budget, and a
    /// checkpoint must stay budget-agnostic so a truncated run's last
    /// generation resumes cleanly under a larger `--iters`.
    pub fn finish(self) -> Result<FuzzReport> {
        let cfg = self.cfg;
        let mut s = self.state;
        if cfg.iters > 0 && s.series.last().map(|p| p.iteration) != Some(cfg.iters - 1) {
            s.series.push(SeriesPoint {
                iteration: cfg.iters - 1,
                coverage_bits: s.global.count_ones(),
                corpus_size: s.corpus.len(),
                sim_cycles: s.total_cycles,
            });
        }
        if let Some(dir) = &cfg.corpus_dir {
            s.corpus
                .write_to_dir(dir)
                .map_err(|_| DmaError::Invariant("corpus dir not writable"))?;
        }
        let stats_json = s.metrics.snapshot(s.total_cycles).to_json();
        Ok(FuzzReport {
            seed: cfg.seed,
            iters: cfg.iters,
            execs: cfg.iters,
            minimize_execs: s.minimize_execs,
            coverage_bits: s.global.count_ones(),
            corpus: s.corpus.entries().to_vec(),
            findings: s.findings,
            crashes: s.crashes,
            series: s.series,
            delivered: s.delivered,
            dropped: s.dropped,
            total_cycles: s.total_cycles,
            trace_dropped: s.trace_dropped,
            profile: s.profile,
            stats_json,
        })
    }

    /// Convenience: new → run → finish.
    pub fn run(cfg: CampaignConfig) -> Result<FuzzReport> {
        let mut c = Campaign::new(cfg)?;
        c.run_to_end()?;
        c.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_without_extras_matches_the_plain_loop_shape() {
        let report = Campaign::run(CampaignConfig::new(11, 6)).unwrap();
        assert_eq!(report.execs, 6);
        assert!(report.crashes.is_empty());
        assert!(report.coverage_bits > 0);
    }

    #[test]
    fn planted_panic_is_quarantined_without_aborting() {
        let mut cfg = CampaignConfig::new(11, 5);
        cfg.plant_panic_at = Some(2);
        let report = Campaign::run(cfg).unwrap();
        assert_eq!(report.crashes.len(), 1);
        let c = &report.crashes[0];
        assert_eq!(c.kind, CrashKind::Panic);
        assert!(c.id.starts_with("dq-") && c.id.len() == 19, "{}", c.id);
        assert_eq!(c.iteration, 2 | PLANT_PANIC_BIT);
        assert!(c.detail.contains("planted debug panic"), "{}", c.detail);
        // The campaign kept running: all five iterations were executed.
        assert_eq!(report.execs, 5);
        assert!(report.coverage_bits > 0);
    }

    #[test]
    fn planted_hang_trips_the_watchdog_deterministically() {
        let mut cfg = CampaignConfig::new(11, 4);
        cfg.plant_hang_at = Some(1);
        let a = Campaign::run(cfg.clone()).unwrap();
        let b = Campaign::run(cfg).unwrap();
        assert_eq!(a.crashes.len(), 1);
        assert_eq!(a.crashes[0].kind, CrashKind::Hang);
        assert_eq!(a.crashes[0].iteration, 1 | PLANT_HANG_BIT);
        // Cycle-based watchdog: the abort point replays bit-identically.
        assert_eq!(a.crashes[0].detail, b.crashes[0].detail);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn crash_ids_replay_from_two_integers() {
        let mut cfg = CampaignConfig::new(23, 3);
        cfg.plant_panic_at = Some(0);
        let report = Campaign::run(cfg).unwrap();
        let c = &report.crashes[0];
        // Regenerating the input from (seed, iteration) reproduces the
        // offending program, and the id is a pure function of the pair.
        let input = FuzzInput::generate(c.seed, c.iteration);
        assert!(matches!(
            input.ops.last(),
            Some(crate::MutationOp::DebugPanic)
        ));
        assert_eq!(c.id, crash_id(c.kind, c.seed, c.iteration));
    }

    #[test]
    fn event_bus_streams_findings_the_iteration_they_land() {
        let mut c = Campaign::new(CampaignConfig::new(7, 96)).unwrap();
        let mut finding_events = Vec::new();
        let mut coverage_events = 0usize;
        while c.step().unwrap() {
            for ev in c.drain_events() {
                match ev {
                    CampaignEvent::Finding { iteration, .. } => {
                        assert_eq!(
                            iteration + 1,
                            c.next_iter(),
                            "finding streamed the iteration it was discovered"
                        );
                        finding_events.push(ev);
                    }
                    CampaignEvent::CoverageGrew { .. } => coverage_events += 1,
                    _ => {}
                }
            }
        }
        assert!(c.drain_events().is_empty(), "drain empties the bus");
        assert!(coverage_events > 0);
        let report = c.finish().unwrap();
        assert_eq!(
            finding_events.len(),
            report.findings.len(),
            "one event per deduped finding"
        );
        for (ev, f) in finding_events.iter().zip(&report.findings) {
            let CampaignEvent::Finding {
                id,
                taxonomy,
                site,
                iteration,
                ..
            } = ev
            else {
                unreachable!()
            };
            assert_eq!(*taxonomy, f.taxonomy.letter());
            assert_eq!(site, &f.site);
            assert_eq!(*iteration, f.iteration);
            assert!(id.starts_with("dk-") && id.len() == 19, "{id}");
        }
    }

    #[test]
    fn event_bus_reports_quarantines_and_checkpoints() {
        let dir = std::env::temp_dir().join(format!("dma-evbus-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = CampaignConfig::new(11, 4);
        cfg.checkpoint_dir = Some(dir.clone());
        cfg.checkpoint_every = 2;
        cfg.plant_panic_at = Some(1);
        let mut c = Campaign::new(cfg).unwrap();
        assert_eq!(c.last_checkpoint(), None);
        c.run_to_end().unwrap();
        let events = c.drain_events();
        let quarantines: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, CampaignEvent::Quarantine { .. }))
            .collect();
        assert_eq!(quarantines.len(), 1);
        let CampaignEvent::Quarantine { id, kind, .. } = quarantines[0] else {
            unreachable!()
        };
        assert_eq!(*kind, CrashKind::Panic);
        assert!(id.starts_with("dq-"));
        let checkpoints: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                CampaignEvent::Checkpoint {
                    iteration,
                    sequence,
                } => Some((*iteration, *sequence)),
                _ => None,
            })
            .collect();
        assert_eq!(checkpoints.len(), 2, "every 2 of 4 iterations");
        assert_eq!(
            c.last_checkpoint(),
            checkpoints.last().copied().map(|(i, s)| (s, i))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_files_land_under_the_corpus_dir() {
        let dir = std::env::temp_dir().join(format!("dma-quarantine-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = CampaignConfig::new(11, 3);
        cfg.corpus_dir = Some(dir.clone());
        cfg.plant_panic_at = Some(1);
        let report = Campaign::run(cfg).unwrap();
        let qfile = dir
            .join("quarantine")
            .join(format!("{}.json", report.crashes[0].id));
        let body = std::fs::read_to_string(&qfile).unwrap();
        assert!(body.contains("\"kind\":\"panic\""));
        assert!(body.contains("debug_panic"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
