//! The `dma-lab profile` workload.
//!
//! [`run_profile`] executes the canonical fuzz inputs for a seed —
//! `FuzzInput::generate(seed, it)` for `it` in `[0, iters)` — in order
//! on one [`ExecContext`], single-threaded, and folds every per-exec
//! cycle-attribution profile ([`dma_core::Profile`]) into one call
//! tree. An input is a pure function of `(seed, iteration)` and
//! [`dma_core::Profile::merge`] is an associative sum, so the merged
//! profile is byte-identical across runs.

use std::fmt::Write as _;

use dma_core::jsonw::JsonWriter;
use dma_core::{Profile, Result};
use fuzz::{ExecContext, FuzzInput};

/// Configuration of one `dma-lab profile` run.
#[derive(Clone, Debug)]
pub struct ProfileConfig {
    /// Input seed; every iteration derives from it.
    pub seed: u64,
    /// Number of inputs executed (`[0, iters)`).
    pub iters: u64,
    /// When set, every input is pinned to this machine config.
    pub only_config: Option<u8>,
}

impl ProfileConfig {
    /// A run over every machine config.
    pub fn new(seed: u64, iters: u64) -> ProfileConfig {
        ProfileConfig {
            seed,
            iters,
            only_config: None,
        }
    }
}

/// What one profile run produced.
#[derive(Clone, Debug)]
pub struct ProfileRun {
    /// The run seed.
    pub seed: u64,
    /// Requested iteration budget.
    pub iters: u64,
    /// Inputs executed (== `iters`; errors abort the run).
    pub execs: u64,
    /// Total simulated cycles across all executions.
    pub total_cycles: u64,
    /// The merged cycle-attribution call tree.
    pub profile: Profile,
}

/// Runs the profile workload (see the module docs).
pub fn run_profile(cfg: &ProfileConfig) -> Result<ProfileRun> {
    let mut cx = ExecContext::new();
    let mut run = ProfileRun {
        seed: cfg.seed,
        iters: cfg.iters,
        execs: 0,
        total_cycles: 0,
        profile: Profile::new(),
    };
    for it in 0..cfg.iters {
        let mut input = FuzzInput::generate(cfg.seed, it);
        if let Some(c) = cfg.only_config {
            input.config_id = c;
        }
        let out = cx.execute(&input)?;
        run.profile.merge(&out.profile);
        run.execs += 1;
        run.total_cycles += out.cycles;
    }
    Ok(run)
}

impl ProfileRun {
    /// The deterministic half of `BENCH_profile.json`: run facts, the
    /// per-phase (`exec.*`) breakdown, and the top self-cycle frame.
    pub fn deterministic_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.obj(|w| {
            w.field_u64("seed", self.seed);
            w.field_u64("iters", self.iters);
            w.field_u64("execs", self.execs);
            w.field_u64("total_cycles", self.total_cycles);
            w.field_u64("attributed_cycles", self.profile.attributed_cycles());
            if let Some((frame, cycles)) = self.profile.top_self() {
                w.field("top_self", |w| {
                    w.obj(|w| {
                        w.field_str("frame", &frame);
                        w.field_u64("self_cycles", cycles);
                    });
                });
            }
            w.field("phases", |w| {
                w.arr(|w| {
                    for (name, calls, cycles) in self
                        .profile
                        .phases()
                        .into_iter()
                        .filter(|(name, _, _)| name.starts_with("exec."))
                    {
                        w.elem(|w| {
                            w.obj(|w| {
                                w.field_str("phase", &name);
                                w.field_u64("calls", calls);
                                w.field_u64("cycles", cycles);
                            });
                        });
                    }
                });
            });
        });
        w.finish()
    }

    /// Human-readable summary: run facts, phase breakdown, hottest
    /// self-cycle frames, then the full call tree.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "profile seed {}: {} execs, {} simulated cycles ({} attributed)",
            self.seed,
            self.execs,
            self.total_cycles,
            self.profile.attributed_cycles()
        );
        let phases: Vec<String> = self
            .profile
            .phases()
            .into_iter()
            .filter(|(name, _, _)| name.starts_with("exec."))
            .map(|(name, calls, cycles)| format!("{name} {cycles}cyc/{calls}"))
            .collect();
        if !phases.is_empty() {
            let _ = writeln!(out, "phases: {}", phases.join("  "));
        }
        let _ = writeln!(out, "\nhottest frames (self cycles):");
        for (name, cycles) in self.profile.self_by_name().into_iter().take(8) {
            let _ = writeln!(out, "  {cycles:>14}  {name}");
        }
        let _ = writeln!(out, "\ncall tree:");
        out.push_str(&self.profile.render_text());
        out
    }
}
