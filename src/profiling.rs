//! The `dma-lab profile` workload and the `dma-lab bench --check`
//! trajectory gate.
//!
//! ## The profile workload
//!
//! [`run_profile`] executes the canonical fuzz inputs for a seed —
//! `FuzzInput::generate(seed, it)` for `it` in `[0, iters)` — in order
//! on one [`ExecContext`], single-threaded, and folds every per-exec
//! cycle-attribution profile ([`dma_core::Profile`]) into one call
//! tree. An input is a pure function of `(seed, iteration)` and
//! [`dma_core::Profile::merge`] is an associative sum, so the merged
//! profile is byte-identical across runs.
//!
//! ## The trajectory gate
//!
//! [`check_bench_file`] re-runs the deterministic simulated-cycle
//! workload behind a committed `BENCH_*.json` (fuzz / scale / zoo /
//! profile / forensics) and compares the watched metrics against the
//! committed values, each under a per-metric tolerance (exact for
//! counts, a small relative band for cycle totals so deliberate
//! cost-model tweaks don't churn the gate). `dma-lab bench --check`
//! exits 1 when any metric regresses beyond its tolerance.

use std::fmt::Write as _;
use std::path::Path;

use dma_core::jsonw::JsonWriter;
use dma_core::{JValue, Profile, Result};
use fuzz::{parse_config, ExecContext, FuzzConfig, FuzzInput, ShardConfig, ShardedCampaign};

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
    /// The deterministic half of `BENCH_profile.json`, and what
    /// [`check_bench_file`] re-derives to gate it: run facts, the
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

// ---------------------------------------------------------------------
// The bench-trajectory regression gate.
// ---------------------------------------------------------------------

/// One compared metric of a bench check.
#[derive(Clone, Debug)]
pub struct CheckRow {
    /// Dotted metric path, e.g. `rows[8].coverage_bits`.
    pub metric: String,
    /// Committed value.
    pub expected: String,
    /// Re-derived value.
    pub actual: String,
    /// Whether the actual value is within tolerance.
    pub ok: bool,
}

/// The verdict on one `BENCH_*.json` file.
#[derive(Clone, Debug)]
pub struct CheckOutcome {
    /// The file's `report` kind (`fuzz`, `scale`, `zoo`, `profile`,
    /// `forensics`).
    pub report: String,
    /// Compared metrics, in document order.
    pub rows: Vec<CheckRow>,
    /// Set when the report kind has no re-runnable deterministic
    /// series (e.g. `observability`); such files are not a failure.
    pub skipped: Option<String>,
}

impl CheckOutcome {
    /// True when every compared metric is within tolerance.
    pub fn passed(&self) -> bool {
        self.rows.iter().all(|r| r.ok)
    }
}

/// Relative tolerance, in permille, for simulated-cycle totals: counts
/// (coverage bits, execs, channels) must match exactly, but cycle sums
/// may drift this much before the gate trips, so a deliberate
/// cost-constant tweak is a bench refresh, not a broken build.
pub const CYCLE_TOLERANCE_PERMILLE: u64 = 10;

fn within_permille(expected: u64, actual: u64, permille: u64) -> bool {
    let diff = expected.abs_diff(actual);
    // u128 keeps `diff * 1000` exact for cycle-scale values.
    (diff as u128) * 1000 <= (expected as u128) * (permille as u128)
}

fn exact_row(rows: &mut Vec<CheckRow>, metric: &str, expected: u64, actual: u64) {
    rows.push(CheckRow {
        metric: metric.to_string(),
        expected: expected.to_string(),
        actual: actual.to_string(),
        ok: expected == actual,
    });
}

fn cycles_row(rows: &mut Vec<CheckRow>, metric: &str, expected: u64, actual: u64) {
    rows.push(CheckRow {
        metric: metric.to_string(),
        expected: expected.to_string(),
        actual: actual.to_string(),
        ok: within_permille(expected, actual, CYCLE_TOLERANCE_PERMILLE),
    });
}

fn str_row(rows: &mut Vec<CheckRow>, metric: &str, expected: &str, actual: &str) {
    rows.push(CheckRow {
        metric: metric.to_string(),
        expected: expected.to_string(),
        actual: actual.to_string(),
        ok: expected == actual,
    });
}

fn malformed(path: &Path, what: &str) -> String {
    format!("{}: {what}", path.display())
}

/// Re-runs the deterministic workload behind one committed
/// `BENCH_*.json` and compares the watched metrics. `Err` means the
/// file is unreadable or structurally invalid — distinct from a
/// regression, which is a `CheckOutcome` with failing rows.
pub fn check_bench_file(path: &Path) -> std::result::Result<CheckOutcome, String> {
    let body =
        std::fs::read_to_string(path).map_err(|e| malformed(path, &format!("unreadable: {e}")))?;
    let doc = dma_core::jsonr::parse(&body).map_err(|_| malformed(path, "not valid JSON"))?;
    let report = doc
        .str_field("report")
        .ok_or_else(|| malformed(path, "missing \"report\" field"))?
        .to_string();
    let det = doc
        .get("deterministic")
        .ok_or_else(|| malformed(path, "missing \"deterministic\" section"))?;
    let mut rows = Vec::new();
    match report.as_str() {
        "fuzz" => check_fuzz(det, &mut rows).map_err(|w| malformed(path, w))?,
        "scale" => check_scale(det, &mut rows).map_err(|w| malformed(path, w))?,
        "zoo" => check_zoo(det, &mut rows).map_err(|w| malformed(path, w))?,
        "profile" => check_profile(det, &mut rows).map_err(|w| malformed(path, w))?,
        "forensics" => check_forensics(det, &mut rows).map_err(|w| malformed(path, w))?,
        other => {
            return Ok(CheckOutcome {
                report: other.to_string(),
                rows,
                skipped: Some(format!(
                    "report kind '{other}' has no re-runnable deterministic series"
                )),
            });
        }
    }
    Ok(CheckOutcome {
        report,
        rows,
        skipped: None,
    })
}

fn check_fuzz(det: &JValue, rows: &mut Vec<CheckRow>) -> std::result::Result<(), &'static str> {
    let seed = det.u64_field("seed").ok_or("deterministic.seed missing")?;
    let iters = det
        .u64_field("iters")
        .ok_or("deterministic.iters missing")?;
    let report = fuzz::run_fuzz(&FuzzConfig {
        seed,
        iters,
        corpus_dir: None,
    })
    .map_err(|_| "fuzz campaign re-run failed")?;
    if let Some(execs) = det.u64_field("execs") {
        exact_row(rows, "execs", execs, report.execs);
    }
    if let Some(bits) = det.u64_field("coverage_bits") {
        exact_row(rows, "coverage_bits", bits, report.coverage_bits as u64);
    }
    if let Some(entries) = det.u64_field("corpus_entries") {
        exact_row(rows, "corpus_entries", entries, report.corpus.len() as u64);
    }
    if let Some(classes) = det.u64_field("finding_classes") {
        exact_row(
            rows,
            "finding_classes",
            classes,
            report.findings.len() as u64,
        );
    }
    if let Some(cycles) = det
        .get("series")
        .and_then(|s| s.u64_field("total_sim_cycles"))
    {
        cycles_row(rows, "series.total_sim_cycles", cycles, report.total_cycles);
    }
    Ok(())
}

fn check_scale(det: &JValue, rows: &mut Vec<CheckRow>) -> std::result::Result<(), &'static str> {
    let seed = det.u64_field("seed").ok_or("deterministic.seed missing")?;
    let iters = det
        .u64_field("iters_per_shard")
        .ok_or("deterministic.iters_per_shard missing")?;
    let committed = det
        .get("rows")
        .and_then(|r| r.as_arr())
        .ok_or("deterministic.rows missing")?;
    for row in committed {
        let shards = row.u64_field("shards").ok_or("rows[].shards missing")? as u32;
        let report = ShardedCampaign::new(ShardConfig::new(seed, iters, shards, 1))
            .run()
            .map_err(|_| "sharded campaign re-run failed")?;
        let tag = |m: &str| format!("rows[shards={shards}].{m}");
        if let Some(execs) = row.u64_field("execs") {
            exact_row(rows, &tag("execs"), execs, report.execs);
        }
        if let Some(bits) = row.u64_field("coverage_bits") {
            exact_row(
                rows,
                &tag("coverage_bits"),
                bits,
                report.coverage_bits as u64,
            );
        }
        if let Some(entries) = row.u64_field("corpus_entries") {
            exact_row(
                rows,
                &tag("corpus_entries"),
                entries,
                report.corpus.len() as u64,
            );
        }
        if let Some(classes) = row.u64_field("finding_classes") {
            exact_row(
                rows,
                &tag("finding_classes"),
                classes,
                report.findings.len() as u64,
            );
        }
        if let Some(cycles) = row.u64_field("total_cycles") {
            cycles_row(rows, &tag("total_cycles"), cycles, report.total_cycles);
        }
    }
    Ok(())
}

fn check_zoo(det: &JValue, rows: &mut Vec<CheckRow>) -> std::result::Result<(), &'static str> {
    let seed = det.u64_field("seed").ok_or("deterministic.seed missing")?;
    let devices = det
        .get("devices")
        .and_then(|d| d.as_arr())
        .ok_or("deterministic.devices missing")?;
    for dev in devices {
        let config_name = dev.str_field("config").ok_or("devices[].config missing")?;
        let config = parse_config(config_name).ok_or("devices[].config names no machine config")?;
        let map = fuzz::infer_channels(seed, config).map_err(|_| "channel inference failed")?;
        let tag = |m: &str| format!("devices[{config_name}].{m}");
        if let Some(events) = dev.u64_field("trace_events") {
            exact_row(rows, &tag("trace_events"), events, map.events);
        }
        if let Some(channels) = dev.u64_field("channels") {
            exact_row(rows, &tag("channels"), channels, map.channels.len() as u64);
        }
        if let Some(kinds) = dev.get("kinds").and_then(|k| k.as_arr()) {
            let expected: Vec<&str> = kinds.iter().filter_map(|k| k.as_str()).collect();
            let actual: Vec<&str> = map.channels.iter().map(|c| c.kind.name()).collect();
            str_row(rows, &tag("kinds"), &expected.join(","), &actual.join(","));
        }
    }
    Ok(())
}

fn check_profile(det: &JValue, rows: &mut Vec<CheckRow>) -> std::result::Result<(), &'static str> {
    let seed = det.u64_field("seed").ok_or("deterministic.seed missing")?;
    let iters = det
        .u64_field("iters")
        .ok_or("deterministic.iters missing")?;
    let run = run_profile(&ProfileConfig::new(seed, iters))
        .map_err(|_| "profile workload re-run failed")?;
    if let Some(execs) = det.u64_field("execs") {
        exact_row(rows, "execs", execs, run.execs);
    }
    if let Some(cycles) = det.u64_field("total_cycles") {
        cycles_row(rows, "total_cycles", cycles, run.total_cycles);
    }
    if let Some(attributed) = det.u64_field("attributed_cycles") {
        cycles_row(
            rows,
            "attributed_cycles",
            attributed,
            run.profile.attributed_cycles(),
        );
    }
    if let Some(top) = det.get("top_self") {
        let (frame, _) = run.profile.top_self().unwrap_or_default();
        if let Some(expected) = top.str_field("frame") {
            str_row(rows, "top_self.frame", expected, &frame);
        }
    }
    if let Some(phases) = det.get("phases").and_then(|p| p.as_arr()) {
        let actual = run.profile.phases();
        for p in phases {
            let name = p.str_field("phase").ok_or("phases[].phase missing")?;
            let found = actual.iter().find(|(n, _, _)| n == name);
            let (calls, cycles) = found.map(|(_, c, cy)| (*c, *cy)).unwrap_or((0, 0));
            if let Some(expected) = p.u64_field("calls") {
                exact_row(rows, &format!("phases[{name}].calls"), expected, calls);
            }
            if let Some(expected) = p.u64_field("cycles") {
                cycles_row(rows, &format!("phases[{name}].cycles"), expected, cycles);
            }
        }
    }
    Ok(())
}

fn check_forensics(
    det: &JValue,
    rows: &mut Vec<CheckRow>,
) -> std::result::Result<(), &'static str> {
    let seed = det.u64_field("seed").ok_or("deterministic.seed missing")?;
    let iters = det
        .u64_field("iters")
        .ok_or("deterministic.iters missing")?;
    let report =
        fuzz::run_forensics(seed, iters).map_err(|_| "forensics campaign re-run failed")?;
    let counts = [
        ("forensic_execs", report.forensic_execs),
        ("incident_classes", report.cases.len() as u64),
        ("callback_exposures", report.callbacks.len() as u64),
        ("trace_dropped", report.trace_dropped),
    ];
    for (metric, actual) in counts {
        let expected = det.u64_field(metric).ok_or("deterministic count missing")?;
        exact_row(rows, metric, expected, actual);
    }
    let committed = det
        .get("campaign")
        .and_then(|c| c.get("cases"))
        .and_then(|c| c.as_arr())
        .ok_or("deterministic.campaign.cases missing")?;
    let expected: Vec<&str> = committed.iter().filter_map(|c| c.str_field("id")).collect();
    let actual: Vec<String> = report
        .cases
        .iter()
        .map(|c| c.incident.finding.id())
        .collect();
    str_row(rows, "cases[].id", &expected.join(","), &actual.join(","));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_band_is_relative_and_exact_at_zero() {
        assert!(within_permille(1000, 1000, 0));
        assert!(!within_permille(1000, 1001, 0));
        assert!(within_permille(100_000, 100_999, 10));
        assert!(!within_permille(100_000, 101_001, 10));
        assert!(within_permille(100_000, 99_001, 10));
        // A zero expectation tolerates only zero.
        assert!(within_permille(0, 0, 10));
        assert!(!within_permille(0, 1, 10));
    }

    #[test]
    fn unknown_report_kinds_are_skipped_not_failed() {
        let dir = std::env::temp_dir().join(format!("dma-lab-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("BENCH_other.json");
        std::fs::write(&p, r#"{"report":"serve","deterministic":{}}"#).unwrap();
        let out = check_bench_file(&p).unwrap();
        assert!(out.skipped.is_some());
        assert!(out.passed());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_planted_regression_fails_the_check() {
        let dir = std::env::temp_dir().join(format!("dma-lab-plant-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("BENCH_fuzz.json");
        // A tiny campaign with a deliberately wrong coverage claim.
        let real = fuzz::run_fuzz(&FuzzConfig {
            seed: 5,
            iters: 4,
            corpus_dir: None,
        })
        .unwrap();
        std::fs::write(
            &p,
            format!(
                r#"{{"report":"fuzz","deterministic":{{"seed":5,"iters":4,"coverage_bits":{}}}}}"#,
                u64::from(real.coverage_bits) + 7
            ),
        )
        .unwrap();
        let out = check_bench_file(&p).unwrap();
        assert!(!out.passed());
        // And the honest value passes.
        std::fs::write(
            &p,
            format!(
                r#"{{"report":"fuzz","deterministic":{{"seed":5,"iters":4,"coverage_bits":{}}}}}"#,
                real.coverage_bits
            ),
        )
        .unwrap();
        assert!(check_bench_file(&p).unwrap().passed());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn forensics_reports_are_rerun_not_skipped() {
        let dir = std::env::temp_dir().join(format!("dma-lab-forensics-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("BENCH_forensics.json");
        let real = fuzz::run_forensics(7, 8).unwrap();
        let write = |incidents: usize| {
            let body = format!(
                r#"{{"report":"forensics","deterministic":{{"seed":7,"iters":8,"forensic_execs":{},"incident_classes":{incidents},"callback_exposures":{},"trace_dropped":{},"campaign":{}}}}}"#,
                real.forensic_execs,
                real.callbacks.len(),
                real.trace_dropped,
                real.to_json()
            );
            std::fs::write(&p, body).unwrap();
            check_bench_file(&p).unwrap()
        };
        let honest = write(real.cases.len());
        assert!(honest.skipped.is_none());
        assert_eq!(honest.rows.len(), 5, "four counts plus the case ids");
        assert!(honest.passed());
        assert!(!write(real.cases.len() + 1).passed());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
