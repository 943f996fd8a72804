//! The committed `BENCH_*.json` reports and the `dma-lab bench --check`
//! gate over them.
//!
//! Every report has one schema:
//!
//! ```text
//! {"report":KIND,"deterministic":{…},"timing":[…]}
//! ```
//!
//! and lives at the repository root as `BENCH_{KIND}.json`. The
//! `deterministic` half is a pure function of the code: each kind —
//! [`fuzz()`], [`scale()`], [`zoo()`], [`profile()`], [`forensics()`],
//! [`resilience()`], [`serve()`], [`iotlb()`], [`dkasan()`] — has one
//! function here that runs the kind's pinned workload (seed 7, fixed
//! iteration counts) and returns the half as JSON text.
//! The bench targets in `crates/bench` write what that function returns
//! next to their wall-clock `timing` rows; the timing half is host noise
//! and nothing gates it.
//!
//! [`check_bench_file`] re-runs the kind's function and compares the
//! whole re-derived half with the committed one, value by value. A
//! [`JValue`] keeps numbers as source text and object fields in order,
//! so equal values mean equal bytes: there is no tolerance band, and a
//! change to the simulated campaign fails the gate until the report is
//! regenerated with it.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use dkasan::DKasan;
use dma_core::jsonw::{escape, JsonWriter};
use dma_core::vuln::DmaDirection;
use dma_core::{Event, Iova, JValue, Kva, Metrics, Result, SimCtx};
use fuzz::{
    config_device, config_name, infer_channels, kill_and_resume, run_forensics, run_fuzz, Campaign,
    CampaignConfig, FuzzConfig, ShardConfig, ShardedCampaign,
};
use sim_iommu::{dma_map_single, dma_unmap_single, InvalidationMode, Iommu, IommuConfig};
use sim_mem::{MemConfig, MemorySystem};

use crate::profiling::{run_profile, ProfileConfig};
use crate::serve::{ConnState, ServeConfig, Server};

/// The seed every pinned workload runs under.
pub const SEED: u64 = 7;

/// Iterations of the pinned fuzz, profile and forensics campaigns, and
/// the per-shard budget of the scale sweep.
const ITERS: u64 = 96;

/// A function that runs one report kind's pinned workload and returns
/// its deterministic half.
type Rederive = fn() -> Result<String>;

/// Every report kind, with the function that re-derives its
/// deterministic half.
const KINDS: [(&str, Rederive); 9] = [
    ("fuzz", fuzz),
    ("scale", scale),
    ("zoo", zoo),
    ("profile", profile),
    ("forensics", forensics),
    ("resilience", resilience),
    ("serve", serve),
    ("iotlb", iotlb),
    ("dkasan", dkasan),
];

/// `fuzz`: the pinned campaign's coverage-over-time series and metrics
/// snapshot.
pub fn fuzz() -> Result<String> {
    let report = run_fuzz(&FuzzConfig {
        seed: SEED,
        iters: ITERS,
        corpus_dir: None,
    })?;
    let mut w = JsonWriter::new();
    w.obj(|w| {
        w.field_u64("seed", report.seed);
        w.field_u64("iters", report.iters);
        w.field_u64("execs", report.execs);
        w.field_u64("coverage_bits", u64::from(report.coverage_bits));
        w.field_u64("corpus_entries", report.corpus.len() as u64);
        w.field_u64("finding_classes", report.findings.len() as u64);
        w.field("series", |w| w.raw(&report.series_json()));
        w.field("stats", |w| w.raw(&report.stats_json));
    });
    Ok(w.finish())
}

/// `scale`: campaign facts of the merged report at 1, 2, 4 and 8
/// shards of 96 iterations each.
pub fn scale() -> Result<String> {
    let mut rows = Vec::new();
    for shards in [1u32, 2, 4, 8] {
        let report = ShardedCampaign::new(ShardConfig::new(SEED, ITERS, shards, 1)).run()?;
        rows.push((shards, report));
    }
    let mut w = JsonWriter::new();
    w.obj(|w| {
        w.field_u64("seed", SEED);
        w.field_u64("iters_per_shard", ITERS);
        w.field("rows", |w| {
            w.arr(|w| {
                for (shards, r) in &rows {
                    w.elem(|w| {
                        w.obj(|w| {
                            w.field_u64("shards", u64::from(*shards));
                            w.field_u64("execs", r.execs);
                            w.field_u64("minimize_execs", r.minimize_execs);
                            w.field_u64("coverage_bits", u64::from(r.coverage_bits));
                            w.field_u64("corpus_entries", r.corpus.len() as u64);
                            w.field_u64("finding_classes", r.findings.len() as u64);
                            w.field_u64("total_cycles", r.total_cycles);
                        });
                    });
                }
            });
        });
    });
    Ok(w.finish())
}

/// `zoo`: the inferred channel map of one machine config per device
/// family (NIC config 0, virtio config 5, NVMe config 7).
pub fn zoo() -> Result<String> {
    let mut maps = Vec::new();
    for config in [0u8, 5, 7] {
        maps.push((config, infer_channels(SEED, config)?));
    }
    let mut w = JsonWriter::new();
    w.obj(|w| {
        w.field_u64("seed", SEED);
        w.field("devices", |w| {
            w.arr(|w| {
                for (config, map) in &maps {
                    w.elem(|w| {
                        w.obj(|w| {
                            w.field_str("device", config_device(*config).name());
                            w.field_str("config", config_name(*config));
                            w.field_u64("trace_events", map.events);
                            w.field_u64("channels", map.channels.len() as u64);
                            w.field("kinds", |w| {
                                w.arr(|w| {
                                    for c in &map.channels {
                                        w.elem(|w| w.str(c.kind.name()));
                                    }
                                });
                            });
                        });
                    });
                }
            });
        });
    });
    Ok(w.finish())
}

/// `profile`: [`crate::profiling::ProfileRun::deterministic_json`] of
/// the pinned profile workload.
pub fn profile() -> Result<String> {
    Ok(run_profile(&ProfileConfig::new(SEED, ITERS))?.deterministic_json())
}

/// `forensics`: the pinned forensics campaign and its counts.
pub fn forensics() -> Result<String> {
    let report = run_forensics(SEED, ITERS)?;
    let mut w = JsonWriter::new();
    w.obj(|w| {
        w.field_u64("seed", report.seed);
        w.field_u64("iters", report.iters);
        w.field_u64("forensic_execs", report.forensic_execs);
        w.field_u64("incident_classes", report.cases.len() as u64);
        w.field_u64("callback_exposures", report.callbacks.len() as u64);
        w.field_u64("trace_dropped", report.trace_dropped);
        w.field("campaign", |w| w.raw(&report.to_json()));
    });
    Ok(w.finish())
}

/// The checkpoint payload of a campaign run for `iters` iterations.
pub fn checkpoint_payload(iters: u64) -> Result<String> {
    let mut c = Campaign::new(CampaignConfig::new(SEED, iters))?;
    c.run_to_end()?;
    Ok(c.snapshot_payload())
}

/// `resilience`: one kill-and-resume run (killed at iteration 13 of
/// 24, checkpointing every 6) and its byte-identity verdict, plus
/// checkpoint payload sizes at two corpus scales.
pub fn resilience() -> Result<String> {
    // A fresh checkpoint directory per call: tests in one process may
    // re-derive this half concurrently.
    static RUNS: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dma-lab-bench-resilience-{}-{}",
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = CampaignConfig::new(SEED, 24);
    cfg.checkpoint_dir = Some(dir.clone());
    cfg.checkpoint_every = 6;
    let out = kill_and_resume(&cfg, 13);
    let _ = std::fs::remove_dir_all(&dir);
    let out = out?;
    let small = checkpoint_payload(8)?.len() as u64;
    let large = checkpoint_payload(64)?.len() as u64;
    let mut w = JsonWriter::new();
    w.obj(|w| {
        w.field_u64("seed", SEED);
        w.field_u64("iters", 24);
        w.field_u64("kill_at", out.kill_at);
        w.field_u64("resumed_from", out.resumed_from);
        w.field_bool("byte_identical", out.identical());
        w.field_u64("recovered_generations", out.recovered);
        w.field_u64("payload_bytes_8_iters", small);
        w.field_u64("payload_bytes_64_iters", large);
    });
    Ok(w.finish())
}

/// The scripted session the `serve` report replays.
const SERVE_SCRIPT: &str = "\
{\"req\":\"hello\"}
{\"req\":\"step\",\"n\":48}
{\"req\":\"stats\"}
{\"req\":\"step\",\"n\":16}
{\"req\":\"stats\",\"mode\":\"delta\"}
{\"req\":\"health\"}
{\"req\":\"posture\"}
{\"req\":\"shutdown\"}
";

/// A server whose campaign has already stepped `steps` iterations, so
/// stats frames carry metrics and findings.
pub fn warmed_server(steps: u64) -> Result<Server> {
    let mut server = Server::new(ServeConfig::new(SEED, 10_000))?;
    server.handle_line(
        &format!("{{\"req\":\"step\",\"n\":{steps}}}"),
        &mut ConnState::default(),
        &mut Vec::new(),
    );
    Ok(server)
}

/// `serve`: the pinned scripted session's transcript size, and the
/// bytes of a full stats frame against the idle delta straight after
/// it and the active delta four iterations later.
pub fn serve() -> Result<String> {
    let transcript = Server::new(ServeConfig::new(SEED, 10_000))?.run_script(SERVE_SCRIPT);
    let mut server = warmed_server(64)?;
    let mut conn = ConnState::default();
    let mut frame_bytes = |req: &str| {
        let mut out = Vec::new();
        server.handle_line(req, &mut conn, &mut out);
        out.iter().map(|f| f.len() as u64).sum::<u64>()
    };
    let full = frame_bytes(r#"{"req":"stats"}"#);
    let idle = frame_bytes(r#"{"req":"stats","mode":"delta"}"#);
    frame_bytes(r#"{"req":"step","n":4}"#);
    let active = frame_bytes(r#"{"req":"stats","mode":"delta"}"#);
    let mut w = JsonWriter::new();
    w.obj(|w| {
        w.field_u64("seed", SEED);
        w.field_u64("script_requests", SERVE_SCRIPT.lines().count() as u64);
        w.field_u64("transcript_frames", transcript.lines().count() as u64);
        w.field_u64("transcript_bytes", transcript.len() as u64);
        w.field_u64("stats_full_bytes", full);
        w.field_u64("stats_delta_idle_bytes", idle);
        w.field_u64("stats_delta_active_bytes", active);
        if full > 0 {
            w.field_f64("delta_ratio", active as f64 / full as f64);
            w.field_f64("delta_idle_ratio", idle as f64 / full as f64);
        }
    });
    Ok(w.finish())
}

/// A fresh single-device machine (memory + IOMMU) for map/unmap and
/// translation workloads.
pub fn iommu_setup(mode: InvalidationMode) -> (SimCtx, MemorySystem, Iommu) {
    let ctx = SimCtx::new();
    let mem = MemorySystem::new(&MemConfig::default());
    let mut iommu = Iommu::new(IommuConfig {
        mode,
        ..Default::default()
    });
    iommu.attach_device(1);
    (ctx, mem, iommu)
}

/// One full I/O: kmalloc, map, device DMA write, unmap, kfree.
pub fn one_io(ctx: &mut SimCtx, mem: &mut MemorySystem, iommu: &mut Iommu) -> Result<()> {
    let buf = mem.kmalloc(ctx, 2048, "io")?;
    let m = dma_map_single(
        ctx,
        iommu,
        &mem.layout,
        1,
        buf,
        2048,
        DmaDirection::FromDevice,
        "m",
    )?;
    iommu.dev_write(ctx, &mut mem.phys, 1, m.iova, b"payload")?;
    dma_unmap_single(ctx, iommu, &m)?;
    mem.kfree(ctx, buf)
}

/// Runs `ios` full I/O cycles under `mode`, lets any pending deferred
/// flush fire, and returns the metrics snapshot as JSON: IOTLB
/// hit/miss/stale counters, flush counts, map/unmap latency histograms
/// and, in deferred mode, the §5.2.1 stale-window distribution.
fn iotlb_series_json(mode: InvalidationMode, ios: usize) -> Result<String> {
    let (mut ctx, mut mem, mut iommu) = iommu_setup(mode);
    for _ in 0..ios {
        one_io(&mut ctx, &mut mem, &mut iommu)?;
    }
    ctx.clock.advance_ms(11);
    iommu.tick(&mut ctx);
    Ok(ctx.metrics_snapshot().to_json())
}

/// `iotlb`: the §5.2.1 metrics series of 500 I/Os under strict and
/// under deferred invalidation.
pub fn iotlb() -> Result<String> {
    let strict = iotlb_series_json(InvalidationMode::Strict, 500)?;
    let deferred = iotlb_series_json(InvalidationMode::Deferred, 500)?;
    let mut w = JsonWriter::new();
    w.obj(|w| {
        w.field("strict_series", |w| w.raw(&strict));
        w.field("deferred_series", |w| w.raw(&deferred));
    });
    Ok(w.finish())
}

/// A synthetic alloc/map/access/free event stream for D-KASAN replay:
/// `n` events cycling through the four event classes over a sliding
/// window of kmalloc-512 objects.
pub fn synth_events(n: usize) -> Vec<Event> {
    let page = 0xffff_8880_0100_0000u64;
    (0..n)
        .map(|i| {
            let k = page + ((i as u64 * 640) & 0xf_ffff);
            match i % 4 {
                0 => Event::Alloc {
                    at: i as u64,
                    kva: Kva(k),
                    size: 512,
                    site: "site_a",
                    cache: "kmalloc-512",
                },
                1 => Event::DmaMap {
                    at: i as u64,
                    device: 1,
                    iova: Iova(0xf000_0000 + (k & 0xffff)),
                    kva: Kva(k),
                    len: 512,
                    dir: DmaDirection::FromDevice,
                    site: "map_site",
                },
                2 => Event::CpuAccess {
                    at: i as u64,
                    kva: Kva(k),
                    len: 8,
                    write: true,
                    site: "cpu_site",
                },
                _ => Event::Free {
                    at: i as u64,
                    kva: Kva(k.wrapping_sub(1280)),
                },
            }
        })
        .collect()
}

/// `dkasan`: D-KASAN's own cost metrics (events, shadow updates,
/// touches per event, findings per class) after replaying 10⁴
/// [`synth_events`].
pub fn dkasan() -> Result<String> {
    let mut dk = DKasan::new();
    dk.process(&synth_events(10_000));
    let mut m = Metrics::new();
    dk.publish_metrics(&mut m);
    let mut w = JsonWriter::new();
    w.obj(|w| w.field("replay_10k_events", |w| w.raw(&m.snapshot(0).to_json())));
    Ok(w.finish())
}

// ---------------------------------------------------------------------
// The gate.
// ---------------------------------------------------------------------

/// One value on which the committed half and the re-derived half
/// disagree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mismatch {
    /// Path into the file, e.g. `deterministic.devices[0].device`.
    pub path: String,
    /// The committed value; `None` when only the re-derived half has it.
    pub committed: Option<String>,
    /// The re-derived value; `None` when the re-derived half lacks it.
    pub rederived: Option<String>,
}

/// The verdict on one `BENCH_*.json` file.
#[derive(Clone, Debug)]
pub struct CheckOutcome {
    /// The file's `report` kind.
    pub report: String,
    /// Scalar values in the committed half.
    pub compared: usize,
    /// Every path that differs, is missing or is extra, in document
    /// order.
    pub mismatches: Vec<Mismatch>,
}

impl CheckOutcome {
    /// True when the re-derived half equals the committed one.
    pub fn passed(&self) -> bool {
        self.mismatches.is_empty()
    }
}

/// Re-derives the deterministic half of one committed `BENCH_*.json`
/// and compares it with the committed half. `Err` means the file cannot
/// be checked: unreadable, not JSON, without a `report` or
/// `deterministic` field, of an unknown kind, or its workload failed.
pub fn check_bench_file(path: &Path) -> std::result::Result<CheckOutcome, String> {
    let fail = |what: String| format!("{}: {what}", path.display());
    let body = std::fs::read_to_string(path).map_err(|e| fail(format!("unreadable: {e}")))?;
    let doc = dma_core::jsonr::parse(&body).map_err(|e| fail(format!("not valid JSON: {e}")))?;
    let report = doc
        .str_field("report")
        .ok_or_else(|| fail("missing \"report\" field".into()))?;
    let committed = doc
        .get("deterministic")
        .ok_or_else(|| fail("missing \"deterministic\" section".into()))?;
    let Some((_, rederive)) = KINDS.iter().find(|(k, _)| *k == report) else {
        let known: Vec<&str> = KINDS.iter().map(|(k, _)| *k).collect();
        return Err(fail(format!(
            "unknown report kind '{report}' (known: {})",
            known.join(", ")
        )));
    };
    let rederived = rederive().map_err(|e| fail(format!("{report} workload failed: {e}")))?;
    let rederived = dma_core::jsonr::parse(&rederived)
        .map_err(|e| fail(format!("re-derived {report} half is not JSON: {e}")))?;
    let mut mismatches = Vec::new();
    walk(
        "deterministic",
        Some(committed),
        Some(&rederived),
        &mut mismatches,
    );
    Ok(CheckOutcome {
        report: report.to_string(),
        compared: scalars(committed),
        mismatches,
    })
}

/// Pushes a [`Mismatch`] for every path under `path` where the two
/// sides differ. Objects match field by field and arrays element by
/// element; anything else, or a side that lacks the path, is compared
/// whole.
fn walk(
    path: &str,
    committed: Option<&JValue>,
    rederived: Option<&JValue>,
    out: &mut Vec<Mismatch>,
) {
    let child = |key: &str| format!("{path}.{key}");
    match (committed, rederived) {
        (Some(c @ JValue::Obj(cf)), Some(r @ JValue::Obj(rf))) => {
            let before = out.len();
            for (key, v) in cf {
                walk(&child(key), Some(v), r.get(key), out);
            }
            for (key, v) in rf {
                if c.get(key).is_none() {
                    walk(&child(key), None, Some(v), out);
                }
            }
            // Same fields and values in another order, or a duplicated
            // field: equal by key, different as bytes.
            let keys = |fields: &[(String, JValue)]| {
                let names: Vec<String> = fields.iter().map(|(k, _)| render_str(k)).collect();
                format!("fields [{}]", names.join(","))
            };
            if out.len() == before && keys(cf) != keys(rf) {
                out.push(Mismatch {
                    path: path.to_string(),
                    committed: Some(keys(cf)),
                    rederived: Some(keys(rf)),
                });
            }
        }
        (Some(JValue::Arr(c)), Some(JValue::Arr(r))) => {
            for i in 0..c.len().max(r.len()) {
                walk(&format!("{path}[{i}]"), c.get(i), r.get(i), out);
            }
        }
        _ if committed != rederived => out.push(Mismatch {
            path: path.to_string(),
            committed: committed.map(render),
            rederived: rederived.map(render),
        }),
        _ => {}
    }
}

/// Number of scalar (non-container) values in `v`.
fn scalars(v: &JValue) -> usize {
    match v {
        JValue::Obj(fields) => fields.iter().map(|(_, v)| scalars(v)).sum(),
        JValue::Arr(elems) => elems.iter().map(scalars).sum(),
        _ => 1,
    }
}

fn render_str(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Compact JSON text of `v`.
fn render(v: &JValue) -> String {
    match v {
        JValue::Null => "null".to_string(),
        JValue::Bool(b) => b.to_string(),
        JValue::Num(raw) => raw.clone(),
        JValue::Str(s) => render_str(s),
        JValue::Arr(elems) => {
            let parts: Vec<String> = elems.iter().map(render).collect();
            format!("[{}]", parts.join(","))
        }
        JValue::Obj(fields) => {
            let parts: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{}:{}", render_str(k), render(v)))
                .collect();
            format!("{{{}}}", parts.join(","))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes `body` as `BENCH_{name}.json` in a fresh temporary
    /// directory and checks it.
    fn check_body(name: &str, body: &str) -> std::result::Result<CheckOutcome, String> {
        let dir =
            std::env::temp_dir().join(format!("dma-lab-benchfile-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("BENCH_{name}.json"));
        std::fs::write(&path, body).unwrap();
        let out = check_bench_file(&path);
        let _ = std::fs::remove_dir_all(&dir);
        out
    }

    fn report(kind: &str, deterministic: &str) -> String {
        format!(r#"{{"report":"{kind}","deterministic":{deterministic},"timing":[]}}"#)
    }

    #[test]
    fn every_committed_report_has_one_schema_and_a_gated_kind() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mut seen = Vec::new();
        for entry in std::fs::read_dir(root).unwrap() {
            let name = entry.unwrap().file_name().to_string_lossy().into_owned();
            if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
                continue;
            }
            let body = std::fs::read_to_string(root.join(&name)).unwrap();
            let doc = dma_core::jsonr::parse(&body).unwrap();
            let keys: Vec<&str> = doc
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["report", "deterministic", "timing"], "{name}");
            let kind = doc.str_field("report").unwrap();
            assert_eq!(name, format!("BENCH_{kind}.json"));
            assert!(KINDS.iter().any(|(k, _)| *k == kind), "{name}: no gate");
            seen.push(kind.to_string());
        }
        seen.sort();
        let mut all: Vec<String> = KINDS.iter().map(|(k, _)| k.to_string()).collect();
        all.sort();
        assert_eq!(seen, all, "one committed report per kind");
    }

    #[test]
    fn a_planted_regression_fails_the_check() {
        let honest = dkasan().unwrap();
        let out = check_body("dkasan", &report("dkasan", &honest)).unwrap();
        assert!(out.passed(), "{:?}", out.mismatches);
        assert_eq!(out.compared, 28);

        let planted = honest.replacen(r#""dkasan.events":10000"#, r#""dkasan.events":10001"#, 1);
        assert_ne!(planted, honest);
        let out = check_body("dkasan", &report("dkasan", &planted)).unwrap();
        assert_eq!(
            out.mismatches,
            [Mismatch {
                path: "deterministic.replay_10k_events.counters.dkasan.events".into(),
                committed: Some("10001".into()),
                rederived: Some("10000".into()),
            }]
        );
    }

    #[test]
    fn forensics_reports_are_rerun_not_skipped() {
        let honest = forensics().unwrap();
        let out = check_body("forensics", &report("forensics", &honest)).unwrap();
        assert!(out.passed(), "{:?}", out.mismatches);
        assert!(out.compared > 600, "{}", out.compared);

        let doc = dma_core::jsonr::parse(&honest).unwrap();
        let classes = doc.u64_field("incident_classes").unwrap();
        let planted = honest.replacen(
            &format!(r#""incident_classes":{classes}"#),
            &format!(r#""incident_classes":{}"#, classes + 1),
            1,
        );
        let out = check_body("forensics", &report("forensics", &planted)).unwrap();
        let paths: Vec<&str> = out.mismatches.iter().map(|m| m.path.as_str()).collect();
        assert_eq!(paths, ["deterministic.incident_classes"]);
    }

    #[test]
    fn missing_extra_and_reordered_values_are_each_reported() {
        let honest = iotlb().unwrap();
        let doc = dma_core::jsonr::parse(&honest).unwrap();
        let strict = render(doc.get("strict_series").unwrap());
        let deferred = render(doc.get("deferred_series").unwrap());
        let swapped = format!(r#"{{"deferred_series":{deferred},"strict_series":{strict}}}"#);
        let out = check_body("iotlb", &report("iotlb", &swapped)).unwrap();
        assert_eq!(out.mismatches.len(), 1, "{:?}", out.mismatches);
        assert_eq!(out.mismatches[0].path, "deterministic");

        let trimmed = format!(r#"{{"strict_series":{strict},"extra":[1]}}"#);
        let out = check_body("iotlb", &report("iotlb", &trimmed)).unwrap();
        let got: Vec<(&str, Option<&str>, Option<&str>)> = out
            .mismatches
            .iter()
            .map(|m| {
                (
                    m.path.as_str(),
                    m.committed.as_deref(),
                    m.rederived.as_deref(),
                )
            })
            .collect();
        assert_eq!(
            got,
            [
                ("deterministic.extra", Some("[1]"), None),
                (
                    "deterministic.deferred_series",
                    None,
                    Some(deferred.as_str())
                ),
            ]
        );
    }

    #[test]
    fn synth_events_cycle_all_four_classes() {
        let evs = synth_events(8);
        assert_eq!(evs.len(), 8);
        assert!(matches!(evs[0], Event::Alloc { .. }));
        assert!(matches!(evs[1], Event::DmaMap { .. }));
        assert!(matches!(evs[2], Event::CpuAccess { .. }));
        assert!(matches!(evs[3], Event::Free { .. }));
    }

    #[test]
    fn iotlb_series_is_deterministic_and_mode_sensitive() {
        let a = iotlb_series_json(InvalidationMode::Deferred, 50).unwrap();
        let b = iotlb_series_json(InvalidationMode::Deferred, 50).unwrap();
        assert_eq!(a, b, "same mode and count must render byte-identically");
        assert!(a.contains("sim_iommu.stale_window.cycles"), "{a}");
        let strict = iotlb_series_json(InvalidationMode::Strict, 50).unwrap();
        assert!(strict.contains("sim_iommu.iotlb.invalidate"), "{strict}");
        assert!(!strict.contains("sim_iommu.stale_window.cycles"));
    }
}
