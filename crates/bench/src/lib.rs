//! The shared benchmark harness: workload builders used by several
//! `benches/` targets, plus the `BENCH_observability.json` emitter.
//!
//! Each bench run produces two kinds of numbers, and the export keeps
//! them apart:
//!
//! - **deterministic** — simulated-cycle metrics snapshots taken from
//!   seeded runs. Same binary, same seed, byte-identical section.
//! - **timing** — wall-clock [`BenchResult`]s from the criterion shim.
//!   These vary run to run and machine to machine by nature.
//!
//! Because `cargo bench` runs every `[[bench]]` target as its own
//! process, each harness writes one *section* file under
//! `target/bench-sections/` and then reassembles the combined
//! `BENCH_observability.json` at the repo root from whatever sections
//! exist. Running a single bench refreshes its section and the roll-up;
//! running them all yields the complete report.

use criterion::{BenchResult, Throughput};
use dma_core::jsonw::JsonWriter;
use dma_core::vuln::DmaDirection;
use dma_core::{Event, Iova, Kva, SimCtx};
use sim_iommu::{dma_map_single, dma_unmap_single, InvalidationMode, Iommu, IommuConfig};
use sim_mem::{MemConfig, MemorySystem};
use std::path::PathBuf;

/// Repo root (the bench crate lives at `crates/bench`).
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn sections_dir() -> PathBuf {
    repo_root().join("target/bench-sections")
}

/// Path of the combined report the harness assembles.
pub fn report_path() -> PathBuf {
    repo_root().join("BENCH_observability.json")
}

/// Path of the standalone fuzzing report `fuzz_bench` writes.
pub fn fuzz_report_path() -> PathBuf {
    repo_root().join("BENCH_fuzz.json")
}

/// Path of the standalone forensics report `forensics_bench` writes.
pub fn forensics_report_path() -> PathBuf {
    repo_root().join("BENCH_forensics.json")
}

/// Path of the standalone crash-safety report `resilience_bench` writes.
pub fn resilience_report_path() -> PathBuf {
    repo_root().join("BENCH_resilience.json")
}

/// Path of the standalone telemetry-service report `serve_bench` writes.
pub fn serve_report_path() -> PathBuf {
    repo_root().join("BENCH_serve.json")
}

/// Path of the standalone sharded-throughput report `scale_bench`
/// writes.
pub fn scale_report_path() -> PathBuf {
    repo_root().join("BENCH_scale.json")
}

/// Path of the standalone device-zoo report `zoo_bench` writes.
pub fn zoo_report_path() -> PathBuf {
    repo_root().join("BENCH_zoo.json")
}

/// Path of the standalone cycle-attribution report `profile_bench`
/// writes.
pub fn profile_report_path() -> PathBuf {
    repo_root().join("BENCH_profile.json")
}

/// Writes `BENCH_profile.json`: the deterministic half is
/// `ProfileRun::deterministic_json` — run facts, the hottest self-cycle
/// frame, and the per-exec phase breakdown `dma-lab bench --check`
/// re-derives — plus the two-run folded-output byte-identity verdict;
/// the timing half holds wall-clock rows for the profiled workload and
/// the export paths, from which `execs_per_sec` is derived. Returns the
/// report path.
pub fn emit_profile_report(
    deterministic_json: &str,
    folded_identical: bool,
    timing: &[BenchResult],
) -> std::io::Result<PathBuf> {
    let mut w = JsonWriter::new();
    w.obj(|w| {
        w.field_str("report", "profile");
        w.field("deterministic", |w| w.raw(deterministic_json));
        w.field_bool("two_run_folded_byte_identical", folded_identical);
        w.field("timing", |w| render_results(w, timing));
        let ns = |id: &str| {
            timing
                .iter()
                .find(|r| r.id == id)
                .map(|r| r.ns_per_iter)
                .filter(|&n| n > 0)
        };
        if let Some(n) = ns("profile_shards_1") {
            w.field_f64("execs_per_sec", 1e9 / n as f64);
        }
    });
    let path = profile_report_path();
    std::fs::write(&path, w.finish())?;
    Ok(path)
}

/// Writes `BENCH_zoo.json`: the deterministic half carries per-device
/// channel-map facts (channel count, kinds, events consumed) and the
/// two-run byte-identity verdict; the timing half holds inference cost
/// normalised to 10⁴ trace events and warm per-device exec rows, from
/// which `execs_per_sec_<device>` figures are derived. Returns the
/// report path.
pub fn emit_zoo_report(
    deterministic_json: &str,
    timing: &[BenchResult],
) -> std::io::Result<PathBuf> {
    let mut w = JsonWriter::new();
    w.obj(|w| {
        w.field_str("report", "zoo");
        w.field("deterministic", |w| w.raw(deterministic_json));
        w.field("timing", |w| render_results(w, timing));
        let ns = |id: &str| {
            timing
                .iter()
                .find(|r| r.id == id)
                .map(|r| r.ns_per_iter)
                .filter(|&n| n > 0)
        };
        for dev in ["nic", "virtio", "nvme"] {
            if let Some(n) = ns(&format!("infer_10k_events_{dev}")) {
                w.field_u64(&format!("infer_ns_per_10k_events_{dev}"), n);
            }
            if let Some(n) = ns(&format!("exec_warm_{dev}")) {
                w.field_f64(&format!("execs_per_sec_{dev}"), 1e9 / n as f64);
            }
        }
    });
    let path = zoo_report_path();
    std::fs::write(&path, w.finish())?;
    Ok(path)
}

/// Writes `BENCH_scale.json`: the deterministic half carries the
/// thread-identity verdict and per-shard-count campaign facts, `scale`
/// carries the derived execs/sec and sim-cycles/sec rows at 1/2/4/8
/// shards plus merge cost, and the timing half holds the raw shim rows.
/// The headline `speedup_8_shards_vs_cold_x` compares the 8-shard warm
/// engine against cold execs — a fresh context, so one template boot,
/// per exec. Returns the report path.
pub fn emit_scale_report(
    deterministic_json: &str,
    scale_json: &str,
    timing: &[BenchResult],
) -> std::io::Result<PathBuf> {
    let mut w = JsonWriter::new();
    w.obj(|w| {
        w.field_str("report", "scale");
        w.field("deterministic", |w| w.raw(deterministic_json));
        w.field("scale", |w| w.raw(scale_json));
        w.field("timing", |w| render_results(w, timing));
        // Warm sharded engine vs the cold fresh-context baseline: the
        // number the "scaling a campaign is worth it" claim rests on.
        let ns = |id: &str| {
            timing
                .iter()
                .find(|r| r.id == id)
                .map(|r| r.ns_per_iter)
                .filter(|&n| n > 0)
        };
        if let (Some(cold), Some(warm)) = (ns("exec_cold"), ns("shards_8")) {
            w.field_f64("speedup_8_shards_vs_cold_x", cold as f64 / warm as f64);
        }
    });
    let path = scale_report_path();
    std::fs::write(&path, w.finish())?;
    Ok(path)
}

/// Writes `BENCH_serve.json`: the deterministic half carries the
/// scripted-session transcript verdict (two seeded runs, byte-identity)
/// and the snapshot-vs-delta frame sizes from which `delta_ratio` is
/// derived; the timing half covers per-frame service cost, from which
/// `frames_per_sec` figures are derived. Returns the report path.
pub fn emit_serve_report(
    deterministic_json: &str,
    timing: &[BenchResult],
) -> std::io::Result<PathBuf> {
    let mut w = JsonWriter::new();
    w.obj(|w| {
        w.field_str("report", "serve");
        w.field("deterministic", |w| w.raw(deterministic_json));
        w.field("timing", |w| render_results(w, timing));
        // Wall-clock frames/sec for the two stats modes: the numbers
        // the "poll deltas, not full dumps" claim rests on.
        let ns = |id: &str| {
            timing
                .iter()
                .find(|r| r.id == id)
                .map(|r| r.ns_per_iter)
                .filter(|&n| n > 0)
        };
        if let Some(full) = ns("stats_full_frame") {
            w.field_f64("full_frames_per_sec", 1e9 / full as f64);
        }
        if let Some(delta) = ns("stats_delta_frame") {
            w.field_f64("delta_frames_per_sec", 1e9 / delta as f64);
        }
    });
    let path = serve_report_path();
    std::fs::write(&path, w.finish())?;
    Ok(path)
}

/// Writes `BENCH_resilience.json`: the deterministic half is the
/// kill-and-resume experiment (byte-identity verdict, resume point,
/// recovered generations) plus checkpoint payload sizes at two corpus
/// scales; the timing half covers checkpoint save/load cost and the
/// per-exec overhead of the `catch_unwind` + watchdog guard, from
/// which `guard_overhead_x` is derived. Returns the report path.
pub fn emit_resilience_report(
    deterministic_json: &str,
    timing: &[BenchResult],
) -> std::io::Result<PathBuf> {
    let mut w = JsonWriter::new();
    w.obj(|w| {
        w.field_str("report", "resilience");
        w.field("deterministic", |w| w.raw(deterministic_json));
        w.field("timing", |w| render_results(w, timing));
        // Guarded (catch_unwind + watchdog) exec cost relative to the
        // plain executor: the number the "isolation is cheap enough to
        // leave on" claim rests on.
        let ns = |id: &str| {
            timing
                .iter()
                .find(|r| r.id == id)
                .map(|r| r.ns_per_iter)
                .filter(|&n| n > 0)
        };
        if let (Some(guarded), Some(plain)) = (ns("exec_guarded"), ns("exec_plain")) {
            w.field_f64("guard_overhead_x", guarded as f64 / plain as f64);
        }
    });
    let path = resilience_report_path();
    std::fs::write(&path, w.finish())?;
    Ok(path)
}

/// Writes `BENCH_forensics.json`: the pinned forensics campaign
/// (byte-identical per seed) plus the recorder-vs-unbounded-trace
/// timing rows, from which the bounded-recorder overhead factor is
/// derived. Returns the report path.
pub fn emit_forensics_report(
    report: &fuzz::ForensicsReport,
    timing: &[BenchResult],
) -> std::io::Result<PathBuf> {
    let mut w = JsonWriter::new();
    w.obj(|w| {
        w.field_str("report", "forensics");
        w.field("deterministic", |w| {
            w.obj(|w| {
                w.field_u64("seed", report.seed);
                w.field_u64("iters", report.iters);
                w.field_u64("forensic_execs", report.forensic_execs);
                w.field_u64("incident_classes", report.cases.len() as u64);
                w.field_u64("callback_exposures", report.callbacks.len() as u64);
                w.field_u64("trace_dropped", report.trace_dropped);
                w.field("campaign", |w| w.raw(&report.to_json()));
            });
        });
        w.field("timing", |w| render_results(w, timing));
        // Bounded-recorder emit cost relative to the unbounded trace:
        // the number the recorder's "ring buffer is cheap enough to
        // leave on" claim rests on.
        let ns = |id: &str| {
            timing
                .iter()
                .find(|r| r.id == id)
                .map(|r| r.ns_per_iter)
                .filter(|&n| n > 0)
        };
        if let (Some(rec), Some(unb)) = (ns("emit_recorded_1024"), ns("emit_unbounded")) {
            w.field_f64("recorder_overhead_x", rec as f64 / unb as f64);
        }
    });
    let path = forensics_report_path();
    std::fs::write(&path, w.finish())?;
    Ok(path)
}

/// Writes `BENCH_fuzz.json`: the campaign's deterministic
/// coverage-over-time series and metrics snapshot (byte-identical for
/// one seed) alongside the shim's wall-clock timings, from which an
/// execs/sec figure is derived. Returns the report path.
pub fn emit_fuzz_report(
    report: &fuzz::FuzzReport,
    timing: &[BenchResult],
) -> std::io::Result<PathBuf> {
    let mut w = JsonWriter::new();
    w.obj(|w| {
        w.field_str("report", "fuzz");
        w.field("deterministic", |w| {
            w.obj(|w| {
                w.field_u64("seed", report.seed);
                w.field_u64("iters", report.iters);
                w.field_u64("execs", report.execs);
                w.field_u64("coverage_bits", report.coverage_bits as u64);
                w.field_u64("corpus_entries", report.corpus.len() as u64);
                w.field_u64("finding_classes", report.findings.len() as u64);
                w.field("series", |w| w.raw(&report.series_json()));
                w.field("stats", |w| w.raw(&report.stats_json));
            });
        });
        w.field("timing", |w| render_results(w, timing));
        // Wall-clock execs/sec from the per-exec timing rows, when the
        // shim produced them; `warm_exec_speedup_x` pins the gain from
        // reusing boot templates and scratch buffers across execs.
        let ns = |id: &str| {
            timing
                .iter()
                .find(|r| r.id == id)
                .map(|r| r.ns_per_iter)
                .filter(|&n| n > 0)
        };
        if let Some(cold) = ns("execute_one_input") {
            w.field_f64("execs_per_sec", 1e9 / cold as f64);
        }
        if let Some(warm) = ns("execute_one_input_warm") {
            w.field_f64("warm_execs_per_sec", 1e9 / warm as f64);
        }
        if let (Some(cold), Some(warm)) = (ns("execute_one_input"), ns("execute_one_input_warm")) {
            w.field_f64("warm_exec_speedup_x", cold as f64 / warm as f64);
        }
    });
    let path = fuzz_report_path();
    std::fs::write(&path, w.finish())?;
    Ok(path)
}

// ---------------------------------------------------------------------
// Shared workload builders.
// ---------------------------------------------------------------------

/// A synthetic alloc/map/access/free event stream for D-KASAN replay
/// benchmarks: `n` events cycling through the four event classes over a
/// sliding window of kmalloc-512 objects.
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

/// A fresh single-device machine (memory + IOMMU) for map/unmap and
/// translation benchmarks.
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
pub fn one_io(ctx: &mut SimCtx, mem: &mut MemorySystem, iommu: &mut Iommu) {
    let buf = mem.kmalloc(ctx, 2048, "io").unwrap();
    let m = dma_map_single(
        ctx,
        iommu,
        &mem.layout,
        1,
        buf,
        2048,
        DmaDirection::FromDevice,
        "m",
    )
    .unwrap();
    iommu
        .dev_write(ctx, &mut mem.phys, 1, m.iova, b"payload")
        .unwrap();
    dma_unmap_single(ctx, iommu, &m).unwrap();
    mem.kfree(ctx, buf).unwrap();
}

/// Runs `ios` full I/O cycles under `mode`, lets any pending deferred
/// flush fire, and returns the deterministic metrics snapshot as JSON —
/// IOTLB hit/miss/stale counters, flush counts, map/unmap latency
/// histograms, and (in deferred mode) the §5.2.1 stale-window
/// distribution.
pub fn iotlb_series_json(mode: InvalidationMode, ios: usize) -> String {
    let (mut ctx, mut mem, mut iommu) = iommu_setup(mode);
    for _ in 0..ios {
        one_io(&mut ctx, &mut mem, &mut iommu);
    }
    ctx.clock.advance_ms(11);
    iommu.tick(&mut ctx);
    ctx.metrics_snapshot().to_json()
}

// ---------------------------------------------------------------------
// BENCH_observability.json emitter.
// ---------------------------------------------------------------------

fn render_results(w: &mut JsonWriter, results: &[BenchResult]) {
    w.arr(|w| {
        for r in results {
            w.elem(|w| {
                w.obj(|w| {
                    w.field_str("group", &r.group);
                    w.field_str("id", &r.id);
                    w.field_u64("iters", r.iters);
                    w.field_u64("ns_per_iter", r.ns_per_iter);
                    match r.throughput {
                        Some(Throughput::Elements(n)) => w.field_u64("elements_per_iter", n),
                        Some(Throughput::Bytes(n)) => w.field_u64("bytes_per_iter", n),
                        None => {}
                    }
                });
            });
        }
    });
}

/// Writes one bench harness's section file. `deterministic` maps a
/// label to an already-rendered JSON document (normally a
/// `Snapshot::to_json()` string); `timing` holds the shim's wall-clock
/// results. Returns the section path.
pub fn emit_section(
    name: &str,
    deterministic: &[(&str, String)],
    timing: &[BenchResult],
) -> std::io::Result<PathBuf> {
    let mut w = JsonWriter::new();
    w.obj(|w| {
        w.field_str("section", name);
        w.field("deterministic", |w| {
            w.obj(|w| {
                for (label, json) in deterministic {
                    w.field(label, |w| w.raw(json));
                }
            });
        });
        w.field("timing", |w| render_results(w, timing));
    });
    let dir = sections_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, w.finish())?;
    assemble()?;
    Ok(path)
}

/// Reassembles `BENCH_observability.json` from every section file
/// currently present, in sorted (deterministic) section order.
///
/// Fails (and the harness exits non-zero) when `target/bench-sections/`
/// yields no sections at all: an empty roll-up used to be written
/// silently, and an empty `BENCH_observability.json` once made it into
/// the tree that way.
pub fn assemble() -> std::io::Result<PathBuf> {
    assemble_from(&sections_dir(), &report_path())
}

/// [`assemble`] against explicit directories, for the harness and its
/// tests.
pub fn assemble_from(
    sections: &std::path::Path,
    report: &std::path::Path,
) -> std::io::Result<PathBuf> {
    let mut found = Vec::new();
    if let Ok(entries) = std::fs::read_dir(sections) {
        for e in entries.flatten() {
            if e.path().extension().is_some_and(|x| x == "json") {
                found.push((
                    e.path()
                        .file_stem()
                        .unwrap_or_default()
                        .to_string_lossy()
                        .into_owned(),
                    std::fs::read_to_string(e.path())?,
                ));
            }
        }
    }
    if found.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!(
                "no bench sections under {} — run `cargo bench` so at least \
                 one harness emits its section before assembling",
                sections.display()
            ),
        ));
    }
    found.sort_by(|a, b| a.0.cmp(&b.0));
    let mut w = JsonWriter::new();
    w.obj(|w| {
        w.field_str("report", "observability");
        w.field("sections", |w| {
            w.obj(|w| {
                for (name, body) in &found {
                    w.field(name, |w| w.raw(body));
                }
            });
        });
    });
    std::fs::write(report, w.finish())?;
    Ok(report.to_path_buf())
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let a = iotlb_series_json(InvalidationMode::Deferred, 50);
        let b = iotlb_series_json(InvalidationMode::Deferred, 50);
        assert_eq!(a, b, "same mode and count must render byte-identically");
        assert!(a.contains("sim_iommu.stale_window.cycles"), "{a}");
        let strict = iotlb_series_json(InvalidationMode::Strict, 50);
        assert!(strict.contains("sim_iommu.iotlb.invalidate"), "{strict}");
        assert!(!strict.contains("sim_iommu.stale_window.cycles"));
    }

    #[test]
    fn emit_and_assemble_produce_valid_report() {
        let results = vec![BenchResult {
            group: "g".into(),
            id: "b".into(),
            iters: 3,
            ns_per_iter: 100,
            throughput: Some(Throughput::Elements(7)),
        }];
        let det = vec![("series", r#"{"x":1}"#.to_string())];
        let path = emit_section("unit_test_section", &det, &results).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.contains("\"section\":\"unit_test_section\""));
        assert!(body.contains("\"elements_per_iter\":7"));
        let report = std::fs::read_to_string(report_path()).unwrap();
        assert!(report.contains("\"unit_test_section\""));
        assert!(report.contains("\"report\":\"observability\""));
        // Clean the marker section up so repeated test runs stay
        // stable. With the marker gone the directory may be empty, in
        // which case assemble now (correctly) refuses to roll up.
        std::fs::remove_file(path).unwrap();
        match assemble() {
            Ok(_) => {}
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound, "{e}"),
        }
    }

    #[test]
    fn assemble_refuses_an_empty_sections_directory() {
        let dir = std::env::temp_dir().join(format!(
            "dma-lab-bench-empty-sections-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let report = dir.join("report.json");

        let err = assemble_from(&dir, &report).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
        assert!(err.to_string().contains("no bench sections"), "{err}");
        assert!(!report.exists(), "refusal must not write a report");

        // One section in place and the same call succeeds.
        std::fs::write(dir.join("s.json"), r#"{"section":"s"}"#).unwrap();
        assemble_from(&dir, &report).unwrap();
        let body = std::fs::read_to_string(&report).unwrap();
        assert!(body.contains("\"report\":\"observability\""));
        assert!(body.contains("\"s\":{\"section\":\"s\"}"), "{body}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
