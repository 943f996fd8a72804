//! The shared benchmark harness: the one writer every report-producing
//! bench target calls.
//!
//! A report is `BENCH_{kind}.json` at the repository root, holding
//! `{"report","deterministic","timing"}` and nothing else:
//!
//! - **deterministic** — the kind's half from `dma_lab::benchfile`,
//!   which `dma-lab bench --check` re-derives and compares value by
//!   value.
//! - **timing** — wall-clock [`BenchResult`]s from the criterion shim.
//!   These vary run to run and machine to machine by nature, and
//!   nothing gates them.

use criterion::{BenchResult, Throughput};
use dma_core::jsonw::JsonWriter;
use std::path::PathBuf;

/// Writes `BENCH_{kind}.json` at the repository root and returns its
/// path.
pub fn write_report(
    kind: &str,
    deterministic: &str,
    timing: &[BenchResult],
) -> std::io::Result<PathBuf> {
    let mut w = JsonWriter::new();
    w.obj(|w| {
        w.field_str("report", kind);
        w.field("deterministic", |w| w.raw(deterministic));
        w.field("timing", |w| {
            w.arr(|w| {
                for r in timing {
                    w.elem(|w| {
                        w.obj(|w| {
                            w.field_str("group", &r.group);
                            w.field_str("id", &r.id);
                            w.field_u64("iters", r.iters);
                            w.field_u64("ns_per_iter", r.ns_per_iter);
                            match r.throughput {
                                Some(Throughput::Elements(n)) => {
                                    w.field_u64("elements_per_iter", n)
                                }
                                Some(Throughput::Bytes(n)) => w.field_u64("bytes_per_iter", n),
                                None => {}
                            }
                        });
                    });
                }
            });
        });
    });
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../BENCH_{kind}.json"));
    std::fs::write(&path, w.finish())?;
    Ok(path)
}
