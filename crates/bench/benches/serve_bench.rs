//! Telemetry-service cost model: what one `dma-lab serve` frame costs,
//! written to `BENCH_serve.json` next to the pinned session's
//! transcript and frame sizes (`dma_lab::benchfile::serve`).
//!
//! Timing rows:
//! - `stats_full_frame` — serving one full-snapshot `stats` frame.
//! - `stats_delta_frame` — serving one `{"mode":"delta"}` frame against
//!   the connection's previous baseline.
//! - `step_frame` — advancing the campaign one iteration and draining
//!   its event frames.
//! - `posture_sweep` — the nine-config posture audit.

use criterion::{criterion_group, Criterion};
use dma_lab::benchfile::{self, warmed_server};
use dma_lab::serve::{ConnState, Flow, Server};

fn one_frame(server: &mut Server, conn: &mut ConnState, req: &str) -> Vec<String> {
    let mut out = Vec::new();
    let flow = server.handle_line(req, conn, &mut out);
    assert!(matches!(flow, Flow::Continue), "{req} did not continue");
    out
}

fn bench_frames(c: &mut Criterion) {
    let mut g = c.benchmark_group("serve");
    g.sample_size(20);
    g.throughput(criterion::Throughput::Elements(1));

    {
        let mut server = warmed_server(64).expect("server");
        let mut conn = ConnState::default();
        g.bench_function("stats_full_frame", |b| {
            b.iter(|| std::hint::black_box(one_frame(&mut server, &mut conn, r#"{"req":"stats"}"#)))
        });
    }
    {
        let mut server = warmed_server(64).expect("server");
        let mut conn = ConnState::default();
        // Establish the baseline once; every measured frame is a delta.
        one_frame(&mut server, &mut conn, r#"{"req":"stats"}"#);
        g.bench_function("stats_delta_frame", |b| {
            b.iter(|| {
                std::hint::black_box(one_frame(
                    &mut server,
                    &mut conn,
                    r#"{"req":"stats","mode":"delta"}"#,
                ))
            })
        });
    }
    {
        let mut server = warmed_server(8).expect("server");
        let mut conn = ConnState::default();
        g.bench_function("step_frame", |b| {
            b.iter(|| {
                std::hint::black_box(one_frame(&mut server, &mut conn, r#"{"req":"step","n":1}"#))
            })
        });
    }
    {
        let mut server = warmed_server(8).expect("server");
        let mut conn = ConnState::default();
        g.bench_function("posture_sweep", |b| {
            b.iter(|| {
                std::hint::black_box(one_frame(&mut server, &mut conn, r#"{"req":"posture"}"#))
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_frames);

fn main() {
    let mut c = benches();
    let deterministic = benchfile::serve().expect("scripted session");
    let path = bench::write_report("serve", &deterministic, &c.take_results())
        .expect("write BENCH_serve.json");
    eprintln!("report written: {}", path.display());
}
