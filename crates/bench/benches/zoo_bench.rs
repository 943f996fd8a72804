//! Device-zoo benchmarks: what channel inference costs and what each
//! zoo member's warm executor sustains, written to `BENCH_zoo.json`
//! next to each device family's inferred channel map
//! (`dma_lab::benchfile::zoo`).
//!
//! Two timing families per device family (NIC config 0, virtio config
//! 5, NVMe config 7):
//!
//! - `infer_10k_events_<dev>` — feeding 10⁴ real trace events from that
//!   machine's canonical inference workload through a fresh
//!   [`ChannelInference`] (the stream is cycled to reach 10⁴, so the
//!   per-event mix matches what `dma-lab infer` actually consumes).
//! - `exec_warm_<dev>` — one fuzz exec on the warm template executor,
//!   inputs pinned to the device's config (the per-device execs/sec the
//!   campaign planner reads).

use criterion::{BenchResult, Throughput};
use dma_core::Event;
use dma_lab::benchfile::{self, SEED};
use fuzz::{config_device, machine_config, ChannelInference, ExecContext, FuzzInput};
use std::time::Instant;

/// One representative config per device family.
const FAMILY_CONFIGS: [u8; 3] = [0, 5, 7];
/// Trace events per inference timing row.
const INFER_EVENTS: usize = 10_000;
/// Warm execs averaged per device family.
const WARM_EXECS: u64 = 24;

/// Replays the canonical inference workload and returns its raw event
/// stream — the same bytes `fuzz::infer_channels` consumes.
fn capture_events(config: u8) -> Vec<Event> {
    let mut model = dma_lab::devsim::boot_model(
        machine_config(config, SEED),
        dma_lab::devsim::BootSpec::TracedBoot,
    )
    .expect("boot");
    for i in 0..24u64 {
        model
            .deliver(48 + (i as usize % 7) * 96, i as u8)
            .expect("deliver");
    }
    model.tick_ms(2);
    model.complete_io().expect("complete");
    model.tick_ms(11);
    model.teardown().expect("teardown");
    model.sim().trace.drain()
}

fn main() {
    let mut timing = Vec::new();

    for &config in &FAMILY_CONFIGS {
        let dev = config_device(config).name();

        // Inference cost, normalised to 10⁴ events of this machine's
        // real trace mix.
        let captured = capture_events(config);
        let stream: Vec<Event> = captured
            .iter()
            .cycle()
            .take(INFER_EVENTS)
            .cloned()
            .collect();
        let start = Instant::now();
        let mut inf = ChannelInference::new();
        inf.observe_all(&stream);
        std::hint::black_box(inf.events_seen());
        let infer_ns = start.elapsed().as_nanos() as u64;
        timing.push(BenchResult {
            group: "zoo".into(),
            id: format!("infer_10k_events_{dev}"),
            iters: 1,
            ns_per_iter: infer_ns,
            throughput: Some(Throughput::Elements(INFER_EVENTS as u64)),
        });
        eprintln!("== {dev}: inference over {INFER_EVENTS} events: {infer_ns} ns ==");

        // Warm per-device exec cost: the template boots once, then
        // every exec clones it.
        let mut ctx = ExecContext::new();
        let pinned = |it: u64| {
            let mut input = FuzzInput::generate(SEED, it);
            input.config_id = config;
            input
        };
        ctx.execute(&pinned(0)).expect("template warm-up");
        let start = Instant::now();
        for it in 1..=WARM_EXECS {
            std::hint::black_box(ctx.execute(&pinned(it)).expect("warm exec").signature);
        }
        let exec_ns = (start.elapsed().as_nanos() / u128::from(WARM_EXECS)) as u64;
        timing.push(BenchResult {
            group: "zoo".into(),
            id: format!("exec_warm_{dev}"),
            iters: WARM_EXECS,
            ns_per_iter: exec_ns,
            throughput: Some(Throughput::Elements(1)),
        });
        eprintln!("== {dev}: warm exec: {exec_ns} ns/exec ==");
    }

    let deterministic = benchfile::zoo().expect("channel inference");
    let path = bench::write_report("zoo", &deterministic, &timing).expect("write BENCH_zoo.json");
    eprintln!("report written: {}", path.display());
}
