//! # dma-lab
//!
//! A full reproduction, in Rust, of *"Characterizing, Exploiting, and
//! Detecting DMA Code Injection Vulnerabilities in the Presence of an
//! IOMMU"* (Markuze et al., EuroSys '21).
//!
//! This facade crate re-exports the workspace:
//!
//! - [`core`](dma_core) — addresses, the Table-1 kernel memory layout +
//!   KASLR, the sub-page vulnerability taxonomy (§3.2) and the three
//!   vulnerability attributes (§3.3).
//! - [`mem`](sim_mem) — simulated physical memory and the Linux-style
//!   allocators (buddy, SLUB kmalloc, page_frag).
//! - [`iommu`](sim_iommu) — the IOMMU: page tables, IOTLB,
//!   strict/deferred invalidation (§5.2.1), and the DMA API.
//! - [`net`](sim_net) — the network substrate: sk_buff /
//!   `skb_shared_info` byte layouts, drivers, GRO, forwarding.
//! - [`device`](devsim) — honest and malicious DMA device models plus
//!   the [`devsim::Testbed`] machine assembly.
//! - [`attacks`] — KASLR subversion, the gadget scanner and mini CPU,
//!   and the single-step + three compound attacks (§5, §6).
//! - [`spade`] — the static analyzer (§4.1) with its driver corpus.
//! - [`dkasan`] — the run-time sanitizer (§4.2).
//! - [`fuzz`] — deterministic coverage-guided DMA-input fuzzing with
//!   D-KASAN as oracle, behind `dma-lab fuzz`.
//! - [`defenses`] — the §8/§9 countermeasures (bounce buffers, DAMN,
//!   sub-page limits, KARL, CET) as executable ablations.
//! - [`obs`] — the observability workload: one deterministic run with
//!   every metric source lit, behind `dma-lab stats`/`dma-lab trace`.
//! - [`serve`] — live campaign telemetry: the line-JSON-over-TCP
//!   service behind `dma-lab serve` (streaming findings, metric
//!   deltas, the IOMMU posture audit, Perfetto export).
//! - [`profiling`] — the deterministic cycle-attribution profiler
//!   behind `dma-lab profile` (hierarchical span trees, flamegraph
//!   export).
//! - [`benchfile`] — the committed `BENCH_*.json` reports: one function
//!   per report kind that re-derives its deterministic half, and the
//!   `dma-lab bench --check` gate that compares every value.
//!
//! ## Quickstart
//!
//! ```
//! use dma_lab::devsim::{Testbed, TestbedConfig};
//! use dma_lab::sim_net::packet::Packet;
//!
//! let mut tb = Testbed::new(TestbedConfig::default()).unwrap();
//! tb.deliver_packet(&Packet::udp(9, 1, b"hello".to_vec())).unwrap();
//! assert_eq!(tb.stack.stats.delivered, 1);
//! ```

pub mod benchfile;
pub mod obs;
pub mod profiling;
pub mod serve;

pub use attacks;
pub use defenses;
pub use devsim;
pub use dkasan;
pub use dma_core;
pub use fuzz;
pub use sim_iommu;
pub use sim_mem;
pub use sim_net;
pub use spade;
