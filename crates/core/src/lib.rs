//! Shared vocabulary for the DMA-attack reproduction workspace.
//!
//! This crate defines the concepts every other crate speaks in:
//!
//! - [`addr`] — strongly-typed addresses: physical addresses, page frame
//!   numbers, kernel virtual addresses (KVA) and I/O virtual addresses
//!   (IOVA), with page arithmetic.
//! - [`layout`] — the x86-64 Linux kernel virtual-memory layout of Table 1
//!   of the paper, including KASLR randomization of the region bases and
//!   the KVA ↔ PFN ↔ `struct page` translations that the attacks abuse.
//! - [`vuln`] — the paper's taxonomy: the four sub-page vulnerability
//!   types (§3.2, Figure 1) and the three vulnerability attributes required
//!   for code injection (§3.3).
//! - [`clock`] — a simulated cycle-accurate clock plus the cost constants
//!   the paper quotes (IOTLB invalidation ≈ 2000 cycles, TLB ≈ 100).
//! - [`trace`] — the event stream emitted by the simulators and consumed
//!   by D-KASAN and the experiment harnesses.
//! - [`rng`] — a small deterministic RNG (`splitmix64` / `xoshiro256**`)
//!   used wherever determinism is load-bearing (e.g. the RingFlood
//!   reboot survey).
//! - [`dethash`] — the fixed-key hasher ([`DetHashMap`], [`DetHashSet`])
//!   behind the simulator's address-keyed maps.
//! - [`fault`] — deterministic, seeded fault injection (the simulator's
//!   `failslab` / `fail_page_alloc` analog): a [`FaultPlan`] of
//!   site-tagged rules queried via `SimCtx::fault`, driving the
//!   graceful-degradation paths in every layer.
//! - [`metrics`] — the deterministic observability registry carried by
//!   every [`SimCtx`]: counters, gauges, fixed-bucket histograms, and
//!   span-scoped cycle attribution, exported as text or JSON.
//! - [`profile`] — hierarchical cycle attribution: the span stack
//!   folded into a deterministic call tree ([`Profile`]), with folded-
//!   stack (flamegraph) and speedscope exports plus the shard-merge
//!   fold behind `dma-lab profile`.
//! - [`jsonw`] — the serde-free JSON writer the exporters use so
//!   machine-readable output stays byte-deterministic.
//! - [`coverage`] — the deterministic feature bitmap the `fuzz` crate
//!   uses as its coverage signal: site tags, D-KASAN finding classes,
//!   and taxonomy hits hashed into a fixed-size, signature-carrying map.
//! - [`recorder`] — the bounded flight recorder: a deterministic ring
//!   buffer over events with eviction accounting, for long-running
//!   soaks and fuzz campaigns (`SimCtx::recorded`).
//! - [`provenance`] — the causal graph over events: alloc → map →
//!   access → unmap → flush lineage plus slab/page reuse edges, walked
//!   backward by the forensics engine in crate `dkasan`.
//! - [`chrome`] — Perfetto / Chrome `trace_event` JSON export of spans
//!   and events (byte-deterministic per seed).
//! - [`jsonr`] — the matching serde-free JSON reader, so checkpoint
//!   snapshots written via [`jsonw`] can be loaded back losslessly.
//! - [`checkpoint`] — crash-safe campaign snapshots: a versioned,
//!   checksummed envelope persisted under a two-generation A/B scheme
//!   with injectable, retried I/O faults, plus the codecs that carry
//!   events, recorders, coverage maps, and metric registries across a
//!   process kill.
//! - [`posture`] — the IOMMU protection-posture audit report
//!   (`iommu_status.py` analog): invalidation policy, per-domain
//!   isolation groups, sub-page sharing surface and observed §5.2.1
//!   stale-window statistics, graded into deterministic findings for
//!   the `dma-lab serve` `posture` request.

pub mod addr;
pub mod checkpoint;
pub mod chrome;
pub mod clock;
pub mod coverage;
pub mod dethash;
pub mod error;
pub mod fault;
pub mod jsonr;
pub mod jsonw;
pub mod layout;
pub mod metrics;
pub mod posture;
pub mod profile;
pub mod provenance;
pub mod recorder;
pub mod rng;
pub mod trace;
pub mod vuln;

pub use addr::{Iova, Kva, Pfn, PhysAddr, PAGE_MASK, PAGE_SHIFT, PAGE_SIZE};
pub use checkpoint::{CheckpointStore, LoadedCheckpoint, CHECKPOINT_VERSION};
pub use clock::{Clock, Cycles};
pub use coverage::{CoverageMap, COVERAGE_BITS};
pub use dethash::{DetHashMap, DetHashSet};
pub use error::{DmaError, Result};
pub use fault::{FaultPlan, FaultRule, FaultTrigger};
pub use jsonr::{JValue, JsonError};
pub use layout::{KernelLayout, VmRegion};
pub use metrics::{Metrics, Snapshot, SnapshotDelta, SpanToken};
pub use posture::{GroupPosture, PostureFinding, PostureReport, Severity, StaleWindowStats};
pub use profile::{Profile, ProfileNode};
pub use provenance::{EdgeKind, ProvenanceGraph};
pub use recorder::FlightRecorder;
pub use rng::{shard_seed, DetRng};
pub use trace::{Event, SimCtx, Trace};
pub use vuln::{AccessRight, AttackOutcome, SubPageVulnerability, VulnerabilityAttributes};
