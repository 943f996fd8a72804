//! Deterministic execution of one fuzz input against a fresh machine.
//!
//! [`ExecContext`] is the only executor. Each input runs on a deep
//! clone of a booted machine template — the `config_id` row of the
//! device×mode [`MACHINES`] matrix selects the device family
//! ([`DeviceKind`]) along with its unmap ordering and invalidation mode
//! — applies its op program through the [`DeviceModel`] trait, replays
//! the event trace through D-KASAN *and* the `dma-infer` channel
//! engine after every op, and folds everything observable into a
//! [`CoverageMap`]: per-op outcomes, trace-event shapes, fault-site
//! hits, metric/span names, D-KASAN finding classes, Figure-1 taxonomy
//! letters, and §5.2 window paths. The map's signature is the input's
//! behavioral fingerprint — identical across replays of the same
//! `(seed, iteration)`.
//!
//! The mutation vocabulary carries **no device-specific offsets**: the
//! `channel_write` op aims at whatever the in-run [`ChannelInference`]
//! has learned so far, so the same op program tampers with
//! `skb_shared_info` on the NIC, virtio-net headers on the split-ring
//! machine, and PRP data pages on the NVMe pair.

use devsim::testbed::MemConfigLite;
use devsim::{boot_model, BootSpec, DeviceKind, DeviceModel, TestbedConfig, WindowHit};
use dkasan::{investigate, DKasan, FindingKind, Incident};
use dma_core::vuln::{CallbackExposure, SubPageVulnerability, TimeWindow, VulnerabilityAttributes};
use dma_core::{
    CoverageMap, DetRng, DmaError, Event, Kva, Profile, ProvenanceGraph, Result, VmRegion,
};
use dma_infer::ChannelInference;
use sim_iommu::{InvalidationMode, IommuConfig};
use sim_net::driver::{AllocPolicy, DriverConfig, UnmapOrder};
use sim_net::stack::StackConfig;

use crate::input::{FuzzInput, MutationOp, FAULT_GLOBS, NUM_CONFIGS};

/// One §3.3-classified vulnerability observation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzFinding {
    /// Iteration that produced it (replay with the run seed).
    pub iteration: u64,
    /// Figure-1 sub-page vulnerability type.
    pub taxonomy: SubPageVulnerability,
    /// D-KASAN finding class, when the oracle confirmed it.
    pub dkasan: Option<FindingKind>,
    /// Site tag (D-KASAN findings) or tampered field name.
    pub site: String,
    /// Stable id of the backing [`dkasan::DKasanFinding`] (empty for
    /// device-write observations with no oracle report).
    pub dkasan_id: String,
    /// The §3.3 attribute set assembled for this observation.
    pub attrs: VulnerabilityAttributes,
}

impl FuzzFinding {
    /// Dedup key: class identity without the per-run details.
    pub fn key(&self) -> String {
        format!(
            "{}|{}|{}|{}",
            self.taxonomy.letter(),
            self.dkasan.map(|k| k.to_string()).unwrap_or_default(),
            self.site,
            self.attrs
                .window
                .map(|w| w.path.to_string())
                .unwrap_or_default(),
        )
    }
}

/// How one execution ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecStatus {
    /// The op program ran to completion (the only status the corpus
    /// ever admits).
    Completed,
    /// The deterministic watchdog aborted the run: the simulated clock
    /// crossed the cycle budget. Because the budget is counted in
    /// simulated cycles — never wall-clock — the abort point replays
    /// bit-identically.
    HangAborted {
        /// Simulated cycle at which the budget was found exceeded.
        at_cycles: u64,
        /// Index of the op after which the check fired.
        after_op: usize,
    },
}

/// Default per-execution watchdog budget, in simulated cycles. Sized at
/// roughly 8x the most expensive legitimate input observed across the
/// configuration sweep, so only genuinely runaway executions trip it.
pub const DEFAULT_WATCHDOG_BUDGET: u64 = 5_000_000_000;

/// Simulated cycles one `BusySpin` round burns.
pub const SPIN_COST: u64 = 4096;

/// Everything one execution produced.
#[derive(Clone, Debug)]
pub struct ExecOutcome {
    /// How the execution ended.
    pub status: ExecStatus,
    /// The input's coverage map.
    pub coverage: CoverageMap,
    /// `coverage.signature()`, precomputed.
    pub signature: u64,
    /// Classified findings, in discovery order.
    pub findings: Vec<FuzzFinding>,
    /// Packets the stack delivered or echoed.
    pub delivered: u64,
    /// Ops absorbed as tolerated drops.
    pub dropped: u64,
    /// Final simulated cycle of the run.
    pub cycles: u64,
    /// Pages the device could still DMA to after shutdown.
    pub leaked_pages: usize,
    /// Events the bounded flight recorder evicted before a drain could
    /// consume them (the `trace.dropped` counter at run end).
    pub trace_dropped: u64,
    /// Hierarchical cycle-attribution profile of this execution: the
    /// per-phase call tree (`exec.deliver` / `exec.churn` /
    /// `exec.oracle` / `exec.infer` / `exec.teardown`) with every
    /// instrumented allocator and IOMMU frame nested underneath. Boot
    /// cost is excluded — the tree is reset after the template clone is
    /// obtained.
    pub profile: Profile,
}

/// One forensically-instrumented execution: the outcome, the full
/// provenance graph of the run's event stream, and one investigated
/// [`Incident`] per D-KASAN finding.
pub struct ForensicRun {
    /// The ordinary execution outcome.
    pub outcome: ExecOutcome,
    /// Causal graph built from every event the run emitted.
    pub graph: ProvenanceGraph,
    /// Incidents in D-KASAN discovery order.
    pub incidents: Vec<Incident>,
}

/// One row of the machine matrix: which device family boots, under
/// which driver shape and invalidation mode.
struct MachineRow {
    name: &'static str,
    device: DeviceKind,
    alloc: AllocPolicy,
    unmap_order: UnmapOrder,
    map_ctrl_block: bool,
    mode: InvalidationMode,
}

/// The device×mode matrix `config_id` indexes. Rows 0–3 are the
/// original NIC sweep (byte-compatible shapes); row 4 inverts the NIC's
/// unmap/flush ordering; rows 5–8 are the non-NIC zoo members in their
/// window-open (deferred) and window-closed (strict) modes.
const MACHINES: [MachineRow; NUM_CONFIGS as usize] = [
    MachineRow {
        name: "pagefrag-deferred",
        device: DeviceKind::Nic,
        alloc: AllocPolicy::PageFrag,
        unmap_order: UnmapOrder::UnmapThenBuild,
        map_ctrl_block: false,
        mode: InvalidationMode::Deferred,
    },
    MachineRow {
        name: "i40e-build-then-unmap-strict",
        device: DeviceKind::Nic,
        alloc: AllocPolicy::PageFrag,
        unmap_order: UnmapOrder::BuildThenUnmap,
        map_ctrl_block: false,
        mode: InvalidationMode::Strict,
    },
    MachineRow {
        name: "kmalloc-ctrlblock-deferred",
        device: DeviceKind::Nic,
        alloc: AllocPolicy::Kmalloc,
        unmap_order: UnmapOrder::UnmapThenBuild,
        map_ctrl_block: true,
        mode: InvalidationMode::Deferred,
    },
    MachineRow {
        name: "pageperbuffer-strict",
        device: DeviceKind::Nic,
        alloc: AllocPolicy::PagePerBuffer,
        unmap_order: UnmapOrder::UnmapThenBuild,
        map_ctrl_block: false,
        mode: InvalidationMode::Strict,
    },
    MachineRow {
        name: "nic-inverted-deferred",
        device: DeviceKind::Nic,
        alloc: AllocPolicy::PageFrag,
        unmap_order: UnmapOrder::BuildThenUnmap,
        map_ctrl_block: false,
        mode: InvalidationMode::Deferred,
    },
    MachineRow {
        name: "virtio-split-deferred",
        device: DeviceKind::VirtioSplit,
        alloc: AllocPolicy::Kmalloc,
        unmap_order: UnmapOrder::UnmapThenBuild,
        map_ctrl_block: false,
        mode: InvalidationMode::Deferred,
    },
    MachineRow {
        name: "virtio-split-strict",
        device: DeviceKind::VirtioSplit,
        alloc: AllocPolicy::Kmalloc,
        unmap_order: UnmapOrder::BuildThenUnmap,
        map_ctrl_block: false,
        mode: InvalidationMode::Strict,
    },
    MachineRow {
        name: "nvme-qpair-deferred",
        device: DeviceKind::NvmeQueuePair,
        alloc: AllocPolicy::PageFrag,
        unmap_order: UnmapOrder::UnmapThenBuild,
        map_ctrl_block: false,
        mode: InvalidationMode::Deferred,
    },
    MachineRow {
        name: "nvme-qpair-strict",
        device: DeviceKind::NvmeQueuePair,
        alloc: AllocPolicy::PageFrag,
        unmap_order: UnmapOrder::BuildThenUnmap,
        map_ctrl_block: false,
        mode: InvalidationMode::Strict,
    },
];

fn machine_row(config_id: u8) -> &'static MachineRow {
    MACHINES
        .get(config_id as usize)
        .unwrap_or_else(|| panic!("config id {config_id} out of range (0..{NUM_CONFIGS})"))
}

/// Human-readable name of a machine configuration.
///
/// # Panics
/// On an out-of-range id — ids are validated at the CLI boundary
/// ([`parse_config`]) and never silently aliased.
pub fn config_name(config_id: u8) -> &'static str {
    machine_row(config_id).name
}

/// The device family a machine configuration boots.
///
/// # Panics
/// On an out-of-range id (see [`config_name`]).
pub fn config_device(config_id: u8) -> DeviceKind {
    machine_row(config_id).device
}

/// Parses a CLI config selector: a numeric id (`"5"`) or an exact
/// configuration name (`"virtio-split-deferred"`). Returns `None` for
/// out-of-range ids and unknown names — the caller rejects, it never
/// wraps.
pub fn parse_config(s: &str) -> Option<u8> {
    if s.chars().all(|c| c.is_ascii_digit()) && !s.is_empty() {
        let id = s.parse::<u64>().ok()?;
        return (id < NUM_CONFIGS as u64).then_some(id as u8);
    }
    (0..NUM_CONFIGS).find(|&id| config_name(id) == s)
}

/// The machine configuration sweep. Index 1 is the planted i40e-style
/// shape (build_skb before unmap, §5.2.2 path (i)); index 2 is the
/// kmalloc + mapped-control-block shape whose slab sharing D-KASAN
/// flags (types (b)/(d)); indexes 5–8 boot the virtio split-ring and
/// NVMe queue-pair zoo members.
///
/// # Panics
/// On an out-of-range id (see [`config_name`]).
pub fn machine_config(config_id: u8, seed: u64) -> TestbedConfig {
    let row = machine_row(config_id);
    TestbedConfig {
        device: row.device,
        mem: MemConfigLite {
            kaslr_seed: Some(seed),
            ..Default::default()
        },
        iommu: IommuConfig {
            mode: row.mode,
            ..Default::default()
        },
        driver: DriverConfig {
            alloc: row.alloc,
            unmap_order: row.unmap_order,
            map_ctrl_block: row.map_ctrl_block,
            ..Default::default()
        },
        stack: StackConfig {
            echo_service: true,
            ..Default::default()
        },
        boot_noise_seed: Some(seed),
    }
}

/// Errors that mean allocator metadata was torn by an earlier device
/// write (e.g. a stale-window DMA into a freed slab object clobbering
/// the in-object freelist pointer): the crash surfaces on a *later*
/// allocation popping the planted value as a KVA. The executor converts
/// these into type-(d) findings instead of aborting the campaign.
fn corruption(e: &DmaError) -> bool {
    matches!(
        e,
        DmaError::NotDirectMap(_)
            | DmaError::BadPhysAddr(_)
            | DmaError::BadPfn(_)
            | DmaError::BadFree(_)
    )
}

/// Errors an op may absorb as a drop (same set as the chaos soak).
fn tolerated(e: &DmaError) -> bool {
    e.is_transient()
        || corruption(e)
        || matches!(
            e,
            DmaError::IommuFault { .. } | DmaError::IommuPermission { .. }
        )
}

/// The kmalloc sites the churn op draws from.
const CHURN_SITES: &[(&str, usize)] = &[
    ("load_elf_phdrs", 512),
    ("sock_alloc_inode", 64),
    ("kstrdup", 32),
    ("getname_flags", 1024),
];

/// Figure-1 taxonomy class for a D-KASAN finding: machines whose DMA
/// buffers co-locate *random* kernel objects (kmalloc-backed buffers,
/// mapped control blocks — the [`DeviceModel::colocates_random`]
/// answer) produce type (d); page-frag shapes share driver-owned
/// metadata, type (a).
pub fn taxonomy_of(kind: FindingKind, colocates_random: bool) -> SubPageVulnerability {
    match kind {
        FindingKind::MultipleMap => SubPageVulnerability::MultipleIova,
        FindingKind::AccessAfterMap => SubPageVulnerability::OsMetadata,
        FindingKind::AllocAfterMap | FindingKind::MapAfterAlloc => {
            if colocates_random {
                SubPageVulnerability::RandomColocation
            } else {
                SubPageVulnerability::DriverMetadata
            }
        }
    }
}

/// Capacity of the bounded flight recorder each execution runs under.
/// Events are drained after every op, so the recorder only needs to
/// absorb one op's burst (plus boot); evictions — counted in
/// `trace.dropped` and surfaced on the outcome — mean an op out-emitted
/// the ring and the oracle saw a truncated stream. The ring allocates
/// as it records, so a template that never records holds none of it.
pub const EXEC_RECORDER_CAPACITY: usize = 8192;

/// The one executor: booted machine templates plus a reused input-byte
/// buffer. Every fuzz input runs through a context; a "cold" run is
/// simply a fresh one.
///
/// For a given `(config_id, seed)` every boot is identical, and a boot
/// costs far more than a clone of its result. A context boots each of
/// the [`NUM_CONFIGS`] matrix rows once, on first use, and clones the
/// template per exec. A clone copies only the physical frames the
/// template has touched; its IOMMU page-table nodes and kernel text stay
/// shared copy-on-write until the clone writes them, and a first write
/// under a shared page-table node copies only its populated slots. It
/// carries the exact post-boot state a fresh boot produces (allocator
/// layout, recorder contents, metrics), so an exec on a long-lived context is
/// outcome-identical to one on a fresh context; tests/scale.rs and the
/// `devsim` clone tests pin this. The input-byte staging buffer is
/// reused across execs instead of re-allocated per exec.
///
/// One context per shard: it is deliberately `!Sync`-shaped state that a
/// single shard thread owns, which is what keeps the sharded campaign
/// free of cross-thread mutation.
pub struct ExecContext {
    /// One booted template per machine config, keyed by the campaign
    /// seed it was booted with (a context survives seed changes by
    /// re-booting the slot).
    templates: Vec<Option<(u64, Box<dyn DeviceModel>)>>,
    /// Reused input-byte staging buffer (`InjectRaw` / `PayloadDeposit`).
    bytes: Vec<u8>,
}

impl ExecContext {
    /// Creates an empty context; templates boot lazily on first use.
    pub fn new() -> Self {
        ExecContext {
            templates: (0..NUM_CONFIGS as usize).map(|_| None).collect(),
            bytes: Vec::new(),
        }
    }

    /// A ready-to-run machine for `input`'s configuration: a clone of
    /// the cached boot template (booting it first if this is the
    /// slot's first use or the seed changed).
    fn model(&mut self, config_id: u8, seed: u64) -> Result<Box<dyn DeviceModel>> {
        let cfg = machine_config(config_id, seed); // validates the id
        let idx = config_id as usize;
        if !matches!(&self.templates[idx], Some((s, _)) if *s == seed) {
            let m = boot_model(cfg, BootSpec::Recorded(EXEC_RECORDER_CAPACITY))?;
            self.templates[idx] = Some((seed, m));
        }
        Ok(self.templates[idx]
            .as_ref()
            .expect("just booted")
            .1
            .clone_model())
    }

    /// Executes one input on a clean machine.
    pub fn execute(&mut self, input: &FuzzInput) -> Result<ExecOutcome> {
        Ok(self.run(input, None, None, None)?.0)
    }

    /// Executes one input with a chaos fault plan armed on top of
    /// whatever `ArmFault` ops the input itself carries (what the chaos
    /// soak feeds corpus entries through).
    pub fn execute_under_faults(
        &mut self,
        input: &FuzzInput,
        fault_seed: u64,
    ) -> Result<ExecOutcome> {
        Ok(self.run(input, Some(fault_seed), None, None)?.0)
    }

    /// Executes one input under a deterministic watchdog: once the
    /// simulated clock crosses `budget` cycles the run is aborted with
    /// [`ExecStatus::HangAborted`] instead of running to completion. The
    /// campaign engine wraps every exec in this so a runaway input
    /// becomes a finding, not a wedged process.
    pub fn execute_with_budget(&mut self, input: &FuzzInput, budget: u64) -> Result<ExecOutcome> {
        Ok(self.run(input, None, None, Some(budget))?.0)
    }

    /// Executes one input while feeding every event into a
    /// [`ProvenanceGraph`], then investigates each D-KASAN finding
    /// against it. This is the `dma-lab forensics` execution path; the
    /// ordinary fuzzing loop skips the graph.
    pub fn execute_with_forensics(&mut self, input: &FuzzInput) -> Result<ForensicRun> {
        let mut graph = ProvenanceGraph::new();
        let (outcome, dkasan) = self.run(input, None, Some(&mut graph), None)?;
        let incidents = dkasan
            .findings()
            .iter()
            .map(|f| investigate(&graph, f))
            .collect();
        Ok(ForensicRun {
            outcome,
            graph,
            incidents,
        })
    }

    fn run(
        &mut self,
        input: &FuzzInput,
        fault_seed: Option<u64>,
        mut graph: Option<&mut ProvenanceGraph>,
        budget: Option<u64>,
    ) -> Result<(ExecOutcome, DKasan)> {
        let mut model = self.model(input.config_id, input.seed)?;
        if let Some(fs) = fault_seed {
            model.sim().faults = devsim::build_fault_plan(fs);
        }
        // Profiling starts here: drop boot/template attribution so every
        // exec profiles identically whether its template was just booted
        // or long cached, then leave a zero-cycle `exec.clone` marker
        // recording the template hand-off (its call count is the phase
        // signal; the cycles it stands for were deliberately spent before
        // the reset).
        model.sim().metrics.profile_reset();
        let marker = model.sim().prof_begin("exec.clone");
        model.sim().prof_end(marker);

        let mut cov = CoverageMap::new();
        let mut dkasan = DKasan::new();
        // The in-run channel engine: every drained event batch feeds it,
        // so the `channel_write` vocabulary always aims at what the trace
        // has actually revealed — never at hand-wired offsets.
        let mut inference = ChannelInference::new();
        let mut findings: Vec<FuzzFinding> = Vec::new();
        let mut dropped = 0u64;
        cov.add("config", config_name(input.config_id));
        cov.add("device", model.kind().name());

        let mut status = ExecStatus::Completed;
        for (idx, op) in input.ops.iter().enumerate() {
            let mut op_rng = DetRng::new(
                input.seed ^ input.iteration.wrapping_mul(0x517c_c1b7_2722_0a95) ^ idx as u64,
            );
            // Phase attribution: allocator churn profiles apart from the
            // delivery/tamper vocabulary. Pure time ops (`AdvanceTime`,
            // `BusySpin`) and the meta ops (`ArmFault`, `DebugPanic`) get
            // no frame at all — their idle cycles stay unattributed so
            // the profile's self-cycle ranking surfaces real
            // IOMMU/allocator work instead of simulated sleep.
            let phase = match *op {
                MutationOp::KmallocChurn { .. } => Some("exec.churn"),
                MutationOp::AdvanceTime { .. }
                | MutationOp::BusySpin { .. }
                | MutationOp::ArmFault { .. }
                | MutationOp::DebugPanic => None,
                _ => Some("exec.deliver"),
            };
            let frame = phase.map(|p| model.sim().prof_begin(p));
            let applied = apply_op(
                model.as_mut(),
                op,
                input.iteration,
                &mut op_rng,
                &mut self.bytes,
                &mut cov,
                &mut findings,
                &inference,
                budget,
            );
            if let Some(f) = frame {
                model.sim().prof_end(f);
            }
            match applied {
                Ok(()) => {
                    cov.add("op", &format!("{}.ok", op.name()));
                }
                Err(e) if tolerated(&e) => {
                    dropped += 1;
                    cov.add("op", &format!("{}.drop", op.name()));
                    if corruption(&e) {
                        // Deferred crash from torn allocator metadata: a
                        // device write into a freed-but-translatable
                        // mapping corrupted state co-located with the
                        // buffer.
                        cov.add_taxonomy(SubPageVulnerability::RandomColocation);
                        findings.push(FuzzFinding {
                            iteration: input.iteration,
                            taxonomy: SubPageVulnerability::RandomColocation,
                            dkasan: None,
                            site: format!("allocator.{}", op.name()),
                            dkasan_id: String::new(),
                            attrs: VulnerabilityAttributes::default(),
                        });
                    }
                    // A starved ring blocks every later delivery; re-arm
                    // the receive path exactly like the chaos soak does.
                    // Recovery itself may transiently fail (armed
                    // allocation faults, exhausted deferred IOVA space,
                    // corrupted freelists) — the ring simply stays short
                    // until a later op succeeds.
                    if let Err(e2) = model.recover() {
                        if !tolerated(&e2) {
                            return Err(e2);
                        }
                    }
                }
                Err(e) => return Err(e),
            }
            observe_drain(
                model.as_mut(),
                &mut cov,
                &mut dkasan,
                &mut inference,
                graph.as_deref_mut(),
            );
            // Deterministic watchdog: the deadline is checked against the
            // *simulated* clock at op granularity, so the abort point is
            // a pure function of the input, never of host speed.
            if let Some(b) = budget {
                if model.sim_ref().clock.now() >= b {
                    status = ExecStatus::HangAborted {
                        at_cycles: model.sim_ref().clock.now(),
                        after_op: idx,
                    };
                    break;
                }
            }
        }

        // A hang-aborted run skips the orderly shutdown — the campaign
        // quarantines it rather than admitting its outcome anywhere.
        let leaked_pages = if status == ExecStatus::Completed {
            let frame = model.sim().prof_begin("exec.teardown");
            let lp = model.teardown()?;
            model.sim().prof_end(frame);
            observe_drain(model.as_mut(), &mut cov, &mut dkasan, &mut inference, graph);
            lp
        } else {
            0
        };

        // Oracle: every D-KASAN finding class becomes coverage plus a
        // taxonomy-classified fuzz finding.
        let colocates = model.colocates_random();
        for f in dkasan.findings() {
            cov.add("dkasan", &format!("{}.{}", f.kind, f.site));
            let taxonomy = taxonomy_of(f.kind, colocates);
            cov.add_taxonomy(taxonomy);
            findings.push(FuzzFinding {
                iteration: input.iteration,
                taxonomy,
                dkasan: Some(f.kind),
                site: f.site.to_string(),
                dkasan_id: f.id(),
                attrs: VulnerabilityAttributes::default(),
            });
        }

        // Fold in fault-site hits and which metrics/spans the run lit up.
        for site in model.sim_ref().faults.hits_by_site().keys() {
            cov.add("fault", site);
        }
        let snap = model.sim_ref().metrics_snapshot();
        for (name, _) in &snap.counters {
            cov.add("metric", name);
        }
        for (name, _) in &snap.spans {
            cov.add("span", name);
        }
        for f in &findings {
            if let Some(w) = f.attrs.window {
                cov.add_window(w.path);
            }
        }

        let outcome = ExecOutcome {
            status,
            signature: cov.signature(),
            coverage: cov,
            findings,
            delivered: model.delivered_count(),
            dropped,
            cycles: model.sim_ref().clock.now(),
            leaked_pages,
            trace_dropped: model.sim_ref().metrics.counter("trace.dropped"),
            profile: model.sim_ref().metrics.profile(),
        };
        Ok((outcome, dkasan))
    }
}

impl Default for ExecContext {
    fn default() -> Self {
        Self::new()
    }
}

/// Drains the machine's event trace and feeds the batch to every
/// observer in a fixed order: coverage, the D-KASAN oracle
/// (`exec.oracle` frame), channel inference (`exec.infer` frame), and
/// — on forensic runs — the provenance graph.
fn observe_drain(
    model: &mut dyn DeviceModel,
    cov: &mut CoverageMap,
    dkasan: &mut DKasan,
    inference: &mut ChannelInference,
    graph: Option<&mut ProvenanceGraph>,
) {
    let events = model.sim().trace.drain();
    absorb_events(&events, cov);
    let frame = model.sim().prof_begin("exec.oracle");
    dkasan.process(&events);
    model.sim().prof_end(frame);
    let frame = model.sim().prof_begin("exec.infer");
    inference.observe_all(&events);
    model.sim().prof_end(frame);
    if let Some(g) = graph {
        g.ingest_all(events);
    }
}

fn absorb_events(events: &[Event], cov: &mut CoverageMap) {
    for e in events {
        match e {
            Event::Alloc { cache, .. } => {
                cov.add("event", &format!("alloc.{cache}"));
            }
            Event::Free { .. } => {
                cov.add("event", "free");
            }
            Event::PageAlloc { .. } => {
                cov.add("event", "page_alloc");
            }
            Event::PageFree { .. } => {
                cov.add("event", "page_free");
            }
            Event::DmaMap { dir, site, .. } => {
                cov.add("event", &format!("dma_map.{dir:?}"));
                cov.add_site(site);
            }
            Event::DmaUnmap { .. } => {
                cov.add("event", "dma_unmap");
            }
            Event::CpuAccess { .. } => {
                cov.add("event", "cpu_access");
            }
            Event::DevAccess {
                write,
                allowed,
                stale,
                ..
            } => {
                cov.add("event", &format!("dev_access.w{write}.a{allowed}.s{stale}"));
            }
            Event::IotlbInvalidate { .. } => {
                cov.add("event", "iotlb_invalidate");
            }
            Event::IotlbGlobalFlush { .. } => {
                cov.add("event", "iotlb_global_flush");
            }
            Event::FaultInjected { site, .. } => {
                cov.add("fault", site);
            }
        }
    }
}

fn classify_kva(value: u64) -> Option<Kva> {
    VmRegion::classify(value).map(|_| Kva(value))
}

/// Builds the §3.3-attributed finding for a device write that landed
/// inside a §5.2 window (race or stale path).
fn window_finding(iteration: u64, hit: &WindowHit, value: u64) -> FuzzFinding {
    FuzzFinding {
        iteration,
        taxonomy: SubPageVulnerability::OsMetadata,
        dkasan: None,
        site: hit.site.to_string(),
        dkasan_id: String::new(),
        attrs: VulnerabilityAttributes {
            malicious_kva: classify_kva(value),
            callback: Some(CallbackExposure {
                iova: hit.target,
                page_offset: (hit.target.raw() % dma_core::PAGE_SIZE as u64) as usize,
                via: SubPageVulnerability::OsMetadata,
                field: hit.field,
            }),
            window: Some(TimeWindow {
                start: hit.start,
                end: hit.end,
                path: hit.path,
            }),
        },
    }
}

#[allow(clippy::too_many_arguments)]
fn apply_op(
    model: &mut dyn DeviceModel,
    op: &MutationOp,
    iteration: u64,
    op_rng: &mut DetRng,
    bytes: &mut Vec<u8>,
    cov: &mut CoverageMap,
    findings: &mut Vec<FuzzFinding>,
    inference: &ChannelInference,
    budget: Option<u64>,
) -> Result<()> {
    match *op {
        MutationOp::Deliver { len, fill } => model.deliver(len, fill),
        MutationOp::InjectRaw { len, fill } => {
            bytes.clear();
            bytes.extend((0..len).map(|i| fill.wrapping_add(i as u8)));
            model.inject_raw(bytes)
        }
        MutationOp::ChannelWrite {
            channel,
            slot,
            value,
        } => {
            // Aim at what inference has learned so far (state as of the
            // previous op's drain). An empty plan is a tolerated drop —
            // exactly like a not-yet-populated ring.
            let plan = inference.write_plan();
            if plan.is_empty() {
                return Err(DmaError::RingEmpty);
            }
            let ch = &plan[channel % plan.len()];
            let t = ch.targets[slot % ch.targets.len()];
            // A deterministic 8-aligned offset inside the channel's
            // interesting window (metadata block when one was inferred).
            let room = t.hi.saturating_sub(t.lo).saturating_sub(8);
            let off = (t.lo
                + if room > 0 {
                    (op_rng.below(room as u64 + 1) as usize) & !7
                } else {
                    0
                })
            .min(t.len.saturating_sub(8));
            let le = value.to_le_bytes();
            model.dev_deposit(t.iova, off, &le)?;
            cov.add("channel", &format!("{}.{}", ch.site, ch.kind.name()));
            if t.meta {
                // A device write into inferred co-located OS metadata is
                // the type-(b) tamper, discovered with zero hand-wiring.
                findings.push(FuzzFinding {
                    iteration,
                    taxonomy: SubPageVulnerability::OsMetadata,
                    dkasan: None,
                    site: format!("{}.meta", t.site),
                    dkasan_id: String::new(),
                    attrs: VulnerabilityAttributes {
                        malicious_kva: classify_kva(value),
                        callback: Some(CallbackExposure {
                            iova: t.iova + off as u64,
                            page_offset: ((t.iova.raw() + off as u64) % dma_core::PAGE_SIZE as u64)
                                as usize,
                            via: SubPageVulnerability::OsMetadata,
                            field: "inferred_meta",
                        }),
                        window: None,
                    },
                });
            }
            Ok(())
        }
        MutationOp::PayloadDeposit { offset, fill, len } => {
            let descs = model.descriptors();
            let (iova, buf_size) = descs.first().copied().ok_or(DmaError::RingEmpty)?;
            let room = buf_size.saturating_sub(1).max(1);
            let offset = offset % room;
            let len = len.min(buf_size - offset).max(1);
            bytes.clear();
            bytes.resize(len, fill);
            model.dev_deposit(iova, offset, bytes)
        }
        MutationOp::RaceWrite { value } => {
            if let Some(hit) = model.window_race(value)? {
                cov.add_window(hit.path);
                findings.push(window_finding(iteration, &hit, value));
            }
            Ok(())
        }
        MutationOp::StaleWrite { value } => {
            // Strict invalidation revokes the entry before the write:
            // the resulting IOMMU fault propagates as a tolerated drop —
            // itself a (negative) observation already in the coverage
            // map via the event stream.
            let hit = model.window_stale(value)?;
            cov.add_window(hit.path);
            findings.push(window_finding(iteration, &hit, value));
            Ok(())
        }
        MutationOp::AdvanceTime { ms } => {
            model.tick_ms(ms);
            Ok(())
        }
        MutationOp::KmallocChurn { rounds } => {
            let mut live = Vec::new();
            for _ in 0..rounds {
                for _ in 0..(1 + op_rng.below(3)) {
                    let (site, size) = CHURN_SITES[op_rng.below(CHURN_SITES.len() as u64) as usize];
                    let kva = model.churn_alloc(size, site)?;
                    live.push(kva);
                }
                // Free roughly half so slab slots recycle under the
                // device's nose (the type-(d) reuse pattern).
                while live.len() > 2 {
                    let idx = op_rng.below(live.len() as u64) as usize;
                    let kva = live.swap_remove(idx);
                    model.churn_free(kva)?;
                }
            }
            for kva in live {
                model.churn_free(kva)?;
            }
            Ok(())
        }
        MutationOp::DescriptorScan => {
            if model.scan_leaks() > 0 {
                cov.add("op", "descriptor_scan.leaked_ptr");
            }
            Ok(())
        }
        MutationOp::CompleteTx => model.complete_io(),
        MutationOp::ArmFault { glob, every } => {
            let pattern = FAULT_GLOBS[glob % FAULT_GLOBS.len()];
            let plan = std::mem::take(&mut model.sim().faults);
            model.sim().faults = plan.fail_every(pattern, every);
            Ok(())
        }
        MutationOp::DebugPanic => {
            panic!("planted debug panic at iteration {iteration}");
        }
        MutationOp::BusySpin { spins } => {
            // Burn simulated cycles only: the spin terminates either at
            // its (finite) count or as soon as the watchdog deadline is
            // crossed, so a budgeted run aborts at a replayable cycle.
            for _ in 0..spins {
                model.sim().clock.advance(SPIN_COST);
                if budget.is_some_and(|b| model.sim_ref().clock.now() >= b) {
                    break;
                }
            }
            Ok(())
        }
    }
}
