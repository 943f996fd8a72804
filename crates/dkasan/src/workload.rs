//! The §4.2 experiment workload: "we cloned a large project from a Git
//! repository and compiled it concurrently with light network traffic
//! (i.e., ICMP ping)".
//!
//! The synthetic equivalent drives the same allocation classes through
//! the same kmalloc caches while the NIC driver maps and unmaps RX
//! buffers from those caches:
//!
//! - process execution: `__do_execve_file`, `load_elf_phdrs` (512-byte
//!   objects, as in Figure 3);
//! - VFS/keyring metadata: `assoc_array_insert` (328 bytes), `kstrdup`;
//! - sockets: `sock_alloc_inode` (64 bytes);
//! - skb allocation and zero-copy echo traffic (`__alloc_skb`, mapped
//!   for both directions — the double mapping of Figure 3 line 1).

use crate::report::{render_report, Summary};
use crate::shadow::DKasan;
use crate::FindingKind;
use devsim::testbed::{MemConfigLite, TestbedConfig};
use devsim::Testbed;
use dma_core::{DetRng, FlightRecorder, Kva, Result};
use sim_iommu::IommuConfig;
use sim_net::driver::{AllocPolicy, DriverConfig};
use sim_net::packet::Packet;
use sim_net::stack::StackConfig;

/// Workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct WorkloadConfig {
    /// Rounds of interleaved activity.
    pub rounds: usize,
    /// RNG seed.
    pub seed: u64,
    /// When set, arms [`devsim::build_fault_plan`] with this seed after
    /// boot: the workload then runs under injected allocation/DMA
    /// failures, tolerating them, and D-KASAN must keep producing
    /// accurate structured reports.
    pub fault_seed: Option<u64>,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            rounds: 200,
            seed: 0xd0_ca5a,
            fault_seed: None,
        }
    }
}

/// How many recent events the workload's black box retains for
/// post-hoc forensics (the full stream is consumed by D-KASAN as it
/// goes; the recorder keeps only the tail, counting what it evicted).
pub const BLACK_BOX_CAPACITY: usize = 4096;

/// Result of a workload run.
pub struct WorkloadReport {
    /// The D-KASAN engine with all findings.
    pub dkasan: DKasan,
    /// Packets processed.
    pub packets: u64,
    /// Allocations made by the "build" activity.
    pub allocs: u64,
    /// Operations absorbed as drops under fault injection.
    pub dropped: u64,
    /// Flight recorder holding the most recent events of the run —
    /// enough to reconstruct provenance for late findings without
    /// retaining the whole stream.
    pub black_box: FlightRecorder,
}

impl WorkloadReport {
    /// Figure-3-style text.
    pub fn render(&self) -> String {
        render_report(self.dkasan.findings())
    }

    /// Count of findings of a class.
    pub fn count(&self, kind: FindingKind) -> usize {
        self.dkasan.findings_of(kind).len()
    }

    /// Aggregated summary. Its counts are exact: D-KASAN processes every
    /// event before the black box sees it, so black-box evictions cost
    /// forensics, not findings.
    pub fn summary(&self) -> Summary {
        Summary::of(self.dkasan.findings())
    }
}

/// The allocation sites of the simulated `git clone && make` activity,
/// with the object sizes Figure 3 reports.
const BUILD_SITES: &[(&str, usize)] = &[
    ("load_elf_phdrs", 512),
    ("__do_execve_file.isra.0", 512),
    ("sock_alloc_inode", 64),
    ("assoc_array_insert", 328),
    ("kstrdup", 32),
    ("vfs_read", 256),
    ("d_alloc", 192),
    ("getname_flags", 1024),
];

/// Runs the workload on a fresh traced machine and replays the event
/// stream through D-KASAN.
pub fn run_workload(cfg: WorkloadConfig) -> Result<WorkloadReport> {
    // kmalloc-backed RX buffers: I/O pages come from the same caches as
    // everything else — the point of the experiment.
    let mut tb = Testbed::new_traced(TestbedConfig {
        device: Default::default(),
        mem: MemConfigLite {
            kaslr_seed: Some(cfg.seed),
            ..Default::default()
        },
        iommu: IommuConfig::default(),
        driver: DriverConfig {
            alloc: AllocPolicy::Kmalloc,
            rx_buf_size: 2048,
            map_ctrl_block: true,
            ..Default::default()
        },
        stack: StackConfig {
            echo_service: true,
            ..Default::default()
        },
        boot_noise_seed: Some(cfg.seed),
    })?;
    tb.ctx.trace.record_cpu_access = true;
    if let Some(fault_seed) = cfg.fault_seed {
        tb.ctx.faults = devsim::build_fault_plan(fault_seed);
    }

    let mut rng = DetRng::new(cfg.seed);
    let mut dkasan = DKasan::new();
    let mut black_box = FlightRecorder::new(BLACK_BOX_CAPACITY);
    let mut live: Vec<Kva> = Vec::new();
    let mut packets = 0u64;
    let mut allocs = 0u64;
    let mut dropped = 0u64;

    // Resource-pressure and aborted-DMA errors are expected under an
    // armed fault plan; anything else still fails the run.
    let tolerated = |e: &dma_core::DmaError| {
        e.is_transient()
            || matches!(
                e,
                dma_core::DmaError::IommuFault { .. } | dma_core::DmaError::IommuPermission { .. }
            )
    };

    for round in 0..cfg.rounds {
        // "Compilation": allocate a few objects, free some older ones.
        for _ in 0..(2 + rng.below(4)) {
            let (site, size) = BUILD_SITES[rng.below(BUILD_SITES.len() as u64) as usize];
            match tb.mem.kmalloc(&mut tb.ctx, size, site) {
                Ok(kva) => {
                    allocs += 1;
                    live.push(kva);
                }
                Err(e) if tolerated(&e) => dropped += 1,
                Err(e) => return Err(e),
            }
        }
        while live.len() > 64 {
            let idx = rng.below(live.len() as u64) as usize;
            let kva = live.swap_remove(idx);
            tb.mem.kfree(&mut tb.ctx, kva)?;
        }

        // "Ping": a packet arrives and is echoed (RX map + TX map of the
        // same payload page → double mapping, Figure 3 line 1).
        let p = Packet::udp(50 + (round % 3) as u32, 1, vec![round as u8; 56]);
        match tb.deliver_packet(&p) {
            Ok(()) => packets += 1,
            Err(e) if tolerated(&e) => {
                dropped += 1;
                // A starved RX ring never completes, so nothing would
                // trigger the poll-path refill; kick it directly.
                tb.driver
                    .rx_refill(&mut tb.ctx, &mut tb.mem, &mut tb.iommu)?;
            }
            Err(e) => return Err(e),
        }
        if round % 4 == 3 {
            match tb.complete_all_tx() {
                Ok(_) => {}
                Err(e) if tolerated(&e) => dropped += 1,
                Err(e) => return Err(e),
            }
        }

        // Stream events into the shadow as they happen; the black box
        // keeps the recent tail for forensics.
        let events = tb.ctx.trace.drain();
        dkasan.process(&events);
        for ev in events {
            black_box.push(ev);
        }
    }
    let events = tb.ctx.trace.drain();
    dkasan.process(&events);
    for ev in events {
        black_box.push(ev);
    }

    Ok(WorkloadReport {
        dkasan,
        packets,
        allocs,
        dropped,
        black_box,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_reproduces_figure3_findings() {
        let report = run_workload(WorkloadConfig::default()).unwrap();
        assert!(report.packets >= 200);

        // All four §4.2 report classes fire.
        assert!(
            report.count(FindingKind::AllocAfterMap) > 0,
            "alloc-after-map"
        );
        assert!(
            report.count(FindingKind::MapAfterAlloc) > 0,
            "map-after-alloc"
        );
        assert!(
            report.count(FindingKind::AccessAfterMap) > 0,
            "access-after-map"
        );
        assert!(report.count(FindingKind::MultipleMap) > 0, "multiple-map");

        // Figure-3 sites appear among the exposed objects.
        let sites: Vec<&str> = report.dkasan.findings().iter().map(|f| f.site).collect();
        assert!(sites.contains(&"load_elf_phdrs"), "{sites:?}");
        assert!(sites.contains(&"sock_alloc_inode"), "{sites:?}");

        // The rendering looks like Figure 3.
        let text = report.render();
        assert!(
            text.lines().next().unwrap().starts_with("[1] size "),
            "{text}"
        );
    }

    #[test]
    fn black_box_evicts_yet_the_summary_counts_stay_exact() {
        let report = run_workload(WorkloadConfig::default()).unwrap();
        assert!(!report.black_box.is_empty());
        assert!(
            report.black_box.dropped() > 0,
            "200 rounds emit more than the black box retains"
        );
        // D-KASAN saw every event, so the summary claims no lower bound.
        let summary = report.summary().render();
        assert!(!summary.contains("trace dropped"), "{summary}");
        assert!(!summary.contains("lower bound"), "{summary}");
        // The retained tail is chronological.
        let tail = report.black_box.snapshot();
        assert!(tail.windows(2).all(|w| w[0].at() <= w[1].at()));
    }

    #[test]
    fn workload_is_deterministic() {
        let a = run_workload(WorkloadConfig {
            rounds: 50,
            seed: 7,
            fault_seed: None,
        })
        .unwrap();
        let b = run_workload(WorkloadConfig {
            rounds: 50,
            seed: 7,
            fault_seed: None,
        })
        .unwrap();
        assert_eq!(a.render(), b.render());
        assert_eq!(a.allocs, b.allocs);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_workload(WorkloadConfig {
            rounds: 50,
            seed: 1,
            fault_seed: None,
        })
        .unwrap();
        let b = run_workload(WorkloadConfig {
            rounds: 50,
            seed: 2,
            fault_seed: None,
        })
        .unwrap();
        assert_ne!(a.allocs, b.allocs);
    }

    #[test]
    fn fault_runs_emit_structured_reports_not_panics() {
        // Regression for the fault-injection + D-KASAN interaction: a
        // workload run under an armed fault plan must complete, census
        // the injections with accurate site tags, and keep reporting
        // exposure findings whose sites are the real allocation sites.
        let cfg = WorkloadConfig {
            rounds: 150,
            seed: 11,
            fault_seed: Some(11),
        };
        let report = run_workload(cfg).unwrap();
        let faults = report.dkasan.injected_faults();
        let injected: u64 = faults.values().sum();
        assert!(injected > 0, "fault plan never fired");
        assert!(
            faults.keys().all(|s| s.contains('.')),
            "fault sites must be <layer>.<operation> tags: {faults:?}"
        );
        // The detector still works under faults — with real sites.
        assert!(
            report.count(FindingKind::AllocAfterMap) > 0
                || report.count(FindingKind::MapAfterAlloc) > 0,
            "no exposure findings under faults"
        );
        assert!(report.dkasan.findings().iter().all(|f| !f.site.is_empty()
            && !f.site.contains('.')
            || BUILD_SITES.iter().any(|(s, _)| *s == f.site)
            || f.site.starts_with("nic_")
            || f.site.starts_with("__")));
        // And fault runs replay deterministically end to end.
        let again = run_workload(cfg).unwrap();
        assert_eq!(report.render(), again.render());
        assert_eq!(report.dropped, again.dropped);
        assert_eq!(faults, again.dkasan.injected_faults());
    }
}
