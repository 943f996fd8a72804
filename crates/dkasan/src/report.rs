//! D-KASAN findings and their Figure-3 rendering.
//!
//! Each report line shows "the size of the allocated buffer, the DMA
//! access type, and the allocating location":
//!
//! ```text
//! [1] size 512 [READ, WRITE] __alloc_skb+0xe0/0x3f0
//! ```

use dma_core::clock::Cycles;
use dma_core::vuln::AccessRight;

/// The four report classes of §4.2.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FindingKind {
    /// A kmalloc object was allocated from a mapped page.
    AllocAfterMap,
    /// The containing page was mapped after an object was allocated.
    MapAfterAlloc,
    /// The CPU accessed a DMA-mapped page.
    AccessAfterMap,
    /// An object/page mapped multiple times, possibly with different
    /// permissions.
    MultipleMap,
}

impl FindingKind {
    /// Every report class, in a fixed order (metric export, summaries).
    pub const ALL: [FindingKind; 4] = [
        FindingKind::AllocAfterMap,
        FindingKind::MapAfterAlloc,
        FindingKind::AccessAfterMap,
        FindingKind::MultipleMap,
    ];

    /// Dotted metric name for this class, following the
    /// `subsystem.metric` taxonomy of `dma_core::metrics`.
    pub fn metric_name(&self) -> &'static str {
        match self {
            FindingKind::AllocAfterMap => "dkasan.findings.alloc_after_map",
            FindingKind::MapAfterAlloc => "dkasan.findings.map_after_alloc",
            FindingKind::AccessAfterMap => "dkasan.findings.access_after_map",
            FindingKind::MultipleMap => "dkasan.findings.multiple_map",
        }
    }
}

impl std::fmt::Display for FindingKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FindingKind::AllocAfterMap => write!(f, "alloc-after-map"),
            FindingKind::MapAfterAlloc => write!(f, "map-after-alloc"),
            FindingKind::AccessAfterMap => write!(f, "access-after-map"),
            FindingKind::MultipleMap => write!(f, "multiple-map"),
        }
    }
}

/// Deterministic stable identifier: sequential FNV-1a-64 over `parts`
/// (no separators), rendered as `<prefix>-<16 hex digits>`.
///
/// This is the id scheme shared by D-KASAN findings (`dk-…`) and the
/// fuzz campaign's quarantined crash/hang findings (`dq-…`): tools and
/// humans cross-reference findings by these ids instead of array
/// positions, and the hash is a pure function of its inputs, so the id
/// survives re-runs, resumes, and replays.
pub fn stable_id(prefix: &str, parts: &[&[u8]]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for &b in *part {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{prefix}-{h:016x}")
}

/// Stable `dk-…` id for a device-write *observation* that has no
/// backing [`DKasanFinding`] (the fuzz executor records tampered-field
/// writes the shadow oracle never sees). A pure function of the class
/// identity — taxonomy letter, site/field name, and the §5.2 window
/// path when one applies — so the finding-stream id emitted by
/// `dma-lab serve` is identical across runs, resumes, and replays of
/// the same discovery.
pub fn observation_id(taxonomy: char, site: &str, window: &str) -> String {
    stable_id(
        "dk",
        &[&[taxonomy as u8], site.as_bytes(), window.as_bytes()],
    )
}

/// One D-KASAN finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DKasanFinding {
    /// Report class.
    pub kind: FindingKind,
    /// Size of the exposed object / access.
    pub size: usize,
    /// DMA rights the device holds over the page.
    pub rights: AccessRight,
    /// Allocating (or accessing) location.
    pub site: &'static str,
    /// Page base (direct-map KVA) of the exposure.
    pub page: u64,
    /// Simulated cycle of the triggering event.
    pub at: Cycles,
}

impl DKasanFinding {
    /// Stable deterministic identifier: an FNV-1a hash over
    /// kind + site + page + cycle, rendered as `dk-<16 hex digits>`.
    /// Forensics timelines and fuzz-corpus entries cross-reference
    /// findings by this id instead of array position.
    pub fn id(&self) -> String {
        stable_id(
            "dk",
            &[
                self.kind.metric_name().as_bytes(),
                self.site.as_bytes(),
                &self.page.to_le_bytes(),
                &self.at.to_le_bytes(),
            ],
        )
    }

    /// Renders one Figure-3-style line. The `+0x../0x..` suffix mirrors
    /// kallsyms offset/size annotations; the simulator derives stable
    /// pseudo-offsets from the site name.
    pub fn render(&self, index: usize) -> String {
        let h = self
            .site
            .bytes()
            .fold(0x9e37u64, |a, b| a.wrapping_mul(33) ^ b as u64);
        let off = (h & 0xfff) | 0xf;
        let fsize = ((h >> 12) & 0xff0) + 0x100;
        format!(
            "[{index}] size {} [{}] {}+{:#x}/{:#x}",
            self.size, self.rights, self.site, off, fsize
        )
    }
}

/// Renders a full report in Figure-3 form.
pub fn render_report(findings: &[DKasanFinding]) -> String {
    findings
        .iter()
        .enumerate()
        .map(|(i, f)| f.render(i + 1))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Aggregated view of a finding set: counts per class, per site, and
/// the distinct pages involved — the at-a-glance summary an operator
/// reads before the per-line report.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Findings per report class.
    pub by_kind: std::collections::BTreeMap<String, usize>,
    /// Findings per allocation/access site, sorted descending.
    pub top_sites: Vec<(&'static str, usize)>,
    /// Distinct pages involved in any finding.
    pub pages: usize,
    /// Findings where the device holds write (or bidirectional) rights —
    /// the ones that are attack surface rather than mere leakage.
    pub writable: usize,
}

impl Summary {
    /// Builds a summary over a finding set.
    pub fn of(findings: &[DKasanFinding]) -> Summary {
        let mut by_kind = std::collections::BTreeMap::new();
        let mut sites: std::collections::HashMap<&'static str, usize> = Default::default();
        let mut pages = std::collections::HashSet::new();
        let mut writable = 0;
        for f in findings {
            *by_kind.entry(f.kind.to_string()).or_insert(0) += 1;
            *sites.entry(f.site).or_insert(0) += 1;
            pages.insert(f.page);
            if f.rights.allows_write() {
                writable += 1;
            }
        }
        let mut top_sites: Vec<_> = sites.into_iter().collect();
        top_sites.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        Summary {
            by_kind,
            top_sites,
            pages: pages.len(),
            writable,
        }
    }

    /// Renders the summary block.
    pub fn render(&self) -> String {
        let mut s = String::from("D-KASAN summary\n");
        for (kind, n) in &self.by_kind {
            s.push_str(&format!("  {kind:<18} {n}\n"));
        }
        s.push_str(&format!("  distinct pages     {}\n", self.pages));
        s.push_str(&format!("  device-writable    {}\n", self.writable));
        s.push_str("  top sites:\n");
        for (site, n) in self.top_sites.iter().take(5) {
            s.push_str(&format!("    {site:<28} {n}\n"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_matches_figure3_shape() {
        let f = DKasanFinding {
            kind: FindingKind::AllocAfterMap,
            size: 512,
            rights: AccessRight::Bidirectional,
            site: "__alloc_skb",
            page: 0xffff_8880_0020_0000,
            at: 100,
        };
        let line = f.render(1);
        assert!(
            line.starts_with("[1] size 512 [READ, WRITE] __alloc_skb+0x"),
            "{line}"
        );
        assert!(line.contains('/'));
    }

    #[test]
    fn write_only_renders_write() {
        let f = DKasanFinding {
            kind: FindingKind::MapAfterAlloc,
            size: 64,
            rights: AccessRight::Write,
            site: "sock_alloc_inode",
            page: 0,
            at: 7,
        };
        assert!(f.render(4).contains("size 64 [WRITE] sock_alloc_inode"));
    }

    #[test]
    fn report_numbers_sequentially() {
        let f = DKasanFinding {
            kind: FindingKind::MultipleMap,
            size: 512,
            rights: AccessRight::Read,
            site: "x",
            page: 0,
            at: 0,
        };
        let r = render_report(&[f.clone(), f]);
        let lines: Vec<&str> = r.lines().collect();
        assert!(lines[0].starts_with("[1]"));
        assert!(lines[1].starts_with("[2]"));
    }

    #[test]
    fn summary_aggregates_kinds_sites_and_pages() {
        let mk = |kind, site: &'static str, page, rights| DKasanFinding {
            kind,
            size: 64,
            rights,
            site,
            page,
            at: 1,
        };
        let findings = vec![
            mk(
                FindingKind::AllocAfterMap,
                "load_elf_phdrs",
                0x1000,
                AccessRight::Write,
            ),
            mk(
                FindingKind::AllocAfterMap,
                "load_elf_phdrs",
                0x2000,
                AccessRight::Read,
            ),
            mk(
                FindingKind::MultipleMap,
                "__alloc_skb",
                0x1000,
                AccessRight::Bidirectional,
            ),
        ];
        let s = Summary::of(&findings);
        assert_eq!(s.by_kind.get("alloc-after-map"), Some(&2));
        assert_eq!(s.by_kind.get("multiple-map"), Some(&1));
        assert_eq!(s.pages, 2);
        assert_eq!(s.writable, 2);
        assert_eq!(s.top_sites[0], ("load_elf_phdrs", 2));
        let text = s.render();
        assert!(text.contains("alloc-after-map"));
        assert!(text.contains("load_elf_phdrs"));
    }

    #[test]
    fn ids_are_stable_and_discriminate() {
        let f = DKasanFinding {
            kind: FindingKind::AllocAfterMap,
            size: 512,
            rights: AccessRight::Bidirectional,
            site: "__alloc_skb",
            page: 0x1000,
            at: 77,
        };
        let id = f.id();
        assert!(id.starts_with("dk-") && id.len() == 19, "{id}");
        assert_eq!(id, f.clone().id(), "pure function of the finding");
        for other in [
            DKasanFinding {
                kind: FindingKind::MultipleMap,
                ..f.clone()
            },
            DKasanFinding {
                site: "kstrdup",
                ..f.clone()
            },
            DKasanFinding {
                page: 0x2000,
                ..f.clone()
            },
            DKasanFinding {
                at: 78,
                ..f.clone()
            },
        ] {
            assert_ne!(f.id(), other.id(), "{other:?}");
        }
    }

    #[test]
    fn pseudo_offsets_are_stable() {
        let f = DKasanFinding {
            kind: FindingKind::AllocAfterMap,
            size: 1,
            rights: AccessRight::Read,
            site: "stable_site",
            page: 0,
            at: 42,
        };
        assert_eq!(f.render(1), f.render(1));
    }
}
