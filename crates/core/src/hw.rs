//! Host-hardware probing and hardware-adaptive solver configuration.
//!
//! Million-component instances need different knobs than the paper's
//! 500-component suite: more V-cycle levels, a larger coarsest problem, a
//! thread count matched to the machine, and a multistart width that does not
//! thrash a small RAM budget. This module detects what the host offers
//! ([`HostInfo::detect`]: core count via `std::thread::available_parallelism`,
//! available RAM from `/proc/meminfo` where present) and derives a
//! deterministic [`AutoProfile`] from `(host, component count)` — the same
//! inputs always produce the same profile, so `--auto` runs are reproducible
//! on a given machine and the chosen profile is recorded in the solve report
//! and the JSONL trace for post-hoc comparison across machines.
//!
//! Also home to the peak-RSS probe ([`peak_rss_bytes`], `VmHWM` from
//! `/proc/self/status`) used by the scale benchmark.

/// What the host machine offers: detected once, then treated as plain data
/// so the profile derivation stays a pure function.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostInfo {
    /// Logical cores available to this process (≥ 1).
    pub cores: usize,
    /// Available (not total) RAM in bytes, when the platform exposes it
    /// (`MemAvailable` in `/proc/meminfo`); `None` elsewhere.
    pub available_ram: Option<u64>,
}

impl HostInfo {
    /// Probes the current host. Never fails: falls back to one core and
    /// unknown RAM when the platform hides the numbers.
    pub fn detect() -> HostInfo {
        let cores = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        HostInfo {
            cores,
            available_ram: meminfo_available_bytes(),
        }
    }

    /// A fully specified host, for tests and for replaying another
    /// machine's profile derivation.
    pub fn from_parts(cores: usize, available_ram: Option<u64>) -> HostInfo {
        HostInfo {
            cores: cores.max(1),
            available_ram,
        }
    }
}

/// `MemAvailable` from `/proc/meminfo`, in bytes.
fn meminfo_available_bytes() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/meminfo").ok()?;
    parse_kb_field(&text, "MemAvailable:")
}

/// The `field` line of a `/proc` key–value text (`Name:   1234 kB`), in
/// bytes.
fn parse_kb_field(text: &str, field: &str) -> Option<u64> {
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix(field) {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), when the platform exposes it. Monotonic over the
/// process lifetime — to attribute a peak to one phase, measure in a fresh
/// process or difference against the value taken before the phase.
pub fn peak_rss_bytes() -> Option<u64> {
    proc_status_field("VmHWM:")
}

/// Current resident set size of this process in bytes (`VmRSS`).
pub fn current_rss_bytes() -> Option<u64> {
    proc_status_field("VmRSS:")
}

fn proc_status_field(field: &'static str) -> Option<u64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_kb_field(&text, field)
}

/// The knobs `--auto` picks, plus the host facts they were derived from.
/// Recorded verbatim in `SolveReport::auto_profile` and the JSONL trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutoProfile {
    /// Cores the derivation saw.
    pub cores: usize,
    /// Available RAM the derivation saw, in MiB (`0` = unknown).
    pub available_ram_mb: u64,
    /// Worker threads of the multistart run fan (the `threads` config
    /// field); a single solve runs serially at any budget.
    pub threads: usize,
    /// V-cycle depth (`--mlqbp-levels`).
    pub mlqbp_levels: usize,
    /// Coarsest-problem size floor (`--mlqbp-min-size`).
    pub mlqbp_min_size: usize,
    /// Multistart width (`--runs` for flat QBP, coarsest-level restarts for
    /// mlqbp).
    pub multistart_width: usize,
}

/// Rough per-component working-set estimate used by the RAM guard, in
/// bytes: CSR records both directions (~40 B each at average degree ~4),
/// the η/gain workspaces (8 B × M per component at M ≤ 16), profile
/// aggregates, and the V-cycle's coarser copies (geometric series ≈ 2× the
/// finest level). Deliberately conservative.
const BYTES_PER_COMPONENT: u64 = 600;

impl AutoProfile {
    /// Derives the profile for a `components`-sized instance on `host`.
    /// Pure: identical inputs give identical profiles.
    ///
    /// Heuristics, each documented where applied: threads ride the core
    /// count (capped at 8, like the multistart width they serve); the
    /// V-cycle gets enough levels to coarsen down to the size floor
    /// assuming ~2× shrink per level; the floor itself grows slowly with N
    /// so the coarsest multistart stays meaningful; multistart width rides
    /// the core count and is cut to 1 when the estimated working set
    /// crowds available RAM.
    pub fn for_problem(host: &HostInfo, components: usize) -> AutoProfile {
        let n = components.max(1);
        // One multistart run per worker, capped like the multistart width
        // below; never more workers than cores.
        let threads = host.cores.min(8);
        // Coarsest-size floor: 64 (the MlqbpConfig default) up to 10^5
        // components, then grow ~n/1024 so refinement has signal, capped at
        // 512 to bound the coarsest multistart cost.
        let mlqbp_min_size = (n / 1024).clamp(64, 512);
        // Heavy-edge matching shrinks ~2× per level: levels = log2(n /
        // floor), clamped to the config's [1, 12] useful range.
        let mut levels = 0usize;
        let mut remaining = n;
        while remaining > mlqbp_min_size && levels < 12 {
            remaining /= 2;
            levels += 1;
        }
        let mlqbp_levels = levels.max(1);
        // Multistart width rides the cores (serial multistart on a laden
        // machine is pure slowdown), capped at 8 like the thread budget.
        let mut multistart_width = host.cores.clamp(1, 8);
        // RAM guard: if the conservative working-set estimate for
        // `multistart_width` concurrent starts exceeds half of available
        // RAM, fall back to a single start (quality degrades gracefully;
        // swapping does not).
        if let Some(ram) = host.available_ram {
            let estimate = n as u64 * BYTES_PER_COMPONENT * multistart_width as u64;
            if estimate > ram / 2 {
                multistart_width = 1;
            }
        }
        AutoProfile {
            cores: host.cores,
            available_ram_mb: host.available_ram.unwrap_or(0) / (1024 * 1024),
            threads,
            mlqbp_levels,
            mlqbp_min_size,
            multistart_width,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_never_fails() {
        let host = HostInfo::detect();
        assert!(host.cores >= 1);
        // On Linux both probes should resolve; elsewhere None is fine.
        if cfg!(target_os = "linux") {
            assert!(host.available_ram.is_some());
            assert!(peak_rss_bytes().is_some());
            assert!(current_rss_bytes().is_some());
            // Compare within one snapshot: other tests allocate between two
            // separate reads, but one read reports `VmHWM` as at least the
            // `VmRSS` beside it.
            let status = std::fs::read_to_string("/proc/self/status").unwrap();
            let peak = parse_kb_field(&status, "VmHWM:");
            let current = parse_kb_field(&status, "VmRSS:");
            assert!(current.is_some());
            assert!(peak >= current);
        }
    }

    #[test]
    fn meminfo_parse_extracts_available() {
        let text = "MemTotal:       16384000 kB\nMemFree:         1024000 kB\nMemAvailable:    8192000 kB\n";
        assert_eq!(
            parse_kb_field(text, "MemAvailable:"),
            Some(8_192_000 * 1024)
        );
        assert_eq!(parse_kb_field("MemTotal: 1 kB\n", "MemAvailable:"), None);
    }

    #[test]
    fn status_parse_reads_both_rss_fields_from_one_text() {
        let text = "Name:\tqbp\nVmPeak:\t  204800 kB\nVmHWM:\t    9216 kB\nVmRSS:\t    8704 kB\n";
        assert_eq!(parse_kb_field(text, "VmHWM:"), Some(9216 * 1024));
        assert_eq!(parse_kb_field(text, "VmRSS:"), Some(8704 * 1024));
        assert_eq!(parse_kb_field(text, "VmSwap:"), None);
        assert_eq!(parse_kb_field("VmRSS:\tlots kB\n", "VmRSS:"), None);
    }

    #[test]
    fn profile_is_deterministic_and_monotone_in_size() {
        let host = HostInfo::from_parts(4, Some(8 << 30));
        let small = AutoProfile::for_problem(&host, 1_000);
        assert_eq!(small, AutoProfile::for_problem(&host, 1_000));
        let large = AutoProfile::for_problem(&host, 1_000_000);
        assert!(large.mlqbp_levels >= small.mlqbp_levels);
        assert!(large.mlqbp_min_size >= small.mlqbp_min_size);
        assert_eq!(small.threads, 4);
        assert_eq!(small.multistart_width, 4);
    }

    #[test]
    fn defaults_match_config_floor_at_paper_scale() {
        // At paper-suite sizes the profile should reproduce the MlqbpConfig
        // default floor of 64 and at least one level.
        let host = HostInfo::from_parts(1, None);
        let p = AutoProfile::for_problem(&host, 550);
        assert_eq!(p.mlqbp_min_size, 64);
        assert!(p.mlqbp_levels >= 1);
        assert_eq!(p.threads, 1);
        assert_eq!(p.multistart_width, 1);
        assert_eq!(p.available_ram_mb, 0);
    }

    #[test]
    fn ram_guard_cuts_multistart_width() {
        // 10^6 components × 600 B × 4 starts = ~2.4 GB > half of 1 GiB.
        let tight = HostInfo::from_parts(4, Some(1 << 30));
        let p = AutoProfile::for_problem(&tight, 1_000_000);
        assert_eq!(p.multistart_width, 1);
        let roomy = HostInfo::from_parts(4, Some(64 << 30));
        assert_eq!(AutoProfile::for_problem(&roomy, 1_000_000).multistart_width, 4);
    }

    #[test]
    fn levels_reach_the_floor_with_twofold_shrink() {
        let host = HostInfo::from_parts(8, None);
        let p = AutoProfile::for_problem(&host, 100_000);
        // 100_000 / 2^levels ≤ min_size must hold.
        assert!(100_000 >> p.mlqbp_levels <= p.mlqbp_min_size);
        assert!(p.mlqbp_levels <= 12);
    }
}
