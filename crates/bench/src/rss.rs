//! Peak-RSS sampling from `/proc` (Linux; graceful `None` elsewhere).
//!
//! The out-of-core arc's success metric is a *memory* bound, so the
//! bench trend carries peak resident set size next to wall clock.
//! Linux publishes the high-water mark as the `VmHWM` line of
//! `/proc/self/status`; writing `5` to `/proc/self/clear_refs` resets
//! it to the current resident set, which yields per-stage peaks inside
//! one process (build vs serve, heap vs mapped). On platforms without
//! procfs — or in sandboxes that hide it — every probe returns `None`
//! and callers omit the RSS column rather than reporting garbage.

/// Peak resident set size (`VmHWM`) in bytes, when procfs exposes it.
pub fn peak_rss_bytes() -> Option<u64> {
    read_status_kb("VmHWM:").map(|kb| kb * 1024)
}

/// Current resident set size (`VmRSS`) in bytes, when procfs exposes it.
pub fn current_rss_bytes() -> Option<u64> {
    read_status_kb("VmRSS:").map(|kb| kb * 1024)
}

/// Peak RSS in MiB — the unit the bench JSON column carries.
pub fn peak_rss_mb() -> Option<f64> {
    peak_rss_bytes().map(|b| b as f64 / (1024.0 * 1024.0))
}

/// Resets the peak-RSS counter to the current resident set so the next
/// [`peak_rss_bytes`] reading covers only the work since this call.
/// Returns whether the reset took effect (`/proc/self/clear_refs` must
/// be writable; some container runtimes deny it — callers should treat
/// a `false` as "peak spans the whole process", not as an error).
pub fn reset_peak() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn read_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_status_kb(&status, key)
}

/// Parses one `Key:   <value> kB` line out of a `/proc/<pid>/status`
/// document. The kernel always reports these fields in kB.
fn parse_status_kb(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?;
        let mut fields = rest.split_whitespace();
        let value: u64 = fields.next()?.parse().ok()?;
        match fields.next() {
            Some("kB") => Some(value),
            _ => None,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "Name:\ttest\nVmPeak:\t  123456 kB\nVmRSS:\t    4096 kB\nVmHWM:\t    8192 kB\nThreads:\t4\n";

    #[test]
    fn status_fields_parse_in_kb() {
        assert_eq!(parse_status_kb(SAMPLE, "VmHWM:"), Some(8192));
        assert_eq!(parse_status_kb(SAMPLE, "VmRSS:"), Some(4096));
        assert_eq!(parse_status_kb(SAMPLE, "VmSwap:"), None);
        // A field without the kB unit is rejected, not misread.
        assert_eq!(parse_status_kb(SAMPLE, "Threads:"), None);
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn live_probes_are_consistent() {
        // Every figure comes from one status read: a sibling test resets
        // and raises the high-water mark concurrently, so values from
        // separate reads need not agree.
        let status = std::fs::read_to_string("/proc/self/status").expect("linux has procfs");
        let rss = parse_status_kb(&status, "VmRSS:").expect("linux exposes VmRSS") * 1024;
        let peak = parse_status_kb(&status, "VmHWM:").expect("linux exposes VmHWM") * 1024;
        assert!(rss > 0);
        assert!(peak >= rss, "high-water mark below current RSS");
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_tracks_a_large_allocation() {
        // Touch 64 MiB and confirm the high-water mark saw it. The
        // reset is best-effort: containers may deny clear_refs, in
        // which case the pre-existing peak already exceeds the floor.
        reset_peak();
        let before = peak_rss_bytes().unwrap();
        let block = vec![1u8; 64 << 20];
        let sum: u64 = block.iter().step_by(4096).map(|&b| b as u64).sum();
        assert!(sum > 0);
        let after = peak_rss_bytes().unwrap();
        drop(block);
        assert!(
            after >= before && after >= 64 << 20,
            "peak {after} did not cover the 64 MiB touch (before {before})"
        );
    }
}
