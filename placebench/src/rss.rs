//! Peak resident memory of this process, per timed pass.
//!
//! Linux keeps a per-process peak-RSS mark (`VmHWM`). Writing `5` to
//! `/proc/self/clear_refs` lowers it to the current RSS, so the mark read
//! after a pass is that pass's peak.
//!
//! The batch workloads report the smallest pass peak. With two sweep
//! workers, glibc's per-thread arenas keep freed blocks in whichever arena
//! served them, so single pass peaks scatter upward by up to 60% from
//! pass to pass and run to run; the lightest pass repeats within a few
//! percent.

/// Lowers the peak-RSS mark to the current RSS.
pub fn reset_peak() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak-RSS mark: {e}"))
}

/// Peak RSS since the last [`reset_peak`], in MiB.
pub fn peak_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn reset_lowers_the_mark_below_a_freed_allocation() {
        super::reset_peak().unwrap();
        let big = vec![1u8; 64 << 20];
        std::hint::black_box(&big);
        let with = super::peak_mib().unwrap();
        drop(big);
        super::reset_peak().unwrap();
        let without = super::peak_mib().unwrap();
        assert!(with - without > 32.0, "{with} vs {without}");
    }
}
