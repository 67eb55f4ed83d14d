//! Process figures read from `/proc`: peak resident set and CPU time.

/// Clock ticks per second of `/proc/<pid>/stat` times (`CLK_TCK`, 100 on
/// every mainstream Linux target).
const CLK_TCK: f64 = 100.0;

/// `VmHWM` (peak resident set) of process `pid` (`"self"` for this one),
/// in MB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// User plus system CPU time of process `pid` so far, in ms (steal time
/// is not charged to processes, so it is excluded).
pub fn cpu_ms(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let stat = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| format!("{path}: malformed"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line, 12 and 13
    // after the state field that follows the name.
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| format!("{path}: field {i} missing"))
    };
    Ok((ticks(11)? + ticks(12)?) / CLK_TCK * 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn this_process_has_a_peak_rss_and_cpu_time() {
        assert!(peak_rss_mb("self").unwrap() > 0.0);
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(cpu_ms("self").unwrap() >= 0.0, "{x}");
        assert!(peak_rss_mb("0").is_err());
    }
}
