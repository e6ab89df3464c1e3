//! Process-level counters from `/proc/self`.

/// Kernel clock ticks per second for `/proc/self/stat` times.  `USER_HZ`
/// is 100 on every Linux ABI Rust targets; reading it would need libc.
const TICKS_PER_S: f64 = 100.0;

/// Cumulative CPU time and page faults of this process.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProcSample {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
}

impl ProcSample {
    pub fn now() -> ProcSample {
        std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| parse_stat(&s))
            .unwrap_or_default()
    }

    /// Counters accumulated since `earlier`.
    pub fn since(&self, earlier: &ProcSample) -> ProcSample {
        ProcSample {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
        }
    }

    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    pub fn sys_frac(&self) -> f64 {
        if self.cpu_s() > 0.0 {
            self.sys_s / self.cpu_s()
        } else {
            0.0
        }
    }
}

fn parse_stat(stat: &str) -> Option<ProcSample> {
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis.
    let rest = stat.get(stat.rfind(')')? + 2..)?;
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    // rest[0] is field 3 (state): minflt is field 10, utime 14, stime 15.
    Some(ProcSample {
        minor_faults: fields.get(7)?.parse().ok()?,
        user_s: fields.get(11)?.parse::<f64>().ok()? / TICKS_PER_S,
        sys_s: fields.get(12)?.parse::<f64>().ok()? / TICKS_PER_S,
    })
}

/// Peak resident set size (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_stat_with_spaces_in_the_command_name() {
        let line = "4242 (tcu bench) R 1 1 1 0 -1 4194304 1234 0 5 0 250 75 0 0 20 0 3 0 100 0 0";
        let s = parse_stat(line).unwrap();
        assert_eq!(s.minor_faults, 1234);
        assert_eq!(s.user_s, 2.5);
        assert_eq!(s.sys_s, 0.75);
        assert!((s.sys_frac() - 0.75 / 3.25).abs() < 1e-12);
        assert!(parse_stat("garbage").is_none());
    }

    #[test]
    fn parses_vm_hwm_and_reads_the_live_process() {
        assert_eq!(
            parse_vm_hwm_kb("VmPeak:\t 9 kB\nVmHWM:\t  20480 kB\n"),
            Some(20480.0)
        );
        assert!(peak_rss_mb() > 0.0);
        assert!(ProcSample::now().cpu_s() >= 0.0);
    }
}
