//! What the kernel says about this process, from `/proc/self`. A file that
//! is missing or unreadable reads as zero: the counters explain a slow run,
//! they never fail one.

use std::fs;

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Scheduler and fault counters at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// Seconds on a CPU, summed over the live threads.
    pub cpu_s: f64,
    /// Seconds runnable but waiting for a CPU, summed over the live threads.
    pub runq_wait_s: f64,
    pub minor_faults: f64,
    pub major_faults: f64,
}

impl Usage {
    pub fn now() -> Usage {
        let mut usage = Usage::default();
        // `schedstat` is per thread: "<ns on cpu> <ns waiting> <timeslices>".
        for task in fs::read_dir("/proc/self/task")
            .into_iter()
            .flatten()
            .flatten()
        {
            let text = fs::read_to_string(task.path().join("schedstat")).unwrap_or_default();
            let mut fields = text
                .split_whitespace()
                .map(|f| f.parse::<f64>().unwrap_or(0.0));
            usage.cpu_s += fields.next().unwrap_or(0.0) * 1e-9;
            usage.runq_wait_s += fields.next().unwrap_or(0.0) * 1e-9;
        }
        // `stat` fields after the parenthesised command name; minflt is the
        // 10th field of the line and majflt the 12th.
        let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
        if let Some((_, rest)) = stat.rsplit_once(')') {
            let fields: Vec<&str> = rest.split_whitespace().collect();
            let field = |i: usize| fields.get(i).and_then(|f| f.parse().ok()).unwrap_or(0.0);
            usage.minor_faults = field(7);
            usage.major_faults = field(9);
        }
        usage
    }

    /// What accrued between `earlier` and `self`.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            cpu_s: self.cpu_s - earlier.cpu_s,
            runq_wait_s: self.runq_wait_s - earlier.runq_wait_s,
            minor_faults: self.minor_faults - earlier.minor_faults,
            major_faults: self.major_faults - earlier.major_faults,
        }
    }
}
