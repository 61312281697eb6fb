//! Process-level measurements read from `/proc`, plus the small statistics and
//! hashing helpers the harness shares between workloads.

use std::time::Instant;

/// Clock ticks per second of the `utime`/`stime` fields of `/proc/self/stat`.
/// Linux fixes USER_HZ at 100 on every mainstream architecture; the harness
/// has no libc binding to ask `sysconf(_SC_CLK_TCK)`, so it assumes the value
/// and prints the assumption with every result.
pub const USER_HZ: f64 = 100.0;

/// User plus system CPU time of the whole process (every thread, live or
/// joined) in seconds, at USER_HZ resolution.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis start at field 3 (`state`), so utime (field 14)
    // and stime (field 15) sit at offsets 11 and 12.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("malformed /proc/self/stat field {}", i + 3))
    };
    Ok((tick(11)? + tick(12)?) / USER_HZ)
}

/// Resets the process's peak resident set size (`VmHWM`) to its current
/// resident size, so the next [`peak_rss_mib`] reading covers only what ran
/// in between.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| {
        format!("cannot reset the peak-RSS counter through /proc/self/clear_refs: {e}")
    })
}

/// Peak resident set size (`VmHWM`) since the last reset, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The machine's available parallelism, the value every library default
/// worker count resolves from.
pub fn available_parallelism_now() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `f` and returns its value with the wall time it took, in seconds.
pub fn time_s<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// The `q`-quantile (`0.0..=1.0`) of `values` by linear interpolation
/// between the closest ranks. `values` must be non-empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// FNV-1a over 64-bit words: the content digest every output check uses.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf29ce484222325)
    }

    pub fn mix(&mut self, word: u64) {
        self.0 ^= word;
        self.0 = self.0.wrapping_mul(0x100000001b3);
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}
