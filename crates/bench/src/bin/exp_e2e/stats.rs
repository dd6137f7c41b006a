//! Order statistics, the stream digest and the `/proc` readers.

use std::time::Instant;

/// Sort a sample ascending under the float total order.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// The `p`-th percentile (`0..=100`) of an ascending sample, interpolating
/// linearly between the two closest ranks, so `p = 50` of an even-sized
/// sample is the conventional median. An empty sample has no percentile.
pub fn percentile(ascending: &[f64], p: f64) -> Option<f64> {
    let last = ascending.len().checked_sub(1)?;
    let rank = (p.clamp(0.0, 100.0) / 100.0) * last as f64;
    let lo = rank.floor() as usize;
    let hi = (lo + 1).min(last);
    let frac = rank - lo as f64;
    Some(ascending[lo] + (ascending[hi] - ascending[lo]) * frac)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// Arithmetic mean (`None` for an empty sample).
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// Streaming FNV-1a64. The benchmark owns its digest (instead of borrowing
/// `clusterkv_faults::Fnv64`, whose mixing is free to change) so a
/// `stream_digest` stays comparable across commits.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold one request's generated stream: id, length, then every token.
    pub fn write_stream(&mut self, id: u64, tokens: &[usize]) {
        self.write_u64(id);
        self.write_u64(tokens.len() as u64);
        for &t in tokens {
            self.write_u64(t as u64);
        }
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// SplitMix64: the workload generator's only source of randomness, so the
/// same `--seed` yields the same token ids on every commit of the repo.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi` (modulo bias is irrelevant at these ranges).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    pub fn tokens(&mut self, n: usize, vocab: usize) -> Vec<usize> {
        (0..n).map(|_| self.range(0, vocab - 1)).collect()
    }
}

/// Kernel clock ticks per second for `/proc/self/stat` times. Linux has
/// exposed `USER_HZ = 100` to user space on every architecture for decades;
/// reading it properly needs `sysconf`, i.e. libc, which the workspace
/// does not link.
const USER_HZ: f64 = 100.0;

/// `utime + stime` of a `/proc/<pid>/stat` line, in clock ticks. The
/// command name (field 2) may contain spaces and parentheses, so fields are
/// counted from the *last* `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state is field 3, utime field 14, stime field 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    utime.checked_add(stime)
}

/// User + system CPU seconds of this process so far (`None` off Linux).
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    parse_cpu_ticks(&stat).map(|t| t as f64 / USER_HZ)
}

/// `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in KiB.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut parts = line.split_ascii_whitespace();
    let value: u64 = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(value)
}

/// Peak resident set of this process in MiB (`None` off Linux).
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

/// Wall and CPU time of a section. CPU is `None` where `/proc` is missing.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: Instant,
    cpu: Option<f64>,
}

impl Stopwatch {
    pub fn start() -> Self {
        Self {
            wall: Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    pub fn cpu_s(&self) -> Option<f64> {
        Some(cpu_seconds()? - self.cpu?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_and_handles_edges() {
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 95.0), Some(7.0));
        let s = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 50.0), Some(2.5));
        assert_eq!(percentile(&s, 100.0), Some(4.0));
        assert_eq!(percentile(&s, 250.0), Some(4.0));
        let hundred: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 95.0), Some(96.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[1.0, 2.0]), Some(1.5));
    }

    #[test]
    fn sorted_puts_nan_last_instead_of_panicking() {
        let s = sorted(vec![2.0, f64::NAN, 1.0]);
        assert_eq!(&s[..2], &[1.0, 2.0]);
        assert!(s[2].is_nan());
    }

    #[test]
    fn digest_matches_the_fnv1a64_reference_vectors() {
        // FNV-1a64 of the empty input is the offset basis; of "a" (0x61)
        // it is af63dc4c8601ec8c. A u64 write feeds 8 little-endian bytes.
        assert_eq!(Digest::new().hex(), "cbf29ce484222325");
        let mut one = Digest::new();
        one.0 = (one.0 ^ 0x61).wrapping_mul(0x0000_0100_0000_01b3);
        assert_eq!(one.hex(), "af63dc4c8601ec8c");
        let (mut a, mut b) = (Digest::new(), Digest::new());
        a.write_stream(1, &[5, 6]);
        b.write_stream(1, &[6, 5]);
        assert_ne!(a.hex(), b.hex());
    }

    #[test]
    fn splitmix_is_seed_deterministic_and_in_range() {
        let a = SplitMix64::new(7).tokens(64, 1024);
        assert_eq!(a, SplitMix64::new(7).tokens(64, 1024));
        assert_ne!(a, SplitMix64::new(8).tokens(64, 1024));
        assert!(a.iter().all(|&t| t < 1024));
        let mut r = SplitMix64::new(1);
        assert!((0..200).all(|_| (32..=64).contains(&r.range(32, 64))));
    }

    #[test]
    fn cpu_ticks_parser_survives_hostile_command_names() {
        let stat = "1234 (exp e2e) x) R 1 1 1 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0 1 2 3";
        assert_eq!(parse_cpu_ticks(stat), Some(300));
        assert_eq!(parse_cpu_ticks("1 (x) R 1 2"), None);
        assert_eq!(parse_cpu_ticks("no parenthesis"), None);
        assert_eq!(parse_cpu_ticks(""), None);
        assert_eq!(parse_cpu_ticks("1 (x) R 1 1 1 0 -1 0 0 0 0 0 abc 5"), None);
    }

    #[test]
    fn vm_hwm_parser_degrades_to_none() {
        let status = "Name:\tx\nVmPeak:\t  900 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\tlots kB\n"), None);
    }

    #[test]
    fn proc_readers_never_panic() {
        // On Linux both are Some and sane; elsewhere both are None.
        if let Some(cpu) = cpu_seconds() {
            assert!(cpu >= 0.0);
        }
        if let Some(rss) = peak_rss_mib() {
            assert!(rss > 0.0);
        }
        let watch = Stopwatch::start();
        assert!(watch.wall_s() >= 0.0);
        if let Some(cpu) = watch.cpu_s() {
            assert!(cpu >= 0.0);
        }
    }
}
