//! Measurement helpers: order statistics, process CPU time and peak RSS
//! from `/proc`, metric-name validity, and the one-line JSON result.

use std::fmt::Write as _;

/// Median of `values` (mean of the middle pair for even counts); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Nearest-rank `q`-quantile (`q` in (0, 1]) of `values`, provided at
/// least `min_beyond` samples lie strictly above it — a tail percentile
/// read off fewer samples than that says nothing about the tail.
pub fn percentile_with_tail(values: &[f64], q: f64, min_beyond: usize) -> Result<f64, String> {
    if values.is_empty() {
        return Err("no samples".into());
    }
    if !(q > 0.0 && q <= 1.0) {
        return Err(format!("quantile {q} outside (0, 1]"));
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    let p = v[rank - 1];
    let beyond = v.iter().filter(|&&x| x > p).count();
    if beyond < min_beyond {
        return Err(format!(
            "p{} of {} samples leaves {beyond} above it, need {min_beyond}",
            q * 100.0,
            v.len()
        ));
    }
    Ok(p)
}

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every mainstream Linux ABI).
const USER_HZ: f64 = 100.0;

/// `utime + stime` ticks from the text of `/proc/<pid>/stat`. The command
/// name (field 2) may contain spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// User + system CPU seconds this process (all threads) has used.
pub fn process_cpu_s() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    let ticks = parse_cpu_ticks(&stat).ok_or("unparsable /proc/self/stat")?;
    Ok(ticks as f64 / USER_HZ)
}

/// Machine-wide CPU time from `/proc/stat`, in clock ticks summed over
/// every CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuTicks {
    /// Time CPUs ran work: user + nice + system + irq + softirq.
    pub busy: u64,
    /// Time a CPU had work but the hypervisor ran something else.
    pub steal: u64,
}

impl CpuTicks {
    /// The share of the CPU time demanded between `self` and `later` that
    /// the hypervisor granted: busy ÷ (busy + steal), 1 when nothing ran.
    pub fn granted_share_until(self, later: CpuTicks) -> f64 {
        let busy = later.busy.saturating_sub(self.busy) as f64;
        let steal = later.steal.saturating_sub(self.steal) as f64;
        if busy + steal == 0.0 {
            1.0
        } else {
            busy / (busy + steal)
        }
    }
}

/// The aggregate `cpu` line of `/proc/stat`. Kernels before 2.6.11 print
/// no steal field; it reads as 0 there.
pub fn parse_cpu_ticks_total(stat: &str) -> Option<CpuTicks> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let f: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|x| x.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal ...
    let field = |i: usize| f.get(i).copied();
    Some(CpuTicks {
        busy: field(0)? + field(1)? + field(2)? + field(5)? + field(6)?,
        steal: field(7).unwrap_or(0),
    })
}

/// Machine-wide CPU ticks now.
pub fn cpu_ticks_total() -> Result<CpuTicks, String> {
    let stat = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    parse_cpu_ticks_total(&stat).ok_or_else(|| "unparsable /proc/stat".to_string())
}

/// `VmHWM` in kB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kb = parts.next()?.parse().ok()?;
    (parts.next() == Some("kB")).then_some(kb)
}

/// Peak resident set size of this process, in MB (10^6 bytes).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = parse_vm_hwm_kb(&status).ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb as f64 * 1024.0 / 1e6)
}

extern "C" {
    /// glibc: return free heap memory of every arena to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Return freed heap pages to the kernel, then reset this process's
/// `VmHWM` to its current resident set size, so a later [`peak_rss_mb`]
/// reads the peak of what ran in between on top of live memory only —
/// not on top of whatever the allocator happened to retain.
pub fn reset_peak_rss() -> Result<(), String> {
    // SAFETY: `malloc_trim` takes a plain integer, touches only the
    // allocator's own free lists, and is thread-safe in glibc.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// Whether `name` is a valid metric name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Stable metric name (see [`valid_metric_name`]).
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit label.
    pub unit: &'static str,
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}` with
/// every value printed in full (Rust's shortest round-trip form).
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut out = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in metrics.iter().enumerate() {
        if !valid_metric_name(m.name) {
            return Err(format!("invalid metric name {:?}", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_with_tail(&v, 0.5, 0), Ok(50.0));
        assert_eq!(percentile_with_tail(&v, 0.9, 0), Ok(90.0));
        assert_eq!(percentile_with_tail(&v, 1.0, 0), Ok(100.0));
        assert_eq!(percentile_with_tail(&[7.0], 0.9, 0), Ok(7.0));
        assert!(percentile_with_tail(&[], 0.5, 0).is_err());
        assert!(percentile_with_tail(&v, 0.0, 0).is_err());
    }

    #[test]
    fn percentile_enforces_samples_beyond() {
        // p90 of 100 samples leaves exactly 10 above it.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_with_tail(&v, 0.9, 10), Ok(90.0));
        assert!(percentile_with_tail(&v, 0.9, 11).is_err());
        // 99 samples leave only 9 above the p90.
        assert!(percentile_with_tail(&v[..99], 0.9, 10).is_err());
        // Ties at the percentile are not "beyond" it.
        let mut tied = vec![1.0; 95];
        tied.extend([2.0; 5]);
        assert!(percentile_with_tail(&tied, 0.9, 1).is_ok());
        assert!(percentile_with_tail(&tied, 0.9, 6).is_err());
    }

    #[test]
    fn cpu_ticks_parse_after_the_command_name() {
        let stat = "26823 (a (b) c) R 26819 26823 26819 0 -1 4194304 82 0 0 0 \
                    17 5 0 0 20 0 1 0 541403 2703360 305";
        assert_eq!(parse_cpu_ticks(stat), Some(22));
        assert_eq!(parse_cpu_ticks("garbage"), None);
        assert_eq!(parse_cpu_ticks("1 (x) R 2 3"), None);
    }

    #[test]
    fn live_proc_readers_work() {
        let before = process_cpu_s().expect("cpu time readable");
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s().expect("cpu time readable") >= before);
        let ballast = std::hint::black_box(vec![1u8; 64 << 20]);
        let peak = peak_rss_mb().expect("VmHWM readable");
        assert!(peak > 64.0);
        drop(ballast);
        reset_peak_rss().expect("VmHWM resettable");
        assert!(peak_rss_mb().expect("VmHWM readable") < peak - 32.0);
    }

    #[test]
    fn stat_ticks_parse_and_give_the_granted_share() {
        let stat = "cpu  100 5 20 900 3 2 1 30 0 0\ncpu0 50 2 10 450 1 1 0 15 0 0\n";
        let t0 = parse_cpu_ticks_total(stat).expect("parses");
        assert_eq!(
            t0,
            CpuTicks {
                busy: 128,
                steal: 30
            }
        );
        // Kernels without the steal field.
        assert_eq!(
            parse_cpu_ticks_total("cpu  1 2 3 4 5 6 7\n"),
            Some(CpuTicks { busy: 19, steal: 0 })
        );
        assert_eq!(parse_cpu_ticks_total("cpu0 1 2 3 4 5 6 7 8\n"), None);
        assert_eq!(parse_cpu_ticks_total("cpu  1 x 3 4 5 6 7 8\n"), None);
        let t1 = CpuTicks {
            busy: t0.busy + 300,
            steal: t0.steal + 100,
        };
        assert_eq!(t0.granted_share_until(t1), 0.75);
        assert_eq!(t0.granted_share_until(t0), 1.0);
        let live = cpu_ticks_total().expect("/proc/stat readable");
        let share = live.granted_share_until(cpu_ticks_total().expect("/proc/stat readable"));
        assert!(share > 0.0 && share <= 1.0);
    }

    #[test]
    fn vm_hwm_parses_kb_only() {
        let status = "Name:\tx\nVmPeak:\t  9 kB\nVmHWM:\t    1788 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(1788));
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t1788 MB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t1 kB\n"), None);
    }

    #[test]
    fn metric_names_are_checked() {
        for ok in [
            "setup_s",
            "dp.partition_ms.none",
            "codec.blob_kb.flat",
            "9a",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".a", "_a", "a b", "a/b", "é", &"a".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn result_json_prints_full_digits_and_rejects_bad_metrics() {
        let m = |name, value| Metric {
            name,
            value,
            unit: "ms",
        };
        let line = result_json(true, 3, 0, &[m("a", 1.25), m("b", 0.1 + 0.2)]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"b\": {\"value\": 0.30000000000000004, \"unit\": \"ms\"}}}"
        );
        assert!(result_json(true, 1, 0, &[m("bad name", 1.0)]).is_err());
        assert!(result_json(true, 1, 0, &[m("a", f64::NAN)]).is_err());
    }
}
