//! Order statistics and the `/proc` readings the run records.

/// Median of `values` (mean of the middle two for even counts); 0 if empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100] of already sorted samples.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// `VmHWM` (peak resident set) of `pid` ("self" for this process), in MiB.
pub fn peak_rss_mib(pid: &str) -> f64 {
    read(&format!("/proc/{pid}/status"))
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// User plus system CPU time of `pid` ("self" for this process), in
/// clock ticks (`USER_HZ`, 100 per second on Linux).
pub fn cpu_ticks(pid: &str) -> u64 {
    let stat = read(&format!("/proc/{pid}/stat"));
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let field = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    field(11) + field(12)
}

/// Clock ticks per second of `/proc` CPU times.
pub const TICKS_PER_S: f64 = 100.0;

/// Host-wide steal ticks so far (the `cpu` line of `/proc/stat`): time
/// the hypervisor ran someone else while this VM wanted the CPU.
pub fn steal_ticks() -> u64 {
    read("/proc/stat")
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(8))
        .and_then(|f| f.parse().ok())
        .unwrap_or(0)
}

/// A JSON number: integers stay exact, non-finite values become null.
pub fn num(value: f64) -> String {
    if !value.is_finite() {
        "null".to_string()
    } else if value.fract() == 0.0 && value.abs() < 1e15 {
        format!("{}", value as i64)
    } else {
        format!("{value}")
    }
}

/// A JSON array of numbers.
pub fn num_array<T: Copy + Into<f64>>(values: &[T]) -> String {
    let items: Vec<String> = values.iter().map(|&v| num(v.into())).collect();
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 99.0), 99);
        assert_eq!(percentile(&sorted, 100.0), 100);
    }

    #[test]
    fn proc_readings_are_present() {
        assert!(peak_rss_mib("self") > 0.0);
        assert!(cpu_ticks("self") < u64::MAX);
    }
}
