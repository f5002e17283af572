//! The host fingerprint printed with every result, so that a later run is
//! compared only with runs from a like host and build.

/// One line naming what a run's numbers depend on besides the code: CPUs
/// available, CPU model and its avx2/bmi2/avx512f flags, the replay
/// kernel set the simulator selected, and the compiler and profile that
/// built the benchmark.
pub fn fingerprint() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let field = |key: &str| {
        cpuinfo
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_owned())
    };
    let flags = field("flags").unwrap_or_default();
    let have: Vec<&str> = flags.split_whitespace().collect();
    let wanted: Vec<&str> = ["avx2", "bmi2", "avx512f"]
        .into_iter()
        .filter(|f| have.contains(f))
        .collect();
    format!(
        "nproc={} cpu=\"{}\" flags={} kernels={} rustc=\"{}\" profile=\"{}\"",
        simcore::par::available_parallelism(),
        field("model name").unwrap_or_else(|| "unknown".into()),
        wanted.join(","),
        simcore::simd::active_kernels(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
    )
}

/// Peak resident set size of this process (`VmHWM`), in bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}
