//! The config record every result carries, and process memory.

/// The build and host configuration a result was measured on.
pub fn config_record(workload: &str, seed: u64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let threads = std::env::var("RLPM_THREADS").unwrap_or_else(|_| "unset".into());
    format!(
        "config {{\"workload\":{},\"seed\":{seed},\"trace\":{trace},\"nproc\":{nproc},\
         \"cpu\":{},\"rustc\":{},\"commit\":{},\"rlpm_threads\":{},\"obs_enabled\":{}}}",
        quote(workload),
        quote(&cpu),
        quote(env!("PERFBENCH_RUSTC")),
        quote(env!("PERFBENCH_COMMIT")),
        quote(&threads),
        simkit::obs::enabled(),
    )
}

/// Peak resident memory of this process in MiB, from the kernel's
/// high-water mark.
pub fn max_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    rlpm_serve::json::Value::str(s).render()
}
