//! Host and build facts recorded with every result, so that results from
//! different hosts or builds are not compared blindly.

use cgsim_serve::ServeConfig;

/// The facts as one JSON object.
pub fn json(workload: &str, seed: u64, seconds: u64, trace: bool, config: &ServeConfig) -> String {
    let nproc = std::thread::available_parallelism()
        .map(usize::from)
        .unwrap_or(1);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let tier = aie_intrinsics::simd::default_tier();
    // Features are detected from their effects: tracing compiled in makes
    // an enabled tracer record; the `simd` feature lifts the capability
    // above the scalar tier.
    let mut features = vec!["default"];
    if cgsim_trace::Tracer::enabled().is_enabled() {
        features.push("trace");
    }
    if aie_intrinsics::simd::capability() != aie_intrinsics::simd::Tier::Scalar {
        features.push("simd");
    }
    format!(
        "{{\"workload\": {workload:?}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \
         \"nproc\": {nproc}, \"cpu\": {cpu:?}, \"simd_tier\": {:?}, \"features\": {features:?}, \
         \"serve_config\": {:?}}}",
        tier.name(),
        format!("{config:?}"),
    )
}
