//! The layer suite: per-app measurements of the execution layers, taken by
//! calling each layer directly on the `paper-sim` request shapes (four apps
//! at 128 KiB) and the `cycle-model` manifests (Table 1 deployments).
//!
//! Every traced run includes it, so every traced run reports the complete
//! per-layer set; the request-path layers are measured on the workload's
//! own replay instead (see `traced`).

use crate::metrics::Metrics;
use crate::oracle::simulate;
use crate::stats::median;
use crate::workload::{table1_configs, table1_manifest, PAPER_INPUT_BYTES};
use aie_sim::{DeployOptions, VerifyPolicy};
use cgsim_graphs::{all_apps, Backend, Launch, RunSpec};
use cgsim_lint::LintConfig;
use cgsim_trace::Tracer;
use std::collections::HashMap;
use std::time::Instant;

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Run the suite with `repeats` samples per measurement and add its
/// metrics. Returns an error if a direct run fails.
pub fn run(repeats: usize, out: &mut Metrics) -> Result<(), String> {
    let mut compile_ns = Vec::new();
    for (i, app) in all_apps().iter().enumerate() {
        let name = app.name();
        let blocks = PAPER_INPUT_BYTES / app.block_bytes();
        let graph = app.graph();
        let lint_config = LintConfig::default();
        let mut plan = None;
        for _ in 0..repeats {
            let t = Instant::now();
            plan = Some(
                cgsim_compiled::compile(&graph, &lint_config)
                    .map_err(|e| format!("{name}: compile: {e}"))?,
            );
            compile_ns.push(t.elapsed().as_nanos() as f64);
        }
        let plan = plan.expect("at least one repeat");

        let coop = RunSpec::for_graph(name);
        let compiled = RunSpec::for_graph(name).backend(Backend::Compiled);
        let (mut enabled, mut disabled, mut compiled_ns, mut verify) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let mut polls = Vec::new();
        let mut blocked = Vec::new();
        for _ in 0..repeats {
            // The served configuration: the pool hands every job an enabled
            // tracer.
            let t = Instant::now();
            let run = app.run_launched(
                &coop,
                blocks,
                Launch::default().with_tracer(Tracer::enabled()),
            )?;
            let total = t.elapsed().as_nanos() as f64;
            let wall = run.wall_time.as_nanos() as f64;
            enabled.push(wall);
            verify.push(total - wall);
            let report = run
                .report
                .as_ref()
                .ok_or("cooperative run without a report")?;
            polls.push(report.exec.polls);
            blocked.push(
                report
                    .channels
                    .iter()
                    .map(|(_, s)| s.blocked_writes)
                    .sum::<u64>(),
            );

            let run = app.run_launched(&coop, blocks, Launch::default())?;
            disabled.push(run.wall_time.as_nanos() as f64);

            let launch = Launch::default()
                .with_plan(plan.clone())
                .with_tracer(Tracer::enabled());
            let run = app.run_launched(&compiled, blocks, launch)?;
            compiled_ns.push(run.wall_time.as_nanos() as f64);
        }
        if polls.iter().any(|&p| p != polls[0]) || blocked.iter().any(|&b| b != blocked[0]) {
            return Err(format!(
                "{name}: poll or blocked-write counts differ between identical runs"
            ));
        }
        // `runtime.exec_ms` is also the enabled base of `trace.exec_ratio`.
        let exec = median(&enabled);
        out.push(format!("runtime.exec_ms.{name}"), ms(exec), "ms");
        out.push(format!("runtime.polls.{name}"), polls[0] as f64, "count");
        out.push(
            format!("runtime.ns_per_poll.{name}"),
            exec / polls[0].max(1) as f64,
            "ns",
        );
        out.push(
            format!("runtime.blocked_writes.{name}"),
            blocked[0] as f64,
            "count",
        );
        out.push(
            format!("graphs.verify_ms.{name}"),
            ms(median(&verify)),
            "ms",
        );
        out.push(
            format!("trace.disabled_ms.{name}"),
            ms(median(&disabled)),
            "ms",
        );
        out.push(
            format!("trace.exec_ratio.{name}"),
            exec / median(&disabled),
            "x",
        );
        out.push(
            format!("compiled.exec_ms.{name}"),
            ms(median(&compiled_ns)),
            "ms",
        );

        // aie-sim on the Table 1 manifests, timed like the daemon's job
        // (admission already linted, so the deploy runs unchecked).
        let mut host = Vec::new();
        let mut iterations = 0;
        let mut ops_per_block = 0.0;
        for (config_name, config) in table1_configs() {
            let manifest = table1_manifest(i, config);
            let options = DeployOptions::new().verify(VerifyPolicy::Off);
            for _ in 0..repeats {
                let t = Instant::now();
                aie_sim::deploy_manifest(&manifest, &options)
                    .map_err(|e| format!("{name}: aie-sim: {}", e.message()))?;
                host.push(t.elapsed().as_nanos() as f64);
            }
            let report = simulate(&manifest)?;
            iterations = report.kernels.iter().map(|k| k.iterations).sum::<u64>();
            let ns_per_block = report
                .ns_per_block
                .ok_or_else(|| format!("{name}: too few blocks for a steady state"))?;
            out.push(
                format!("aiesim.sim_ns_per_block.{name}.{config_name}"),
                ns_per_block,
                "ns_sim",
            );
            if config_name == "hand" {
                ops_per_block = ops_per_block_of(app.as_ref(), &manifest, &report);
            }
        }
        let host_ns = median(&host);
        out.push(format!("aiesim.host_ms.{name}"), ms(host_ns), "ms");
        out.push(
            format!("aiesim.host_ns_per_iter.{name}"),
            host_ns / iterations.max(1) as f64,
            "ns",
        );
        out.push(
            format!("intrinsics.ops_per_block.{name}"),
            ops_per_block,
            "count",
        );
        out.push(
            format!("intrinsics.ns_per_op.{name}"),
            median(&disabled) / (ops_per_block * blocks as f64).max(1.0),
            "ns",
        );
    }
    out.push(
        "compiled.compile_us".to_string(),
        compile_ns.iter().sum::<f64>() / compile_ns.len().max(1) as f64 / 1e3,
        "us",
    );
    Ok(())
}

/// Intrinsic operations per input block: each kernel's measured per-firing
/// op count (`EvalApp::profiles`) times its firings per block in the cycle
/// model.
fn ops_per_block_of(
    app: &dyn cgsim_graphs::EvalApp,
    manifest: &aie_sim::DeployManifest,
    report: &aie_sim::SimReport,
) -> f64 {
    let profiles = app.profiles();
    let kinds: HashMap<&str, &str> = manifest
        .graph
        .kernels
        .iter()
        .map(|k| (k.instance.as_str(), k.kind.as_str()))
        .collect();
    let ops: u64 = report
        .kernels
        .iter()
        .map(|k| {
            let per_firing = kinds
                .get(k.instance.as_str())
                .and_then(|kind| profiles.get(*kind))
                .map(|p| p.ops.total())
                .unwrap_or(0);
            per_firing * k.iterations
        })
        .sum();
    ops as f64 / manifest.workload.blocks.max(1) as f64
}
