//! Compiled-vs-cooperative backend comparison (the PR-7 ledger).
//!
//! Every workload here runs the same graph, kernels and feeds under two
//! engines:
//!
//! * **cooperative** — the optimised cooperative hot loop (fast-path
//!   channels, sampled profiling): a ready queue, wakers, and one poll per
//!   suspension point;
//! * **compiled** — the `cgsim-compiled` static-schedule executor: no ready
//!   queue, no wake bookkeeping, coroutines polled in precompiled
//!   topological order with buffers pre-sized from the schedule so nothing
//!   ever blocks.
//!
//! The same workloads back the `compiled-report` binary that emits
//! `BENCH_PR7.json`.

use crate::hotloop::Measured;
use cgsim_compiled::CompiledContext;
use cgsim_core::{FlatGraph, GraphBuilder, PortSettings};
use cgsim_graphs::EvalApp;
use cgsim_runtime::{
    compute_kernel, Backend, KernelLibrary, RunSpec, RuntimeConfig, RuntimeContext, Session,
};
use std::hint::black_box;
use std::time::Instant;

compute_kernel! {
    /// Forwards elements unchanged — the cost measured is pure engine
    /// overhead (scheduling, channel hand-off), not arithmetic.
    #[realm(aie)]
    pub fn forward_kernel(input: ReadPort<i64>, out: WritePort<i64>) {
        while let Some(v) = input.get().await {
            out.put(v).await;
        }
    }
}

/// Kernel registry for the deep-pipeline workload.
pub fn pipeline_library() -> KernelLibrary {
    KernelLibrary::with(|l| {
        l.register::<forward_kernel>();
    })
}

/// A pass-through pipeline of `stages` forwarding kernels, every hop
/// through its own connector. `depth` declares an explicit FIFO depth on
/// every connector; `None` leaves the runtime's default.
///
/// The tight-depth variant (`Some(1)`) is where the compiled backend's
/// static analysis earns its keep: the cooperative engine must honour the
/// declared depth and suspends on every element, while the schedule
/// compiler proves (by Kahn determinism of the merge-free graph) that
/// enlarging the buffers to the period bound cannot change any output, and
/// sizes them so nothing ever blocks.
pub fn pipeline_graph(stages: usize, depth: Option<u32>) -> FlatGraph {
    GraphBuilder::build(format!("deep-pipe-{stages}"), |g| {
        let mut prev = g.input::<i64>("in");
        if let Some(d) = depth {
            g.connector_settings(&prev, PortSettings::new().depth(d));
        }
        for _ in 0..stages {
            let next = g.wire::<i64>();
            if let Some(d) = depth {
                g.connector_settings(&next, PortSettings::new().depth(d));
            }
            forward_kernel::invoke(g, &prev, &next)?;
            prev = next;
        }
        g.output(&prev);
        Ok(())
    })
    .expect("pipeline graph builds")
}

/// Run the deep pipeline on the cooperative engine (default fast-path
/// configuration) and return wall time over `elements` elements.
pub fn deep_pipeline_cooperative(stages: usize, depth: Option<u32>, elements: u64) -> Measured {
    let graph = pipeline_graph(stages, depth);
    let lib = pipeline_library();
    let mut ctx = RuntimeContext::new(&graph, &lib, RuntimeConfig::default()).expect("context");
    ctx.feed(0, (0..elements as i64).collect::<Vec<_>>())
        .expect("feed");
    let out = ctx.collect::<i64>(0).expect("collect");
    let start = Instant::now();
    let report = ctx.run().expect("run");
    let wall = start.elapsed();
    assert!(report.drained(), "cooperative pipeline stalled");
    black_box(out.take());
    Measured {
        elements,
        wall,
        polls: report.exec.polls,
    }
}

/// Run the same deep pipeline on the compiled static-schedule engine.
pub fn deep_pipeline_compiled(stages: usize, depth: Option<u32>, elements: u64) -> Measured {
    let graph = pipeline_graph(stages, depth);
    let lib = pipeline_library();
    let mut ctx = CompiledContext::new(&graph, &lib, RuntimeConfig::default())
        .expect("statically schedulable");
    ctx.feed(0, (0..elements as i64).collect::<Vec<_>>())
        .expect("feed");
    let out = ctx.collect::<i64>(0).expect("collect");
    let start = Instant::now();
    let report = ctx.run().expect("run");
    let wall = start.elapsed();
    assert!(report.drained(), "compiled pipeline stalled");
    black_box(out.take());
    Measured {
        elements,
        wall,
        polls: report.exec.polls,
    }
}

/// One paper graph under the given backend (`Cooperative` or `Compiled`),
/// through the same `run_spec` dispatch the apps use everywhere else.
pub fn paper_graph_backend(app: &dyn EvalApp, backend: Backend, blocks: u64) -> Measured {
    let spec = RunSpec::for_graph(app.name()).backend(backend);
    let run = app
        .run_spec(&spec, blocks)
        .unwrap_or_else(|e| panic!("{} under {backend:?}: {e}", app.name()));
    Measured {
        elements: run.out_elems as u64,
        wall: run.wall_time,
        polls: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deep_pipeline_engines_agree_and_compiled_polls_less() {
        for depth in [None, Some(1)] {
            let coop = deep_pipeline_cooperative(8, depth, 4_096);
            let comp = deep_pipeline_compiled(8, depth, 4_096);
            assert_eq!(coop.elements, comp.elements);
            // The compiled engine's whole point: a handful of sweep polls
            // instead of per-element scheduler churn.
            assert!(
                comp.polls < coop.polls / 10,
                "depth {depth:?}: compiled {} polls vs cooperative {}",
                comp.polls,
                coop.polls
            );
        }
    }

    #[test]
    fn paper_graphs_run_under_both_backends() {
        for app in cgsim_graphs::all_apps() {
            let coop = paper_graph_backend(app.as_ref(), Backend::Cooperative, 2);
            let comp = paper_graph_backend(app.as_ref(), Backend::Compiled, 2);
            assert_eq!(coop.elements, comp.elements, "{}", app.name());
        }
    }
}
