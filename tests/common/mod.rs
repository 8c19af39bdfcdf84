//! Helpers shared by the integration tests: the build-feed-collect-run
//! boilerplate around the functional engines, deduplicated from the
//! individual test files. Each test binary compiles its own copy and uses a
//! subset, hence the `dead_code` allowance.

#![allow(dead_code)]

use cgsim::core::{FlatGraph, StreamData};
use cgsim::runtime::{KernelLibrary, RuntimeConfig, RuntimeContext, Session};
use cgsim::threads::ThreadedContext;

/// Run `graph` on the cooperative runtime under the default FIFO schedule:
/// feed `inputs` positionally, require the run to drain, return output 0.
pub fn run_coop<TIn: StreamData, TOut: StreamData>(
    graph: &FlatGraph,
    lib: &KernelLibrary,
    inputs: Vec<Vec<TIn>>,
) -> Vec<TOut> {
    let ctx = RuntimeContext::new(graph, lib, RuntimeConfig::default()).unwrap();
    run_session(ctx, inputs)
}

/// Run `graph` on the thread-per-kernel runtime; same contract as
/// [`run_coop`].
pub fn run_threaded<TIn: StreamData, TOut: StreamData>(
    graph: &FlatGraph,
    lib: &KernelLibrary,
    inputs: Vec<Vec<TIn>>,
) -> Vec<TOut> {
    let ctx = ThreadedContext::new(graph, lib, RuntimeConfig::default()).unwrap();
    run_session(ctx, inputs)
}

/// Feed `inputs` positionally into any engine's session, require the run to
/// drain, return output 0.
pub fn run_session<S: Session, TIn: StreamData, TOut: StreamData>(
    mut ctx: S,
    inputs: Vec<Vec<TIn>>,
) -> Vec<TOut> {
    for (i, input) in inputs.into_iter().enumerate() {
        ctx.feed(i, input).unwrap();
    }
    let out = ctx.collect::<TOut>(0).unwrap();
    let report = ctx.run().unwrap();
    assert!(report.drained(), "graph stalled: {:?}", report.stalled);
    out.take()
}
