//! Shared plumbing for the evaluation applications: one run driver over
//! every engine, and profile bookkeeping.

use crate::apps::{AppRun, Launch};
use aie_sim::KernelCostProfile;
use cgsim_compiled::{CompileError, CompiledContext};
use cgsim_core::{FlatGraph, GraphError, StreamData};
use cgsim_runtime::{Backend, Interrupt, KernelLibrary, RunSpec, RuntimeContext, Session};
use cgsim_threads::ThreadedContext;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Profile bookkeeping helpers.
pub mod measure {
    use super::*;

    /// Build a profile map from an iterator of profiles.
    pub fn profile_map(
        profiles: impl IntoIterator<Item = KernelCostProfile>,
    ) -> HashMap<String, KernelCostProfile> {
        profiles
            .into_iter()
            .map(|p| (p.kernel.clone(), p))
            .collect()
    }
}

/// What an application feeds into its graph: a data stream on input 0
/// (`Vec<T>`), optionally followed by a Runtime Parameter on input 1
/// (`(Vec<T>, P)`).
pub trait Inputs {
    /// Attach these inputs to `session`.
    fn feed_into<S: Session>(self, session: &mut S) -> Result<(), GraphError>;
}

impl<T: StreamData> Inputs for Vec<T> {
    fn feed_into<S: Session>(self, session: &mut S) -> Result<(), GraphError> {
        session.feed(0, self)
    }
}

impl<T: StreamData, P: StreamData> Inputs for (Vec<T>, P) {
    fn feed_into<S: Session>(self, session: &mut S) -> Result<(), GraphError> {
        session.feed(0, self.0)?;
        session.feed_param(1, self.1)
    }
}

/// Run `graph` under `spec` on the engine the spec targets, with
/// per-launch resources (cached plan, tracer); returns output 0 and the
/// run metrics (`checksum`/`out_elems` left for the caller to fill).
///
/// A `Backend::Compiled` run instantiates the launch's cached plan when it
/// has one (fault plans disqualify a graph from static scheduling, so the
/// plan is only honoured for fault-free specs) and compiles otherwise.
/// Graphs outside the statically schedulable class (merges, rate
/// imbalance, cycles, fault plans) fall back to the cooperative engine.
pub fn run_graph<TOut: StreamData>(
    graph: &FlatGraph,
    lib: &KernelLibrary,
    spec: &RunSpec,
    inputs: impl Inputs,
    launch: Launch,
) -> Result<(Vec<TOut>, AppRun), String> {
    let Launch { plan, tracer } = launch;
    match spec.target() {
        Backend::Cooperative => {
            let ctx = RuntimeContext::from_spec_with_tracer(graph, lib, spec, tracer);
            drive(ctx.map_err(|e| e.to_string())?, spec, inputs)
        }
        Backend::Threaded => {
            let ctx = ThreadedContext::new(graph, lib, *spec.config());
            drive(ctx.map_err(|e| e.to_string())?, spec, inputs)
        }
        Backend::Compiled => {
            let ctx = match plan {
                Some(plan) if spec.config().faults.is_none() => {
                    Ok(CompiledContext::with_plan(graph, lib, plan, spec))
                }
                _ => CompiledContext::from_spec(graph, lib, spec),
            };
            match ctx {
                Ok(mut ctx) => {
                    ctx.set_tracer(tracer);
                    drive(ctx, spec, inputs)
                }
                Err(CompileError::NotStaticallySchedulable { .. }) => {
                    let coop = spec.clone().backend(Backend::Cooperative);
                    run_graph(
                        graph,
                        lib,
                        &coop,
                        inputs,
                        Launch::default().with_tracer(tracer),
                    )
                }
                Err(e) => Err(e.to_string()),
            }
        }
    }
}

/// Feed, collect output 0, run, and turn an interrupted or stalled run into
/// an error — the same for every engine.
fn drive<S: Session, TOut: StreamData>(
    mut ctx: S,
    spec: &RunSpec,
    inputs: impl Inputs,
) -> Result<(Vec<TOut>, AppRun), String> {
    inputs.feed_into(&mut ctx).map_err(|e| e.to_string())?;
    let out = ctx.collect::<TOut>(0).map_err(|e| e.to_string())?;
    let start = Instant::now();
    let report = ctx.run().map_err(|e| e.to_string())?;
    let wall_time = start.elapsed();
    match report.interrupted() {
        Some(Interrupt::Deadline) => {
            return Err(format!(
                "deadline exceeded after {:?} ({} polls)",
                spec.deadline_budget().unwrap_or_default(),
                report.exec.polls
            ))
        }
        Some(Interrupt::Cancelled) => return Err("run cancelled".into()),
        None => {}
    }
    if !report.drained() {
        return Err(format!("graph stalled: {:?}", report.stalled));
    }
    Ok((
        out.take(),
        AppRun {
            wall_time,
            out_elems: 0,
            checksum: 0,
            kernel_fraction: Some(report.exec.kernel_fraction()),
            report: Some(Arc::new(report)),
        },
    ))
}
