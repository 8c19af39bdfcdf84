//! # cgsim-threads — thread-per-kernel functional simulator
//!
//! Stand-in for AMD's functional simulator **x86sim**, which the paper uses
//! as the wall-clock comparison point in Table 2: "x86sim assigns each
//! kernel to a dedicated OS thread, whereas cgsim employs cooperative
//! multitasking to execute all kernels on a single shared thread" (§5.2).
//!
//! This crate runs *exactly the same* kernel definitions and broadcast
//! channels as `cgsim-runtime`, but drives every kernel coroutine with a
//! blocking `block_on` loop on its own OS thread: channel wakers unpark the
//! owning thread instead of re-queueing a task. The contrast between the two
//! execution models — preemptive parallelism with per-transfer
//! synchronisation cost vs cooperative single-core execution — is precisely
//! the effect Table 2 measures.
//!
//! It is one more [`Session`]: the same feed/collect/run calls as the
//! cooperative engine, the same [`RunReport`].
//!
//! ```
//! use cgsim_runtime::{compute_kernel, KernelLibrary, RuntimeConfig, Session};
//! use cgsim_threads::ThreadedContext;
//! use cgsim_core::GraphBuilder;
//!
//! compute_kernel! {
//!     #[realm(aie)]
//!     pub fn double_kernel(input: ReadPort<i32>, out: WritePort<i32>) {
//!         while let Some(v) = input.get().await {
//!             out.put(v * 2).await;
//!         }
//!     }
//! }
//!
//! let graph = GraphBuilder::build("double", |g| {
//!     let a = g.input::<i32>("a");
//!     let b = g.wire::<i32>();
//!     double_kernel::invoke(g, &a, &b)?;
//!     g.output(&b);
//!     Ok(())
//! }).unwrap();
//! let lib = KernelLibrary::with(|l| { l.register::<double_kernel>(); });
//!
//! let mut ctx = ThreadedContext::new(&graph, &lib, RuntimeConfig::default()).unwrap();
//! ctx.feed(0, vec![1, 2, 3]).unwrap();
//! let out = ctx.collect::<i32>(0).unwrap();
//! let report = ctx.run().unwrap();
//! assert_eq!(report.exec.tasks, 3); // kernel + source + sink, one thread each
//! assert_eq!(out.take(), vec![2, 4, 6]);
//! ```

#![warn(missing_docs)]

use cgsim_core::{FlatGraph, GraphError, StreamData};
use cgsim_runtime::cgsim_trace::Tracer;
use cgsim_runtime::session::{declared_capacities, sink, source, IoWiring};
use cgsim_runtime::{
    block_on, ChannelMode, ExecStats, KernelLibrary, PortBinder, RunReport, RuntimeConfig, Session,
    SinkHandle, TaskProfile,
};
use parking_lot::Mutex;
use std::future::Future;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// One thread's job: bind its endpoints, wait at the start barrier, run,
/// and return its busy time.
type WorkItem = Box<dyn FnOnce(&Barrier) -> Duration + Send>;

/// A single threaded execution instance of a compute graph.
///
/// Construction registers one work item per kernel; `feed` / `collect` add
/// source and sink threads; `run` spawns everything behind a start barrier
/// (so every channel endpoint registers before any data flows) and joins.
///
/// Of the [`RuntimeConfig`] only `default_depth` applies: schedule, faults,
/// profiling, poll budget and deadline are properties of a cooperative
/// scheduler, which this engine does not have. Channels are the
/// mutex-guarded [`ChannelMode::Shared`] kind, since their endpoints live
/// on different threads.
pub struct ThreadedContext<'g> {
    io: IoWiring<'g>,
    work: Vec<(String, WorkItem)>,
    spawn_errors: Arc<Mutex<Vec<GraphError>>>,
}

/// Work item that builds a source or sink coroutine on its own thread (so
/// only what `make` captures has to be `Send`), then runs it once every
/// thread has arrived.
fn io_thread<F: Future<Output = ()>>(make: impl FnOnce() -> F + Send + 'static) -> WorkItem {
    Box::new(move |barrier: &Barrier| {
        let fut = make();
        barrier.wait();
        let start = Instant::now();
        block_on(fut);
        start.elapsed()
    })
}

impl<'g> ThreadedContext<'g> {
    /// Reconstruct a runnable copy of `graph`, one OS thread per kernel.
    pub fn new(
        graph: &'g FlatGraph,
        library: &'g KernelLibrary,
        config: RuntimeConfig,
    ) -> Result<Self, GraphError> {
        graph.validate()?;
        let io = IoWiring::new(
            graph,
            library,
            declared_capacities(graph, config.default_depth),
            ChannelMode::Shared,
            Tracer::default(),
        )?;
        let spawn_errors = Arc::new(Mutex::new(Vec::new()));
        let mut work: Vec<(String, WorkItem)> = Vec::new();
        for k in &graph.kernels {
            let entry = Arc::clone(library.get(&k.kind)?);
            let kernel_channels = io.kernel_channels(k);
            let instance = k.instance.clone();
            let errors = Arc::clone(&spawn_errors);
            let item: WorkItem = Box::new(move |barrier: &Barrier| {
                // Phase 1: bind ports (registers all channel endpoints).
                let mut binder = PortBinder::new(&instance, &kernel_channels);
                let fut = entry.spawn(&mut binder);
                // Everyone must reach the barrier, errors included, or the
                // rest of the fleet deadlocks.
                barrier.wait();
                match fut {
                    Ok(fut) => {
                        let start = Instant::now();
                        block_on(fut);
                        start.elapsed()
                    }
                    Err(e) => {
                        errors.lock().push(e);
                        Duration::ZERO
                    }
                }
            });
            work.push((k.instance.clone(), item));
        }
        Ok(ThreadedContext {
            io,
            work,
            spawn_errors,
        })
    }
}

impl Session for ThreadedContext<'_> {
    /// Attach a data-source thread feeding positional global input `index`.
    fn feed<T: StreamData>(
        &mut self,
        index: usize,
        data: impl IntoIterator<Item = T> + Send + 'static,
    ) -> Result<(), GraphError> {
        let tx = self.io.producer::<T>(index)?;
        let item = io_thread(move || source(tx, data));
        self.work.push((format!("source_{index}"), item));
        Ok(())
    }

    /// Attach a data-sink thread collecting positional global output
    /// `index`.
    fn collect_bounded<T: StreamData>(
        &mut self,
        index: usize,
        limit: usize,
    ) -> Result<SinkHandle<T>, GraphError> {
        let rx = self.io.consumer::<T>(index)?;
        let handle = SinkHandle::new();
        let out = handle.shared();
        let item = io_thread(move || sink(rx, out, limit));
        self.work.push((format!("sink_{index}"), item));
        Ok(handle)
    }

    /// Spawn all threads behind a common start barrier, run the graph, and
    /// join. Mirrors x86sim's execution model. The report's `total_time` is
    /// the wall-clock time of the parallel phase and `kernel_time` the busy
    /// time summed over all threads, which exceeds the wall time when the
    /// run actually exploited parallelism (the paper's farrow observation
    /// that x86sim "utilizes two CPU cores fully").
    fn run(self) -> Result<RunReport, GraphError> {
        self.io.check_complete()?;
        let tasks = self.work.len();
        let barrier = Arc::new(Barrier::new(tasks));
        let start = Instant::now();
        let handles: Vec<_> = self
            .work
            .into_iter()
            .enumerate()
            .map(|(i, (label, item))| {
                let barrier = Arc::clone(&barrier);
                let handle = std::thread::Builder::new()
                    .name(format!("cgsim-thread-{i}"))
                    .spawn(move || item(&barrier))
                    .expect("spawn simulation thread");
                (label, handle)
            })
            .collect();
        let profiles: Vec<TaskProfile> = handles
            .into_iter()
            .map(|(label, h)| TaskProfile {
                label,
                polls: 0,
                busy: h.join().expect("simulation thread panicked"),
                completed: true,
            })
            .collect();
        let total_time = start.elapsed();

        let errors = std::mem::take(&mut *self.spawn_errors.lock());
        if let Some(e) = errors.into_iter().next() {
            return Err(e);
        }
        Ok(RunReport {
            exec: ExecStats {
                tasks,
                completed: tasks,
                kernel_time: profiles.iter().map(|p| p.busy).sum(),
                total_time,
                ..ExecStats::default()
            },
            stalled: Vec::new(),
            elements_moved: self.io.elements_moved(),
            tasks: profiles,
            channels: self.io.channel_stats(),
            trace: Tracer::default().snapshot(),
            bounds_violations: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cgsim_core::GraphBuilder;
    use cgsim_runtime::compute_kernel;

    compute_kernel! {
        #[realm(aie)]
        pub fn inc_kernel(input: ReadPort<i64>, out: WritePort<i64>) {
            while let Some(v) = input.get().await {
                out.put(v + 1).await;
            }
        }
    }

    compute_kernel! {
        #[realm(aie)]
        pub fn sum2_kernel(a: ReadPort<i64>, b: ReadPort<i64>, out: WritePort<i64>) {
            loop {
                let (Some(x), Some(y)) = (a.get().await, b.get().await) else { break };
                out.put(x + y).await;
            }
        }
    }

    fn library() -> KernelLibrary {
        KernelLibrary::with(|l| {
            l.register::<inc_kernel>();
            l.register::<sum2_kernel>();
        })
    }

    #[test]
    fn single_kernel_pipeline() {
        let graph = GraphBuilder::build("inc", |g| {
            let a = g.input::<i64>("a");
            let b = g.wire::<i64>();
            inc_kernel::invoke(g, &a, &b)?;
            g.output(&b);
            Ok(())
        })
        .unwrap();
        let lib = library();
        let mut ctx = ThreadedContext::new(&graph, &lib, RuntimeConfig::default()).unwrap();
        ctx.feed(0, vec![10i64, 20, 30]).unwrap();
        let out = ctx.collect::<i64>(0).unwrap();
        let report = ctx.run().unwrap();
        assert_eq!(report.exec.tasks, 3);
        assert_eq!(out.take(), vec![11, 21, 31]);
        // Channel counters survive the parallel run: both connectors moved
        // 3 elements each way.
        assert_eq!(report.channels.len(), 2);
        for (name, stats) in &report.channels {
            assert_eq!(stats.pushes, 3, "channel {name}");
            assert_eq!(stats.pops, 3, "channel {name}");
        }
    }

    #[test]
    fn deep_pipeline_with_many_threads() {
        const DEPTH: usize = 8;
        let graph = GraphBuilder::build("deep", |g| {
            let mut prev = g.input::<i64>("a");
            for _ in 0..DEPTH {
                let next = g.wire::<i64>();
                inc_kernel::invoke(g, &prev, &next)?;
                prev = next;
            }
            g.output(&prev);
            Ok(())
        })
        .unwrap();
        let lib = library();
        let mut ctx = ThreadedContext::new(&graph, &lib, RuntimeConfig::default()).unwrap();
        ctx.feed(0, (0..1000i64).collect::<Vec<_>>()).unwrap();
        let out = ctx.collect::<i64>(0).unwrap();
        let report = ctx.run().unwrap();
        assert_eq!(report.exec.tasks, DEPTH + 2);
        let got = out.take();
        assert_eq!(got.len(), 1000);
        assert!(got
            .iter()
            .enumerate()
            .all(|(i, v)| *v == i as i64 + DEPTH as i64));
    }

    #[test]
    fn diamond_broadcast_and_merge() {
        // a → [inc, inc] → merged wire → output. The merge interleaves
        // nondeterministically across threads; only the multiset is fixed.
        let graph = GraphBuilder::build("diamond", |g| {
            let a = g.input::<i64>("a");
            let m = g.wire::<i64>();
            inc_kernel::invoke(g, &a, &m)?;
            inc_kernel::invoke(g, &a, &m)?;
            g.output(&m);
            Ok(())
        })
        .unwrap();
        let lib = library();
        let mut ctx = ThreadedContext::new(&graph, &lib, RuntimeConfig::default()).unwrap();
        ctx.feed(0, vec![1i64, 2, 3]).unwrap();
        let out = ctx.collect::<i64>(0).unwrap();
        ctx.run().unwrap();
        let mut got = out.take();
        got.sort_unstable();
        assert_eq!(got, vec![2, 2, 3, 3, 4, 4]);
    }

    #[test]
    fn two_input_kernel_across_threads() {
        let graph = GraphBuilder::build("sum", |g| {
            let a = g.input::<i64>("a");
            let b = g.input::<i64>("b");
            let s = g.wire::<i64>();
            sum2_kernel::invoke(g, &a, &b, &s)?;
            g.output(&s);
            Ok(())
        })
        .unwrap();
        let lib = library();
        let mut ctx = ThreadedContext::new(&graph, &lib, RuntimeConfig::default()).unwrap();
        ctx.feed(0, vec![1i64, 2, 3]).unwrap();
        ctx.feed(1, vec![10i64, 20, 30]).unwrap();
        let out = ctx.collect::<i64>(0).unwrap();
        ctx.run().unwrap();
        assert_eq!(out.take(), vec![11, 22, 33]);
    }

    #[test]
    fn missing_io_is_rejected() {
        let graph = GraphBuilder::build("inc", |g| {
            let a = g.input::<i64>("a");
            let b = g.wire::<i64>();
            inc_kernel::invoke(g, &a, &b)?;
            g.output(&b);
            Ok(())
        })
        .unwrap();
        let lib = library();
        let ctx = ThreadedContext::new(&graph, &lib, RuntimeConfig::default()).unwrap();
        assert!(matches!(ctx.run(), Err(GraphError::IoArityMismatch { .. })));
    }

    #[test]
    fn results_match_cooperative_runtime() {
        use cgsim_runtime::RuntimeContext;
        let build = || {
            GraphBuilder::build("pipe", |g| {
                let a = g.input::<i64>("a");
                let b = g.wire::<i64>();
                let c = g.wire::<i64>();
                inc_kernel::invoke(g, &a, &b)?;
                inc_kernel::invoke(g, &b, &c)?;
                g.output(&c);
                Ok(())
            })
            .unwrap()
        };
        let lib = library();
        let input: Vec<i64> = (0..500).collect();

        let graph = build();
        let mut coop = RuntimeContext::new(&graph, &lib, RuntimeConfig::default()).unwrap();
        coop.feed(0, input.clone()).unwrap();
        let coop_out = coop.collect::<i64>(0).unwrap();
        coop.run().unwrap();

        let graph = build();
        let mut thr = ThreadedContext::new(&graph, &lib, RuntimeConfig::default()).unwrap();
        thr.feed(0, input).unwrap();
        let thr_out = thr.collect::<i64>(0).unwrap();
        thr.run().unwrap();

        assert_eq!(coop_out.take(), thr_out.take());
    }
}
