//! The compiled executor: plan instantiation and fixed-order execution.

use crate::compiler::{compile, CompileError, CompiledPlan, RejectReason};
use cgsim_core::{FlatGraph, GraphError, StreamData};
use cgsim_runtime::channel::ChannelMode;
use cgsim_runtime::executor::{
    CancelToken, ExecStats, Interrupt, LocalBoxFuture, Profiling, TaskProfile,
};
use cgsim_runtime::library::{KernelLibrary, PortBinder};
use cgsim_runtime::session::{input_connector, output_connector, sink, source, IoWiring};
use cgsim_runtime::spec::RunSpec;
use cgsim_runtime::{RunReport, RuntimeConfig, Session, SinkHandle};
use cgsim_trace::{KernelRef, TraceEvent, Tracer};
use std::task::{Context, Poll, Waker};
use std::time::{Duration, Instant};

/// A deferred source or sink: builds its coroutine once the channels exist.
type IoBuild = Box<dyn for<'g> FnOnce(&mut IoWiring<'g>) -> Result<LocalBoxFuture, GraphError>>;

struct PendingFeed {
    /// Elements this source will push — the workload length that scales the
    /// plan's period bounds into concrete buffer capacities.
    len: usize,
    build: IoBuild,
}

/// One schedulable coroutine in sweep order.
struct Task {
    label: String,
    kernel: KernelRef,
    fut: Option<LocalBoxFuture>,
    polls: u64,
    busy: Duration,
    completed: bool,
}

impl Task {
    fn new(label: String, fut: LocalBoxFuture, tracer: &Tracer) -> Self {
        let kernel = tracer.register_kernel(&label);
        Task {
            label,
            kernel,
            fut: Some(fut),
            polls: 0,
            busy: Duration::ZERO,
            completed: false,
        }
    }
}

/// A single execution instance of a [`CompiledPlan`] — the compiled
/// backend's counterpart to `cgsim_runtime::RuntimeContext`.
///
/// Differences from the cooperative engine, all consequences of the static
/// schedule:
///
/// * **No scheduler.** Coroutines are polled in precompiled sweep order
///   (sources → kernels topologically → sinks) with a no-op waker; there is
///   no ready queue and no wake bookkeeping. Buffers are sized from the
///   plan's period bounds scaled by the feed length, so in the common case
///   a single sweep drains the whole run and every coroutine completes in
///   one poll.
/// * **Channel creation is deferred to [`Session::run`]**, when all
///   feed lengths are known; `feed`/`collect` only record intentions.
/// * **Schedule policy and fault injection do not apply** (the order is the
///   plan); [`CompiledContext::from_spec`] rejects fault-carrying specs
///   with [`RejectReason::FaultPlan`].
///
/// Deadlines, cancellation, `max_polls`, profiling and tracing behave as in
/// the cooperative engine and surface through the same [`RunReport`].
pub struct CompiledContext<'g> {
    graph: &'g FlatGraph,
    library: &'g KernelLibrary,
    plan: CompiledPlan,
    config: RuntimeConfig,
    tracer: Tracer,
    deadline: Option<Instant>,
    cancel: Option<CancelToken>,
    feeds: Vec<Option<PendingFeed>>,
    sinks: Vec<Option<IoBuild>>,
}

impl<'g> CompiledContext<'g> {
    /// Compile `graph` and instantiate the resulting plan in one step.
    pub fn new(
        graph: &'g FlatGraph,
        library: &'g KernelLibrary,
        config: RuntimeConfig,
    ) -> Result<Self, CompileError> {
        let plan = compile(graph, &lint_config(&config))?;
        let spec = RunSpec::default().with_config(config);
        Ok(Self::with_plan(graph, library, plan, &spec))
    }

    /// Instantiate a previously compiled plan under `spec` — the reuse
    /// path: one [`compile`] call, many contexts (e.g. one per sweep job).
    /// A deadline budget in `spec` is armed from this instant; a fault
    /// plan is ignored (see [`CompiledContext::from_spec`]).
    pub fn with_plan(
        graph: &'g FlatGraph,
        library: &'g KernelLibrary,
        plan: CompiledPlan,
        spec: &RunSpec,
    ) -> Self {
        CompiledContext {
            graph,
            library,
            plan,
            config: *spec.config(),
            tracer: Tracer::default(),
            deadline: spec.deadline_budget().map(|budget| Instant::now() + budget),
            cancel: None,
            feeds: (0..graph.inputs.len()).map(|_| None).collect(),
            sinks: (0..graph.outputs.len()).map(|_| None).collect(),
        }
    }

    /// Instantiate from a [`RunSpec`] (compiling the graph on the way).
    /// Specs carrying a fault plan are rejected: fault injection perturbs
    /// scheduling, which a fixed precompiled order cannot honour.
    pub fn from_spec(
        graph: &'g FlatGraph,
        library: &'g KernelLibrary,
        spec: &RunSpec,
    ) -> Result<Self, CompileError> {
        if spec.config().faults.is_some() {
            return Err(CompileError::NotStaticallySchedulable {
                reason: RejectReason::FaultPlan,
                details: format!("spec `{}` requests seeded fault injection", spec.label()),
            });
        }
        let plan = compile(graph, &lint_config(spec.config()))?;
        Ok(Self::with_plan(graph, library, plan, spec))
    }

    /// The plan this context instantiates.
    pub fn plan(&self) -> &CompiledPlan {
        &self.plan
    }

    /// Attach a tracer; channel counters and events flow into it exactly as
    /// under the cooperative engine.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Arm a wall-clock deadline; past it the run stops with
    /// [`Interrupt::Deadline`] in the report.
    pub fn set_deadline(&mut self, at: Instant) {
        self.deadline = Some(at);
    }

    /// Attach a cancellation token, checked between sweeps.
    pub fn set_cancel(&mut self, token: CancelToken) {
        self.cancel = Some(token);
    }
}

/// The lint configuration a run under `config` compiles and sizes with.
fn lint_config(config: &RuntimeConfig) -> cgsim_lint::LintConfig {
    cgsim_lint::LintConfig {
        default_depth: config.default_depth as u32,
        ..cgsim_lint::LintConfig::default()
    }
}

impl Session for CompiledContext<'_> {
    /// Record a data source for positional global input `index`. The data
    /// is buffered now; the source coroutine and its channel are created at
    /// [`Session::run`], when the feed length has fixed the buffer
    /// capacities.
    fn feed<T: StreamData>(
        &mut self,
        index: usize,
        data: impl IntoIterator<Item = T> + Send + 'static,
    ) -> Result<(), GraphError> {
        input_connector(self.graph, index)?;
        let data: Vec<T> = data.into_iter().collect();
        let len = data.len();
        let build: IoBuild =
            Box::new(move |io| Ok(Box::pin(source(io.producer::<T>(index)?, data))));
        self.feeds[index] = Some(PendingFeed { len, build });
        Ok(())
    }

    /// Record a sink for positional global output `index`; the handle
    /// resolves after [`Session::run`].
    fn collect_bounded<T: StreamData>(
        &mut self,
        index: usize,
        limit: usize,
    ) -> Result<SinkHandle<T>, GraphError> {
        output_connector(self.graph, index)?;
        let handle = SinkHandle::<T>::new();
        let out = handle.shared();
        let build: IoBuild =
            Box::new(move |io| Ok(Box::pin(sink(io.consumer::<T>(index)?, out, limit))));
        self.sinks[index] = Some(build);
        Ok(handle)
    }

    /// Execute the plan: materialise channels at the schedule-derived
    /// capacities, spawn all coroutines, and sweep them in precompiled
    /// order until quiescence.
    fn run(self) -> Result<RunReport, GraphError> {
        let CompiledContext {
            graph,
            library,
            plan,
            config,
            tracer,
            deadline,
            cancel,
            feeds,
            sinks,
        } = self;

        // Channel capacity per connector: the exact workload token traffic
        // from the `CG060` bounds analysis (total ever pushed through the
        // connector for these concrete feed lengths), floored by any
        // declared depth. Sized this way no write can ever block — tighter
        // than the former `period bound × period count` product, which
        // over-allocated whenever inputs of different period demands were
        // fed unequal lengths. Kahn determinism makes capacity changes
        // output-invariant for this graph class, so either sizing yields
        // bit-identical streams; the fallback below (cyclic dataflow, which
        // the compiler rejects anyway) keeps the old formula as a safety
        // net.
        // An unfed input counts as empty here; the completeness check below
        // reports it once the fed sources are wired.
        let sched = plan.schedule();
        let feed_lens: Vec<u64> = feeds
            .iter()
            .map(|f| f.as_ref().map_or(0, |f| f.len as u64))
            .collect();
        let workload = cgsim_lint::workload_tokens(graph, &lint_config(&config), &feed_lens);
        let capacities: Vec<usize> = (0..graph.connectors.len())
            .map(|ci| {
                let need = match &workload {
                    Some(tokens) => tokens[ci],
                    None => {
                        let mut periods = 1u64;
                        for (idx, &len) in feed_lens.iter().enumerate() {
                            let ici = graph.inputs[idx].index();
                            let per = sched.period_tokens.get(ici).copied().unwrap_or(1).max(1);
                            periods = periods.max(len.div_ceil(per));
                        }
                        let per = sched.period_tokens.get(ci).copied().unwrap_or(1);
                        per.saturating_mul(periods)
                    }
                };
                let declared = graph.connectors[ci].settings.depth as u64;
                usize::try_from(need.max(declared).max(1)).unwrap_or(usize::MAX)
            })
            .collect();
        let mut io = IoWiring::new(
            graph,
            library,
            capacities,
            ChannelMode::SingleThread,
            tracer.clone(),
        )?;

        // Build every coroutine before the first poll, so all consumers are
        // registered before any data can flow. Sweep order: sources, then
        // kernels in the compiled topological order, then sinks.
        let mut tasks = Vec::with_capacity(feeds.len() + graph.kernels.len() + sinks.len());
        for (idx, feed) in feeds.into_iter().enumerate() {
            if let Some(PendingFeed { build, .. }) = feed {
                tasks.push(Task::new(format!("source_{idx}"), build(&mut io)?, &tracer));
            }
        }
        let mut sink_tasks = Vec::with_capacity(sinks.len());
        for (idx, build) in sinks.into_iter().enumerate() {
            if let Some(build) = build {
                sink_tasks.push(Task::new(format!("sink_{idx}"), build(&mut io)?, &tracer));
            }
        }
        for &k in &sched.order {
            let kern = &graph.kernels[k.index()];
            let kernel_channels = io.kernel_channels(kern);
            let mut binder = PortBinder::new(&kern.instance, &kernel_channels);
            let fut = library.get(&kern.kind)?.spawn(&mut binder)?;
            tasks.push(Task::new(kern.instance.clone(), fut, &tracer));
        }
        tasks.append(&mut sink_tasks);
        io.check_complete()?;

        let admins: Vec<_> = io
            .channels()
            .iter()
            .filter_map(|c| c.admin().cloned())
            .collect();

        // The sweep loop. With the capacities above a merge-free balanced
        // graph drains in ONE sweep: each source pushes its whole stream in
        // a single poll, each kernel (its producers already completed and
        // dropped) consumes to end-of-stream, each sink drains. Extra
        // sweeps only happen when a kernel moves more data than its
        // declared rates promised; genuine deadlock shows up as a sweep
        // with no progress.
        let start = Instant::now();
        tracer.emit(TraceEvent::RunBegin);
        let trace_on = tracer.is_enabled();
        let waker = Waker::noop();
        let mut cx = Context::from_waker(waker);
        let mut polls = 0u64;
        let mut suspensions = 0u64;
        let mut timed_polls = 0u64;
        let mut kernel_time = Duration::ZERO;
        let mut completed = 0usize;
        let mut interrupted: Option<Interrupt> = None;
        let mut last_progress = (usize::MAX, u128::MAX);
        'sweeps: loop {
            for task in tasks.iter_mut() {
                let Some(fut) = task.fut.as_mut() else {
                    continue;
                };
                if let Some(budget) = config.max_polls {
                    if polls >= budget {
                        break 'sweeps;
                    }
                }
                polls += 1;
                task.polls += 1;
                let timer = match config.profiling {
                    Profiling::Off => None,
                    Profiling::Full => Some((Instant::now(), 1u32)),
                    Profiling::Sampled(n) => {
                        let n = n.max(1);
                        polls
                            .is_multiple_of(u64::from(n))
                            .then(|| (Instant::now(), n))
                    }
                };
                if trace_on {
                    tracer.emit(TraceEvent::PollBegin {
                        kernel: task.kernel,
                    });
                }
                let res = fut.as_mut().poll(&mut cx);
                if trace_on {
                    tracer.emit(TraceEvent::PollEnd {
                        kernel: task.kernel,
                        pending: res.is_pending(),
                    });
                }
                if let Some((t0, scale)) = timer {
                    let d = t0.elapsed();
                    task.busy += d;
                    kernel_time += d * scale;
                    timed_polls += 1;
                }
                match res {
                    Poll::Ready(()) => {
                        // Drop the future now: releasing its producer ends
                        // are what propagates end-of-stream downstream
                        // within this same sweep.
                        task.fut = None;
                        task.completed = true;
                        completed += 1;
                    }
                    Poll::Pending => suspensions += 1,
                }
            }
            if completed == tasks.len() {
                break;
            }
            if let Some(at) = deadline {
                if Instant::now() >= at {
                    interrupted = Some(Interrupt::Deadline);
                    break;
                }
            }
            if let Some(token) = &cancel {
                if token.is_cancelled() {
                    interrupted = Some(Interrupt::Cancelled);
                    break;
                }
            }
            let moved: u128 = admins
                .iter()
                .map(|a| {
                    let s = a.stats();
                    u128::from(s.pushes) + u128::from(s.pops)
                })
                .sum();
            if (completed, moved) == last_progress {
                break; // no progress: the stalled tasks are reported below
            }
            last_progress = (completed, moved);
        }
        tracer.emit(TraceEvent::RunEnd);
        let total_time = start.elapsed();

        let stalled: Vec<String> = tasks
            .iter()
            .filter(|t| !t.completed)
            .map(|t| t.label.clone())
            .collect();
        let profiles: Vec<TaskProfile> = tasks
            .iter()
            .map(|t| TaskProfile {
                label: t.label.clone(),
                polls: t.polls,
                busy: t.busy,
                completed: t.completed,
            })
            .collect();
        Ok(RunReport {
            exec: ExecStats {
                tasks: tasks.len(),
                completed,
                polls,
                suspensions,
                injected_stalls: 0,
                timed_polls,
                kernel_time,
                total_time,
                interrupted,
            },
            stalled,
            elements_moved: io.elements_moved(),
            tasks: profiles,
            channels: io.channel_stats(),
            trace: tracer.snapshot(),
            bounds_violations: Vec::new(),
        })
    }
}
