//! One interface over every execution engine (§3.6–3.7).
//!
//! The cooperative [`RuntimeContext`](crate::RuntimeContext), the compiled
//! static-schedule engine (`cgsim-compiled`) and the thread-per-kernel
//! simulator (`cgsim-threads`) all instantiate a flattened graph the same
//! way: recreate one channel per connector, attach source and sink
//! coroutines to the global inputs and outputs, then run to a
//! [`RunReport`]. [`Session`] is that contract; [`IoWiring`] plus the
//! [`source`] and [`sink`] coroutines are the one implementation of the
//! I/O half that every engine shares. An engine only adds its run loop.

use crate::channel::{Channel, ChannelMode, ChannelStats, Consumer, Producer};
use crate::context::{RunReport, SinkHandle};
use crate::library::{AnyChannel, KernelLibrary};
use cgsim_core::{ConnectorId, FlatGraph, FlatKernel, GraphError, StreamData};
use cgsim_trace::Tracer;
use std::sync::{Arc, Mutex};

/// One instantiated graph: feed its inputs, bind its outputs, then run it.
///
/// ```
/// use cgsim_runtime::{compute_kernel, KernelLibrary, RuntimeConfig, RuntimeContext, Session};
/// use cgsim_core::GraphBuilder;
///
/// compute_kernel! {
///     #[realm(aie)]
///     pub fn negate_kernel(input: ReadPort<i32>, out: WritePort<i32>) {
///         while let Some(v) = input.get().await {
///             out.put(-v).await;
///         }
///     }
/// }
///
/// /// Engine-neutral: works for any `Session` implementation.
/// fn negate_all(mut session: impl Session, data: Vec<i32>) -> Vec<i32> {
///     session.feed(0, data).unwrap();
///     let out = session.collect::<i32>(0).unwrap();
///     assert!(session.run().unwrap().drained());
///     out.take()
/// }
///
/// let graph = GraphBuilder::build("neg", |g| {
///     let a = g.input::<i32>("a");
///     let b = g.wire::<i32>();
///     negate_kernel::invoke(g, &a, &b)?;
///     g.output(&b);
///     Ok(())
/// }).unwrap();
/// let lib = KernelLibrary::with(|l| { l.register::<negate_kernel>(); });
/// let ctx = RuntimeContext::new(&graph, &lib, RuntimeConfig::default()).unwrap();
/// assert_eq!(negate_all(ctx, vec![1, -2]), vec![-1, 2]);
/// ```
pub trait Session: Sized {
    /// Attach a data source feeding `data` into positional global input
    /// `index` (§3.7).
    fn feed<T: StreamData>(
        &mut self,
        index: usize,
        data: impl IntoIterator<Item = T> + Send + 'static,
    ) -> Result<(), GraphError>;

    /// Attach a single-value source — the paper's Runtime Parameter source.
    fn feed_param<T: StreamData>(&mut self, index: usize, value: T) -> Result<(), GraphError> {
        self.feed(index, std::iter::once(value))
    }

    /// Attach a sink collecting positional global output `index` until
    /// end-of-stream. A Runtime Parameter output is collected the same way:
    /// the handle holds every update, the last one being the final value.
    /// Results become available after [`Session::run`].
    fn collect<T: StreamData>(&mut self, index: usize) -> Result<SinkHandle<T>, GraphError> {
        self.collect_bounded(index, usize::MAX)
    }

    /// Like [`Session::collect`], but the sink closes its consumer end
    /// after `limit` elements instead of waiting for end-of-stream — the
    /// "early sink closure" fault mode. Upstream producers observe the
    /// closure (writes to a channel with no open consumer are discarded),
    /// so the graph must still drain cleanly.
    fn collect_bounded<T: StreamData>(
        &mut self,
        index: usize,
        limit: usize,
    ) -> Result<SinkHandle<T>, GraphError>;

    /// Run the graph to quiescence (§3.8). Every global input must have
    /// been fed and every global output bound, mirroring the paper's
    /// positional source and sink arguments.
    fn run(self) -> Result<RunReport, GraphError>;
}

/// The per-connector channel capacity rule: the connector's declared
/// `depth`, else `default_depth`.
pub fn declared_capacities(graph: &FlatGraph, default_depth: usize) -> Vec<usize> {
    graph
        .connectors
        .iter()
        .map(|c| match c.settings.depth {
            0 => default_depth.max(1),
            depth => depth as usize,
        })
        .collect()
}

/// The connector behind positional global input `index`.
pub fn input_connector(graph: &FlatGraph, index: usize) -> Result<ConnectorId, GraphError> {
    graph
        .inputs
        .get(index)
        .copied()
        .ok_or(GraphError::IoArityMismatch {
            what: "inputs",
            expected: graph.inputs.len(),
            actual: index + 1,
        })
}

/// The connector behind positional global output `index`.
pub fn output_connector(graph: &FlatGraph, index: usize) -> Result<ConnectorId, GraphError> {
    graph
        .outputs
        .get(index)
        .copied()
        .ok_or(GraphError::IoArityMismatch {
            what: "outputs",
            expected: graph.outputs.len(),
            actual: index + 1,
        })
}

/// The channels of one graph instance and the state of its global I/O.
///
/// Construction recreates every kernel-facing channel from the serialized
/// descriptors (§3.6): the element type is only known to the kernel
/// implementations, so a kernel endpoint of each connector constructs it.
/// Connectors without a kernel endpoint (a global input wired straight to
/// a global output) start as placeholders and become typed channels on the
/// first [`IoWiring::producer`] or [`IoWiring::consumer`] call. Every
/// channel gets the capacity passed for its connector and is instrumented
/// under its [`FlatGraph::connector_name`].
pub struct IoWiring<'g> {
    graph: &'g FlatGraph,
    channels: Vec<AnyChannel>,
    capacities: Vec<usize>,
    mode: ChannelMode,
    tracer: Tracer,
    fed: Vec<bool>,
    bound: Vec<bool>,
}

impl<'g> IoWiring<'g> {
    /// Materialise one channel per connector of `graph`, connector `ci`
    /// holding `capacities[ci]` elements in storage `mode`.
    pub fn new(
        graph: &'g FlatGraph,
        library: &KernelLibrary,
        capacities: Vec<usize>,
        mode: ChannelMode,
        tracer: Tracer,
    ) -> Result<Self, GraphError> {
        let mut channels = Vec::with_capacity(graph.connectors.len());
        for (ci, &capacity) in capacities.iter().enumerate() {
            let endpoint = graph.kernels.iter().find_map(|k| {
                k.ports
                    .iter()
                    .position(|p| p.connector.index() == ci)
                    .map(|pi| (k, pi))
            });
            let chan = match endpoint {
                Some((k, pi)) => library
                    .get(&k.kind)?
                    .make_channel_mode(pi, capacity, mode)?,
                None => AnyChannel::placeholder(),
            };
            if let Some(admin) = chan.admin() {
                admin.instrument(&tracer, &graph.connector_name(ci));
            }
            channels.push(chan);
        }
        Ok(IoWiring {
            graph,
            channels,
            capacities,
            mode,
            tracer,
            fed: vec![false; graph.inputs.len()],
            bound: vec![false; graph.outputs.len()],
        })
    }

    /// The graph this wiring instantiates.
    pub fn graph(&self) -> &'g FlatGraph {
        self.graph
    }

    /// Every connector's channel, in connector order. Placeholders are
    /// left only for passthrough connectors nobody fed or collected.
    pub fn channels(&self) -> &[AnyChannel] {
        &self.channels
    }

    /// The channels behind `kernel`'s ports, in port order, ready for a
    /// `PortBinder`.
    pub fn kernel_channels(&self, kernel: &FlatKernel) -> Vec<AnyChannel> {
        kernel
            .ports
            .iter()
            .map(|p| self.channels[p.connector.index()].clone())
            .collect()
    }

    /// The typed channel behind `connector`, creating it when the slot is
    /// still a passthrough placeholder.
    fn typed<T: StreamData>(
        &mut self,
        connector: ConnectorId,
    ) -> Result<Arc<Channel<T>>, GraphError> {
        let ci = connector.index();
        let slot = &mut self.channels[ci];
        if let Ok(chan) = slot.clone().downcast::<Channel<T>>() {
            return Ok(chan);
        }
        if slot.admin().is_none() {
            let chan = Channel::<T>::with_mode(self.capacities[ci].max(1), self.mode);
            chan.instrument(&self.tracer, &self.graph.connector_name(ci));
            *slot = AnyChannel::typed(chan.clone());
            return Ok(chan);
        }
        Err(GraphError::IoTypeMismatch {
            connector,
            expected: Box::new(self.graph.connectors[ci].dtype.clone()),
        })
    }

    /// Register a producer on positional global input `index` and mark the
    /// input fed. Drive it with [`source`].
    pub fn producer<T: StreamData>(&mut self, index: usize) -> Result<Producer<T>, GraphError> {
        let connector = input_connector(self.graph, index)?;
        let tx = self.typed::<T>(connector)?.add_producer();
        self.fed[index] = true;
        Ok(tx)
    }

    /// Register a consumer on positional global output `index` and mark
    /// the output bound. Drain it with [`sink`].
    pub fn consumer<T: StreamData>(&mut self, index: usize) -> Result<Consumer<T>, GraphError> {
        let connector = output_connector(self.graph, index)?;
        let rx = self.typed::<T>(connector)?.add_consumer();
        self.bound[index] = true;
        Ok(rx)
    }

    /// Fail unless every global input was fed and every output bound.
    pub fn check_complete(&self) -> Result<(), GraphError> {
        for (what, flags) in [("inputs", &self.fed), ("outputs", &self.bound)] {
            if let Some(missing) = flags.iter().position(|f| !f) {
                return Err(GraphError::IoArityMismatch {
                    what,
                    expected: flags.len(),
                    actual: missing,
                });
            }
        }
        Ok(())
    }

    /// Total elements pushed through all channels.
    pub fn elements_moved(&self) -> u64 {
        self.channels
            .iter()
            .filter_map(AnyChannel::admin)
            .map(|a| a.total_pushed())
            .sum()
    }

    /// Per-connector channel counters `(name, stats)`, in connector order.
    pub fn channel_stats(&self) -> Vec<(String, ChannelStats)> {
        self.channels
            .iter()
            .enumerate()
            .filter_map(|(ci, c)| {
                c.admin()
                    .map(|a| (self.graph.connector_name(ci), a.stats()))
            })
            .collect()
    }
}

/// The data-source coroutine (§3.7): push every element of `data`, then
/// drop the producer to signal end-of-stream.
pub async fn source<T: StreamData>(mut tx: Producer<T>, data: impl IntoIterator<Item = T>) {
    for v in data {
        tx.send(v).await;
    }
}

/// The data-sink coroutine (§3.7): append up to `limit` elements to `out`,
/// then drop the consumer. `usize::MAX` drains to end-of-stream.
pub async fn sink<T: StreamData>(mut rx: Consumer<T>, out: Arc<Mutex<Vec<T>>>, limit: usize) {
    let mut taken = 0;
    while taken < limit {
        let Some(v) = rx.recv().await else { return };
        out.lock().unwrap().push(v);
        taken += 1;
    }
}
