//! Hot-loop before/after measurement (the PR-4 optimisation ledger).
//!
//! Every workload here runs under two configurations:
//!
//! * **baseline** — the pre-optimisation hot loop: mutex-guarded
//!   ([`ChannelMode::Shared`]) channels, full per-poll timing
//!   ([`Profiling::Full`]), element-wise `send`/`recv`;
//! * **fastpath** — the optimised loop: single-thread fast-path channels,
//!   sampled profiling, and batched `push_slice`/`pop_chunk` window I/O.
//!
//! The paper-graph workloads run through the cooperative engine, whose
//! channels are always single-thread: there the legs differ in profiling
//! only.
//!
//! The same workloads back both the Criterion suite (`benches/hotloop.rs`)
//! and the `bench-report` binary that emits `BENCH_PR4.json`.

use cgsim_graphs::EvalApp;
use cgsim_runtime::{Channel, ChannelMode, Executor, Profiling, RunSpec};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One leg of a before/after comparison.
#[derive(Clone, Copy, Debug)]
pub struct LegConfig {
    /// Leg name as it appears in reports ("baseline" / "fastpath").
    pub name: &'static str,
    /// Channel storage policy.
    pub mode: ChannelMode,
    /// Scheduler profiling mode.
    pub profiling: Profiling,
    /// Batched-I/O window size; `None` moves one element per `await`.
    pub batch: Option<usize>,
}

/// The pre-optimisation hot loop: mutex channels, every poll timed,
/// element-wise I/O.
pub const BASELINE: LegConfig = LegConfig {
    name: "baseline",
    mode: ChannelMode::Shared,
    profiling: Profiling::Full,
    batch: None,
};

/// The optimised hot loop: fast-path channels, sampled timing, 64-element
/// batches.
pub const FASTPATH: LegConfig = LegConfig {
    name: "fastpath",
    mode: ChannelMode::SingleThread,
    profiling: Profiling::Sampled(64),
    batch: Some(64),
};

/// Raw outcome of one workload run.
#[derive(Clone, Copy, Debug)]
pub struct Measured {
    /// Elements delivered to consumers over the run.
    pub elements: u64,
    /// Wall-clock duration of `Executor::run` (or the graph run).
    pub wall: Duration,
    /// Scheduler polls issued (0 when the workload doesn't expose them).
    pub polls: u64,
}

impl Measured {
    /// Delivered elements per second of wall time.
    pub fn elements_per_sec(&self) -> f64 {
        self.elements as f64 / self.wall.as_secs_f64().max(1e-12)
    }

    /// Mean wall nanoseconds per scheduler poll; 0 when polls were not
    /// counted.
    pub fn ns_per_poll(&self) -> f64 {
        if self.polls == 0 {
            0.0
        } else {
            self.wall.as_nanos() as f64 / self.polls as f64
        }
    }
}

fn run_and_measure(mut ex: Executor, elements: u64) -> Measured {
    let start = Instant::now();
    let (stats, stalled) = ex.run();
    let wall = start.elapsed();
    assert!(
        stalled.is_empty(),
        "benchmark workload stalled: {stalled:?}"
    );
    Measured {
        elements,
        wall,
        polls: stats.polls,
    }
}

fn spawn_producer(ex: &mut Executor, chan: &Arc<Channel<u64>>, leg: &LegConfig, elements: u64) {
    let mut tx = chan.add_producer();
    match leg.batch {
        Some(batch) => ex.spawn(
            "tx",
            Box::pin(async move {
                let mut i = 0u64;
                while i < elements {
                    let n = (batch as u64).min(elements - i);
                    tx.push_slice((i..i + n).collect()).await;
                    i += n;
                }
            }),
        ),
        None => ex.spawn(
            "tx",
            Box::pin(async move {
                for i in 0..elements {
                    tx.send(i).await;
                }
            }),
        ),
    };
}

fn spawn_consumer(ex: &mut Executor, chan: &Arc<Channel<u64>>, leg: &LegConfig) {
    let mut rx = chan.add_consumer();
    match leg.batch {
        Some(batch) => ex.spawn(
            "rx",
            Box::pin(async move {
                let mut acc = 0u64;
                while let Some(chunk) = rx.pop_chunk(batch).await {
                    for v in chunk {
                        acc = acc.wrapping_add(v);
                    }
                }
                black_box(acc);
            }),
        ),
        None => ex.spawn(
            "rx",
            Box::pin(async move {
                let mut acc = 0u64;
                while let Some(v) = rx.recv().await {
                    acc = acc.wrapping_add(v);
                }
                black_box(acc);
            }),
        ),
    };
}

/// Single-producer/single-consumer transfer of `elements` through one
/// channel of the given capacity. Small capacities make the run
/// suspension-bound; large ones make it copy-bound.
pub fn channel_throughput(leg: &LegConfig, capacity: usize, elements: u64) -> Measured {
    let chan = Channel::with_mode(capacity, leg.mode);
    let mut ex = Executor::new().with_profiling(leg.profiling);
    spawn_producer(&mut ex, &chan, leg, elements);
    spawn_consumer(&mut ex, &chan, leg);
    run_and_measure(ex, elements)
}

/// One producer broadcasting `elements` to `consumers` consumers. Delivered
/// volume (and thus throughput) counts every copy.
pub fn broadcast(leg: &LegConfig, consumers: usize, capacity: usize, elements: u64) -> Measured {
    let chan = Channel::with_mode(capacity, leg.mode);
    let mut ex = Executor::new().with_profiling(leg.profiling);
    spawn_producer(&mut ex, &chan, leg, elements);
    for _ in 0..consumers {
        spawn_consumer(&mut ex, &chan, leg);
    }
    run_and_measure(ex, elements * consumers as u64)
}

/// A deep pass-through pipeline: `stages` forwarding tasks between the
/// producer and the sink, every hop through its own channel. Exercises the
/// scheduler's ready-queue churn as much as the channels.
pub fn pipeline(leg: &LegConfig, stages: usize, capacity: usize, elements: u64) -> Measured {
    let mut ex = Executor::new().with_profiling(leg.profiling);
    let chans: Vec<Arc<Channel<u64>>> = (0..=stages)
        .map(|_| Channel::with_mode(capacity, leg.mode))
        .collect();
    spawn_producer(&mut ex, &chans[0], leg, elements);
    for s in 0..stages {
        let mut rx = chans[s].add_consumer();
        let mut tx = chans[s + 1].add_producer();
        match leg.batch {
            Some(batch) => ex.spawn(
                format!("stage{s}"),
                Box::pin(async move {
                    while let Some(chunk) = rx.pop_chunk(batch).await {
                        tx.push_slice(chunk).await;
                    }
                }),
            ),
            None => ex.spawn(
                format!("stage{s}"),
                Box::pin(async move {
                    while let Some(v) = rx.recv().await {
                        tx.send(v).await;
                    }
                }),
            ),
        };
    }
    spawn_consumer(&mut ex, &chans[stages], leg);
    run_and_measure(ex, elements)
}

/// Run the deep-pipeline workload with an active tracer under full
/// profiling and return the drained trace — the feeder for the
/// folded-stacks (flamegraph) export in `bench-report --folded`.
pub fn traced_pipeline(
    stages: usize,
    capacity: usize,
    elements: u64,
) -> cgsim_runtime::cgsim_trace::TraceSnapshot {
    use cgsim_runtime::cgsim_trace::Tracer;
    let leg = LegConfig {
        name: "traced",
        profiling: Profiling::Full,
        ..FASTPATH
    };
    let tracer = Tracer::enabled();
    // The tracer must be attached before spawning: tasks register their
    // kernel refs at spawn time.
    let mut ex = Executor::new()
        .with_tracer(tracer.clone())
        .with_profiling(leg.profiling);
    let chans: Vec<Arc<Channel<u64>>> = (0..=stages)
        .map(|_| Channel::with_mode(capacity, leg.mode))
        .collect();
    spawn_producer(&mut ex, &chans[0], &leg, elements);
    for s in 0..stages {
        let mut rx = chans[s].add_consumer();
        let mut tx = chans[s + 1].add_producer();
        ex.spawn(
            format!("stage{s}"),
            Box::pin(async move {
                while let Some(chunk) = rx.pop_chunk(64).await {
                    tx.push_slice(chunk).await;
                }
            }),
        );
    }
    spawn_consumer(&mut ex, &chans[stages], &leg);
    let (_, stalled) = ex.run();
    assert!(stalled.is_empty(), "traced workload stalled: {stalled:?}");
    tracer.snapshot()
}

/// Run one paper evaluation graph end-to-end under the leg's profiling
/// mode. The kernels' own I/O idiom is part of the app, so `batch` is not
/// applied here, and the cooperative engine always uses its single-thread
/// channels, so neither is `mode`: the two legs differ only in per-poll
/// timing.
pub fn paper_graph(app: &dyn EvalApp, leg: &LegConfig, blocks: u64) -> Measured {
    let spec = RunSpec::for_graph(app.name()).profiling(leg.profiling);
    let run = app
        .run_spec(&spec, blocks)
        .unwrap_or_else(|e| panic!("{} under {}: {e}", app.name(), leg.name));
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
    fn legs_agree_on_delivered_volume() {
        for leg in [&BASELINE, &FASTPATH] {
            let m = channel_throughput(leg, 4, 1_000);
            assert_eq!(m.elements, 1_000, "{}", leg.name);
            assert!(m.polls > 0, "{}", leg.name);
            assert!(m.elements_per_sec() > 0.0);
            let b = broadcast(leg, 3, 4, 500);
            assert_eq!(b.elements, 1_500, "{}", leg.name);
            let p = pipeline(leg, 3, 4, 500);
            assert_eq!(p.elements, 500, "{}", leg.name);
        }
    }

    #[test]
    fn ns_per_poll_handles_zero_polls() {
        let m = Measured {
            elements: 1,
            wall: Duration::from_micros(5),
            polls: 0,
        };
        assert_eq!(m.ns_per_poll(), 0.0);
    }
}
