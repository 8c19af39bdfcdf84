//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **queue capacity** — broadcast-queue depth vs simulation throughput
//!    (fixed-capacity queues are the paper's §3.6 design point);
//! 2. **batching** — per-element vs windowed stream transfer, the effect
//!    behind the paper's bitonic-vs-bulk Table 2 discussion;
//! 3. **crossover** — cooperative vs thread-per-kernel as kernel compute
//!    intensity grows (the paper's farrow observation: two busy kernels let
//!    x86sim use two cores);
//! 4. **io penalty** — extracted-variant stream-access penalty sweep on
//!    the cycle model.

use aie_sim::{simulate_graph, SimConfig, Variant};
use cgsim_core::{GraphBuilder, PortSettings};
use cgsim_runtime::{compute_kernel, KernelLibrary, RuntimeConfig, RuntimeContext, Session};
use cgsim_threads::ThreadedContext;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

compute_kernel! {
    /// Per-element passthrough (fine-grained synchronisation).
    #[realm(aie)]
    pub fn elem_kernel(input: ReadPort<f32>, out: WritePort<f32>) {
        while let Some(v) = input.get().await {
            out.put(v + 1.0).await;
        }
    }
}

compute_kernel! {
    /// Windowed passthrough: 64 elements per transfer (coarse-grained).
    #[realm(aie)]
    pub fn window_kernel(input: ReadPort<f32>, out: WritePort<f32>) {
        while let Some(w) = input.get_window(64).await {
            out.put_window(w.into_iter().map(|v| v + 1.0)).await;
        }
    }
}

compute_kernel! {
    /// Tunable compute intensity: spins `SPIN.load()` dummy MACs per
    /// element, moving data in 64-element windows (bulk transfer, like the
    /// farrow/IIR kernels the paper's crossover discussion is about).
    #[realm(aie)]
    pub fn busy_kernel(input: ReadPort<f32>, out: WritePort<f32>) {
        let spins = SPIN.load(std::sync::atomic::Ordering::Relaxed);
        while let Some(w) = input.get_window(64).await {
            let processed: Vec<f32> = w
                .into_iter()
                .map(|v| {
                    let mut acc = v;
                    for i in 0..spins {
                        acc = acc.mul_add(1.0000001, i as f32 * 1e-12);
                    }
                    acc
                })
                .collect();
            out.put_window(processed).await;
        }
    }
}

/// Compute intensity knob for `busy_kernel` (benchmarks are
/// single-threaded per iteration, so a global is fine).
static SPIN: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);

fn pipeline_graph<K>(depth: u32) -> cgsim_core::FlatGraph
where
    K: cgsim_core::KernelDecl,
{
    GraphBuilder::build("abl", |g| {
        let a = g.input::<f32>("a");
        let mid = g.wire::<f32>();
        let out = g.wire::<f32>();
        if depth > 0 {
            g.connector_settings(&mid, PortSettings::new().depth(depth));
        }
        g.invoke::<K>(&[a.id(), mid.id()])?;
        g.invoke::<K>(&[mid.id(), out.id()])?;
        g.output(&out);
        Ok(())
    })
    .unwrap()
}

fn run_coop(graph: &cgsim_core::FlatGraph, lib: &KernelLibrary, n: usize) {
    let mut ctx = RuntimeContext::new(graph, lib, RuntimeConfig::default()).unwrap();
    ctx.feed(0, (0..n).map(|i| i as f32).collect::<Vec<_>>())
        .unwrap();
    let out = ctx.collect::<f32>(0).unwrap();
    ctx.run().unwrap();
    black_box(out.len());
}

fn bench_queue_capacity(c: &mut Criterion) {
    let lib = KernelLibrary::with(|l| {
        l.register::<elem_kernel>();
    });
    let mut g = c.benchmark_group("ablation_queue_capacity");
    g.throughput(Throughput::Elements(16 * 1024));
    for depth in [1u32, 4, 16, 64, 256] {
        let graph = pipeline_graph::<elem_kernel>(depth);
        g.bench_with_input(BenchmarkId::from_parameter(depth), &depth, |b, _| {
            b.iter(|| run_coop(&graph, &lib, 16 * 1024))
        });
    }
    g.finish();
}

fn bench_batching(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_batching");
    g.throughput(Throughput::Elements(16 * 1024));
    let lib = KernelLibrary::with(|l| {
        l.register::<elem_kernel>();
        l.register::<window_kernel>();
    });
    let elem_graph = pipeline_graph::<elem_kernel>(0);
    g.bench_function("per_element", |b| {
        b.iter(|| run_coop(&elem_graph, &lib, 16 * 1024))
    });
    let window_graph = pipeline_graph::<window_kernel>(0);
    g.bench_function("windowed_64", |b| {
        b.iter(|| run_coop(&window_graph, &lib, 16 * 1024))
    });
    g.finish();
}

fn bench_crossover(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_coop_vs_threads");
    g.sample_size(10);
    let lib = KernelLibrary::with(|l| {
        l.register::<busy_kernel>();
    });
    for spins in [0u32, 256, 16384] {
        let graph = pipeline_graph::<busy_kernel>(0);
        g.bench_with_input(BenchmarkId::new("cooperative", spins), &spins, |b, &s| {
            SPIN.store(s, std::sync::atomic::Ordering::Relaxed);
            b.iter(|| run_coop(&graph, &lib, 4096))
        });
        g.bench_with_input(BenchmarkId::new("threaded", spins), &spins, |b, &s| {
            SPIN.store(s, std::sync::atomic::Ordering::Relaxed);
            b.iter(|| {
                let mut ctx = ThreadedContext::new(&graph, &lib, RuntimeConfig::default()).unwrap();
                ctx.feed(0, (0..4096).map(|i| i as f32).collect::<Vec<_>>())
                    .unwrap();
                let out = ctx.collect::<f32>(0).unwrap();
                ctx.run().unwrap();
                black_box(out.len());
            })
        });
    }
    g.finish();
}

fn bench_io_penalty(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_io_penalty");
    g.sample_size(10);
    let apps = cgsim_graphs::all_apps();
    let app = apps.iter().find(|a| a.name() == "bitonic").unwrap();
    let graph = app.graph();
    let profiles = app.profiles();
    let workload = app.workload(64);
    for milli in [0u64, 100, 500, 2000] {
        let config = SimConfig {
            variant: Variant::Extracted {
                stream_access_penalty_milli: milli,
                iter_penalty: 9,
            },
            ..SimConfig::hand_optimized()
        };
        g.bench_with_input(BenchmarkId::from_parameter(milli), &config, |b, config| {
            b.iter(|| {
                let t = simulate_graph(&graph, &profiles, config, &workload).unwrap();
                black_box(t.ns_per_block())
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_queue_capacity,
    bench_batching,
    bench_crossover,
    bench_io_penalty
);
criterion_main!(benches);
