//! Multi-realm partitioning (§4.3) plus the extension backends: a graph
//! spanning the AIE array, a programmable-logic HLS kernel (paper §6 future
//! work) and a host-side `noextract` kernel, with a GMIO-attached input.
//! The example simulates the full graph functionally, visualises it as
//! Graphviz, extracts per-realm projects, and prints a per-kernel
//! utilization report from the cycle simulator.
//!
//! Run with: `cargo run --example multi_realm`

use cgsim::core::{to_dot_styled, Realm};
use cgsim::extract::Extractor;
use cgsim::lint::{dot_style, lint_graph, LintConfig};
use cgsim::runtime::{
    compute_graph, compute_kernel, KernelLibrary, RuntimeConfig, RuntimeContext, Session,
};
use cgsim::sim::{
    simulate_graph, KernelCostProfile, PortTraffic, SimConfig, SimReport, WorkloadSpec,
};
use std::collections::HashMap;

compute_kernel! {
    /// AIE stage: scales samples.
    #[realm(aie)]
    pub fn aie_scale(input: ReadPort<f32>, out: WritePort<f32>) {
        while let Some(v) = input.get().await {
            out.put(v * 0.5).await;
        }
    }
}

compute_kernel! {
    /// PL (HLS) stage: clamps to a range — typical glue logic that does
    /// not justify an AIE tile.
    #[realm(hls)]
    pub fn pl_clamp(input: ReadPort<f32>, out: WritePort<f32>) {
        while let Some(v) = input.get().await {
            out.put(v.clamp(-1.0, 1.0)).await;
        }
    }
}

compute_kernel! {
    /// Host stage: tags results (stays in the application).
    #[realm(noextract)]
    pub fn host_tag(input: ReadPort<f32>, out: WritePort<f32>) {
        while let Some(v) = input.get().await {
            out.put(v + 1000.0).await;
        }
    }
}

/// The same definition as a source string for the extractor (the paper's
/// flow parses the prototype file; here the file is inlined).
const PROTOTYPE: &str = r#"
compute_kernel! {
    #[realm(aie)]
    pub fn aie_scale(input: ReadPort<f32>, out: WritePort<f32>) {
        while let Some(v) = input.get().await { out.put(v * 0.5).await; }
    }
}
compute_kernel! {
    #[realm(hls)]
    pub fn pl_clamp(input: ReadPort<f32>, out: WritePort<f32>) {
        while let Some(v) = input.get().await { out.put(v.clamp(-1.0, 1.0)).await; }
    }
}
compute_kernel! {
    #[realm(noextract)]
    pub fn host_tag(input: ReadPort<f32>, out: WritePort<f32>) {
        while let Some(v) = input.get().await { out.put(v + 1000.0).await; }
    }
}
compute_graph! {
    name: multi_realm,
    inputs: (samples: f32),
    body: {
        let scaled = wire::<f32>();
        let clamped = wire::<f32>();
        let tagged = wire::<f32>();
        aie_scale(samples, scaled);
        pl_clamp(scaled, clamped);
        host_tag(clamped, tagged);
        attr(samples, "plio_name", "ddr_samples");
        attr(samples, "io_interface", "gmio");
        attr(clamped, "plio_name", "clamped");
    },
    outputs: (tagged),
}
"#;

fn main() {
    // 1. Build and functionally simulate the whole graph — all realms run
    //    together in the prototype, the paper's core workflow benefit.
    let graph = compute_graph! {
        name: multi_realm,
        inputs: (samples: f32),
        body: {
            let scaled = wire::<f32>();
            let clamped = wire::<f32>();
            let tagged = wire::<f32>();
            aie_scale(samples, scaled);
            pl_clamp(scaled, clamped);
            host_tag(clamped, tagged);
            attr(samples, "plio_name", "ddr_samples");
            attr(samples, "io_interface", "gmio");
            attr(clamped, "plio_name", "clamped");
        },
        outputs: (tagged),
    }
    .unwrap();

    let lib = KernelLibrary::with(|l| {
        l.register::<aie_scale>();
        l.register::<pl_clamp>();
        l.register::<host_tag>();
    });
    let mut ctx = RuntimeContext::new(&graph, &lib, RuntimeConfig::default()).unwrap();
    ctx.feed(0, vec![4.0f32, -6.0, 0.5]).unwrap();
    let out = ctx.collect::<f32>(0).unwrap();
    ctx.run().unwrap();
    let results = out.take();
    println!("functional results: {results:?}");
    assert_eq!(results, vec![1001.0, 999.0, 1000.25]);

    // 2. Graphviz rendering of the partitioned graph, with any lint
    // findings coloured in (this graph is clean, so no colours appear).
    let lint = lint_graph(&graph, &LintConfig::default());
    assert!(lint.is_clean(), "{}", lint.render_human(&graph));
    println!(
        "\n--- graphviz ---\n{}",
        to_dot_styled(&graph, &dot_style(&lint))
    );

    // 3. Extract: one project carrying AIE *and* HLS realm files.
    let extraction = Extractor::new().extract(PROTOTYPE).unwrap().remove(0);
    println!("--- extracted files ---");
    for path in extraction.project.files.keys() {
        println!("  {path}");
    }
    assert!(extraction.project.file("hls/pl_clamp.cpp").is_some());
    assert!(extraction
        .project
        .file("graph.hpp")
        .unwrap()
        .contains("adf::input_gmio::create(\"ddr_samples\""));
    let realms: Vec<Realm> = extraction.graph.realms();
    println!("realms present: {realms:?}");

    // 4. Cycle-approximate simulation + utilization report.
    let stream = |elems: u64| PortTraffic {
        elems_per_iter: elems,
        elem_bytes: 4,
        kind: cgsim::core::PortKind::Stream,
    };
    let mut profiles = HashMap::new();
    for k in ["aie_scale", "pl_clamp", "host_tag"] {
        profiles.insert(
            k.to_owned(),
            KernelCostProfile::measured(k, Default::default(), vec![stream(8)], vec![stream(8)]),
        );
    }
    let config = SimConfig::hand_optimized();
    let trace = simulate_graph(
        &graph,
        &profiles,
        &config,
        &WorkloadSpec {
            blocks: 32,
            elems_per_block_in: vec![64],
            elems_per_block_out: vec![64],
        },
    )
    .unwrap();
    let kinds: HashMap<String, String> = graph
        .kernels
        .iter()
        .map(|k| (k.instance.clone(), k.kind.clone()))
        .collect();
    println!("--- utilization report ---");
    println!(
        "{}",
        SimReport::build(&trace, &profiles, &kinds, &config).render()
    );
    println!("OK");
}
