//! Figure 6 / §5 integration: every ported evaluation graph produces
//! bit-identical results on the cooperative runtime (cgsim), the compiled
//! static-schedule engine, the thread-per-kernel runtime (x86sim
//! substitute), and against its scalar golden reference — and simulates
//! cleanly on the cycle-approximate simulator under both code-generation
//! variants.

use cgsim::graphs::{all_apps, Backend, RunSpec};
use cgsim::sim::{simulate_graph, SimConfig};

#[test]
fn all_apps_verify_on_both_runtimes_and_agree() {
    for app in all_apps() {
        let mut checksums = Vec::new();
        for backend in [Backend::Cooperative, Backend::Threaded, Backend::Compiled] {
            let run = app
                .run_spec(&RunSpec::for_graph(app.name()).backend(backend), 4)
                .unwrap_or_else(|e| panic!("{} {backend:?}: {e}", app.name()));
            assert!(run.out_elems > 0, "{} {backend:?}: no output", app.name());
            let report = run
                .report
                .unwrap_or_else(|| panic!("{} {backend:?}: no run report", app.name()));
            assert!(report.drained(), "{} {backend:?}", app.name());
            checksums.push((backend, run.checksum, run.out_elems));
        }
        let (_, checksum, elems) = checksums[0];
        for &(backend, c, n) in &checksums[1..] {
            assert_eq!(
                (c, n),
                (checksum, elems),
                "{}: {backend:?} disagrees with the cooperative runtime",
                app.name()
            );
        }
    }
}

#[test]
fn all_apps_simulate_under_both_variants() {
    for app in all_apps() {
        let graph = app.graph();
        graph.validate().unwrap();
        let profiles = app.profiles();
        let workload = app.workload(32);
        for config in [SimConfig::hand_optimized(), SimConfig::extracted()] {
            let trace = simulate_graph(&graph, &profiles, &config, &workload)
                .unwrap_or_else(|e| panic!("{}: {e}", app.name()));
            assert_eq!(
                trace.trace.block_times.len(),
                32,
                "{}: wrong block count",
                app.name()
            );
            assert!(trace.ns_per_block().unwrap() > 0.0);
        }
    }
}

#[test]
fn extracted_variant_is_never_faster() {
    for app in all_apps() {
        let graph = app.graph();
        let profiles = app.profiles();
        let workload = app.workload(64);
        let hand = simulate_graph(&graph, &profiles, &SimConfig::hand_optimized(), &workload)
            .unwrap()
            .ns_per_block()
            .unwrap();
        let extracted = simulate_graph(&graph, &profiles, &SimConfig::extracted(), &workload)
            .unwrap()
            .ns_per_block()
            .unwrap();
        assert!(
            extracted >= hand,
            "{}: extracted {extracted} faster than hand-optimized {hand}",
            app.name()
        );
    }
}

#[test]
fn cycle_stepping_does_not_change_block_timing() {
    for app in all_apps() {
        let graph = app.graph();
        let profiles = app.profiles();
        let workload = app.workload(8);
        let plain =
            simulate_graph(&graph, &profiles, &SimConfig::hand_optimized(), &workload).unwrap();
        let stepped_cfg = SimConfig {
            cycle_stepping: true,
            ..SimConfig::hand_optimized()
        };
        let stepped = simulate_graph(&graph, &profiles, &stepped_cfg, &workload).unwrap();
        assert_eq!(
            plain.trace.block_times,
            stepped.trace.block_times,
            "{}: cycle stepping changed timing",
            app.name()
        );
    }
}

#[test]
fn placement_succeeds_for_all_apps() {
    use cgsim::sim::{ArrayGeometry, Placement};
    for app in all_apps() {
        let graph = app.graph();
        let p = Placement::place(&graph, ArrayGeometry::VC1902)
            .unwrap_or_else(|e| panic!("{}: {e}", app.name()));
        let aie_kernels = graph
            .kernels
            .iter()
            .filter(|k| k.realm == cgsim::core::Realm::Aie)
            .count();
        assert_eq!(p.used_tiles(), aie_kernels);
    }
}

#[test]
fn extraction_works_on_app_shaped_source() {
    // The evaluation apps are defined via the same compute_kernel! /
    // compute_graph! DSL; verify the extractor ingests an equivalent
    // source file for the bitonic app and recovers the same topology.
    let source = r#"
compute_kernel! {
    /// 16-wide bitonic sorter.
    #[realm(aie)]
    pub fn bitonic_kernel(input: ReadPort<f32>, out: WritePort<f32>) {
        while let Some(chunk) = input.get_window(16).await {
            out.put_window(sort16(&chunk)).await;
        }
    }
}

compute_graph! {
    name: bitonic,
    inputs: (samples: f32),
    body: {
        let sorted = wire::<f32>();
        bitonic_kernel(samples, sorted);
        attr(samples, "plio_name", "samples_in");
        attr(sorted, "plio_name", "sorted_out");
    },
    outputs: (sorted),
}
"#;
    let extraction = cgsim::extract::Extractor::new()
        .extract(source)
        .unwrap()
        .remove(0);
    let app_graph = cgsim::graphs::bitonic::build_graph();
    assert_eq!(
        serde_json::to_value(&extraction.graph).unwrap(),
        serde_json::to_value(&app_graph).unwrap(),
        "extractor topology differs from the app's runtime graph"
    );
}
