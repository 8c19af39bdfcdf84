//! The AMD `farrow_filter` example: a two-kernel fractional-delay filter
//! with a runtime parameter. Demonstrates RTP feeding and sweeps the
//! fractional delay µ, showing the interpolation behaving as expected on a
//! sine wave.
//!
//! Run with: `cargo run --release --example farrow_filter`

use cgsim::graphs::farrow::{
    build_graph, farrow_comb_kernel, farrow_fir_kernel, reference, BLOCK_SAMPLES, QBITS,
};
use cgsim::intrinsics::fixed::{dequantize_q15, quantize_q15};
use cgsim::runtime::{KernelLibrary, RuntimeConfig, RuntimeContext, Session};

/// A Q15 sine test vector (one block).
fn sine_input() -> Vec<i16> {
    (0..BLOCK_SAMPLES)
        .map(|n| {
            let phase = n as f64 * 0.05 * std::f64::consts::TAU;
            quantize_q15(0.6 * phase.sin(), QBITS)
        })
        .collect()
}

/// Estimate the phase of a sine by correlating with sin/cos templates.
fn estimate_phase(signal: &[i16]) -> f64 {
    let (mut s, mut c) = (0.0f64, 0.0f64);
    for (n, &v) in signal.iter().enumerate().skip(64).take(1024) {
        let phase = n as f64 * 0.05 * std::f64::consts::TAU;
        let x = dequantize_q15(v, QBITS);
        s += x * phase.sin();
        c += x * phase.cos();
    }
    c.atan2(s)
}

fn main() {
    let input = sine_input();
    let library = KernelLibrary::with(|l| {
        l.register::<farrow_fir_kernel>();
        l.register::<farrow_comb_kernel>();
    });

    println!("farrow fractional-delay filter: sweeping µ over a sine input\n");
    println!(
        "{:>6} | {:>12} | {:>14}",
        "µ", "phase (rad)", "delay (samples)"
    );
    println!("{}", "-".repeat(42));

    let mut last_delay = f64::INFINITY;
    for mu_f in [0.0, 0.25, 0.5, 0.75] {
        let mu = quantize_q15(mu_f, QBITS);
        let graph = build_graph();
        let mut ctx = RuntimeContext::new(&graph, &library, RuntimeConfig::default()).unwrap();
        ctx.feed(0, input.clone()).unwrap();
        ctx.feed_param(1, mu).unwrap();
        let out = ctx.collect::<i16>(0).unwrap();
        let report = ctx.run().unwrap();
        assert!(report.drained());
        let got = out.take();
        assert_eq!(got, reference(&input, mu), "kernel matches reference");

        // The cubic-Lagrange Farrow structure delays by (2 − µ) samples
        // (µ interpolates toward the newer sample); a delay shows up as a
        // negative phase shift of delay × ω.
        let phase = estimate_phase(&got) - estimate_phase(&input);
        let omega = 0.05 * std::f64::consts::TAU;
        let delay = (-phase).rem_euclid(std::f64::consts::TAU) / omega;
        println!("{mu_f:>6.2} | {phase:>12.4} | {delay:>14.3}");
        let expect = 2.0 - mu_f;
        assert!(
            (delay - expect).abs() < 0.05,
            "delay {delay:.3} should be ≈ {expect}"
        );
        assert!(delay < last_delay, "delay must shrink as µ grows");
        last_delay = delay;
    }
    println!("\ndelay tracks 2 − µ exactly — the Farrow structure works.");
    println!("OK");
}
