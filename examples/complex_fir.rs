//! Complex fixed-point FIR (matched filter) on `cint16` streams — a
//! communications-style workload exercising the complex MAC intrinsics
//! (`cmac`/`cmac_conj`) that AIE DSP kernels revolve around. Demonstrates
//! user-defined struct streams carrying complex samples end-to-end.
//!
//! The graph correlates a noisy received signal with a known preamble and
//! a host-side peak detector locates it — a standard packet-detection
//! front end.
//!
//! Run with: `cargo run --release --example complex_fir`

use cgsim::intrinsics::complex::{cmag_sq, CAccI48, CInt16};
use cgsim::intrinsics::fixed::quantize_q15;
use cgsim::intrinsics::Vector;
use cgsim::runtime::{
    compute_graph, compute_kernel, KernelLibrary, RuntimeConfig, RuntimeContext, Session,
};

/// Correlator lanes per vector iteration.
const LANES: usize = 8;
/// Preamble length in samples.
const PREAMBLE: usize = 16;

/// The known preamble: a Q15 complex chirp.
fn preamble() -> Vec<CInt16> {
    (0..PREAMBLE)
        .map(|n| {
            let phase = 0.07 * (n * n) as f64;
            CInt16::new(
                quantize_q15(0.5 * phase.cos(), 15),
                quantize_q15(0.5 * phase.sin(), 15),
            )
        })
        .collect()
}

/// One vector iteration of the correlator: for output positions
/// `base..base+LANES`, accumulate `rx[pos+t] · conj(preamble[t])` and emit
/// |correlation|² (the detection statistic). Shared with the profiler.
pub fn correlate_iteration(rx: &[CInt16], coeffs: &[CInt16]) -> Vec<i64> {
    debug_assert!(rx.len() >= LANES + PREAMBLE - 1);
    let mut acc = CAccI48::<LANES>::zero();
    for (t, &c) in coeffs.iter().enumerate() {
        let window: [CInt16; LANES] = std::array::from_fn(|i| rx[i + t]);
        let coeff_splat = Vector::from_array([c; LANES]);
        acc = acc.cmac_conj(Vector::from_array(window), coeff_splat);
    }
    // |corr|² per lane from the srs'd correlation.
    let corr = acc.srs(15);
    cmag_sq(&corr).to_vec()
}

compute_kernel! {
    /// Sliding complex matched filter over the received stream.
    #[realm(aie)]
    pub fn correlator_kernel(rx: ReadPort<CInt16>, power: WritePort<i64>) {
        let coeffs = preamble();
        let mut history = vec![CInt16::default(); PREAMBLE - 1];
        while let Some(chunk) = rx.get_window(LANES).await {
            let mut data = history.clone();
            data.extend_from_slice(&chunk);
            power.put_window(correlate_iteration(&data, &coeffs)).await;
            history = data[data.len() - (PREAMBLE - 1)..].to_vec();
        }
    }
}

compute_kernel! {
    /// Host-side peak detector: emits (index, power) of the maximum.
    #[realm(noextract)]
    pub fn peak_kernel(power: ReadPort<i64>, peak: WritePort<i64>) {
        let mut best = (0i64, i64::MIN);
        let mut idx = 0i64;
        while let Some(p) = power.get().await {
            if p > best.1 {
                best = (idx, p);
            }
            idx += 1;
        }
        peak.put(best.0).await;
        peak.put(best.1).await;
    }
}

fn main() {
    // Build the received signal: noise, then the preamble at a known
    // offset, then more noise.
    const OFFSET: usize = 200;
    const TOTAL: usize = 512;
    let pre = preamble();
    let mut rx = Vec::with_capacity(TOTAL);
    let mut seed = 0x1234_5678u32;
    let mut noise = || {
        seed = seed.wrapping_mul(1664525).wrapping_add(1013904223);
        ((seed >> 20) as i16 - 2048) / 4 // small noise floor
    };
    for n in 0..TOTAL {
        let mut s = CInt16::new(noise(), noise());
        if (OFFSET..OFFSET + PREAMBLE).contains(&n) {
            let p = pre[n - OFFSET];
            s = CInt16::new(s.re.saturating_add(p.re), s.im.saturating_add(p.im));
        }
        rx.push(s);
    }

    let graph = compute_graph! {
        name: packet_detect,
        inputs: (rx: CInt16),
        body: {
            let power = wire::<i64>();
            let peak = wire::<i64>();
            correlator_kernel(rx, power);
            peak_kernel(power, peak);
        },
        outputs: (peak),
    }
    .unwrap();

    let lib = KernelLibrary::with(|l| {
        l.register::<correlator_kernel>();
        l.register::<peak_kernel>();
    });
    let mut ctx = RuntimeContext::new(&graph, &lib, RuntimeConfig::default()).unwrap();
    ctx.feed(0, rx).unwrap();
    let out = ctx.collect::<i64>(0).unwrap();
    let report = ctx.run().unwrap();
    assert!(report.drained());
    let result = out.take();
    let (found, power) = (result[0], result[1]);

    // The correlator sees the preamble start once its first sample enters
    // the window history; the peak lands PREAMBLE-1 samples after OFFSET.
    let expect = (OFFSET + PREAMBLE - 1) as i64;
    println!("packet detection via complex matched filter:");
    println!("  preamble injected at sample {OFFSET}");
    println!("  detected peak at index {found} (expected {expect}), power {power}");
    assert!(
        (found - expect).abs() <= 1,
        "peak at {found}, expected {expect}"
    );
    println!("OK");
}
