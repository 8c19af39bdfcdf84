//! The AMD `Bilinear_Interpolation` example as an image-processing
//! application: upscale a synthetic image 2× by streaming pixel quads
//! through the compute graph, and measure the interpolation error against
//! an analytic ground truth.
//!
//! Run with: `cargo run --release --example image_bilinear`

use cgsim::graphs::bilinear::{bilinear_kernel, build_graph, PixelQuad, LANES};
use cgsim::runtime::{KernelLibrary, RuntimeConfig, RuntimeContext, Session};

const W: usize = 64;
const H: usize = 64;
const SCALE: usize = 2;

/// The source image: a smooth 2-D function sampled on a WxH grid.
fn source_pixel(x: f64, y: f64) -> f64 {
    128.0 + 80.0 * (x * 0.11).sin() * (y * 0.07).cos()
}

fn main() {
    // Sample the source image.
    let image: Vec<f32> = (0..H)
        .flat_map(|y| (0..W).map(move |x| source_pixel(x as f64, y as f64) as f32))
        .collect();
    let pixel = |x: usize, y: usize| image[y.min(H - 1) * W + x.min(W - 1)];

    // Build the quad stream for a SCALE× upsample.
    let (ow, oh) = (W * SCALE, H * SCALE);
    let mut quads = Vec::with_capacity(ow * oh);
    for oy in 0..oh {
        for ox in 0..ow {
            let sx = ox as f32 / SCALE as f32;
            let sy = oy as f32 / SCALE as f32;
            let (x0, y0) = (sx as usize, sy as usize);
            quads.push(PixelQuad {
                p00: pixel(x0, y0),
                p01: pixel(x0 + 1, y0),
                p10: pixel(x0, y0 + 1),
                p11: pixel(x0 + 1, y0 + 1),
                fx: sx - x0 as f32,
                fy: sy - y0 as f32,
            });
        }
    }
    // Pad to a full vector iteration.
    while quads.len() % LANES != 0 {
        quads.push(quads[quads.len() - 1]);
    }
    let n_quads = quads.len();

    // Stream through the graph.
    let graph = build_graph();
    let library = KernelLibrary::with(|l| {
        l.register::<bilinear_kernel>();
    });
    let mut ctx = RuntimeContext::new(&graph, &library, RuntimeConfig::default()).unwrap();
    ctx.feed(0, quads).unwrap();
    let out = ctx.collect::<f32>(0).unwrap();
    let report = ctx.run().unwrap();
    assert!(report.drained());
    let upscaled = out.take();
    assert_eq!(upscaled.len(), n_quads);

    // Compare the upscaled image against the analytic function (bilinear
    // interpolation of a smooth function should be close).
    let mut sum_sq = 0.0f64;
    for oy in 0..oh {
        for ox in 0..ow {
            let truth = source_pixel(ox as f64 / SCALE as f64, oy as f64 / SCALE as f64);
            let got = upscaled[oy * ow + ox] as f64;
            sum_sq += (got - truth).powi(2);
        }
    }
    let rmse = (sum_sq / (ow * oh) as f64).sqrt();
    let psnr = 20.0 * (255.0 / rmse).log10();

    println!("bilinear upscale {W}x{H} → {ow}x{oh} through the compute graph");
    println!("  quads streamed:  {n_quads}");
    println!("  elements moved:  {}", report.elements_moved);
    println!("  RMSE vs analytic ground truth: {rmse:.3}");
    println!("  PSNR: {psnr:.1} dB");
    assert!(psnr > 35.0, "interpolation quality unexpectedly poor");
    println!("\nOK");
}
