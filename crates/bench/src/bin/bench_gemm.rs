//! GEMM microbenchmark + batched-training throughput gate.
//!
//! Times the register-blocked packed GEMM against the retained reference
//! kernel on the zoo's conv/dense GEMM shapes (single-threaded, so the
//! numbers isolate the kernel, not the pool), the frozen serve-path GEMMs
//! against per-call packing, the image-panel conv lowering against the
//! unfolded one on every conv shape of the GTSRB serving members, one
//! lane-major 16-image input-gradient sweep of each GTSRB serving member
//! against 16 per-sample calls, then times `Trainer::fit`, whose mini-batch
//! steps run lane-major, against a per-sample reference loop of one-lane
//! steps on conv/dense and depthwise zoo models. Two competing paths are
//! timed in alternating windows, so host-speed drift hits both alike. Every comparison is also a
//! bitwise gate: any f32 divergence between the two paths exits nonzero so
//! CI can fail on it. Results land in `results/bench_gemm.json`.

use rand::{rngs::StdRng, seq::SliceRandom, SeedableRng};
use remix_nn::{
    cross_entropy, zoo, Arch, InputSpec, Layer, Mode, Model, Optimizer, Sgd, Trainer,
    TrainerConfig, Wants,
};
use remix_tensor::{im2row_batch_into, row2im_batch, Conv2dGeometry, PackedOperand, Tensor};
use std::io::Write;
use std::time::{Duration, Instant};

/// One zoo-derived GEMM shape: `[m,k] × [k,n]`.
struct GemmShape {
    /// Which zoo layer (at GTSRB scale, batch 32) the shape comes from.
    name: &'static str,
    m: usize,
    k: usize,
    n: usize,
}

/// The zoo's hot GEMM shapes at GTSRB scale (3×16×16 inputs) with the
/// training batch size of 32 folded into the column count, as the batched
/// engine produces them.
const SHAPES: &[GemmShape] = &[
    // ConvNet conv1: 8 filters over (3,16,16), 3×3 pad 1 → patch 27,
    // 16×16 output positions × 32 samples.
    GemmShape {
        name: "convnet_conv1_fwd",
        m: 8,
        k: 27,
        n: 8192,
    },
    // ConvNet conv2: 16 filters over (8,8,8) → patch 72, 8×8 positions × 32.
    // The largest zoo GEMM by multiply-accumulate count.
    GemmShape {
        name: "convnet_conv2_fwd",
        m: 16,
        k: 72,
        n: 2048,
    },
    // VGG16 group-3 conv: 24 filters over (16,4,4) → patch 144, 16 × 32.
    GemmShape {
        name: "vgg16_conv_g3_fwd",
        m: 24,
        k: 144,
        n: 512,
    },
    // ConvNet conv1 input gradient: Wᵀ[27,8] · G[8, 256·32].
    GemmShape {
        name: "convnet_conv1_dx",
        m: 27,
        k: 8,
        n: 8192,
    },
    // ConvNet fc1: Dense(256 → 48) batched forward, X is [256, 32].
    GemmShape {
        name: "convnet_fc1_fwd",
        m: 48,
        k: 256,
        n: 32,
    },
];

struct GemmResult {
    name: &'static str,
    m: usize,
    k: usize,
    n: usize,
    reference_secs: f64,
    blocked_secs: f64,
    bit_identical: bool,
}

/// Which serve-path GEMM entry a frozen layer uses for one weight-static
/// product, and therefore which prepacked form it holds.
enum SweepOp {
    /// Dense forward `W · X` — weight prepacked as the A operand.
    DenseFwd,
    /// Dense input gradient `Wᵀ · G` — weight prepacked transposed-read.
    DenseDx,
    /// Conv forward `W · patchesᵀ` with the B panels packed from
    /// `[channels, size, size]` images (3×3, stride 1, pad 1) — weight
    /// prepacked as the A operand.
    ConvFwd { channels: usize, size: usize },
    /// Conv input gradient `Wᵀ · G` — weight prepacked transposed-read.
    ConvDx,
}

/// One weight-static GEMM from a fig-8-style XAI verdict sweep: ConvNet at
/// GTSRB scale (3×16×16) serving a micro-batch of [`SWEEP_BATCH`], forward
/// plus input-gradient. At this scale the weight pack is a real fraction of
/// the work (the dense products especially), which is exactly where freezing
/// pays.
struct SweepShape {
    name: &'static str,
    op: SweepOp,
    /// Weight rows: dense out-dim / conv filter count.
    wm: usize,
    /// Weight cols: dense in-dim / conv patch length.
    wk: usize,
    /// Activation columns: output positions × batch (conv) or batch (dense).
    n: usize,
}

/// Serve micro-batch folded into every sweep shape's column count.
const SWEEP_BATCH: usize = 4;

/// Every weight-static GEMM one ConvNet XAI sweep runs, in execution order.
const SWEEP_SHAPES: &[SweepShape] = &[
    SweepShape {
        name: "conv1_fwd",
        op: SweepOp::ConvFwd {
            channels: 3,
            size: 16,
        },
        wm: 8,
        wk: 27,
        n: 1024,
    },
    SweepShape {
        name: "conv2_fwd",
        op: SweepOp::ConvFwd {
            channels: 8,
            size: 8,
        },
        wm: 16,
        wk: 72,
        n: 256,
    },
    SweepShape {
        name: "fc1_fwd",
        op: SweepOp::DenseFwd,
        wm: 48,
        wk: 256,
        n: SWEEP_BATCH,
    },
    SweepShape {
        name: "fc2_fwd",
        op: SweepOp::DenseFwd,
        wm: 43,
        wk: 48,
        n: SWEEP_BATCH,
    },
    SweepShape {
        name: "fc2_dx",
        op: SweepOp::DenseDx,
        wm: 43,
        wk: 48,
        n: SWEEP_BATCH,
    },
    SweepShape {
        name: "fc1_dx",
        op: SweepOp::DenseDx,
        wm: 48,
        wk: 256,
        n: SWEEP_BATCH,
    },
    SweepShape {
        name: "conv2_dx",
        op: SweepOp::ConvDx,
        wm: 16,
        wk: 72,
        n: 256,
    },
    SweepShape {
        name: "conv1_dx",
        op: SweepOp::ConvDx,
        wm: 8,
        wk: 27,
        n: 1024,
    },
];

struct SweepResult {
    name: &'static str,
    /// GEMM output rows / inner dim / output cols (not the weight layout).
    m: usize,
    k: usize,
    n: usize,
    /// True for the dense-stack rows, which form the gated dense aggregate.
    dense: bool,
    fresh_secs: f64,
    prepacked_secs: f64,
    prepack_identical: bool,
}

/// End-to-end frozen-vs-unfrozen XAI sweep on a real model: wall time, output
/// bits, and the deterministic pack-traffic counters.
struct XaiSweepResult {
    model: &'static str,
    batch: usize,
    unfrozen_secs: f64,
    frozen_secs: f64,
    bit_identical: bool,
    pack_bytes_unfrozen: u64,
    pack_bytes_frozen: u64,
    prepack_hits: u64,
}

/// One distinct `Conv2d` geometry of the GTSRB serving members (ConvNet,
/// MobileNet and ResNet18 at 3×16×16): `filters` outputs over a
/// `[channels, size, size]` input.
struct ConvShape {
    /// Member layers using the shape.
    name: &'static str,
    channels: usize,
    size: usize,
    filters: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
}

/// Images per conv-lowering call: one SmoothGrad sweep of a disagreeing
/// pair (2 members' inputs × 8 noise samples).
const CONV_BATCH: usize = 16;

/// Every distinct conv shape of the GTSRB serving members, in the order the
/// members first use them.
const CONV_SHAPES: &[ConvShape] = &[
    ConvShape {
        name: "stem_3x16_k3",
        channels: 3,
        size: 16,
        filters: 8,
        kernel: 3,
        stride: 1,
        pad: 1,
    },
    ConvShape {
        name: "convnet_conv2_8x8_k3",
        channels: 8,
        size: 8,
        filters: 16,
        kernel: 3,
        stride: 1,
        pad: 1,
    },
    ConvShape {
        name: "convnet_conv3_16x4_k3",
        channels: 16,
        size: 4,
        filters: 16,
        kernel: 3,
        stride: 1,
        pad: 1,
    },
    ConvShape {
        name: "mobilenet_pw1_8x16_k1",
        channels: 8,
        size: 16,
        filters: 16,
        kernel: 1,
        stride: 1,
        pad: 0,
    },
    ConvShape {
        name: "mobilenet_pw2_16x8_k1",
        channels: 16,
        size: 8,
        filters: 16,
        kernel: 1,
        stride: 1,
        pad: 0,
    },
    ConvShape {
        name: "mobilenet_pw3_16x8_k1",
        channels: 16,
        size: 8,
        filters: 32,
        kernel: 1,
        stride: 1,
        pad: 0,
    },
    ConvShape {
        name: "mobilenet_pw4_32x4_k1",
        channels: 32,
        size: 4,
        filters: 32,
        kernel: 1,
        stride: 1,
        pad: 0,
    },
    ConvShape {
        name: "resnet18_s1_8x16_k3",
        channels: 8,
        size: 16,
        filters: 8,
        kernel: 3,
        stride: 1,
        pad: 1,
    },
    ConvShape {
        name: "resnet18_s2down_8x16_k3s2",
        channels: 8,
        size: 16,
        filters: 16,
        kernel: 3,
        stride: 2,
        pad: 1,
    },
    ConvShape {
        name: "resnet18_s2_16x8_k3",
        channels: 16,
        size: 8,
        filters: 16,
        kernel: 3,
        stride: 1,
        pad: 1,
    },
    ConvShape {
        name: "resnet18_s2proj_8x16_k1s2",
        channels: 8,
        size: 16,
        filters: 16,
        kernel: 1,
        stride: 2,
        pad: 0,
    },
    ConvShape {
        name: "resnet18_s3down_16x8_k3s2",
        channels: 16,
        size: 8,
        filters: 32,
        kernel: 3,
        stride: 2,
        pad: 1,
    },
    ConvShape {
        name: "resnet18_s3_32x4_k3",
        channels: 32,
        size: 4,
        filters: 32,
        kernel: 3,
        stride: 1,
        pad: 1,
    },
    ConvShape {
        name: "resnet18_s3proj_16x8_k1s2",
        channels: 16,
        size: 8,
        filters: 32,
        kernel: 1,
        stride: 2,
        pad: 0,
    },
];

struct ConvResult {
    name: &'static str,
    geo: Conv2dGeometry,
    filters: usize,
    unfolded_secs: f64,
    panel_secs: f64,
    lowering_identical: bool,
}

/// The unfolded frozen conv lowering, the reference: unfold the batch into
/// `[B·spatial, patch]` rows for `W ·ᵃᵇᵗ rows`, and fold the input gradient
/// `gᵀ · W` back with `row2im`.
struct UnfoldedConv<'a> {
    geo: Conv2dGeometry,
    images: &'a [Tensor],
    grads: &'a Tensor,
    fwd: PackedOperand,
    dx: PackedOperand,
    rows: Vec<f32>,
    packed: Vec<f32>,
    out: Vec<f32>,
    drows: Vec<f32>,
}

impl UnfoldedConv<'_> {
    fn run(&mut self) -> Vec<Tensor> {
        let (n, patch) = (self.grads.shape()[1], self.geo.patch_len());
        im2row_batch_into(self.images, &self.geo, &mut self.rows).expect("images match");
        let rows = Tensor::from_vec(std::mem::take(&mut self.rows), &[n, patch]).expect("rows");
        self.fwd
            .matmul_a_bt_prepacked_into(&rows, &mut self.out, &mut self.packed)
            .expect("shapes agree");
        self.rows = rows.into_vec();
        self.dx
            .matmul_at_b_rhs_prepacked_into(self.grads, &mut self.drows)
            .expect("shapes agree");
        let drows = Tensor::from_vec(std::mem::take(&mut self.drows), &[n, patch]).expect("drows");
        let dx = row2im_batch(&drows, &self.geo, self.images.len()).expect("fold geometry");
        self.drows = drows.into_vec();
        dx
    }
}

/// The frozen conv serve path: B panels packed straight from the lane-major
/// batch, and the input gradient `Wᵀ · G` folded onto the lane-major
/// gradient panel by panel.
struct PanelConv<'a> {
    geo: Conv2dGeometry,
    images: &'a Tensor,
    grads: &'a Tensor,
    fwd: PackedOperand,
    dx: PackedOperand,
    packed: Vec<f32>,
    out: Vec<f32>,
    dx_scratch: Vec<f32>,
}

impl PanelConv<'_> {
    fn run(&mut self) -> Tensor {
        self.fwd
            .conv_gemm_prepacked_into(self.images, &self.geo, &mut self.out, &mut self.packed)
            .expect("images match");
        self.dx
            .conv_input_grads_prepacked(self.grads, &self.geo, &mut self.dx_scratch)
            .expect("gradients match")
    }
}

/// The GTSRB serving members whose input-gradient sweeps the lane phase
/// times, at 3×16×16.
const LANE_SWEEP_MODELS: &[(Arch, &str)] = &[
    (Arch::ConvNet, "ConvNet"),
    (Arch::MobileNet, "MobileNet"),
    (Arch::ResNet18, "ResNet18"),
];

/// Images per lane sweep: the noisy copies of one SmoothGrad sweep.
const LANE_SWEEP_BATCH: usize = 16;

struct LaneSweepResult {
    model: &'static str,
    per_sample_secs: f64,
    lanes_secs: f64,
    lanes_identical: bool,
}

/// Per-sample `Trainer::fit` wall times measured at the commit preceding
/// this optimization (the per-call-scoped GEMM + column-layout conv tree),
/// same box, same seeds/dataset (96 samples × 2 epochs, batch 32, 1 thread).
/// These anchor the `speedup_vs_baseline` field in the JSON record so the
/// training-throughput claim is against the pre-PR engine, not merely
/// against this tree's per-sample path.
const BASELINE_FIT_SECS: &[(&str, usize, f64)] = &[
    ("ConvNet", 16, 0.030073),
    ("ConvNet", 32, 0.130948),
    ("MobileNet", 16, 0.108079),
    ("MobileNet", 32, 0.390580),
];

/// Pre-PR fit seconds for a model/size pair (panics if the pair is missing
/// from the baseline table).
fn baseline_fit_secs(model: &str, size: usize) -> f64 {
    BASELINE_FIT_SECS
        .iter()
        .find(|(m, s, _)| *m == model && *s == size)
        .map(|&(_, _, secs)| secs)
        .expect("baseline entry for every benched model/size")
}

struct TrainResult {
    model: &'static str,
    size: usize,
    samples: usize,
    epochs: usize,
    per_sample_secs: f64,
    batched_secs: f64,
    weights_bit_identical: bool,
}

fn main() {
    // Pin to one thread before anything touches the pool: the microbench
    // isolates the kernel, and the training gate is specified single-thread.
    std::env::set_var("REMIX_THREADS", "1");

    let gemm_results: Vec<GemmResult> = SHAPES.iter().map(bench_shape).collect();
    println!("GEMM kernel — blocked vs reference (1 thread)\n");
    println!(
        "{:<20} {:>16} {:>12} {:>12} {:>9}  bits",
        "shape", "m×k×n", "reference", "blocked", "speedup"
    );
    for r in &gemm_results {
        println!(
            "{:<20} {:>16} {:>12} {:>12} {:>8.2}x  {}",
            r.name,
            format!("{}×{}×{}", r.m, r.k, r.n),
            format!("{:.1}µs", r.reference_secs * 1e6),
            format!("{:.1}µs", r.blocked_secs * 1e6),
            r.reference_secs / r.blocked_secs,
            if r.bit_identical { "=" } else { "DIVERGED" }
        );
    }
    let largest = gemm_results
        .iter()
        .max_by_key(|r| r.m * r.k * r.n)
        .expect("non-empty shape list");
    let largest_speedup = largest.reference_secs / largest.blocked_secs;
    println!(
        "\nLargest zoo shape ({}): {:.2}x (target ≥ 1.5x)",
        largest.name, largest_speedup
    );

    println!(
        "\nPrepacked weights — frozen vs per-call packing (XAI-sweep scale, batch {SWEEP_BATCH})\n"
    );
    let sweep_results: Vec<SweepResult> = SWEEP_SHAPES.iter().map(bench_sweep_shape).collect();
    println!(
        "{:<12} {:>14} {:>12} {:>12} {:>9}  bits",
        "shape", "m×k×n", "per-call", "prepacked", "speedup"
    );
    for r in &sweep_results {
        println!(
            "{:<12} {:>14} {:>12} {:>12} {:>8.2}x  {}",
            r.name,
            format!("{}×{}×{}", r.m, r.k, r.n),
            format!("{:.2}µs", r.fresh_secs * 1e6),
            format!("{:.2}µs", r.prepacked_secs * 1e6),
            r.fresh_secs / r.prepacked_secs,
            if r.prepack_identical { "=" } else { "DIVERGED" }
        );
    }
    let aggregate = |rows: &[&SweepResult]| -> f64 {
        let fresh: f64 = rows.iter().map(|r| r.fresh_secs).sum();
        let pre: f64 = rows.iter().map(|r| r.prepacked_secs).sum();
        fresh / pre
    };
    let sweep_aggregate = aggregate(&sweep_results.iter().collect::<Vec<_>>());
    let dense_rows: Vec<&SweepResult> = sweep_results.iter().filter(|r| r.dense).collect();
    let dense_aggregate = aggregate(&dense_rows);
    println!(
        "\nAggregate sweep GEMM time: {sweep_aggregate:.2}x; dense stack alone: \
         {dense_aggregate:.2}x (target ≥ 1.1x)"
    );

    let xai = bench_xai_sweep();
    let pack_eliminated = 1.0 - xai.pack_bytes_frozen as f64 / xai.pack_bytes_unfrozen as f64;
    println!(
        "\nXAI sweep ({} ×{}): unfrozen {:.1}µs, frozen {:.1}µs ({:.2}x); pack traffic \
         {} → {} bytes/sweep ({:.0} % eliminated, {} prepack hits)  {}",
        xai.model,
        xai.batch,
        xai.unfrozen_secs * 1e6,
        xai.frozen_secs * 1e6,
        xai.unfrozen_secs / xai.frozen_secs,
        xai.pack_bytes_unfrozen,
        xai.pack_bytes_frozen,
        pack_eliminated * 100.0,
        xai.prepack_hits,
        if xai.bit_identical {
            "bit-identical"
        } else {
            "DIVERGED"
        }
    );

    println!(
        "\nConv lowering — image panels + fused fold vs unfolded rows + row2im \
         (frozen, forward + input gradient, batch {CONV_BATCH})\n"
    );
    let conv_results: Vec<ConvResult> = CONV_SHAPES.iter().map(bench_conv_shape).collect();
    println!(
        "{:<28} {:>12} {:>12} {:>9}  bits",
        "shape", "unfolded", "panels", "speedup"
    );
    for r in &conv_results {
        println!(
            "{:<28} {:>12} {:>12} {:>8.2}x  {}",
            r.name,
            format!("{:.1}µs", r.unfolded_secs * 1e6),
            format!("{:.1}µs", r.panel_secs * 1e6),
            r.unfolded_secs / r.panel_secs,
            if r.lowering_identical {
                "="
            } else {
                "DIVERGED"
            }
        );
    }
    let conv_aggregate = conv_results.iter().map(|r| r.unfolded_secs).sum::<f64>()
        / conv_results.iter().map(|r| r.panel_secs).sum::<f64>();
    println!("\nAggregate conv lowering time: {conv_aggregate:.2}x");

    println!(
        "\nLane sweep — one lane-major input_gradient_batch vs per-sample input_gradient \
         (frozen, 3×16×16, batch {LANE_SWEEP_BATCH})\n"
    );
    let lane_results: Vec<LaneSweepResult> = LANE_SWEEP_MODELS
        .iter()
        .map(|&(arch, name)| bench_lane_sweep(arch, name))
        .collect();
    println!(
        "{:<12} {:>12} {:>12} {:>9}  bits",
        "model", "per-sample", "lanes", "speedup"
    );
    for r in &lane_results {
        println!(
            "{:<12} {:>12} {:>12} {:>8.2}x  {}",
            r.model,
            format!("{:.1}µs", r.per_sample_secs * 1e6),
            format!("{:.1}µs", r.lanes_secs * 1e6),
            r.per_sample_secs / r.lanes_secs,
            if r.lanes_identical { "=" } else { "DIVERGED" }
        );
    }
    let lane_aggregate = lane_results.iter().map(|r| r.per_sample_secs).sum::<f64>()
        / lane_results.iter().map(|r| r.lanes_secs).sum::<f64>();
    println!("\nAggregate lane sweep time: {lane_aggregate:.2}x");

    println!(
        "\nTraining — lane-major Trainer::fit vs one-lane steps per sample (batch 32, 1 thread)\n"
    );
    let train_results = vec![
        bench_training(Arch::ConvNet, "ConvNet", 16),
        bench_training(Arch::ConvNet, "ConvNet", 32),
        bench_training(Arch::MobileNet, "MobileNet", 16),
        bench_training(Arch::MobileNet, "MobileNet", 32),
    ];
    println!(
        "{:<12} {:>5} {:>12} {:>12} {:>9} {:>9}  weights",
        "model", "size", "per-sample", "batched", "speedup", "vs-seed"
    );
    for r in &train_results {
        println!(
            "{:<12} {:>5} {:>12} {:>12} {:>8.2}x {:>8.2}x  {}",
            r.model,
            format!("{}px", r.size),
            format!("{:.3}s", r.per_sample_secs),
            format!("{:.3}s", r.batched_secs),
            r.per_sample_secs / r.batched_secs,
            baseline_fit_secs(r.model, r.size) / r.batched_secs,
            if r.weights_bit_identical {
                "bit-identical"
            } else {
                "DIVERGED"
            }
        );
    }

    write_bench_json(
        &gemm_results,
        largest.name,
        largest_speedup,
        &sweep_results,
        sweep_aggregate,
        dense_aggregate,
        &xai,
        &conv_results,
        conv_aggregate,
        &lane_results,
        lane_aggregate,
        &train_results,
    )
    .expect("write results/bench_gemm.json");
    println!("\nRecord written to results/bench_gemm.json");

    let gemm_ok = gemm_results.iter().all(|r| r.bit_identical);
    let prepack_ok = sweep_results.iter().all(|r| r.prepack_identical) && xai.bit_identical;
    let conv_ok = conv_results.iter().all(|r| r.lowering_identical);
    let lanes_ok = lane_results.iter().all(|r| r.lanes_identical);
    let train_ok = train_results.iter().all(|r| r.weights_bit_identical);
    if !gemm_ok || !prepack_ok || !conv_ok || !lanes_ok || !train_ok {
        eprintln!(
            "ERROR: blocked/prepacked/panel-lowered/lane-major/batched path diverged bitwise \
             from the reference path"
        );
        std::process::exit(1);
    }
}

/// Times one shape: the retained reference kernel (which allocates its
/// output per call, as the pre-blocking `matmul` did) against the blocked
/// kernel driven through `matmul_into` with reused scratch (the batched
/// engine's steady state). Also checks the results are bit-identical.
fn bench_shape(shape: &GemmShape) -> GemmResult {
    let (m, k, n) = (shape.m, shape.k, shape.n);
    let mut rng = StdRng::seed_from_u64(7);
    let a = Tensor::rand_uniform(&[m, k], -1.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform(&[k, n], -1.0, 1.0, &mut rng);

    let reference = a.matmul_reference(&b).expect("shapes agree");
    let mut out = Vec::new();
    let mut packed = Vec::new();
    a.matmul_into(&b, &mut out, &mut packed)
        .expect("shapes agree");
    let bit_identical = reference
        .data()
        .iter()
        .zip(&out)
        .all(|(x, y)| x.to_bits() == y.to_bits());

    let (reference_secs, blocked_secs) = time_interleaved(
        KERNEL_WINDOWS,
        || {
            std::hint::black_box(a.matmul_reference(&b).expect("shapes agree"));
        },
        || {
            a.matmul_into(&b, &mut out, &mut packed)
                .expect("shapes agree");
            std::hint::black_box(out.last());
        },
    );

    GemmResult {
        name: shape.name,
        m,
        k,
        n,
        reference_secs,
        blocked_secs,
        bit_identical,
    }
}

/// Times one pair of equivalent calls — per-call packing vs a persistent
/// prepacked weight — and bit-compares their outputs. Each side owns its
/// scratch, as the fresh and frozen layer paths do.
fn timed_pair(
    mut fresh: impl FnMut(&mut Vec<f32>, &mut Vec<f32>),
    mut pre: impl FnMut(&mut Vec<f32>, &mut Vec<f32>),
) -> (f64, f64, bool) {
    let (mut fo, mut fp) = (Vec::new(), Vec::new());
    let (mut po, mut pp) = (Vec::new(), Vec::new());
    fresh(&mut fo, &mut fp);
    pre(&mut po, &mut pp);
    let identical =
        fo.len() == po.len() && fo.iter().zip(&po).all(|(x, y)| x.to_bits() == y.to_bits());
    let (fresh_secs, prepacked_secs) = time_interleaved(
        KERNEL_WINDOWS,
        || {
            fresh(&mut fo, &mut fp);
            std::hint::black_box(fo.last());
        },
        || {
            pre(&mut po, &mut pp);
            std::hint::black_box(po.last());
        },
    );
    (fresh_secs, prepacked_secs, identical)
}

/// Times one sweep shape through its serve-path entry point, per-call-packed
/// vs prepacked, with a bitwise gate on the outputs.
fn bench_sweep_shape(s: &SweepShape) -> SweepResult {
    let mut rng = StdRng::seed_from_u64(13);
    let w = Tensor::rand_uniform(&[s.wm, s.wk], -1.0, 1.0, &mut rng);
    let ((m, k, n), dense, (fresh_secs, prepacked_secs, prepack_identical)) = match s.op {
        SweepOp::DenseFwd => {
            let x = Tensor::rand_uniform(&[s.wk, s.n], -1.0, 1.0, &mut rng);
            let pw = w.prepack_a().expect("weights are rank 2");
            let timed = timed_pair(
                |o, p| w.matmul_into(&x, o, p).expect("shapes agree"),
                |o, p| pw.matmul_prepacked_into(&x, o, p).expect("shapes agree"),
            );
            ((s.wm, s.wk, s.n), true, timed)
        }
        SweepOp::DenseDx => {
            let g = Tensor::rand_uniform(&[s.wm, s.n], -1.0, 1.0, &mut rng);
            let pw = w.prepack_at().expect("weights are rank 2");
            let timed = timed_pair(
                |o, p| w.matmul_at_b_into(&g, o, p).expect("shapes agree"),
                |o, p| {
                    pw.matmul_at_b_prepacked_into(&g, o, p)
                        .expect("shapes agree")
                },
            );
            ((s.wk, s.wm, s.n), true, timed)
        }
        SweepOp::ConvFwd { channels, size } => {
            let geo = Conv2dGeometry {
                in_channels: channels,
                in_h: size,
                in_w: size,
                kernel: 3,
                stride: 1,
                pad: 1,
            };
            let images = Tensor::rand_uniform(
                &[channels, size, size, s.n / (size * size)],
                -1.0,
                1.0,
                &mut rng,
            );
            let pw = w.prepack_a().expect("weights are rank 2");
            let timed = timed_pair(
                |o, p| w.conv_gemm_into(&images, &geo, o, p).expect("shapes agree"),
                |o, p| {
                    pw.conv_gemm_prepacked_into(&images, &geo, o, p)
                        .expect("shapes agree")
                },
            );
            ((s.wm, s.wk, s.n), false, timed)
        }
        SweepOp::ConvDx => {
            let g = Tensor::rand_uniform(&[s.wm, s.n], -1.0, 1.0, &mut rng);
            let pw = w.prepack_at().expect("weights are rank 2");
            let timed = timed_pair(
                |o, p| w.matmul_at_b_into(&g, o, p).expect("shapes agree"),
                |o, p| {
                    pw.matmul_at_b_prepacked_into(&g, o, p)
                        .expect("shapes agree")
                },
            );
            ((s.wk, s.wm, s.n), false, timed)
        }
    };
    SweepResult {
        name: s.name,
        m,
        k,
        n,
        dense,
        fresh_secs,
        prepacked_secs,
        prepack_identical,
    }
}

/// Times one conv shape through both frozen lowerings — forward plus input
/// gradient, as one SmoothGrad sweep runs them — and bit-compares the
/// forward products and the folded input gradients.
fn bench_conv_shape(s: &ConvShape) -> ConvResult {
    let geo = Conv2dGeometry {
        in_channels: s.channels,
        in_h: s.size,
        in_w: s.size,
        kernel: s.kernel,
        stride: s.stride,
        pad: s.pad,
    };
    let mut rng = StdRng::seed_from_u64(19);
    let w = Tensor::rand_uniform(&[s.filters, geo.patch_len()], -1.0, 1.0, &mut rng);
    let images: Vec<Tensor> = (0..CONV_BATCH)
        .map(|_| Tensor::rand_uniform(&[s.channels, s.size, s.size], -1.0, 1.0, &mut rng))
        .collect();
    let (oh, ow) = (geo.out_h(), geo.out_w());
    let per_sample: Vec<Tensor> = (0..CONV_BATCH)
        .map(|_| Tensor::rand_uniform(&[s.filters, oh, ow], -1.0, 1.0, &mut rng))
        .collect();
    // The unfolded path reads them concatenated: `[F, B·spatial]`.
    let mut concat = vec![0.0f32; s.filters * CONV_BATCH * oh * ow];
    for (b, g) in per_sample.iter().enumerate() {
        for (f, row) in g.data().chunks_exact(oh * ow).enumerate() {
            concat[(f * CONV_BATCH + b) * oh * ow..][..oh * ow].copy_from_slice(row);
        }
    }
    let grads = Tensor::from_vec(concat, &[s.filters, CONV_BATCH * oh * ow]).expect("concat");
    let mut unfolded = UnfoldedConv {
        geo,
        images: &images,
        grads: &grads,
        fwd: w.prepack_a().expect("weights are rank 2"),
        dx: w.prepack_b().expect("weights are rank 2"),
        rows: Vec::new(),
        packed: Vec::new(),
        out: Vec::new(),
        drows: Vec::new(),
    };
    let lane_images = Tensor::stack_lanes(&images).expect("same-shape images");
    let lane_grads = Tensor::stack_lanes(&per_sample).expect("same-shape gradients");
    let mut panels = PanelConv {
        geo,
        images: &lane_images,
        grads: &lane_grads,
        fwd: w.prepack_a().expect("weights are rank 2"),
        dx: w.prepack_at().expect("weights are rank 2"),
        packed: Vec::new(),
        out: Vec::new(),
        dx_scratch: Vec::new(),
    };
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
    let dx_unfolded = unfolded.run();
    let dx_panels = panels.run();
    // The unfolded product holds sample b in columns b·spatial..; the
    // lane-major one holds it in lane b of every output position.
    let spatial = oh * ow;
    let out_as_lanes: Vec<f32> = (0..s.filters * spatial * CONV_BATCH)
        .map(|i| {
            let (fp, b) = (i / CONV_BATCH, i % CONV_BATCH);
            let (f, p) = (fp / spatial, fp % spatial);
            unfolded.out[(f * CONV_BATCH + b) * spatial + p]
        })
        .collect();
    let dx_as_lanes = Tensor::stack_lanes(&dx_unfolded).expect("same-shape gradients");
    let lowering_identical = bits(&out_as_lanes) == bits(&panels.out)
        && bits(dx_as_lanes.data()) == bits(dx_panels.data());
    let (unfolded_secs, panel_secs) = time_interleaved(
        PHASE_WINDOWS,
        || {
            std::hint::black_box(unfolded.run());
        },
        || {
            std::hint::black_box(panels.run());
        },
    );
    ConvResult {
        name: s.name,
        geo,
        filters: s.filters,
        unfolded_secs,
        panel_secs,
        lowering_identical,
    }
}

/// Times one frozen serving member's input-gradient sweep: 16 per-sample
/// `input_gradient` calls against one lane-major `input_gradient_batch`,
/// each side on its own copy of the model, with a bitwise gate on the
/// gradients.
fn bench_lane_sweep(arch: Arch, name: &'static str) -> LaneSweepResult {
    let spec = InputSpec {
        channels: 3,
        size: 16,
        num_classes: 43,
    };
    let mut rng = StdRng::seed_from_u64(23);
    let mut per_sample = Model::new(zoo::build(arch, spec, &mut rng), spec);
    per_sample.freeze_for_inference();
    let mut lanes = per_sample.clone();
    let images: Vec<Tensor> = (0..LANE_SWEEP_BATCH)
        .map(|_| Tensor::rand_uniform(&[3, 16, 16], 0.0, 1.0, &mut rng))
        .collect();
    let classes: Vec<usize> = (0..LANE_SWEEP_BATCH)
        .map(|i| (7 * i) % spec.num_classes)
        .collect();
    let one_by_one = |m: &mut Model| -> Vec<Tensor> {
        images
            .iter()
            .zip(&classes)
            .map(|(x, &c)| m.input_gradient(x, c))
            .collect()
    };
    let batched = |m: &mut Model| {
        m.input_gradient_batch(&images, &classes)
            .expect("valid batch")
    };
    let lanes_identical = one_by_one(&mut per_sample) == batched(&mut lanes);
    let (per_sample_secs, lanes_secs) = time_interleaved(
        PHASE_WINDOWS,
        || {
            std::hint::black_box(one_by_one(&mut per_sample));
        },
        || {
            std::hint::black_box(batched(&mut lanes));
        },
    );
    LaneSweepResult {
        model: name,
        per_sample_secs,
        lanes_secs,
        lanes_identical,
    }
}

/// How [`time_interleaved`] measures: alternating windows per side, and
/// each window's length.
#[derive(Clone, Copy)]
struct Windows {
    rounds: u32,
    each: Duration,
}

/// The conv-lowering and lane-sweep phases, whose sides run for hundreds
/// of microseconds to milliseconds.
const PHASE_WINDOWS: Windows = Windows {
    rounds: 8,
    each: Duration::from_millis(40),
};

/// The kernel and prepack rows, whose sides run for microseconds: three
/// times the rounds, half as long, give each side's minimum more chances
/// at an undisturbed stretch of the host.
const KERNEL_WINDOWS: Windows = Windows {
    rounds: 24,
    each: Duration::from_millis(20),
};

/// Seconds per iteration of two competing paths: short alternating windows,
/// keeping each side's fastest, so host-speed drift during the run hits
/// both sides alike instead of whichever ran second.
fn time_interleaved(plan: Windows, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let window = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        let mut iters = 0u32;
        while start.elapsed() < plan.each {
            f();
            iters += 1;
        }
        start.elapsed().as_secs_f64() / f64::from(iters)
    };
    for _ in 0..3 {
        a();
        b();
    }
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..plan.rounds {
        best_a = best_a.min(window(&mut a));
        best_b = best_b.min(window(&mut b));
    }
    (best_a, best_b)
}

/// Runs the full XAI verdict sweep (batched class probabilities + batched
/// input gradients) on an unfrozen and a frozen copy of the same ConvNet:
/// wall time per sweep, output bits, and — via the deterministic trace
/// counters, read outside the timed loops — the per-sweep GEMM pack traffic
/// each side pays.
fn bench_xai_sweep() -> XaiSweepResult {
    let spec = InputSpec {
        channels: 3,
        size: 16,
        num_classes: 43,
    };
    let mut rng = StdRng::seed_from_u64(17);
    let mut plain = Model::new(zoo::build(Arch::ConvNet, spec, &mut rng), spec);
    let mut frozen = plain.clone();
    frozen.freeze_for_inference();
    let batch: Vec<Tensor> = (0..SWEEP_BATCH)
        .map(|_| Tensor::rand_uniform(&[3, 16, 16], 0.0, 1.0, &mut rng))
        .collect();
    let classes: Vec<usize> = (0..SWEEP_BATCH).map(|i| i % spec.num_classes).collect();

    let sweep = |m: &mut Model| {
        let probs = m.predict_proba_batch(&batch).expect("valid batch");
        let grads = m
            .input_gradient_batch(&batch, &classes)
            .expect("valid batch");
        (probs, grads)
    };
    let all_bits = |(probs, grads): (Vec<Tensor>, Vec<Tensor>)| -> Vec<u32> {
        probs
            .iter()
            .chain(grads.iter())
            .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
            .collect()
    };
    let bit_identical = all_bits(sweep(&mut plain)) == all_bits(sweep(&mut frozen));

    // Pack-traffic audit: the counters are deterministic (same shapes → same
    // counts on any machine), so one traced sweep per side suffices.
    remix_trace::set_enabled(true);
    remix_trace::reset();
    sweep(&mut plain);
    let pack_bytes_unfrozen = remix_trace::counter(remix_trace::Counter::GemmPackBytes);
    remix_trace::reset();
    sweep(&mut frozen);
    let pack_bytes_frozen = remix_trace::counter(remix_trace::Counter::GemmPackBytes);
    let prepack_hits = remix_trace::counter(remix_trace::Counter::PrepackHits);
    remix_trace::set_enabled(false);

    let (unfrozen_secs, frozen_secs) = time_interleaved(
        KERNEL_WINDOWS,
        || {
            std::hint::black_box(sweep(&mut plain));
        },
        || {
            std::hint::black_box(sweep(&mut frozen));
        },
    );
    XaiSweepResult {
        model: "ConvNet",
        batch: SWEEP_BATCH,
        unfrozen_secs,
        frozen_secs,
        bit_identical,
        pack_bytes_unfrozen,
        pack_bytes_frozen,
        prepack_hits,
    }
}

/// The training rows, whose sides each run one whole `Trainer::fit`
/// (30–400 ms) per window: a window then holds one fit, and the rounds
/// alternate the two sides fit by fit.
const TRAIN_WINDOWS: Windows = Windows {
    rounds: 8,
    each: Duration::from_millis(1),
};

/// Times `Trainer::fit`, which runs each mini-batch as one lane-major
/// forward/backward, against [`fit_per_sample`] on identically-seeded
/// copies of `arch` at GTSRB scale, in alternating windows, and compares
/// their final weight bits.
fn bench_training(arch: Arch, name: &'static str, size: usize) -> TrainResult {
    let spec = InputSpec {
        channels: 3,
        size,
        num_classes: 43,
    };
    let samples = 96;
    let epochs = 2;
    let mut rng = StdRng::seed_from_u64(11);
    let images: Vec<Tensor> = (0..samples)
        .map(|_| Tensor::rand_uniform(&[3, size, size], 0.0, 1.0, &mut rng))
        .collect();
    let labels: Vec<usize> = (0..samples).map(|i| i % spec.num_classes).collect();
    let config = TrainerConfig {
        epochs,
        batch_size: 32,
        seed: 5,
        ..TrainerConfig::default()
    };
    let init = Model::new(zoo::build(arch, spec, &mut StdRng::seed_from_u64(3)), spec);
    let trainer = Trainer::new(config.clone());
    let per_sample = || {
        let mut model = init.clone();
        fit_per_sample(&config, &mut model, &images, &labels);
        model
    };
    let lanes = || {
        let mut model = init.clone();
        trainer.fit(&mut model, &images, &labels);
        model
    };
    let weight_bits = |mut model: Model| {
        let mut bits = Vec::new();
        model.net_mut().visit_params(&mut |p, _| {
            bits.extend(p.data().iter().map(|v| v.to_bits()));
        });
        bits
    };
    let weights_bit_identical = weight_bits(per_sample()) == weight_bits(lanes());
    let (per_sample_secs, batched_secs) = time_interleaved(
        TRAIN_WINDOWS,
        || {
            std::hint::black_box(per_sample());
        },
        || {
            std::hint::black_box(lanes());
        },
    );
    TrainResult {
        model: name,
        size,
        samples,
        epochs,
        per_sample_secs,
        batched_secs,
        weights_bit_identical,
    }
}

/// The per-sample reference of `Trainer::fit` for an SGD config without
/// sample weights: the same epoch shuffles and, per mini-batch, one
/// one-lane forward/backward per sample in batch order, then the same
/// clipped optimizer step.
fn fit_per_sample(config: &TrainerConfig, model: &mut Model, images: &[Tensor], labels: &[usize]) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut optimizer = Sgd::new(config.lr, config.momentum, config.weight_decay);
    let net = model.net_mut();
    for _ in 0..config.epochs {
        let mut order: Vec<usize> = (0..images.len()).collect();
        order.shuffle(&mut rng);
        for batch in order.chunks(config.batch_size) {
            net.zero_grads();
            for &i in batch {
                let logits = net
                    .forward_lanes(images[i].one_lane(), Mode::Train)
                    .and_then(Tensor::only_lane)
                    .expect("image matches the model");
                let (_, grad) = cross_entropy(&logits, labels[i]);
                net.backward_lanes(grad.one_lane(), Wants::Params)
                    .expect("gradient matches the logits");
            }
            let mut scale = 1.0 / batch.len() as f32;
            if config.grad_clip > 0.0 {
                let mut sq = 0.0f32;
                net.visit_params(&mut |_, g| {
                    sq += g.data().iter().map(|v| v * v).sum::<f32>();
                });
                let norm = sq.sqrt() * scale;
                if norm > config.grad_clip {
                    scale *= config.grad_clip / norm;
                }
            }
            optimizer.step(net, scale);
        }
    }
}

/// Hand-formatted JSON record (the vendored serde_json has no pretty
/// printer) of the kernel, prepacked-weight, XAI-sweep, conv-lowering,
/// lane-sweep and training comparisons.
#[allow(clippy::too_many_arguments)]
fn write_bench_json(
    gemm: &[GemmResult],
    largest_name: &str,
    largest_speedup: f64,
    sweep: &[SweepResult],
    sweep_aggregate: f64,
    dense_aggregate: f64,
    xai: &XaiSweepResult,
    conv: &[ConvResult],
    conv_aggregate: f64,
    lanes: &[LaneSweepResult],
    lane_aggregate: f64,
    training: &[TrainResult],
) -> std::io::Result<()> {
    std::fs::create_dir_all("results")?;
    let mut f = std::fs::File::create("results/bench_gemm.json")?;
    let gemm_entries: Vec<String> = gemm
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"shape\": \"{}\",\n      \"m\": {},\n      \"k\": {},\n      \
                 \"n\": {},\n      \"macs\": {},\n      \"reference_secs_per_iter\": {:.9},\n      \
                 \"blocked_secs_per_iter\": {:.9},\n      \"speedup\": {:.3},\n      \
                 \"bit_identical\": {}\n    }}",
                r.name,
                r.m,
                r.k,
                r.n,
                r.m * r.k * r.n,
                r.reference_secs,
                r.blocked_secs,
                r.reference_secs / r.blocked_secs,
                r.bit_identical
            )
        })
        .collect();
    let sweep_entries: Vec<String> = sweep
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"shape\": \"{}\",\n      \"m\": {},\n      \"k\": {},\n      \
                 \"n\": {},\n      \"dense\": {},\n      \"fresh_secs_per_iter\": {:.9},\n      \
                 \"prepacked_secs_per_iter\": {:.9},\n      \"speedup\": {:.3},\n      \
                 \"prepack_identical\": {}\n    }}",
                r.name,
                r.m,
                r.k,
                r.n,
                r.dense,
                r.fresh_secs,
                r.prepacked_secs,
                r.fresh_secs / r.prepacked_secs,
                r.prepack_identical
            )
        })
        .collect();
    let xai_entry = format!(
        "  \"xai_sweep\": {{\n    \"model\": \"{}\",\n    \"batch\": {},\n    \
         \"unfrozen_secs_per_sweep\": {:.9},\n    \"frozen_secs_per_sweep\": {:.9},\n    \
         \"speedup\": {:.3},\n    \"prepack_identical\": {},\n    \
         \"pack_bytes_per_sweep_unfrozen\": {},\n    \"pack_bytes_per_sweep_frozen\": {},\n    \
         \"pack_bytes_eliminated_fraction\": {:.4},\n    \"prepack_hits_per_sweep\": {}\n  }}",
        xai.model,
        xai.batch,
        xai.unfrozen_secs,
        xai.frozen_secs,
        xai.unfrozen_secs / xai.frozen_secs,
        xai.bit_identical,
        xai.pack_bytes_unfrozen,
        xai.pack_bytes_frozen,
        1.0 - xai.pack_bytes_frozen as f64 / xai.pack_bytes_unfrozen as f64,
        xai.prepack_hits,
    );
    let conv_entries: Vec<String> = conv
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"shape\": \"{}\",\n      \"channels\": {},\n      \
                 \"size\": {},\n      \"filters\": {},\n      \"kernel\": {},\n      \
                 \"stride\": {},\n      \"pad\": {},\n      \"batch\": {CONV_BATCH},\n      \
                 \"unfolded_secs_per_iter\": {:.9},\n      \
                 \"panel_secs_per_iter\": {:.9},\n      \"speedup\": {:.3},\n      \
                 \"lowering_identical\": {}\n    }}",
                r.name,
                r.geo.in_channels,
                r.geo.in_h,
                r.filters,
                r.geo.kernel,
                r.geo.stride,
                r.geo.pad,
                r.unfolded_secs,
                r.panel_secs,
                r.unfolded_secs / r.panel_secs,
                r.lowering_identical
            )
        })
        .collect();
    let lane_entries: Vec<String> = lanes
        .iter()
        .map(|r| {
            format!(
                "    {{\n      \"model\": \"{}\",\n      \"batch\": {LANE_SWEEP_BATCH},\n      \
                 \"per_sample_secs_per_iter\": {:.9},\n      \
                 \"lanes_secs_per_iter\": {:.9},\n      \"speedup\": {:.3},\n      \
                 \"lanes_identical\": {}\n    }}",
                r.model,
                r.per_sample_secs,
                r.lanes_secs,
                r.per_sample_secs / r.lanes_secs,
                r.lanes_identical
            )
        })
        .collect();
    let train_entries: Vec<String> = training
        .iter()
        .map(|r| {
            let trained = (r.samples * r.epochs) as f64;
            let baseline = baseline_fit_secs(r.model, r.size);
            format!(
                "    {{\n      \"model\": \"{}\",\n      \"input_size\": {},\n      \
                 \"samples\": {},\n      \
                 \"epochs\": {},\n      \"batch_size\": 32,\n      \
                 \"per_sample_secs\": {:.6},\n      \"batched_secs\": {:.6},\n      \
                 \"per_sample_samples_per_sec\": {:.3},\n      \
                 \"batched_samples_per_sec\": {:.3},\n      \"speedup\": {:.3},\n      \
                 \"baseline_per_sample_secs\": {:.6},\n      \
                 \"speedup_vs_baseline\": {:.3},\n      \
                 \"weights_bit_identical\": {}\n    }}",
                r.model,
                r.size,
                r.samples,
                r.epochs,
                r.per_sample_secs,
                r.batched_secs,
                trained / r.per_sample_secs,
                trained / r.batched_secs,
                r.per_sample_secs / r.batched_secs,
                baseline,
                baseline / r.batched_secs,
                r.weights_bit_identical
            )
        })
        .collect();
    writeln!(
        f,
        "{{\n  \"benchmark\": \"bench_gemm\",\n  \"threads\": 1,\n  \
         \"gemm\": [\n{}\n  ],\n  \"largest_shape\": \"{largest_name}\",\n  \
         \"largest_shape_speedup\": {largest_speedup:.3},\n  \
         \"prepack_sweep\": [\n{}\n  ],\n  \
         \"prepack_sweep_aggregate_speedup\": {sweep_aggregate:.3},\n  \
         \"prepack_dense_aggregate_speedup\": {dense_aggregate:.3},\n{},\n  \
         \"conv_lowering\": [\n{}\n  ],\n  \
         \"conv_lowering_identical\": {},\n  \
         \"conv_lowering_aggregate_speedup\": {conv_aggregate:.3},\n  \
         \"lane_sweep\": [\n{}\n  ],\n  \
         \"lane_sweep_identical\": {},\n  \
         \"lane_sweep_aggregate_speedup\": {lane_aggregate:.3},\n  \
         \"training\": [\n{}\n  ]\n}}",
        gemm_entries.join(",\n"),
        sweep_entries.join(",\n"),
        xai_entry,
        conv_entries.join(",\n"),
        conv.iter().all(|r| r.lowering_identical),
        lane_entries.join(",\n"),
        lanes.iter().all(|r| r.lanes_identical),
        train_entries.join(",\n"),
    )
}
