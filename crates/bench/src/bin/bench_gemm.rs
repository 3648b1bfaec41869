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
use remix_bench::{print_rows, round, write_record};
use remix_nn::{
    cross_entropy, zoo, Arch, InputSpec, Layer, Mode, Model, Optimizer, Sgd, Trainer,
    TrainerConfig, Wants,
};
use remix_tensor::{im2row_batch_into, row2im_batch, Conv2dGeometry, PackedOperand, Tensor};
use serde::Serialize;
use std::time::{Duration, Instant};

/// `results/bench_gemm.json`.
#[derive(Serialize)]
struct Record {
    benchmark: &'static str,
    threads: usize,
    /// The SIMD level the dispatched kernels ran at
    /// (`remix_tensor::simd_level`).
    simd_level: &'static str,
    gemm: Vec<GemmRow>,
    prepack_sweep: Vec<SweepRow>,
    prepack_sweep_aggregate_speedup: f64,
    prepack_dense_aggregate_speedup: f64,
    xai_sweep: XaiSweepRow,
    conv_lowering: Vec<ConvRow>,
    conv_lowering_identical: bool,
    conv_lowering_aggregate_speedup: f64,
    lane_sweep: Vec<LaneRow>,
    lane_sweep_identical: bool,
    lane_sweep_aggregate_speedup: f64,
    training: Vec<TrainRow>,
}

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

#[derive(Serialize)]
struct GemmRow {
    shape: &'static str,
    m: usize,
    k: usize,
    n: usize,
    macs: usize,
    reference_secs_per_iter: f64,
    blocked_secs_per_iter: f64,
    speedup: f64,
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

#[derive(Serialize)]
struct SweepRow {
    shape: &'static str,
    /// GEMM output rows / inner dim / output cols (not the weight layout).
    m: usize,
    k: usize,
    n: usize,
    /// True for the dense-stack rows, which form the gated dense aggregate.
    dense: bool,
    fresh_secs_per_iter: f64,
    prepacked_secs_per_iter: f64,
    speedup: f64,
    prepack_identical: bool,
}

/// End-to-end frozen-vs-unfrozen XAI sweep on a real model: wall time, output
/// bits, and the deterministic pack-traffic counters.
#[derive(Serialize)]
struct XaiSweepRow {
    model: &'static str,
    batch: usize,
    unfrozen_secs_per_sweep: f64,
    frozen_secs_per_sweep: f64,
    speedup: f64,
    prepack_identical: bool,
    pack_bytes_per_sweep_unfrozen: u64,
    pack_bytes_per_sweep_frozen: u64,
    pack_bytes_eliminated_fraction: f64,
    prepack_hits_per_sweep: u64,
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

#[derive(Serialize)]
struct ConvRow {
    shape: &'static str,
    channels: usize,
    size: usize,
    filters: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    batch: usize,
    unfolded_secs_per_iter: f64,
    panel_secs_per_iter: f64,
    speedup: f64,
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

#[derive(Serialize)]
struct LaneRow {
    model: &'static str,
    batch: usize,
    per_sample_secs_per_iter: f64,
    lanes_secs_per_iter: f64,
    speedup: f64,
    lanes_identical: bool,
}

#[derive(Serialize)]
struct TrainRow {
    model: &'static str,
    input_size: usize,
    samples: usize,
    epochs: usize,
    batch_size: usize,
    per_sample_secs: f64,
    batched_secs: f64,
    per_sample_samples_per_sec: f64,
    batched_samples_per_sec: f64,
    speedup: f64,
    weights_bit_identical: bool,
}

fn main() {
    // Pin to one thread before anything touches the pool: the microbench
    // isolates the kernel, and the training gate is specified single-thread.
    std::env::set_var("REMIX_THREADS", "1");

    println!("GEMM kernel — blocked vs reference (1 thread)\n");
    let gemm: Vec<GemmRow> = SHAPES.iter().map(bench_shape).collect();
    print_rows(&gemm);

    println!(
        "\nPrepacked weights — frozen vs per-call packing (XAI-sweep scale, batch {SWEEP_BATCH})\n"
    );
    let prepack_sweep: Vec<SweepRow> = SWEEP_SHAPES.iter().map(bench_sweep_shape).collect();
    print_rows(&prepack_sweep);
    let secs = |r: &&SweepRow| (r.fresh_secs_per_iter, r.prepacked_secs_per_iter);
    let sweep_aggregate = aggregate(prepack_sweep.iter(), secs);
    let dense_aggregate = aggregate(prepack_sweep.iter().filter(|r| r.dense), secs);
    println!(
        "\nAggregate sweep GEMM time: {sweep_aggregate:.2}x; dense stack alone: \
         {dense_aggregate:.2}x (target ≥ 1.1x)"
    );

    println!("\nXAI sweep — frozen vs unfrozen model, with per-sweep pack traffic\n");
    let xai = bench_xai_sweep();
    print_rows(std::slice::from_ref(&xai));

    println!(
        "\nConv lowering — image panels + fused fold vs unfolded rows + row2im \
         (frozen, forward + input gradient, batch {CONV_BATCH})\n"
    );
    let conv_lowering: Vec<ConvRow> = CONV_SHAPES.iter().map(bench_conv_shape).collect();
    print_rows(&conv_lowering);
    let conv_aggregate = aggregate(conv_lowering.iter(), |r| {
        (r.unfolded_secs_per_iter, r.panel_secs_per_iter)
    });
    println!("\nAggregate conv lowering time: {conv_aggregate:.2}x");

    println!(
        "\nLane sweep — one lane-major input_gradient_batch vs per-sample input_gradient \
         (frozen, 3×16×16, batch {LANE_SWEEP_BATCH})\n"
    );
    let lane_sweep: Vec<LaneRow> = LANE_SWEEP_MODELS
        .iter()
        .map(|&(arch, name)| bench_lane_sweep(arch, name))
        .collect();
    print_rows(&lane_sweep);
    let lane_aggregate = aggregate(lane_sweep.iter(), |r| {
        (r.per_sample_secs_per_iter, r.lanes_secs_per_iter)
    });
    println!("\nAggregate lane sweep time: {lane_aggregate:.2}x");

    println!(
        "\nTraining — lane-major Trainer::fit vs one-lane steps per sample (batch 32, 1 thread)\n"
    );
    let training = vec![
        bench_training(Arch::ConvNet, "ConvNet", 16),
        bench_training(Arch::ConvNet, "ConvNet", 32),
        bench_training(Arch::MobileNet, "MobileNet", 16),
        bench_training(Arch::MobileNet, "MobileNet", 32),
    ];
    print_rows(&training);

    let identical = gemm.iter().all(|r| r.bit_identical)
        && prepack_sweep.iter().all(|r| r.prepack_identical)
        && xai.prepack_identical
        && conv_lowering.iter().all(|r| r.lowering_identical)
        && lane_sweep.iter().all(|r| r.lanes_identical)
        && training.iter().all(|r| r.weights_bit_identical);
    write_record(
        "bench_gemm.json",
        &Record {
            benchmark: "bench_gemm",
            threads: 1,
            simd_level: remix_tensor::simd_level().name(),
            gemm,
            prepack_sweep,
            prepack_sweep_aggregate_speedup: round(sweep_aggregate, 3),
            prepack_dense_aggregate_speedup: round(dense_aggregate, 3),
            xai_sweep: xai,
            conv_lowering_identical: conv_lowering.iter().all(|r| r.lowering_identical),
            conv_lowering,
            conv_lowering_aggregate_speedup: round(conv_aggregate, 3),
            lane_sweep_identical: lane_sweep.iter().all(|r| r.lanes_identical),
            lane_sweep,
            lane_sweep_aggregate_speedup: round(lane_aggregate, 3),
            training,
        },
    );
    if !identical {
        eprintln!(
            "ERROR: blocked/prepacked/panel-lowered/lane-major/batched path diverged bitwise \
             from the reference path"
        );
        std::process::exit(1);
    }
}

/// Summed reference seconds over summed optimized seconds, where `secs`
/// reads a row's `(reference, optimized)` pair.
fn aggregate<T>(rows: impl Iterator<Item = T>, secs: impl Fn(&T) -> (f64, f64)) -> f64 {
    let (reference, optimized) = rows
        .map(|r| secs(&r))
        .fold((0.0, 0.0), |(a, b), (x, y)| (a + x, b + y));
    reference / optimized
}

/// Times one shape: the retained reference kernel (which allocates its
/// output per call, as the pre-blocking `matmul` did) against the blocked
/// kernel driven through `matmul_into` with reused scratch (the batched
/// engine's steady state). Also checks the results are bit-identical.
fn bench_shape(shape: &GemmShape) -> GemmRow {
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

    GemmRow {
        shape: shape.name,
        m,
        k,
        n,
        macs: m * k * n,
        reference_secs_per_iter: round(reference_secs, 9),
        blocked_secs_per_iter: round(blocked_secs, 9),
        speedup: round(reference_secs / blocked_secs, 3),
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
fn bench_sweep_shape(s: &SweepShape) -> SweepRow {
    let mut rng = StdRng::seed_from_u64(13);
    let w = Tensor::rand_uniform(&[s.wm, s.wk], -1.0, 1.0, &mut rng);
    let ((m, k, n), (fresh_secs, prepacked_secs, prepack_identical)) = match s.op {
        SweepOp::DenseFwd => {
            let x = Tensor::rand_uniform(&[s.wk, s.n], -1.0, 1.0, &mut rng);
            let pw = w.prepack_a().expect("weights are rank 2");
            let timed = timed_pair(
                |o, p| w.matmul_into(&x, o, p).expect("shapes agree"),
                |o, p| pw.matmul_prepacked_into(&x, o, p).expect("shapes agree"),
            );
            ((s.wm, s.wk, s.n), timed)
        }
        SweepOp::DenseDx | SweepOp::ConvDx => {
            let g = Tensor::rand_uniform(&[s.wm, s.n], -1.0, 1.0, &mut rng);
            let pw = w.prepack_at().expect("weights are rank 2");
            let timed = timed_pair(
                |o, p| w.matmul_at_b_into(&g, o, p).expect("shapes agree"),
                |o, p| {
                    pw.matmul_at_b_prepacked_into(&g, o, p)
                        .expect("shapes agree")
                },
            );
            ((s.wk, s.wm, s.n), timed)
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
            ((s.wm, s.wk, s.n), timed)
        }
    };
    SweepRow {
        shape: s.name,
        m,
        k,
        n,
        dense: matches!(s.op, SweepOp::DenseFwd | SweepOp::DenseDx),
        fresh_secs_per_iter: round(fresh_secs, 9),
        prepacked_secs_per_iter: round(prepacked_secs, 9),
        speedup: round(fresh_secs / prepacked_secs, 3),
        prepack_identical,
    }
}

/// Times one conv shape through both frozen lowerings — forward plus input
/// gradient, as one SmoothGrad sweep runs them — and bit-compares the
/// forward products and the folded input gradients.
fn bench_conv_shape(s: &ConvShape) -> ConvRow {
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
    ConvRow {
        shape: s.name,
        channels: s.channels,
        size: s.size,
        filters: s.filters,
        kernel: s.kernel,
        stride: s.stride,
        pad: s.pad,
        batch: CONV_BATCH,
        unfolded_secs_per_iter: round(unfolded_secs, 9),
        panel_secs_per_iter: round(panel_secs, 9),
        speedup: round(unfolded_secs / panel_secs, 3),
        lowering_identical,
    }
}

/// Times one frozen serving member's input-gradient sweep: 16 per-sample
/// `input_gradient` calls against one lane-major `input_gradient_batch`,
/// each side on its own copy of the model, with a bitwise gate on the
/// gradients.
fn bench_lane_sweep(arch: Arch, name: &'static str) -> LaneRow {
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
    LaneRow {
        model: name,
        batch: LANE_SWEEP_BATCH,
        per_sample_secs_per_iter: round(per_sample_secs, 9),
        lanes_secs_per_iter: round(lanes_secs, 9),
        speedup: round(per_sample_secs / lanes_secs, 3),
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
fn bench_xai_sweep() -> XaiSweepRow {
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
    XaiSweepRow {
        model: "ConvNet",
        batch: SWEEP_BATCH,
        unfrozen_secs_per_sweep: round(unfrozen_secs, 9),
        frozen_secs_per_sweep: round(frozen_secs, 9),
        speedup: round(unfrozen_secs / frozen_secs, 3),
        prepack_identical: bit_identical,
        pack_bytes_per_sweep_unfrozen: pack_bytes_unfrozen,
        pack_bytes_per_sweep_frozen: pack_bytes_frozen,
        pack_bytes_eliminated_fraction: round(
            1.0 - pack_bytes_frozen as f64 / pack_bytes_unfrozen as f64,
            4,
        ),
        prepack_hits_per_sweep: prepack_hits,
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
fn bench_training(arch: Arch, name: &'static str, size: usize) -> TrainRow {
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
    let trained = (samples * epochs) as f64;
    TrainRow {
        model: name,
        input_size: size,
        samples,
        epochs,
        batch_size: config.batch_size,
        per_sample_secs: round(per_sample_secs, 6),
        batched_secs: round(batched_secs, 6),
        per_sample_samples_per_sec: round(trained / per_sample_secs, 3),
        batched_samples_per_sec: round(trained / batched_secs, 3),
        speedup: round(per_sample_secs / batched_secs, 3),
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
