//! The nine-architecture model zoo of Table III, scaled for CPU training.
//!
//! Each architecture keeps its *distinguishing structure* — the property the
//! paper's ensembles exploit for diversity — while width and depth are reduced
//! so a model trains in seconds on one core:
//!
//! * ConvNet / DeconvNet — plain conv stacks (+ dropout for DeconvNet);
//! * VGG11 / VGG16 — deep homogeneous 3×3 conv groups with max pooling and a
//!   fully-connected head;
//! * ResNet18 — basic residual blocks; ResNet50 — bottleneck residual blocks;
//! * MobileNet — depthwise-separable convolutions;
//! * EfficientNetV2-B0/B1 — Fused-MBConv early stages and MBConv (with
//!   squeeze-excitation) late stages.

use crate::layers::{
    AvgPool2d, Conv2d, Dense, DepthwiseConv2d, Dropout, Flatten, GlobalAvgPool, InstanceNorm2d,
    MaxPool2d, Relu, Residual, SqueezeExcite,
};
use crate::Sequential;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Input/output contract of a classifier: square `size`×`size` images with
/// `channels` channels, mapped to `num_classes` logits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InputSpec {
    /// Image channels (1 = grayscale, 3 = RGB).
    pub channels: usize,
    /// Image side length in pixels. Must be divisible by 8 for the deeper
    /// zoo architectures.
    pub size: usize,
    /// Number of label classes.
    pub num_classes: usize,
}

/// The nine architectures of the paper's Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Arch {
    /// 3 conv + 3 FC with max pooling.
    ConvNet,
    /// 4 conv + 2 FC with 0.5 dropout.
    DeconvNet,
    /// Deep homogeneous conv groups (scaled VGG-11).
    Vgg11,
    /// Deeper homogeneous conv groups (scaled VGG-16).
    Vgg16,
    /// Basic-block residual network (scaled ResNet-18).
    ResNet18,
    /// Bottleneck-block residual network (scaled ResNet-50).
    ResNet50,
    /// Depthwise-separable conv network (scaled MobileNet).
    MobileNet,
    /// Fused-MBConv + MBConv network (scaled EfficientNetV2-B0).
    EfficientNetV2B0,
    /// Deeper Fused-MBConv + MBConv network (scaled EfficientNetV2-B1).
    EfficientNetV2B1,
}

impl Arch {
    /// All nine architectures in Table III order.
    pub const ALL: [Arch; 9] = [
        Arch::ConvNet,
        Arch::DeconvNet,
        Arch::Vgg11,
        Arch::Vgg16,
        Arch::ResNet18,
        Arch::ResNet50,
        Arch::MobileNet,
        Arch::EfficientNetV2B0,
        Arch::EfficientNetV2B1,
    ];

    /// Short display name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Arch::ConvNet => "ConvNet",
            Arch::DeconvNet => "DeconvNet",
            Arch::Vgg11 => "VGG11",
            Arch::Vgg16 => "VGG16",
            Arch::ResNet18 => "ResNet18",
            Arch::ResNet50 => "ResNet50",
            Arch::MobileNet => "MobileNet",
            Arch::EfficientNetV2B0 => "EfficientNetv2B0",
            Arch::EfficientNetV2B1 => "EfficientNetv2B1",
        }
    }

    /// Default learning rate for this architecture: the plain conv stacks
    /// train stably only at lower rates, while the normalized deep nets need
    /// higher ones to converge within a few epochs.
    pub fn default_lr(&self) -> f32 {
        match self {
            Arch::ConvNet | Arch::DeconvNet | Arch::Vgg11 | Arch::Vgg16 => 0.01,
            _ => 0.04,
        }
    }

    /// One-line architecture summary (Table III column).
    pub fn summary(&self) -> &'static str {
        match self {
            Arch::ConvNet => "3 Conv + 3 FC + Max Pooling",
            Arch::DeconvNet => "4 Conv + 2 FC w/ 0.5 Dropout",
            Arch::Vgg11 => "6 Conv + 3 FC + Max Pooling (scaled VGG11)",
            Arch::Vgg16 => "9 Conv + 3 FC + Max Pooling (scaled VGG16)",
            Arch::ResNet18 => "Basic residual blocks + Avg Pooling",
            Arch::ResNet50 => "Bottleneck residual blocks + Avg Pooling",
            Arch::MobileNet => "Depthwise-separable Conv + Avg Pooling",
            Arch::EfficientNetV2B0 => "Fused-MBConv + MBConv(SE) + 1 FC",
            Arch::EfficientNetV2B1 => "Fused-MBConv + MBConv(SE) + 1 FC (deeper)",
        }
    }
}

impl std::fmt::Display for Arch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

type Shape = (usize, usize, usize);

/// Appends Conv→BN→ReLU and returns the new activation shape.
fn conv_bn_relu(
    net: &mut Sequential,
    shape: Shape,
    filters: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    rng: &mut impl Rng,
) -> Shape {
    let conv = Conv2d::new(shape, filters, kernel, stride, pad, rng);
    let out = conv.out_shape();
    net.push(conv);
    net.push(InstanceNorm2d::new(out));
    net.push(Relu::new());
    out
}

/// Appends Conv→ReLU (no BN; used by the plain conv stacks).
fn conv_relu(
    net: &mut Sequential,
    shape: Shape,
    filters: usize,
    kernel: usize,
    stride: usize,
    pad: usize,
    rng: &mut impl Rng,
) -> Shape {
    let conv = Conv2d::new(shape, filters, kernel, stride, pad, rng);
    let out = conv.out_shape();
    net.push(conv);
    net.push(Relu::new());
    out
}

fn maxpool(net: &mut Sequential, shape: Shape) -> Shape {
    let pool = MaxPool2d::new(shape, 2);
    let out = pool.out_shape();
    net.push(pool);
    out
}

fn head(net: &mut Sequential, shape: Shape, num_classes: usize, rng: &mut impl Rng) {
    // Average-pool down to 2×2 instead of 1×1: after instance normalization a
    // global average is nearly information-free (channels are standardized),
    // so the head keeps a little spatial structure before the classifier.
    let mut s = shape;
    if s.1 >= 4 && s.1.is_multiple_of(2) {
        let pool = AvgPool2d::new(s, s.1 / 2);
        s = pool.out_shape();
        net.push(pool);
        net.push(Flatten::new());
        net.push(Dense::new(s.0 * s.1 * s.2, num_classes, rng));
    } else {
        net.push(GlobalAvgPool::new(s));
        net.push(Dense::new(s.0, num_classes, rng));
    }
}

fn convnet(spec: InputSpec, rng: &mut impl Rng) -> Sequential {
    let mut net = Sequential::new();
    let mut s = (spec.channels, spec.size, spec.size);
    s = conv_relu(&mut net, s, 8, 3, 1, 1, rng);
    s = maxpool(&mut net, s);
    s = conv_relu(&mut net, s, 16, 3, 1, 1, rng);
    s = maxpool(&mut net, s);
    s = conv_relu(&mut net, s, 16, 3, 1, 1, rng);
    net.push(Flatten::new());
    let flat = s.0 * s.1 * s.2;
    net.push(Dense::new(flat, 48, rng));
    net.push(Relu::new());
    net.push(Dense::new(48, 24, rng));
    net.push(Relu::new());
    net.push(Dense::new(24, spec.num_classes, rng));
    net
}

fn deconvnet(spec: InputSpec, rng: &mut impl Rng) -> Sequential {
    let mut net = Sequential::new();
    let mut s = (spec.channels, spec.size, spec.size);
    s = conv_relu(&mut net, s, 8, 3, 1, 1, rng);
    s = conv_relu(&mut net, s, 8, 3, 1, 1, rng);
    s = maxpool(&mut net, s);
    s = conv_relu(&mut net, s, 16, 3, 1, 1, rng);
    s = conv_relu(&mut net, s, 16, 3, 1, 1, rng);
    s = maxpool(&mut net, s);
    net.push(Flatten::new());
    net.push(Dropout::new(0.5, rng.gen()));
    let flat = s.0 * s.1 * s.2;
    net.push(Dense::new(flat, 32, rng));
    net.push(Relu::new());
    net.push(Dense::new(32, spec.num_classes, rng));
    net
}

fn vgg(spec: InputSpec, groups: &[&[usize]], rng: &mut impl Rng) -> Sequential {
    let mut net = Sequential::new();
    let mut s = (spec.channels, spec.size, spec.size);
    for (gi, group) in groups.iter().enumerate() {
        for &filters in *group {
            s = conv_relu(&mut net, s, filters, 3, 1, 1, rng);
        }
        // pool after every group while the resolution allows it
        if gi < 3 && s.1 >= 4 {
            s = maxpool(&mut net, s);
        }
    }
    net.push(Flatten::new());
    let flat = s.0 * s.1 * s.2;
    net.push(Dense::new(flat, 48, rng));
    net.push(Relu::new());
    net.push(Dense::new(48, 48, rng));
    net.push(Relu::new());
    net.push(Dense::new(48, spec.num_classes, rng));
    net
}

/// Basic residual block (two 3×3 convs) with ReLU after the addition.
fn basic_block(
    net: &mut Sequential,
    shape: Shape,
    filters: usize,
    stride: usize,
    rng: &mut impl Rng,
) -> Shape {
    let mut body = Sequential::new();
    let conv1 = Conv2d::new(shape, filters, 3, stride, 1, rng);
    let mid = conv1.out_shape();
    body.push(conv1);
    body.push(InstanceNorm2d::new(mid));
    body.push(Relu::new());
    let conv2 = Conv2d::new(mid, filters, 3, 1, 1, rng);
    let out = conv2.out_shape();
    body.push(conv2);
    body.push(InstanceNorm2d::new(out));
    if stride != 1 || shape.0 != filters {
        net.push(Residual::projected(body, shape, filters, stride, rng));
    } else {
        net.push(Residual::identity(body));
    }
    net.push(Relu::new());
    out
}

/// Bottleneck residual block (1×1 reduce, 3×3, 1×1 expand).
fn bottleneck_block(
    net: &mut Sequential,
    shape: Shape,
    mid: usize,
    out_ch: usize,
    stride: usize,
    rng: &mut impl Rng,
) -> Shape {
    let mut body = Sequential::new();
    let c1 = Conv2d::new(shape, mid, 1, 1, 0, rng);
    let s1 = c1.out_shape();
    body.push(c1);
    body.push(InstanceNorm2d::new(s1));
    body.push(Relu::new());
    let c2 = Conv2d::new(s1, mid, 3, stride, 1, rng);
    let s2 = c2.out_shape();
    body.push(c2);
    body.push(InstanceNorm2d::new(s2));
    body.push(Relu::new());
    let c3 = Conv2d::new(s2, out_ch, 1, 1, 0, rng);
    let s3 = c3.out_shape();
    body.push(c3);
    body.push(InstanceNorm2d::new(s3));
    if stride != 1 || shape.0 != out_ch {
        net.push(Residual::projected(body, shape, out_ch, stride, rng));
    } else {
        net.push(Residual::identity(body));
    }
    net.push(Relu::new());
    s3
}

fn resnet18(spec: InputSpec, rng: &mut impl Rng) -> Sequential {
    let mut net = Sequential::new();
    let mut s = (spec.channels, spec.size, spec.size);
    s = conv_bn_relu(&mut net, s, 8, 3, 1, 1, rng);
    s = basic_block(&mut net, s, 8, 1, rng);
    s = basic_block(&mut net, s, 8, 1, rng);
    s = basic_block(&mut net, s, 16, 2, rng);
    s = basic_block(&mut net, s, 16, 1, rng);
    s = basic_block(&mut net, s, 32, 2, rng);
    s = basic_block(&mut net, s, 32, 1, rng);
    let mut tail = Sequential::new();
    head(&mut tail, s, spec.num_classes, rng);
    net.push(tail);
    net
}

fn resnet50(spec: InputSpec, rng: &mut impl Rng) -> Sequential {
    let mut net = Sequential::new();
    let mut s = (spec.channels, spec.size, spec.size);
    s = conv_bn_relu(&mut net, s, 8, 3, 1, 1, rng);
    s = bottleneck_block(&mut net, s, 4, 16, 1, rng);
    s = bottleneck_block(&mut net, s, 4, 16, 1, rng);
    s = bottleneck_block(&mut net, s, 8, 32, 2, rng);
    s = bottleneck_block(&mut net, s, 8, 32, 1, rng);
    s = bottleneck_block(&mut net, s, 16, 64, 2, rng);
    s = bottleneck_block(&mut net, s, 16, 64, 1, rng);
    let mut tail = Sequential::new();
    head(&mut tail, s, spec.num_classes, rng);
    net.push(tail);
    net
}

/// Depthwise-separable block: DW 3×3 → BN → ReLU → PW 1×1 → BN → ReLU.
fn dw_separable(
    net: &mut Sequential,
    shape: Shape,
    out_ch: usize,
    stride: usize,
    rng: &mut impl Rng,
) -> Shape {
    let dw = DepthwiseConv2d::new(shape, 3, stride, 1, rng);
    let mid = dw.out_shape();
    net.push(dw);
    net.push(InstanceNorm2d::new(mid));
    net.push(Relu::new());
    conv_bn_relu(net, mid, out_ch, 1, 1, 0, rng)
}

fn mobilenet(spec: InputSpec, rng: &mut impl Rng) -> Sequential {
    let mut net = Sequential::new();
    let mut s = (spec.channels, spec.size, spec.size);
    s = conv_bn_relu(&mut net, s, 8, 3, 1, 1, rng);
    s = dw_separable(&mut net, s, 16, 1, rng);
    s = dw_separable(&mut net, s, 16, 2, rng);
    s = dw_separable(&mut net, s, 32, 1, rng);
    s = dw_separable(&mut net, s, 32, 2, rng);
    s = dw_separable(&mut net, s, 32, 1, rng);
    head(&mut net, s, spec.num_classes, rng);
    net
}

/// Fused-MBConv: expand 3×3 conv → BN → ReLU → project 1×1 conv → BN, with a
/// residual connection.
fn fused_mbconv(
    net: &mut Sequential,
    shape: Shape,
    out_ch: usize,
    expand: usize,
    stride: usize,
    rng: &mut impl Rng,
) -> Shape {
    let mut body = Sequential::new();
    let c1 = Conv2d::new(shape, shape.0 * expand, 3, stride, 1, rng);
    let mid = c1.out_shape();
    body.push(c1);
    body.push(InstanceNorm2d::new(mid));
    body.push(Relu::new());
    let c2 = Conv2d::new(mid, out_ch, 1, 1, 0, rng);
    let out = c2.out_shape();
    body.push(c2);
    body.push(InstanceNorm2d::new(out));
    if stride != 1 || shape.0 != out_ch {
        net.push(Residual::projected(body, shape, out_ch, stride, rng));
    } else {
        net.push(Residual::identity(body));
    }
    net.push(Relu::new());
    out
}

/// MBConv with squeeze-excitation: expand 1×1 → BN → ReLU → DW 3×3 → BN →
/// ReLU → SE → project 1×1 → BN, with a residual connection.
fn mbconv_se(
    net: &mut Sequential,
    shape: Shape,
    out_ch: usize,
    expand: usize,
    stride: usize,
    rng: &mut impl Rng,
) -> Shape {
    let mut body = Sequential::new();
    let c1 = Conv2d::new(shape, shape.0 * expand, 1, 1, 0, rng);
    let s1 = c1.out_shape();
    body.push(c1);
    body.push(InstanceNorm2d::new(s1));
    body.push(Relu::new());
    let dw = DepthwiseConv2d::new(s1, 3, stride, 1, rng);
    let s2 = dw.out_shape();
    body.push(dw);
    body.push(InstanceNorm2d::new(s2));
    body.push(Relu::new());
    body.push(SqueezeExcite::new(s2, 4, rng));
    let c2 = Conv2d::new(s2, out_ch, 1, 1, 0, rng);
    let out = c2.out_shape();
    body.push(c2);
    body.push(InstanceNorm2d::new(out));
    if stride != 1 || shape.0 != out_ch {
        net.push(Residual::projected(body, shape, out_ch, stride, rng));
    } else {
        net.push(Residual::identity(body));
    }
    net.push(Relu::new());
    out
}

fn efficientnet(spec: InputSpec, deeper: bool, rng: &mut impl Rng) -> Sequential {
    let mut net = Sequential::new();
    let mut s = (spec.channels, spec.size, spec.size);
    s = conv_bn_relu(&mut net, s, 8, 3, 1, 1, rng);
    s = fused_mbconv(&mut net, s, 8, 1, 1, rng);
    s = fused_mbconv(&mut net, s, 16, 2, 2, rng);
    if deeper {
        s = fused_mbconv(&mut net, s, 16, 2, 1, rng);
    }
    s = mbconv_se(&mut net, s, 16, 2, 1, rng);
    s = mbconv_se(&mut net, s, 32, 2, 2, rng);
    if deeper {
        s = mbconv_se(&mut net, s, 32, 2, 1, rng);
    }
    head(&mut net, s, spec.num_classes, rng);
    net
}

/// Builds a freshly-initialized network of the given architecture.
///
/// # Panics
///
/// Panics if `spec.size` is too small for the architecture's downsampling
/// chain (sizes divisible by 8 and ≥ 8 are always safe).
pub fn build(arch: Arch, spec: InputSpec, rng: &mut impl Rng) -> Sequential {
    match arch {
        Arch::ConvNet => convnet(spec, rng),
        Arch::DeconvNet => deconvnet(spec, rng),
        Arch::Vgg11 => vgg(spec, &[&[8], &[16], &[24, 24], &[32, 32]], rng),
        Arch::Vgg16 => vgg(spec, &[&[8, 8], &[16, 16], &[24, 24, 24], &[32, 32]], rng),
        Arch::ResNet18 => resnet18(spec, rng),
        Arch::ResNet50 => resnet50(spec, rng),
        Arch::MobileNet => mobilenet(spec, rng),
        Arch::EfficientNetV2B0 => efficientnet(spec, false, rng),
        Arch::EfficientNetV2B1 => efficientnet(spec, true, rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{backward_one, forward_one};
    use crate::{Layer, Mode, Wants};
    use rand::{rngs::StdRng, SeedableRng};
    use remix_tensor::Tensor;

    fn spec() -> InputSpec {
        InputSpec {
            channels: 1,
            size: 16,
            num_classes: 5,
        }
    }

    #[test]
    fn every_arch_builds_and_runs_forward() {
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::randn(&[1, 16, 16], 1.0, &mut rng);
        for arch in Arch::ALL {
            let mut net = build(arch, spec(), &mut rng);
            let y = forward_one(&mut net, &x, Mode::Eval);
            assert_eq!(y.len(), 5, "{arch} output size");
            assert!(!y.has_non_finite(), "{arch} produced NaN/inf");
        }
    }

    #[test]
    fn every_arch_backpropagates_to_input() {
        let mut rng = StdRng::seed_from_u64(2);
        let x = Tensor::randn(&[1, 16, 16], 1.0, &mut rng);
        for arch in Arch::ALL {
            let mut net = build(arch, spec(), &mut rng);
            forward_one(&mut net, &x, Mode::Eval);
            let dx = backward_one(&mut net, &Tensor::ones(&[5]), Wants::Input);
            assert_eq!(dx.shape(), x.shape(), "{arch} input grad shape");
            assert!(dx.abs().sum() > 0.0, "{arch} zero input gradient");
        }
    }

    #[test]
    fn rgb_and_larger_inputs_work() {
        let mut rng = StdRng::seed_from_u64(3);
        let spec = InputSpec {
            channels: 3,
            size: 32,
            num_classes: 10,
        };
        let x = Tensor::randn(&[3, 32, 32], 1.0, &mut rng);
        for arch in [Arch::ConvNet, Arch::ResNet50, Arch::EfficientNetV2B1] {
            let mut net = build(arch, spec, &mut rng);
            assert_eq!(forward_one(&mut net, &x, Mode::Eval).len(), 10, "{arch}");
        }
    }

    #[test]
    fn architectures_have_distinct_parameter_counts() {
        let mut rng = StdRng::seed_from_u64(4);
        let counts: Vec<usize> = Arch::ALL
            .iter()
            .map(|&a| build(a, spec(), &mut rng).param_count())
            .collect();
        // all nonzero and not all identical
        assert!(counts.iter().all(|&c| c > 0));
        assert!(counts.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn b1_is_deeper_than_b0() {
        let mut rng = StdRng::seed_from_u64(5);
        let b0 = build(Arch::EfficientNetV2B0, spec(), &mut rng).param_count();
        let b1 = build(Arch::EfficientNetV2B1, spec(), &mut rng).param_count();
        assert!(b1 > b0);
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(Arch::Vgg11.name(), "VGG11");
        assert_eq!(Arch::EfficientNetV2B0.name(), "EfficientNetv2B0");
        assert_eq!(Arch::ALL.len(), 9);
    }
}
