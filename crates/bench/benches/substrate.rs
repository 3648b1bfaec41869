//! Criterion micro-benches of the substrate components: tensor algebra,
//! convolution lowering, model forward/backward, fault injection, and
//! dataset generation. These back the engineering claims in DESIGN.md (e.g.
//! im2col-based convolution being the training hot path) and give a
//! regression baseline for future optimization work.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::{rngs::StdRng, SeedableRng};
use remix_data::SyntheticSpec;
use remix_faults::{inject, ConfusionPattern, FaultConfig, FaultType};
use remix_nn::{cross_entropy, zoo, Arch, InputSpec, Layer, Mode, Model, Wants};
use remix_tensor::{im2col, Conv2dGeometry, Tensor};

fn tensor_ops(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let a = Tensor::rand_uniform(&[64, 64], 0.0, 1.0, &mut rng);
    let b = Tensor::rand_uniform(&[64, 64], 0.0, 1.0, &mut rng);
    let mut group = c.benchmark_group("tensor");
    group.bench_function("matmul_64x64", |bch| bch.iter(|| a.matmul(&b).unwrap()));
    group.bench_function("softmax_4096", |bch| {
        let t = a.flatten();
        bch.iter(|| t.softmax())
    });
    let geo = Conv2dGeometry {
        in_channels: 8,
        in_h: 16,
        in_w: 16,
        kernel: 3,
        stride: 1,
        pad: 1,
    };
    let img = Tensor::rand_uniform(&[8, 16, 16], 0.0, 1.0, &mut rng);
    group.bench_function("im2col_8x16x16_k3", |bch| {
        bch.iter(|| im2col(&img, &geo).unwrap())
    });
    group.finish();
}

fn model_passes(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let spec = InputSpec {
        channels: 3,
        size: 16,
        num_classes: 43,
    };
    let img = Tensor::rand_uniform(&[3, 16, 16], 0.0, 1.0, &mut rng);
    let mut group = c.benchmark_group("model");
    group.sample_size(20);
    for arch in [Arch::ConvNet, Arch::ResNet50, Arch::MobileNet] {
        let mut model = Model::named(zoo::build(arch, spec, &mut rng), spec, arch.name());
        group.bench_function(format!("{arch}_forward"), |bch| {
            bch.iter(|| model.predict_proba(&img))
        });
        let mut model2 = Model::named(zoo::build(arch, spec, &mut rng), spec, arch.name());
        group.bench_function(format!("{arch}_train_step"), |bch| {
            bch.iter(|| {
                let net = model2.net_mut();
                net.zero_grads();
                let logits = net.forward_lanes(img.one_lane(), Mode::Train).unwrap();
                let (_, grad) = cross_entropy(&logits.only_lane().unwrap(), 7);
                net.backward_lanes(grad.one_lane(), Wants::Params).unwrap()
            })
        });
    }
    group.finish();
}

fn data_and_faults(c: &mut Criterion) {
    let mut group = c.benchmark_group("data");
    group.sample_size(10);
    group.bench_function("generate_gtsrb_like_100", |bch| {
        bch.iter(|| {
            SyntheticSpec::gtsrb_like()
                .train_size(100)
                .test_size(10)
                .generate()
        })
    });
    let (train, _) = SyntheticSpec::mnist_like().train_size(500).generate();
    let pattern = ConfusionPattern::uniform(10);
    group.bench_function("inject_mislabelling_30pct_500", |bch| {
        bch.iter_batched(
            || StdRng::seed_from_u64(3),
            |mut rng| {
                inject(
                    &train,
                    FaultConfig::new(FaultType::Mislabelling, 0.3),
                    &pattern,
                    &mut rng,
                )
            },
            BatchSize::SmallInput,
        )
    });
    group.finish();
}

criterion_group!(benches, tensor_ops, model_passes, data_and_faults);
criterion_main!(benches);
