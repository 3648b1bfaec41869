//! The lane contract of the one layer protocol: a `B`-lane batch equals `B`
//! one-lane batches, bit for bit, in every mode.
//!
//! For the 9 zoo archetypes on three-channel and on single-channel images,
//! a MiniViT and a Dropout/Sigmoid/Tanh/AvgPool stack, each at its own
//! seeded lane count `B` in `1..=17` (so the suite crosses the 16/8/4/2/1
//! lane groups of the per-lane loops):
//!
//! * Inference and Eval forwards and their input gradients
//!   ([`Wants::Input`], [`Wants::Both`]) match `B` one-lane calls, and an
//!   input-gradient backward leaves the parameter gradients untouched;
//! * a `Train` step — forward, then the root backward [`Wants::Params`] of
//!   `Trainer::fit` — leaves the same parameter-gradient bits as `B`
//!   one-lane steps, starting from nonzero gradients so that lanes fused
//!   into one accumulation chain cannot pass, and with the same dropout
//!   draws;
//! * a frozen network matches the unfrozen one;
//! * `Model`'s batch methods match its per-sample methods.
//!
//! A failure names the case and its `B`.

use rand::{rngs::StdRng, Rng, SeedableRng};
use remix_nn::attention::MiniVit;
use remix_nn::layers::{AvgPool2d, Conv2d, Dense, Dropout, Flatten, Sigmoid, TanhLayer};
use remix_nn::{zoo, Arch, InputSpec, Layer, Mode, Model, Sequential, Wants};
use remix_tensor::Tensor;

const ZOO: InputSpec = InputSpec {
    channels: 3,
    size: 16,
    num_classes: 7,
};

/// The single-channel images of the MNIST and Pneumonia analogues.
const ZOO_GREY: InputSpec = InputSpec {
    channels: 1,
    size: 16,
    num_classes: 5,
};

fn bits(ts: &[Tensor]) -> Vec<u32> {
    ts.iter()
        .flat_map(|t| t.data().iter().map(|v| v.to_bits()))
        .collect()
}

/// Panics with `what` and the first differing position unless `a == b`.
fn same(a: &[u32], b: &[u32], what: &str) {
    if let Some(i) = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i)) {
        let show = |v: Option<&u32>| v.map(|&b| f32::from_bits(b));
        panic!(
            "{what}: first difference at {i}: {:?} vs {:?}",
            show(a.get(i)),
            show(b.get(i))
        );
    }
}

fn grad_bits(net: &mut Sequential) -> Vec<u32> {
    let mut out = Vec::new();
    net.visit_params(&mut |_, g| out.extend(g.data().iter().map(|v| v.to_bits())));
    out
}

/// One case: a network, `B` inputs of its sample shape (some pixels -0.0)
/// and `B` output gradients.
struct Case {
    name: String,
    net: Sequential,
    inputs: Vec<Tensor>,
    grads: Vec<Tensor>,
}

impl Case {
    fn new(
        name: String,
        net: Sequential,
        sample: &[usize],
        classes: usize,
        rng: &mut StdRng,
    ) -> Self {
        let lanes = rng.gen_range(1..=17usize);
        let inputs = (0..lanes)
            .map(|_| {
                let mut x = Tensor::rand_uniform(sample, 0.0, 1.0, rng);
                for v in x.data_mut().iter_mut().step_by(7) {
                    *v = -0.0;
                }
                x
            })
            .collect();
        let grads = (0..lanes)
            .map(|_| Tensor::randn(&[classes], 1.0, rng))
            .collect();
        Case {
            name: format!("{name} B={lanes}"),
            net,
            inputs,
            grads,
        }
    }

    /// `B` one-lane forwards in `mode`, each followed by its backward.
    fn one_lane_steps(
        &self,
        net: &mut Sequential,
        mode: Mode,
        wants: Wants,
    ) -> (Vec<Tensor>, Vec<Tensor>) {
        let mut ys = Vec::new();
        let mut dxs = Vec::new();
        for (x, g) in self.inputs.iter().zip(&self.grads) {
            let y = net.forward_lanes(x.one_lane(), mode);
            ys.push(y.and_then(Tensor::only_lane).expect(&self.name));
            let dx = net.backward_lanes(g.one_lane(), wants);
            if wants.input() {
                dxs.push(dx.and_then(Tensor::only_lane).expect(&self.name));
            } else {
                dx.expect(&self.name);
            }
        }
        (ys, dxs)
    }

    /// One `B`-lane forward in `mode`, then its backward.
    fn lane_step(
        &self,
        net: &mut Sequential,
        mode: Mode,
        wants: Wants,
    ) -> (Vec<Tensor>, Vec<Tensor>) {
        let x = Tensor::stack_lanes(&self.inputs).expect("same-shape inputs");
        let y = net.forward_lanes(x, mode).expect(&self.name);
        let g = Tensor::stack_lanes(&self.grads).expect("same-shape gradients");
        let dx = net.backward_lanes(g, wants).expect(&self.name);
        let dxs = if wants.input() {
            dx.unstack_lanes()
        } else {
            Vec::new()
        };
        (y.unstack_lanes(), dxs)
    }

    fn check(mut self, rng: &mut StdRng) {
        let name = self.name.clone();
        // Nonzero gradients to start from: a step must add each lane's
        // contribution to them in lane order.
        self.net.visit_params(&mut |_, g| {
            for v in g.data_mut() {
                *v = rng.gen_range(-1.0f32..1.0);
            }
        });
        let start = grad_bits(&mut self.net);

        for (mode, wants) in [(Mode::Inference, Wants::Input), (Mode::Eval, Wants::Both)] {
            let (mut lanes, mut one) = (self.net.clone(), self.net.clone());
            let (y, dx) = self.lane_step(&mut lanes, mode, wants);
            let (y1, dx1) = self.one_lane_steps(&mut one, mode, wants);
            same(&bits(&y), &bits(&y1), &format!("{name}: {mode:?} forward"));
            same(
                &bits(&dx),
                &bits(&dx1),
                &format!("{name}: {mode:?} input gradients"),
            );
            let what = format!("{name}: {mode:?} parameter gradients");
            same(&grad_bits(&mut lanes), &grad_bits(&mut one), &what);
            if wants == Wants::Input {
                let what = format!("{name}: input gradients touched parameters");
                same(&grad_bits(&mut lanes), &start, &what);
            }
        }

        let (mut lanes, mut one) = (self.net.clone(), self.net.clone());
        let (y, _) = self.lane_step(&mut lanes, Mode::Train, Wants::Params);
        let (y1, _) = self.one_lane_steps(&mut one, Mode::Train, Wants::Params);
        same(&bits(&y), &bits(&y1), &format!("{name}: Train forward"));
        let trained = grad_bits(&mut lanes);
        let what = format!("{name}: Train parameter gradients");
        same(&trained, &grad_bits(&mut one), &what);
        assert!(trained != start, "{name}: a Train step accumulated nothing");

        let (mut plain, mut frozen) = (self.net.clone(), self.net.clone());
        frozen.prepare_inference();
        let (y, dx) = self.lane_step(&mut plain, Mode::Inference, Wants::Input);
        let (yf, dxf) = self.lane_step(&mut frozen, Mode::Inference, Wants::Input);
        same(&bits(&y), &bits(&yf), &format!("{name}: frozen forward"));
        same(
            &bits(&dx),
            &bits(&dxf),
            &format!("{name}: frozen input gradients"),
        );
    }
}

/// A stack of the layers the zoo does not train with: dropout (live in
/// `Train`), sigmoid, tanh and average pooling.
fn activation_stack(rng: &mut StdRng) -> Sequential {
    let mut net = Sequential::new();
    net.push(Conv2d::new((3, 8, 8), 4, 3, 1, 1, rng));
    net.push(TanhLayer::new());
    net.push(AvgPool2d::new((4, 8, 8), 2));
    net.push(Flatten::new());
    net.push(Dropout::new(0.5, rng.gen()));
    net.push(Dense::new(64, 10, rng));
    net.push(Sigmoid::new());
    net.push(Dense::new(10, 5, rng));
    net
}

/// The 9 zoo archetypes on `spec`'s images.
fn zoo_cases(spec: InputSpec, rng: &mut StdRng) -> Vec<Case> {
    let sample = [spec.channels, spec.size, spec.size];
    Arch::ALL
        .iter()
        .map(|&arch| {
            let net = zoo::build(arch, spec, rng);
            let name = format!("{arch} {}x{}x{}", sample[0], sample[1], sample[2]);
            Case::new(name, net, &sample, spec.num_classes, rng)
        })
        .collect()
}

#[test]
fn lanes_match_one_lane_in_every_mode() {
    let mut rng = StdRng::seed_from_u64(0x1a2e);
    let mut cases = zoo_cases(ZOO, &mut rng);
    let mut vit = Sequential::new();
    vit.push(MiniVit::new(1, 8, 4, 6, 3, &mut rng));
    cases.push(Case::new("MiniViT".into(), vit, &[1, 8, 8], 3, &mut rng));
    let stack = activation_stack(&mut rng);
    cases.push(Case::new(
        "Dropout/Sigmoid/Tanh/AvgPool".into(),
        stack,
        &[3, 8, 8],
        5,
        &mut rng,
    ));
    cases.extend(zoo_cases(ZOO_GREY, &mut rng));
    for case in cases {
        case.check(&mut rng);
    }
}

#[test]
fn model_batches_match_its_per_sample_methods() {
    let mut rng = StdRng::seed_from_u64(0xba7c);
    for spec in [ZOO, ZOO_GREY] {
        let sample = [spec.channels, spec.size, spec.size];
        for arch in Arch::ALL {
            let mut model = Model::new(zoo::build(arch, spec, &mut rng), spec);
            let lanes = rng.gen_range(1..=17usize);
            let images: Vec<Tensor> = (0..lanes)
                .map(|_| Tensor::rand_uniform(&sample, 0.0, 1.0, &mut rng))
                .collect();
            let classes: Vec<usize> = (0..lanes)
                .map(|_| rng.gen_range(0..spec.num_classes))
                .collect();
            let probs: Vec<Tensor> = images.iter().map(|x| model.predict_proba(x)).collect();
            let grads: Vec<Tensor> = images
                .iter()
                .zip(&classes)
                .map(|(x, &c)| model.input_gradient(x, c))
                .collect();
            let name = format!("{arch} {sample:?} B={lanes}");
            assert!(
                grads.iter().all(|g| g.abs().sum() > 0.0),
                "{name}: zero input gradient"
            );
            let batch_probs = model.predict_proba_batch(&images).expect("valid batch");
            same(
                &bits(&batch_probs),
                &bits(&probs),
                &format!("{name}: probabilities"),
            );
            let batch_grads = model
                .input_gradient_batch(&images, &classes)
                .expect("valid batch");
            same(
                &bits(&batch_grads),
                &bits(&grads),
                &format!("{name}: input gradients"),
            );
        }
    }
}

#[test]
fn mismatched_batches_are_rejected() {
    let mut model = Model::new(
        zoo::build(Arch::ConvNet, ZOO, &mut StdRng::seed_from_u64(5)),
        ZOO,
    );
    let image = Tensor::zeros(&[ZOO.channels, ZOO.size, ZOO.size]);
    let batch = vec![image.clone(), image.clone(), image];
    assert!(model.input_gradient_batch(&batch, &[0, 1]).is_err());
    let lanes = Tensor::stack_lanes(&batch).expect("same shapes");
    assert!(model.input_gradient_lanes(lanes, &[0, 1]).is_err());
    assert!(model
        .try_logits(&Tensor::zeros(&[ZOO.channels, ZOO.size, ZOO.size + 1]))
        .is_err());
    // A parameter gradient needs a Train or Eval forward.
    let net = model.net_mut();
    let x = Tensor::stack_lanes(&batch).expect("same-shape images");
    net.forward_lanes(x, Mode::Inference).expect("valid batch");
    assert!(net
        .backward_lanes(Tensor::zeros(&[ZOO.num_classes, 3]), Wants::Params)
        .is_err());
}
