//! First-order optimizers operating through [`Layer::visit_params`].

use crate::Layer;
use remix_tensor::Tensor;

/// A stateful first-order optimizer.
pub trait Optimizer {
    /// Applies one update step to every parameter of `net` using the
    /// gradients accumulated since the last [`Layer::zero_grads`], scaled by
    /// `grad_scale` (typically `1/batch_size`).
    fn step(&mut self, net: &mut dyn Layer, grad_scale: f32);
}

/// Stochastic gradient descent with classical momentum and L2 weight decay.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables momentum).
    pub momentum: f32,
    /// L2 weight-decay coefficient.
    pub weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl Sgd {
    /// Creates an SGD optimizer.
    pub fn new(lr: f32, momentum: f32, weight_decay: f32) -> Self {
        Self {
            lr,
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, net: &mut dyn Layer, grad_scale: f32) {
        let mut idx = 0;
        let (lr, mu, wd) = (self.lr, self.momentum, self.weight_decay);
        let velocity = &mut self.velocity;
        net.visit_params(&mut |param, grad| {
            if velocity.len() <= idx {
                velocity.push(Tensor::zeros(param.shape()));
            }
            let v = &mut velocity[idx];
            for ((p, &g), vel) in param
                .data_mut()
                .iter_mut()
                .zip(grad.data())
                .zip(v.data_mut())
            {
                let step = g * grad_scale + wd * *p;
                *vel = mu * *vel + step;
                *p -= lr * *vel;
            }
            idx += 1;
        });
    }
}

/// Adam optimizer (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    beta1: f32,
    beta2: f32,
    eps: f32,
    t: u32,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates an Adam optimizer with standard betas (0.9, 0.999).
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, net: &mut dyn Layer, grad_scale: f32) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let mut idx = 0;
        let (lr, b1, b2, eps) = (self.lr, self.beta1, self.beta2, self.eps);
        let (ms, vs) = (&mut self.m, &mut self.v);
        net.visit_params(&mut |param, grad| {
            if ms.len() <= idx {
                ms.push(Tensor::zeros(param.shape()));
                vs.push(Tensor::zeros(param.shape()));
            }
            let m = &mut ms[idx];
            let v = &mut vs[idx];
            for (((p, &g), mi), vi) in param
                .data_mut()
                .iter_mut()
                .zip(grad.data())
                .zip(m.data_mut())
                .zip(v.data_mut())
            {
                let gs = g * grad_scale;
                *mi = b1 * *mi + (1.0 - b1) * gs;
                *vi = b2 * *vi + (1.0 - b2) * gs * gs;
                let mhat = *mi / bc1;
                let vhat = *vi / bc2;
                *p -= lr * mhat / (vhat.sqrt() + eps);
            }
            idx += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{backward_one, forward_one, Dense};
    use crate::{cross_entropy, Mode, Sequential, Wants};
    use rand::{rngs::StdRng, SeedableRng};
    use remix_tensor::Tensor;

    fn toy_problem(optimizer: &mut dyn Optimizer) -> f32 {
        // learn to map two separable points to their classes
        let mut rng = StdRng::seed_from_u64(1);
        let mut net = Sequential::new();
        net.push(Dense::new(2, 8, &mut rng));
        net.push(crate::layers::Relu::new());
        net.push(Dense::new(8, 2, &mut rng));
        let data = [
            (Tensor::from_slice(&[1.0, 0.0]), 0usize),
            (Tensor::from_slice(&[0.0, 1.0]), 1usize),
        ];
        let mut last = f32::MAX;
        for _ in 0..100 {
            net.zero_grads();
            let mut total = 0.0;
            for (x, t) in &data {
                let logits = forward_one(&mut net, x, Mode::Train);
                let (loss, grad) = cross_entropy(&logits, *t);
                total += loss;
                backward_one(&mut net, &grad, Wants::Params);
            }
            optimizer.step(&mut net, 0.5);
            last = total / 2.0;
        }
        last
    }

    #[test]
    fn sgd_reduces_loss_to_near_zero() {
        let mut opt = Sgd::new(0.5, 0.9, 0.0);
        assert!(toy_problem(&mut opt) < 0.05);
    }

    #[test]
    fn adam_reduces_loss_to_near_zero() {
        let mut opt = Adam::new(0.05);
        assert!(toy_problem(&mut opt) < 0.05);
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut net = Sequential::new();
        net.push(Dense::new(4, 4, &mut rng));
        let mut norm_before = 0.0;
        net.visit_params(&mut |p, _| norm_before += p.norm());
        let mut opt = Sgd::new(0.1, 0.0, 0.5);
        net.zero_grads();
        opt.step(&mut net, 1.0);
        let mut norm_after = 0.0;
        net.visit_params(&mut |p, _| norm_after += p.norm());
        assert!(norm_after < norm_before);
    }
}
