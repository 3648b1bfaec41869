//! A miniature single-head self-attention classifier used by the paper's
//! Fig. 12 discussion: applying ReMIX to Vision Transformers by reading the
//! attention scores directly instead of running a post-hoc XAI step.
//!
//! [`MiniVit`] splits the image into patches, embeds them linearly, runs one
//! self-attention layer, mean-pools the attended tokens and classifies. The
//! most recent attention matrix is exposed through [`MiniVit::attention_map`]
//! as a spatial saliency proxy (column-wise attention received per patch,
//! upsampled to the image grid).

use crate::{Layer, Mode, Wants};
use rand::Rng;
use remix_tensor::{Result, Tensor, TensorError};

/// Single-head self-attention patch classifier.
#[derive(Clone)]
pub struct MiniVit {
    patch: usize,
    grid: usize,
    channels: usize,
    size: usize,
    embed_dim: usize,
    num_classes: usize,
    // parameters (all [out, in] matrices) and their gradients
    w_embed: Tensor,
    w_q: Tensor,
    w_k: Tensor,
    w_v: Tensor,
    w_cls: Tensor,
    b_cls: Tensor,
    pos_embed: Tensor,
    g_embed: Tensor,
    g_q: Tensor,
    g_k: Tensor,
    g_v: Tensor,
    g_cls: Tensor,
    g_bcls: Tensor,
    g_pos: Tensor,
    /// Forward caches of the most recent batch, one per lane in lane order.
    lanes: Vec<VitCache>,
}

/// One image's forward caches.
#[derive(Clone, Default)]
struct VitCache {
    patches: Tensor, // [T, P]
    tokens: Tensor,  // [T, E]
    q: Tensor,
    k: Tensor,
    v: Tensor,
    attn: Tensor, // [T, T]
    pooled: Tensor,
}

impl MiniVit {
    /// Creates a MiniViT over `size`×`size` images with `channels` channels,
    /// square `patch` size, `embed_dim` token width and `num_classes` output.
    ///
    /// # Panics
    ///
    /// Panics unless `patch` divides `size`.
    pub fn new(
        channels: usize,
        size: usize,
        patch: usize,
        embed_dim: usize,
        num_classes: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(
            patch > 0 && size.is_multiple_of(patch),
            "patch must divide image size"
        );
        let grid = size / patch;
        let patch_len = channels * patch * patch;
        let std_e = (2.0 / patch_len as f32).sqrt();
        let std_a = (1.0 / embed_dim as f32).sqrt();
        Self {
            patch,
            grid,
            channels,
            size,
            embed_dim,
            num_classes,
            w_embed: Tensor::randn(&[embed_dim, patch_len], std_e, rng),
            w_q: Tensor::randn(&[embed_dim, embed_dim], std_a, rng),
            w_k: Tensor::randn(&[embed_dim, embed_dim], std_a, rng),
            w_v: Tensor::randn(&[embed_dim, embed_dim], std_a, rng),
            w_cls: Tensor::randn(&[num_classes, embed_dim], std_a, rng),
            b_cls: Tensor::zeros(&[num_classes]),
            pos_embed: Tensor::randn(&[grid * grid, embed_dim], 0.1, rng),
            g_embed: Tensor::zeros(&[embed_dim, patch_len]),
            g_q: Tensor::zeros(&[embed_dim, embed_dim]),
            g_k: Tensor::zeros(&[embed_dim, embed_dim]),
            g_v: Tensor::zeros(&[embed_dim, embed_dim]),
            g_cls: Tensor::zeros(&[num_classes, embed_dim]),
            g_bcls: Tensor::zeros(&[num_classes]),
            g_pos: Tensor::zeros(&[grid * grid, embed_dim]),
            lanes: Vec::new(),
        }
    }

    /// Number of tokens (grid²).
    pub fn num_tokens(&self) -> usize {
        self.grid * self.grid
    }

    /// Number of output classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The `[T, T]` attention matrix (rows = queries) of the last image of
    /// the most recent forward pass, or `None` before the first one.
    pub fn attention_scores(&self) -> Option<&Tensor> {
        self.lanes.last().map(|c| &c.attn)
    }

    /// Spatial saliency proxy from the last image of the last forward pass:
    /// total attention *received* by each patch, upsampled to an `[H, W]`
    /// matrix — the "attention scores as feature space" of the paper's
    /// Fig. 12 workflow.
    pub fn attention_map(&self) -> Tensor {
        let t = self.num_tokens();
        let Some(attn) = self.attention_scores() else {
            return Tensor::zeros(&[self.size, self.size]);
        };
        // column sums = attention received per key token
        let mut received = vec![0.0f32; t];
        for q in 0..t {
            for (k, r) in received.iter_mut().enumerate() {
                *r += attn.data()[q * t + k];
            }
        }
        let mut map = Tensor::zeros(&[self.size, self.size]);
        let buf = map.data_mut();
        for ty in 0..self.grid {
            for tx in 0..self.grid {
                let v = received[ty * self.grid + tx] / t as f32;
                for py in 0..self.patch {
                    for px in 0..self.patch {
                        buf[(ty * self.patch + py) * self.size + tx * self.patch + px] = v;
                    }
                }
            }
        }
        map
    }

    fn extract_patches(&self, image: &Tensor) -> Tensor {
        let t = self.num_tokens();
        let plen = self.channels * self.patch * self.patch;
        let mut out = Tensor::zeros(&[t, plen]);
        let buf = out.data_mut();
        for ty in 0..self.grid {
            for tx in 0..self.grid {
                let tok = ty * self.grid + tx;
                let mut i = 0;
                for c in 0..self.channels {
                    for py in 0..self.patch {
                        for px in 0..self.patch {
                            buf[tok * plen + i] =
                                image.at(&[c, ty * self.patch + py, tx * self.patch + px]);
                            i += 1;
                        }
                    }
                }
            }
        }
        out
    }

    /// One `[C, H, W]` image's logits and the caches of its backward.
    fn forward_sample(&self, input: &Tensor) -> (Tensor, VitCache) {
        let patches = self.extract_patches(input); // [T, P]

        // All projections run as fused `A · Bᵀ` products reading the [out, in]
        // weights in place — no transposed copies are materialized, and each
        // product is bit-identical to the explicit-transpose route (pinned by
        // fused_attention_matmuls_match_explicit_transposes_bitwise).
        let mut tokens = patches.matmul_a_bt(&self.w_embed).expect("embed"); // [T, E]
        tokens
            .add_assign(&self.pos_embed)
            .expect("positional embedding shape");
        let q = tokens.matmul_a_bt(&self.w_q).expect("q");
        let k = tokens.matmul_a_bt(&self.w_k).expect("k");
        let v = tokens.matmul_a_bt(&self.w_v).expect("v");
        let scale = 1.0 / (self.embed_dim as f32).sqrt();
        let scores = q.matmul_a_bt(&k).expect("qk").scale(scale);
        let attn = scores.softmax(); // row-wise softmax [T, T]
        let attended = attn.matmul(&v).expect("av"); // [T, E]
                                                     // mean-pool tokens
        let t = self.num_tokens() as f32;
        let mut pooled = vec![0.0f32; self.embed_dim];
        for tok in 0..self.num_tokens() {
            for (e, p) in pooled.iter_mut().enumerate() {
                *p += attended.data()[tok * self.embed_dim + e] / t;
            }
        }
        let pooled = Tensor::from_slice(&pooled);
        let mut logits = self.w_cls.matvec(&pooled).expect("cls");
        logits.add_assign(&self.b_cls).expect("bias");
        let cache = VitCache {
            patches,
            tokens,
            q,
            k,
            v,
            attn,
            pooled,
        };
        (logits, cache)
    }

    /// One image's input gradient from its logit gradient and `cache`,
    /// accumulating the parameter gradients if `wants` asks for them.
    fn backward_sample(&mut self, grad_out: &Tensor, cache: &VitCache, wants: Wants) -> Tensor {
        let t = self.num_tokens();
        let e = self.embed_dim;
        let scale = 1.0 / (e as f32).sqrt();
        // classifier head
        if wants.params() {
            for (i, &g) in grad_out.data().iter().enumerate() {
                self.g_bcls.data_mut()[i] += g;
                for j in 0..e {
                    self.g_cls.data_mut()[i * e + j] += g * cache.pooled.data()[j];
                }
            }
        }
        let d_pooled = self
            .w_cls
            .transpose()
            .expect("rank 2")
            .matvec(grad_out)
            .expect("d_pooled"); // [E]
                                 // mean-pool backward: every token gets d_pooled / T
        let mut d_attended = Tensor::zeros(&[t, e]);
        {
            let buf = d_attended.data_mut();
            for tok in 0..t {
                for j in 0..e {
                    buf[tok * e + j] = d_pooled.data()[j] / t as f32;
                }
            }
        }
        // attended = attn · V; both products read their transposed operand in
        // place (fused A·Bᵀ / Aᵀ·B, bit-identical to the transpose-copy route)
        let d_attn = d_attended.matmul_a_bt(&cache.v).expect("d_attn"); // [T, T]
        let d_v = cache.attn.matmul_at_b(&d_attended).expect("d_v"); // [T, E]

        // softmax backward per row
        let mut d_scores = Tensor::zeros(&[t, t]);
        {
            let a = cache.attn.data();
            let da = d_attn.data();
            let buf = d_scores.data_mut();
            for r in 0..t {
                let dot: f32 = (0..t).map(|c| da[r * t + c] * a[r * t + c]).sum();
                for c in 0..t {
                    buf[r * t + c] = a[r * t + c] * (da[r * t + c] - dot) * scale;
                }
            }
        }
        // scores = Q Kᵀ
        let d_q = d_scores.matmul(&cache.k).expect("d_q"); // [T, E]
        let d_k = d_scores.matmul_at_b(&cache.q).expect("d_k"); // [T, E]
                                                                // Q = tokens · Wqᵀ etc.: dWq = d_qᵀ · tokens, d_tokens += d_q · Wq
        if wants.params() {
            let tokens = &cache.tokens;
            let acc = |grad: &mut Tensor, d: &Tensor| {
                let dw = d.matmul_at_b(tokens).expect("dW");
                grad.add_assign(&dw).expect("dW shape");
            };
            acc(&mut self.g_q, &d_q);
            acc(&mut self.g_k, &d_k);
            acc(&mut self.g_v, &d_v);
        }
        let mut d_tokens = d_q.matmul(&self.w_q).expect("d_tokens q");
        d_tokens
            .add_assign(&d_k.matmul(&self.w_k).expect("d_tokens k"))
            .expect("shape");
        d_tokens
            .add_assign(&d_v.matmul(&self.w_v).expect("d_tokens v"))
            .expect("shape");
        // tokens = patches · Weᵀ + pos_embed
        if wants.params() {
            self.g_pos.add_assign(&d_tokens).expect("pos grad shape");
            let dwe = d_tokens.matmul_at_b(&cache.patches).expect("dWe");
            self.g_embed.add_assign(&dwe).expect("dWe shape");
        }
        if !wants.input() {
            return Tensor::default();
        }
        let d_patches = d_tokens.matmul(&self.w_embed).expect("d_patches"); // [T, P]

        // scatter patch gradients back to the image
        let mut dx = Tensor::zeros(&[self.channels, self.size, self.size]);
        let plen = self.channels * self.patch * self.patch;
        for ty in 0..self.grid {
            for tx in 0..self.grid {
                let tok = ty * self.grid + tx;
                let mut i = 0;
                for c in 0..self.channels {
                    for py in 0..self.patch {
                        for px in 0..self.patch {
                            dx.set(
                                &[c, ty * self.patch + py, tx * self.patch + px],
                                d_patches.data()[tok * plen + i],
                            );
                            i += 1;
                        }
                    }
                }
            }
        }
        dx
    }
}

impl std::fmt::Debug for MiniVit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MiniVit(patch={}, tokens={}, embed={})",
            self.patch,
            self.num_tokens(),
            self.embed_dim
        )
    }
}

impl Layer for MiniVit {
    fn clone_boxed(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward_lanes(&mut self, input: Tensor, _mode: Mode) -> Result<Tensor> {
        // Attention has no lane kernels: the batch runs image by image, and
        // each image's forward caches are kept for its backward.
        let sample = [self.channels, self.size, self.size];
        if input.shape().split_last().map(|(_, s)| s) != Some(&sample[..]) {
            return Err(TensorError::ShapeMismatch {
                left: input.shape().to_vec(),
                right: sample.to_vec(),
                op: "minivit forward_lanes",
            });
        }
        let (logits, caches): (Vec<Tensor>, Vec<VitCache>) = input
            .unstack_lanes()
            .iter()
            .map(|x| self.forward_sample(x))
            .unzip();
        self.lanes = caches;
        Tensor::stack_lanes(&logits)
    }

    fn backward_lanes(&mut self, grad_out: Tensor, wants: Wants) -> Result<Tensor> {
        let lanes =
            crate::layers::lanes_of(&grad_out, &[self.num_classes], "minivit backward_lanes")?;
        if lanes != self.lanes.len() {
            return Err(TensorError::ShapeMismatch {
                left: grad_out.shape().to_vec(),
                right: vec![self.num_classes, self.lanes.len()],
                op: "minivit backward_lanes",
            });
        }
        // Lane after lane, so each parameter gradient adds the images'
        // contributions in lane order.
        let caches = std::mem::take(&mut self.lanes);
        let dxs: Vec<Tensor> = grad_out
            .unstack_lanes()
            .iter()
            .zip(&caches)
            .map(|(g, cache)| self.backward_sample(g, cache, wants))
            .collect();
        self.lanes = caches;
        if wants.input() {
            Tensor::stack_lanes(&dxs)
        } else {
            Ok(Tensor::default())
        }
    }

    fn visit_params(&mut self, visit: &mut dyn FnMut(&mut Tensor, &mut Tensor)) {
        visit(&mut self.w_embed, &mut self.g_embed);
        visit(&mut self.w_q, &mut self.g_q);
        visit(&mut self.w_k, &mut self.g_k);
        visit(&mut self.w_v, &mut self.g_v);
        visit(&mut self.w_cls, &mut self.g_cls);
        visit(&mut self.b_cls, &mut self.g_bcls);
        visit(&mut self.pos_embed, &mut self.g_pos);
    }

    fn name(&self) -> &'static str {
        "MiniVit"
    }

    fn param_count(&self) -> usize {
        self.w_embed.len()
            + self.w_q.len()
            + self.w_k.len()
            + self.w_v.len()
            + self.w_cls.len()
            + self.b_cls.len()
            + self.pos_embed.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{backward_one, forward_one};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn forward_produces_logits_and_attention() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut vit = MiniVit::new(1, 8, 4, 8, 3, &mut rng);
        let x = Tensor::randn(&[1, 8, 8], 1.0, &mut rng);
        assert!(vit.attention_scores().is_none());
        let y = forward_one(&mut vit, &x, Mode::Eval);
        assert_eq!(y.len(), 3);
        let attn = vit.attention_scores().expect("a forward ran");
        assert_eq!(attn.shape(), &[4, 4]);
        // attention rows are probability distributions
        for r in 0..4 {
            let row_sum: f32 = (0..4).map(|c| attn.at(&[r, c])).sum();
            assert!((row_sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn attention_map_covers_the_image() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut vit = MiniVit::new(1, 8, 4, 8, 2, &mut rng);
        forward_one(
            &mut vit,
            &Tensor::randn(&[1, 8, 8], 1.0, &mut rng),
            Mode::Eval,
        );
        let map = vit.attention_map();
        assert_eq!(map.shape(), &[8, 8]);
        assert!(map.sum() > 0.0);
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut vit = MiniVit::new(1, 8, 4, 6, 2, &mut rng);
        let x = Tensor::randn(&[1, 8, 8], 1.0, &mut rng);
        let y = forward_one(&mut vit, &x, Mode::Train);
        let dx = backward_one(&mut vit, &Tensor::ones(&[2]), Wants::Both);
        let eps = 1e-2;
        for &i in &[0usize, 17, 40, 63] {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let yp = forward_one(&mut vit, &xp, Mode::Train);
            let num = (yp.sum() - y.sum()) / eps;
            assert!(
                (num - dx.data()[i]).abs() < 5e-2,
                "grad at {i}: fd={num} vs {}",
                dx.data()[i]
            );
        }
    }

    /// The pre-fusion forward pass: every transposed operand is materialized
    /// with `.transpose()` before a plain `matmul`, exactly as the layer was
    /// originally written. Kept as the reference the fused implementation is
    /// pinned against.
    fn explicit_transpose_forward(vit: &MiniVit, input: &Tensor) -> (Tensor, VitCache) {
        let patches = vit.extract_patches(input);
        let we_t = vit.w_embed.transpose().expect("rank 2");
        let mut tokens = patches.matmul(&we_t).expect("embed");
        tokens.add_assign(&vit.pos_embed).expect("pos shape");
        let q = tokens
            .matmul(&vit.w_q.transpose().expect("rank 2"))
            .expect("q");
        let k = tokens
            .matmul(&vit.w_k.transpose().expect("rank 2"))
            .expect("k");
        let v = tokens
            .matmul(&vit.w_v.transpose().expect("rank 2"))
            .expect("v");
        let scale = 1.0 / (vit.embed_dim as f32).sqrt();
        let scores = q
            .matmul(&k.transpose().expect("rank 2"))
            .expect("qk")
            .scale(scale);
        let attn = scores.softmax();
        let attended = attn.matmul(&v).expect("av");
        let t = vit.num_tokens() as f32;
        let mut pooled = vec![0.0f32; vit.embed_dim];
        for tok in 0..vit.num_tokens() {
            for (e, p) in pooled.iter_mut().enumerate() {
                *p += attended.data()[tok * vit.embed_dim + e] / t;
            }
        }
        let pooled = Tensor::from_slice(&pooled);
        let mut logits = vit.w_cls.matvec(&pooled).expect("cls");
        logits.add_assign(&vit.b_cls).expect("bias");
        let cache = VitCache {
            patches,
            tokens,
            q,
            k,
            v,
            attn,
            pooled,
        };
        (logits, cache)
    }

    /// The pre-fusion backward pass (explicit transposes), matching
    /// [`explicit_transpose_forward`].
    fn explicit_transpose_backward(
        vit: &mut MiniVit,
        cache: &VitCache,
        grad_out: &Tensor,
    ) -> Tensor {
        let t = vit.num_tokens();
        let e = vit.embed_dim;
        let scale = 1.0 / (e as f32).sqrt();
        for (i, &g) in grad_out.data().iter().enumerate() {
            vit.g_bcls.data_mut()[i] += g;
            for j in 0..e {
                vit.g_cls.data_mut()[i * e + j] += g * cache.pooled.data()[j];
            }
        }
        let d_pooled = vit
            .w_cls
            .transpose()
            .expect("rank 2")
            .matvec(grad_out)
            .expect("d_pooled");
        let mut d_attended = Tensor::zeros(&[t, e]);
        {
            let buf = d_attended.data_mut();
            for tok in 0..t {
                for j in 0..e {
                    buf[tok * e + j] = d_pooled.data()[j] / t as f32;
                }
            }
        }
        let d_attn = d_attended
            .matmul(&cache.v.transpose().expect("rank 2"))
            .expect("d_attn");
        let d_v = cache
            .attn
            .transpose()
            .expect("rank 2")
            .matmul(&d_attended)
            .expect("d_v");
        let mut d_scores = Tensor::zeros(&[t, t]);
        {
            let a = cache.attn.data();
            let da = d_attn.data();
            let buf = d_scores.data_mut();
            for r in 0..t {
                let dot: f32 = (0..t).map(|c| da[r * t + c] * a[r * t + c]).sum();
                for c in 0..t {
                    buf[r * t + c] = a[r * t + c] * (da[r * t + c] - dot) * scale;
                }
            }
        }
        let d_q = d_scores.matmul(&cache.k).expect("d_q");
        let d_k = d_scores
            .transpose()
            .expect("rank 2")
            .matmul(&cache.q)
            .expect("d_k");
        let tokens = &cache.tokens;
        let dwq = d_q.transpose().expect("rank 2").matmul(tokens).expect("dW");
        vit.g_q.add_assign(&dwq).expect("dW shape");
        let dwk = d_k.transpose().expect("rank 2").matmul(tokens).expect("dW");
        vit.g_k.add_assign(&dwk).expect("dW shape");
        let dwv = d_v.transpose().expect("rank 2").matmul(tokens).expect("dW");
        vit.g_v.add_assign(&dwv).expect("dW shape");
        let mut d_tokens = d_q.matmul(&vit.w_q).expect("d_tokens q");
        d_tokens
            .add_assign(&d_k.matmul(&vit.w_k).expect("d_tokens k"))
            .expect("shape");
        d_tokens
            .add_assign(&d_v.matmul(&vit.w_v).expect("d_tokens v"))
            .expect("shape");
        vit.g_pos.add_assign(&d_tokens).expect("pos grad shape");
        let dwe = d_tokens
            .transpose()
            .expect("rank 2")
            .matmul(&cache.patches)
            .expect("dWe");
        vit.g_embed.add_assign(&dwe).expect("dWe shape");
        let d_patches = d_tokens.matmul(&vit.w_embed).expect("d_patches");
        let mut dx = Tensor::zeros(&[vit.channels, vit.size, vit.size]);
        let plen = vit.channels * vit.patch * vit.patch;
        for ty in 0..vit.grid {
            for tx in 0..vit.grid {
                let tok = ty * vit.grid + tx;
                let mut i = 0;
                for c in 0..vit.channels {
                    for py in 0..vit.patch {
                        for px in 0..vit.patch {
                            dx.set(
                                &[c, ty * vit.patch + py, tx * vit.patch + px],
                                d_patches.data()[tok * plen + i],
                            );
                            i += 1;
                        }
                    }
                }
            }
        }
        dx
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn fused_attention_matmuls_match_explicit_transposes_bitwise() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut fused = MiniVit::new(2, 12, 4, 10, 5, &mut rng);
        let mut reference = fused.clone();
        let x = Tensor::randn(&[2, 12, 12], 1.0, &mut rng);
        let g = Tensor::randn(&[5], 1.0, &mut rng);

        let (y_fused, cache_fused) = fused.forward_sample(&x);
        let (y_ref, cache_ref) = explicit_transpose_forward(&reference, &x);
        assert_eq!(bits(&y_fused), bits(&y_ref), "logits");
        assert_eq!(bits(&cache_fused.attn), bits(&cache_ref.attn), "attention");

        let dx_fused = fused.backward_sample(&g, &cache_fused, Wants::Both);
        let dx_ref = explicit_transpose_backward(&mut reference, &cache_ref, &g);
        assert_eq!(bits(&dx_fused), bits(&dx_ref), "input gradient");
        let mut grads_fused = Vec::new();
        fused.visit_params(&mut |_, grad| grads_fused.extend(bits(grad)));
        let mut grads_ref = Vec::new();
        reference.visit_params(&mut |_, grad| grads_ref.extend(bits(grad)));
        assert_eq!(grads_fused, grads_ref, "parameter gradients");
    }

    #[test]
    fn lane_batches_run_image_by_image() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut vit = MiniVit::new(1, 8, 4, 6, 3, &mut rng);
        let xs: Vec<Tensor> = (0..3)
            .map(|_| Tensor::randn(&[1, 8, 8], 1.0, &mut rng))
            .collect();
        let gs: Vec<Tensor> = (0..3).map(|_| Tensor::randn(&[3], 1.0, &mut rng)).collect();
        crate::layers::assert_lanes_match_one_lane(&mut vit, &xs, &gs);
        assert!(vit
            .backward_lanes(Tensor::zeros(&[3, 2]), Wants::Input)
            .is_err());
    }

    #[test]
    fn minivit_is_trainable() {
        use crate::{InputSpec, Model, Sequential, Trainer, TrainerConfig};
        let mut rng = StdRng::seed_from_u64(4);
        let mut net = Sequential::new();
        net.push(MiniVit::new(1, 8, 4, 8, 2, &mut rng));
        let mut model = Model::new(
            net,
            InputSpec {
                channels: 1,
                size: 8,
                num_classes: 2,
            },
        );
        // class 0: bright left half; class 1: bright right half
        let mut images = Vec::new();
        let mut labels = Vec::new();
        for i in 0..40 {
            let class = i % 2;
            let mut img = Tensor::randn(&[1, 8, 8], 0.1, &mut rng);
            for y in 0..8 {
                for x in 0..4 {
                    img.set(&[0, y, if class == 0 { x } else { x + 4 }], 1.0);
                }
            }
            images.push(img);
            labels.push(class);
        }
        Trainer::new(TrainerConfig {
            epochs: 20,
            lr: 0.1,
            ..TrainerConfig::default()
        })
        .fit(&mut model, &images, &labels);
        let correct = images
            .iter()
            .zip(&labels)
            .filter(|(img, &l)| model.predict(img).0 == l)
            .count();
        assert!(correct >= 32, "MiniViT accuracy {correct}/40");
    }
}
