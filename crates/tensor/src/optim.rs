//! Parameter optimizers.
//!
//! An [`Optimizer`] keeps per-buffer state (momentum / Adam moments) keyed by
//! a caller-assigned *slot* index, so layers do not need to know which
//! optimizer trains them. Containers such as [`crate::Mlp`] assign slots in a
//! stable order across steps.

use crate::state::{StateError, StateReader, StateWriter};

/// Optimizer algorithm and hyper-parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimConfig {
    /// Stochastic gradient descent with classical momentum.
    Sgd {
        /// Learning rate.
        lr: f32,
        /// Momentum coefficient in `[0, 1)`; `0.0` disables momentum.
        momentum: f32,
    },
    /// Adam (Kingma & Ba).
    Adam {
        /// Learning rate.
        lr: f32,
        /// First-moment decay (typically 0.9).
        beta1: f32,
        /// Second-moment decay (typically 0.999).
        beta2: f32,
        /// Numerical-stability epsilon.
        eps: f32,
    },
}

impl OptimConfig {
    /// Adam with the conventional defaults at the given learning rate.
    pub fn adam(lr: f32) -> Self {
        OptimConfig::Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }

    /// Plain SGD (no momentum) at the given learning rate.
    pub fn sgd(lr: f32) -> Self {
        OptimConfig::Sgd { lr, momentum: 0.0 }
    }
}

#[derive(Debug, Clone, Default)]
struct Slot {
    /// Momentum buffer (SGD) or first moment (Adam).
    m: Vec<f32>,
    /// Second moment (Adam only).
    v: Vec<f32>,
}

/// A stateful optimizer over an arbitrary number of parameter buffers.
///
/// # Examples
///
/// ```
/// use h2o_tensor::{Optimizer, OptimConfig};
///
/// let mut opt = Optimizer::new(OptimConfig::sgd(0.1));
/// let mut params = vec![1.0f32];
/// let grads = vec![2.0f32];
/// opt.step(0, &mut params, &grads);
/// assert!((params[0] - 0.8).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct Optimizer {
    config: OptimConfig,
    slots: Vec<Slot>,
    t: u64,
    grad_clip: Option<f32>,
}

impl Optimizer {
    /// Creates an optimizer with no allocated state; slots grow on demand.
    pub fn new(config: OptimConfig) -> Self {
        Self {
            config,
            slots: Vec::new(),
            t: 0,
            grad_clip: None,
        }
    }

    /// Enables element-wise gradient clipping to `[-clip, clip]` — the
    /// standard guard against exploding activations (e.g. deep Squared-ReLU
    /// towers in the searchable-activation super-networks).
    ///
    /// # Panics
    ///
    /// Panics unless `clip > 0`.
    pub fn set_grad_clip(&mut self, clip: f32) {
        assert!(clip > 0.0, "clip must be positive");
        self.grad_clip = Some(clip);
    }

    /// The configured algorithm.
    pub fn config(&self) -> OptimConfig {
        self.config
    }

    /// Advances the global step counter (used for Adam bias correction).
    /// Call once per training step, before the per-buffer [`Optimizer::step`]
    /// calls of that training step.
    pub fn begin_step(&mut self) {
        self.t += 1;
    }

    /// Applies one update to the parameter buffer registered at `slot`.
    ///
    /// One pass over `(param, grad, m, v)` updates each element on its own,
    /// evaluating exactly this expression in this order (`c` is the clip,
    /// `bcN = 1 − βNᵗ`):
    ///
    /// * clip, if set: `g = if g.is_finite() { g.clamp(-c, c) } else { 0.0 }`;
    /// * SGD: `p -= lr·g`, or with momentum `m = momentum·m + g; p -= lr·m`;
    /// * Adam: `m = β1·m + (1 − β1)·g`, `v = β2·v + ((1 − β2)·g)·g`, then
    ///   `p -= (lr·(m / bc1)) / (sqrt(v / bc2) + eps)`.
    ///
    /// Divisions stay divisions and nothing is reassociated or fused, so a
    /// vectorised build writes the same bits as a scalar one (DESIGN.md,
    /// "Kernel bit-exactness").
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != grads.len()`, or if a slot is reused with a
    /// different buffer length.
    pub fn step(&mut self, slot: usize, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        if self.slots.len() <= slot {
            self.slots.resize_with(slot + 1, Slot::default);
        }
        let state = &mut self.slots[slot];
        match self.grad_clip {
            Some(c) => update(self.config, self.t, state, params, grads, |g| {
                if g.is_finite() {
                    g.clamp(-c, c)
                } else {
                    0.0
                }
            }),
            None => update(self.config, self.t, state, params, grads, |g| g),
        }
    }

    /// Serialises the optimizer's mutable state (step counter plus every
    /// slot's moment buffers) for checkpointing. The algorithm config and
    /// clip setting are *not* written — they are reconstructed by the owner.
    pub fn write_state(&self, w: &mut StateWriter) {
        w.put_u64(self.t);
        w.put_u64(self.slots.len() as u64);
        for slot in &self.slots {
            w.put_f32_slice(&slot.m);
            w.put_f32_slice(&slot.v);
        }
    }

    /// Restores state written by [`Optimizer::write_state`]. Slot moment
    /// buffers keep whatever lengths the blob recorded (slots grow on
    /// demand, so a freshly constructed optimizer has none); the first
    /// [`Optimizer::step`] after a restore re-validates them against the
    /// live parameter buffers. On error the optimizer is left unchanged.
    ///
    /// # Errors
    ///
    /// Propagates decoding failures from the reader, and returns
    /// [`StateError::LengthMismatch`] for a slot this algorithm cannot have
    /// written: an Adam slot whose two moments differ in length, or an SGD
    /// slot with a second moment.
    pub fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let t = r.take_u64()?;
        let count = r.take_u64()? as usize;
        let mut slots = Vec::new();
        for _ in 0..count {
            let m = r.take_f32_vec()?;
            let v = r.take_f32_vec()?;
            let expected = match self.config {
                OptimConfig::Sgd { .. } => 0,
                OptimConfig::Adam { .. } => m.len(),
            };
            if v.len() != expected {
                return Err(StateError::LengthMismatch {
                    expected,
                    found: v.len(),
                });
            }
            slots.push(Slot { m, v });
        }
        self.t = t;
        self.slots = slots;
        Ok(())
    }
}

/// The element loop of [`Optimizer::step`], generic over the clip so that
/// each clip setting compiles to its own branch-free loop.
fn update(
    config: OptimConfig,
    t: u64,
    state: &mut Slot,
    params: &mut [f32],
    grads: &[f32],
    clipped: impl Fn(f32) -> f32,
) {
    let n = params.len();
    match config {
        OptimConfig::Sgd { lr, momentum } => {
            if momentum == 0.0 {
                for (p, &g) in params.iter_mut().zip(grads) {
                    *p -= lr * clipped(g);
                }
            } else {
                if state.m.is_empty() {
                    state.m = vec![0.0; n];
                }
                assert_eq!(state.m.len(), n, "slot reused with new size");
                for ((p, &g), m) in params.iter_mut().zip(grads).zip(&mut state.m) {
                    *m = momentum * *m + clipped(g);
                    *p -= lr * *m;
                }
            }
        }
        OptimConfig::Adam {
            lr,
            beta1,
            beta2,
            eps,
        } => {
            if state.m.is_empty() {
                state.m = vec![0.0; n];
                state.v = vec![0.0; n];
            }
            assert_eq!(state.m.len(), n, "slot reused with new size");
            assert_eq!(state.v.len(), n, "slot reused with new size");
            let t = t.max(1) as f32;
            let bc1 = 1.0 - beta1.powf(t);
            let bc2 = 1.0 - beta2.powf(t);
            let moments = state.m.iter_mut().zip(state.v.iter_mut());
            for ((p, &g), (m, v)) in params.iter_mut().zip(grads).zip(moments) {
                let g = clipped(g);
                *m = beta1 * *m + (1.0 - beta1) * g;
                *v = beta2 * *v + (1.0 - beta2) * g * g;
                let m_hat = *m / bc1;
                let v_hat = *v / bc2;
                *p -= lr * m_hat / (v_hat.sqrt() + eps);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{edge_values, same_bits, special_share};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `Optimizer::step` as an indexed scalar loop with the clip decided per
    /// element: the bitwise reference the zipped pass must match.
    fn reference_step(opt: &mut Optimizer, slot: usize, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        if opt.slots.len() <= slot {
            opt.slots.resize_with(slot + 1, Slot::default);
        }
        let state = &mut opt.slots[slot];
        let clip = opt.grad_clip;
        let clipped = |g: f32| match clip {
            Some(c) => {
                if g.is_finite() {
                    g.clamp(-c, c)
                } else {
                    0.0
                }
            }
            None => g,
        };
        match opt.config {
            OptimConfig::Sgd { lr, momentum } => {
                if momentum == 0.0 {
                    for (p, &g) in params.iter_mut().zip(grads) {
                        *p -= lr * clipped(g);
                    }
                } else {
                    if state.m.is_empty() {
                        state.m = vec![0.0; params.len()];
                    }
                    assert_eq!(state.m.len(), params.len(), "slot reused with new size");
                    for ((p, &g), m) in params.iter_mut().zip(grads).zip(&mut state.m) {
                        *m = momentum * *m + clipped(g);
                        *p -= lr * *m;
                    }
                }
            }
            OptimConfig::Adam {
                lr,
                beta1,
                beta2,
                eps,
            } => {
                if state.m.is_empty() {
                    state.m = vec![0.0; params.len()];
                    state.v = vec![0.0; params.len()];
                }
                assert_eq!(state.m.len(), params.len(), "slot reused with new size");
                let t = opt.t.max(1) as f32;
                let bc1 = 1.0 - beta1.powf(t);
                let bc2 = 1.0 - beta2.powf(t);
                for i in 0..params.len() {
                    let g = clipped(grads[i]);
                    state.m[i] = beta1 * state.m[i] + (1.0 - beta1) * g;
                    state.v[i] = beta2 * state.v[i] + (1.0 - beta2) * g * g;
                    let m_hat = state.m[i] / bc1;
                    let v_hat = state.v[i] / bc2;
                    params[i] -= lr * m_hat / (v_hat.sqrt() + eps);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every algorithm, clip on and off, at steps 1 through 400, over
        /// parameters and gradients mixing in signed zeros, subnormals,
        /// infinities and NaN: params and both moments match the scalar
        /// reference bit for bit.
        fn step_matches_scalar_reference_bitwise(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let lr = rng.gen_range(1e-4f32..1.0);
            let config = match rng.gen_range(0usize..3) {
                0 => OptimConfig::sgd(lr),
                1 => OptimConfig::Sgd { lr, momentum: rng.gen_range(0.1f32..0.99) },
                _ => OptimConfig::Adam {
                    lr,
                    beta1: rng.gen_range(0.5f32..0.99),
                    beta2: rng.gen_range(0.9f32..0.9999),
                    eps: rng.gen_range(1e-8f32..1e-3),
                },
            };
            let mut fast = Optimizer::new(config);
            if rng.gen_bool(0.5) {
                fast.set_grad_clip(rng.gen_range(0.1f32..4.0));
            }
            fast.t = rng.gen_range(0u64..400);
            let mut slow = fast.clone();
            let special = special_share(&mut rng);
            let n = rng.gen_range(1usize..80);
            let mut p_fast = edge_values(&mut rng, special, n);
            let mut p_slow = p_fast.clone();
            for _ in 0..rng.gen_range(1usize..4) {
                let grads = edge_values(&mut rng, special, n);
                fast.begin_step();
                slow.begin_step();
                fast.step(0, &mut p_fast, &grads);
                reference_step(&mut slow, 0, &mut p_slow, &grads);
            }
            same_bits("params", &p_fast, &p_slow)?;
            same_bits("m", &fast.slots[0].m, &slow.slots[0].m)?;
            same_bits("v", &fast.slots[0].v, &slow.slots[0].v)?;
        }
    }

    /// A blob with one slot holding moment buffers `m` and `v`.
    fn one_slot_blob(m: &[f32], v: &[f32]) -> Vec<u8> {
        let mut w = StateWriter::new();
        w.put_u64(3);
        w.put_u64(1);
        w.put_f32_slice(m);
        w.put_f32_slice(v);
        w.into_bytes()
    }

    #[test]
    fn read_state_rejects_moments_the_algorithm_cannot_have_written() {
        let mut adam = Optimizer::new(OptimConfig::adam(0.1));
        let short_v = one_slot_blob(&[0.1, 0.2], &[0.3]);
        assert_eq!(
            adam.read_state(&mut StateReader::new(&short_v)),
            Err(StateError::LengthMismatch {
                expected: 2,
                found: 1
            })
        );
        let mut sgd = Optimizer::new(OptimConfig::Sgd {
            lr: 0.1,
            momentum: 0.9,
        });
        let sgd_with_v = one_slot_blob(&[0.1], &[0.3]);
        assert_eq!(
            sgd.read_state(&mut StateReader::new(&sgd_with_v)),
            Err(StateError::LengthMismatch {
                expected: 0,
                found: 1
            })
        );
        // A rejected blob leaves the optimizer as it was.
        assert_eq!((adam.t, adam.slots.len()), (0, 0));
        // Well-formed slots still load.
        let ok = one_slot_blob(&[0.1, 0.2], &[0.3, 0.4]);
        adam.read_state(&mut StateReader::new(&ok)).unwrap();
        assert_eq!((adam.t, adam.slots[0].v.len()), (3, 2));
    }

    #[test]
    #[should_panic(expected = "slot reused with new size")]
    fn adam_step_checks_the_second_moment_length() {
        let mut opt = Optimizer::new(OptimConfig::adam(0.1));
        opt.slots.push(Slot {
            m: vec![0.0; 2],
            v: vec![0.0; 1],
        });
        opt.begin_step();
        opt.step(0, &mut [1.0, 2.0], &[0.5, 0.5]);
    }

    #[test]
    fn sgd_plain_step() {
        let mut opt = Optimizer::new(OptimConfig::sgd(0.5));
        let mut p = vec![1.0, -1.0];
        opt.begin_step();
        opt.step(0, &mut p, &[1.0, -1.0]);
        assert_eq!(p, vec![0.5, -0.5]);
    }

    #[test]
    fn sgd_momentum_accumulates() {
        let mut opt = Optimizer::new(OptimConfig::Sgd {
            lr: 1.0,
            momentum: 0.5,
        });
        let mut p = vec![0.0];
        opt.begin_step();
        opt.step(0, &mut p, &[1.0]); // m=1, p=-1
        opt.begin_step();
        opt.step(0, &mut p, &[1.0]); // m=1.5, p=-2.5
        assert!((p[0] + 2.5).abs() < 1e-6);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // minimize f(x) = (x-3)^2 with grad 2(x-3)
        let mut opt = Optimizer::new(OptimConfig::adam(0.1));
        let mut x = vec![0.0f32];
        for _ in 0..500 {
            let g = vec![2.0 * (x[0] - 3.0)];
            opt.begin_step();
            opt.step(0, &mut x, &g);
        }
        assert!((x[0] - 3.0).abs() < 1e-2, "got {}", x[0]);
    }

    #[test]
    fn slots_are_independent() {
        let mut opt = Optimizer::new(OptimConfig::Sgd {
            lr: 1.0,
            momentum: 0.9,
        });
        let mut a = vec![0.0];
        let mut b = vec![0.0];
        opt.begin_step();
        opt.step(0, &mut a, &[1.0]);
        opt.step(1, &mut b, &[1.0]);
        opt.begin_step();
        opt.step(0, &mut a, &[0.0]);
        // slot 0 momentum should not have leaked into slot 1
        assert!((a[0] + 1.9).abs() < 1e-6);
        assert!((b[0] + 1.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut opt = Optimizer::new(OptimConfig::sgd(0.1));
        let mut p = vec![0.0];
        opt.step(0, &mut p, &[1.0, 2.0]);
    }

    #[test]
    fn grad_clip_bounds_update_magnitude() {
        let mut opt = Optimizer::new(OptimConfig::sgd(1.0));
        opt.set_grad_clip(0.5);
        let mut p = vec![0.0f32];
        opt.begin_step();
        opt.step(0, &mut p, &[100.0]);
        assert!((p[0] + 0.5).abs() < 1e-6, "clipped step: {}", p[0]);
    }

    #[test]
    fn grad_clip_zeroes_non_finite_gradients() {
        let mut opt = Optimizer::new(OptimConfig::sgd(1.0));
        opt.set_grad_clip(1.0);
        let mut p = vec![3.0f32];
        opt.begin_step();
        opt.step(0, &mut p, &[f32::NAN]);
        assert_eq!(p[0], 3.0, "NaN gradient must be dropped");
    }

    #[test]
    fn adam_faster_than_sgd_on_illconditioned() {
        // f(x, y) = x^2 + 100 y^2; Adam's per-coordinate scaling should make
        // more progress in few steps than plain SGD at a stable lr.
        let run = |cfg: OptimConfig| {
            let mut opt = Optimizer::new(cfg);
            let mut p = vec![1.0f32, 1.0];
            for _ in 0..50 {
                let g = vec![2.0 * p[0], 200.0 * p[1]];
                opt.begin_step();
                opt.step(0, &mut p, &g);
            }
            p[0].abs() + p[1].abs()
        };
        let adam = run(OptimConfig::adam(0.05));
        let sgd = run(OptimConfig::sgd(0.005)); // largest stable-ish lr
        assert!(adam < sgd, "adam {adam} vs sgd {sgd}");
    }
}
