//! The parameter optimizer: Adam (Kingma & Ba) at a caller's learning rate,
//! with the conventional constants β1 = 0.9, β2 = 0.999 and ε = 1e-8. The
//! performance model and both supernets train their dense weights with it;
//! embedding rows take the tables' own sparse SGD.
//!
//! An [`Optimizer`] keeps per-buffer state (Adam's two moments) keyed by a
//! caller-assigned *slot* index, so layers do not need to know which
//! optimizer trains them. Containers such as [`crate::Mlp`] assign slots in a
//! stable order across steps.

use crate::state::{StateError, StateReader, StateWriter};
use std::ops::Range;

/// First-moment decay.
const BETA1: f32 = 0.9;
/// Second-moment decay.
const BETA2: f32 = 0.999;
/// Numerical-stability term of the denominator.
const EPS: f32 = 1e-8;

/// One parameter buffer's optimizer state: Adam's two moments. Moved out of
/// [`Optimizer::slots_mut`] (`mem::take` leaves an empty slot), it is
/// detached: an [`Update`] applies to it away from the optimizer, until it
/// is moved back.
#[derive(Debug, Clone, Default)]
pub struct Slot {
    /// First moment.
    m: Vec<f32>,
    /// Second moment.
    v: Vec<f32>,
    /// Per [`CHUNK`]: whether the last pass left a tiny first moment there,
    /// so the next pass runs the absorbing loop. Only speed depends on it
    /// (both loops write the same bits), so it is not checkpointed; a slot
    /// without it starts with every chunk set.
    tiny: Vec<bool>,
}

/// A stateful Adam optimizer over an arbitrary number of parameter buffers.
///
/// # Examples
///
/// ```
/// use h2o_tensor::Optimizer;
///
/// let mut opt = Optimizer::new(0.1);
/// let mut params = vec![1.0f32];
/// let mut grads = vec![2.0f32];
/// opt.begin_step();
/// opt.step(0, &mut params, &mut grads);
/// // Adam's first step moves a weight by about `lr` against its gradient.
/// assert!((params[0] - 0.9).abs() < 1e-6);
/// assert_eq!(grads, [0.0]); // the update consumed the gradient
/// ```
#[derive(Debug, Clone)]
pub struct Optimizer {
    lr: f32,
    slots: Vec<Slot>,
    t: u64,
    grad_clip: Option<f32>,
}

impl Optimizer {
    /// Creates an optimizer at learning rate `lr` with no allocated state;
    /// slots grow on demand.
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
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

    /// Advances the global step counter (used for Adam bias correction).
    /// Call once per training step, before the per-buffer [`Optimizer::step`]
    /// calls of that training step.
    pub fn begin_step(&mut self) {
        self.t += 1;
    }

    /// The update of the current step count, detached from the optimizer:
    /// it still applies that step's update after later
    /// [`Optimizer::begin_step`] calls, and from any thread.
    pub fn update(&self) -> Update {
        Update {
            lr: self.lr,
            t: self.t,
            grad_clip: self.grad_clip,
        }
    }

    /// Applies one update to the parameter buffer registered at `slot`,
    /// then zeroes `grads`, which the update consumed: the current step's
    /// [`Update::apply`] on that slot's state.
    ///
    /// # Panics
    ///
    /// As [`Update::apply`].
    pub fn step(&mut self, slot: usize, params: &mut [f32], grads: &mut [f32]) {
        let update = self.update();
        update.apply(&mut self.slots_mut(slot..slot + 1)[0], params, grads);
    }

    /// The states of the slots in `range`, growing the slot list on demand.
    /// A slot moved out of it is detached until it is moved back: the
    /// optimizer's own view of that slot stays empty meanwhile, so a state
    /// written with [`Optimizer::write_state`] then would lose it.
    pub fn slots_mut(&mut self, range: Range<usize>) -> &mut [Slot] {
        if self.slots.len() < range.end {
            self.slots.resize_with(range.end, Slot::default);
        }
        &mut self.slots[range]
    }

    /// Serialises the optimizer's mutable state (step counter plus every
    /// slot's moment buffers) for checkpointing. The learning rate and
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
    /// Propagates decoding failures from the reader, returns
    /// [`StateError::StepCounter`] for a step counter of `u64::MAX`, which
    /// [`Optimizer::begin_step`] could not advance, and
    /// [`StateError::LengthMismatch`] for a slot Adam cannot have written:
    /// one whose two moments differ in length.
    pub fn read_state(&mut self, r: &mut StateReader<'_>) -> Result<(), StateError> {
        let t = r.take_u64()?;
        if t == u64::MAX {
            return Err(StateError::StepCounter { found: t });
        }
        let count = r.take_u64()? as usize;
        let mut slots = Vec::new();
        for _ in 0..count {
            let m = r.take_f32_vec()?;
            let v = r.take_f32_vec()?;
            if v.len() != m.len() {
                return Err(StateError::LengthMismatch {
                    expected: m.len(),
                    found: v.len(),
                });
            }
            slots.push(Slot {
                m,
                v,
                tiny: Vec::new(),
            });
        }
        self.t = t;
        self.slots = slots;
        Ok(())
    }

    /// Checks restored slots against the buffers they train, given in slot
    /// order: an optimizer that has stepped holds one slot per buffer, each
    /// as long as its buffer, and one that never stepped holds none. Call it
    /// after [`Optimizer::read_state`], whose blob cannot know the buffers,
    /// so that a mismatch is an error here rather than a panic in the next
    /// [`Optimizer::step`].
    ///
    /// # Errors
    ///
    /// [`StateError::LengthMismatch`] on a slot count or length that does
    /// not fit `lens`.
    pub fn check_slots(&self, lens: &[usize]) -> Result<(), StateError> {
        if self.slots.is_empty() {
            return Ok(());
        }
        if self.slots.len() != lens.len() {
            return Err(StateError::LengthMismatch {
                expected: lens.len(),
                found: self.slots.len(),
            });
        }
        for (slot, &len) in self.slots.iter().zip(lens) {
            if slot.m.len() != len {
                return Err(StateError::LengthMismatch {
                    expected: len,
                    found: slot.m.len(),
                });
            }
        }
        Ok(())
    }
}

/// One training step's update, detached from its [`Optimizer`]: the
/// learning rate, the gradient clip and the step count. Applied to a buffer
/// and that buffer's [`Slot`], it writes the bits the optimizer's own
/// [`Optimizer::step`] writes at that step count, whenever and on whichever
/// thread it runs.
#[derive(Debug, Clone, Copy)]
pub struct Update {
    lr: f32,
    t: u64,
    grad_clip: Option<f32>,
}

impl Update {
    /// Updates `params` from `grads` and the buffer's state `slot`, then
    /// zeroes `grads`, which the update consumed.
    ///
    /// One pass over `(param, grad, m, v)` updates each element on its own,
    /// evaluating exactly this expression in this order (`c` is the clip,
    /// `bcN = 1 − βNᵗ`):
    ///
    /// * clip, if set: `g = if g.is_finite() { g.clamp(-c, c) } else { 0.0 }`;
    /// * `m = β1·m + (1 − β1)·g`, `v = β2·v + ((1 − β2)·g)·g`, then
    ///   `p -= (lr·(m / bc1)) / (sqrt(v / bc2) + eps)`.
    ///
    /// Divisions stay divisions and nothing is reassociated or fused, so a
    /// vectorised build writes the same bits as a scalar one (DESIGN.md,
    /// "Kernel bit-exactness").
    ///
    /// Elements whose weight gets no gradient and whose first moment has
    /// decayed to almost nothing take an exact shortcut that writes the
    /// same bits without subnormal arithmetic (DESIGN.md, the absorbed
    /// update).
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != grads.len()`, or if a slot is reused with a
    /// different buffer length.
    pub fn apply(&self, slot: &mut Slot, params: &mut [f32], grads: &mut [f32]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        let Update { lr, t, grad_clip } = *self;
        match grad_clip {
            // `g.clamp(-c, c)` for the `c > 0` that `set_grad_clip`
            // enforces, written without clamp's range assert: a panic path
            // inside the absorbing loop keeps it from vectorising.
            Some(c) => update(lr, t, slot, params, grads, |g| {
                if !g.is_finite() {
                    0.0
                } else if g < -c {
                    -c
                } else if g > c {
                    c
                } else {
                    g
                }
            }),
            None => update(lr, t, slot, params, grads, |g| g),
        }
        grads.fill(0.0);
    }
}

/// The element loop of [`Update::apply`], generic over the clip so that
/// each clip setting compiles to its own branch-free loop.
fn update(
    lr: f32,
    t: u64,
    state: &mut Slot,
    params: &mut [f32],
    grads: &[f32],
    clipped: impl Fn(f32) -> f32,
) {
    let n = params.len();
    if state.m.is_empty() {
        state.m = vec![0.0; n];
        state.v = vec![0.0; n];
    }
    assert_eq!(state.m.len(), n, "slot reused with new size");
    assert_eq!(state.v.len(), n, "slot reused with new size");
    let tf = t.max(1) as f32;
    let adam = Adam {
        lr,
        bc1: 1.0 - BETA1.powf(tf),
        bc2: 1.0 - BETA2.powf(tf),
    };
    let (ms, vs) = (&mut state.m[..], &mut state.v[..]);
    let Some(absorb) = Absorb::new(&adam) else {
        adam.plain(params, grads, ms, vs, &clipped);
        return;
    };
    let chunks = n.div_ceil(CHUNK);
    if state.tiny.len() != chunks {
        state.tiny = vec![true; chunks];
    }
    // A scan on every pass would cost a quarter of the plain loop; a
    // moment decaying at β1 = 0.9 takes about 130 steps from 2⁻⁹⁶ to
    // where `lr·m̂` turns subnormal, so every 16th pass is enough.
    let watch = t.is_multiple_of(16);
    let mut c = 0;
    while c < chunks {
        let lo = c * CHUNK;
        if state.tiny[c] {
            let hi = n.min(lo + CHUNK);
            let (p, g) = (&mut params[lo..hi], &grads[lo..hi]);
            let (m, v) = (&mut ms[lo..hi], &mut vs[lo..hi]);
            state.tiny[c] = absorb.masked(&adam, p, g, m, v, &clipped);
            c += 1;
        } else {
            // A run of plain chunks is one pass, as without chunks.
            let run = state.tiny[c..].iter().take_while(|&&tiny| !tiny).count();
            let hi = n.min(lo + run * CHUNK);
            let (p, g) = (&mut params[lo..hi], &grads[lo..hi]);
            adam.plain(p, g, &mut ms[lo..hi], &mut vs[lo..hi], &clipped);
            if watch {
                let flags = state.tiny[c..c + run].iter_mut();
                for (tiny, m) in flags.zip(ms[lo..hi].chunks(CHUNK)) {
                    *tiny = m.iter().fold(false, |any, &m| any | is_tiny(m));
                }
            }
            c += run;
        }
    }
}

/// `|x|` of an `f32`'s bits.
const ABS: u32 = 0x7fff_ffff;
/// The bits of `+inf`: a magnitude below it is finite.
const INF: u32 = 0x7f80_0000;
/// `2⁻⁹⁶`: a moment with `0 < |m|` below it may be absorbed.
const TINY_M: u32 = 0x0f80_0000;
/// `2⁻¹²⁵`: below it (the subnormals and the first normal binade, which
/// share the `2⁻¹⁴⁹` grid) `β1·m` can round into the subnormals, so the
/// absorbed path computes it from the integer mantissa.
const GRID_M: u32 = 0x0100_0000;
/// Elements per chunk of an Adam pass: a chunk holding no tiny moment runs
/// the plain loop.
const CHUNK: usize = 64;

/// The per-call constants of one Adam pass.
#[derive(Clone, Copy)]
struct Adam {
    lr: f32,
    bc1: f32,
    bc2: f32,
}

impl Adam {
    /// The documented per-element expression, as one zipped pass.
    #[inline(always)]
    fn plain(
        &self,
        params: &mut [f32],
        grads: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        clipped: &impl Fn(f32) -> f32,
    ) {
        let Adam { lr, bc1, bc2 } = *self;
        let moments = m.iter_mut().zip(v.iter_mut());
        for ((p, &g), (m, v)) in params.iter_mut().zip(grads).zip(moments) {
            let g = clipped(g);
            *m = BETA1 * *m + (1.0 - BETA1) * g;
            *v = BETA2 * *v + (1.0 - BETA2) * g * g;
            let m_hat = *m / bc1;
            let v_hat = *v / bc2;
            *p -= lr * m_hat / (v_hat.sqrt() + EPS);
        }
    }
}

/// Whether `0 < |m| < 2⁻⁹⁶`.
#[inline(always)]
fn is_tiny(m: f32) -> bool {
    (m.to_bits() & ABS).wrapping_sub(1) < TINY_M - 1
}

/// The absorbed update: an exact shortcut for Adam elements whose weight
/// gets no gradient and whose first moment has decayed to almost nothing.
///
/// Such a moment shrinks by `β1` per step into the subnormals, where every
/// operation on it (`β1·m`, `m/bc1`, `lr·m̂`, the quotient, `p − u`) takes
/// a slow microcode path, and at `β1 = 0.9` it settles for good at
/// `4·2⁻¹⁴⁹`. An element is *absorbed* when its clipped gradient is `±0`,
/// `0 < |m| < 2⁻⁹⁶`, `v` is finite and `≥ +0`, and `|p|` is finite and above
/// [`Absorb::new`]'s floor. Such an element's update `u` is below half an
/// ulp of `p`, so `p − u` rounds back to `p`: the pass computes `p` from a
/// zero first moment instead (`p − (±0)` is `p`, and a NaN denominator
/// still makes it NaN), writes `v` as always, and writes the exact IEEE
/// `β1·m + (1 − β1)·g`, taken from the integer mantissa when `|m| < 2⁻¹²⁵`.
/// Every other element evaluates the documented expression.
struct Absorb {
    /// Absorbed parameters have `|p|` bits in `p_lo .. p_lo + p_span`.
    p_lo: u32,
    p_span: u32,
    /// Mantissas `1..=fixed` are fixed points of `β1·m` on the `2⁻¹⁴⁹`
    /// grid, so their moment keeps its bits.
    fixed: u32,
}

impl Absorb {
    /// The path's constants, or `None` (every element takes the plain
    /// expression) when `lr` is not finite. `bc1` is finite and in
    /// `[1 − β1, 1]` at every step count.
    fn new(adam: &Adam) -> Option<Self> {
        let Adam { lr, bc1, .. } = *adam;
        // An absorbed element has |β1·m| ≤ |m| < 2⁻⁹⁶ and a denominator
        // `sqrt(v̂) + eps` of at least `eps` (or NaN, which makes both
        // forms NaN). Rounding is monotone, so evaluating the update's
        // chain at those extremes bounds |u| from above.
        let bound = (lr.abs() * (f32::from_bits(TINY_M) / bc1)) / EPS;
        // |p| > bound·2²⁵ gives |u| < |p|·2⁻²⁵, under half an ulp of p even
        // at the bottom of p's binade. Scaling by 2²⁵ is exact. A
        // non-finite `lr` makes the floor NaN or infinite.
        let floor = bound * 33_554_432.0;
        if !floor.is_finite() {
            return None;
        }
        let p_lo = floor.to_bits() + 1;
        Some(Self {
            p_lo,
            p_span: INF - p_lo,
            fixed: fixed_points(BETA1),
        })
    }

    /// One chunk of the pass with absorbed elements masked: their `p`
    /// arithmetic runs on a zero first moment, their grid moments keep
    /// their bits until the patch writes the exact product, and every other
    /// element evaluates the documented expression. Returns whether the
    /// chunk still holds a tiny first moment.
    #[inline(always)]
    fn masked(
        &self,
        adam: &Adam,
        params: &mut [f32],
        grads: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        clipped: &impl Fn(f32) -> f32,
    ) -> bool {
        let Adam { lr, bc1, bc2 } = *adam;
        let mut patch = [false; CHUNK];
        let mut pending = false;
        let mut tiny = false;
        let moments = m.iter_mut().zip(v.iter_mut());
        let lanes = params.iter_mut().zip(grads).zip(moments).zip(&mut patch);
        for (((p, &g), (m, v)), patch) in lanes {
            let g = clipped(g);
            let m_bits = m.to_bits() & ABS;
            let absorbed = (g.to_bits() << 1 == 0)
                & (v.to_bits() < INF)
                & is_tiny(*m)
                & ((p.to_bits() & ABS).wrapping_sub(self.p_lo) < self.p_span);
            let on_grid = absorbed & (m_bits < GRID_M);
            let m_new = BETA1 * (if on_grid { 0.0 } else { *m }) + (1.0 - BETA1) * g;
            *v = BETA2 * *v + (1.0 - BETA2) * g * g;
            let m_hat = (if absorbed { 0.0 } else { m_new }) / bc1;
            let v_hat = *v / bc2;
            *p -= lr * m_hat / (v_hat.sqrt() + EPS);
            *m = if on_grid { *m } else { m_new };
            *patch = on_grid & (m_bits > self.fixed);
            pending |= *patch;
            tiny |= is_tiny(*m);
        }
        if pending {
            for ((m, &g), &patch) in m.iter_mut().zip(grads).zip(&patch) {
                if patch {
                    *m = decay_on_grid(BETA1, *m, clipped(g));
                }
            }
        }
        tiny
    }
}

/// `β1·m + (1 − β1)·g` for `|m| < 2⁻¹²⁵` and `g = ±0`, bit for bit, without
/// subnormal arithmetic. Below `2⁻¹²⁵`, `|m|` is its magnitude bits times
/// `2⁻¹⁴⁹`, and so is every product on that grid: the product of those bits
/// and `β1` is exact in `f64` (24 × 24 bits), rounding it half-even to an
/// integer is the IEEE rounding, and a result of `2²³` or more carries into
/// the exponent field as the next binade's encoding. A product that rounds
/// to zero takes the gradient's signed zero as the sum does.
fn decay_on_grid(beta1: f32, m: f32, g: f32) -> f32 {
    let bits = m.to_bits();
    let grid = (f64::from(beta1) * f64::from(bits & ABS)).round_ties_even();
    let product = f32::from_bits((bits & !ABS) | grid as u32);
    if grid == 0.0 {
        product + (1.0 - beta1) * g
    } else {
        product
    }
}

/// The largest `k` such that every mantissa `1..=k` on the `2⁻¹⁴⁹` grid is
/// a fixed point of `β1·m` (`4` for `β1 = 0.9`). The fixed points are the
/// mantissas `M` with `(1 − β1)·M < ½`, plus an even `M` at exactly `½`,
/// so they run from 1 without a gap, and the estimate `½ / (1 − β1)` lands
/// within one step of the answer.
fn fixed_points(beta1: f32) -> u32 {
    let beta1 = f64::from(beta1);
    let fixed = |m: u32| (beta1 * f64::from(m)).round_ties_even() == f64::from(m);
    let mut k = ((0.5 / (1.0 - beta1)) as u32).min(GRID_M);
    while k > 0 && !fixed(k) {
        k -= 1;
    }
    while k < GRID_M && fixed(k + 1) {
        k += 1;
    }
    k
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
        if state.m.is_empty() {
            state.m = vec![0.0; params.len()];
            state.v = vec![0.0; params.len()];
        }
        assert_eq!(state.m.len(), params.len(), "slot reused with new size");
        let t = opt.t.max(1) as f32;
        let bc1 = 1.0 - BETA1.powf(t);
        let bc2 = 1.0 - BETA2.powf(t);
        for i in 0..params.len() {
            let g = clipped(grads[i]);
            state.m[i] = BETA1 * state.m[i] + (1.0 - BETA1) * g;
            state.v[i] = BETA2 * state.v[i] + (1.0 - BETA2) * g * g;
            let m_hat = state.m[i] / bc1;
            let v_hat = state.v[i] / bc2;
            params[i] -= opt.lr * m_hat / (v_hat.sqrt() + EPS);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Any learning rate, clip on and off, at steps 1 through 400, over
        /// parameters and gradients mixing in signed zeros, subnormals,
        /// infinities and NaN: params and both moments match the scalar
        /// reference bit for bit.
        fn step_matches_scalar_reference_bitwise(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut fast = Optimizer::new(rng.gen_range(1e-4f32..1.0));
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
                let mut consumed = grads.clone();
                fast.step(0, &mut p_fast, &mut consumed);
                reference_step(&mut slow, 0, &mut p_slow, &grads);
                prop_assert!(consumed.iter().all(|g| g.to_bits() == 0), "gradients not zeroed");
            }
            same_bits("params", &p_fast, &p_slow)?;
            same_bits("m", &fast.slots[0].m, &slow.slots[0].m)?;
            same_bits("v", &fast.slots[0].v, &slow.slots[0].v)?;
        }
    }

    /// Whether `x` is subnormal.
    fn subnormal(x: f32) -> bool {
        x != 0.0 && x.abs() < f32::MIN_POSITIVE
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Adam over up to 1,500 steps in which each element gets gradients
        /// for a random number of steps and then zeros, so its first moment
        /// decays through tiny normals and the subnormals onto its fixed
        /// point (`4·2⁻¹⁴⁹` at β1 = 0.9): params and both moments match the
        /// scalar reference bit for bit after every step, clip on and off,
        /// and the run must reach subnormal and fixed-point moments.
        fn decayed_moments_match_scalar_reference_bitwise(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let lr = [1e-3, 2e-3, rng.gen_range(1e-5f32..0.1)][rng.gen_range(0usize..3)];
            let mut fast = Optimizer::new(lr);
            if rng.gen_bool(0.5) {
                fast.set_grad_clip(rng.gen_range(0.01f32..1.0));
            }
            let mut slow = fast.clone();
            let n = rng.gen_range(1usize..300);
            let mut p_fast: Vec<f32> = (0..n)
                .map(|_| match rng.gen_range(0usize..10) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => rng.gen_range(-1e-30f32..1e-30),
                    _ => rng.gen_range(-1.0f32..1.0),
                })
                .collect();
            let mut p_slow = p_fast.clone();
            // Each element's last step with a gradient, and its gradient
            // scale (a few decay from subnormal gradients).
            let live: Vec<usize> = (0..n).map(|_| rng.gen_range(0usize..400)).collect();
            let scale: Vec<f32> = (0..n)
                .map(|_| if rng.gen_bool(0.05) { 1e-40 } else { rng.gen_range(1e-4f32..1.0) })
                .collect();
            let steps = rng.gen_range(1000usize..=1500);
            let (mut saw_subnormal, mut saw_fixed_point) = (false, false);
            for step in 0..steps {
                let grads: Vec<f32> = (0..n)
                    .map(|i| match step < live[i] {
                        true => scale[i] * rng.gen_range(-1.0f32..1.0),
                        false if rng.gen_bool(0.5) => -0.0,
                        false => 0.0,
                    })
                    .collect();
                fast.begin_step();
                slow.begin_step();
                fast.step(0, &mut p_fast, &mut grads.clone());
                reference_step(&mut slow, 0, &mut p_slow, &grads);
                same_bits("params", &p_fast, &p_slow).map_err(|e| format!("step {step}: {e}"))?;
                same_bits("m", &fast.slots[0].m, &slow.slots[0].m).map_err(|e| format!("step {step}: {e}"))?;
                same_bits("v", &fast.slots[0].v, &slow.slots[0].v).map_err(|e| format!("step {step}: {e}"))?;
                saw_subnormal |= fast.slots[0].m.iter().any(|&m| subnormal(m));
                saw_fixed_point |= fast.slots[0].m.iter().any(|&m| m.abs() == 4.0 * f32::from_bits(1));
            }
            prop_assert!(saw_subnormal, "no first moment reached the subnormals");
            prop_assert!(saw_fixed_point, "no first moment reached 4·2⁻¹⁴⁹");
            let tiny_left = fast.slots[0].m.iter().any(|&m| is_tiny(m));
            prop_assert!(!tiny_left || fast.slots[0].tiny.contains(&true), "the absorbing loop never ran");
        }
    }

    /// The absorbed path's edge rows, each element once with every
    /// neighbour it can share a chunk with: `v` NaN, negative and `+inf`;
    /// `|p|` just below, at and just above the floor, and infinite; signed
    /// zeros in `g` and `p`; tiny moments on and off the `2⁻¹⁴⁹` grid; and
    /// `lr` of zero, negative and large. Every case matches the scalar
    /// reference bit for bit.
    #[test]
    fn absorbed_edges_match_scalar_reference_bitwise() {
        let tiny = [
            f32::from_bits(1),
            -f32::from_bits(4),
            f32::from_bits(5),
            f32::from_bits(0x007f_ffff),
            -f32::MIN_POSITIVE,
            f32::from_bits(0x00ff_ffff),
            f32::from_bits(0x0100_0000),
            -1e-35,
            f32::from_bits(TINY_M - 1),
            f32::from_bits(TINY_M),
        ];
        for lr in [1e-3, 0.0, -1e-3, 0.5] {
            for clip in [None, Some(0.5)] {
                for t in [1, 7, 16, 2000] {
                    let adam = Adam {
                        lr,
                        bc1: 1.0 - BETA1.powf(t as f32),
                        bc2: 1.0 - BETA2.powf(t as f32),
                    };
                    let floor = Absorb::new(&adam).map_or(1.0, |a| f32::from_bits(a.p_lo - 1));
                    let ps = [
                        floor,
                        f32::from_bits(floor.to_bits() + 1),
                        f32::from_bits(floor.to_bits().saturating_sub(1)),
                        -f32::from_bits(floor.to_bits() + 1),
                        0.0,
                        -0.0,
                        0.75,
                        f32::INFINITY,
                    ];
                    let vs = [0.0, -0.0, 1e-6, f32::NAN, -1e-6, f32::INFINITY];
                    let gs = [0.0, -0.0, 1e-3, f32::NAN];
                    let mut params = Vec::new();
                    let mut grads = Vec::new();
                    let mut ms = Vec::new();
                    let mut vv = Vec::new();
                    for &p in &ps {
                        for &v in &vs {
                            for &g in &gs {
                                for &m in &tiny {
                                    params.push(p);
                                    grads.push(g);
                                    ms.push(m);
                                    vv.push(v);
                                }
                            }
                        }
                    }
                    let mut fast = Optimizer::new(lr);
                    if let Some(c) = clip {
                        fast.set_grad_clip(c);
                    }
                    fast.t = t - 1;
                    fast.slots.push(Slot {
                        m: ms,
                        v: vv,
                        tiny: Vec::new(),
                    });
                    let mut slow = fast.clone();
                    let mut p_slow = params.clone();
                    for _ in 0..3 {
                        fast.begin_step();
                        slow.begin_step();
                        fast.step(0, &mut params, &mut grads.clone());
                        reference_step(&mut slow, 0, &mut p_slow, &grads);
                        let case = format!("lr {lr} clip {clip:?} t {t}");
                        same_bits("params", &params, &p_slow).expect(&case);
                        same_bits("m", &fast.slots[0].m, &slow.slots[0].m).expect(&case);
                        same_bits("v", &fast.slots[0].v, &slow.slots[0].v).expect(&case);
                    }
                }
            }
        }
    }

    /// The per-call constants: a typical learning rate takes the absorbed
    /// path with a floor far below any trained weight, a non-finite one
    /// does not, and the fixed points match the grid arithmetic at any β1.
    #[test]
    fn absorb_constants() {
        let adam = |lr: f32| Adam {
            lr,
            bc1: 1.0 - BETA1,
            bc2: 1.0 - BETA2,
        };
        let typical = Absorb::new(&adam(1e-3)).expect("typical Adam absorbs");
        let floor = f32::from_bits(typical.p_lo - 1);
        assert!(floor > 0.0 && floor < 1e-15, "floor {floor:e}");
        assert_eq!(typical.fixed, 4);
        for lr in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            assert!(Absorb::new(&adam(lr)).is_none(), "{lr}");
        }
        for beta1 in [
            0.0f32,
            0.25,
            0.5,
            0.75,
            0.9,
            0.99,
            0.999,
            1.0 - f32::EPSILON / 2.0,
        ] {
            let fixed = fixed_points(beta1);
            for m in 1..=fixed.min(1 << 12) {
                assert_eq!(
                    decay_on_grid(beta1, f32::from_bits(m), 0.0).to_bits(),
                    m,
                    "{beta1} {m}"
                );
            }
            if fixed < GRID_M - 1 {
                let next = f32::from_bits(fixed + 1);
                assert_ne!(decay_on_grid(beta1, next, 0.0), next, "{beta1}");
            }
        }
    }

    /// An update applied later, to a detached slot, from another thread,
    /// writes the bits of the in-place update. One optimizer steps two
    /// slots in place; its copy steps slot 1 in place too, but detaches
    /// slot 0 with that step's [`Update`] and applies it on a spawned
    /// thread only after its own counter has moved on to the next step.
    /// Half of slot 0's elements sit in the absorbed range for the whole
    /// run (a zero gradient and a first moment below 2⁻⁹⁶: normal,
    /// subnormal and the `4·2⁻¹⁴⁹` fixed point), the run passes the
    /// tiny-moment scans of steps 16, 32 and 48, and both copies match
    /// bit for bit after every step, clip on and off.
    #[test]
    fn detached_update_writes_the_in_place_bits() {
        let mut rng = StdRng::seed_from_u64(5);
        let tiny = [
            f32::from_bits(TINY_M - 1),
            -1e-35,
            f32::from_bits(0x0040_0000),
            4.0 * f32::from_bits(1),
        ];
        let n = 3 * CHUNK + 5;
        let absorbed = |i: usize| i.is_multiple_of(2);
        for clip in [None, Some(0.5)] {
            let mut in_place = Optimizer::new(1e-3);
            if let Some(c) = clip {
                in_place.set_grad_clip(c);
            }
            let m = (0..n)
                .map(|i| match absorbed(i) {
                    true => tiny[i / 2 % tiny.len()],
                    false => rng.gen_range(-1e-3f32..1e-3),
                })
                .collect();
            let v = (0..n).map(|_| rng.gen_range(0.0f32..1e-6)).collect();
            in_place.slots = vec![
                Slot {
                    m,
                    v,
                    tiny: Vec::new(),
                },
                Slot::default(),
            ];
            let mut detached = in_place.clone();
            let mut p_in: Vec<f32> = (0..n).map(|_| rng.gen_range(0.5f32..1.0)).collect();
            let mut p_det = p_in.clone();
            let (mut other_in, mut other_det) = (vec![0.5f32; 7], vec![0.5f32; 7]);
            let mut pending: Option<(Update, Slot, Vec<f32>)> = None;
            let mut scanned = false;
            for step in 1..=49u64 {
                detached.begin_step();
                if let Some((update, mut slot, mut grads)) = pending.take() {
                    std::thread::scope(|s| {
                        s.spawn(|| update.apply(&mut slot, &mut p_det, &mut grads));
                    });
                    assert!(grads.iter().all(|g| g.to_bits() == 0), "step {step}");
                    detached.slots_mut(0..1)[0] = slot;
                    same_bits("params", &p_det, &p_in).expect("params");
                    same_bits("other", &other_det, &other_in).expect("other");
                    for (a, b) in detached.slots.iter().zip(&in_place.slots) {
                        same_bits("m", &a.m, &b.m).expect("m");
                        same_bits("v", &a.v, &b.v).expect("v");
                    }
                    scanned |=
                        update.t.is_multiple_of(16) && detached.slots[0].tiny.contains(&true);
                }
                if step == 49 {
                    break;
                }
                let grads: Vec<f32> = (0..n)
                    .map(|i| match absorbed(i) {
                        true if rng.gen_bool(0.5) => -0.0,
                        true => 0.0,
                        false => rng.gen_range(-1.0f32..1.0),
                    })
                    .collect();
                let other: Vec<f32> = (0..7).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                in_place.begin_step();
                in_place.step(0, &mut p_in, &mut grads.clone());
                in_place.step(1, &mut other_in, &mut other.clone());
                detached.step(1, &mut other_det, &mut other.clone());
                let slot = std::mem::take(&mut detached.slots_mut(0..1)[0]);
                pending = Some((detached.update(), slot, grads));
            }
            assert!(scanned, "no scan step kept a tiny moment");
            let still_tiny = in_place.slots[0].m.iter().filter(|&&m| is_tiny(m)).count();
            assert!(
                still_tiny >= n / 2,
                "{still_tiny} moments left in the absorbed range"
            );
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
        let mut adam = Optimizer::new(0.1);
        let short_v = one_slot_blob(&[0.1, 0.2], &[0.3]);
        assert_eq!(
            adam.read_state(&mut StateReader::new(&short_v)),
            Err(StateError::LengthMismatch {
                expected: 2,
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
    fn read_state_rejects_a_step_counter_that_cannot_advance() {
        let mut w = StateWriter::new();
        w.put_u64(u64::MAX);
        w.put_u64(0);
        let blob = w.into_bytes();
        let mut adam = Optimizer::new(0.1);
        assert_eq!(
            adam.read_state(&mut StateReader::new(&blob)),
            Err(StateError::StepCounter { found: u64::MAX })
        );
        assert_eq!(adam.t, 0);
    }

    #[test]
    #[should_panic(expected = "slot reused with new size")]
    fn adam_step_checks_the_second_moment_length() {
        let mut opt = Optimizer::new(0.1);
        opt.slots.push(Slot {
            m: vec![0.0; 2],
            v: vec![0.0; 1],
            tiny: Vec::new(),
        });
        opt.begin_step();
        opt.step(0, &mut [1.0, 2.0], &mut [0.5, 0.5]);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        // minimize f(x) = (x-3)^2 with grad 2(x-3)
        let mut opt = Optimizer::new(0.1);
        let mut x = vec![0.0f32];
        for _ in 0..500 {
            let mut g = vec![2.0 * (x[0] - 3.0)];
            opt.begin_step();
            opt.step(0, &mut x, &mut g);
        }
        assert!((x[0] - 3.0).abs() < 1e-2, "got {}", x[0]);
    }

    #[test]
    fn slots_are_independent() {
        let mut opt = Optimizer::new(1.0);
        let mut a = vec![0.0];
        let mut b = vec![0.0];
        opt.begin_step();
        opt.step(0, &mut a, &mut [1.0]);
        opt.step(1, &mut b, &mut [-3.0]);
        opt.begin_step();
        opt.step(0, &mut a, &mut [0.0]);
        // Each slot's moments saw only its own gradients: slot 0 decayed
        // once, slot 1 kept its first step's moments.
        assert!((opt.slots[0].m[0] - 0.09).abs() < 1e-7);
        assert!((opt.slots[1].m[0] + 0.3).abs() < 1e-7);
        assert!((opt.slots[1].v[0] - 0.009).abs() < 1e-6);
        // Adam's first step moves a weight by about `lr`.
        assert!((b[0] - 1.0).abs() < 1e-5, "{}", b[0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut opt = Optimizer::new(0.1);
        let mut p = vec![0.0];
        opt.step(0, &mut p, &mut [1.0, 2.0]);
    }

    #[test]
    fn grad_clip_bounds_update_magnitude() {
        let mut opt = Optimizer::new(1.0);
        opt.set_grad_clip(0.5);
        let mut p = vec![0.0f32];
        opt.begin_step();
        opt.step(0, &mut p, &mut [100.0]);
        // The moments saw a gradient of 0.5, not 100.
        let (m, v) = (opt.slots[0].m[0], opt.slots[0].v[0]);
        assert!((m - 0.05).abs() < 1e-7, "clipped first moment: {m}");
        assert!((v - 0.000_25).abs() < 1e-7, "clipped second moment: {v}");
        assert!((p[0] + 1.0).abs() < 1e-5, "clipped step: {}", p[0]);
    }

    #[test]
    fn grad_clip_zeroes_non_finite_gradients() {
        let mut opt = Optimizer::new(1.0);
        opt.set_grad_clip(1.0);
        let mut p = vec![3.0f32];
        opt.begin_step();
        opt.step(0, &mut p, &mut [f32::NAN]);
        assert_eq!(p[0], 3.0, "NaN gradient must be dropped");
        let (m, v) = (opt.slots[0].m[0], opt.slots[0].v[0]);
        assert_eq!((m, v), (0.0, 0.0), "NaN gradient reached the moments");
    }
}
