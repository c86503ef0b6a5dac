//! Activation functions used across the H2O-NAS search spaces.
//!
//! The paper's ViT search space (Table 5) selects among ReLU, swish, GeLU and
//! **Squared ReLU** (the activation H2O-NAS picks for CoAtNet-H, Table 3),
//! so all four are first-class here, together with the sigmoid/tanh/identity
//! needed by DLRM heads and the performance model.

use crate::Matrix;
use std::fmt;

/// An element-wise activation function with an analytic derivative.
///
/// # Examples
///
/// ```
/// use h2o_tensor::Activation;
///
/// assert_eq!(Activation::Relu.apply(-1.0), 0.0);
/// assert_eq!(Activation::SquaredRelu.apply(3.0), 9.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Activation {
    /// `max(0, x)`.
    #[default]
    Relu,
    /// `x * sigmoid(x)` (a.k.a. SiLU).
    Swish,
    /// Gaussian error linear unit (tanh approximation).
    Gelu,
    /// `max(0, x)^2` — the Primer activation chosen for CoAtNet-H.
    SquaredRelu,
    /// Logistic sigmoid.
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
    /// Pass-through.
    Identity,
}

impl fmt::Display for Activation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Activation::Relu => "relu",
            Activation::Swish => "swish",
            Activation::Gelu => "gelu",
            Activation::SquaredRelu => "squared_relu",
            Activation::Sigmoid => "sigmoid",
            Activation::Tanh => "tanh",
            Activation::Identity => "identity",
        };
        f.write_str(name)
    }
}

fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

fn relu(x: f32) -> f32 {
    x.max(0.0)
}

fn relu_derivative(x: f32) -> f32 {
    if x > 0.0 {
        1.0
    } else {
        0.0
    }
}

fn swish(x: f32) -> f32 {
    x * sigmoid(x)
}

fn swish_derivative(x: f32) -> f32 {
    let s = sigmoid(x);
    s + x * s * (1.0 - s)
}

/// The tanh approximation of GELU.
fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + (0.797_884_6 * (x + 0.044_715 * x * x * x)).tanh())
}

/// The derivative of the tanh approximation.
fn gelu_derivative(x: f32) -> f32 {
    let c = 0.797_884_6;
    let inner = c * (x + 0.044_715 * x * x * x);
    let t = inner.tanh();
    let dinner = c * (1.0 + 3.0 * 0.044_715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
}

fn squared_relu(x: f32) -> f32 {
    let r = x.max(0.0);
    r * r
}

fn squared_relu_derivative(x: f32) -> f32 {
    if x > 0.0 {
        2.0 * x
    } else {
        0.0
    }
}

fn sigmoid_derivative(x: f32) -> f32 {
    let s = sigmoid(x);
    s * (1.0 - s)
}

fn tanh(x: f32) -> f32 {
    x.tanh()
}

fn tanh_derivative(x: f32) -> f32 {
    let t = x.tanh();
    1.0 - t * t
}

fn identity(x: f32) -> f32 {
    x
}

fn identity_derivative(_: f32) -> f32 {
    1.0
}

/// Evaluates `$body` with `$f` and `$d` bound to the scalar function and
/// derivative of `$act`'s variant. They are fn items, not pointers, so a
/// loop in `$body` compiles once per activation with both calls inlined,
/// and the `match` runs once per call, not once per element.
macro_rules! with_scalar_fns {
    ($act:expr, |$f:ident, $d:ident| $body:expr) => {
        match $act {
            Activation::Relu => {
                let ($f, $d) = (relu, relu_derivative);
                $body
            }
            Activation::Swish => {
                let ($f, $d) = (swish, swish_derivative);
                $body
            }
            Activation::Gelu => {
                let ($f, $d) = (gelu, gelu_derivative);
                $body
            }
            Activation::SquaredRelu => {
                let ($f, $d) = (squared_relu, squared_relu_derivative);
                $body
            }
            Activation::Sigmoid => {
                let ($f, $d) = (sigmoid, sigmoid_derivative);
                $body
            }
            Activation::Tanh => {
                let ($f, $d) = (tanh, tanh_derivative);
                $body
            }
            Activation::Identity => {
                let ($f, $d) = (identity, identity_derivative);
                $body
            }
        }
    };
}

impl Activation {
    /// Applies the activation to a scalar.
    pub fn apply(self, x: f32) -> f32 {
        with_scalar_fns!(self, |f, _d| f(x))
    }

    /// Derivative `d act(x) / dx` evaluated at the *pre-activation* `x`.
    pub fn derivative(self, x: f32) -> f32 {
        with_scalar_fns!(self, |_f, d| d(x))
    }

    /// Applies the activation element-wise to a matrix.
    pub fn apply_matrix(self, m: &Matrix) -> Matrix {
        with_scalar_fns!(self, |f, _d| m.map(f))
    }

    /// `grad ⊙ act'(pre)`, the gradient w.r.t. the pre-activation `pre`
    /// given `grad`, the gradient w.r.t. the activation's output, in one
    /// pass: element `i` is `grad[i] · derivative(pre[i])`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn backprop(self, grad: &Matrix, pre: &Matrix) -> Matrix {
        assert_eq!(grad.shape(), pre.shape(), "grad_out shape mismatch");
        let pairs = grad.as_slice().iter().zip(pre.as_slice());
        let data = with_scalar_fns!(self, |_f, d| pairs.map(|(&g, &x)| g * d(x)).collect());
        Matrix::from_vec(grad.rows(), grad.cols(), data)
    }

    /// Relative vector-unit cost of evaluating this activation on hardware,
    /// in "elementary VPU ops per element". Used by the hardware simulator:
    /// Squared ReLU costs a multiply + max and is *cheaper* than
    /// transcendental swish/GeLU on TPU vector units — one of the reasons
    /// H2O-NAS selects it (§7.1.1).
    pub fn vpu_ops_per_element(self) -> f64 {
        match self {
            Activation::Identity => 0.0,
            Activation::Relu => 1.0,
            Activation::SquaredRelu => 2.0,
            Activation::Tanh => 8.0,
            Activation::Sigmoid => 8.0,
            Activation::Swish => 10.0,
            Activation::Gelu => 14.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{edge_matrix, same_bits, special_share};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const ALL: [Activation; 7] = [
        Activation::Relu,
        Activation::Swish,
        Activation::Gelu,
        Activation::SquaredRelu,
        Activation::Sigmoid,
        Activation::Tanh,
        Activation::Identity,
    ];

    #[test]
    fn relu_clamps_negative() {
        assert_eq!(Activation::Relu.apply(-2.0), 0.0);
        assert_eq!(Activation::Relu.apply(2.0), 2.0);
    }

    #[test]
    fn squared_relu_squares_positive() {
        assert_eq!(Activation::SquaredRelu.apply(3.0), 9.0);
        assert_eq!(Activation::SquaredRelu.apply(-3.0), 0.0);
    }

    #[test]
    fn sigmoid_is_bounded_and_centered() {
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-6);
        assert!(Activation::Sigmoid.apply(10.0) > 0.999);
        assert!(Activation::Sigmoid.apply(-10.0) < 0.001);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-3f32;
        for act in ALL {
            for &x in &[-2.0f32, -0.5, 0.3, 1.7] {
                let numeric = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                let analytic = act.derivative(x);
                assert!(
                    (numeric - analytic).abs() < 2e-2,
                    "{act} derivative mismatch at {x}: {numeric} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn gelu_matches_known_values() {
        // GELU(1) ~ 0.8412, GELU(-1) ~ -0.1588
        assert!((Activation::Gelu.apply(1.0) - 0.8412).abs() < 1e-2);
        assert!((Activation::Gelu.apply(-1.0) + 0.1588).abs() < 1e-2);
    }

    /// IEEE edge values: signed zeros, the smallest subnormals and normals,
    /// the largest finite values, infinities and NaN.
    const EDGES: [f32; 12] = [
        0.0,
        -0.0,
        1e-45,
        -1e-45,
        f32::MIN_POSITIVE,
        -f32::MIN_POSITIVE,
        f32::MAX,
        f32::MIN,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
        1.0,
    ];

    /// `apply_matrix` and the fused `backprop` of every activation against
    /// the scalar `apply` and `grad · derivative` loops, bit for bit.
    fn check_matrix_passes(grad: &Matrix, pre: &Matrix) -> Result<(), String> {
        for act in ALL {
            let out: Vec<f32> = pre.as_slice().iter().map(|&x| act.apply(x)).collect();
            same_bits(
                &format!("{act} apply"),
                act.apply_matrix(pre).as_slice(),
                &out,
            )?;
            let want: Vec<f32> = grad
                .as_slice()
                .iter()
                .zip(pre.as_slice())
                .map(|(&g, &x)| g * act.derivative(x))
                .collect();
            let got = act.backprop(grad, pre);
            same_bits(&format!("{act} backprop"), got.as_slice(), &want)?;
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// For all seven activations, the matrix passes match the scalar
        /// loops bit for bit on random shapes mixing signed zeros,
        /// subnormals, infinities and NaN into ordinary values.
        fn matrix_passes_match_scalar_loops_bitwise(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let special = special_share(&mut rng);
            let (rows, cols) = (rng.gen_range(1usize..6), rng.gen_range(1usize..40));
            let pre = edge_matrix(&mut rng, special, rows, cols);
            let grad = edge_matrix(&mut rng, special, rows, cols);
            check_matrix_passes(&grad, &pre)?;
        }
    }

    /// Every pairing of an edge gradient with an edge pre-activation.
    #[test]
    fn matrix_passes_match_scalar_loops_on_every_edge_pair() {
        let n = EDGES.len();
        let pre = Matrix::from_fn(n, n, |_, c| EDGES[c]);
        let grad = Matrix::from_fn(n, n, |r, _| EDGES[r]);
        check_matrix_passes(&grad, &pre).expect("matrix passes match the scalar loops");
    }

    #[test]
    fn apply_matrix_is_elementwise() {
        let m = Matrix::from_rows(&[&[-1.0, 2.0]]);
        let out = Activation::Relu.apply_matrix(&m);
        assert_eq!(out, Matrix::from_rows(&[&[0.0, 2.0]]));
    }

    #[test]
    fn vpu_cost_ordering_squared_relu_cheaper_than_gelu() {
        assert!(
            Activation::SquaredRelu.vpu_ops_per_element() < Activation::Gelu.vpu_ops_per_element()
        );
        assert!(
            Activation::SquaredRelu.vpu_ops_per_element() < Activation::Swish.vpu_ops_per_element()
        );
    }

    #[test]
    fn display_names_are_snake_case() {
        assert_eq!(Activation::SquaredRelu.to_string(), "squared_relu");
    }
}
