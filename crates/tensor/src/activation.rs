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

impl Activation {
    /// Applies the activation to a scalar.
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Swish => x * sigmoid(x),
            Activation::Gelu => {
                // tanh approximation of GELU
                0.5 * x * (1.0 + (0.797_884_6 * (x + 0.044_715 * x * x * x)).tanh())
            }
            Activation::SquaredRelu => {
                let r = x.max(0.0);
                r * r
            }
            Activation::Sigmoid => sigmoid(x),
            Activation::Tanh => x.tanh(),
            Activation::Identity => x,
        }
    }

    /// Derivative `d act(x) / dx` evaluated at the *pre-activation* `x`.
    pub fn derivative(self, x: f32) -> f32 {
        match self {
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Swish => {
                let s = sigmoid(x);
                s + x * s * (1.0 - s)
            }
            Activation::Gelu => {
                // derivative of the tanh approximation
                let c = 0.797_884_6;
                let inner = c * (x + 0.044_715 * x * x * x);
                let t = inner.tanh();
                let dinner = c * (1.0 + 3.0 * 0.044_715 * x * x);
                0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner
            }
            Activation::SquaredRelu => {
                if x > 0.0 {
                    2.0 * x
                } else {
                    0.0
                }
            }
            Activation::Sigmoid => {
                let s = sigmoid(x);
                s * (1.0 - s)
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Activation::Identity => 1.0,
        }
    }

    /// Applies the activation element-wise to a matrix.
    pub fn apply_matrix(self, m: &Matrix) -> Matrix {
        m.map(|x| self.apply(x))
    }

    /// Element-wise derivative matrix evaluated at pre-activations `m`.
    pub fn derivative_matrix(self, m: &Matrix) -> Matrix {
        m.map(|x| self.derivative(x))
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
