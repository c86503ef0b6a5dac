//! Categorical decisions and search spaces.
//!
//! To the RL search algorithm, "the search space consists of a set of
//! categorical decisions, where each decision controls a different aspect of
//! the network architecture" (§4.1 of the paper). This module is that
//! abstraction: a [`SearchSpace`] is an ordered list of [`Decision`]s, an
//! [`ArchSample`] is one choice index per decision, and sizes are tracked in
//! log₁₀ space because the paper's DLRM space has ~10²⁸² candidates.

use rand::Rng;

/// One categorical architecture decision (e.g. "block 3 kernel size",
/// 3 choices).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// Human-readable name, unique within its space.
    pub name: String,
    /// Number of choices (≥ 1).
    pub choices: usize,
}

impl Decision {
    /// Creates a decision.
    ///
    /// # Panics
    ///
    /// Panics if `choices == 0`.
    pub fn new(name: impl Into<String>, choices: usize) -> Self {
        assert!(choices >= 1, "a decision needs at least one choice");
        Self {
            name: name.into(),
            choices,
        }
    }
}

/// One sampled architecture: a choice index per decision, in decision order.
pub type ArchSample = Vec<usize>;

/// An ordered collection of categorical decisions.
///
/// # Examples
///
/// ```
/// use h2o_space::{SearchSpace, Decision};
///
/// let mut space = SearchSpace::new("toy");
/// space.push(Decision::new("kernel", 3));
/// space.push(Decision::new("width", 10));
/// assert_eq!(space.num_decisions(), 2);
/// assert!((space.log10_size() - (30f64).log10()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSpace {
    name: String,
    decisions: Vec<Decision>,
}

impl SearchSpace {
    /// Creates an empty space.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            decisions: Vec::new(),
        }
    }

    /// Space name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a decision, returning its index.
    pub fn push(&mut self, decision: Decision) -> usize {
        self.decisions.push(decision);
        self.decisions.len() - 1
    }

    /// The decisions in order.
    pub fn decisions(&self) -> &[Decision] {
        &self.decisions
    }

    /// Number of decisions.
    pub fn num_decisions(&self) -> usize {
        self.decisions.len()
    }

    /// log₁₀ of the number of candidate architectures (the product of all
    /// choice counts). Computed in log space — the DLRM space overflows
    /// `f64` otherwise.
    pub fn log10_size(&self) -> f64 {
        self.decisions
            .iter()
            .map(|d| (d.choices as f64).log10())
            .sum()
    }

    /// Checks that a sample indexes every decision within range.
    pub fn validate(&self, sample: &ArchSample) -> Result<(), SampleError> {
        if sample.len() != self.decisions.len() {
            return Err(SampleError::WrongLength {
                expected: self.decisions.len(),
                got: sample.len(),
            });
        }
        for (i, (&choice, decision)) in sample.iter().zip(&self.decisions).enumerate() {
            if choice >= decision.choices {
                return Err(SampleError::ChoiceOutOfRange {
                    decision: i,
                    choice,
                    choices: decision.choices,
                });
            }
        }
        Ok(())
    }

    /// Samples uniformly at random.
    pub fn sample_uniform(&self, rng: &mut impl Rng) -> ArchSample {
        self.decisions
            .iter()
            .map(|d| rng.gen_range(0..d.choices))
            .collect()
    }

    /// The all-zeros sample (by convention, the baseline architecture).
    pub fn baseline_sample(&self) -> ArchSample {
        vec![0; self.decisions.len()]
    }
}

/// Error from [`SearchSpace::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleError {
    /// Sample length differs from the decision count.
    WrongLength {
        /// Number of decisions in the space.
        expected: usize,
        /// Length of the offending sample.
        got: usize,
    },
    /// A choice index exceeds its decision's arity.
    ChoiceOutOfRange {
        /// Index of the offending decision.
        decision: usize,
        /// The out-of-range choice.
        choice: usize,
        /// The decision's arity.
        choices: usize,
    },
}

impl std::fmt::Display for SampleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SampleError::WrongLength { expected, got } => {
                write!(
                    f,
                    "sample has {got} entries, space has {expected} decisions"
                )
            }
            SampleError::ChoiceOutOfRange {
                decision,
                choice,
                choices,
            } => {
                write!(
                    f,
                    "choice {choice} out of range for decision {decision} ({choices} choices)"
                )
            }
        }
    }
}

impl std::error::Error for SampleError {}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn space() -> SearchSpace {
        let mut s = SearchSpace::new("t");
        s.push(Decision::new("a", 2));
        s.push(Decision::new("b", 5));
        s
    }

    #[test]
    fn log10_size_is_product() {
        assert!((space().log10_size() - 1.0).abs() < 1e-12); // 2*5 = 10
    }

    #[test]
    fn validate_accepts_good_sample() {
        assert!(space().validate(&vec![1, 4]).is_ok());
    }

    #[test]
    fn validate_rejects_wrong_length() {
        assert_eq!(
            space().validate(&vec![0]),
            Err(SampleError::WrongLength {
                expected: 2,
                got: 1
            })
        );
    }

    #[test]
    fn validate_rejects_out_of_range() {
        assert_eq!(
            space().validate(&vec![0, 5]),
            Err(SampleError::ChoiceOutOfRange {
                decision: 1,
                choice: 5,
                choices: 5
            })
        );
    }

    #[test]
    fn uniform_samples_are_valid() {
        let s = space();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..100 {
            assert!(s.validate(&s.sample_uniform(&mut rng)).is_ok());
        }
    }

    #[test]
    fn baseline_is_all_zeros() {
        assert_eq!(space().baseline_sample(), vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "at least one choice")]
    fn zero_arity_rejected() {
        Decision::new("bad", 0);
    }

    #[test]
    fn error_display_is_informative() {
        let e = SampleError::ChoiceOutOfRange {
            decision: 3,
            choice: 9,
            choices: 4,
        };
        assert!(e.to_string().contains("decision 3"));
    }
}
