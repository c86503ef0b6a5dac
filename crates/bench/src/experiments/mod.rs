//! One module per paper table/figure, each exposing `run() -> String`.

use h2o_core::{CandidateStage, ControllerConfig, RewardFn, SearchDriver, SearchOutcome};
use h2o_space::SearchSpace;

pub mod ablations;
pub mod ext_baselines;
pub mod ext_codesign;
pub mod ext_cost;
pub mod ext_scaling;
pub mod ext_serving;
pub mod ext_transformer;
pub mod ext_universal;
pub mod fig10;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod full_pipeline;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;

/// Runs one sinkless search over `stage` to completion.
///
/// Experiments return report tables, so there is no caller to hand a
/// [`DriverError`](h2o_core::DriverError) to: a budget that cannot drive a
/// search (a step budget of zero) aborts the experiment with the
/// `DriverError` message instead of reporting numbers.
#[expect(
    clippy::expect_used,
    reason = "in-process stages without a sink fail only on a zero shard or step budget: a misconfigured experiment, which must not report numbers"
)]
pub(crate) fn run_search(
    space: &SearchSpace,
    reward: &RewardFn,
    config: ControllerConfig,
    stage: &mut impl CandidateStage,
) -> SearchOutcome {
    SearchDriver::new(space, reward, config)
        .run(stage, None, None)
        .expect("experiment search budget")
}
