//! Shared harness for the figure-regeneration binaries.
//!
//! Each paper table/figure has a binary (`fig3` … `fig6`, `table1`,
//! `sms_cost`) that runs the rollout simulator and prints the same series
//! the paper plots, next to the paper's reported values where the paper
//! gives numbers. Performance is measured by `loginbench` (`benchmark/`),
//! not here.

#![forbid(unsafe_code)]

use hpcmfa_otp::date::Date;
use hpcmfa_workload::rollout::{RolloutParams, RolloutSim, SimOutput};

/// The rollout a figure binary runs: [`RolloutParams::default`] — the
/// paper's population, seed 1017, 2016-07-01 .. 2016-12-31 — with
/// `--scale X` / `--seed N` / `--to YYYY-MM-DD` from argv applied.
pub fn rollout_params() -> RolloutParams {
    let mut params = RolloutParams::default();
    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < argv.len() {
        let value = argv.get(i + 1).map(String::as_str);
        match argv[i].as_str() {
            "--scale" => {
                params.population_scale = value
                    .and_then(|s| s.parse().ok())
                    .expect("--scale needs a number");
            }
            "--seed" => {
                params.seed = value
                    .and_then(|s| s.parse().ok())
                    .expect("--seed needs an integer");
            }
            "--to" => {
                params.to = value
                    .and_then(|s| Date::parse(s).ok())
                    .expect("--to needs YYYY-MM-DD");
            }
            other => panic!("unknown argument {other:?} (expected --scale/--seed/--to)"),
        }
        i += 2;
    }
    params
}

/// Run the rollout `params` describes.
pub fn run(params: RolloutParams) -> SimOutput {
    eprintln!(
        "simulating {} .. {} at population scale {} (seed {}) ...",
        params.from, params.to, params.population_scale, params.seed
    );
    RolloutSim::new(params).run()
}
