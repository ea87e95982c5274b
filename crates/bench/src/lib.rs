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

/// Default population scale for figure binaries: fast enough to run in
/// seconds yet large enough for stable shapes. Override with `--scale`.
pub const DEFAULT_FIGURE_SCALE: f64 = 0.10;

/// Parse `--scale X` / `--seed N` / `--to YYYY-MM-DD` from argv.
pub struct FigureArgs {
    /// Population scale factor.
    pub scale: f64,
    /// Whether --scale was given explicitly (figures with noisier targets
    /// raise their default).
    pub scale_explicit: bool,
    /// Simulation seed.
    pub seed: u64,
    /// Last simulated day.
    pub to: Date,
}

impl FigureArgs {
    /// Parse from `std::env::args`, with defaults.
    pub fn parse() -> FigureArgs {
        let mut args = FigureArgs {
            scale: DEFAULT_FIGURE_SCALE,
            scale_explicit: false,
            seed: 1017,
            to: Date::new(2016, 12, 31),
        };
        let argv: Vec<String> = std::env::args().collect();
        let mut i = 1;
        while i < argv.len() {
            match argv[i].as_str() {
                "--scale" => {
                    args.scale = argv
                        .get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .expect("--scale needs a number");
                    args.scale_explicit = true;
                    i += 2;
                }
                "--seed" => {
                    args.seed = argv
                        .get(i + 1)
                        .and_then(|s| s.parse().ok())
                        .expect("--seed needs an integer");
                    i += 2;
                }
                "--to" => {
                    args.to = argv
                        .get(i + 1)
                        .and_then(|s| Date::parse(s).ok())
                        .expect("--to needs YYYY-MM-DD");
                    i += 2;
                }
                other => panic!("unknown argument {other:?} (expected --scale/--seed/--to)"),
            }
        }
        args
    }

    /// Run the rollout with these arguments.
    pub fn run(&self) -> SimOutput {
        let params = RolloutParams {
            population_scale: self.scale,
            seed: self.seed,
            to: self.to,
            ..RolloutParams::default()
        };
        eprintln!(
            "simulating 2016-07-01 .. {} at population scale {} (seed {}) ...",
            self.to, self.scale, self.seed
        );
        RolloutSim::new(params).run()
    }
}
