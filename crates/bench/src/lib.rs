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

/// Weekly aggregation for compact terminal output: (week-start, sums).
pub fn weekly<T: Copy + Into<u64>>(series: &[(Date, T)]) -> Vec<(Date, u64)> {
    let mut out: Vec<(Date, u64)> = Vec::new();
    for (date, value) in series {
        let week_start = date.plus_days(-((date.weekday() as i64 + 6) % 7));
        match out.last_mut() {
            Some((ws, sum)) if *ws == week_start => *sum += (*value).into(),
            _ => out.push((week_start, (*value).into())),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weekly_aggregates_by_monday() {
        // 2016-10-03 is a Monday.
        let series = vec![
            (Date::new(2016, 10, 3), 1u64),
            (Date::new(2016, 10, 4), 2),
            (Date::new(2016, 10, 9), 3),  // Sunday, same week
            (Date::new(2016, 10, 10), 4), // next Monday
        ];
        let w = weekly(&series);
        assert_eq!(
            w,
            vec![(Date::new(2016, 10, 3), 6), (Date::new(2016, 10, 10), 4)]
        );
    }
}
