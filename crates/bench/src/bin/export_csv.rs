//! Export the simulated rollout's full per-day table as CSV — the raw data
//! behind Figures 3–6, for external plotting tools.
//!
//! ```text
//! cargo run --release -p hpcmfa-bench --bin export_csv > rollout.csv
//! ```

use hpcmfa_otp::date::Date;
use hpcmfa_workload::figures::to_csv;

fn main() {
    let mut params = hpcmfa_bench::rollout_params();
    params.to = params.to.max(Date::new(2017, 3, 31));
    let out = hpcmfa_bench::run(params);
    print!("{}", to_csv(&out));
}
