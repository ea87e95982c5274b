//! Figure 6: newly initialized MFA device pairings per day.
//!
//! Paper shape: spikes correlate with the 08-10 announcement and the
//! phase transitions; 09-07 (day after phase 2 begins) ranks first in new
//! pairings and 10-04 (mandatory) ranks fourth; pairings decline to year
//! end then rise again with the spring semester.

use hpcmfa_otp::date::Date;
use hpcmfa_workload::figures::{fig6_series, pairing_rank, render_bar_chart};

fn main() {
    let mut params = hpcmfa_bench::rollout_params();
    params.to = params.to.max(Date::new(2017, 3, 31)); // show the spring uptick
    let out = hpcmfa_bench::run(params);
    let series = fig6_series(&out);
    println!(
        "{}",
        render_bar_chart("Figure 6: new token pairings per day", &series, 60)
    );

    println!("\ntop pairing days (paper: 09-07 ranks first, 10-04 ranks fourth):");
    for (rank, (date, count)) in pairing_rank(&out).iter().take(8).enumerate() {
        let note = match (date.year, date.month, date.day) {
            (2016, 8, 10) => "  <- announcement",
            (2016, 9, 6) => "  <- phase 2 begins",
            (2016, 9, 7) => "  <- day after phase 2 (paper rank #1)",
            (2016, 10, 4) => "  <- mandatory (paper rank #4)",
            _ => "",
        };
        println!("  #{:<2} {date}  {count}{note}", rank + 1);
    }
}
