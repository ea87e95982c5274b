//! Figure 3: number of unique MFA users per day across the phased rollout.
//!
//! Paper shape: steady growth through phases 1–2, a discontinuous increase
//! on 2016-09-07 (the day after phase 2 begins), near-maximum through
//! phase 3, and a dip over the winter holiday.

use hpcmfa_otp::date::Date;
use hpcmfa_workload::figures::{fig3_series, render_bar_chart};

fn main() {
    let out = hpcmfa_bench::run(hpcmfa_bench::rollout_params());
    let series = fig3_series(&out);
    println!(
        "{}",
        render_bar_chart("Figure 3: unique MFA users per day", &series, 60)
    );

    let avg = |from: Date, to: Date| {
        let vals: Vec<u64> = series
            .iter()
            .filter(|(d, _)| *d >= from && *d <= to && !d.is_weekend())
            .map(|(_, v)| *v)
            .collect();
        vals.iter().sum::<u64>() as f64 / vals.len().max(1) as f64
    };
    println!("\nweekday averages of unique MFA users:");
    println!(
        "  pre-announcement (Jul)        {:8.1}",
        avg(Date::new(2016, 7, 1), Date::new(2016, 8, 9))
    );
    println!(
        "  phase 1 (08-10 .. 09-05)      {:8.1}",
        avg(Date::new(2016, 8, 10), Date::new(2016, 9, 5))
    );
    println!(
        "  phase 2 (09-06 .. 10-03)      {:8.1}",
        avg(Date::new(2016, 9, 6), Date::new(2016, 10, 3))
    );
    println!(
        "  phase 3 (10-04 .. 12-16)      {:8.1}",
        avg(Date::new(2016, 10, 4), Date::new(2016, 12, 16))
    );
    println!(
        "  winter holiday (12-17 .. 12-30){:7.1}",
        avg(Date::new(2016, 12, 17), Date::new(2016, 12, 30))
    );
    let before = avg(Date::new(2016, 8, 30), Date::new(2016, 9, 5));
    let after = avg(Date::new(2016, 9, 7), Date::new(2016, 9, 13));
    println!(
        "\ndiscontinuity at phase 2: week before = {before:.1}, week after = {after:.1} ({:+.0} %)",
        (after / before - 1.0) * 100.0
    );
    println!("paper: 'a noticeable discontinuous increase does occur on September 7th'");
}
