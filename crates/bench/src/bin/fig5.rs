//! Figure 5: user support tickets per day, MFA vs all inquiries.
//!
//! Paper numbers: MFA inquiries averaged 6.7 % of tickets August–December
//! 2016 and 2.7 % January–March 2017.

use hpcmfa_otp::date::Date;
use hpcmfa_workload::figures::{fig5_series, render_multi_series};

fn main() {
    // Figure 5 extends into Q1 2017.
    let mut params = hpcmfa_bench::rollout_params();
    params.to = params.to.max(Date::new(2017, 3, 31));
    let out = hpcmfa_bench::run(params);
    let series = fig5_series(&out);
    let rows: Vec<(Date, Vec<u64>)> = series
        .iter()
        .map(|(d, mfa, total)| (*d, vec![*mfa, *total]))
        .collect();
    println!(
        "{}",
        render_multi_series("Figure 5: support tickets per day", &["mfa", "all"], &rows)
    );

    let transition = out.ticket_mfa_share(Date::new(2016, 8, 1), Date::new(2016, 12, 31));
    let q1 = out.ticket_mfa_share(Date::new(2017, 1, 1), Date::new(2017, 3, 31));
    println!("\nMFA share of ticket inquiries:");
    println!(
        "  Aug–Dec 2016: measured {:5.1} %   (paper: 6.7 %)",
        transition * 100.0
    );
    println!(
        "  Jan–Mar 2017: measured {:5.1} %   (paper: 2.7 %)",
        q1 * 100.0
    );
}
