//! Figure 4: SSH traffic per day — external MFA (blue), all external
//! (red), and all traffic including internal (black).
//!
//! Paper shape: internal traffic (black−red) unaffected throughout;
//! external non-MFA traffic (red−blue) drops sharply when phase 2 begins
//! yet persists through phase 3 (exempt gateway/community accounts and
//! temporary variances).

use hpcmfa_otp::date::Date;
use hpcmfa_workload::figures::{fig4_series, render_multi_series};

fn main() {
    let out = hpcmfa_bench::run(hpcmfa_bench::rollout_params());
    let series = fig4_series(&out);
    let rows: Vec<(Date, Vec<u64>)> = series
        .iter()
        .map(|(d, mfa, ext, all)| (*d, vec![*mfa, *ext, *all]))
        .collect();
    println!(
        "{}",
        render_multi_series(
            "Figure 4: SSH traffic per day",
            &["ext_mfa(blue)", "ext_all(red)", "all(black)"],
            &rows,
        )
    );

    let avg_nonmfa = |from: Date, to: Date| {
        let vals: Vec<u64> = series
            .iter()
            .filter(|(d, ..)| *d >= from && *d <= to && !d.is_weekend())
            .map(|(_, mfa, ext, _)| ext - mfa)
            .collect();
        vals.iter().sum::<u64>() as f64 / vals.len().max(1) as f64
    };
    let p1 = avg_nonmfa(Date::new(2016, 8, 10), Date::new(2016, 9, 5));
    let p2 = avg_nonmfa(Date::new(2016, 9, 8), Date::new(2016, 10, 3));
    let p3 = avg_nonmfa(Date::new(2016, 10, 10), Date::new(2016, 12, 16));
    println!("\nexternal non-MFA logins per weekday (red - blue):");
    println!("  phase 1 {p1:9.1}\n  phase 2 {p2:9.1}\n  phase 3 {p3:9.1}");
    println!("paper: 'a significant decrease in this type of traffic once phase 2 began',");
    println!("yet it 'continues to account for a significant portion of login events'.");
}
