//! Table 1: percentage breakdown of token device pairing types.
//!
//! Paper values: Soft 55.38 %, SMS 40.22 %, Training 2.97 %, Hard 1.43 %.

use hpcmfa_workload::figures::Table1;

fn main() {
    let out = hpcmfa_bench::run(hpcmfa_bench::rollout_params());
    match Table1::from_output(&out) {
        Some(t) => {
            println!("{}", t.render_against_paper());
            println!(
                "total successful logins in the window: {}",
                out.total_successful_logins
            );
            println!("(paper §6: 'over half a million successful log ins' at full scale)");
        }
        None => println!("no pairings recorded — run a longer window"),
    }
}
