//! §3.3 SMS economics: $1/month flat plus $0.0075 per US message, with the
//! carrier-delay tail that occasionally delivers codes already expired
//! (§5: "an SMS text message will arrive delayed ... in an expired state").

use hpcmfa_otpserver::SMS_CODE_VALIDITY_SECS;

fn main() {
    let out = hpcmfa_bench::run(hpcmfa_bench::rollout_params());
    let dollars = out.sms_cost_micros as f64 / 1_000_000.0;
    println!("SMS messages sent:            {}", out.sms_sent);
    println!("total provider cost:          ${dollars:.2}");
    println!("  (= $1/month flat + $0.0075 per US message, per §3.3)");
    println!(
        "per-message average:          ${:.4}",
        if out.sms_sent > 0 {
            dollars / out.sms_sent as f64
        } else {
            0.0
        }
    );
    println!(
        "\ncode validity window:         {SMS_CODE_VALIDITY_SECS} s; deliveries beyond it arrive expired"
    );
    println!("(the simulator's carrier model sends ~1 % of messages down a 400–900 s retry path)");
}
