//! Series extraction and terminal rendering for the paper's figures.

use crate::rollout::SimOutput;
use hpcmfa_otp::date::Date;

/// Figure 3 series: (date, unique MFA users).
pub fn fig3_series(out: &SimOutput) -> Vec<(Date, u64)> {
    out.days
        .iter()
        .map(|d| (d.date, d.unique_mfa_users as u64))
        .collect()
}

/// Figure 4 series: (date, external MFA, external total, all traffic) —
/// the blue, red, and black bars.
pub fn fig4_series(out: &SimOutput) -> Vec<(Date, u64, u64, u64)> {
    out.days
        .iter()
        .map(|d| (d.date, d.ext_mfa_logins, d.ext_total_logins, d.total_logins))
        .collect()
}

/// Figure 5 series: (date, MFA tickets, all tickets).
pub fn fig5_series(out: &SimOutput) -> Vec<(Date, u64, u64)> {
    out.days
        .iter()
        .map(|d| (d.date, d.tickets_mfa, d.tickets_mfa + d.tickets_other))
        .collect()
}

/// Figure 6 series: (date, new pairings).
pub fn fig6_series(out: &SimOutput) -> Vec<(Date, u64)> {
    out.days.iter().map(|d| (d.date, d.new_pairings)).collect()
}

/// Days ranked by new pairings, descending (the paper's "ranks first" /
/// "ranks fourth" observations).
pub fn pairing_rank(out: &SimOutput) -> Vec<(Date, u64)> {
    let mut ranked: Vec<(Date, u64)> = out.days.iter().map(|d| (d.date, d.new_pairings)).collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked
}

/// Table 1: pairing-type percentage breakdown.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1 {
    /// Percentages in the paper's row order: Soft, SMS, Training, Hard.
    pub rows: [(&'static str, f64); 4],
}

impl Table1 {
    /// Build from a simulation output. `None` if nothing paired.
    pub fn from_output(out: &SimOutput) -> Option<Table1> {
        // identity breakdown order: [soft, sms, hard, training]
        let b = out.table1?;
        Some(Table1 {
            rows: [
                ("Soft", b[0] * 100.0),
                ("SMS", b[1] * 100.0),
                ("Training", b[3] * 100.0),
                ("Hard", b[2] * 100.0),
            ],
        })
    }

    /// The paper's reported values, for side-by-side printing.
    pub(crate) fn paper() -> Table1 {
        Table1 {
            rows: [
                ("Soft", 55.38),
                ("SMS", 40.22),
                ("Training", 2.97),
                ("Hard", 1.43),
            ],
        }
    }

    /// Render both columns.
    pub fn render_against_paper(&self) -> String {
        let paper = Self::paper();
        let mut s = String::new();
        s.push_str("Token Device Pairing Type | Paper (%) | Measured (%)\n");
        s.push_str("--------------------------+-----------+-------------\n");
        for ((name, measured), (_, reported)) in self.rows.iter().zip(paper.rows.iter()) {
            s.push_str(&format!("{name:<26}| {reported:>9.2} | {measured:>11.2}\n"));
        }
        s
    }
}

/// Export the full per-day table as CSV (header + one row per day) — the
/// raw data behind all four figures, for external plotting.
pub fn to_csv(out: &SimOutput) -> String {
    let mut s = String::from(
        "date,phase,unique_mfa_users,ext_mfa_logins,ext_total_logins,total_logins,\
         new_pairings,failed_logins,tickets_mfa,tickets_other\n",
    );
    for d in &out.days {
        s.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{}\n",
            d.date,
            d.phase,
            d.unique_mfa_users,
            d.ext_mfa_logins,
            d.ext_total_logins,
            d.total_logins,
            d.new_pairings,
            d.failed_logins,
            d.tickets_mfa,
            d.tickets_other
        ));
    }
    s
}

/// Render a day series as a horizontal ASCII bar chart (one row per day,
/// weekly tick labels), scaled to `width` columns.
pub fn render_bar_chart(title: &str, series: &[(Date, u64)], width: usize) -> String {
    let max = series.iter().map(|(_, v)| *v).max().unwrap_or(0).max(1);
    let mut s = format!("{title} (peak {max})\n");
    for (date, value) in series {
        let bar_len = (*value as usize * width) / max as usize;
        let label = if date.day == 1 || date.weekday() == 1 {
            format!("{date}")
        } else {
            " ".repeat(10)
        };
        s.push_str(&format!("{label} |{} {value}\n", "#".repeat(bar_len)));
    }
    s
}

/// Render a grouped series (e.g. Figure 4's three bar groups) as columns.
pub fn render_multi_series(title: &str, header: &[&str], rows: &[(Date, Vec<u64>)]) -> String {
    let mut s = format!("{title}\n{:<12}", "date");
    for h in header {
        s.push_str(&format!("{h:>12}"));
    }
    s.push('\n');
    for (date, values) in rows {
        s.push_str(&format!("{:<12}", date.to_string()));
        for v in values {
            s.push_str(&format!("{v:>12}"));
        }
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rollout::DayRecord;

    fn fake_output() -> SimOutput {
        let mk = |y, m, d, pairings, mfa_users| DayRecord {
            date: Date::new(y, m, d),
            phase: 1,
            unique_mfa_users: mfa_users,
            ext_mfa_logins: 10,
            ext_total_logins: 20,
            total_logins: 50,
            new_pairings: pairings,
            failed_logins: 1,
            tickets_mfa: 2,
            tickets_other: 48,
        };
        SimOutput {
            days: vec![
                mk(2016, 9, 6, 5, 10),
                mk(2016, 9, 7, 42, 30),
                mk(2016, 9, 8, 20, 35),
            ],
            table1: Some([0.55, 0.40, 0.015, 0.035]),
            total_successful_logins: 1000,
            sms_sent: 10,
            sms_cost_micros: 1_075_000,
            failures_by_cohort: Default::default(),
            metrics: Default::default(),
            alerts: Vec::new(),
            security_events: Vec::new(),
        }
    }

    #[test]
    fn series_extraction() {
        let out = fake_output();
        assert_eq!(fig3_series(&out)[1], (Date::new(2016, 9, 7), 30));
        assert_eq!(fig4_series(&out)[0].3, 50);
        assert_eq!(fig5_series(&out)[0].2, 50);
        assert_eq!(fig6_series(&out)[2], (Date::new(2016, 9, 8), 20));
    }

    #[test]
    fn pairing_rank_orders_descending() {
        let out = fake_output();
        let ranked = pairing_rank(&out);
        assert_eq!(ranked[0].0, Date::new(2016, 9, 7));
        assert_eq!(ranked[0].1, 42);
        assert_eq!(ranked[2].1, 5);
    }

    #[test]
    fn table1_row_order_matches_paper() {
        let out = fake_output();
        let t = Table1::from_output(&out).unwrap();
        assert_eq!(t.rows[0].0, "Soft");
        assert!((t.rows[0].1 - 55.0).abs() < 1e-9);
        assert_eq!(t.rows[2].0, "Training");
        assert!((t.rows[2].1 - 3.5).abs() < 1e-9);
        assert_eq!(t.rows[3].0, "Hard");
        let rendered = t.render_against_paper();
        assert!(rendered.contains("55.38"));
        assert!(rendered.contains("Soft"));
    }

    #[test]
    fn chart_rendering_scales() {
        let series = vec![
            (Date::new(2016, 9, 5), 0u64),
            (Date::new(2016, 9, 6), 50),
            (Date::new(2016, 9, 7), 100),
        ];
        let chart = render_bar_chart("pairings", &series, 40);
        assert!(chart.contains("peak 100"));
        let lines: Vec<&str> = chart.lines().collect();
        // The peak bar is twice the mid bar.
        let count = |l: &str| l.matches('#').count();
        assert_eq!(count(lines[3]), 40);
        assert_eq!(count(lines[2]), 20);
        assert_eq!(count(lines[1]), 0);
    }

    #[test]
    fn csv_export_has_header_and_rows() {
        let out = fake_output();
        let csv = to_csv(&out);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 4); // header + 3 days
        assert!(lines[0].starts_with("date,phase,unique_mfa_users"));
        assert!(lines[2].starts_with("2016-09-07,1,30,10,20,50,42,1,2,48"));
        // Every row has the same column count.
        let cols = lines[0].split(',').count();
        assert!(lines.iter().all(|l| l.split(',').count() == cols));
    }

    #[test]
    fn multi_series_renders_header_and_rows() {
        let rows = vec![(Date::new(2016, 10, 4), vec![1, 2, 3])];
        let s = render_multi_series("fig4", &["mfa", "ext", "all"], &rows);
        assert!(s.contains("mfa"));
        assert!(s.contains("2016-10-04"));
    }
}
