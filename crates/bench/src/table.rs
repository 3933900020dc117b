//! Plain-text table formatting for `grsim` reports.

/// Prints a table: a header row, then one row per entry, with the first
/// column left-aligned and the rest right-aligned to a fixed width.
///
/// # Example
///
/// ```
/// grbench::table::print(
///     &["app", "NRU", "OPT"],
///     &[vec!["AssnCreed".into(), "1.023".into(), "0.795".into()]],
/// );
/// ```
pub fn print(header: &[&str], rows: &[Vec<String>]) {
    let widths: Vec<usize> = header
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter().map(|r| r.get(i).map_or(0, |c| c.len())).max().unwrap_or(0).max(h.len())
        })
        .collect();
    let mut line = String::new();
    for (i, h) in header.iter().enumerate() {
        if i == 0 {
            line.push_str(&format!("{:<w$}", h, w = widths[0] + 2));
        } else {
            line.push_str(&format!("{:>w$}", h, w = widths[i] + 2));
        }
    }
    println!("{line}");
    println!("{}", "-".repeat(line.len()));
    for row in rows {
        let mut line = String::new();
        for (i, c) in row.iter().enumerate() {
            if i == 0 {
                line.push_str(&format!("{:<w$}", c, w = widths[0] + 2));
            } else {
                line.push_str(&format!("{:>w$}", c, w = widths[i] + 2));
            }
        }
        println!("{line}");
    }
}

/// Formats a ratio to three decimals.
pub fn ratio(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    #[test]
    fn formatting_helpers() {
        assert_eq!(super::ratio(0.12345), "0.123");
        assert_eq!(super::pct(0.5), "50.0%");
    }
}
