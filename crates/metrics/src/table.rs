//! Plain-text table rendering for the figure harnesses.
//!
//! Every bench target prints the rows/series its paper figure reports; this
//! keeps that output aligned and greppable, and can emit CSV for plotting.

use std::fmt;

/// A simple column-aligned table.
///
/// # Example
///
/// ```
/// use aqua_metrics::table::Table;
/// let mut t = Table::new("fig7", &["system", "tokens"]);
/// t.row(&["FlexGen".into(), "1300".into()]);
/// t.row(&["AQUA".into(), "8100".into()]);
/// let text = t.to_string();
/// assert!(text.contains("FlexGen"));
/// assert!(t.to_csv().starts_with("system,tokens"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| (*s).to_owned()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the cell count does not match the header count.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match headers"
        );
        self.rows.push(cells.to_vec());
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The table's title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Renders as comma-separated values (headers first, title omitted).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.join(","));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let fmt_row = |row: &[String]| -> String {
            row.iter()
                .enumerate()
                .map(|(i, c)| format!("{:<width$}", c, width = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(f, "{}", fmt_row(&self.headers))?;
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1));
        writeln!(f, "{}", "-".repeat(total))?;
        for row in &self.rows {
            writeln!(f, "{}", fmt_row(row))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new("demo", &["a", "long-header"]);
        t.row(&["xxxxxxx".into(), "1".into()]);
        let s = t.to_string();
        assert!(s.contains("== demo =="));
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[1].starts_with("a      "), "{:?}", lines[1]);
    }

    #[test]
    fn csv_round_trip_structure() {
        let mut t = Table::new("x", &["c1", "c2"]);
        t.row(&["1".into(), "2".into()])
            .row(&["3".into(), "4".into()]);
        assert_eq!(t.to_csv(), "c1,c2\n1,2\n3,4\n");
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.title(), "x");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("x", &["a"]);
        t.row(&["1".into(), "2".into()]);
    }

    #[test]
    fn empty_table_renders() {
        let t = Table::new("empty", &["h"]);
        assert!(t.is_empty());
        assert!(t.to_string().contains("empty"));
        assert_eq!(t.to_csv(), "h\n");
    }
}
