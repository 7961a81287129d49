//! Tabular experiment output: aligned text tables and CSV export.

use std::fmt;
use std::io::Write;
use std::path::Path;

/// A simple result table: a title, a header row and data rows.
///
/// Every experiment runner produces one or more `Table`s whose rows correspond to
/// the series plotted in the paper's figures, so the reproduction can be compared
/// against the original side by side.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Table title (e.g. `"Figure 9(a): AppFast approximation ratio — Brightkite"`).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows; each row has `headers.len()` cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table with the given title and column headers.
    pub fn new<S: Into<String>>(title: S, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a data row.
    ///
    /// # Panics
    ///
    /// Panics when the number of cells differs from the number of headers.
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row has {} cells but the table has {} columns",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Convenience helper formatting a float cell with 4 significant decimals.
    pub fn fmt_num(value: f64) -> String {
        if value.is_nan() {
            "n/a".to_string()
        } else if value == 0.0 {
            "0".to_string()
        } else if value.abs() >= 1000.0 || value.abs() < 1e-3 {
            format!("{value:.3e}")
        } else {
            format!("{value:.4}")
        }
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Writes the table as a CSV file (header row first).
    pub fn write_csv<P: AsRef<Path>>(&self, path: P) -> std::io::Result<()> {
        if let Some(parent) = path.as_ref().parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(file, "{}", self.headers.join(","))?;
        for row in &self.rows {
            let escaped: Vec<String> = row
                .iter()
                .map(|cell| {
                    if cell.contains(',') || cell.contains('"') {
                        format!("\"{}\"", cell.replace('"', "\"\""))
                    } else {
                        cell.clone()
                    }
                })
                .collect();
            writeln!(file, "{}", escaped.join(","))?;
        }
        Ok(())
    }

    /// A file-system friendly slug of the title (used to derive CSV file names).
    pub fn slug(&self) -> String {
        self.title
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '_'
                }
            })
            .collect::<String>()
            .split('_')
            .filter(|s| !s.is_empty())
            .collect::<Vec<_>>()
            .join("_")
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Column widths: max of header and cell widths.
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "== {} ==", self.title)?;
        let header_line: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{:>width$}", h, width = widths[i]))
            .collect();
        writeln!(f, "{}", header_line.join("  "))?;
        writeln!(
            f,
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        )?;
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
                .collect();
            writeln!(f, "{}", line.join("  "))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        let mut t = Table::new("Figure 9(a): test", &["k", "time (s)", "ratio"]);
        t.add_row(vec![
            "4".into(),
            Table::fmt_num(0.1234),
            Table::fmt_num(1.5),
        ]);
        t.add_row(vec![
            "7".into(),
            Table::fmt_num(12345.0),
            Table::fmt_num(0.00001),
        ]);
        t
    }

    #[test]
    fn formatting_and_dimensions() {
        let t = sample_table();
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let text = t.to_string();
        assert!(text.contains("Figure 9(a)"));
        assert!(text.contains("ratio"));
        assert!(text.lines().count() >= 5);
    }

    #[test]
    fn number_formatting() {
        assert_eq!(Table::fmt_num(0.0), "0");
        assert_eq!(Table::fmt_num(f64::NAN), "n/a");
        assert_eq!(Table::fmt_num(1.5), "1.5000");
        assert!(Table::fmt_num(123456.0).contains('e'));
        assert!(Table::fmt_num(0.00001).contains('e'));
    }

    #[test]
    #[should_panic(expected = "columns")]
    fn mismatched_row_panics() {
        let mut t = Table::new("bad", &["a", "b"]);
        t.add_row(vec!["1".into()]);
    }

    #[test]
    fn csv_roundtrip() {
        let t = sample_table();
        let dir = std::env::temp_dir().join("sackit_report_test");
        let path = dir.join(format!("{}.csv", t.slug()));
        t.write_csv(&path).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.starts_with("k,time (s),ratio"));
        assert_eq!(content.lines().count(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn slug_is_filesystem_friendly() {
        let t = sample_table();
        let slug = t.slug();
        assert!(!slug.contains(' '));
        assert!(!slug.contains(':'));
        assert!(slug.starts_with("figure_9"));
    }
}
