//! Aligned-table and CSV output for experiment rows.

use std::fmt::Display;
use std::fs;
use std::io;
use std::path::Path;

/// A rectangular result set: header plus stringified rows.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column names.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn push<S: Display>(&mut self, row: impl IntoIterator<Item = S>) {
        let row: Vec<String> = row.into_iter().map(|c| c.to_string()).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders an aligned, human-readable table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Serializes to CSV (RFC-4180-style quoting for commas/quotes).
    pub fn to_csv(&self) -> String {
        let esc = |s: &String| -> String {
            if s.contains(',') || s.contains('"') || s.contains('\n') {
                format!("\"{}\"", s.replace('"', "\"\""))
            } else {
                s.clone()
            }
        };
        let mut out = String::new();
        out.push_str(&self.header.iter().map(esc).collect::<Vec<_>>().join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(esc).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Writes the CSV rendering to `path`, creating parent directories.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, self.to_csv())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new(["alg", "msgs"]);
        t.push(["Lease(10)", "123456"]);
        t.push(["Callback", "7"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].ends_with("123456"));
        assert!(lines[3].ends_with("     7"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_quotes_special_cells() {
        let mut t = Table::new(["a", "b"]);
        t.push(["x,y", "pl\"ain"]);
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n\"x,y\",\"pl\"\"ain\"\n");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn width_mismatch_panics() {
        let mut t = Table::new(["a", "b"]);
        t.push(["only-one"]);
    }

    #[test]
    fn write_csv_creates_dirs() {
        let dir = std::env::temp_dir().join(format!(
            "vl-bench-output-{}-write_csv_creates_dirs",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested/out.csv");
        let mut t = Table::new(["x"]);
        t.push(["1"]);
        t.write_csv(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "x\n1\n");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
