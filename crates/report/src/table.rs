//! Simple fixed-column tables with ASCII and CSV rendering.

use std::fmt;

/// One table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// Free text.
    Text(String),
    /// An integer count.
    Int(i64),
    /// A floating value with a display precision.
    Float {
        /// The value.
        value: f64,
        /// Decimal places to print.
        precision: u8,
    },
    /// A percentage (printed with one decimal and a `%`).
    Pct(f64),
    /// Not applicable (the paper prints `NA` for /swap1's fsync column).
    Na,
}

impl Cell {
    /// Convenience float with one decimal.
    pub fn f1(value: f64) -> Cell {
        Cell::Float {
            value,
            precision: 1,
        }
    }

    /// Convenience float with two decimals.
    pub fn f2(value: f64) -> Cell {
        Cell::Float {
            value,
            precision: 2,
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(s) => f.write_str(s),
            Cell::Int(v) => write!(f, "{v}"),
            Cell::Float { value, precision } => write!(f, "{value:.*}", *precision as usize),
            Cell::Pct(v) => write!(f, "{v:.1}%"),
            Cell::Na => f.write_str("NA"),
        }
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Text(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Text(s)
    }
}

impl From<i64> for Cell {
    fn from(v: i64) -> Cell {
        Cell::Int(v)
    }
}

impl From<usize> for Cell {
    fn from(v: usize) -> Cell {
        Cell::Int(v as i64)
    }
}

/// A titled table with fixed columns.
///
/// # Examples
///
/// ```
/// use nvfs_report::{Cell, Table};
///
/// let mut t = Table::new("Demo", &["fs", "segments"]);
/// t.push_row(vec![Cell::from("/user6"), Cell::from(42usize)]);
/// let text = t.render();
/// assert!(text.contains("/user6"));
/// assert!(t.to_csv().contains("fs,segments"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// Creates an empty table with the given title and column headers.
    pub fn new(title: &str, columns: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Number of data rows.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the column count.
    pub fn push_row(&mut self, row: Vec<Cell>) {
        assert_eq!(row.len(), self.columns.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// The rows (for assertions in tests).
    pub fn rows(&self) -> &[Vec<Cell>] {
        &self.rows
    }

    /// Renders an aligned ASCII table.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Cell::to_string).collect())
            .collect();
        for row in &rendered {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&self.title);
        out.push('\n');
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        out.push_str(&header.join("  "));
        out.push('\n');
        out.push_str(&"-".repeat(header.join("  ").len()));
        out.push('\n');
        for row in &rendered {
            let line: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            out.push_str(&line.join("  "));
            out.push('\n');
        }
        out
    }

    /// Renders comma-separated values (header row first).
    pub fn to_csv(&self) -> String {
        let mut out = self.columns.join(",");
        out.push('\n');
        for row in &self.rows {
            let line: Vec<String> = row.iter().map(Cell::to_string).collect();
            out.push_str(&line.join(","));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_render() {
        assert_eq!(Cell::from("x").to_string(), "x");
        assert_eq!(Cell::from(5usize).to_string(), "5");
        assert_eq!(Cell::f1(1.25).to_string(), "1.2");
        assert_eq!(Cell::f2(1.256).to_string(), "1.26");
        assert_eq!(Cell::Pct(12.34).to_string(), "12.3%");
        assert_eq!(Cell::Na.to_string(), "NA");
    }

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("T", &["name", "n"]);
        t.push_row(vec![Cell::from("abcdef"), Cell::from(1usize)]);
        t.push_row(vec![Cell::from("x"), Cell::from(1000usize)]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "T");
        assert!(lines[3].contains("abcdef"));
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    fn csv_round_trip_structure() {
        let mut t = Table::new("T", &["a", "b"]);
        t.push_row(vec![Cell::from(1usize), Cell::Pct(50.0)]);
        assert_eq!(t.to_csv(), "a,b\n1,50.0%\n");
        assert_eq!(t.row_count(), 1);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn mismatched_row_rejected() {
        let mut t = Table::new("T", &["a", "b"]);
        t.push_row(vec![Cell::from(1usize)]);
    }
}
