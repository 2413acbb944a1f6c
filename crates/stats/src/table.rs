//! ASCII table rendering for experiment output.
//!
//! Every figure-regeneration harness prints its series as a plain-text
//! table with the same rows the paper's figure plots, so the shapes can be
//! compared directly from terminal output (and pasted into
//! EXPERIMENTS.md).

use std::fmt;

/// A simple right-aligned ASCII table.
#[derive(Debug, Clone, Default)]
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
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells.to_vec());
        self
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        writeln!(f, "## {}", self.title)?;
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (w, cell) in widths.iter().zip(cells) {
                write!(f, " {cell:>w$} |", w = w)?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{}|", "-".repeat(w + 2))?;
        }
        writeln!(f)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

/// Formats a float tersely (3 significant-ish decimals).
pub fn fnum(x: f64) -> String {
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

/// Formats bytes in natural units.
pub fn fbytes(b: u64) -> String {
    if b >= 1 << 30 {
        format!("{:.2} GB", b as f64 / (1u64 << 30) as f64)
    } else if b >= 1 << 20 {
        format!("{:.1} MB", b as f64 / (1 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{} KB", b >> 10)
    } else {
        format!("{b} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_markdown_like_table() {
        let mut t = Table::new("Figure X", &["P", "speedup"]);
        t.row(&["1".into(), "1.00".into()]);
        t.row(&["16".into(), "9.75".into()]);
        let s = t.to_string();
        assert!(s.contains("## Figure X"));
        assert!(s.contains("|  P | speedup |"));
        assert!(s.contains("| 16 |    9.75 |"));
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_panics() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(&["1".into()]);
    }

    #[test]
    fn fnum_scales_precision() {
        assert_eq!(fnum(0.0), "0");
        assert_eq!(fnum(0.1234), "0.1234");
        assert_eq!(fnum(3.178), "3.18");
        assert_eq!(fnum(1234.5), "1234");
    }

    #[test]
    fn fbytes_uses_natural_units() {
        assert_eq!(fbytes(512), "512 B");
        assert_eq!(fbytes(2048), "2 KB");
        assert_eq!(fbytes(3 << 20), "3.0 MB");
        assert_eq!(fbytes(3 << 30), "3.00 GB");
    }
}
