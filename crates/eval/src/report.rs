//! Paper-style experiment reports: an ASCII table plus JSON export.

use mrsl_util::Table;
use serde_json::{json, Value};

/// A reproduced table or figure: identifier, title, tabulated rows and
/// free-form notes (parameter provenance, caveats).
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id (`table2`, `fig4a`, …).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// The rows the paper's table/figure reports.
    pub table: Table,
    /// Notes printed under the table.
    pub notes: Vec<String>,
}

impl Report {
    /// Creates a report.
    pub fn new(id: impl Into<String>, title: impl Into<String>, table: Table) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            table,
            notes: Vec::new(),
        }
    }

    /// Appends a note.
    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.notes.push(note.into());
        self
    }

    /// Renders the report as console text.
    pub fn render(&self) -> String {
        let mut out = format!(
            "== {} — {} ==\n{}",
            self.id,
            self.title,
            self.table.render()
        );
        for note in &self.notes {
            out.push_str(&format!("note: {note}\n"));
        }
        out
    }

    /// Machine-readable form (what `repro --json` prints).
    pub fn to_json(&self) -> Value {
        json!({
            "id": self.id,
            "title": self.title,
            "header": self.table.header(),
            "rows": self.table.rows(),
            "notes": self.notes,
        })
    }
}

impl std::fmt::Display for Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut t = Table::new(["x", "y"]);
        t.push_row(["1", "2"]);
        Report::new("figX", "Sample", t).note("scaled run")
    }

    #[test]
    fn renders_id_title_and_notes() {
        let s = sample().render();
        assert!(s.contains("figX"));
        assert!(s.contains("Sample"));
        assert!(s.contains("note: scaled run"));
        assert!(s.contains('1'));
    }

    #[test]
    fn json_contains_rows() {
        let v = sample().to_json();
        assert_eq!(v["id"], "figX");
        assert_eq!(v["rows"][0][1], "2");
        assert_eq!(v["header"][0], "x");
        assert_eq!(v["notes"][0], "scaled run");
    }
}
