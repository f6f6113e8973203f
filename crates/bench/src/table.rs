//! Plain-text + JSON tables for figure output.

use psd_obs::json::{
    pretty, push_json_f64_array, push_json_key, push_json_str, push_json_str_array,
};

/// A named series table: one row per x-axis point.
#[derive(Debug, Clone)]
pub struct Table {
    /// Figure id, e.g. `"fig2"`.
    pub id: String,
    /// Human title (matches the paper's caption).
    pub title: String,
    /// Column headers; column 0 is the x-axis.
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<f64>>,
    /// Free-form notes (parameters, caveats).
    pub notes: Vec<String>,
}

impl Table {
    /// New empty table.
    pub fn new(id: &str, title: &str, columns: &[&str]) -> Self {
        Self {
            id: id.to_string(),
            title: title.to_string(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row (must match the column count).
    pub fn push_row(&mut self, row: Vec<f64>) {
        assert_eq!(row.len(), self.columns.len(), "row width mismatch in {}", self.id);
        self.rows.push(row);
    }

    /// Append a note line.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }

    /// Indented JSON: the `figures --json` file format.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        push_json_str(push_json_key(&mut out, "id"), &self.id);
        push_json_str(push_json_key(&mut out, "title"), &self.title);
        push_json_str_array(push_json_key(&mut out, "columns"), &self.columns);
        push_json_key(&mut out, "rows").push('[');
        for (i, row) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_f64_array(&mut out, row);
        }
        out.push(']');
        push_json_str_array(push_json_key(&mut out, "notes"), &self.notes);
        out.push('}');
        pretty(&out)
    }

    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        for n in &self.notes {
            out.push_str(&format!("   # {n}\n"));
        }
        let width = 14usize;
        let header: Vec<String> = self.columns.iter().map(|c| format!("{c:>width$}")).collect();
        out.push_str(&header.join(" "));
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row
                .iter()
                .map(|v| {
                    if v.is_nan() {
                        format!("{:>width$}", "-")
                    } else if v.abs() >= 1000.0 || (v.abs() < 0.01 && *v != 0.0) {
                        format!("{v:>width$.3e}")
                    } else {
                        format!("{v:>width$.4}")
                    }
                })
                .collect();
            out.push_str(&cells.join(" "));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psd_obs::JsonValue;

    #[test]
    fn renders_header_and_rows() {
        let mut t = Table::new("figX", "demo", &["load", "value"]);
        t.push_row(vec![0.5, 1.25]);
        t.note("a note");
        let s = t.render();
        assert!(s.contains("figX"));
        assert!(s.contains("load"));
        assert!(s.contains("1.2500"));
        assert!(s.contains("# a note"));
    }

    #[test]
    fn nan_renders_as_dash() {
        let mut t = Table::new("f", "t", &["x"]);
        t.push_row(vec![f64::NAN]);
        assert!(t.render().contains('-'));
    }

    #[test]
    fn json_golden() {
        let mut t = Table::new("figX", "Demo \"quoted\" title", &["load", "sim_c0", "exp_c0"]);
        t.push_row(vec![0.3, 1.5, f64::NAN]);
        t.push_row(vec![0.9, 12.25, 1e-7]);
        t.note("2 runs; δ = (1, 2)");
        // Compared as parsed trees (key order kept), so only a number's
        // spelling may change; the NaN cell is written as `null`.
        let want = JsonValue::parse(
            r#"{
  "id": "figX", "title": "Demo \"quoted\" title",
  "columns": ["load", "sim_c0", "exp_c0"],
  "rows": [[0.3, 1.5, null], [0.9, 12.25, 1e-7]],
  "notes": ["2 runs; δ = (1, 2)"]
}"#,
        )
        .expect("golden parses");
        let json = t.to_json();
        assert_eq!(JsonValue::parse(&json).expect("table parses"), want, "{json}");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn width_checked() {
        Table::new("f", "t", &["a", "b"]).push_row(vec![1.0]);
    }
}
