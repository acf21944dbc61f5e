//! Text tables for experiment output, and the column spec that renders
//! one list of result rows as both a text table and report rows.
//!
//! An experiment whose text rows are its JSON rows declares one
//! [`Col`] list; [`text_table`] prints the rows under the text headers
//! and [`append_rows`] adds the same rows to the [`Report`], so the two
//! outputs cannot drift apart.

use crate::report::{Json, Report, Row};
use std::fmt::Write as _;

/// A simple aligned text table.
///
/// # Examples
///
/// ```
/// use mlp_experiments::table::TextTable;
///
/// let mut t = TextTable::new(vec!["Benchmark", "MLP"]);
/// t.row(vec!["Database".into(), "1.38".into()]);
/// let s = t.render();
/// assert!(s.contains("Database"));
/// assert!(s.contains("MLP"));
/// ```
#[derive(Clone, Debug)]
pub struct TextTable {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(headers: Vec<S>) -> TextTable {
        TextTable {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
            title: None,
        }
    }

    /// Sets a title line printed above the table.
    pub fn with_title<S: Into<String>>(mut self, title: S) -> TextTable {
        self.title = Some(title.into());
        self
    }

    /// Appends one row.
    ///
    /// # Panics
    ///
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width must match header width"
        );
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        if let Some(t) = &self.title {
            let _ = writeln!(out, "{t}");
        }
        let mut line = String::new();
        for (i, h) in self.headers.iter().enumerate() {
            let _ = write!(line, "{:<width$}", h, width = widths[i] + 2);
        }
        let _ = writeln!(out, "{}", line.trim_end());
        let total: usize = widths
            .iter()
            .map(|w| w + 2)
            .sum::<usize>()
            .saturating_sub(2);
        let _ = writeln!(out, "{}", "-".repeat(total.min(120)));
        for row in &self.rows {
            let mut line = String::new();
            for i in 0..ncols {
                let _ = write!(line, "{:<width$}", row[i], width = widths[i] + 2);
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }
}

/// Formats an `f64` with 2 decimal places (tables of CPI).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats an `f64` with 3 decimal places (tables of MLP).
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{x:.1}%")
}

/// How a column prints in a text table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fmt {
    /// Strings as they are, any other value in its JSON form (`64`).
    Plain,
    /// Two decimals ([`f2`]).
    F2,
    /// Three decimals ([`f3`]).
    F3,
    /// A percentage with one decimal ([`pct`]).
    Pct,
    /// A signed percentage with one decimal (`+4.2%`).
    SignedPct,
    /// A fraction as a percentage with one decimal (`0.123` → `12.3%`).
    Frac,
}

impl Fmt {
    /// The text cell for `v`; a non-number prints as [`Fmt::Plain`].
    pub fn cell(self, v: &Json) -> String {
        match (self, v.as_f64()) {
            (Fmt::F2, Some(x)) => f2(x),
            (Fmt::F3, Some(x)) => f3(x),
            (Fmt::Pct, Some(x)) => pct(x),
            (Fmt::SignedPct, Some(x)) => format!("{x:+.1}%"),
            (Fmt::Frac, Some(x)) => pct(100.0 * x),
            _ => match v {
                Json::Str(s) => s.clone(),
                v => v.to_line(),
            },
        }
    }
}

/// One column of an experiment's result rows: its JSON field, its text
/// header, how the text prints it, and how to read it from a row. An
/// empty `field` leaves the column out of the report, an empty `header`
/// out of the text table.
pub struct Col<R> {
    /// The report field name.
    pub field: &'static str,
    /// The text-table header.
    pub header: &'static str,
    /// How the text table prints the value.
    pub fmt: Fmt,
    /// Reads the value from a row.
    pub get: fn(&R) -> Json,
}

impl<R> Col<R> {
    /// A column (see the type's docs for empty `field` and `header`).
    pub const fn new(
        field: &'static str,
        header: &'static str,
        fmt: Fmt,
        get: fn(&R) -> Json,
    ) -> Col<R> {
        Col {
            field,
            header,
            fmt,
            get,
        }
    }
}

/// `rows` as a text table under `title`, one column per non-empty header.
pub fn text_table<'a, R: 'a>(
    title: impl Into<String>,
    cols: &[Col<R>],
    rows: impl IntoIterator<Item = &'a R>,
) -> TextTable {
    let shown: Vec<&Col<R>> = cols.iter().filter(|c| !c.header.is_empty()).collect();
    let mut t = TextTable::new(shown.iter().map(|c| c.header).collect()).with_title(title);
    for r in rows {
        t.row(shown.iter().map(|c| c.fmt.cell(&(c.get)(r))).collect());
    }
    t
}

/// One text table per `(title, rows)` group, each followed by a blank
/// line.
pub fn text_groups<'a, R: 'a, G: IntoIterator<Item = &'a R>>(
    cols: &[Col<R>],
    groups: impl IntoIterator<Item = (String, G)>,
) -> String {
    let render = |(title, rows): (String, G)| text_table(title, cols, rows).render() + "\n";
    groups.into_iter().map(render).collect()
}

/// Appends `rows` to `report`, one member per non-empty field, in
/// column order.
pub fn append_rows<'a, R: 'a>(
    report: &mut Report,
    cols: &[Col<R>],
    rows: impl IntoIterator<Item = &'a R>,
) {
    for r in rows {
        let fields = cols.iter().filter(|c| !c.field.is_empty());
        report.row(fields.fold(Row::new(), |row, c| row.field(c.field, (c.get)(r))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = TextTable::new(vec!["a", "bench"]).with_title("Table X");
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["long-cell".into(), "x".into()]);
        let s = t.render();
        assert!(s.starts_with("Table X"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
        // the "bench" header starts at the same column as "2" and "x"
        let col = lines[1].find("bench").unwrap();
        assert_eq!(lines[3].find('2').unwrap(), col);
        assert_eq!(lines[4].find('x').unwrap(), col);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn mismatched_row_rejected() {
        let mut t = TextTable::new(vec!["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn formatters() {
        assert_eq!(f2(1.234), "1.23");
        assert_eq!(f3(1.2345), "1.234"); // banker-free simple rounding
        assert_eq!(pct(12.34), "12.3%");
    }

    /// Sample rows: a workload, a count and two ratios.
    type Sample = (&'static str, u64, f64, f64);

    const COLS: [Col<Sample>; 5] = [
        Col::new("benchmark", "Benchmark", Fmt::Plain, |r| r.0.into()),
        Col::new("", "Label", Fmt::Plain, |r| format!("{}x", r.1).into()),
        Col::new("count", "", Fmt::Plain, |r| r.1.into()),
        Col::new("mlp", "MLP", Fmt::F3, |r| r.2.into()),
        Col::new("share", "Share", Fmt::Frac, |r| r.3.into()),
    ];

    const ROWS: [Sample; 2] = [("Database", 4, 1.38, 0.25), ("SPECweb99", 16, 2.0, 1.0)];

    #[test]
    fn text_only_and_json_only_columns() {
        let text = text_table("T", &COLS, &ROWS).render();
        assert_eq!(
            text,
            "T\nBenchmark  Label  MLP    Share\n-------------------------------\n\
             Database   4x     1.380  25.0%\nSPECweb99  16x    2.000  100.0%\n"
        );
        assert!(!text.contains("count"));

        let mut rep = Report::new("demo", "Demo", "§0", crate::RunScale::quick());
        append_rows(&mut rep, &COLS, &ROWS);
        assert_eq!(rep.rows.len(), 2);
        assert!(rep.rows[0].get("Label").is_none());
        assert_eq!(rep.rows[1].get("count"), Some(&Json::Int(16)));
    }

    #[test]
    fn json_fields_follow_column_order() {
        let mut rep = Report::new("demo", "Demo", "§0", crate::RunScale::quick());
        append_rows(&mut rep, &COLS, &ROWS[..1]);
        let keys: Vec<&str> = rep.rows[0].fields().iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, ["benchmark", "count", "mlp", "share"]);
        assert_eq!(
            Json::obj(rep.rows[0].fields().iter().cloned()).to_line(),
            r#"{"benchmark": "Database", "count": 4, "mlp": 1.38, "share": 0.25}"#
        );
    }

    #[test]
    fn each_formatter_on_a_sample_value() {
        let x = Json::Num(12.3456);
        assert_eq!(Fmt::Plain.cell(&Json::Int(64)), "64");
        assert_eq!(Fmt::Plain.cell(&Json::from("64D/ROB256")), "64D/ROB256");
        assert_eq!(Fmt::Plain.cell(&x), "12.3456");
        assert_eq!(Fmt::F2.cell(&x), "12.35");
        assert_eq!(Fmt::F3.cell(&x), "12.346");
        assert_eq!(Fmt::Pct.cell(&x), "12.3%");
        assert_eq!(Fmt::SignedPct.cell(&x), "+12.3%");
        assert_eq!(Fmt::SignedPct.cell(&Json::Num(-0.04)), "-0.0%");
        assert_eq!(Fmt::Frac.cell(&Json::Num(0.123)), "12.3%");
        // A number formatter on a string prints it plainly.
        assert_eq!(Fmt::F3.cell(&Json::from("inf")), "inf");
        // A non-finite value is `null` in the report.
        let nan: [Col<f64>; 1] = [Col::new("v", "V", Fmt::F2, |&v| v.into())];
        let mut rep = Report::new("demo", "Demo", "§0", crate::RunScale::quick());
        append_rows(&mut rep, &nan, &[f64::NAN]);
        assert!(rep.to_json().contains("\"v\": null"));
    }

    #[test]
    fn grouped_render_joins_per_group_tables() {
        let grouped = text_groups(
            &COLS,
            [("A".to_string(), &ROWS[..1]), ("B".to_string(), &ROWS[1..])],
        );
        let a = text_table("A", &COLS, &ROWS[..1]).render();
        let b = text_table("B", &COLS, &ROWS[1..]).render();
        assert_eq!(grouped, format!("{a}\n{b}\n"));
    }
}
