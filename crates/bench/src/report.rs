//! Experiment output: titled tables of typed cells, printed as aligned
//! text and written to `BENCH_<experiment>.json`.
//!
//! An experiment builds each number once, as a [`Cell`] of a [`Table`],
//! and hands the table to a [`Report`], which prints it. A cell is text
//! or a number with the kind it prints as (count, bytes, seconds, fixed
//! decimals, scientific). The report file carries each number exactly:
//! integers as integers, `f64` through `{:?}` (which parses back to the
//! same bits), non-finite values as `null`; hand-rolled JSON, as the
//! workspace is dependency-free.
//!
//! `repro` writes the report of `paper` (the paper's whole evaluation)
//! and of the five extension experiments. Nothing in a report is timed,
//! so CI regenerates every committed `BENCH_*.json` and compares it byte
//! for byte: a change that moves a modeled byte regenerates the report in
//! the same commit. A table of wall-clock numbers is printed, never added
//! to a report; such numbers belong to the `benchmark/` package.

use crate::Scale;
use hybridgraph_core::JobMetrics;
use hybridgraph_obs::json_escape;
use std::fmt::{self, Write as _};

/// One table cell: text, or a number with the kind it prints as.
#[derive(Clone, Debug, PartialEq)]
pub enum Cell {
    /// Text, printed and serialised as it is.
    Text(String),
    /// A count, printed in full.
    Count(u64),
    /// A byte count, printed as a power-of-ten quantity (the paper's
    /// figures use 10^10-byte ticks).
    Bytes(u64),
    /// Seconds, printed compactly.
    Secs(f64),
    /// A number printed with this many decimals.
    Fixed(f64, usize),
    /// A number printed in signed scientific notation with this many
    /// decimals.
    Sci(f64, usize),
}

impl Cell {
    /// A text cell.
    pub fn text(s: impl Into<String>) -> Cell {
        Cell::Text(s.into())
    }

    /// A ratio: two decimals.
    pub fn ratio(r: f64) -> Cell {
        Cell::Fixed(r, 2)
    }

    /// The cell's exact JSON value.
    fn json(&self) -> String {
        match self {
            Cell::Text(s) => json_str(s),
            Cell::Count(n) | Cell::Bytes(n) => n.to_string(),
            Cell::Secs(v) | Cell::Fixed(v, _) | Cell::Sci(v, _) if v.is_finite() => {
                format!("{v:?}")
            }
            Cell::Secs(_) | Cell::Fixed(..) | Cell::Sci(..) => "null".to_string(),
        }
    }
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Cell::Text(ref s) => f.write_str(s),
            Cell::Count(n) => write!(f, "{n}"),
            Cell::Bytes(b) if b >= 10_000_000_000 => write!(f, "{:.2}e10", b as f64 / 1e10),
            Cell::Bytes(b) if b >= 1_000_000 => write!(f, "{:.1}MB", b as f64 / 1e6),
            Cell::Bytes(b) if b >= 1_000 => write!(f, "{:.1}KB", b as f64 / 1e3),
            Cell::Bytes(b) => write!(f, "{b}B"),
            Cell::Secs(s) if s >= 100.0 => write!(f, "{s:.0}"),
            Cell::Secs(s) if s >= 1.0 => write!(f, "{s:.1}"),
            Cell::Secs(s) => write!(f, "{s:.3}"),
            Cell::Fixed(v, decimals) => write!(f, "{v:.decimals$}"),
            Cell::Sci(v, decimals) => write!(f, "{v:+.decimals$e}"),
        }
    }
}

/// Headers of the [`job_cells`] columns.
pub const JOB_COLUMNS: [&str; 5] = ["modeled", "physical", "logical", "supersteps", "switches"];

/// The cells every gated job row carries: modeled seconds (load
/// included), physical (post-codec, seek-padded) and logical I/O bytes,
/// computation supersteps, and the mode switches as `t:from->to`,
/// superstep order.
pub fn job_cells(m: &JobMetrics) -> Vec<Cell> {
    vec![
        Cell::Secs(m.modeled_total_secs()),
        Cell::Bytes(m.total_io_bytes()),
        Cell::Bytes(m.total_io_logical_bytes()),
        Cell::Count(m.supersteps()),
        switches(m),
    ]
}

/// A job's mode switches as `t:from->to`, superstep order, one space
/// apart.
pub fn switches(m: &JobMetrics) -> Cell {
    let decisions: Vec<String> = m
        .switches
        .iter()
        .map(|(t, from, to)| format!("{t}:{}->{}", from.label(), to.label()))
        .collect();
    Cell::Text(decisions.join(" "))
}

/// A titled table of cells, its first column left-aligned and the rest
/// right-aligned.
pub struct Table {
    title: String,
    columns: Vec<String>,
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// A table titled `title` with the given column headers.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Table {
        Table {
            title: title.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(cells.len(), self.columns.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table to a string.
    fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Cell::to_string).collect())
            .collect();
        let mut widths: Vec<usize> = self.columns.iter().map(|h| h.len()).collect();
        for (i, c) in rows.iter().flat_map(|r| r.iter().enumerate()) {
            widths[i] = widths[i].max(c.len());
        }
        let line = |cells: &[String]| {
            let mut line = format!("{:<w$}", cells[0], w = widths[0]);
            for (c, w) in cells.iter().zip(&widths).skip(1) {
                let _ = write!(line, "  {c:>w$}");
            }
            line + "\n"
        };
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let mut out = format!("== {} ==\n", self.title);
        out += &line(&self.columns);
        out += &format!("{}\n", "-".repeat(total));
        for row in &rows {
            out += &line(row);
        }
        out
    }

    /// Prints the table to stdout, without adding it to any report.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// The table as a JSON object, one row a line.
    fn json(&self) -> String {
        let columns: Vec<String> = self.columns.iter().map(|c| json_str(c)).collect();
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                let cells: Vec<String> = r.iter().map(Cell::json).collect();
                format!("\n        [{}]", cells.join(", "))
            })
            .collect();
        format!(
            "    {{\n      \"title\": {},\n      \"columns\": [{}],\n      \"rows\": [{}\n      ]\n    }}",
            json_str(&self.title),
            columns.join(", "),
            rows.join(",")
        )
    }
}

/// The tables an experiment produced, in the order it printed them.
#[derive(Default)]
pub struct Report {
    tables: Vec<Table>,
}

impl Report {
    /// Prints `table` and adds it to the report.
    pub fn add(&mut self, table: Table) {
        table.print();
        self.tables.push(table);
    }

    /// Serializes the report as pretty-printed JSON.
    fn to_json(&self, experiment: &str, scale: Scale) -> String {
        let tables: Vec<String> = self
            .tables
            .iter()
            .map(|t| format!("\n{}", t.json()))
            .collect();
        format!(
            "{{\n  \"experiment\": {},\n  \"scale\": {},\n  \"tables\": [{}\n  ]\n}}\n",
            json_str(experiment),
            scale.0,
            tables.join(",")
        )
    }

    /// Writes `BENCH_<experiment>.json` into the current directory and
    /// prints the `report:  <path>` line.
    pub fn write(&self, experiment: &str, scale: Scale) {
        let path = format!("BENCH_{experiment}.json");
        std::fs::write(&path, self.to_json(experiment, scale)).expect("write bench report");
        println!("report:  {path}");
    }
}

/// `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hybridgraph_obs::validate_json;

    fn demo() -> Table {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec![Cell::text("x"), Cell::Count(1)]);
        t.row(vec![Cell::text("longer"), Cell::Count(23)]);
        t
    }

    #[test]
    fn renders_aligned() {
        let r = demo().render();
        assert_eq!(
            r,
            "== demo ==\nname    value\n-------------\nx           1\nlonger     23\n"
        );
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_bad_rows() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec![Cell::text("only-one")]);
    }

    #[test]
    fn formatters() {
        let shown = |c: Cell| c.to_string();
        assert_eq!(shown(Cell::Secs(0.1234)), "0.123");
        assert_eq!(shown(Cell::Secs(12.34)), "12.3");
        assert_eq!(shown(Cell::Secs(1234.0)), "1234");
        assert_eq!(shown(Cell::Bytes(500)), "500B");
        assert_eq!(shown(Cell::Bytes(2_500_000)), "2.5MB");
        assert_eq!(shown(Cell::Bytes(25_000_000_000)), "2.50e10");
        assert_eq!(shown(Cell::ratio(1.234)), "1.23");
        assert_eq!(shown(Cell::ratio(f64::INFINITY)), "inf");
        assert_eq!(shown(Cell::Fixed(12.5, 0)), "12");
        assert_eq!(shown(Cell::Sci(-1234.5, 3)), "-1.234e3");
        assert_eq!(shown(Cell::Sci(0.5, 2)), "+5.00e-1");
    }

    #[test]
    fn report_is_valid_json() {
        let values = [0.1, 1.0 / 3.0, 2e-300, 123456789.125, f64::MIN_POSITIVE];
        let mut t = Table::new("a \"quoted\"\ntitle", &["label", "n", "v", "nan", "inf"]);
        for &v in &values {
            t.row(vec![
                Cell::text("tab\there \\ \"q\""),
                Cell::Bytes(u64::MAX),
                Cell::Secs(v),
                Cell::Fixed(f64::NAN, 2),
                Cell::Sci(f64::NEG_INFINITY, 3),
            ]);
        }
        let mut rep = Report::default();
        rep.tables.push(t);
        let json = rep.to_json("demo", Scale(2000));
        validate_json(&json).expect("valid JSON");
        assert!(
            json.contains("\"title\": \"a \\\"quoted\\\"\\ntitle\""),
            "{json}"
        );
        assert!(json.contains("[\"tab\\there \\\\ \\\"q\\\"\", 18446744073709551615, "));
        assert!(json.contains(", null, null]"));
        // Every f64 cell's text parses back to the same bits.
        for &v in &values {
            let text = format!(", {v:?}, null");
            let at = json.find(&text).expect("cell serialised") + 2;
            let end = at + json[at..].find(',').unwrap();
            assert_eq!(json[at..end].parse::<f64>().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn empty_report_is_valid() {
        validate_json(&Report::default().to_json("empty", Scale(1))).expect("valid JSON");
    }
}
