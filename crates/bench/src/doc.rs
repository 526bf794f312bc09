//! The one document type every `reproduce` artifact is described in.
//!
//! An experiment says *what* its artifact contains — title, `#` notes,
//! tables of named cells, summary fields, claims — as a [`Doc`]; this module
//! owns *how* that becomes bytes: one CSV printer ([`Doc::csv`]), one JSON
//! printer ([`Doc::json`]) and one claim check ([`Doc::failed_claims`]).
//! [`Doc::publish`] is the only path to stdout and the output directory, and
//! it refuses a document whose claims do not all hold.

use std::fmt::Display;
use std::fs;
use std::path::Path;

/// One named value, rendered ahead of time for the forms it appears in.
#[derive(Clone, Debug)]
pub struct Cell {
    name: String,
    csv: Option<String>,
    json: Option<String>,
    /// What it means that this claim is false; `None` for a cell that is
    /// not a claim or whose claim holds.
    failed: Option<&'static str>,
}

impl Cell {
    fn new(name: impl Into<String>, csv: Option<String>, json: String) -> Self {
        Cell {
            name: name.into(),
            csv,
            json: Some(json),
            failed: None,
        }
    }

    fn member(&self) -> Option<String> {
        Some(format!("\"{}\": {}", self.name, self.json.as_ref()?))
    }

    /// Keep this cell out of the JSON form.
    pub fn csv_only(mut self) -> Self {
        self.json = None;
        self
    }

    /// Keep this cell out of the CSV form.
    pub fn json_only(mut self) -> Self {
        self.csv = None;
        self
    }

    /// Attach a claim to this cell: unless `holds`, [`Doc::failed_claims`]
    /// reports it under the cell's name with `meaning_when_false`.
    pub fn must(mut self, holds: bool, meaning_when_false: &'static str) -> Self {
        self.failed = (!holds).then_some(meaning_when_false);
        self
    }
}

/// A float with `csv_prec` decimals in the CSV and `json_prec` in the JSON.
pub fn float(name: impl Into<String>, v: f64, csv_prec: usize, json_prec: usize) -> Cell {
    Cell::new(
        name,
        Some(format!("{v:.csv_prec$}")),
        format!("{v:.json_prec$}"),
    )
}

/// A float with the same number of decimals in both forms.
pub fn fixed(name: impl Into<String>, v: f64, prec: usize) -> Cell {
    float(name, v, prec, prec)
}

/// A value both forms print alike: an integer or a boolean.
pub fn plain(name: impl Into<String>, v: impl Display) -> Cell {
    Cell::new(name, Some(v.to_string()), v.to_string())
}

/// A label: bare in the CSV, a quoted string in the JSON.
pub fn text(name: impl Into<String>, v: impl Display) -> Cell {
    Cell::new(name, Some(v.to_string()), format!("\"{v}\""))
}

/// A named claim: prints as the boolean `holds` and [`Cell::must`] hold.
pub fn claim(name: &'static str, holds: bool, meaning_when_false: &'static str) -> Cell {
    plain(name, holds).must(holds, meaning_when_false)
}

/// A JSON-only nested object, rendered on one line inside its row.
pub fn nested(name: &'static str, cells: &[Cell]) -> Cell {
    Cell::new(name, None, object(cells, None))
}

/// How a table's rows are laid out in the JSON form.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// One `{"k": v, "k": v}` object per line.
    Inline,
    /// One member per line.
    Expanded,
}

/// One ordered part of a [`Doc`].
#[derive(Clone, Debug)]
pub enum Item {
    /// A free-form text line of the CSV form (a `# note`, a pivoted table
    /// row, a headline); absent from the JSON.
    Line(String),
    /// Scalar fields: each is a top-level JSON member, and those with a CSV
    /// rendering share one `name: value  name: value` summary line.
    Fields(Vec<Cell>),
    /// A nested JSON object, one member per line; absent from the CSV.
    Object(&'static str, Vec<Cell>),
    /// A table of rows of cells: in the CSV a header (the first row's cell
    /// names) plus one line per row; in the JSON an array of row objects
    /// under the given member name, or nothing when that is `None`.
    Table(Option<&'static str>, Layout, Vec<Vec<Cell>>),
}

/// One experiment artifact, described once and printable as CSV and JSON.
#[derive(Clone, Debug)]
pub struct Doc {
    /// Artifact stem: `<name>.csv` and `BENCH_<name>.json`.
    pub name: &'static str,
    /// First line of the CSV form.
    pub title: String,
    /// The content, in output order.
    pub items: Vec<Item>,
    /// Extra files written verbatim beside the rendered forms.
    pub attachments: Vec<(&'static str, String)>,
}

/// `{"k": v, ...}` over the JSON-visible `cells`: on one line, or with one
/// member per line indented under a brace at `indent` spaces.
fn object(cells: &[Cell], indent: Option<usize>) -> String {
    let members: Vec<String> = cells.iter().filter_map(Cell::member).collect();
    match indent {
        None => format!("{{{}}}", members.join(", ")),
        Some(n) => {
            let (pad, close) = (" ".repeat(n + 2), " ".repeat(n));
            format!("{{\n{pad}{}\n{close}}}", members.join(&format!(",\n{pad}")))
        }
    }
}

/// The CSV-visible `cells`, each rendered by `show(cell, its CSV text)`,
/// joined by `sep`; empty when none is visible.
fn csv_join(cells: &[Cell], sep: &str, show: impl Fn(&Cell, &str) -> String) -> String {
    let visible = cells.iter().filter_map(|c| Some(show(c, c.csv.as_ref()?)));
    visible.collect::<Vec<_>>().join(sep)
}

impl Doc {
    /// A document with no attachments.
    pub fn new(name: &'static str, title: impl Into<String>, items: Vec<Item>) -> Self {
        Doc {
            name,
            title: title.into(),
            items,
            attachments: Vec::new(),
        }
    }

    /// The CSV form (also what stdout shows). A part with nothing
    /// CSV-visible leaves no line.
    pub fn csv(&self) -> String {
        let mut lines = vec![format!("== {} ==", self.title)];
        for item in &self.items {
            match item {
                Item::Line(l) => lines.push(l.clone()),
                Item::Fields(cells) => {
                    lines.push(csv_join(cells, "  ", |c, v| format!("{}: {v}", c.name)))
                }
                Item::Object(..) => {}
                Item::Table(_, _, rows) => {
                    lines.extend(
                        rows.first()
                            .map(|r| csv_join(r, ",", |c, _| c.name.clone())),
                    );
                    lines.extend(rows.iter().map(|r| csv_join(r, ",", |_, v| v.to_string())));
                }
            }
        }
        lines.retain(|l| !l.is_empty());
        lines.join("\n") + "\n"
    }

    /// The JSON form, opening with `"experiment": "<name>"`; `None` when
    /// nothing in the document is JSON-visible.
    pub fn json(&self) -> Option<String> {
        let mut members = Vec::new();
        for item in &self.items {
            match item {
                Item::Line(_) | Item::Table(None, ..) => {}
                Item::Fields(cells) => members.extend(cells.iter().filter_map(Cell::member)),
                Item::Object(name, cells) => {
                    members.push(format!("\"{name}\": {}", object(cells, Some(2))))
                }
                Item::Table(Some(name), layout, rows) => {
                    let indent = (*layout == Layout::Expanded).then_some(4);
                    let rows: Vec<String> = rows.iter().map(|r| object(r, indent)).collect();
                    members.push(format!("\"{name}\": [\n    {}\n  ]", rows.join(",\n    ")));
                }
            }
        }
        if members.is_empty() {
            return None;
        }
        members.insert(0, format!("\"experiment\": \"{}\"", self.name));
        Some(format!("{{\n  {}\n}}\n", members.join(",\n  ")))
    }

    /// Every file this document renders to, as `(file name, body)`.
    pub fn files(&self) -> Vec<(String, String)> {
        let csv = (format!("{}.csv", self.name), self.csv());
        let json = self
            .json()
            .map(|b| (format!("BENCH_{}.json", self.name), b));
        let extra = self
            .attachments
            .iter()
            .map(|(f, b)| (f.to_string(), b.clone()));
        std::iter::once(csv).chain(json).chain(extra).collect()
    }

    /// Each claim that does not hold, as `name: what that means`.
    pub fn failed_claims(&self) -> Vec<String> {
        let mut cells: Vec<&Cell> = Vec::new();
        for item in &self.items {
            match item {
                Item::Line(_) => {}
                Item::Fields(c) | Item::Object(_, c) => cells.extend(c),
                Item::Table(_, _, rows) => cells.extend(rows.iter().flatten()),
            }
        }
        let failed = cells.iter().filter_map(|c| Some((&c.name, c.failed?)));
        failed.map(|(name, why)| format!("{name}: {why}")).collect()
    }

    /// Check the document, print it to stdout and, with `out_dir`, write its
    /// files there. A false claim or a malformed JSON body is an error
    /// naming it, returned before anything is printed or written.
    pub fn publish(&self, out_dir: Option<&Path>) -> Result<(), String> {
        let failed = self.failed_claims();
        if !failed.is_empty() {
            let failed = failed.join("; ");
            return Err(format!("{}: claim failed: {failed}", self.name));
        }
        if let Some(json) = self.json() {
            telemetry::validate_json_doc(&json, &[])
                .map_err(|e| format!("BENCH_{}.json is malformed: {e}", self.name))?;
        }
        // Stdout is the CSV surface; the JSON goes only to disk.
        println!("{}", self.csv());
        if let Some(dir) = out_dir {
            fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
            for (file, body) in self.files() {
                let path = dir.join(file);
                fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(holds: bool) -> Doc {
        let row = |name: &str, v: f64| {
            vec![
                text("name", name),
                float("ms", v, 1, 3),
                plain("csv_only", 7).csv_only(),
                nested("parts", &[plain("a", 1), plain("b", 2)]),
            ]
        };
        let items = vec![
            Item::Line("# note".into()),
            Item::Fields(vec![plain("gpus", 4).json_only()]),
            Item::Table(
                Some("cells"),
                Layout::Inline,
                vec![row("x", 1.25), row("y", 2.0)],
            ),
            Item::Table(Some("runs"), Layout::Expanded, vec![row("z", 0.5)]),
            Item::Table(None, Layout::Inline, vec![vec![fixed("t", 0.0, 2)]]),
            Item::Object(
                "check",
                vec![fixed("delta", 0.5, 2), claim("ok", holds, "drifted")],
            ),
            Item::Fields(vec![fixed("share", 0.25, 2), claim("wins", true, "lost")]),
        ];
        Doc::new("sample", "A sample", items)
    }

    /// Pins both JSON row layouts, a nested object inside a row, a nested
    /// top-level object and the CSV form against literal bytes.
    #[test]
    fn printers_match_the_golden_bytes() {
        let doc = sample(true);
        let csv = "== A sample ==\n# note\nname,ms,csv_only\nx,1.2,7\ny,2.0,7\n\
                   name,ms,csv_only\nz,0.5,7\nt\n0.00\nshare: 0.25  wins: true\n";
        assert_eq!(doc.csv(), csv);
        let json = r#"{
  "experiment": "sample",
  "gpus": 4,
  "cells": [
    {"name": "x", "ms": 1.250, "parts": {"a": 1, "b": 2}},
    {"name": "y", "ms": 2.000, "parts": {"a": 1, "b": 2}}
  ],
  "runs": [
    {
      "name": "z",
      "ms": 0.500,
      "parts": {"a": 1, "b": 2}
    }
  ],
  "check": {
    "delta": 0.50,
    "ok": true
  },
  "share": 0.25,
  "wins": true
}
"#;
        assert_eq!(doc.json().as_deref(), Some(json));
        telemetry::validate_json_doc(json, &[]).expect("golden JSON is well-formed");
        let files: Vec<String> = doc.files().into_iter().map(|(f, _)| f).collect();
        assert_eq!(files, ["sample.csv", "BENCH_sample.json"]);
        assert!(doc.failed_claims().is_empty());
    }

    #[test]
    fn a_csv_only_document_has_no_json_and_attachments_follow_the_forms() {
        let table = Item::Table(None, Layout::Inline, vec![vec![plain("n", 1)]]);
        let mut doc = Doc::new("t", "T", vec![table]);
        assert_eq!(doc.json(), None);
        doc.attachments.push(("t.txt", "stacks\n".to_string()));
        let files: Vec<String> = doc.files().into_iter().map(|(f, _)| f).collect();
        assert_eq!(files, ["t.csv", "t.txt"]);
    }

    /// A false claim — wherever it sits — is named, and nothing is written.
    #[test]
    fn a_false_claim_is_named_and_nothing_is_written() {
        let doc = sample(false);
        assert!(doc.json().unwrap().contains("\"ok\": false"));
        assert_eq!(doc.failed_claims(), ["ok: drifted"]);
        let dir = std::env::temp_dir().join(format!("bench-doc-claim-{}", std::process::id()));
        let err = doc.publish(Some(&dir)).unwrap_err();
        assert_eq!(err, "sample: claim failed: ok: drifted");
        assert!(!dir.exists(), "a refused document must leave no file");
        let unmet = plain("allocs", 3).must(false, "allocated");
        let doc = Doc::new(
            "t",
            "T",
            vec![Item::Table(None, Layout::Inline, vec![vec![unmet]])],
        );
        assert_eq!(doc.failed_claims(), ["allocs: allocated"]);
    }
}
