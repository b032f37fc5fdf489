//! Table formatting, summary statistics, and the shared [`Report`]
//! sink for the experiment binaries.
//!
//! Every `table*`/`figure*` binary used to hand-roll its own env
//! parsing and output plumbing; they now funnel through [`Report`],
//! which also attaches the wino-probe artifacts (`WINO_TRACE=summary`
//! appends the phase summary table, `WINO_TRACE=json[:path]` writes a
//! chrome://tracing file under `results/`).

use std::fmt::Write as _;

/// Geometric mean — the paper's aggregate for speedups across
/// convolutions ("All the average speedups reported across the
/// convolutions are computed using the geometric mean", §4.3).
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Scientific-notation rendering matching the paper's FLOPs column
/// (`1.16e+08`).
pub fn fmt_sci(v: f64) -> String {
    if v == 0.0 {
        return "0".into();
    }
    let exp = v.abs().log10().floor() as i32;
    let mant = v / 10f64.powi(exp);
    if (mant - mant.round()).abs() < 5e-3 {
        format!("{:.0}e{:+03}", mant.round(), exp)
    } else {
        format!("{mant:.2}e{exp:+03}")
    }
}

/// A simple fixed-width column table printer.
pub struct TablePrinter {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TablePrinter {
    /// Creates a printer with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        TablePrinter {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..ncols {
                if i > 0 {
                    line.push_str("  ");
                }
                line.push_str(&format!("{:>width$}", cells[i], width = widths[i]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

/// Output sink shared by the experiment binaries: accumulates the
/// experiment's text, then [`Report::finish`] prints it and attaches
/// whatever probe artifact `WINO_TRACE` asked for.
pub struct Report {
    artifact: &'static str,
    body: String,
}

impl Report {
    /// Starts the report for the binary named `artifact` (the default
    /// trace file is `results/<artifact>.trace.json`), initializing
    /// the probe layer from `WINO_TRACE` and printing `title`.
    pub fn new(artifact: &'static str, title: &str) -> Self {
        wino_probe::init_from_env();
        Report {
            artifact,
            body: format!("{title}\n\n"),
        }
    }

    /// Appends one line.
    pub fn line(&mut self, text: impl AsRef<str>) {
        let _ = writeln!(self.body, "{}", text.as_ref());
    }

    /// Appends an empty line.
    pub fn blank(&mut self) {
        self.body.push('\n');
    }

    /// Appends a rendered table.
    pub fn table(&mut self, table: &TablePrinter) {
        self.body.push_str(&table.render());
    }

    /// Prints the accumulated report, then the probe artifact:
    /// summary mode appends the per-span statistics table; json mode
    /// writes the chrome://tracing file (path from `WINO_TRACE=
    /// json:path`, default `results/<artifact>.trace.json`).
    pub fn finish(self) {
        print!("{}", self.body);
        match wino_probe::mode() {
            wino_probe::Mode::Off => {}
            wino_probe::Mode::Summary => {
                let data = wino_probe::collect();
                println!("\n== wino-probe phase summary ==");
                print!("{}", data.summary().render());
            }
            wino_probe::Mode::Json => {
                let data = wino_probe::collect();
                let path = wino_probe::trace_path()
                    .unwrap_or_else(|| format!("results/{}.trace.json", self.artifact));
                if let Some(dir) = std::path::Path::new(&path).parent() {
                    let _ = std::fs::create_dir_all(dir);
                }
                match std::fs::write(&path, data.chrome_trace().to_json()) {
                    Ok(()) => println!("\n[wino-probe] chrome trace written to {path}"),
                    Err(e) => wino_probe::diag(format!("failed to write trace {path}: {e}")),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_mean_values() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geometric_mean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!(geometric_mean(&[]).is_nan());
    }

    #[test]
    fn sci_formatting() {
        assert_eq!(fmt_sci(1.16e8), "1.16e+08");
        assert_eq!(fmt_sci(1.0e8), "1e+08");
        assert_eq!(fmt_sci(4.48e9), "4.48e+09");
        assert_eq!(fmt_sci(0.0), "0");
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TablePrinter::new(&["a", "long-header"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["333".into(), "4".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("long-header"));
        assert_eq!(
            lines[1].chars().filter(|&c| c == '-').count(),
            lines[1].len()
        );
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_checked() {
        let mut t = TablePrinter::new(&["a", "b"]);
        t.row(vec!["1".into()]);
    }

    #[test]
    fn report_accumulates() {
        let mut r = Report::new("test", "Title");
        r.line("one");
        r.blank();
        let mut t = TablePrinter::new(&["h"]);
        t.row(vec!["x".into()]);
        r.table(&t);
        assert!(r.body.starts_with("Title\n\n"));
        assert!(r.body.contains("one\n\n"));
        assert!(r.body.contains('h'));
    }
}
