//! Result output: the human-readable report, the results file, and the
//! final one-line JSON object.

use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count, percentile or provenance, shown beside the value.
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, note: impl Into<String>) -> Metric {
        Metric { name: name.to_string(), value, unit, note: note.into() }
    }
}

/// Sent / succeeded / failed counts of one phase of a run.
#[derive(Clone, Debug, Default)]
pub struct PhaseCounts {
    pub name: &'static str,
    pub sent: usize,
    pub ok: usize,
    pub failed: usize,
}

/// Where and how a result was measured.
pub struct Stamp {
    pub lines: Vec<(String, String)>,
}

impl Stamp {
    /// Host and build facts every result carries.
    pub fn host(nproc: usize) -> Stamp {
        // The checkout's own repository only, never one it sits inside.
        let git_dir = std::env::current_dir().map(|d| d.join(".git")).unwrap_or_default();
        let git_dir = git_dir.display().to_string();
        let run = |prog: &str, args: &[&str]| {
            Command::new(prog)
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
                .filter(|s| !s.is_empty())
        };
        let profile = if cfg!(debug_assertions) { "debug" } else { "release" };
        Stamp {
            lines: vec![
                ("nproc".into(), nproc.to_string()),
                ("profile".into(), profile.into()),
                ("rustc".into(), run("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
                (
                    "git_head".into(),
                    run("git", &["--git-dir", &git_dir, "rev-parse", "HEAD"])
                        .unwrap_or_else(|| "none (not a git checkout)".into()),
                ),
            ],
        }
    }

    pub fn add(&mut self, key: &str, value: impl ToString) {
        self.lines.push((key.to_string(), value.to_string()));
    }
}

/// A metric value as JSON: every digit as measured, never NaN.
fn json_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `"metrics"` object of the final line.
fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_value(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Everything one run reports.
pub struct Report<'a> {
    pub title: String,
    pub stamp: &'a Stamp,
    pub phases: &'a [PhaseCounts],
    pub notes: &'a [String],
    pub metrics: &'a [Metric],
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
}

impl Report<'_> {
    /// The final line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn json_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics_json(self.metrics)
        )
    }

    /// Human-readable lines printed before the JSON line.
    pub fn text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {}", self.title);
        for (k, v) in &self.stamp.lines {
            let _ = writeln!(out, "  {k:<14} {v}");
        }
        for p in self.phases {
            let _ = writeln!(
                out,
                "  phase {:<8} sent={} succeeded={} failed={}",
                p.name, p.sent, p.ok, p.failed
            );
        }
        for m in self.metrics {
            let _ = writeln!(out, "  {:<32} {:>14.4} {:<6} {}", m.name, m.value, m.unit, m.note);
        }
        for n in self.notes {
            let _ = writeln!(out, "  {n}");
        }
        let _ = writeln!(
            out,
            "  verdict: {} (attempted {}, failed {})",
            if self.correct { "PASS" } else { "FAIL" },
            self.attempted,
            self.failed
        );
        out
    }

    /// Write the full result (stamp, phases, metrics with notes) as JSON.
    pub fn write_file(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"title\": {},", json_str(&self.title));
        let stamp: Vec<String> = self
            .stamp
            .lines
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        let _ = writeln!(out, "  \"stamp\": {{{}}},", stamp.join(", "));
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|p| {
                format!(
                    "{{\"phase\": {}, \"sent\": {}, \"succeeded\": {}, \"failed\": {}}}",
                    json_str(p.name),
                    p.sent,
                    p.ok,
                    p.failed
                )
            })
            .collect();
        let _ = writeln!(out, "  \"phases\": [{}],", phases.join(", "));
        let notes: Vec<String> = self.notes.iter().map(|n| json_str(n)).collect();
        let _ = writeln!(out, "  \"notes\": [{}],", notes.join(", "));
        let detail: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "    {}: {{\"value\": {}, \"unit\": {}, \"note\": {}}}",
                    json_str(&m.name),
                    json_value(m.value),
                    json_str(m.unit),
                    json_str(&m.note)
                )
            })
            .collect();
        let _ = writeln!(out, "  \"metrics\": {{\n{}\n  }},", detail.join(",\n"));
        let _ = writeln!(out, "  \"result\": {}", self.json_line());
        out.push_str("}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn final_line_has_exactly_the_four_keys() {
        let stamp = Stamp { lines: vec![] };
        let metrics =
            vec![Metric::new("seq_ms_p50", 1.25, "ms", "n=3"), Metric::new("x", f64::NAN, "s", "")];
        let r = Report {
            title: "t".into(),
            stamp: &stamp,
            phases: &[],
            notes: &[],
            metrics: &metrics,
            correct: true,
            attempted: 3,
            failed: 0,
        };
        assert_eq!(
            r.json_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"seq_ms_p50\": {\"value\": 1.25, \"unit\": \"ms\"}, \"x\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
