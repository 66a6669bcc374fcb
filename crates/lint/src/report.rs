//! Findings, the waiver ledger, and the machine-readable
//! `LINT_report.json`. The JSON is written by hand (stable key order,
//! sorted entries) so the report itself is byte-deterministic — the
//! analyzer holds itself to the contract it enforces.

use std::fmt::Write as _;

/// One diagnostic.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id: `wall-clock`, `thread-id`, `hash-iter`, `lock-order`,
    /// `recovery-panic`, `counter-unread`, `unsafe-block`,
    /// `pub-uncalled`, `waiver-no-reason`.
    pub rule: String,
    /// Workspace-relative path.
    pub file: String,
    pub line: u32,
    pub message: String,
    /// True when an inline waiver covers this finding.
    pub waived: bool,
    /// The waiver's reason string, when waived.
    pub reason: String,
}

/// One waiver as it will appear in the audit ledger.
#[derive(Debug, Clone)]
pub struct WaiverEntry {
    pub file: String,
    pub line: u32,
    pub rule: String,
    pub reason: String,
    /// Whether any finding actually matched this waiver.
    pub used: bool,
}

/// One edge of the lock-acquisition graph.
#[derive(Debug, Clone)]
pub struct LockEdge {
    pub from: String,
    pub to: String,
    /// First site where the edge was observed.
    pub file: String,
    pub line: u32,
    pub count: usize,
}

/// The full analysis result.
#[derive(Debug, Default)]
pub struct LintReport {
    pub files_scanned: usize,
    pub findings: Vec<Finding>,
    pub waivers: Vec<WaiverEntry>,
    pub locks: Vec<String>,
    pub edges: Vec<LockEdge>,
    /// Each cycle as the sequence of lock names (first repeated last).
    pub cycles: Vec<Vec<String>>,
    /// (struct, field, file, line, referenced) for every audited counter.
    pub counters: Vec<(String, String, String, u32, bool)>,
}

impl LintReport {
    /// Findings not covered by a waiver — the ones that fail the build.
    pub fn unwaived(&self) -> Vec<&Finding> {
        self.findings.iter().filter(|f| !f.waived).collect()
    }

    /// Canonical ordering for output: file, line, rule.
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
        self.waivers
            .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
        self.locks.sort();
        self.edges
            .sort_by(|a, b| (&a.from, &a.to).cmp(&(&b.from, &b.to)));
        self.counters.sort();
    }

    /// Render the human-readable diagnostics and ledger.
    pub fn render_text(&self) -> String {
        let mut s = String::new();
        for f in &self.findings {
            if f.waived {
                continue;
            }
            let _ = writeln!(s, "{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
        }
        let _ = writeln!(
            s,
            "dynapipe-lint: {} file(s), {} finding(s), {} unwaived",
            self.files_scanned,
            self.findings.len(),
            self.unwaived().len()
        );
        let _ = writeln!(
            s,
            "lock graph: {} lock(s), {} edge(s), {} cycle(s)",
            self.locks.len(),
            self.edges.len(),
            self.cycles.len()
        );
        if !self.waivers.is_empty() {
            let _ = writeln!(s, "waiver ledger ({}):", self.waivers.len());
            for w in &self.waivers {
                let _ = writeln!(
                    s,
                    "  {}:{} allow({}) — {}{}",
                    w.file,
                    w.line,
                    w.rule,
                    if w.reason.is_empty() {
                        "<NO REASON>"
                    } else {
                        &w.reason
                    },
                    if w.used { "" } else { " [unused]" }
                );
            }
        }
        s
    }

    /// Serialize to JSON (stable key order, pretty-printed).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"version\": 1,");
        let _ = writeln!(s, "  \"files_scanned\": {},", self.files_scanned);
        s.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \"waived\": {}, \"reason\": {}}}",
                json_str(&f.rule),
                json_str(&f.file),
                f.line,
                json_str(&f.message),
                f.waived,
                json_str(&f.reason)
            );
        }
        s.push_str(if self.findings.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        s.push_str("  \"waivers\": [");
        for (i, w) in self.waivers.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    {{\"file\": {}, \"line\": {}, \"rule\": {}, \"reason\": {}, \"used\": {}}}",
                json_str(&w.file),
                w.line,
                json_str(&w.rule),
                json_str(&w.reason),
                w.used
            );
        }
        s.push_str(if self.waivers.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        s.push_str("  \"lock_graph\": {\n    \"locks\": [");
        for (i, l) in self.locks.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&json_str(l));
        }
        s.push_str("],\n    \"edges\": [");
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n      {{\"from\": {}, \"to\": {}, \"file\": {}, \"line\": {}, \"count\": {}}}",
                json_str(&e.from),
                json_str(&e.to),
                json_str(&e.file),
                e.line,
                e.count
            );
        }
        s.push_str(if self.edges.is_empty() {
            "],\n"
        } else {
            "\n    ],\n"
        });
        s.push_str("    \"cycles\": [");
        for (i, c) in self.cycles.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push('[');
            for (j, n) in c.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                s.push_str(&json_str(n));
            }
            s.push(']');
        }
        s.push_str("]\n  },\n");
        s.push_str("  \"counters\": [");
        for (i, (st, field, file, line, referenced)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    {{\"struct\": {}, \"field\": {}, \"file\": {}, \"line\": {}, \"referenced\": {}}}",
                json_str(st),
                json_str(field),
                json_str(file),
                line,
                referenced
            );
        }
        s.push_str(if self.counters.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        let _ = writeln!(
            s,
            "  \"summary\": {{\"findings\": {}, \"unwaived\": {}, \"waivers\": {}, \"cycles\": {}}}",
            self.findings.len(),
            self.unwaived().len(),
            self.waivers.len(),
            self.cycles.len()
        );
        s.push_str("}\n");
        s
    }
}

/// Minimal JSON string escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
