//! Diagnostics: what a rule reports and how it renders (human text and
//! line-oriented JSON, both hand-rolled — the crate has no external
//! dependencies).

/// One finding, anchored to a file and line. Every finding is an error:
/// it fails `--strict`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule id (`D1`, `S2`, …).
    pub rule: &'static str,
    /// Workspace-relative path.
    pub rel: String,
    /// 1-based line.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// `path:line: error[D1] message` — the human-readable form.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: error[{}] {}",
            self.rel, self.line, self.rule, self.message
        )
    }

    /// One JSON object for the machine-readable report.
    pub fn render_json(&self) -> String {
        format!(
            "{{\"rule\":\"{}\",\"severity\":\"error\",\"path\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            self.rule,
            json_escape(&self.rel),
            self.line,
            json_escape(&self.message)
        )
    }
}

/// Full JSON report: `{"version":1,"count":N,"violations":[…]}`.
pub fn render_json_report(diags: &[Diagnostic]) -> String {
    let body: Vec<String> = diags.iter().map(Diagnostic::render_json).collect();
    format!(
        "{{\"version\":1,\"count\":{},\"violations\":[{}]}}",
        diags.len(),
        body.join(",")
    )
}

/// Minimal JSON string escaping.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d() -> Diagnostic {
        Diagnostic {
            rule: "D1",
            rel: "crates/core/src/utility.rs".into(),
            line: 42,
            message: "wall-clock read `Instant::now` inside the determinism boundary".into(),
        }
    }

    #[test]
    fn human_form_has_span_and_rule() {
        assert_eq!(
            d().render(),
            "crates/core/src/utility.rs:42: error[D1] wall-clock read `Instant::now` inside the determinism boundary"
        );
    }

    #[test]
    fn json_report_is_well_formed() {
        let r = render_json_report(&[d()]);
        assert!(r.starts_with("{\"version\":1,\"count\":1,"));
        assert!(r.contains("\"rule\":\"D1\""));
        assert!(r.contains("\"line\":42"));
        assert_eq!(
            render_json_report(&[]),
            "{\"version\":1,\"count\":0,\"violations\":[]}"
        );
    }

    #[test]
    fn escaping_handles_quotes_and_controls() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
