//! Statistics over samples, process probes, and the result line.

use std::process::ExitCode;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single measurement or a count).
    pub samples: usize,
    /// How the value was formed, for the human-readable report.
    pub note: String,
}

/// What one run measured and whether its outputs were right.
#[derive(Default)]
pub struct Outcome {
    /// Every correctness gate passed (digests, byte identity, tallies).
    pub correct: bool,
    /// Operations the run attempted (documents, requests, checks).
    pub attempted: u64,
    /// Operations that failed: wrong bytes, non-200 replies, transport
    /// errors, timeouts.
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Extra report lines (sub-measurements not in the result object).
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn metric(
        &mut self,
        name: &str,
        value: f64,
        unit: &'static str,
        samples: usize,
        note: &str,
    ) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
            note: note.to_string(),
        });
    }

    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Records a failed gate, keeping the reason in the report.
    pub fn fail(&mut self, why: impl Into<String>) {
        let why = why.into();
        eprintln!("perfbench: FAILED: {why}");
        self.lines.push(format!("FAILED: {why}"));
        self.failed += 1;
        self.correct = false;
    }

    /// Prints the report and the result line; nonzero exit unless every
    /// gate passed and no operation failed.
    pub fn finish(self) -> ExitCode {
        for line in &self.lines {
            println!("# {line}");
        }
        println!(
            "# fail_ratio {} ({} failed of {} attempted)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        for m in &self.metrics {
            println!(
                "# {:<28} {:>14} {:<6} n={:<6} {}",
                m.name,
                fmt_num(m.value),
                m.unit,
                m.samples,
                m.note
            );
        }
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let correct = self.correct && self.failed == 0 && finite && self.attempted > 0;
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { -1.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    fmt_num(value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

/// A JSON number with all its digits (Rust's shortest round-trip form).
fn fmt_num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Sorted copy of `xs`.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of an ascending sample (`p` in `[0, 1]`).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The tail of a latency sample: the highest of p99.9, p99 and p90 that
/// still has at least ten samples beyond it, or the maximum when the
/// sample is too small for any. Returns the value and its label.
pub fn tail(xs: &[f64]) -> (f64, &'static str) {
    let s = sorted(xs);
    for (p, label) in [(0.999, "p99.9"), (0.99, "p99"), (0.9, "p90")] {
        let beyond = s.len() as f64 * (1.0 - p);
        if beyond >= 10.0 {
            return (percentile(&s, p), label);
        }
    }
    (s.last().copied().unwrap_or(f64::NAN), "max")
}

/// Peak resident set size of a process in MB (`VmHWM`), from procfs.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// SplitMix64: derives independent per-item values from the run seed.
pub fn mix(seed: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Hex SHA-256 of a result document.
pub fn digest(body: &[u8]) -> String {
    fair_crypto::sha256::sha256(body)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}
