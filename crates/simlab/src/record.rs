//! The structured results store: machine-readable records of experiment
//! runs, persisted as JSON so fairness reproductions are re-checkable and
//! the suite's performance trajectory is trackable across commits
//! (`target/simlab/<exp>.json` per run, `BENCH_reproduce.json` aggregate).
//! The report types also render the paper-vs-measured tables `reproduce`
//! prints.

use crate::json::Json;
use fair_trace::{ProtoSummary, QuantileSummary};

/// One measured row of an experiment table: a paper value against the
/// measured one.
#[derive(Clone, Debug, PartialEq)]
pub struct RowRecord {
    /// What the row measures.
    pub label: String,
    /// The paper's closed-form value (`None` for qualitative checks).
    pub paper: Option<f64>,
    /// The measured value.
    pub measured: f64,
    /// 95% confidence half-width.
    pub ci: f64,
    /// Whether the row reproduced the claim.
    pub pass: bool,
}

impl RowRecord {
    /// A row compared against a paper value within `tol + ci`.
    pub fn vs_paper(
        label: impl Into<String>,
        paper: f64,
        measured: f64,
        ci: f64,
        tol: f64,
    ) -> Self {
        RowRecord {
            label: label.into(),
            paper: Some(paper),
            measured,
            ci,
            pass: (measured - paper).abs() <= ci + tol,
        }
    }

    /// A row that must only stay below a paper upper bound.
    pub fn upper_bound(
        label: impl Into<String>,
        bound: f64,
        measured: f64,
        ci: f64,
        tol: f64,
    ) -> Self {
        RowRecord {
            label: label.into(),
            paper: Some(bound),
            measured,
            ci,
            pass: measured <= bound + ci + tol,
        }
    }

    /// A qualitative row with an explicit verdict.
    pub fn check(label: impl Into<String>, measured: f64, pass: bool) -> Self {
        RowRecord {
            label: label.into(),
            paper: None,
            measured,
            ci: 0.0,
            pass,
        }
    }

    /// The paper column as printed: four decimals, or `—` for a
    /// qualitative row.
    fn paper_cell(&self) -> String {
        self.paper
            .map(|p| format!("{p:.4}"))
            .unwrap_or_else(|| "—".to_string())
    }
}

/// The report one experiment run emits: its paper claim and the rows
/// that check it.
#[derive(Clone, Debug, PartialEq)]
pub struct ReportRecord {
    /// Report id (e.g. `"E5"`).
    pub id: String,
    /// The paper claim under test.
    pub title: String,
    /// The measurement rows.
    pub rows: Vec<RowRecord>,
}

impl ReportRecord {
    /// Whether every row passed.
    pub fn pass(&self) -> bool {
        self.rows.iter().all(|r| r.pass)
    }

    /// Renders the report as a GitHub-flavored markdown table.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}: {}\n\n", self.id, self.title));
        out.push_str("| quantity | paper | measured | ±95% | ok |\n");
        out.push_str("|---|---|---|---|---|\n");
        for r in &self.rows {
            out.push_str(&format!(
                "| {} | {} | {:.4} | {:.4} | {} |\n",
                r.label.replace('|', "\\|"),
                r.paper_cell(),
                r.measured,
                r.ci,
                if r.pass { "✓" } else { "✗" }
            ));
        }
        out.push('\n');
        out
    }

    /// Renders the report as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {}: {} ==\n", self.id, self.title));
        let w = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .max()
            .unwrap_or(10)
            .max(10);
        out.push_str(&format!(
            "{:<w$}  {:>10}  {:>10}  {:>8}  {}\n",
            "quantity",
            "paper",
            "measured",
            "±95%",
            "ok",
            w = w
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<w$}  {:>10}  {:>10.4}  {:>8.4}  {}\n",
                r.label,
                r.paper_cell(),
                r.measured,
                r.ci,
                if r.pass { "✓" } else { "✗ FAIL" },
                w = w
            ));
        }
        out
    }
}

/// Summary of an adaptive (CI-bounded) run: how many trials the epsilon
/// stopper actually spent versus what was requested, aggregated over every
/// `estimate()` call of the experiment. Deterministic — the stop rule is a
/// pure function of the integer tallies, so `trials_used` is bit-stable
/// across worker counts.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AdaptiveSummary {
    /// The CI half-width target that gates early stop.
    pub epsilon: f64,
    /// Number of `estimate()` calls that ran adaptively.
    pub estimates: u64,
    /// How many of them stopped before exhausting their budget.
    pub early_stops: u64,
    /// Total trials the experiment asked for.
    pub trials_requested: u64,
    /// Total trials actually executed.
    pub trials_used: u64,
}

impl AdaptiveSummary {
    /// Renders the record block (shared by batch records and the serve
    /// streaming wrapper, so both surfaces agree on field names).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("epsilon", Json::Num(self.epsilon))
            .field("estimates", Json::num(self.estimates as f64))
            .field("early_stops", Json::num(self.early_stops as f64))
            .field("trials_requested", Json::num(self.trials_requested as f64))
            .field("trials_used", Json::num(self.trials_used as f64))
    }
}

/// One progress frame of an adaptive run: the running estimate of one
/// `estimate()` call after a tile batch. The adaptive estimator emits
/// them; fair-serve's `/stream` writes one per line.
#[derive(Clone, Debug, PartialEq)]
pub struct ProgressUpdate {
    /// Scenario name of the reporting `estimate()` call.
    pub scenario: String,
    /// Trials that call was asked for.
    pub requested: usize,
    /// Trials tallied so far.
    pub trials: usize,
    /// Running mean payoff.
    pub mean: f64,
    /// Running 95% confidence half-width.
    pub ci: f64,
    /// Whether this is the call's final frame (converged or exhausted).
    pub done: bool,
}

impl ProgressUpdate {
    /// Renders the frame as one canonical object (a `/stream` line).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("scenario", Json::str(&self.scenario))
            .field("requested", Json::num(self.requested as f64))
            .field("trials", Json::num(self.trials as f64))
            .field("mean", Json::Num(self.mean))
            .field("ci", Json::Num(self.ci))
            .field("done", Json::Bool(self.done))
            .canonical()
    }
}

/// A complete record of one experiment execution.
#[derive(Clone, Debug, PartialEq)]
pub struct ExpRecord {
    /// Experiment id (e.g. `"e5"`).
    pub id: String,
    /// Monte-Carlo trials per estimate.
    pub trials: usize,
    /// Base seed of the run.
    pub seed: u64,
    /// Worker count the run used.
    pub jobs: usize,
    /// Wall-clock time of the whole experiment, milliseconds.
    pub wall_ms: f64,
    /// Per-trial latency distribution in nanoseconds (when metrics were
    /// collected and at least one trial ran).
    pub latency: Option<QuantileSummary>,
    /// Per-protocol trace metrics (rounds/messages/bytes/aborts per
    /// scenario), drained from `fair_trace::metrics`. Deterministic —
    /// bit-identical for any worker count — unlike the wall-clock
    /// `latency` block.
    pub protocols: Vec<ProtoSummary>,
    /// Adaptive-stopper accounting when the run used `--epsilon`
    /// (trials-used vs trials-requested); `None` for fixed-budget runs.
    pub adaptive: Option<AdaptiveSummary>,
    /// The full measurement table.
    pub report: ReportRecord,
}

/// The deterministic **result document** of one estimation point: the
/// canonicalized `(experiment, trials, seed, pass, reports)` subset of a
/// record — everything a run produces that is a pure function of its
/// inputs, with the volatile observability fields (wall clock, latency)
/// excluded. This is the single source of truth shared by the batch
/// writers and `fair-serve`: for a fixed point the served body is
/// byte-identical to the batch record's result, cold or cached. The
/// report sits in a one-element `reports` array.
pub fn result_json(id: &str, trials: usize, seed: u64, report: &ReportRecord) -> Json {
    Json::obj()
        .field("experiment", Json::str(id))
        .field("trials", Json::num(trials as f64))
        .field("seed", Json::num(seed as f64))
        .field("pass", Json::Bool(report.pass()))
        .field("reports", Json::Arr(vec![report_json(report)]))
        .canonical()
}

fn report_json(rep: &ReportRecord) -> Json {
    Json::obj()
        .field("id", Json::str(&rep.id))
        .field("title", Json::str(&rep.title))
        .field("pass", Json::Bool(rep.pass()))
        .field(
            "rows",
            Json::Arr(
                rep.rows
                    .iter()
                    .map(|row| {
                        Json::obj()
                            .field("label", Json::str(&row.label))
                            .field("paper", row.paper.map_or(Json::Null, Json::Num))
                            .field("measured", Json::Num(row.measured))
                            .field("ci", Json::Num(row.ci))
                            .field("pass", Json::Bool(row.pass))
                    })
                    .collect(),
            ),
        )
}

impl ExpRecord {
    /// The deterministic result document for this record's point — see
    /// [`result_json`].
    pub fn result_json(&self) -> Json {
        result_json(&self.id, self.trials, self.seed, &self.report)
    }

    /// The full per-experiment JSON document: the summary plus seed,
    /// per-protocol metrics and the full tables.
    pub fn to_json(&self) -> Json {
        let mut doc = self
            .summary_fields()
            .field("seed", Json::num(self.seed as f64));
        if !self.protocols.is_empty() {
            doc = doc.field(
                "protocols",
                Json::Arr(self.protocols.iter().map(proto_json).collect()),
            );
        }
        doc.field("reports", Json::Arr(vec![report_json(&self.report)]))
    }

    /// The summary object embedded in the aggregate suite record:
    /// id, trial count, wall-clock, latency, pass/fail, and adaptive
    /// accounting when present.
    pub fn summary_fields(&self) -> Json {
        let mut doc = Json::obj()
            .field("experiment", Json::str(&self.id))
            .field("trials", Json::num(self.trials as f64))
            .field("jobs", Json::num(self.jobs as f64))
            .field("wall_clock_ms", Json::Num(round3(self.wall_ms)))
            .field("pass", Json::Bool(self.report.pass()));
        if let Some(lat) = &self.latency {
            doc = doc.field(
                "trial_latency_ns",
                Json::obj()
                    .field("count", Json::num(lat.count as f64))
                    .field("min", Json::num(lat.min as f64))
                    .field("p50", Json::num(lat.p50 as f64))
                    .field("p99", Json::num(lat.p99 as f64))
                    .field("max", Json::num(lat.max as f64)),
            );
        }
        if let Some(adaptive) = &self.adaptive {
            doc = doc.field("adaptive", adaptive.to_json());
        }
        doc
    }

    /// Writes `dir/<id>.json` (creating `dir`), returning the path.
    /// Rendered canonically (sorted keys), so reruns diff content-only;
    /// written atomically (temp + rename), so a killed run never leaves a
    /// truncated record.
    pub fn write(&self, dir: &std::path::Path) -> std::io::Result<std::path::PathBuf> {
        let path = dir.join(format!("{}.json", self.id));
        let body = self.to_json().canonical().render_pretty() + "\n";
        fair_tiles::atomic_write(&path, body.as_bytes())?;
        Ok(path)
    }
}

/// The aggregate record of a whole `reproduce` invocation — the repo-root
/// `BENCH_reproduce.json` tracking the perf trajectory.
#[derive(Clone, Debug)]
pub struct SuiteRecord {
    /// Trials per estimate for the run.
    pub trials: usize,
    /// Worker count.
    pub jobs: usize,
    /// Base seed.
    pub seed: u64,
    /// End-to-end wall clock, milliseconds.
    pub total_wall_ms: f64,
    /// Whether every experiment passed.
    pub pass: bool,
    /// Per-experiment results.
    pub experiments: Vec<ExpRecord>,
}

impl SuiteRecord {
    /// The aggregate JSON document (per-experiment summaries, not full
    /// tables — those live in `target/simlab/<exp>.json`).
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("suite", Json::str("reproduce"))
            .field("trials", Json::num(self.trials as f64))
            .field("jobs", Json::num(self.jobs as f64))
            .field("seed", Json::num(self.seed as f64))
            .field("total_wall_clock_ms", Json::Num(round3(self.total_wall_ms)))
            .field("pass", Json::Bool(self.pass))
            .field(
                "experiments",
                Json::Arr(
                    self.experiments
                        .iter()
                        .map(ExpRecord::summary_fields)
                        .collect(),
                ),
            )
    }

    /// Writes the aggregate record to `path`. Rendered canonically
    /// (sorted keys), so reruns diff content-only; written atomically
    /// (temp + rename), so a killed run never leaves a truncated record.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let body = self.to_json().canonical().render_pretty() + "\n";
        fair_tiles::atomic_write(path, body.as_bytes())
    }
}

fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// Renders one quantile summary block (shared by records and the serve
/// `/metrics` export, so both surfaces agree on the field names).
pub fn quantile_json(q: &QuantileSummary) -> Json {
    Json::obj()
        .field("total", Json::num(q.total as f64))
        .field("min", Json::num(q.min as f64))
        .field("p50", Json::num(q.p50 as f64))
        .field("p99", Json::num(q.p99 as f64))
        .field("max", Json::num(q.max as f64))
}

/// Renders one per-protocol metrics summary (shared by records and the
/// serve `/metrics` export).
pub fn proto_json(p: &ProtoSummary) -> Json {
    Json::obj()
        .field("name", Json::str(&p.name))
        .field("trials", Json::num(p.trials as f64))
        .field("corruptions", Json::num(p.corruptions as f64))
        .field("func_calls", Json::num(p.func_calls as f64))
        .field("aborts", Json::num(p.aborts as f64))
        .field("rounds", quantile_json(&p.rounds))
        .field("msgs", quantile_json(&p.msgs))
        .field("bytes", quantile_json(&p.bytes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample() -> ExpRecord {
        ExpRecord {
            id: "e1".into(),
            trials: 100,
            seed: 0xfa1e,
            jobs: 4,
            wall_ms: 12.3456,
            latency: Some(QuantileSummary {
                count: 100,
                total: 2_500,
                min: 10,
                p50: 20,
                p99: 90,
                max: 95,
            }),
            protocols: vec![ProtoSummary {
                name: "Π1/honest".into(),
                trials: 100,
                corruptions: 0,
                func_calls: 100,
                aborts: 3,
                rounds: QuantileSummary {
                    count: 100,
                    total: 500,
                    min: 5,
                    p50: 5,
                    p99: 5,
                    max: 5,
                },
                msgs: QuantileSummary::default(),
                bytes: QuantileSummary::default(),
            }],
            adaptive: None,
            report: ReportRecord {
                id: "E1".into(),
                title: "contract signing".into(),
                rows: vec![RowRecord {
                    label: "Π1 sup-utility".into(),
                    paper: Some(1.0),
                    measured: 0.99,
                    ci: 0.01,
                    pass: true,
                }],
            },
        }
    }

    #[test]
    fn vs_paper_passes_within_tolerance() {
        assert!(RowRecord::vs_paper("x", 0.75, 0.751, 0.002, 0.0).pass);
        assert!(!RowRecord::vs_paper("x", 0.75, 0.80, 0.002, 0.0).pass);
        assert!(RowRecord::vs_paper("x", 0.75, 0.80, 0.002, 0.06).pass);
    }

    #[test]
    fn upper_bound_only_fails_upward() {
        assert!(RowRecord::upper_bound("x", 0.5, 0.1, 0.0, 0.0).pass);
        assert!(RowRecord::upper_bound("x", 0.5, 0.5, 0.0, 0.0).pass);
        assert!(!RowRecord::upper_bound("x", 0.5, 0.6, 0.0, 0.01).pass);
    }

    #[test]
    fn report_renders_all_rows() {
        let rep = ReportRecord {
            id: "E0".into(),
            title: "smoke".into(),
            rows: vec![
                RowRecord::vs_paper("a", 1.0, 1.0, 0.0, 0.0),
                RowRecord::check("b", 0.5, true),
            ],
        };
        let s = rep.render();
        assert!(s.contains("E0"));
        assert!(s.contains('a'));
        assert!(s.contains('b'));
        assert!(s.contains('✓'));
        assert!(rep.pass());
    }

    #[test]
    fn experiment_record_round_trips() {
        let doc = sample().to_json().render_pretty();
        let back = json::parse(&doc).unwrap();
        assert_eq!(
            json::get(&back, "experiment"),
            Some(&Json::Str("e1".into()))
        );
        assert_eq!(json::get(&back, "trials"), Some(&Json::Num(100.0)));
        assert_eq!(json::get(&back, "pass"), Some(&Json::Bool(true)));
        let lat = json::get(&back, "trial_latency_ns").unwrap();
        assert_eq!(json::get(lat, "p99"), Some(&Json::Num(90.0)));
        let protos = match json::get(&back, "protocols") {
            Some(Json::Arr(p)) => p,
            other => panic!("bad protocols {other:?}"),
        };
        assert_eq!(
            json::get(&protos[0], "name"),
            Some(&Json::Str("Π1/honest".into()))
        );
        assert_eq!(json::get(&protos[0], "aborts"), Some(&Json::Num(3.0)));
        let rounds = json::get(&protos[0], "rounds").unwrap();
        assert_eq!(json::get(rounds, "total"), Some(&Json::Num(500.0)));
        let reports = match json::get(&back, "reports") {
            Some(Json::Arr(r)) => r,
            other => panic!("bad reports {other:?}"),
        };
        let rows = match json::get(&reports[0], "rows") {
            Some(Json::Arr(r)) => r,
            other => panic!("bad rows {other:?}"),
        };
        assert_eq!(json::get(&rows[0], "measured"), Some(&Json::Num(0.99)));
    }

    #[test]
    fn suite_record_has_per_experiment_summaries() {
        let suite = SuiteRecord {
            trials: 100,
            jobs: 4,
            seed: 0xfa1e,
            total_wall_ms: 99.5,
            pass: true,
            experiments: vec![sample()],
        };
        let back = json::parse(&suite.to_json().render()).unwrap();
        assert_eq!(
            json::get(&back, "suite"),
            Some(&Json::Str("reproduce".into()))
        );
        let exps = match json::get(&back, "experiments") {
            Some(Json::Arr(e)) => e,
            other => panic!("bad experiments {other:?}"),
        };
        assert_eq!(
            json::get(&exps[0], "experiment"),
            Some(&Json::Str("e1".into()))
        );
        assert!(json::get(&exps[0], "wall_clock_ms").is_some());
        assert!(json::get(&exps[0], "pass").is_some());
        // Full tables and per-protocol metrics only in the
        // per-experiment record.
        assert!(json::get(&exps[0], "reports").is_none());
        assert!(json::get(&exps[0], "protocols").is_none());
    }

    #[test]
    fn write_creates_directory_and_file() {
        let dir = std::env::temp_dir().join(format!("simlab-test-{}", std::process::id()));
        let path = sample().write(&dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(json::parse(&text).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persisted_records_have_sorted_keys() {
        let dir = std::env::temp_dir().join(format!("simlab-canon-{}", std::process::id()));
        let path = sample().write(&dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // Every object in the persisted document has sorted keys.
        fn assert_sorted(v: &Json, text: &str) {
            match v {
                Json::Obj(fields) => {
                    assert!(
                        fields.windows(2).all(|w| w[0].0 <= w[1].0),
                        "unsorted object in: {text}"
                    );
                    fields.iter().for_each(|(_, v)| assert_sorted(v, text));
                }
                Json::Arr(items) => items.iter().for_each(|v| assert_sorted(v, text)),
                _ => {}
            }
        }
        assert_sorted(&json::parse(&text).unwrap(), &text);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn adaptive_block_appears_only_when_present() {
        let mut record = sample();
        assert!(json::get(
            &json::parse(&record.to_json().render()).unwrap(),
            "adaptive"
        )
        .is_none());
        record.adaptive = Some(AdaptiveSummary {
            epsilon: 0.05,
            estimates: 3,
            early_stops: 2,
            trials_requested: 3000,
            trials_used: 1280,
        });
        let back = json::parse(&record.to_json().render()).unwrap();
        let adaptive = json::get(&back, "adaptive").expect("adaptive block");
        assert_eq!(json::get(adaptive, "epsilon"), Some(&Json::Num(0.05)));
        assert_eq!(json::get(adaptive, "trials_used"), Some(&Json::Num(1280.0)));
        assert_eq!(
            json::get(adaptive, "trials_requested"),
            Some(&Json::Num(3000.0))
        );
        assert_eq!(json::get(adaptive, "early_stops"), Some(&Json::Num(2.0)));
        // The deterministic result document stays adaptive-free: its bytes
        // identify the estimation point, not the budget that reached it.
        assert!(json::get(
            &json::parse(&record.result_json().render()).unwrap(),
            "adaptive"
        )
        .is_none());
    }

    #[test]
    fn result_json_is_the_deterministic_subset() {
        let record = sample();
        let doc = record.result_json();
        let back = json::parse(&doc.render_pretty()).unwrap();
        // Volatile observability fields are excluded...
        assert!(json::get(&back, "wall_clock_ms").is_none());
        assert!(json::get(&back, "trial_latency_ns").is_none());
        assert!(json::get(&back, "jobs").is_none());
        // ...the point identification and measurements are present.
        assert_eq!(
            json::get(&back, "experiment"),
            Some(&Json::Str("e1".into()))
        );
        assert_eq!(json::get(&back, "trials"), Some(&Json::Num(100.0)));
        assert_eq!(json::get(&back, "seed"), Some(&Json::Num(0xfa1e as f64)));
        assert_eq!(json::get(&back, "pass"), Some(&Json::Bool(true)));
        assert!(json::get(&back, "reports").is_some());
        // Already canonical: rendering is stable under canonicalization.
        assert_eq!(doc.clone().canonical().render_pretty(), doc.render_pretty());
        // The free function and the method agree.
        assert_eq!(
            result_json(&record.id, record.trials, record.seed, &record.report),
            doc
        );
    }
}
