//! Machine-readable (`ANALYSIS.json`) and human-readable report emission.
//!
//! JSON is hand-rolled: the workspace vendors no serde, and the schema is
//! small and flat. Strings are escaped per RFC 8259 minimal rules.

use crate::corpus::ModelSelfCheck;
use crate::crosscheck::RealThreadReport;
use crate::dpor::ModelScenarioResult;
use crate::lints::Violation;

/// Escape a string for embedding in a JSON document.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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

/// A JSON array of escaped strings.
fn json_strings(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|e| format!("\"{}\"", esc(e))).collect();
    format!("[{}]", quoted.join(", "))
}

/// The complete analyzer outcome, ready for serialization.
pub struct Analysis {
    /// Files the lint pass scanned.
    pub files_scanned: usize,
    /// Lint findings on the real tree (must be empty for a green run).
    pub violations: Vec<Violation>,
    /// Self-check: findings on the bad-fixture corpus (must be non-empty —
    /// proves the lints can still fire).
    pub fixture_violations: usize,
    /// Fixture files exercised by the self-check.
    pub fixture_files: usize,
    /// Model-checker leg: DPOR exploration results, the real-thread
    /// cross-check and the implanted-bug self-check.
    pub model: ModelReport,
}

/// The model-checker leg's outcome.
pub struct ModelReport {
    /// Per-scenario DPOR exploration results.
    pub scenarios: Vec<ModelScenarioResult>,
    /// Implanted-bug self-check verdict.
    pub self_check: ModelSelfCheck,
    /// The deterministic rows, run once over the production transport on
    /// OS threads and held bitwise to `scenarios`.
    pub real_thread: RealThreadReport,
}

impl ModelReport {
    /// Total interleavings explored across scenarios.
    pub fn explored_total(&self) -> usize {
        self.scenarios.iter().map(|s| s.explored).sum()
    }

    /// Total branches DPOR pruned across scenarios.
    pub fn pruned_total(&self) -> usize {
        self.scenarios.iter().map(|s| s.pruned).sum()
    }

    /// Happens-before races found on real code (must be 0).
    pub fn races_total(&self) -> usize {
        self.scenarios.iter().map(|s| s.races).sum()
    }

    /// Wait-for cycles found on real code (must be 0).
    pub fn cycles_total(&self) -> usize {
        self.scenarios.iter().map(|s| s.cycles).sum()
    }

    /// Lost updates found on real code (must be 0).
    pub fn lost_updates_total(&self) -> usize {
        self.scenarios.iter().map(|s| s.lost_updates).sum()
    }

    /// The sleep-set reduction actually pruned something — a dead DPOR
    /// layer would silently degrade to naive enumeration.
    pub fn reduction_nonzero(&self) -> bool {
        self.pruned_total() > 0
    }

    /// Every scenario clean and exhaustive (or declared bounded), the
    /// reduction alive, every implanted bug caught, and the production
    /// transport bitwise on the model's results.
    pub fn ok(&self) -> bool {
        self.scenarios.iter().all(ModelScenarioResult::ok)
            && self.reduction_nonzero()
            && self.self_check.ok()
            && self.real_thread.ok()
    }
}

impl Analysis {
    /// Overall verdict: clean tree, live lints, clean model leg.
    pub fn ok(&self) -> bool {
        self.violations.is_empty() && self.fixture_violations > 0 && self.model.ok()
    }

    /// Serialize to the `ANALYSIS.json` document.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n");
        s.push_str(&format!("  \"ok\": {},\n", self.ok()));
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str("  \"lint_violations\": [\n");
        for (i, v) in self.violations.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"lint\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}{}\n",
                esc(v.lint),
                esc(&v.file),
                v.line,
                esc(&v.message),
                if i + 1 < self.violations.len() {
                    ","
                } else {
                    ""
                }
            ));
        }
        s.push_str("  ],\n");
        s.push_str(&format!(
            "  \"fixture_selfcheck\": {{\"files\": {}, \"violations\": {}, \"fired\": {}}},\n",
            self.fixture_files,
            self.fixture_violations,
            self.fixture_violations > 0
        ));
        let m = &self.model;
        s.push_str("  \"model_scenarios\": [\n");
        for (i, sc) in m.scenarios.iter().enumerate() {
            // Evidence rides along only on a row that has some.
            let mut evidence = String::new();
            if let Some(w) = &sc.witness {
                evidence.push_str(&format!(", \"witness\": \"{}\"", esc(w)));
            }
            if !sc.errors.is_empty() {
                evidence.push_str(&format!(", \"errors\": {}", json_strings(&sc.errors)));
            }
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"p\": {}, \"explored\": {}, \"pruned\": {}, \
                 \"distinct_results\": {}, \"fingerprint\": \"{:016x}\", \"races\": {}, \
                 \"lost_updates\": {}, \"cycles\": {}, \"exhausted\": {}, \"bounded\": {}{}, \
                 \"ok\": {}}}{}\n",
                esc(&sc.name),
                sc.p,
                sc.explored,
                sc.pruned,
                sc.distinct_results,
                sc.fingerprint,
                sc.races,
                sc.lost_updates,
                sc.cycles,
                sc.exhausted,
                sc.bounded,
                evidence,
                sc.ok(),
                if i + 1 < m.scenarios.len() { "," } else { "" }
            ));
        }
        s.push_str("  ],\n");
        let rt = &m.real_thread;
        let details = if rt.mismatches.is_empty() {
            String::new()
        } else {
            format!(", \"details\": {}", json_strings(&rt.mismatches))
        };
        s.push_str(&format!(
            "  \"real_thread\": {{\"rows\": {}, \"mismatches\": {}{details}}},\n",
            rt.rows,
            rt.mismatches.len()
        ));
        s.push_str(&format!(
            "  \"model\": {{\"explored_total\": {}, \
             \"pruned_total\": {}, \"races_total\": {}, \"cycles_total\": {}, \
             \"lost_updates_total\": {}, \"reduction_nonzero\": {}, \
             \"selfcheck_ok\": {}, \"bad_reduce_witness\": \"{}\", \
             \"cycle_report\": \"{}\", \"ok\": {}}}\n",
            m.explored_total(),
            m.pruned_total(),
            m.races_total(),
            m.cycles_total(),
            m.lost_updates_total(),
            m.reduction_nonzero(),
            m.self_check.ok(),
            esc(&m.self_check.bad_reduce_witness),
            esc(&m.self_check.cycle_report),
            m.ok()
        ));
        s.push_str("}\n");
        s
    }

    /// Human-readable summary for the terminal / bench report.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str("== sasgd-analysis ==\n\n");
        s.push_str(&format!(
            "lint pass: {} files scanned, {} violation(s)\n",
            self.files_scanned,
            self.violations.len()
        ));
        for v in &self.violations {
            s.push_str(&format!(
                "  [{}] {}:{} {}\n",
                v.lint, v.file, v.line, v.message
            ));
        }
        s.push_str(&format!(
            "lint self-check: {} fixture file(s), {} violation(s) fired ({})\n\n",
            self.fixture_files,
            self.fixture_violations,
            if self.fixture_violations > 0 {
                "ok"
            } else {
                "FAIL: lints are dead"
            }
        ));
        let m = &self.model;
        s.push_str("model checker (DPOR over ModelTransport):\n");
        for sc in &m.scenarios {
            s.push_str(&format!(
                "  {:<36} p={} explored={:>5} pruned={:>5} distinct={} races={} lost={} \
                 cycles={} {}  {}\n",
                sc.name,
                sc.p,
                sc.explored,
                sc.pruned,
                sc.distinct_results,
                sc.races,
                sc.lost_updates,
                sc.cycles,
                if sc.bounded {
                    "bounded"
                } else if sc.exhausted {
                    "exhaustive"
                } else {
                    "TRUNCATED"
                },
                if sc.ok() { "ok" } else { "FAIL" }
            ));
            for r in &sc.reports {
                s.push_str(&format!("      {r}\n"));
            }
            if let Some(w) = &sc.witness {
                s.push_str(&format!("      witness: {w}\n"));
            }
            for e in &sc.errors {
                s.push_str(&format!("      error: {e}\n"));
            }
        }
        let c = &m.self_check;
        s.push_str(&format!(
            "  model self-check: races={} (witness {}, replay {}), lost={}, rmw clean={}, \
             cycle caught={} ({})\n",
            c.bad_reduce_races,
            if c.bad_reduce_witness.is_empty() {
                "MISSING"
            } else {
                &c.bad_reduce_witness
            },
            if c.bad_reduce_replay_confirms {
                "confirms"
            } else {
                "FAILS"
            },
            c.lost_updates_caught,
            c.rmw_clean,
            c.cycle_caught,
            if c.ok() { "ok" } else { "FAIL" }
        ));
        s.push_str(&format!(
            "  model totals: explored={} pruned={} reduction_nonzero={}\n",
            m.explored_total(),
            m.pruned_total(),
            m.reduction_nonzero()
        ));
        let rt = &m.real_thread;
        s.push_str(&format!(
            "  real-thread cross-check: {} row(s) over CommWorld, {} mismatch(es) ({})\n",
            rt.rows,
            rt.mismatches.len(),
            if rt.ok() { "ok" } else { "FAIL" }
        ));
        for line in &rt.mismatches {
            s.push_str(&format!("      {line}\n"));
        }
        s.push_str(&format!(
            "\noverall: {}\n",
            if self.ok() { "OK" } else { "FAIL" }
        ));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_specials() {
        assert_eq!(esc("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    /// A clean one-row model leg; tests break one piece at a time.
    fn clean_model() -> ModelReport {
        ModelReport {
            scenarios: vec![ModelScenarioResult {
                name: "row".into(),
                p: 2,
                explored: 1,
                pruned: 1,
                distinct_results: 1,
                fingerprint: 0xfeed,
                races: 0,
                lost_updates: 0,
                cycles: 0,
                exhausted: true,
                bounded: false,
                witness: None,
                reports: Vec::new(),
                errors: Vec::new(),
            }],
            self_check: ModelSelfCheck {
                bad_reduce_races: 1,
                bad_reduce_witness: "1f.2f.0d0".into(),
                bad_reduce_replay_confirms: true,
                lost_updates_caught: 1,
                rmw_clean: true,
                cycle_caught: true,
                cycle_report: "rank 0 blocked on (src 1, tag 99)".into(),
            },
            real_thread: RealThreadReport {
                rows: 1,
                mismatches: Vec::new(),
            },
        }
    }

    fn analysis(model: ModelReport) -> Analysis {
        Analysis {
            files_scanned: 3,
            violations: Vec::new(),
            fixture_violations: 5,
            fixture_files: 2,
            model,
        }
    }

    #[test]
    fn lint_violations_fail_the_verdict_and_are_escaped() {
        let mut a = analysis(clean_model());
        assert!(a.ok());
        let j = a.to_json();
        assert!(j.contains("\"real_thread\": {\"rows\": 1, \"mismatches\": 0}"));
        assert!(j.contains("\"fingerprint\": \"000000000000feed\""));
        assert!(!j.contains("\"witness\"") && !j.contains("\"errors\""));
        a.violations.push(Violation {
            lint: "map-iter",
            file: "crates/x.rs".into(),
            line: 7,
            message: "no \"maps\"".into(),
        });
        let j = a.to_json();
        assert!(j.contains("\"files_scanned\": 3"));
        assert!(j.contains("no \\\"maps\\\""));
        assert!(j.starts_with("{\n  \"ok\": false")); // violations present → not ok
    }

    /// There is no way to build an `Analysis` without a model leg, and a
    /// model leg that is not ok fails the whole verdict — whichever of
    /// its parts broke.
    #[test]
    fn a_failing_model_leg_fails_the_verdict() {
        let mut row_failed = clean_model();
        row_failed.scenarios[0].races = 1;
        let mut truncated = clean_model();
        truncated.scenarios[0].exhausted = false;
        let mut no_pruning = clean_model();
        no_pruning.scenarios[0].pruned = 0;
        let mut dead_selfcheck = clean_model();
        dead_selfcheck.self_check.cycle_caught = false;
        let mut mismatch = clean_model();
        mismatch.real_thread.mismatches.push("row: differs".into());
        let mut nothing_ran = clean_model();
        nothing_ran.real_thread.rows = 0;
        for broken in [
            row_failed,
            truncated,
            no_pruning,
            dead_selfcheck,
            mismatch,
            nothing_ran,
        ] {
            assert!(!broken.ok());
            let a = analysis(broken);
            assert!(!a.ok());
            assert!(a.to_text().ends_with("overall: FAIL\n"));
        }
    }

    /// A failing row's evidence reaches the artifact, escaped.
    #[test]
    fn failing_row_serialises_its_witness_and_errors() {
        let mut m = clean_model();
        m.scenarios[0].races = 2;
        m.scenarios[0].witness = Some("1f.2f.0d0".into());
        m.scenarios[0].errors = vec!["rank 1: got \"x\"\nthen died".into()];
        m.real_thread.mismatches = vec!["row: real \"a\" vs model".into()];
        let j = analysis(m).to_json();
        assert!(j.contains("\"witness\": \"1f.2f.0d0\""), "{j}");
        assert!(
            j.contains(r#""errors": ["rank 1: got \"x\"\nthen died"]"#),
            "{j}"
        );
        assert!(
            j.contains(r#""mismatches": 1, "details": ["row: real \"a\" vs model"]"#),
            "{j}"
        );
        // Still one line per row: the newline inside the error is escaped.
        assert_eq!(
            j.lines()
                .filter(|l| l.contains("\"name\": \"row\""))
                .count(),
            1
        );
        assert!(j.contains("\"ok\": false"));
    }
}
