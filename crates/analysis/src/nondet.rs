//! Pass 3: the nondeterminism lint — a configurable source scan for
//! nondeterminism escape hatches.
//!
//! Generalizes the simulator's original `no_wall_clock.rs` test: the
//! deterministic simulation contract ("bit-for-bit replay by seed") only
//! holds if no code path reads a wall clock or an OS entropy source, and
//! the reproducibility of every benchmark table only holds if no workload
//! draws from an unseeded RNG. Rather than one hard-coded test per crate,
//! this pass scans any set of sources against a configurable rule set with
//! a per-file allowlist, and is run by `experiments lint` over the whole
//! workspace on every CI run.
//!
//! Patterns are assembled from fragments at runtime so the lint's own
//! source (and this documentation) never matches itself.

use std::path::Path;

/// One source file to scan: a display label (what findings and the
/// allowlist refer to) plus its text.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Display label.
    pub label: String,
    /// The file's contents.
    pub text: String,
}

/// One forbidden-pattern rule.
#[derive(Debug, Clone)]
pub struct NondetRule {
    /// Substring that must not appear in a scanned line.
    pub pattern: String,
    /// Why the pattern is forbidden (shown in findings).
    pub reason: String,
}

impl NondetRule {
    /// Creates a rule from pattern fragments (joined) and a reason.
    pub fn new(fragments: &[&str], reason: &str) -> Self {
        NondetRule {
            pattern: fragments.concat(),
            reason: reason.to_string(),
        }
    }
}

/// A rule set plus an allowlist of file-label substrings to skip.
#[derive(Debug, Clone, Default)]
pub struct NondetConfig {
    /// The forbidden patterns.
    pub rules: Vec<NondetRule>,
    /// Findings in files whose label contains any of these substrings are
    /// suppressed.
    pub allow: Vec<String>,
}

impl NondetConfig {
    /// The rule set for **deterministic-simulation** code (`crates/sim`):
    /// no wall clocks, no OS entropy. Any hit breaks the bit-for-bit
    /// replay-by-seed contract.
    pub fn deterministic_sim() -> Self {
        NondetConfig {
            rules: vec![
                NondetRule::new(
                    &["Instant", "::", "now"],
                    "wall-clock read in deterministic code",
                ),
                NondetRule::new(&["System", "Time"], "wall-clock read in deterministic code"),
                NondetRule::new(
                    &["std::time::", "Instant"],
                    "wall-clock type in deterministic code",
                ),
                NondetRule::new(
                    &["UNIX_", "EPOCH"],
                    "wall-clock epoch in deterministic code",
                ),
                NondetRule::new(&["thread_", "rng"], "unseeded RNG in deterministic code"),
                NondetRule::new(
                    &["from_", "entropy"],
                    "OS entropy source in deterministic code",
                ),
                NondetRule::new(&["rand::", "random"], "unseeded RNG in deterministic code"),
            ],
            allow: Vec::new(),
        }
    }

    /// The workspace-wide rule set: unseeded RNG only (wall clocks are
    /// legitimate outside the simulator — latency histograms, benches).
    /// Every randomized workload must derive from an explicit seed, or no
    /// benchmark table is reproducible.
    pub fn workspace() -> Self {
        NondetConfig {
            rules: vec![
                NondetRule::new(&["thread_", "rng"], "unseeded RNG breaks reproduce-by-seed"),
                NondetRule::new(&["from_", "entropy"], "OS entropy breaks reproduce-by-seed"),
                NondetRule::new(
                    &["rand::", "random"],
                    "unseeded RNG breaks reproduce-by-seed",
                ),
            ],
            allow: Vec::new(),
        }
    }

    /// Adds an allowlist entry (file-label substring).
    pub fn allowing(mut self, label_substring: &str) -> Self {
        self.allow.push(label_substring.to_string());
        self
    }
}

/// One forbidden-pattern hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NondetFinding {
    /// Label of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// The pattern that matched.
    pub pattern: String,
    /// The rule's reason.
    pub reason: String,
}

impl std::fmt::Display for NondetFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: forbidden pattern `{}` ({})",
            self.file, self.line, self.pattern, self.reason
        )
    }
}

/// Scans `files` against `config`, returning every non-allowlisted hit.
pub fn scan_nondeterminism(files: &[SourceFile], config: &NondetConfig) -> Vec<NondetFinding> {
    let mut findings = Vec::new();
    for file in files {
        if config.allow.iter().any(|a| file.label.contains(a.as_str())) {
            continue;
        }
        for (i, line) in file.text.lines().enumerate() {
            for rule in &config.rules {
                if line.contains(rule.pattern.as_str()) {
                    findings.push(NondetFinding {
                        file: file.label.clone(),
                        line: i + 1,
                        pattern: rule.pattern.clone(),
                        reason: rule.reason.clone(),
                    });
                }
            }
        }
    }
    findings
}

/// Recursively reads every `*.rs` file under `root`, labelling each with
/// `label_prefix` plus its path relative to `root` — the labels the
/// allowlist matches against.
pub fn read_sources_recursive(root: &Path, label_prefix: &str) -> std::io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<_> = std::fs::read_dir(&dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        entries.sort();
        for path in entries {
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|x| x == "rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .display()
                    .to_string();
                out.push(SourceFile {
                    label: format!("{label_prefix}{rel}"),
                    text: std::fs::read_to_string(&path)?,
                });
            }
        }
    }
    out.sort_by(|a, b| a.label.cmp(&b.label));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(label: &str, text: &str) -> SourceFile {
        SourceFile {
            label: label.to_string(),
            text: text.to_string(),
        }
    }

    #[test]
    fn clean_source_passes() {
        let files = [file("sim/a.rs", "let t = self.clock.now_logical();\n")];
        assert!(scan_nondeterminism(&files, &NondetConfig::deterministic_sim()).is_empty());
    }

    #[test]
    fn wall_clock_flagged_in_sim_rules() {
        let text = format!("let t = {}{}();\n", "Instant::", "now");
        let files = [file("sim/bad.rs", &text)];
        let findings = scan_nondeterminism(&files, &NondetConfig::deterministic_sim());
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 1);
        assert!(findings[0].to_string().contains("sim/bad.rs:1"));
    }

    #[test]
    fn unseeded_rng_flagged_by_workspace_rules() {
        let text = format!("let mut r = rand::{}();\n", "random::<u64>");
        let files = [file("bench/w.rs", &text)];
        let findings = scan_nondeterminism(&files, &NondetConfig::workspace());
        assert_eq!(findings.len(), 1);
        // Wall clocks are fine outside the simulator.
        let timed = format!("let t = {}{}();\n", "Instant::", "now");
        assert!(
            scan_nondeterminism(&[file("core/t.rs", &timed)], &NondetConfig::workspace())
                .is_empty()
        );
    }

    #[test]
    fn allowlist_suppresses_by_label() {
        let text = format!("let t = {}{}();\n", "Instant::", "now");
        let files = [file("sim/timing_shim.rs", &text)];
        let cfg = NondetConfig::deterministic_sim().allowing("timing_shim");
        assert!(scan_nondeterminism(&files, &cfg).is_empty());
    }
}
