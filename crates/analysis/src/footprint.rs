//! Pass 5: the dependency-footprint extractor — static read/write-set
//! analysis of transaction programs.
//!
//! Dependency-logged recovery (Yao et al., the ROADMAP's parallel-recovery
//! item) replays a crashed log in parallel by consulting each transaction's
//! *dependency footprint*: which objects it read and which it wrote. This
//! pass computes the static over-approximation of those footprints for the
//! workload programs in `atomicity-bench`: every `op("name", …)`
//! invocation site is attributed to its enclosing function and classified
//! read/write through the sequential specifications' own
//! [`atomicity_spec::SequentialSpec::is_read_only`] — the same source of
//! truth the synthesis pass derives conflict tables from.
//!
//! The JSON rendering of [`FootprintReport`] is the seed format for the
//! per-transaction dependency records the future recovery subsystem will
//! log at runtime.

use crate::lockorder::{fn_definition_name, SourceFile};
use atomicity_spec::specs::{
    BankAccountSpec, BoundedBufferSpec, CounterSpec, EscrowCounterSpec, FifoQueueSpec, IntSetSpec,
    KvMapSpec, RegisterSpec, SemiqueueSpec,
};
use atomicity_spec::{op, SequentialSpec};
use serde::Serialize;
use std::collections::BTreeMap;

/// Whether an operation reads or mutates its object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum OpClass {
    /// Read-only per the owning specification.
    Read,
    /// Mutating per the owning specification.
    Write,
    /// Not in any shipped specification's vocabulary.
    Unknown,
}

/// Classifies an operation name through the shipped specifications.
///
/// Every specification's `is_read_only` branches on the name alone, so a
/// nullary probe suffices. Names in no specification's vocabulary are
/// [`OpClass::Unknown`] — the extractor surfaces them rather than guessing.
pub fn classify_op(name: &str) -> OpClass {
    fn probe<S: SequentialSpec>(spec: &S, vocab: &[&str], name: &str) -> Option<OpClass> {
        if !vocab.contains(&name) {
            return None;
        }
        let o = op(name, [] as [i64; 0]);
        Some(if spec.is_read_only(&o) {
            OpClass::Read
        } else {
            OpClass::Write
        })
    }
    let checks: [Option<OpClass>; 9] = [
        probe(
            &BankAccountSpec::new(),
            &["deposit", "withdraw", "balance"],
            name,
        ),
        probe(
            &FifoQueueSpec::new(),
            &["enqueue", "dequeue", "front", "len"],
            name,
        ),
        probe(
            &IntSetSpec::new(),
            &["insert", "delete", "member", "size"],
            name,
        ),
        probe(&SemiqueueSpec::new(), &["enq", "deq", "count"], name),
        probe(
            &KvMapSpec::new(),
            &["put", "get", "remove", "add", "adjust", "sum", "size"],
            name,
        ),
        probe(
            &EscrowCounterSpec::new(),
            &["credit", "debit", "available"],
            name,
        ),
        probe(&CounterSpec::new(), &["increment"], name),
        probe(&RegisterSpec::new(), &["read", "write"], name),
        probe(
            &BoundedBufferSpec::with_capacity(2),
            &["put", "take", "count"],
            name,
        ),
    ];
    checks
        .into_iter()
        .flatten()
        .next()
        .unwrap_or(OpClass::Unknown)
}

/// The static footprint of one function: the operations it invokes,
/// partitioned by [`OpClass`].
#[derive(Debug, Clone, Serialize)]
pub struct FnFootprint {
    /// Label of the source file.
    pub file: String,
    /// Enclosing function name.
    pub function: String,
    /// Read-only operation names invoked (sorted, deduplicated).
    pub reads: Vec<String>,
    /// Mutating operation names invoked.
    pub writes: Vec<String>,
    /// Names outside every specification's vocabulary.
    pub unknown: Vec<String>,
}

/// The dependency footprints of every scanned transaction program.
#[derive(Debug, Clone, Serialize)]
pub struct FootprintReport {
    /// One entry per function that invokes at least one operation.
    pub functions: Vec<FnFootprint>,
}

impl FootprintReport {
    /// Number of functions with a non-empty write set.
    pub fn writers(&self) -> usize {
        self.functions
            .iter()
            .filter(|f| !f.writes.is_empty())
            .count()
    }

    /// Number of functions whose footprint is read-only — the transactions
    /// dependency-logged recovery can skip entirely.
    pub fn read_only(&self) -> usize {
        self.functions
            .iter()
            .filter(|f| f.writes.is_empty() && f.unknown.is_empty())
            .count()
    }
}

/// Extracts per-function read/write sets from `files` by scanning for
/// `op("name", …)` invocation sites.
pub fn extract_footprints(files: &[SourceFile]) -> FootprintReport {
    // (file, function) -> (reads, writes, unknown)
    type Sets = (Vec<String>, Vec<String>, Vec<String>);
    let mut map: BTreeMap<(String, String), Sets> = BTreeMap::new();
    for file in files {
        let mut current = String::from("<toplevel>");
        for line in file.text.lines() {
            if let Some(name) = fn_definition_name(line) {
                current = name;
            }
            for name in op_names_in(line) {
                let sets = map
                    .entry((file.label.clone(), current.clone()))
                    .or_default();
                let bucket = match classify_op(&name) {
                    OpClass::Read => &mut sets.0,
                    OpClass::Write => &mut sets.1,
                    OpClass::Unknown => &mut sets.2,
                };
                if !bucket.contains(&name) {
                    bucket.push(name);
                }
            }
        }
    }
    let functions = map
        .into_iter()
        .map(|((file, function), (mut reads, mut writes, mut unknown))| {
            reads.sort();
            writes.sort();
            unknown.sort();
            FnFootprint {
                file,
                function,
                reads,
                writes,
                unknown,
            }
        })
        .collect();
    FootprintReport { functions }
}

/// Every `op("…"` operation name on a line.
fn op_names_in(line: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut search = 0;
    while let Some(pos) = line[search..].find("op(\"") {
        let start = search + pos + 4;
        if let Some(end) = line[start..].find('"') {
            let name = &line[start..start + end];
            if !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                names.push(name.to_string());
            }
            search = start + end + 1;
        } else {
            break;
        }
    }
    names
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_follows_the_specs() {
        assert_eq!(classify_op("balance"), OpClass::Read);
        assert_eq!(classify_op("withdraw"), OpClass::Write);
        assert_eq!(classify_op("get"), OpClass::Read);
        assert_eq!(classify_op("adjust"), OpClass::Write);
        assert_eq!(classify_op("available"), OpClass::Read);
        assert_eq!(classify_op("debit"), OpClass::Write);
        assert_eq!(classify_op("frobnicate"), OpClass::Unknown);
    }

    #[test]
    fn footprints_attribute_ops_to_functions() {
        let src = SourceFile {
            label: "bank.rs".to_string(),
            text: r#"
fn transfer(a: &H, b: &H) {
    a.invoke(op("withdraw", [5]));
    b.invoke(op("deposit", [5]));
}
fn audit(a: &H) {
    a.invoke(op("balance", [] as [i64; 0]));
}
"#
            .to_string(),
        };
        let report = extract_footprints(&[src]);
        assert_eq!(report.functions.len(), 2);
        let transfer = report
            .functions
            .iter()
            .find(|f| f.function == "transfer")
            .unwrap();
        assert_eq!(transfer.writes, ["deposit", "withdraw"]);
        assert!(transfer.reads.is_empty());
        let audit = report
            .functions
            .iter()
            .find(|f| f.function == "audit")
            .unwrap();
        assert_eq!(audit.reads, ["balance"]);
        assert_eq!(report.writers(), 1);
        assert_eq!(report.read_only(), 1);
    }

    #[test]
    fn duplicate_sites_dedup_and_json_renders() {
        let src = SourceFile {
            label: "w.rs".to_string(),
            text: "fn w() { op(\"deposit\", [1]); op(\"deposit\", [2]); }".to_string(),
        };
        let report = extract_footprints(&[src]);
        assert_eq!(report.functions[0].writes, ["deposit"]);
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"function\":\"w\""));
    }
}
