//! An integer key/value map: the substrate for multi-account workloads.

use super::update_if;
use crate::spec::{op, OpResult, Operation, SequentialSpec};
use crate::value::Value;
use std::collections::BTreeMap;

/// A map from integer keys to integer values.
///
/// Operations: `put(k,v)→old-or-nil`, `get(k)→value-or-nil`,
/// `remove(k)→old-or-nil`, `add(k,d)→new` (read-modify-write increment,
/// `nil`-keys treated as 0), `adjust(k,d)→ok` (blind increment whose
/// result is order-insensitive), read-only `size→int` and `sum→int`.
///
/// `add`/`adjust` exist because they are the commutative updates the
/// banking workloads (E4, E6) rely on; `sum` is the audit scan.
///
/// # Example
///
/// ```
/// use atomicity_spec::specs::KvMapSpec;
/// use atomicity_spec::{SequentialSpec, op, Value};
/// let m = KvMapSpec::new();
/// assert!(m.accepts_serial(&[
///     (op("put", [1, 10]), Value::Nil),
///     (op("add", [1, 5]), Value::from(15)),
///     (op("get", [1]), Value::from(15)),
///     (op("sum", [] as [i64; 0]), Value::from(15)),
/// ]));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KvMapSpec {
    initial: BTreeMap<i64, i64>,
}

impl KvMapSpec {
    /// Creates the specification with an empty initial map.
    pub fn new() -> Self {
        KvMapSpec {
            initial: BTreeMap::new(),
        }
    }

    /// Creates the specification with given initial entries.
    pub fn with_initial(entries: impl IntoIterator<Item = (i64, i64)>) -> Self {
        KvMapSpec {
            initial: entries.into_iter().collect(),
        }
    }
}

fn old_value(state: &BTreeMap<i64, i64>, k: i64) -> Value {
    state.get(&k).map(|&v| Value::from(v)).unwrap_or(Value::Nil)
}

impl SequentialSpec for KvMapSpec {
    type State = BTreeMap<i64, i64>;

    fn initial(&self) -> Self::State {
        self.initial.clone()
    }

    fn step(&self, state: &Self::State, op: &Operation) -> Vec<(Value, Self::State)> {
        match op.name() {
            "put" if op.args().len() == 2 => match (op.int_arg(0), op.int_arg(1)) {
                (Some(k), Some(v)) => {
                    let old = old_value(state, k);
                    let mut s = state.clone();
                    s.insert(k, v);
                    vec![(old, s)]
                }
                _ => Vec::new(),
            },
            "get" if op.args().len() == 1 => match op.int_arg(0) {
                Some(k) => vec![(old_value(state, k), state.clone())],
                None => Vec::new(),
            },
            "remove" if op.args().len() == 1 => match op.int_arg(0) {
                Some(k) => {
                    let old = old_value(state, k);
                    let mut s = state.clone();
                    s.remove(&k);
                    vec![(old, s)]
                }
                None => Vec::new(),
            },
            "add" if op.args().len() == 2 => match (op.int_arg(0), op.int_arg(1)) {
                (Some(k), Some(d)) => {
                    let new = state.get(&k).copied().unwrap_or(0) + d;
                    let mut s = state.clone();
                    s.insert(k, new);
                    vec![(Value::from(new), s)]
                }
                _ => Vec::new(),
            },
            // Like `add` but returns `ok` instead of the new value: its
            // (operation, result) pairs commute with each other, which
            // distributed intentions lists rely on for order-insensitive
            // replay.
            "adjust" if op.args().len() == 2 => match (op.int_arg(0), op.int_arg(1)) {
                (Some(k), Some(d)) => {
                    let new = state.get(&k).copied().unwrap_or(0) + d;
                    let mut s = state.clone();
                    s.insert(k, new);
                    vec![(Value::ok(), s)]
                }
                _ => Vec::new(),
            },
            "size" if op.args().is_empty() => {
                vec![(Value::from(state.len() as i64), state.clone())]
            }
            "sum" if op.args().is_empty() => {
                vec![(Value::from(state.values().sum::<i64>()), state.clone())]
            }
            _ => Vec::new(),
        }
    }

    fn apply(&self, state: &mut Self::State, op: &Operation, expected: &Value) -> Option<bool> {
        let replayed = match (op.name(), op.args().len(), op.int_arg(0), op.int_arg(1)) {
            ("put", 2, Some(k), Some(v)) => update_if(old_value(state, k) == *expected, || {
                state.insert(k, v);
            }),
            ("get", 1, Some(k), _) => old_value(state, k) == *expected,
            ("remove", 1, Some(k), _) => update_if(old_value(state, k) == *expected, || {
                state.remove(&k);
            }),
            ("add", 2, Some(k), Some(d)) => {
                let new = state.get(&k).copied().unwrap_or(0) + d;
                update_if(expected.as_int() == Some(new), || {
                    state.insert(k, new);
                })
            }
            ("adjust", 2, Some(k), Some(d)) => update_if(expected.is_ok_unit(), || {
                *state.entry(k).or_insert(0) += d;
            }),
            ("size", 0, ..) => expected.as_int() == Some(state.len() as i64),
            ("sum", 0, ..) => expected.as_int() == Some(state.values().sum::<i64>()),
            _ => false,
        };
        Some(replayed)
    }

    /// The inverse restores the old binding of the key a mutator touched:
    /// `put(k,old)` if it had one, `remove(k)` if it had none.
    fn apply_undoable(
        &self,
        state: &mut Self::State,
        op: &Operation,
        expected: &Value,
        undo: &mut Vec<OpResult>,
    ) -> Option<bool> {
        let touched = match (op.name(), op.int_arg(0)) {
            ("put" | "remove" | "add" | "adjust", Some(k)) => Some((k, state.get(&k).copied())),
            _ => None,
        };
        let replayed = self.apply(state, op, expected)?;
        if let (true, Some((k, old))) = (replayed, touched) {
            if let Some(inverse) = rebind(k, old, state.get(&k).copied()) {
                undo.push(inverse);
            }
        }
        Some(replayed)
    }

    fn is_read_only(&self, op: &Operation) -> bool {
        matches!(op.name(), "get" | "size" | "sum")
    }
}

/// The (operation, result) that takes key `k` from binding `now` back to
/// `old`, or `None` if they are the same binding.
fn rebind(k: i64, old: Option<i64>, now: Option<i64>) -> Option<OpResult> {
    let returned = now.map_or(Value::Nil, Value::from);
    match old {
        _ if old == now => None,
        Some(v) => Some((op("put", [k, v]), returned)),
        None => Some((op("remove", [k]), returned)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::op;

    #[test]
    fn put_get_remove_round_trip() {
        let m = KvMapSpec::new();
        assert!(m.accepts_serial(&[
            (op("put", [1, 10]), Value::Nil),
            (op("get", [1]), Value::from(10)),
            (op("put", [1, 20]), Value::from(10)),
            (op("remove", [1]), Value::from(20)),
            (op("get", [1]), Value::Nil),
        ]));
    }

    #[test]
    fn add_treats_missing_as_zero() {
        let m = KvMapSpec::new();
        assert!(m.accepts_serial(&[
            (op("add", [3, 7]), Value::from(7)),
            (op("add", [3, -2]), Value::from(5)),
        ]));
    }

    #[test]
    fn adjust_is_order_insensitive_in_results() {
        let m = KvMapSpec::new();
        // Both orders of the same adjust pairs replay identically.
        let p = (op("adjust", [1, 7]), Value::ok());
        let q = (op("adjust", [1, -2]), Value::ok());
        let tail = (op("get", [1]), Value::from(5));
        assert!(m.accepts_serial(&[p.clone(), q.clone(), tail.clone()]));
        assert!(m.accepts_serial(&[q, p, tail]));
    }

    #[test]
    fn sum_and_size_scan_whole_map() {
        let m = KvMapSpec::with_initial([(1, 10), (2, 20)]);
        assert!(m.accepts_serial(&[
            (op("sum", [] as [i64; 0]), Value::from(30)),
            (op("size", [] as [i64; 0]), Value::from(2)),
        ]));
        assert!(!m.accepts_serial(&[(op("sum", [] as [i64; 0]), Value::from(31))]));
    }

    #[test]
    fn wrong_old_values_rejected() {
        let m = KvMapSpec::new();
        assert!(!m.accepts_serial(&[(op("put", [1, 10]), Value::from(99))]));
        assert!(!m.accepts_serial(&[(op("remove", [1]), Value::from(1))]));
    }

    #[test]
    fn read_only_classification() {
        let m = KvMapSpec::new();
        assert!(m.is_read_only(&op("get", [1])));
        assert!(m.is_read_only(&op("sum", [] as [i64; 0])));
        assert!(!m.is_read_only(&op("put", [1, 2])));
        assert!(!m.is_read_only(&op("add", [1, 2])));
    }

    #[test]
    fn ill_typed_rejected() {
        let m = KvMapSpec::new();
        assert!(m.step(&BTreeMap::new(), &op("put", [1])).is_empty());
        assert!(m
            .step(&BTreeMap::new(), &op("get", [Value::sym("k")]))
            .is_empty());
        assert!(m.step(&BTreeMap::new(), &op("sum", [1])).is_empty());
    }
}
