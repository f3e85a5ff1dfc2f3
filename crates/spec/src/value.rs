//! Abstract values passed to and returned from operations.
//!
//! The paper's example objects exchange small scalar values: integers
//! (`insert(3)`), booleans (`<true,x,a>`), and symbolic results such as
//! `ok` and `insufficient_funds`. [`Value`] is a small closed universe of
//! such values, rich enough for every object specification in this
//! repository while keeping equality, hashing, and serialization trivial.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An abstract argument or result value.
///
/// `Value` is deliberately small: operations on atomic objects exchange
/// scalars and short sequences, not arbitrary payloads. The symbolic results
/// the paper uses — `ok`, `insufficient_funds`, `empty` — are represented by
/// [`Value::Unit`] (displayed as `ok`), [`Value::Sym`], and [`Value::Nil`]
/// respectively.
///
/// # Example
///
/// ```
/// use atomicity_spec::Value;
/// assert_eq!(Value::from(3).to_string(), "3");
/// assert_eq!(Value::ok().to_string(), "ok");
/// assert_eq!(Value::sym("insufficient_funds").to_string(), "insufficient_funds");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default)]
pub enum Value {
    /// The unit result of a successful state-changing operation; printed `ok`.
    #[default]
    Unit,
    /// Absence of a value (e.g. dequeuing an empty queue); printed `nil`.
    Nil,
    /// A boolean, as returned by `member`.
    Bool(bool),
    /// A signed integer, the workhorse scalar.
    Int(i64),
    /// A symbolic constant such as `insufficient_funds`.
    Sym(String),
    /// A finite sequence of values (e.g. the result of an audit scan).
    Seq(Vec<Value>),
}

impl Value {
    /// The `ok` result used by the paper for successful mutators.
    ///
    /// ```
    /// use atomicity_spec::Value;
    /// assert_eq!(Value::ok(), Value::Unit);
    /// ```
    pub fn ok() -> Self {
        Value::Unit
    }

    /// A symbolic constant.
    ///
    /// ```
    /// use atomicity_spec::Value;
    /// let v = Value::sym("insufficient_funds");
    /// assert!(matches!(v, Value::Sym(_)));
    /// ```
    pub fn sym(name: impl Into<String>) -> Self {
        Value::Sym(name.into())
    }

    /// Returns the integer payload, if this is an [`Value::Int`].
    ///
    /// ```
    /// use atomicity_spec::Value;
    /// assert_eq!(Value::from(7).as_int(), Some(7));
    /// assert_eq!(Value::ok().as_int(), None);
    /// ```
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the boolean payload, if this is a [`Value::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the sequence payload, if this is a [`Value::Seq`].
    pub fn as_seq(&self) -> Option<&[Value]> {
        match self {
            Value::Seq(vs) => Some(vs),
            _ => None,
        }
    }

    /// Whether this value is the `ok` unit result.
    pub fn is_ok_unit(&self) -> bool {
        matches!(self, Value::Unit)
    }

    /// Whether this value is the symbolic constant `name` — the test
    /// [`Value::sym`] would answer, without building one.
    ///
    /// ```
    /// use atomicity_spec::Value;
    /// assert!(Value::sym("full").is_sym("full"));
    /// assert!(!Value::sym("full").is_sym("refused"));
    /// assert!(!Value::ok().is_sym("ok"));
    /// ```
    pub fn is_sym(&self, name: &str) -> bool {
        matches!(self, Value::Sym(s) if s == name)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i64::from(i))
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Sym(s.to_owned())
    }
}

impl From<Vec<Value>> for Value {
    fn from(vs: Vec<Value>) -> Self {
        Value::Seq(vs)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "ok"),
            Value::Nil => write!(f, "nil"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Sym(s) => write!(f, "{s}"),
            Value::Seq(vs) => {
                write!(f, "[")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms_match_paper_notation() {
        assert_eq!(Value::ok().to_string(), "ok");
        assert_eq!(Value::from(true).to_string(), "true");
        assert_eq!(Value::from(3).to_string(), "3");
        assert_eq!(Value::Nil.to_string(), "nil");
        assert_eq!(
            Value::Seq(vec![Value::from(1), Value::from(2)]).to_string(),
            "[1, 2]"
        );
    }

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Value::from(5i32), Value::Int(5));
        assert_eq!(Value::from(false), Value::Bool(false));
        assert_eq!(Value::from("empty"), Value::Sym("empty".into()));
        assert_eq!(
            Value::from(vec![Value::ok()]),
            Value::Seq(vec![Value::Unit])
        );
    }

    #[test]
    fn accessors_reject_wrong_variants() {
        assert_eq!(Value::ok().as_int(), None);
        assert_eq!(Value::from(1).as_bool(), None);
        assert_eq!(Value::from(true).as_seq(), None);
        assert!(Value::ok().is_ok_unit());
        assert!(!Value::Nil.is_ok_unit());
    }

    #[test]
    fn ordering_is_total() {
        let mut vs = vec![
            Value::from(2),
            Value::Unit,
            Value::from(true),
            Value::from(1),
        ];
        vs.sort();
        // Sorting must not panic and must be deterministic.
        let again = {
            let mut v = vs.clone();
            v.sort();
            v
        };
        assert_eq!(vs, again);
    }

    #[test]
    fn serde_round_trip() {
        let v = Value::Seq(vec![Value::from(1), Value::sym("ok?"), Value::Bool(true)]);
        let s = serde_json::to_string(&v).unwrap();
        let back: Value = serde_json::from_str(&s).unwrap();
        assert_eq!(v, back);
    }
}
