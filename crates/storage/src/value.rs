//! Dynamically typed scalar values.
//!
//! The IMP data model (paper §4) is bag-relational: relations map tuples of
//! domain values to multiplicities. [`Value`] is the domain `U`. It carries
//! a *total* order and hash — both are required because tuples serve as keys
//! in group-by hash maps and ordered top-k state (balanced search trees in
//! the paper, `BTreeMap` here).

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// The type of a [`Value`]. Nullability is tracked at the schema level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean truth values.
    Bool,
    /// 64-bit signed integers.
    Int,
    /// 64-bit IEEE-754 floats with a total order (`total_cmp`).
    Float,
    /// UTF-8 strings (reference counted, cheap to clone).
    Str,
}

impl DataType {
    /// Short lowercase name used in error messages and `EXPLAIN` output.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Bool => "bool",
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "str",
        }
    }
}

impl DataType {
    /// Position of this type's values in [`Value`]'s cross-type order
    /// (`Null` ranks 0, below everything).
    pub(crate) fn rank(self) -> u8 {
        match self {
            DataType::Bool => 1,
            // Int and Float share a rank: they compare numerically.
            DataType::Int | DataType::Float => 2,
            DataType::Str => 3,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A scalar value.
///
/// `Null` sorts before every other value (matching `NULLS FIRST`), and
/// values of different types order by a fixed type rank so that the order is
/// total even for mistyped comparisons. Comparisons between `Int` and
/// `Float` compare numerically, mirroring SQL's implicit numeric coercion.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// Interned string.
    Str(Arc<str>),
}

impl Value {
    /// Build a string value from anything string-like.
    pub fn str(s: impl AsRef<str>) -> Value {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The dynamic type, or `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// True iff this is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view used by arithmetic and aggregation (`Int` widens to
    /// `f64`). Returns `None` for non-numeric values.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer view. Returns `None` for anything but `Int`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Boolean view. Returns `None` for anything but `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// String view. Returns `None` for anything but `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The borrowed form of this value: comparison and hashing are defined
    /// on [`Cell`], so a cell read straight from a column and a `Value`
    /// agree on both.
    pub fn as_cell(&self) -> Cell<'_> {
        match self {
            Value::Null => Cell::Null,
            Value::Bool(b) => Cell::Bool(*b),
            Value::Int(i) => Cell::Int(*i),
            Value::Float(f) => Cell::Float(*f),
            Value::Str(s) => Cell::Str(s),
        }
    }

    /// Rank used to order values of different types (total order glue).
    pub(crate) fn type_rank(&self) -> u8 {
        self.as_cell().type_rank()
    }

    /// Approximate heap footprint in bytes, used by the memory-usage
    /// experiments (paper Fig. 15/17/18).
    pub fn heap_size(&self) -> usize {
        match self {
            Value::Str(s) => s.len(),
            _ => 0,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.as_cell() == other.as_cell()
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_cell().cmp(&other.as_cell())
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_cell().hash(state);
    }
}

/// One cell of a column, borrowed: what [`Value`] owns, without the
/// `Value`. Scans read cells straight from the typed column vectors
/// ([`crate::ColumnData::cell`]) and build a `Value` only for what a query
/// outputs; [`Value`]'s order, equality and hash are the ones defined
/// here, so a group or join key hashed from cells finds the key stored as
/// a [`crate::Row`].
#[derive(Debug, Clone, Copy)]
pub enum Cell<'a> {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// String (the shared allocation, so [`Cell::to_value`] copies no bytes).
    Str(&'a Arc<str>),
}

impl Cell<'_> {
    /// True iff this is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Cell::Null)
    }

    /// The owned form.
    pub fn to_value(self) -> Value {
        match self {
            Cell::Null => Value::Null,
            Cell::Bool(b) => Value::Bool(b),
            Cell::Int(i) => Value::Int(i),
            Cell::Float(f) => Value::Float(f),
            Cell::Str(s) => Value::Str(Arc::clone(s)),
        }
    }

    fn type_rank(&self) -> u8 {
        match self {
            Cell::Null => 0,
            Cell::Bool(_) => DataType::Bool.rank(),
            Cell::Int(_) => DataType::Int.rank(),
            Cell::Float(_) => DataType::Float.rank(),
            Cell::Str(_) => DataType::Str.rank(),
        }
    }
}

impl PartialEq for Cell<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Cell<'_> {}

impl PartialOrd for Cell<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cell<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        use Cell::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.as_ref().cmp(b.as_ref()),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl Hash for Cell<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // An `Int` compares against a `Float` through its widened `f64`,
        // so both hash from that `f64` alone: equal numbers hash equally
        // even where widening is lossy (above 2^53).
        let hash_number = |f: f64, state: &mut H| {
            state.write_u8(2);
            // Normalize -0.0 to 0.0.
            let f = if f == 0.0 { 0.0 } else { f };
            state.write_u64(f.to_bits());
            if f.fract() == 0.0 && f >= i64::MIN as f64 && f <= i64::MAX as f64 {
                state.write_i64(f as i64);
            } else {
                state.write_i64(0);
            }
        };
        match self {
            Cell::Null => state.write_u8(0),
            Cell::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            Cell::Int(i) => hash_number(*i as f64, state),
            Cell::Float(f) => hash_number(*f, state),
            Cell::Str(s) => {
                state.write_u8(3);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => {
                if x.fract() == 0.0 && x.abs() < 1e15 {
                    write!(f, "{:.1}", x)
                } else {
                    write!(f, "{x}")
                }
            }
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn total_order_across_types() {
        let vals = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-3),
            Value::Float(2.5),
            Value::Int(7),
            Value::str("a"),
            Value::str("b"),
        ];
        for w in vals.windows(2) {
            assert!(w[0] < w[1], "{} < {} violated", w[0], w[1]);
        }
    }

    #[test]
    fn int_float_numeric_comparison() {
        assert_eq!(Value::Int(2), Value::Float(2.0));
        assert!(Value::Int(2) < Value::Float(2.5));
        assert!(Value::Float(1.5) < Value::Int(2));
    }

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(hash_of(&Value::Int(42)), hash_of(&Value::Float(42.0)));
        assert_eq!(hash_of(&Value::Float(0.0)), hash_of(&Value::Float(-0.0)));
    }

    #[test]
    fn equal_numbers_hash_equal_where_widening_is_lossy() {
        // Around ±2^53 and the i64 limits several ints widen to one f64
        // and compare equal to it (and, through it, hash like each other).
        let two53 = 1i64 << 53;
        let ints = [
            i64::MIN,
            i64::MIN + 1,
            -two53 - 2,
            -two53 - 1,
            -two53,
            -two53 + 1,
            -1,
            0,
            1,
            two53 - 1,
            two53,
            two53 + 1,
            two53 + 2,
            two53 + 3,
            i64::MAX - 1,
            i64::MAX,
        ];
        let mut values: Vec<Value> = ints.iter().map(|&i| Value::Int(i)).collect();
        values.extend(ints.iter().map(|&i| Value::Float(i as f64)));
        values.extend([-0.0, 0.5, 9.3e18, -9.3e18, f64::INFINITY].map(Value::Float));
        let mut lossy_pairs = 0;
        for a in &values {
            for b in &values {
                if a == b {
                    assert_eq!(hash_of(a), hash_of(b), "{a:?} == {b:?}");
                    lossy_pairs += usize::from(matches!(
                        (a, b),
                        (Value::Int(x), Value::Float(f)) if *f as i64 != *x
                    ));
                }
            }
        }
        assert_eq!(Value::Int(two53 + 1), Value::Float(two53 as f64));
        assert!(lossy_pairs > 0);
    }

    #[test]
    fn nan_sorts_last_among_floats() {
        assert!(Value::Float(f64::NAN) > Value::Float(f64::INFINITY));
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Int(5).to_string(), "5");
        assert_eq!(Value::Float(5.0).to_string(), "5.0");
        assert_eq!(Value::str("x").to_string(), "x");
    }

    #[test]
    fn heap_size_counts_string_bytes() {
        assert_eq!(Value::Int(1).heap_size(), 0);
        assert_eq!(Value::str("abcd").heap_size(), 4);
    }
}
