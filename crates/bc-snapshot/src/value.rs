//! The generic value tree snapshots are built from, with a canonical JSON
//! writer and a matching parser.
//!
//! Two departures from a stock JSON model keep round-trips exact:
//!
//! * **Integers and floats are distinct variants.** Counters (budgets,
//!   RNG words, masks) must not detour through `f64` and lose precision;
//!   a number token is an [`Value::Int`] unless it contains `.`, `e`, or
//!   `E`.
//! * **Floats print in shortest round-trip form** (Rust's `{:?}`), so the
//!   exact bit pattern survives `write → parse → write` and the output is
//!   byte-stable. Non-finite floats print as `NaN`/`inf`/`-inf` and parse
//!   back — snapshots must be total even for degenerate state.

use crate::doc::fnv_extend;
use crate::error::SnapshotError;
use std::fmt::Write as _;

/// A dynamically typed snapshot value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// Absent/none.
    Null,
    /// Boolean.
    Bool(bool),
    /// Integer, wide enough for `u64` counters and RNG words.
    Int(i128),
    /// IEEE-754 double, round-tripped exactly.
    Float(f64),
    /// UTF-8 string.
    Str(String),
    /// Ordered sequence.
    List(Vec<Value>),
    /// Ordered key→value map (insertion order is preserved and is part of
    /// the canonical byte representation).
    Map(Vec<(String, Value)>),
}

impl Value {
    /// A map from borrowed keys — the ergonomic constructor for encoders.
    pub fn obj(entries: Vec<(&str, Value)>) -> Value {
        Value::Map(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The integer, if this is one.
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// The integer as a `u64`, if this is one and it fits.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_int().and_then(|i| u64::try_from(i).ok())
    }

    /// The integer as a `usize`, if this is one and it fits.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_int().and_then(|i| usize::try_from(i).ok())
    }

    /// The integer as a `u16`, if this is one and it fits.
    pub fn as_u16(&self) -> Option<u16> {
        self.as_int().and_then(|i| u16::try_from(i).ok())
    }

    /// The float, if this is one. Integers do not coerce — the two are
    /// distinct on the wire.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// The elements, if this is a list.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(xs) => Some(xs),
            _ => None,
        }
    }

    /// The entries, if this is a map.
    pub fn as_map(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Map(entries) => Some(entries),
            _ => None,
        }
    }

    /// Looks `key` up in a map (first match; canonical documents never
    /// duplicate keys).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_map()?
            .iter()
            .find_map(|(k, v)| (k == key).then_some(v))
    }

    /// `key`'s value in this map. The `field*` readers are how decoders
    /// read required fields: a missing or mistyped field is a
    /// [`SnapshotError::Invalid`] naming the key, and its text is built
    /// only on failure.
    pub fn field(&self, key: &str) -> Result<&Value, SnapshotError> {
        self.get(key)
            .ok_or_else(|| SnapshotError::invalid(format!("missing key {key:?}")))
    }

    /// `key`'s value as a `usize`.
    pub fn field_usize(&self, key: &str) -> Result<usize, SnapshotError> {
        self.field(key)?
            .as_usize()
            .ok_or_else(|| SnapshotError::invalid(format!("key {key:?} is not a usize")))
    }

    /// `key`'s value as a `u64`.
    pub fn field_u64(&self, key: &str) -> Result<u64, SnapshotError> {
        self.field(key)?
            .as_u64()
            .ok_or_else(|| SnapshotError::invalid(format!("key {key:?} is not a u64")))
    }

    /// `key`'s value as a `u128` (a non-negative integer; `Int` holds up
    /// to `i128::MAX`).
    pub fn field_u128(&self, key: &str) -> Result<u128, SnapshotError> {
        self.field(key)?
            .as_int()
            .and_then(|i| u128::try_from(i).ok())
            .ok_or_else(|| SnapshotError::invalid(format!("key {key:?} is not a u128")))
    }

    /// `key`'s value as a float (integers do not coerce).
    pub fn field_f64(&self, key: &str) -> Result<f64, SnapshotError> {
        self.field(key)?
            .as_f64()
            .ok_or_else(|| SnapshotError::invalid(format!("key {key:?} is not a float")))
    }

    /// `key`'s value as a boolean.
    pub fn field_bool(&self, key: &str) -> Result<bool, SnapshotError> {
        self.field(key)?
            .as_bool()
            .ok_or_else(|| SnapshotError::invalid(format!("key {key:?} is not a bool")))
    }

    /// `key`'s value as a string.
    pub fn field_str(&self, key: &str) -> Result<&str, SnapshotError> {
        self.field(key)?
            .as_str()
            .ok_or_else(|| SnapshotError::invalid(format!("key {key:?} is not a string")))
    }

    /// The elements of this list; `what` names it in the error.
    pub fn list(&self, what: &str) -> Result<&[Value], SnapshotError> {
        self.as_list()
            .ok_or_else(|| SnapshotError::invalid(format!("{what} must be a list")))
    }

    /// Serializes to compact canonical JSON.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        self.write_json(&mut out);
        out
    }

    /// Appends the compact canonical JSON of this value to `out`.
    pub(crate) fn write_json(&self, out: &mut String) {
        match self {
            Value::Null => out.push_str("null"),
            Value::Bool(true) => out.push_str("true"),
            Value::Bool(false) => out.push_str("false"),
            // Writing into a `String` cannot fail.
            Value::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Value::Float(f) => {
                let _ = write!(out, "{f:?}");
            }
            Value::Str(s) => escape_into(s, out),
            Value::List(xs) => {
                out.push('[');
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    x.write_json(out);
                }
                out.push(']');
            }
            Value::Map(entries) => {
                out.push('{');
                for (i, (k, v)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(k, out);
                    out.push(':');
                    v.write_json(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one canonical JSON value (the payload of a document line).
    /// Returns a human-readable reason on failure; the document layer
    /// attaches the line number.
    pub fn parse(input: &str) -> Result<Value, String> {
        Value::parse_with(input, &mut Scratch::default(), None)
    }

    /// [`Value::parse`] over caller-owned scratch stacks, so a document's
    /// lines share one pair of stacks instead of growing their own. With
    /// `checksum`, the input's bytes are folded into that FNV-1a state as
    /// they are read, token by token, so the hash's serial multiply chain
    /// runs alongside the parse instead of in a pass of its own. (On an
    /// error the state is unspecified.)
    pub(crate) fn parse_with(
        input: &str,
        scratch: &mut Scratch,
        checksum: Option<&mut u64>,
    ) -> Result<Value, String> {
        scratch.items.clear();
        scratch.entries.clear();
        let mut p = Parser {
            src: input,
            bytes: input.as_bytes(),
            pos: 0,
            scratch,
            checksum,
            hashed: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.pos));
        }
        p.fold_checksum();
        Ok(v)
    }

    /// Removes `key` from a map and returns its value (first match, like
    /// [`Value::get`]); `None` when this is not a map or lacks the key.
    /// Moves the payload out instead of cloning it.
    pub(crate) fn remove(&mut self, key: &str) -> Option<Value> {
        let Value::Map(entries) = self else {
            return None;
        };
        let at = entries.iter().position(|(k, _)| k == key)?;
        Some(entries.remove(at).1)
    }
}

/// The parser's shared stacks. A list or map pushes its elements here
/// while it is open and then moves them out with `split_off`, so every
/// `Vec` in the parsed tree is allocated at its exact length; the stacks
/// themselves keep their capacity from one parse to the next.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    items: Vec<Value>,
    entries: Vec<(String, Value)>,
}

pub(crate) fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A cursor over the input. `pos` only ever advances past ASCII bytes or
/// past whole runs of string contents, so it always sits on a character
/// boundary of `src`.
struct Parser<'a, 's> {
    src: &'a str,
    bytes: &'a [u8],
    pos: usize,
    scratch: &'s mut Scratch,
    checksum: Option<&'s mut u64>,
    /// How much of the input `checksum` already covers.
    hashed: usize,
}

impl Parser<'_, '_> {
    /// Folds the bytes read since the last fold into the checksum.
    fn fold_checksum(&mut self) {
        if let Some(hash) = self.checksum.as_deref_mut() {
            *hash = fnv_extend(*hash, &self.bytes[self.hashed..self.pos]);
            self.hashed = self.pos;
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected {:?} at offset {}", b as char, self.pos))
        }
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'{') => self.map(),
            Some(b'[') => self.list(),
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b'N') if self.eat_keyword("NaN") => Ok(Value::Float(f64::NAN)),
            Some(b'i') if self.eat_keyword("inf") => Ok(Value::Float(f64::INFINITY)),
            Some(b'-') if self.bytes[self.pos..].starts_with(b"-inf") => {
                self.pos += 4;
                Ok(Value::Float(f64::NEG_INFINITY))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at offset {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'-' | b'+' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        self.fold_checksum();
        // Only ASCII bytes were consumed, so both ends are char boundaries.
        let token = &self.src[start..self.pos];
        if is_float {
            token
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|e| format!("bad float {token:?}: {e}"))
        } else if let Ok(i) = token.parse::<i64>() {
            Ok(Value::Int(i.into()))
        } else {
            token
                .parse::<i128>()
                .map(Value::Int)
                .map_err(|e| format!("bad integer {token:?}: {e}"))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash in one go.
            let rest = &self.src[self.pos..];
            let run = rest
                .find(['"', '\\'])
                .ok_or_else(|| "unterminated string".to_string())?;
            let closed = rest.as_bytes()[run] == b'"';
            self.pos += run + 1;
            if closed && out.is_empty() {
                // No escapes, the common case: one exact-size copy.
                return Ok(rest[..run].to_owned());
            }
            out.push_str(&rest[..run]);
            if closed {
                return Ok(out);
            }
            match self.peek() {
                Some(b'"') => out.push('"'),
                Some(b'\\') => out.push('\\'),
                Some(b'/') => out.push('/'),
                Some(b'n') => out.push('\n'),
                Some(b'r') => out.push('\r'),
                Some(b't') => out.push('\t'),
                Some(b'u') => {
                    let hex = self
                        .bytes
                        .get(self.pos + 1..self.pos + 5)
                        .ok_or("truncated \\u escape")?;
                    let hex = std::str::from_utf8(hex).map_err(|_| "bad \\u escape".to_string())?;
                    let code =
                        u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())?;
                    out.push(char::from_u32(code).ok_or("\\u escape is not a scalar value")?);
                    self.pos += 4;
                }
                _ => return Err("unknown escape".into()),
            }
            self.pos += 1;
        }
    }

    fn list(&mut self) -> Result<Value, String> {
        self.expect(b'[')?;
        let mark = self.scratch.items.len();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::List(Vec::new()));
        }
        loop {
            self.skip_ws();
            let x = self.value()?;
            self.scratch.items.push(x);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::List(self.scratch.items.split_off(mark)));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }

    fn map(&mut self) -> Result<Value, String> {
        self.expect(b'{')?;
        let mark = self.scratch.entries.len();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Map(Vec::new()));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            self.scratch.entries.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Map(self.scratch.entries.split_off(mark)));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) -> Value {
        let json = v.to_json();
        let back = Value::parse(&json).unwrap_or_else(|e| panic!("unparseable {json}: {e}"));
        assert_eq!(back.to_json(), json, "re-serialization must be identical");
        back
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(-7),
            Value::Int(u64::MAX as i128),
            Value::Float(0.1 + 0.2),
            Value::Float(-1.5e-300),
            Value::Str("hello \"world\"\n\\ tab\t".into()),
            Value::Str("unicode: αβγ 🦀".into()),
        ] {
            assert_eq!(round_trip(&v), v);
        }
    }

    #[test]
    fn floats_survive_bit_exactly() {
        let exact = 1.0 / 3.0;
        match round_trip(&Value::Float(exact)) {
            Value::Float(f) => assert_eq!(f.to_bits(), exact.to_bits()),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn non_finite_floats_stay_representable() {
        for f in [f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(round_trip(&Value::Float(f)), Value::Float(f));
        }
        // NaN != NaN, so compare the serialized form instead.
        let json = Value::Float(f64::NAN).to_json();
        assert_eq!(json, "NaN");
        assert_eq!(Value::parse(&json).unwrap().to_json(), "NaN");
    }

    #[test]
    fn integers_do_not_detour_through_floats() {
        // 2^63 + 1 is not representable as f64; the Int variant must keep
        // every bit (RNG state words take the full u64 range).
        let big = (1i128 << 63) + 1;
        assert_eq!(round_trip(&Value::Int(big)), Value::Int(big));
        assert_eq!(
            Value::parse("9223372036854775809").unwrap().as_int(),
            Some(big)
        );
    }

    #[test]
    fn nesting_and_order_are_preserved() {
        let v = Value::obj(vec![
            ("z", Value::List(vec![Value::Int(1), Value::Null])),
            ("a", Value::obj(vec![("inner", Value::Float(2.5))])),
            ("empty_list", Value::List(vec![])),
            ("empty_map", Value::Map(vec![])),
        ]);
        let back = round_trip(&v);
        assert_eq!(back, v);
        // Insertion order, not sorted order, is canonical.
        assert!(back.to_json().starts_with("{\"z\":"));
        assert_eq!(
            back.get("a").and_then(|a| a.get("inner")),
            Some(&Value::Float(2.5))
        );
    }

    #[test]
    fn integers_at_the_i64_edges_round_trip() {
        for i in [
            i64::MIN as i128,
            i64::MIN as i128 - 1,
            i64::MAX as i128,
            i64::MAX as i128 + 1,
            u64::MAX as i128,
            u64::MAX as i128 + 1,
            i128::MIN,
            i128::MAX,
            -1,
            0,
        ] {
            assert_eq!(round_trip(&Value::Int(i)), Value::Int(i), "{i}");
        }
        // An integer zero has no sign; a float zero keeps it.
        assert_eq!(Value::parse("-0").unwrap(), Value::Int(0));
        assert_eq!(Value::parse("-0").unwrap().to_json(), "0");
        match round_trip(&Value::Float(-0.0)) {
            Value::Float(f) => assert_eq!(f.to_bits(), (-0.0f64).to_bits()),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn malformed_numbers_are_rejected() {
        for bad in [
            "1-2",
            "--",
            "-",
            "1e",
            "1+",
            "+1",
            "1--",
            "-+1",
            ".5",
            "1e+",
            "0x10",
            "170141183460469231731687303715884105728",
        ] {
            assert!(Value::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn deep_nesting_round_trips() {
        let mut v = Value::List(vec![Value::Int(7)]);
        for depth in 0..200 {
            v = if depth % 2 == 0 {
                Value::List(vec![v, Value::Null])
            } else {
                Value::Map(vec![("k".into(), v)])
            };
        }
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn parsed_lists_and_maps_are_exact_size() {
        fn check(v: &Value) {
            match v {
                Value::List(xs) => {
                    assert_eq!(xs.capacity(), xs.len());
                    xs.iter().for_each(check);
                }
                Value::Map(entries) => {
                    assert_eq!(entries.capacity(), entries.len());
                    entries.iter().for_each(|(k, v)| {
                        assert_eq!(k.capacity(), k.len());
                        check(v);
                    });
                }
                Value::Str(s) => assert_eq!(s.capacity(), s.len()),
                _ => {}
            }
        }
        let json =
            r#"{"a":[[1,2,3],[],[4,[5,6,7,8,9]],{"b":[1.5,2.5],"c":{}}],"dd":"xyz","e":[[[[]]]]}"#;
        let v = Value::parse(json).unwrap();
        assert_eq!(v.to_json(), json);
        check(&v);
    }

    #[test]
    fn remove_moves_a_map_entry_out() {
        let mut v = Value::obj(vec![
            ("a", Value::Int(1)),
            ("b", Value::List(vec![Value::Int(2)])),
            ("b", Value::Int(3)),
        ]);
        assert_eq!(v.remove("b"), Some(Value::List(vec![Value::Int(2)])));
        assert_eq!(v.remove("b"), Some(Value::Int(3)));
        assert_eq!(v.remove("b"), None);
        assert_eq!(v.to_json(), r#"{"a":1}"#);
        assert_eq!(Value::Int(1).remove("a"), None);
    }

    #[test]
    fn accessors_are_typed() {
        let v = Value::obj(vec![("n", Value::Int(42)), ("f", Value::Float(1.0))]);
        assert_eq!(v.get("n").unwrap().as_usize(), Some(42));
        assert_eq!(v.get("n").unwrap().as_u16(), Some(42));
        assert_eq!(v.get("n").unwrap().as_f64(), None, "no int→float coercion");
        assert_eq!(v.get("f").unwrap().as_int(), None);
        assert_eq!(v.get("missing"), None);
        assert_eq!(Value::Int(-1).as_u64(), None);

        assert_eq!(v.field_usize("n").unwrap(), 42);
        assert_eq!(v.field_u128("n").unwrap(), 42);
        assert_eq!(v.field_f64("f").unwrap(), 1.0);
        for (err, want) in [
            (v.field("missing").unwrap_err(), "missing key \"missing\""),
            (v.field_f64("n").unwrap_err(), "key \"n\" is not a float"),
            (v.field_u64("f").unwrap_err(), "key \"f\" is not a u64"),
            (v.field_str("n").unwrap_err(), "key \"n\" is not a string"),
            (v.list("the map").unwrap_err(), "the map must be a list"),
        ] {
            assert!(
                matches!(err, SnapshotError::Invalid(ref r) if r == want),
                "{err}"
            );
        }
        let negative = Value::obj(vec![("n", Value::Int(-1))]);
        assert!(negative.field_u128("n").is_err());
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,",
            "\"unterminated",
            "{\"a\" 1}",
            "01a",
            "1.2.3",
            "[1] trailing",
            "{\"k\":\"\\q\"}",
        ] {
            assert!(Value::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn escapes_and_multi_byte_characters_round_trip() {
        for text in [
            "",
            "\"",
            "\\",
            "ends in an escape\n",
            "\u{1}\u{1f} control characters",
            "é at the start, ü in the middle, ß at the end",
            "日本語のテキスト",
            "🦀\"🦀\\🦀\n🦀",
            "α\u{7}β",
        ] {
            let v = Value::Str(text.to_string());
            assert_eq!(round_trip(&v), v);
            let key = Value::Map(vec![(text.to_string(), Value::Int(1))]);
            assert_eq!(round_trip(&key), key);
        }
    }

    #[test]
    fn every_escape_the_reader_accepts_decodes() {
        assert_eq!(
            Value::parse(r#""a\/b\u00e9\u0041\u00e9é\t""#).unwrap(),
            Value::Str("a/béAéé\t".into())
        );
        assert_eq!(
            Value::parse(r#""\"\\\r\n""#).unwrap(),
            Value::Str("\"\\\r\n".into())
        );
    }

    #[test]
    fn malformed_strings_are_rejected() {
        for bad in [
            "\"é",
            "\"trailing backslash \\",
            "\"\\u12\"",
            "\"\\u00é\"",
            "\"\\ud800\"",
            "\"🦀\\x\"",
        ] {
            assert!(Value::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn long_strings_parse() {
        // Long enough that re-scanning the rest of the input per character
        // would take minutes.
        let text = "0123456789abcdé🦀\"\\".repeat(20_000);
        let v = Value::List(vec![Value::Str(text.clone()), Value::Str(text)]);
        assert_eq!(round_trip(&v), v);
    }
}
