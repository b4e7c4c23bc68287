//! Offline stand-in for `serde`, used because this build environment has
//! no access to crates.io. It keeps the call-sites of the real crate —
//! `use serde::{Serialize, Deserialize}` plus `#[derive(...)]` — but
//! replaces serde's visitor architecture with two small pieces:
//!
//! * **Serialization** builds a JSON-like [`Value`] tree, which
//!   `serde_json` (the sibling shim) prints.
//! * **Deserialization streams.** [`Deserialize::deserialize`] reads
//!   straight from a [`Reader`], a JSON cursor over borrowed text, and
//!   derived impls dispatch on each object key as it is read. No `Value`
//!   tree is built unless the target is `Value` itself; unknown fields
//!   are skipped without one. Nesting is bounded at [`MAX_DEPTH`], so
//!   hostile input is an error, never a stack overflow.
//!
//! Decoding rules (the same for derived and hand-written impls): a
//! missing or duplicated field is an error, an unknown field is skipped,
//! `null` reads as NaN for floats, an integral float is accepted for an
//! integer, and `serde_json::from_str` refuses trailing input.
//!
//! Supported shapes match what this workspace derives: structs with named
//! fields, enums with unit / tuple (up to four fields) / struct variants,
//! and the std types implemented below. Unsupported input is a compile
//! error in the derive.

pub use serde_derive::{Deserialize, Serialize};

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// The serialization data model: a JSON document tree.
///
/// Integers and floats are kept apart so that `u64` round-trips exactly
/// (an `i128` holds every `u64` and `i64`).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null` (also used for non-finite floats).
    Null,
    /// JSON booleans.
    Bool(bool),
    /// Integers (exact).
    Int(i128),
    /// Floating-point numbers.
    Float(f64),
    /// Strings.
    Str(String),
    /// Arrays.
    Array(Vec<Value>),
    /// Objects; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The fields of an object, if this is one.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(o) => Some(o),
            _ => None,
        }
    }

    /// The elements of an array, if this is one.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// String content, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean content, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Integer content; floats with an exact integer value also convert.
    pub fn as_int(&self) -> Option<i128> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 && f.abs() < 1e30 => Some(*f as i128),
            _ => None,
        }
    }

    /// Numeric content as `f64`; `null` maps to NaN (non-finite floats
    /// are serialized as `null`, mirroring `serde_json`).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// Look up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()
            .and_then(|o| o.iter().find(|(k, _)| k == key).map(|(_, v)| v))
    }
}

/// Serialization/deserialization error: a message.
#[derive(Debug, Clone)]
pub struct Error(pub String);

impl Error {
    /// Build an error from a message.
    pub fn msg(m: impl Into<String>) -> Self {
        Error(m.into())
    }

    /// A required field that the object did not contain.
    pub fn missing(field: &str) -> Self {
        Error(format!("missing field `{field}`"))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Types that can be turned into a [`Value`].
pub trait Serialize {
    /// Convert `self` into the data model.
    fn to_value(&self) -> Value;
}

/// Types that can be read from JSON text.
pub trait Deserialize: Sized {
    /// Read one JSON value from `r` and build `Self` from it.
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error>;
}

/// Deepest nesting of arrays and objects the [`Reader`] accepts —
/// `serde_json`'s default recursion limit.
pub const MAX_DEPTH: usize = 128;

/// A JSON cursor over borrowed text: the one parser behind every
/// [`Deserialize`] impl.
///
/// Objects are read as `begin_object` followed by `next_key` until it
/// returns `None`, decoding (or skipping) one value after each key;
/// arrays as `begin_array` followed by `next_element` until it returns
/// `false`. Strings without escapes are borrowed from the input.
pub struct Reader<'de> {
    text: &'de str,
    pos: usize,
    depth: usize,
    /// Just opened a container: the next item takes no leading comma.
    fresh: bool,
}

impl<'de> Reader<'de> {
    /// A reader positioned at the start of `text`.
    pub fn new(text: &'de str) -> Self {
        Reader {
            text,
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    /// Succeed only if nothing but whitespace is left.
    pub fn finish(mut self) -> Result<(), Error> {
        match self.peek() {
            None => Ok(()),
            Some(_) => Err(self.error("trailing input")),
        }
    }

    /// An error naming the current byte offset.
    pub fn error(&self, what: impl fmt::Display) -> Error {
        Error(format!("{what} at byte {}", self.pos))
    }

    /// Skip whitespace and return the next byte without consuming it.
    #[inline]
    pub fn peek(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        while let Some(&b) = bytes.get(self.pos) {
            if !matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                return Some(b);
            }
            self.pos += 1;
        }
        None
    }

    fn literal(&mut self, lit: &str) -> Result<(), Error> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.error("bad literal"))
        }
    }

    /// Consume a `null` if one is next; `false` (nothing consumed)
    /// otherwise.
    #[inline]
    pub fn read_null(&mut self) -> Result<bool, Error> {
        if self.peek() != Some(b'n') {
            return Ok(false);
        }
        self.literal("null").map(|()| true)
    }

    /// Read `true` or `false`.
    pub fn read_bool(&mut self) -> Result<bool, Error> {
        match self.peek() {
            Some(b't') => self.literal("true").map(|()| true),
            Some(b'f') => self.literal("false").map(|()| false),
            _ => Err(self.error("expected bool")),
        }
    }

    /// Read a number as [`Value::Int`] (no `.`, `e` or sign after the
    /// first byte) or [`Value::Float`].
    #[inline]
    pub fn read_number(&mut self) -> Result<Value, Error> {
        let bytes = self.text.as_bytes();
        let (start, negative) = match self.peek() {
            Some(b'-') => (self.pos, true),
            Some(b) if b.is_ascii_digit() => (self.pos, false),
            _ => return Err(self.error("expected number")),
        };
        self.pos += usize::from(negative);
        // Accumulate digits during the scan, so a short integer — most
        // numbers in a model bundle — needs no second pass.
        let (mut acc, mut digits, mut is_float) = (0u64, 0u32, false);
        while let Some(&b) = bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => {
                    acc = acc.wrapping_mul(10).wrapping_add(u64::from(b - b'0'));
                    digits += 1;
                }
                b'.' | b'e' | b'E' | b'+' | b'-' => is_float = true,
                _ => break,
            }
            self.pos += 1;
        }
        if !is_float && (1..=19).contains(&digits) {
            let i = i128::from(acc);
            return Ok(Value::Int(if negative { -i } else { i }));
        }
        let text = &self.text[start..self.pos];
        let parsed = if is_float {
            text.parse().map(Value::Float).map_err(|e| e.to_string())
        } else {
            text.parse().map(Value::Int).map_err(|e| e.to_string())
        };
        parsed.map_err(|e| Error(format!("bad number `{text}` at byte {start}: {e}")))
    }

    /// Read an integer; a float with an exact integer value also reads.
    #[inline]
    pub fn read_int(&mut self) -> Result<i128, Error> {
        let start = self.pos;
        self.read_number()?
            .as_int()
            .ok_or_else(|| Error(format!("expected integer at byte {start}")))
    }

    /// Read a number as `f64`; `null` reads as NaN.
    #[inline]
    pub fn read_f64(&mut self) -> Result<f64, Error> {
        if self.read_null()? {
            return Ok(f64::NAN);
        }
        let start = self.pos;
        self.read_number()?
            .as_f64()
            .ok_or_else(|| Error(format!("expected number at byte {start}")))
    }

    /// Read a string, borrowed from the input when it has no escapes.
    #[inline]
    pub fn read_str(&mut self) -> Result<Cow<'de, str>, Error> {
        if self.peek() != Some(b'"') {
            return Err(self.error("expected string"));
        }
        self.pos += 1;
        let text = self.text;
        let mut owned: Option<String> = None;
        loop {
            let run = self.pos;
            let Some(len) = text.as_bytes()[run..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
            else {
                self.pos = text.len();
                return Err(self.error("unterminated string"));
            };
            self.pos += len + 1;
            // `"` and `\` are ASCII, so `run..run + len` lies on char
            // boundaries of `text`.
            let chunk = &text[run..run + len];
            if text.as_bytes()[run + len] == b'"' {
                return Ok(match owned {
                    None => Cow::Borrowed(chunk),
                    Some(mut s) => {
                        s.push_str(chunk);
                        Cow::Owned(s)
                    }
                });
            }
            let s = owned.get_or_insert_with(String::new);
            s.push_str(chunk);
            s.push(self.read_escape()?);
        }
    }

    /// The character an escape stands for; the `\` is already consumed.
    fn read_escape(&mut self) -> Result<char, Error> {
        let Some(&e) = self.text.as_bytes().get(self.pos) else {
            return Err(self.error("unterminated escape"));
        };
        self.pos += 1;
        Ok(match e {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'b' => '\u{08}',
            b'f' => '\u{0c}',
            b'u' => {
                let hi = self.read_hex4()?;
                // A high surrogate combines with a directly following
                // `\u` low surrogate; any unpaired surrogate reads as
                // U+FFFD.
                if (0xD800..0xDC00).contains(&hi)
                    && self.text.as_bytes()[self.pos..].starts_with(b"\\u")
                {
                    let save = self.pos;
                    self.pos += 2;
                    let lo = self.read_hex4()?;
                    if (0xDC00..0xE000).contains(&lo) {
                        let cp = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                        return Ok(char::from_u32(cp).unwrap_or('\u{fffd}'));
                    }
                    self.pos = save;
                }
                char::from_u32(hi).unwrap_or('\u{fffd}')
            }
            other => return Err(self.error(format!("bad escape `\\{}`", other as char))),
        })
    }

    fn read_hex4(&mut self) -> Result<u32, Error> {
        let digits = self
            .text
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("short \\u escape"))?;
        let mut cp = 0;
        for &d in digits {
            let v = (d as char)
                .to_digit(16)
                .ok_or_else(|| self.error("bad \\u escape"))?;
            cp = cp * 16 + v;
        }
        self.pos += 4;
        Ok(cp)
    }

    #[inline]
    fn open(&mut self, open: u8, what: &str) -> Result<(), Error> {
        if self.peek() != Some(open) {
            return Err(self.error(what));
        }
        if self.depth == MAX_DEPTH {
            return Err(self.error(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.pos += 1;
        self.depth += 1;
        self.fresh = true;
        Ok(())
    }

    /// `true` if the open container has another item (its separating
    /// comma consumed); `false` after consuming the `close` byte.
    #[inline]
    fn more(&mut self, close: u8) -> Result<bool, Error> {
        if self.peek() == Some(close) {
            self.pos += 1;
            self.depth -= 1;
            self.fresh = false;
            return Ok(false);
        }
        if !std::mem::replace(&mut self.fresh, false) {
            if self.peek() != Some(b',') {
                return Err(self.error(format!("expected `,` or `{}`", close as char)));
            }
            self.pos += 1;
        }
        Ok(true)
    }

    /// Consume the `{` that opens an object.
    #[inline]
    pub fn begin_object(&mut self) -> Result<(), Error> {
        self.open(b'{', "expected object")
    }

    /// The next key of the open object (its `:` consumed), or `None`
    /// after consuming the closing `}`.
    #[inline]
    pub fn next_key(&mut self) -> Result<Option<Cow<'de, str>>, Error> {
        if !self.more(b'}')? {
            return Ok(None);
        }
        let key = self.read_str()?;
        if self.peek() != Some(b':') {
            return Err(self.error("expected `:`"));
        }
        self.pos += 1;
        Ok(Some(key))
    }

    /// Consume the `[` that opens an array.
    #[inline]
    pub fn begin_array(&mut self) -> Result<(), Error> {
        self.open(b'[', "expected array")
    }

    /// `true` if the open array has another element to read; `false`
    /// after consuming the closing `]`.
    #[inline]
    pub fn next_element(&mut self) -> Result<bool, Error> {
        self.more(b']')
    }

    /// Read and discard one value (an unknown field), checking its
    /// syntax but building nothing.
    pub fn skip_value(&mut self) -> Result<(), Error> {
        match self.peek() {
            Some(b'{') => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip_value()?;
                }
            }
            Some(b'[') => {
                self.begin_array()?;
                while self.next_element()? {
                    self.skip_value()?;
                }
            }
            Some(b'"') => drop(self.read_str()?),
            Some(b't' | b'f') => drop(self.read_bool()?),
            Some(b'n') => drop(self.read_null()?),
            _ => drop(self.read_number()?),
        }
        Ok(())
    }

    /// Decode the value of field `name` into `slot`, refusing a second
    /// occurrence of the field (derive-generated code calls this).
    pub fn fill<T: Deserialize>(&mut self, slot: &mut Option<T>, name: &str) -> Result<(), Error> {
        if slot.is_some() {
            return Err(self.error(format!("duplicate field `{name}`")));
        }
        *slot = Some(T::deserialize(self)?);
        Ok(())
    }
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Int(*self as i128)
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                let i = r.read_int()?;
                <$t>::try_from(i)
                    .map_err(|_| Error::msg(format!("integer {i} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let f = *self as f64;
                if f.is_finite() {
                    Value::Float(f)
                } else {
                    Value::Null
                }
            }
        }
        impl Deserialize for $t {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                r.read_f64().map(|f| f as $t)
            }
        }
    )*};
}

impl_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.read_bool()
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.read_str().map(Cow::into_owned)
    }
}

impl Serialize for &str {
    fn to_value(&self) -> Value {
        Value::Str((*self).to_string())
    }
}

/// `&'static str` deserialization leaks the parsed string. Only static
/// metadata tables (e.g. graph names) flow through this path, so the leak
/// is bounded and acceptable for a shim.
impl Deserialize for &'static str {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.read_str()
            .map(|s| &*Box::leak(s.into_owned().into_boxed_str()))
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        let s = r.read_str()?;
        let mut it = s.chars();
        match (it.next(), it.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::msg("expected single-char string")),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        if r.read_null()? {
            Ok(None)
        } else {
            T::deserialize(r).map(Some)
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.begin_array()?;
        let mut out = Vec::new();
        while r.next_element()? {
            out.push(T::deserialize(r)?);
        }
        Ok(out)
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        T::deserialize(r).map(Box::new)
    }
}

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.clone(), v.to_value()))
                .collect(),
        )
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        r.begin_object()?;
        let mut out = BTreeMap::new();
        while let Some(k) = r.next_key()? {
            out.insert(k.into_owned(), V::deserialize(r)?);
        }
        Ok(out)
    }
}

macro_rules! impl_tuple {
    ($(($($t:ident . $idx:tt),+);)*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$idx.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
                let n = [$($idx),+].len();
                let short = || Error::msg(format!("expected {n}-tuple array"));
                r.begin_array()?;
                let out = ($(
                    if r.next_element()? { $t::deserialize(r)? } else { return Err(short()) },
                )+);
                if r.next_element()? {
                    return Err(short());
                }
                Ok(out)
            }
        }
    )*};
}

impl_tuple! {
    (A.0);
    (A.0, B.1);
    (A.0, B.1, C.2);
    (A.0, B.1, C.2, D.3);
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

/// The one place a [`Value`] tree is built from text.
impl Deserialize for Value {
    fn deserialize(r: &mut Reader<'_>) -> Result<Self, Error> {
        if r.read_null()? {
            return Ok(Value::Null);
        }
        Ok(match r.peek() {
            Some(b't' | b'f') => Value::Bool(r.read_bool()?),
            Some(b'"') => Value::Str(r.read_str()?.into_owned()),
            Some(b'[') => {
                r.begin_array()?;
                let mut items = Vec::new();
                while r.next_element()? {
                    items.push(Value::deserialize(r)?);
                }
                Value::Array(items)
            }
            Some(b'{') => {
                r.begin_object()?;
                let mut pairs = Vec::new();
                while let Some(k) = r.next_key()? {
                    pairs.push((k.into_owned(), Value::deserialize(r)?));
                }
                Value::Object(pairs)
            }
            _ => r.read_number()?,
        })
    }
}
