//! Offline stand-in for `serde_json`. Serialization prints the serde
//! shim's [`Value`] tree as standard JSON text. Deserialization is
//! [`from_str`]: it runs the target type's streaming
//! [`Deserialize`] impl over a [`serde::Reader`] and
//! refuses trailing input, so no `Value` tree is built unless the target
//! is `Value`. Nesting deeper than [`serde::MAX_DEPTH`] is an error.

pub use serde::{Error, Value};

use serde::{Deserialize, Reader, Serialize};
use std::fmt::Write as _;

/// `Result` alias matching the real crate's signature shape.
pub type Result<T> = std::result::Result<T, Error>;

/// Serialize a value to compact JSON.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), None, 0);
    Ok(out)
}

/// Serialize a value to 2-space-indented JSON.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&mut out, &value.to_value(), Some(2), 0);
    Ok(out)
}

/// Serialize a value to compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

/// Parse JSON text into any deserializable type.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let mut r = Reader::new(s);
    let value = T::deserialize(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// Parse JSON bytes into any deserializable type.
pub fn from_slice<T: Deserialize>(b: &[u8]) -> Result<T> {
    let s = std::str::from_utf8(b).map_err(|e| Error::msg(e.to_string()))?;
    from_str(s)
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, depth: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(f) => {
            if f.is_finite() {
                // Rust's shortest round-trip float formatting; force a
                // fractional marker so integers stay floats on re-parse is
                // unnecessary (the Value model accepts either).
                let _ = write!(out, "{f}");
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_json_string(out, s),
        Value::Array(items) => write_seq(out, items.iter(), indent, depth, '[', ']', |o, x, d| {
            write_value(o, x, indent, d)
        }),
        Value::Object(pairs) => write_seq(
            out,
            pairs.iter(),
            indent,
            depth,
            '{',
            '}',
            |o, (k, x), d| {
                write_json_string(o, k);
                o.push(':');
                if indent.is_some() {
                    o.push(' ');
                }
                write_value(o, x, indent, d);
            },
        ),
    }
}

fn write_seq<I: ExactSizeIterator>(
    out: &mut String,
    items: I,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    mut write_item: impl FnMut(&mut String, I::Item, usize),
) {
    out.push(open);
    let n = items.len();
    for (i, item) in items.enumerate() {
        if let Some(step) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(step * (depth + 1)));
        }
        write_item(out, item, depth + 1);
        if i + 1 < n {
            out.push(',');
        }
    }
    if n > 0 {
        if let Some(step) = indent {
            out.push('\n');
            out.push_str(&" ".repeat(step * depth));
        }
    }
    out.push(close);
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        let v: f64 = from_str(&to_string(&1.5f64).unwrap()).unwrap();
        assert_eq!(v, 1.5);
        let v: u64 = from_str(&to_string(&u64::MAX).unwrap()).unwrap();
        assert_eq!(v, u64::MAX);
        let v: String = from_str(&to_string(&"a\"b\\c\nd").unwrap()).unwrap();
        assert_eq!(v, "a\"b\\c\nd");
        let v: Option<i32> = from_str("null").unwrap();
        assert_eq!(v, None);
    }

    #[test]
    fn round_trip_containers() {
        let x = vec![(1usize, 2.5f64), (3, 4.0)];
        let s = to_string(&x).unwrap();
        let back: Vec<(usize, f64)> = from_str(&s).unwrap();
        assert_eq!(back, x);
    }

    #[test]
    fn nan_becomes_null_and_back() {
        let s = to_string(&f64::NAN).unwrap();
        assert_eq!(s, "null");
        let v: f64 = from_str(&s).unwrap();
        assert!(v.is_nan());
    }

    #[derive(Debug, PartialEq, serde::Deserialize)]
    struct Sample {
        count: u32,
        ratio: f64,
        name: String,
        tags: Vec<Shape>,
    }

    #[derive(Debug, PartialEq, serde::Deserialize)]
    enum Shape {
        Dot,
        Pair(u8, u8),
        Boxed(i64),
        Rect { w: u32, h: u32 },
    }

    const SAMPLE: &str = r#"{"count":3,"ratio":0.5,"name":"a","tags":["Dot",{"Pair":[1,2]},{"Boxed":-4},{"Rect":{"w":2,"h":1}}]}"#;

    #[test]
    fn derived_impls_stream_structs_and_every_enum_shape() {
        let s: Sample = from_str(SAMPLE).unwrap();
        assert_eq!(
            s,
            Sample {
                count: 3,
                ratio: 0.5,
                name: "a".into(),
                tags: vec![
                    Shape::Dot,
                    Shape::Pair(1, 2),
                    Shape::Boxed(-4),
                    Shape::Rect { w: 2, h: 1 }
                ],
            }
        );
        // Key order does not matter.
        let s2: Sample = from_str(r#"{"tags":[],"name":"a","ratio":0.5,"count":3}"#).unwrap();
        assert_eq!((s2.count, s2.tags.len()), (3, 0));
        for bad in [
            r#""Circle""#,
            r#"{"Circle":1}"#,
            r#"{"Boxed":1,"Dot":2}"#,
            r#"{}"#,
            "7",
        ] {
            assert!(from_str::<Shape>(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn missing_duplicate_and_unknown_fields() {
        let err = from_str::<Sample>(r#"{"count":3,"ratio":0.5,"tags":[]}"#).unwrap_err();
        assert!(err.to_string().contains("missing field `name`"), "{err}");
        let dup = r#"{"count":3,"count":4,"ratio":0.5,"name":"a","tags":[]}"#;
        assert!(from_str::<Sample>(dup).is_err());
        // An unknown field is skipped, whatever its shape.
        let extra =
            r#"{"count":3,"x":{"y":[1,{"z":null}],"w":"\u00e9"},"ratio":0.5,"name":"a","tags":[]}"#;
        assert_eq!(from_str::<Sample>(extra).unwrap().count, 3);
        // ...but it must still be well-formed JSON.
        assert!(
            from_str::<Sample>(r#"{"x":[1,,2],"count":3,"ratio":0.5,"name":"a","tags":[]}"#)
                .is_err()
        );
    }

    #[test]
    fn number_coercions_match_the_value_model() {
        let s: Sample = from_str(r#"{"count":3.0,"ratio":null,"name":"a","tags":[]}"#).unwrap();
        assert_eq!(s.count, 3, "an integral float reads as an integer");
        assert!(s.ratio.is_nan(), "null reads as NaN");
        let s: Sample = from_str(r#"{"count":3,"ratio":2,"name":"a","tags":[]}"#).unwrap();
        assert_eq!(s.ratio, 2.0, "an integer reads as a float");
        for bad in ["3.5", "-1", "4294967296", "\"3\"", "null"] {
            let json = format!(r#"{{"count":{bad},"ratio":0,"name":"a","tags":[]}}"#);
            assert!(from_str::<Sample>(&json).is_err(), "{bad}");
        }
        assert_eq!(from_str::<i64>("-0").unwrap(), 0);
        assert_eq!(from_str::<i64>("-9223372036854775808").unwrap(), i64::MIN);
        assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
        assert_eq!(from_str::<f64>("1e3").unwrap(), 1000.0);
    }

    #[test]
    fn trailing_input_and_bad_syntax_are_errors() {
        assert_eq!(from_str::<u8>(" 7 \n").unwrap(), 7);
        for bad in [
            "7 7",
            "[1] x",
            "[1,]",
            "{\"a\":1,}",
            "[1 2]",
            "{\"a\" 1}",
            "tru",
            "\"ab",
            "",
            "-",
        ] {
            assert!(from_str::<Value>(bad).is_err(), "{bad:?}");
        }
        assert!(from_str::<Sample>(&format!("{SAMPLE},")).is_err());
    }

    #[test]
    fn surrogate_pairs_decode_to_one_scalar() {
        let v: String = from_str(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v, "\u{1F600}");
        // Unpaired surrogates read as U+FFFD; what follows is kept.
        let v: String = from_str(r#""a\ud83dz\ude00\ud83d\u0041""#).unwrap();
        assert_eq!(v, "a\u{fffd}z\u{fffd}\u{fffd}A");
        assert!(from_str::<String>(r#""\ud83d\u12""#).is_err());
    }

    #[test]
    fn nesting_is_bounded_without_overflowing_the_stack() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(from_str::<Value>(&deep(serde::MAX_DEPTH)).is_ok());
        assert!(from_str::<Value>(&deep(serde::MAX_DEPTH + 1)).is_err());
        // 200,000 unclosed `[` used to recurse until the thread's stack
        // overflowed; on a 2 MiB stack they are now an error.
        let opens = "[".repeat(200_000);
        let result = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                (
                    from_str::<Value>(&opens).is_err(),
                    from_str::<Vec<Value>>(&opens).is_err(),
                )
            })
            .unwrap()
            .join()
            .expect("the reader must not overflow a 2 MiB stack");
        assert_eq!(result, (true, true));
    }

    #[test]
    fn pretty_output_parses() {
        let x = vec![vec![1, 2], vec![3]];
        let s = to_string_pretty(&x).unwrap();
        assert!(s.contains('\n'));
        let back: Vec<Vec<i64>> = from_str(&s).unwrap();
        assert_eq!(back, x);
    }
}
