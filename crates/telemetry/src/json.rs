//! A small JSON writer: build a [`Json`] value, then print it with `{}`
//! (one line) or `{:#}` (pretty: a container whose members are all
//! scalars stays on one line, any other puts each member on its own
//! indented line).
//!
//! ```
//! use ss_telemetry::json::Json;
//!
//! let row = Json::object([("s", Json::exp(0.0125, 2)), ("n", Json::from(3u32))]);
//! let doc = Json::object([("rows", Json::Array(vec![row]))]);
//! assert_eq!(doc.to_string(), r#"{"rows":[{"s":1.25e-2,"n":3}]}"#);
//! assert_eq!(format!("{doc:#}"), "{\n  \"rows\": [\n    {\"s\": 1.25e-2, \"n\": 3}\n  ]\n}");
//! ```

use std::fmt::{self, Write as _};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// A number as its JSON text; build it with `From`,
    /// [`Json::fixed`] or [`Json::exp`].
    Number(String),
    /// A string, escaped when written.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, written in member order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` members.
    pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// `value` with `decimals` digits after the point; `null` unless
    /// finite.
    pub fn fixed(value: f64, decimals: usize) -> Json {
        Json::float(value, format!("{value:.decimals$}"))
    }

    /// `value` in scientific notation (`{:.Ne}`, e.g. `2.700015e-2`);
    /// `null` unless finite.
    pub fn exp(value: f64, decimals: usize) -> Json {
        Json::float(value, format!("{value:.decimals$e}"))
    }

    fn float(value: f64, text: String) -> Json {
        if value.is_finite() {
            Json::Number(text)
        } else {
            Json::Null
        }
    }

    /// Writes `self`; `indent` is the nesting depth when pretty.
    fn write(&self, f: &mut fmt::Formatter<'_>, indent: Option<usize>) -> fmt::Result {
        let (open, close, members): (_, _, Vec<(Option<&str>, &Json)>) = match self {
            Json::Null => return f.write_str("null"),
            Json::Number(text) => return f.write_str(text),
            Json::String(s) => return write_escaped(f, s),
            Json::Array(items) => ('[', ']', items.iter().map(|v| (None, v)).collect()),
            Json::Object(members) => {
                let members = members.iter().map(|(k, v)| (Some(k.as_str()), v));
                ('{', '}', members.collect())
            }
        };
        // pretty output breaks lines only around members that nest
        let nested = |v: &&Json| matches!(v, Json::Array(_) | Json::Object(_));
        let broken = indent.filter(|_| members.iter().any(|(_, v)| nested(v)));
        let colon = if indent.is_some() { ": " } else { ":" };
        let comma = if indent.is_some() && broken.is_none() {
            ", "
        } else {
            ","
        };
        f.write_char(open)?;
        for (i, (key, value)) in members.into_iter().enumerate() {
            if i > 0 {
                f.write_str(comma)?;
            }
            if let Some(depth) = broken {
                write!(f, "\n{:1$}", "", 2 * (depth + 1))?;
            }
            if let Some(key) = key {
                write_escaped(f, key)?;
                f.write_str(colon)?;
            }
            value.write(f, indent.map(|depth| depth + 1))?;
        }
        if let Some(depth) = broken {
            write!(f, "\n{:1$}", "", 2 * depth)?;
        }
        f.write_char(close)
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, f.alternate().then_some(0))
    }
}

macro_rules! json_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::Number(n.to_string())
            }
        }
    )*};
}
json_number!(u32, u64, usize);

/// The shortest text that reads back as `value`; `null` unless finite.
impl From<f64> for Json {
    fn from(value: f64) -> Json {
        Json::float(value, value.to_string())
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::String(s.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped() {
        let s = Json::from("a\"b\\c\nd\u{1}é");
        assert_eq!(s.to_string(), r#""a\"b\\c\nd\u0001é""#);
        let keyed = Json::object([("k\"", Json::Null)]);
        assert_eq!(keyed.to_string(), r#"{"k\"":null}"#);
    }

    #[test]
    fn numbers_keep_their_format_and_non_finite_is_null() {
        assert_eq!(Json::exp(0.02700015, 6).to_string(), "2.700015e-2");
        assert_eq!(Json::exp(1.82001, 6).to_string(), "1.820010e0");
        assert_eq!(Json::fixed(765.1849, 2).to_string(), "765.18");
        assert_eq!(Json::from(0.25).to_string(), "0.25");
        assert_eq!(Json::from(u64::MAX).to_string(), "18446744073709551615");
        assert_eq!(Json::fixed(f64::NAN, 2), Json::Null);
        assert_eq!(Json::exp(f64::INFINITY, 6), Json::Null);
    }

    #[test]
    fn compact_output_has_no_whitespace() {
        let doc = Json::object([
            ("a", Json::Array(vec![Json::from(1u32), Json::Null])),
            ("b", Json::object::<&str>([])),
            ("c", Json::Array(vec![])),
        ]);
        assert_eq!(doc.to_string(), r#"{"a":[1,null],"b":{},"c":[]}"#);
    }

    #[test]
    fn pretty_output_puts_flat_containers_on_one_line() {
        let row = |n: u32| Json::object([("n", Json::from(n)), ("x", Json::fixed(0.5, 1))]);
        let doc = Json::object([
            ("bench", Json::from("b")),
            ("rows", Json::Array(vec![row(1), row(2)])),
            ("empty", Json::Array(vec![])),
        ]);
        assert_eq!(
            format!("{doc:#}"),
            "{\n  \"bench\": \"b\",\n  \"rows\": [\n    {\"n\": 1, \"x\": 0.5},\n    {\"n\": 2, \"x\": 0.5}\n  ],\n  \"empty\": []\n}"
        );
    }
}
