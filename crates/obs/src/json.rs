//! The workspace's one JSON codec: escape-correct writer helpers (the
//! hot paths and the report writers build JSON by hand into a
//! caller-owned `String`), a 2-space pretty-printer for report files,
//! and a small recursive-descent parser used to read a flight-recorder
//! dump back for replay. Both ends are deliberately tiny — just enough
//! to round-trip the workspace's own output — so the observability
//! layer stays dependency-free.

use std::fmt::Write as _;

/// Append `s` as a JSON string literal (quotes included) with the
/// mandatory escapes (`"`, `\`, control characters).
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append a finite `f64` as a JSON number; non-finite values (which
/// JSON cannot express) become `null`.
pub fn push_json_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Append `[a, b, ...]` for a float slice.
pub fn push_json_f64_array(out: &mut String, vs: &[f64]) {
    out.push('[');
    for (i, &v) in vs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_f64(out, v);
    }
    out.push(']');
}

/// Append `[a, b, ...]` for an integer slice.
pub fn push_json_u64_array(out: &mut String, vs: &[u64]) {
    out.push('[');
    for (i, &v) in vs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{v}");
    }
    out.push(']');
}

/// Append `["a", "b", ...]` for a string slice.
pub fn push_json_str_array(out: &mut String, vs: &[String]) {
    out.push('[');
    for (i, v) in vs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, v);
    }
    out.push(']');
}

/// Append `"key":` to an object under construction, after a comma
/// unless `out` has just opened it, and hand `out` back for the value.
pub fn push_json_key<'a>(out: &'a mut String, key: &str) -> &'a mut String {
    if !out.ends_with('{') {
        out.push(',');
    }
    push_json_str(out, key);
    out.push(':');
    out
}

/// Re-indent compact JSON with two spaces per level and `": "` after
/// each key; empty containers stay on one line. Strings pass through
/// untouched. The one pretty-printer behind every `--json` report file.
pub fn pretty(compact: &str) -> String {
    fn newline(out: &mut String, indent: usize) {
        out.push('\n');
        for _ in 0..indent {
            out.push_str("  ");
        }
    }
    let mut out = String::with_capacity(compact.len() * 2);
    let mut indent = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut chars = compact.chars().peekable();
    while let Some(c) = chars.next() {
        if in_string {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(c);
            }
            '{' | '[' => {
                out.push(c);
                let close = if c == '{' { '}' } else { ']' };
                if chars.peek() == Some(&close) {
                    out.push(close);
                    chars.next();
                } else {
                    indent += 1;
                    newline(&mut out, indent);
                }
            }
            '}' | ']' => {
                indent = indent.saturating_sub(1);
                newline(&mut out, indent);
                out.push(c);
            }
            ',' => {
                out.push(c);
                newline(&mut out, indent);
            }
            ':' => out.push_str(": "),
            c => out.push(c),
        }
    }
    out
}

/// A parsed JSON value. Numbers are kept as `f64` — every quantity this
/// crate serializes fits without loss at the precision we care about.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in document order (duplicate keys keep the first).
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parse a complete JSON document.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut p = Parser { b: text.as_bytes(), i: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(format!("trailing bytes at offset {}", p.i));
        }
        Ok(v)
    }

    /// Object field lookup (first match).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Num(v) if *v >= 0.0 && v.fract() == 0.0 => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(vs) => Some(vs),
            _ => None,
        }
    }

    /// An array of numbers, collected.
    pub fn f64_array(&self) -> Option<Vec<f64>> {
        self.as_array()?.iter().map(JsonValue::as_f64).collect()
    }

    /// An array of non-negative integers, collected.
    pub fn u64_array(&self) -> Option<Vec<u64>> {
        self.as_array()?.iter().map(JsonValue::as_u64).collect()
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.i))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.i;
        while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
            self.i += 1;
        }
        let text = std::str::from_utf8(&self.b[start..self.i])
            .map_err(|_| format!("bad number at offset {start}"))?;
        text.parse::<f64>()
            .map(JsonValue::Num)
            .map_err(|_| format!("bad number {text:?} at offset {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let code = self.hex4()?;
                            // Surrogate pairs are not produced by this
                            // crate's writer; map lone surrogates to the
                            // replacement character rather than failing.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            continue;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.i)),
                    }
                    self.i += 1;
                }
                Some(_) => {
                    // Copy the whole run up to the next `"` or `\` at
                    // once. The input is a &str and both ends of the run
                    // sit on ASCII bytes, so the run is valid UTF-8.
                    let start = self.i;
                    while !matches!(self.peek(), None | Some(b'"' | b'\\')) {
                        self.i += 1;
                    }
                    let run =
                        std::str::from_utf8(&self.b[start..self.i]).map_err(|e| e.to_string())?;
                    out.push_str(run);
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        // Called with self.i on the 'u'.
        let start = self.i + 1;
        let end = start + 4;
        if end > self.b.len() {
            return Err("truncated \\u escape".into());
        }
        let hex = std::str::from_utf8(&self.b[start..end]).map_err(|e| e.to_string())?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.i = end;
        Ok(code)
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.i)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_escapes_and_parser_reads_them_back() {
        let mut out = String::new();
        push_json_str(&mut out, "a\"b\\c\nd\u{1}e");
        let v = JsonValue::parse(&out).expect("parse");
        assert_eq!(v.as_str(), Some("a\"b\\c\nd\u{1}e"));

        // Multi-byte scalars (2, 3 and 4 bytes) next to escapes.
        let text = "é\"→\\😀\nx→é";
        out.clear();
        push_json_str(&mut out, text);
        assert_eq!(JsonValue::parse(&out).expect("parse").as_str(), Some(text));
    }

    #[test]
    fn parses_nested_documents() {
        let v = JsonValue::parse(r#"{"a": [1, 2.5, -3e1], "b": {"c": null, "d": true}}"#)
            .expect("parse");
        assert_eq!(v.get("a").unwrap().f64_array(), Some(vec![1.0, 2.5, -30.0]));
        assert_eq!(v.get("b").unwrap().get("c"), Some(&JsonValue::Null));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(JsonValue::parse("{} x").is_err());
        assert!(JsonValue::parse("[1,").is_err());
        assert!(JsonValue::parse("\"open").is_err());
    }

    #[test]
    fn non_finite_floats_serialize_as_null() {
        let mut out = String::new();
        push_json_f64(&mut out, f64::INFINITY);
        assert_eq!(out, "null");
    }

    #[test]
    fn u64_array_round_trips() {
        let mut out = String::new();
        push_json_u64_array(&mut out, &[0, 7, u32::MAX as u64]);
        let v = JsonValue::parse(&out).expect("parse");
        assert_eq!(v.u64_array(), Some(vec![0, 7, u32::MAX as u64]));
    }
}
