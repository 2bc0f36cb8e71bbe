//! A tiny hand-rolled JSON surface: a pretty-printing writer and a
//! syntax validator.
//!
//! The repo takes no external dependencies, so every report that
//! leaves the engine as JSON (`SCOREBOARD.json`, `HealthSnapshot`) is
//! assembled by hand. This module centralizes that assembly — one
//! escaper, one float policy (non-finite → `null`), one indentation
//! style — and provides [`is_valid`] so tests can assert
//! round-trippability without a parser dependency.

/// Incremental writer producing pretty-printed (2-space indented) JSON.
///
/// The caller drives it with `begin_*`/`end_*`/`key`/`value_*` calls;
/// commas and newlines are inserted automatically. The writer does not
/// validate call order — mismatched begin/end pairs produce garbage —
/// but [`is_valid`] in tests catches that.
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: String,
    /// One frame per open container: `true` once the container has at
    /// least one element (so the next element needs a comma).
    stack: Vec<bool>,
    /// Set after `key(…)`: the next value continues the current line.
    after_key: bool,
}

impl JsonWriter {
    /// A fresh writer with no output.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer and returns the accumulated JSON text.
    pub fn finish(self) -> String {
        self.out
    }

    fn newline_indent(&mut self) {
        self.out.push('\n');
        for _ in 0..self.stack.len() {
            self.out.push_str("  ");
        }
    }

    /// Positions the cursor for the next element: after a key it stays
    /// on the line; inside a container it emits the comma/newline.
    fn pre_element(&mut self) {
        if self.after_key {
            self.after_key = false;
            return;
        }
        if let Some(has_elems) = self.stack.last_mut() {
            if *has_elems {
                self.out.push(',');
            }
            *has_elems = true;
            self.newline_indent();
        }
    }

    /// Opens a `{`.
    pub fn begin_object(&mut self) {
        self.pre_element();
        self.out.push('{');
        self.stack.push(false);
    }

    /// Closes the innermost `{`.
    pub fn end_object(&mut self) {
        let had_elems = self.stack.pop().unwrap_or(false);
        if had_elems {
            self.newline_indent();
        }
        self.out.push('}');
    }

    /// Opens a `[`.
    pub fn begin_array(&mut self) {
        self.pre_element();
        self.out.push('[');
        self.stack.push(false);
    }

    /// Closes the innermost `[`.
    pub fn end_array(&mut self) {
        let had_elems = self.stack.pop().unwrap_or(false);
        if had_elems {
            self.newline_indent();
        }
        self.out.push(']');
    }

    /// Emits an object key; the next `value_*`/`begin_*` call is its value.
    pub fn key(&mut self, name: &str) {
        self.pre_element();
        self.out.push('"');
        escape_into(name, &mut self.out);
        self.out.push_str("\": ");
        self.after_key = true;
    }

    /// Emits an unsigned integer value.
    pub fn value_u64(&mut self, v: u64) {
        self.pre_element();
        self.out.push_str(&v.to_string());
    }

    /// Emits a signed integer value.
    pub fn value_i64(&mut self, v: i64) {
        self.pre_element();
        self.out.push_str(&v.to_string());
    }

    /// Emits a float; NaN and ±∞ have no JSON spelling and become `null`.
    pub fn value_f64(&mut self, v: f64) {
        self.pre_element();
        if v.is_finite() {
            // `{}` on f64 is the shortest representation that parses
            // back exactly; it never produces exponent notation for
            // the magnitudes metrics reach.
            let repr = format!("{v}");
            self.out.push_str(&repr);
            // Keep integral floats visibly floats ("3.0", not "3").
            if !repr.contains(['.', 'e', 'E']) {
                self.out.push_str(".0");
            }
        } else {
            self.out.push_str("null");
        }
    }

    /// Emits a string value, escaped.
    pub fn value_str(&mut self, v: &str) {
        self.pre_element();
        self.out.push('"');
        escape_into(v, &mut self.out);
        self.out.push('"');
    }

    /// Emits a boolean value.
    pub fn value_bool(&mut self, v: bool) {
        self.pre_element();
        self.out.push_str(if v { "true" } else { "false" });
    }

    /// Emits a `null`.
    pub fn value_null(&mut self) {
        self.pre_element();
        self.out.push_str("null");
    }
}

/// Escapes `s` per RFC 8259 into `out` (quotes not included).
pub fn escape_into(s: &str, out: &mut String) {
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
}

/// Checks that `s` is one syntactically valid JSON value.
///
/// A strict recursive-descent pass over the RFC 8259 grammar —
/// no value materialization, no number range checks. Used by tests
/// and the smoke bench to assert that hand-assembled reports parse.
pub fn is_valid(s: &str) -> bool {
    let b = s.as_bytes();
    let mut at = skip_ws(b, 0);
    match value(b, at) {
        Some(end) => {
            at = skip_ws(b, end);
            at == b.len()
        }
        None => false,
    }
}

fn skip_ws(b: &[u8], mut at: usize) -> usize {
    while at < b.len() && matches!(b[at], b' ' | b'\t' | b'\n' | b'\r') {
        at += 1;
    }
    at
}

/// Parses one JSON value starting at `at`; returns the index just past it.
fn value(b: &[u8], at: usize) -> Option<usize> {
    match b.get(at)? {
        b'{' => object(b, at),
        b'[' => array(b, at),
        b'"' => string(b, at),
        b't' => literal(b, at, b"true"),
        b'f' => literal(b, at, b"false"),
        b'n' => literal(b, at, b"null"),
        b'-' | b'0'..=b'9' => number(b, at),
        _ => None,
    }
}

fn literal(b: &[u8], at: usize, lit: &[u8]) -> Option<usize> {
    if b.len() >= at + lit.len() && &b[at..at + lit.len()] == lit {
        Some(at + lit.len())
    } else {
        None
    }
}

fn object(b: &[u8], at: usize) -> Option<usize> {
    let mut at = skip_ws(b, at + 1);
    if b.get(at) == Some(&b'}') {
        return Some(at + 1);
    }
    loop {
        at = string(b, at)?;
        at = skip_ws(b, at);
        if b.get(at) != Some(&b':') {
            return None;
        }
        at = skip_ws(b, at + 1);
        at = value(b, at)?;
        at = skip_ws(b, at);
        match b.get(at)? {
            b',' => at = skip_ws(b, at + 1),
            b'}' => return Some(at + 1),
            _ => return None,
        }
    }
}

fn array(b: &[u8], at: usize) -> Option<usize> {
    let mut at = skip_ws(b, at + 1);
    if b.get(at) == Some(&b']') {
        return Some(at + 1);
    }
    loop {
        at = value(b, at)?;
        at = skip_ws(b, at);
        match b.get(at)? {
            b',' => at = skip_ws(b, at + 1),
            b']' => return Some(at + 1),
            _ => return None,
        }
    }
}

fn string(b: &[u8], at: usize) -> Option<usize> {
    if b.get(at) != Some(&b'"') {
        return None;
    }
    let mut at = at + 1;
    loop {
        match b.get(at)? {
            b'"' => return Some(at + 1),
            b'\\' => match b.get(at + 1)? {
                b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => at += 2,
                b'u' => {
                    if at + 6 > b.len() || !b[at + 2..at + 6].iter().all(u8::is_ascii_hexdigit) {
                        return None;
                    }
                    at += 6;
                }
                _ => return None,
            },
            c if *c < 0x20 => return None,
            _ => at += 1,
        }
    }
}

fn number(b: &[u8], at: usize) -> Option<usize> {
    let mut at = at;
    if b.get(at) == Some(&b'-') {
        at += 1;
    }
    // Integer part: "0" alone or a nonzero digit followed by digits.
    match b.get(at)? {
        b'0' => at += 1,
        b'1'..=b'9' => {
            while at < b.len() && b[at].is_ascii_digit() {
                at += 1;
            }
        }
        _ => return None,
    }
    if b.get(at) == Some(&b'.') {
        at += 1;
        if !b.get(at)?.is_ascii_digit() {
            return None;
        }
        while at < b.len() && b[at].is_ascii_digit() {
            at += 1;
        }
    }
    if matches!(b.get(at), Some(b'e') | Some(b'E')) {
        at += 1;
        if matches!(b.get(at), Some(b'+') | Some(b'-')) {
            at += 1;
        }
        if !b.get(at)?.is_ascii_digit() {
            return None;
        }
        while at < b.len() && b[at].is_ascii_digit() {
            at += 1;
        }
    }
    Some(at)
}

/// A parsed JSON document — the value tree [`parse`] produces.
///
/// Object member order is preserved (the writer emits deterministic
/// order, so round-trips stay comparable). Numbers are `f64`, which is
/// lossless for every count the metric surfaces emit (< 2^53).
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string, with escapes decoded.
    Str(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, members in document order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Object member lookup (`None` on non-objects and missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Walks a `.`-separated member path from this value.
    pub fn at(&self, path: &str) -> Option<&JsonValue> {
        path.split('.').try_fold(self, |v, key| v.get(key))
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(vs) => Some(vs),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(members) => Some(members),
            _ => None,
        }
    }
}

/// Parses `s` into a [`JsonValue`] tree (`None` on any syntax error).
///
/// Accepts exactly the grammar [`is_valid`] accepts; the scoreboard
/// diff uses this to materialize two reports and walk them key by key.
pub fn parse(s: &str) -> Option<JsonValue> {
    let b = s.as_bytes();
    let at = skip_ws(b, 0);
    let (v, end) = parse_value(b, at)?;
    (skip_ws(b, end) == b.len()).then_some(v)
}

fn parse_value(b: &[u8], at: usize) -> Option<(JsonValue, usize)> {
    match b.get(at)? {
        b'{' => parse_object(b, at),
        b'[' => parse_array(b, at),
        b'"' => {
            let (s, end) = parse_string(b, at)?;
            Some((JsonValue::Str(s), end))
        }
        b't' => literal(b, at, b"true").map(|end| (JsonValue::Bool(true), end)),
        b'f' => literal(b, at, b"false").map(|end| (JsonValue::Bool(false), end)),
        b'n' => literal(b, at, b"null").map(|end| (JsonValue::Null, end)),
        b'-' | b'0'..=b'9' => {
            let end = number(b, at)?;
            let n = std::str::from_utf8(&b[at..end]).ok()?.parse().ok()?;
            Some((JsonValue::Num(n), end))
        }
        _ => None,
    }
}

fn parse_object(b: &[u8], at: usize) -> Option<(JsonValue, usize)> {
    let mut members = Vec::new();
    let mut at = skip_ws(b, at + 1);
    if b.get(at) == Some(&b'}') {
        return Some((JsonValue::Object(members), at + 1));
    }
    loop {
        let (key, end) = parse_string(b, at)?;
        at = skip_ws(b, end);
        if b.get(at) != Some(&b':') {
            return None;
        }
        let (v, end) = parse_value(b, skip_ws(b, at + 1))?;
        members.push((key, v));
        at = skip_ws(b, end);
        match b.get(at)? {
            b',' => at = skip_ws(b, at + 1),
            b'}' => return Some((JsonValue::Object(members), at + 1)),
            _ => return None,
        }
    }
}

fn parse_array(b: &[u8], at: usize) -> Option<(JsonValue, usize)> {
    let mut elems = Vec::new();
    let mut at = skip_ws(b, at + 1);
    if b.get(at) == Some(&b']') {
        return Some((JsonValue::Array(elems), at + 1));
    }
    loop {
        let (v, end) = parse_value(b, at)?;
        elems.push(v);
        at = skip_ws(b, end);
        match b.get(at)? {
            b',' => at = skip_ws(b, at + 1),
            b']' => return Some((JsonValue::Array(elems), at + 1)),
            _ => return None,
        }
    }
}

fn parse_string(b: &[u8], at: usize) -> Option<(String, usize)> {
    // Validate first (one pass, shared grammar), then decode over the
    // checked span so the decoder can assume well-formed escapes.
    let end = string(b, at)?;
    let body = std::str::from_utf8(&b[at + 1..end - 1]).ok()?;
    let mut out = String::with_capacity(body.len());
    let mut chars = body.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '"' => out.push('"'),
            '\\' => out.push('\\'),
            '/' => out.push('/'),
            'b' => out.push('\u{08}'),
            'f' => out.push('\u{0c}'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            't' => out.push('\t'),
            'u' => {
                let hex4 = |cs: &mut std::str::Chars<'_>| -> Option<u32> {
                    let h: String = cs.by_ref().take(4).collect();
                    (h.len() == 4).then(|| u32::from_str_radix(&h, 16).ok())?
                };
                let mut code = hex4(&mut chars)?;
                if (0xD800..0xDC00).contains(&code) {
                    // A high surrogate must pair with `\uDCxx`.
                    if chars.next() != Some('\\') || chars.next() != Some('u') {
                        return None;
                    }
                    let low = hex4(&mut chars)?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return None;
                    }
                    code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                }
                out.push(char::from_u32(code)?);
            }
            _ => return None,
        }
    }
    Some((out, end))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_produces_valid_nested_json() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("name");
        w.value_str("batch \"quoted\"\n");
        w.key("runs");
        w.begin_array();
        w.value_u64(1);
        w.value_f64(2.5);
        w.value_bool(true);
        w.value_null();
        w.end_array();
        w.key("empty_obj");
        w.begin_object();
        w.end_object();
        w.key("empty_arr");
        w.begin_array();
        w.end_array();
        w.end_object();
        let json = w.finish();
        assert!(is_valid(&json), "invalid JSON:\n{json}");
        assert!(json.contains("\\\"quoted\\\"\\n"));
    }

    #[test]
    fn validator_accepts_the_grammar() {
        for good in [
            "0",
            "-1.5e+10",
            "\"\"",
            "\"a\\u00e9b\"",
            "[]",
            "{}",
            "[1, 2, 3]",
            "{\"a\": {\"b\": [true, false, null]}}",
            "  {\"x\": 1}  ",
        ] {
            assert!(is_valid(good), "should be valid: {good}");
        }
    }

    #[test]
    fn validator_rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "}",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "{a: 1}",
            "01",
            "1.",
            "+1",
            "\"unterminated",
            "\"bad\\q\"",
            "nulll",
            "[1] trailing",
            "NaN",
        ] {
            assert!(!is_valid(bad), "should be invalid: {bad}");
        }
    }

    #[test]
    fn control_characters_escape_as_unicode() {
        let mut out = String::new();
        escape_into("a\u{01}b", &mut out);
        assert_eq!(out, "a\\u0001b");
    }

    #[test]
    fn parse_materializes_the_value_tree() {
        let v =
            parse("{\"a\": {\"b\": [1, 2.5, -3e2]}, \"s\": \"x\\ny\", \"t\": true, \"n\": null}")
                .expect("valid");
        assert_eq!(
            v.at("a.b").and_then(JsonValue::as_array).map(<[_]>::len),
            Some(3)
        );
        assert_eq!(
            v.at("a.b").unwrap().as_array().unwrap()[2].as_f64(),
            Some(-300.0)
        );
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("x\ny"));
        assert_eq!(v.get("t"), Some(&JsonValue::Bool(true)));
        assert_eq!(v.get("n"), Some(&JsonValue::Null));
        assert_eq!(v.get("missing"), None);
        assert_eq!(v.at("a.b.c"), None);
    }

    #[test]
    fn parse_decodes_escapes_including_surrogate_pairs() {
        assert_eq!(
            parse("\"a\\u00e9\\t\\\\b\""),
            Some(JsonValue::Str("aé\t\\b".to_string()))
        );
        assert_eq!(
            parse("\"\\ud83d\\ude00\""),
            Some(JsonValue::Str("😀".to_string()))
        );
        assert_eq!(parse("\"\\ud83d\""), None, "lone high surrogate");
    }

    #[test]
    fn parse_round_trips_the_writer() {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("name");
        w.value_str("batch \"quoted\"\n");
        w.key("runs");
        w.begin_array();
        w.value_u64(1);
        w.value_f64(2.5);
        w.value_null();
        w.end_array();
        w.end_object();
        let json = w.finish();
        let v = parse(&json).expect("writer output parses");
        assert_eq!(
            v.get("name").and_then(JsonValue::as_str),
            Some("batch \"quoted\"\n")
        );
        assert_eq!(
            v.get("runs"),
            Some(&JsonValue::Array(vec![
                JsonValue::Num(1.0),
                JsonValue::Num(2.5),
                JsonValue::Null
            ]))
        );
    }

    #[test]
    fn parse_rejects_what_is_valid_rejects() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "01", "[1] trailing", "nulll"] {
            assert_eq!(parse(bad), None, "should not parse: {bad}");
        }
    }
}
