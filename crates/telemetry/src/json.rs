//! The workspace's one JSON reader and its string-escape routine.
//!
//! The vendored serde is a stub, so every JSON document the workspace
//! emits (Chrome traces, metrics snapshots, flight dumps,
//! `BENCH_figures.json`, benchmark result lines) is hand-formatted with
//! [`jstr`], and everything that reads one back (the `figures -- check`
//! gate, the benchmark driver, the export tests) goes through [`parse`].
//! The parser covers objects, arrays, strings with the standard escapes,
//! finite numbers and `true`/`false`/`null`, and keeps object members in
//! file order so diffs read naturally.

use std::fmt::Write as _;

/// JSON string literal with escaping.
#[must_use]
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed JSON value. Object members preserve insertion order (the
/// documents are small; linear lookup is fine).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (the writers only emit finite doubles and integers).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in file order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` for other variants or missing keys.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    #[must_use]
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The members, if this is an object.
    #[must_use]
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Parses a complete JSON document (trailing whitespace allowed).
///
/// # Errors
///
/// A human-readable message with a byte offset on malformed input.
pub fn parse(src: &str) -> Result<Json, String> {
    let b = src.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(b, &mut pos)?;
    skip_ws(b, &mut pos);
    if pos != b.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(b'-' | b'0'..=b'9') => parse_num(b, pos),
        Some(_) => Err(format!("unexpected byte at {pos}", pos = *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("expected `{lit}` at byte {pos}", pos = *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len()
        && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    s.parse::<f64>().map(Json::Num).map_err(|e| format!("bad number `{s}` at byte {start}: {e}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(b[*pos], b'"');
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|e| format!("bad \\u escape `{hex}`: {e}"))?;
                        // The writers never emit surrogate pairs;
                        // unpaired surrogates map to the replacement char.
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {pos}", pos = *pos)),
                }
                *pos += 1;
            }
            Some(0x00..=0x1f) => {
                return Err(format!("unescaped control byte at {pos}", pos = *pos))
            }
            Some(&c) => {
                // Multi-byte UTF-8 sequences pass through byte-wise.
                let ch_len = match c {
                    0x00..=0x7f => 1,
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let s = std::str::from_utf8(&b[*pos..*pos + ch_len.min(b.len() - *pos)])
                    .map_err(|e| e.to_string())?;
                out.push_str(s);
                *pos += ch_len;
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // [
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(out));
    }
    loop {
        out.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(out));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    *pos += 1; // {
    let mut out = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(out));
    }
    loop {
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b'"') {
            return Err(format!("expected member key at byte {pos}", pos = *pos));
        }
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        if b.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let v = parse_value(b, pos)?;
        out.push((key, v));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(out));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_snapshot_shapes() {
        let j = parse(
            r#"{"a": {"x": 1.5, "y": [1, null, -2e3]}, "s": "q\"\\A", "b": true}"#,
        )
        .unwrap();
        assert_eq!(j.get("a").unwrap().get("x").unwrap().as_f64(), Some(1.5));
        let arr = j.get("a").unwrap().get("y").unwrap().as_arr().unwrap();
        assert_eq!(arr[1], Json::Null);
        assert_eq!(arr[2].as_f64(), Some(-2000.0));
        assert_eq!(j.get("s").unwrap().as_str(), Some("q\"\\A"));
        assert_eq!(j.get("b"), Some(&Json::Bool(true)));
    }

    #[test]
    fn preserves_member_order() {
        let j = parse(r#"{"z": 1, "a": 2}"#).unwrap();
        let keys: Vec<&str> = j.as_obj().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["z", "a"]);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("[1 2]").is_err());
        assert!(parse("{}x").is_err());
        assert!(parse("\"a\nb\"").is_err(), "raw control byte in a string");
        assert!(parse("+1").is_err());
    }

    #[test]
    fn escaped_strings_read_back() {
        let s = "a\"b\\c\nd\te\u{1}";
        assert_eq!(jstr("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(parse(&jstr(s)).unwrap().as_str(), Some(s));
    }

    #[test]
    fn round_trips_the_committed_snapshot_if_present() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_figures.json");
        if let Ok(src) = std::fs::read_to_string(path) {
            let j = parse(&src).expect("committed snapshot parses");
            assert!(j.as_obj().is_some());
        }
    }
}
