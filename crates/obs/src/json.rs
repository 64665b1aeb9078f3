//! Minimal pure-Rust JSON reader (RFC 8259 syntax, small DOM).
//!
//! Used by CI's `trace-validate` job and the determinism tests to assert
//! that exported traces parse, and by the perf gate to read committed
//! `BENCH_*.json` reports, without pulling a JSON dependency into the
//! workspace.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses a JSON document; trailing data is an error.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser { s: input, i: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.i != input.len() {
        return Err(format!("trailing data at byte {}", p.i));
    }
    Ok(v)
}

/// Syntax check only.
pub fn validate_json(input: &str) -> Result<(), String> {
    parse(input).map(drop)
}

struct Parser<'a> {
    s: &'a str,
    i: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("{} at byte {}", msg, self.i)
    }

    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek();
        if c.is_some() {
            self.i += 1;
        }
        c
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
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.s.as_bytes()[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected value")),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(Json::Obj(members)),
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        // Start of the run of unescaped bytes not yet copied to `out`;
        // `"` and `\\` are ASCII, so runs split on character boundaries.
        let mut run = self.i;
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    out.push_str(&self.s[run..self.i - 1]);
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.s[run..self.i - 1]);
                    out.push(match self.bump() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            let mut code = 0u32;
                            for _ in 0..4 {
                                let digit = self.bump().and_then(|c| (c as char).to_digit(16));
                                code =
                                    code * 16 + digit.ok_or_else(|| self.err("bad \\u escape"))?;
                            }
                            // Our writers never emit surrogate pairs; a
                            // lone surrogate reads as the replacement char.
                            char::from_u32(code).unwrap_or('\u{fffd}')
                        }
                        _ => return Err(self.err("bad escape")),
                    });
                    run = self.i;
                }
                Some(c) if c < 0x20 => return Err(self.err("control char in string")),
                Some(_) => {}
            }
        }
    }

    fn digits(&mut self, what: &str) -> Result<(), String> {
        let start = self.i;
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.i += 1;
        }
        if self.i == start {
            return Err(self.err(what));
        }
        Ok(())
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        if self.peek() == Some(b'0') {
            self.i += 1;
        } else {
            self.digits("expected digit")?;
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            self.digits("expected fraction digits")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            self.digits("expected exponent digits")?;
        }
        self.s[start..self.i]
            .parse()
            .map(Json::Num)
            .map_err(|_| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid() {
        for s in [
            "{}",
            "[]",
            "null",
            "true",
            "-0.5e+10",
            "\"a\\u00e9b\"",
            "{\"a\":[1,2,{\"b\":null}],\"c\":\"x\\n\"}",
            " { \"k\" : [ 1 , 2 ] } ",
        ] {
            validate_json(s).unwrap_or_else(|e| panic!("{s}: {e}"));
        }
    }

    #[test]
    fn rejects_invalid() {
        for s in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{'a':1}",
            "01",
            "1.",
            "1e",
            "\"unterminated",
            "nul",
            "[1] trailing",
            "{\"a\" 1}",
        ] {
            assert!(validate_json(s).is_err(), "should reject: {s}");
        }
    }

    #[test]
    fn parse_builds_the_document() {
        let doc = parse(r#"{"a": [1, -2.5e-1, null, true], "s": "q\"\n\u00e9é/"}"#).unwrap();
        assert_eq!(
            doc.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-0.25),
                Json::Null,
                Json::Bool(true)
            ]))
        );
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("q\"\néé/"));
        assert_eq!(doc.get("missing"), None);
    }
}
