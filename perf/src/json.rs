//! Reading JSON back. The program has a writer-side escaper and a
//! recognizer (`msort_trace::{json_escape, json_valid}`) but no parser, and
//! `perf agree` has to read two result files; this is the smallest one
//! that does. Input is certified by `json_valid` first, so the parser can
//! assume well-formed text.

use msort_trace::json_valid;

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    /// Members in file order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        if !json_valid(text) {
            return Err("not valid JSON".to_string());
        }
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        Ok(p.value())
    }

    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    #[must_use]
    pub fn members(&self) -> &[(String, Json)] {
        match self {
            Json::Obj(members) => members,
            _ => &[],
        }
    }

    #[must_use]
    pub fn items(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            _ => &[],
        }
    }

    #[must_use]
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    #[must_use]
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.b.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.b[self.i] {
            b'{' => {
                let mut members = Vec::new();
                self.i += 1;
                loop {
                    self.ws();
                    if self.b[self.i] == b'}' {
                        self.i += 1;
                        return Json::Obj(members);
                    }
                    if self.b[self.i] == b',' {
                        self.i += 1;
                        continue;
                    }
                    let key = self.string();
                    self.ws();
                    self.i += 1; // ':'
                    members.push((key, self.value()));
                }
            }
            b'[' => {
                let mut items = Vec::new();
                self.i += 1;
                loop {
                    self.ws();
                    match self.b[self.i] {
                        b']' => {
                            self.i += 1;
                            return Json::Arr(items);
                        }
                        b',' => self.i += 1,
                        _ => items.push(self.value()),
                    }
                }
            }
            b'"' => Json::Str(self.string()),
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self
                    .b
                    .get(self.i)
                    .is_some_and(|c| matches!(c, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.b[start..self.i]).expect("ascii number");
                Json::Num(text.parse().expect("json_valid accepted the number"))
            }
        }
    }

    fn string(&mut self) -> String {
        self.i += 1; // opening quote
        let mut out = Vec::new();
        loop {
            match self.b[self.i] {
                b'"' => {
                    self.i += 1;
                    return String::from_utf8(out).expect("input was a str");
                }
                b'\\' => {
                    let c = self.b[self.i + 1];
                    self.i += 2;
                    match c {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        b'r' => out.push(b'\r'),
                        b'b' => out.push(8),
                        b'f' => out.push(12),
                        b'u' => {
                            let hex = std::str::from_utf8(&self.b[self.i..self.i + 4])
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .unwrap_or(char::REPLACEMENT_CHARACTER);
                            self.i += 4;
                            out.extend_from_slice(hex.to_string().as_bytes());
                        }
                        other => out.push(other),
                    }
                }
                c => {
                    out.push(c);
                    self.i += 1;
                }
            }
        }
    }
}

/// A finite JSON number with all the digits `f64` round-trips through.
#[must_use]
pub fn number(v: f64) -> String {
    assert!(v.is_finite(), "metric value must be finite, got {v}");
    format!("{v}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_what_the_benchmark_writes() {
        let doc = r#" {"a": [1, -2.5e3, "x\"y\n", true, null], "b": {"c": 0.1}, "d": "⇄"} "#;
        let j = Json::parse(doc).unwrap();
        let a = j.get("a").unwrap().items();
        assert_eq!(a[0].num(), Some(1.0));
        assert_eq!(a[1].num(), Some(-2500.0));
        assert_eq!(a[2].str(), Some("x\"y\n"));
        assert_eq!(a[3], Json::Bool(true));
        assert_eq!(a[4], Json::Null);
        assert_eq!(j.get("b").unwrap().get("c").unwrap().num(), Some(0.1));
        assert_eq!(j.get("d").unwrap().str(), Some("⇄"));
        assert_eq!(j.members().len(), 3);
        assert!(Json::parse("{\"a\": }").is_err());
    }

    #[test]
    fn numbers_round_trip_bit_for_bit() {
        for v in [0.1 + 0.2, 1.0 / 3.0, 123_456_789_012_345.0, 5e-324, 0.0] {
            let back = Json::parse(&number(v)).unwrap().num().unwrap();
            assert_eq!(back.to_bits(), v.to_bits());
        }
    }
}
