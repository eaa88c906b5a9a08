//! A JSON value the benchmark writes (and, through `tahoe_obs::json`,
//! reads back). Object keys keep insertion order so files diff well.

use tahoe_obs::json::Value;

#[derive(Debug, Clone, PartialEq)]
pub enum J {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn num(x: f64) -> J {
        J::Num(x)
    }

    pub fn str(s: &str) -> J {
        J::Str(s.to_string())
    }

    pub fn obj<const N: usize>(fields: [(&str, J); N]) -> J {
        J::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub fn get(&self, key: &str) -> Option<&J> {
        match self {
            J::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            J::Num(x) => Some(*x),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[J]> {
        match self {
            J::Arr(v) => Some(v),
            _ => None,
        }
    }

    pub fn fields(&self) -> &[(String, J)] {
        match self {
            J::Obj(f) => f,
            _ => &[],
        }
    }

    /// One line, no spaces: the form the result line uses.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented by two spaces, for files people read.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let nl = |out: &mut String, depth: usize| {
            if let Some(w) = indent {
                out.push('\n');
                out.push_str(&" ".repeat(w * depth));
            }
        };
        match self {
            J::Null => out.push_str("null"),
            J::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            // Rust's shortest round-trip rendering: every digit measured,
            // none invented. JSON has no NaN/inf; they become null.
            J::Num(x) if x.is_finite() => out.push_str(&format!("{x}")),
            J::Num(_) => out.push_str("null"),
            J::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            J::Arr(v) => {
                out.push('[');
                // Arrays of scalars stay on one line even when pretty.
                let scalars = v.iter().all(|x| !matches!(x, J::Arr(_) | J::Obj(_)));
                for (i, x) in v.iter().enumerate() {
                    if i > 0 {
                        out.push_str(if indent.is_some() && scalars {
                            ", "
                        } else {
                            ","
                        });
                    }
                    if !scalars {
                        nl(out, depth + 1);
                    }
                    x.write(out, indent, depth + 1);
                }
                if !scalars && !v.is_empty() {
                    nl(out, depth);
                }
                out.push(']');
            }
            J::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    nl(out, depth + 1);
                    J::Str(k.clone()).write(out, indent, depth);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    v.write(out, indent, depth + 1);
                }
                if !fields.is_empty() {
                    nl(out, depth);
                }
                out.push('}');
            }
        }
    }

    /// Parse a document. Objects come back with sorted keys (the parser
    /// keeps a `BTreeMap`), which is fine for lookups.
    pub fn parse(text: &str) -> Result<J, String> {
        fn conv(v: &Value) -> J {
            match v {
                Value::Null => J::Null,
                Value::Bool(b) => J::Bool(*b),
                Value::Number(x) => J::Num(*x),
                Value::String(s) => J::Str(s.clone()),
                Value::Array(a) => J::Arr(a.iter().map(conv).collect()),
                Value::Object(m) => J::Obj(m.iter().map(|(k, v)| (k.clone(), conv(v))).collect()),
            }
        }
        tahoe_obs::json::parse(text)
            .map(|v| conv(&v))
            .map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_what_it_reads() {
        let v = J::obj([
            ("correct", J::Bool(true)),
            ("attempted", J::num(1000.0)),
            ("x", J::num(1.2034)),
            ("s", J::str("a\"b\\c\n")),
            ("a", J::Arr(vec![J::num(1.0), J::Null])),
            ("nan", J::num(f64::NAN)),
        ]);
        let line = v.compact();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"correct\":true,\"attempted\":1000,\"x\":1.2034,"));
        let back = J::parse(&line).unwrap();
        assert_eq!(back.get("x").and_then(J::as_f64), Some(1.2034));
        assert_eq!(back.get("s"), Some(&J::str("a\"b\\c\n")));
        assert_eq!(back.get("nan"), Some(&J::Null));
        assert_eq!(J::parse(&v.pretty()).unwrap(), back);
    }
}
