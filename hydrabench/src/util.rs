//! Process memory readings and a minimal JSON writer.

use std::fmt::Write as _;

/// A `/proc/self/status` field in KiB (`VmRSS`, `VmHWM`), or 0 when the
/// file or field is missing.
pub fn proc_status_kib(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|line| {
            let rest = line.strip_prefix(field)?.strip_prefix(':')?;
            rest.trim().trim_end_matches("kB").trim().parse().ok()
        })
        .unwrap_or(0)
}

/// Resident set size now, KiB.
pub fn rss_kib() -> u64 {
    proc_status_kib("VmRSS")
}

/// Peak resident set size so far, KiB.
pub fn hwm_kib() -> u64 {
    proc_status_kib("VmHWM")
}

/// A JSON value.
pub enum Json {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Obj(Vec<(String, Json)>),
    Arr(Vec<Json>),
}

impl Json {
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object.
    pub fn set(&mut self, key: &str, value: Json) {
        match self {
            Json::Obj(fields) => fields.push((key.to_string(), value)),
            _ => panic!("set on a non-object"),
        }
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            // Display prints the shortest text that reads back to the same
            // f64, so every digit measured survives.
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Str(s) => write_str(out, s),
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    v.write(out);
                }
                out.push(']');
            }
        }
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
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
    fn renders_nested_objects() {
        let mut o = Json::obj();
        o.set("a", Json::Num(1.5));
        o.set("b", Json::Arr(vec![Json::Int(2), Json::Bool(true)]));
        o.set("c", Json::Str("x\"y".into()));
        o.set("d", Json::Num(f64::NAN));
        assert_eq!(
            o.render(),
            r#"{"a": 1.5, "b": [2, true], "c": "x\"y", "d": null}"#
        );
    }

    #[test]
    fn reads_own_rss() {
        // RSS first: the peak read afterwards covers it even if another
        // test thread grows the heap in between.
        let rss = rss_kib();
        assert!(rss > 0);
        assert!(hwm_kib() >= rss);
    }
}
