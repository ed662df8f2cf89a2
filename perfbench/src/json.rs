//! A minimal JSON object writer for the child's one-line report.

/// A JSON object under construction. Non-finite numbers become `null`,
/// so the report always parses.
pub struct Obj {
    buf: String,
}

impl Obj {
    pub fn new() -> Obj {
        Obj {
            buf: String::from("{"),
        }
    }

    fn key(&mut self, k: &str) -> &mut String {
        if self.buf.len() > 1 {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(k);
        self.buf.push_str("\":");
        &mut self.buf
    }

    pub fn num(&mut self, k: &str, v: f64) -> &mut Obj {
        let s = number(v);
        self.key(k).push_str(&s);
        self
    }

    pub fn int(&mut self, k: &str, v: u64) -> &mut Obj {
        let s = v.to_string();
        self.key(k).push_str(&s);
        self
    }

    /// A string value; callers pass only identifier-like text.
    pub fn str(&mut self, k: &str, v: &str) -> &mut Obj {
        let s = format!("\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\""));
        self.key(k).push_str(&s);
        self
    }

    pub fn arr(&mut self, k: &str, vs: impl Iterator<Item = f64>) -> &mut Obj {
        let s = vs.map(number).collect::<Vec<_>>().join(",");
        self.key(k).push_str(&format!("[{s}]"));
        self
    }

    /// A nested object.
    pub fn obj(&mut self, k: &str, v: Obj) -> &mut Obj {
        let s = v.finish();
        self.key(k).push_str(&s);
        self
    }

    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

/// Shortest round-trip decimal form (`{:?}` keeps every digit), `null`
/// for NaN and infinities.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}
