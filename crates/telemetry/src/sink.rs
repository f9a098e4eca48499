//! Snapshot serialization: a hand-rolled JSON writer.
//!
//! The workspace builds offline with zero external dependencies, so
//! serialization is done by hand.  [`JsonBuilder`] is a small push-style
//! writer (correct string escaping, comma placement and non-finite float
//! handling) that higher layers also use to compose their own documents;
//! on top of it sit ready-made encoders for [`HistogramSnapshot`] and
//! [`TraceSnapshot`].

use std::fmt::Write;

use crate::metrics::HistogramSnapshot;
use crate::trace::{TraceEvent, TraceSnapshot};

/// Incremental JSON document writer.
///
/// Values written at array level are comma-separated automatically; inside
/// an object, call [`JsonBuilder::key`] before each value.  Non-finite
/// floats serialize as `null` (JSON has no NaN/Infinity).
#[derive(Debug, Default)]
pub struct JsonBuilder {
    out: String,
    /// One entry per open container: `true` once a separator is needed.
    stack: Vec<bool>,
    /// A key was just written, so the next value must not emit a comma.
    pending_key: bool,
}

impl JsonBuilder {
    /// An empty document.
    pub fn new() -> Self {
        JsonBuilder::default()
    }

    fn sep(&mut self) {
        if self.pending_key {
            self.pending_key = false;
            return;
        }
        if let Some(needs_comma) = self.stack.last_mut() {
            if *needs_comma {
                self.out.push(',');
            }
            *needs_comma = true;
        }
    }

    /// Opens `{`.
    pub fn begin_object(&mut self) -> &mut Self {
        self.sep();
        self.out.push('{');
        self.stack.push(false);
        self
    }

    /// Closes `}`.
    pub fn end_object(&mut self) -> &mut Self {
        self.stack.pop();
        self.out.push('}');
        self
    }

    /// Opens `[`.
    pub fn begin_array(&mut self) -> &mut Self {
        self.sep();
        self.out.push('[');
        self.stack.push(false);
        self
    }

    /// Closes `]`.
    pub fn end_array(&mut self) -> &mut Self {
        self.stack.pop();
        self.out.push(']');
        self
    }

    /// Writes an object key; the next call writes its value.
    pub fn key(&mut self, k: &str) -> &mut Self {
        self.sep();
        push_json_string(&mut self.out, k);
        self.out.push(':');
        self.pending_key = true;
        self
    }

    /// Writes a string value.
    pub fn string(&mut self, v: &str) -> &mut Self {
        self.sep();
        push_json_string(&mut self.out, v);
        self
    }

    /// Writes an unsigned integer value.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.sep();
        push_decimal(&mut self.out, v);
        self
    }

    /// Writes a signed integer value.
    pub fn i64(&mut self, v: i64) -> &mut Self {
        self.sep();
        if v < 0 {
            self.out.push('-');
        }
        push_decimal(&mut self.out, v.unsigned_abs());
        self
    }

    /// Writes a float value (`null` when non-finite).
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.sep();
        if v.is_finite() {
            // `1.0f64` displays as "1"; that is still valid JSON.
            write!(self.out, "{v}").expect("writing to a String cannot fail");
        } else {
            self.out.push_str("null");
        }
        self
    }

    /// Writes a boolean value.
    pub fn bool(&mut self, v: bool) -> &mut Self {
        self.sep();
        self.out.push_str(if v { "true" } else { "false" });
        self
    }

    /// Writes `null`.
    pub fn null(&mut self) -> &mut Self {
        self.sep();
        self.out.push_str("null");
        self
    }

    /// Ends a line of a JSON Lines document: the next value starts a new
    /// top-level document on the next line.
    pub fn newline(&mut self) -> &mut Self {
        self.out.push('\n');
        self
    }

    /// The finished document.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Appends the decimal digits of `v`, formatted on the stack.
fn push_decimal(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// Appends `s` as a quoted, escaped JSON string.  Every byte that needs
/// an escape is ASCII, so the unescaped runs between them end on char
/// boundaries and are copied whole.
fn push_json_string(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        out.push_str(&s[run..i]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Writes a histogram as one JSON object (after a [`JsonBuilder::key`]
/// or at array level): its count, sum, extremes, mean, percentiles,
/// bounds and buckets.
pub fn write_histogram(j: &mut JsonBuilder, h: &HistogramSnapshot) {
    j.begin_object();
    j.key("count").u64(h.count);
    j.key("sum").u64(h.sum);
    j.key("min").u64(h.min);
    j.key("max").u64(h.max);
    j.key("mean").f64(h.mean());
    // Empty histograms serialize the legacy 0 sentinel so baselines that
    // predate the `Option` percentile API keep their field shapes.
    j.key("p50").f64(h.p50().unwrap_or(0.0));
    j.key("p95").f64(h.p95().unwrap_or(0.0));
    j.key("p99").f64(h.p99().unwrap_or(0.0));
    j.key("bounds").begin_array();
    for b in &h.bounds {
        j.u64(*b);
    }
    j.end_array();
    j.key("buckets").begin_array();
    for b in &h.buckets {
        j.u64(*b);
    }
    j.end_array();
    j.end_object();
}

/// Writes one trace event as a JSON object (after a key or at array level).
pub fn write_trace_event(j: &mut JsonBuilder, ev: &TraceEvent) {
    j.begin_object();
    j.key("kind").string(ev.kind());
    match *ev {
        TraceEvent::PeFired { cycle, pe, row, macs } => {
            j.key("cycle").u64(cycle);
            j.key("pe").u64(pe as u64);
            j.key("row").u64(row as u64);
            j.key("macs").u64(macs as u64);
        }
        TraceEvent::VectorStall { cycle, pe } => {
            j.key("cycle").u64(cycle);
            j.key("pe").u64(pe as u64);
        }
        TraceEvent::TileStart { layer, pass, rows, cols, inner } => {
            j.key("layer").u64(layer as u64);
            j.key("pass").u64(pass as u64);
            j.key("rows").u64(rows as u64);
            j.key("cols").u64(cols as u64);
            j.key("inner").u64(inner as u64);
        }
        TraceEvent::WeightLoad { cycle, pe, elems } => {
            j.key("cycle").u64(cycle);
            j.key("pe").u64(pe as u64);
            j.key("elems").u64(elems as u64);
        }
        TraceEvent::ModeSet { bits } => {
            j.key("bits").u64(bits as u64);
        }
    }
    j.end_object();
}

/// Encodes a trace snapshot as one JSON object with `total`, `dropped`
/// and an `events` array.
pub fn trace_to_json(snap: &TraceSnapshot) -> String {
    let mut j = JsonBuilder::new();
    j.begin_object();
    j.key("total").u64(snap.total);
    j.key("dropped").u64(snap.dropped);
    j.key("events").begin_array();
    for ev in &snap.events {
        write_trace_event(&mut j, ev);
    }
    j.end_array();
    j.end_object();
    j.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceRing;

    #[test]
    fn json_builder_places_commas_and_escapes() {
        let mut j = JsonBuilder::new();
        j.begin_object();
        j.key("a\"b").string("x\ny");
        j.key("n").u64(3);
        j.key("list").begin_array().u64(1).u64(2).end_array();
        j.key("f").f64(0.5);
        j.key("nan").f64(f64::NAN);
        j.key("t").bool(true);
        j.end_object();
        assert_eq!(
            j.finish(),
            r#"{"a\"b":"x\ny","n":3,"list":[1,2],"f":0.5,"nan":null,"t":true}"#
        );
    }

    fn histogram_json(bounds: &[u64], samples: &[u64]) -> String {
        let mut h = HistogramSnapshot::new(bounds);
        for &v in samples {
            h.record(v);
        }
        let mut j = JsonBuilder::new();
        write_histogram(&mut j, &h);
        j.finish()
    }

    #[test]
    fn metrics_json_round_trips_structure() {
        let json = histogram_json(&[5], &[3]);
        assert_eq!(
            json,
            r#"{"count":1,"sum":3,"min":3,"max":3,"mean":3,"p50":3,"p95":3,"p99":3,"bounds":[5],"buckets":[1,0]}"#
        );
        let doc = crate::json::parse_json(&json).expect("valid JSON");
        let flat = doc.flatten_numbers();
        assert_eq!(flat["count"], 1.0);
        assert_eq!(flat["bounds[0]"], 5.0);
        assert_eq!(flat["buckets[1]"], 0.0);
        // An empty histogram writes the 0 sentinel for every percentile.
        assert!(histogram_json(&[5], &[]).contains(r#""p50":0,"p95":0,"p99":0"#));
    }

    #[test]
    fn trace_serializers_cover_every_kind() {
        let ring = TraceRing::new(8);
        ring.push(TraceEvent::PeFired { cycle: 1, pe: 2, row: 3, macs: 4 });
        ring.push(TraceEvent::VectorStall { cycle: 5, pe: 6 });
        ring.push(TraceEvent::TileStart { layer: 0, pass: 1, rows: 2, cols: 3, inner: 4 });
        ring.push(TraceEvent::WeightLoad { cycle: 7, pe: 0, elems: 4 });
        ring.push(TraceEvent::ModeSet { bits: 4 });
        let json = trace_to_json(&ring.snapshot());
        for kind in ["pe_fired", "vector_stall", "tile_start", "weight_load", "mode_set"] {
            assert!(json.contains(kind), "{json}");
        }
        assert!(json.contains(r#""total":5"#));
        assert!(json.contains(r#""bits":4"#));
        assert!(json.contains(r#""elems":4"#));
    }

    #[test]
    fn json_strings_escape_control_and_unicode() {
        let mut j = JsonBuilder::new();
        j.begin_object();
        j.key("ctrl").string("a\u{1}b\u{1f}c");
        j.key("quote\\path").string("C:\\x \"q\" \t end");
        j.key("unicode").string("µs → 東");
        j.end_object();
        let out = j.finish();
        assert!(out.contains(r#""ctrl":"a\u0001b\u001fc""#), "{out}");
        assert!(out.contains(r#""quote\\path":"C:\\x \"q\" \t end""#), "{out}");
        // Non-ASCII passes through raw (valid UTF-8 JSON).
        assert!(out.contains("µs → 東"), "{out}");
        assert!(crate::json::parse_json(&out).is_ok(), "{out}");
    }

    /// The char-at-a-time escaper the run-copying one replaced.
    fn reference_json_string(s: &str) -> String {
        let mut out = String::from('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    #[test]
    fn writer_round_trips_random_strings_and_extreme_integers() {
        // Every escape class (quote, backslash, the named and the \u00XX
        // controls), plain ASCII, DEL, and 2-, 3- and 4-byte scalars.
        let alphabet: Vec<char> =
            ['"', '\\', '\n', '\r', '\t', '/', 'a', 'Z', ' ', '\u{7f}', 'é', 'µ', '→', '東', '😀']
                .into_iter()
                .chain((0u8..0x20).map(char::from))
                .collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for case in 0..2_000 {
            let len = (next() % 24) as usize;
            let s: String =
                (0..len).map(|_| alphabet[(next() % alphabet.len() as u64) as usize]).collect();
            let (u, i) = (next(), next() as i64);
            let mut j = JsonBuilder::new();
            j.begin_object();
            j.key(&s).string(&s);
            j.key("u").begin_array().u64(u).u64(0).u64(u64::MAX).end_array();
            j.key("i").begin_array().i64(i).i64(0).i64(-1).i64(i64::MIN).i64(i64::MAX).end_array();
            j.end_object();
            let doc = j.finish();
            let quoted = reference_json_string(&s);
            let want = format!(
                "{{{quoted}:{quoted},\"u\":[{u},0,{}],\"i\":[{i},0,-1,{},{}]}}",
                u64::MAX,
                i64::MIN,
                i64::MAX
            );
            assert_eq!(doc, want, "case {case}: {s:?}");
            let v = crate::json::parse_json(&doc).unwrap_or_else(|e| panic!("case {case}: {e}"));
            assert_eq!(v.get(&s).and_then(|x| x.as_str()), Some(s.as_str()), "case {case}");
        }
    }

    #[test]
    fn metrics_json_includes_percentiles() {
        let json = histogram_json(&[10, 100], &[1, 2, 3, 4, 200]);
        for key in ["\"p50\":", "\"p95\":", "\"p99\":"] {
            assert!(json.contains(key), "{json}");
        }
        assert!(crate::json::parse_json(&json).is_ok(), "{json}");
    }

    #[test]
    fn trace_json_round_trips_through_the_parser() {
        let ring = TraceRing::new(8);
        ring.push(TraceEvent::PeFired { cycle: 1, pe: 2, row: 3, macs: 4 });
        ring.push(TraceEvent::ModeSet { bits: 2 });
        let json = trace_to_json(&ring.snapshot());
        let doc = crate::json::parse_json(&json).expect("valid JSON");
        let events = doc.get("events").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("kind").unwrap().as_str(), Some("pe_fired"));
        assert_eq!(events[1].get("bits").unwrap().as_f64(), Some(2.0));
    }
}
