//! Trace exporters: deterministic JSONL (the byte-reproducible format the
//! regression tests pin) and Chrome-trace JSON (`chrome://tracing` /
//! Perfetto).
//!
//! The JSONL exporter contains **no wall-clock data** — its output is a
//! pure function of the event stream, so two same-seed runs produce
//! byte-identical files. The Chrome exporter stamps export metadata with
//! the real time (it is a human-facing visualization artifact, not a
//! determinism surface); that stamp is this workspace's single sanctioned
//! wall-clock read outside bench code.

use crate::{EventKind, FieldValue, TraceEvent};

/// A finished, `(ts, source, seq)`-ordered trace.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    /// Events in deterministic order.
    pub events: Vec<TraceEvent>,
    /// Events the tracer dropped past its cap of `1 << 20` (0 in any
    /// healthy run; the determinism tests assert on it).
    pub dropped: u64,
}

/// Appends `s` to `out` as a JSON string literal (with quotes).
pub fn json_escape(s: &str, out: &mut String) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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
    out.push('"');
}

fn push_fields(fields: &[(&'static str, FieldValue)], out: &mut String) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json_escape(k, out);
        out.push(':');
        match v {
            FieldValue::U64(n) => out.push_str(&n.to_string()),
            FieldValue::I64(n) => out.push_str(&n.to_string()),
            FieldValue::Str(s) => json_escape(s, out),
        }
    }
    out.push('}');
}

impl Trace {
    /// Deterministic JSONL: line 1 is a `{"meta":...}` header (format tag,
    /// event count, drop count — all seed-determined), each further line
    /// one event. Byte-identical across same-seed runs.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str(&format!(
            "{{\"meta\":{{\"format\":\"ofl-trace/1\",\"events\":{},\"dropped\":{}}}}}\n",
            self.events.len(),
            self.dropped
        ));
        for ev in &self.events {
            out.push_str(&format!(
                "{{\"ts\":{},\"src\":{},\"seq\":{},\"cat\":\"{}\",\"kind\":\"{}\",\"name\":",
                ev.ts_us,
                ev.source,
                ev.seq,
                ev.cat.label(),
                ev.kind.code()
            ));
            json_escape(ev.name, &mut out);
            out.push_str(",\"fields\":");
            push_fields(&ev.fields, &mut out);
            out.push_str("}\n");
        }
        out
    }

    /// Chrome-trace JSON. Spans map to `B`/`E` phase pairs, instants to
    /// `i`; `tid` is the stable source id, `ts` is virtual microseconds.
    pub fn to_chrome_trace(&self) -> String {
        #[expect(
            clippy::disallowed_methods,
            clippy::disallowed_types,
            reason = "export-metadata stamp on the human-facing Chrome artifact; never emitted into JSONL"
        )]
        let exported_unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let mut out = String::with_capacity(64 + self.events.len() * 128);
        out.push_str("{\"traceEvents\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ph = match ev.kind {
                EventKind::Instant => "i",
                EventKind::Begin => "B",
                EventKind::End => "E",
            };
            out.push_str("{\"name\":");
            json_escape(ev.name, &mut out);
            out.push_str(&format!(
                ",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},\"pid\":1,\"tid\":{}",
                ev.cat.label(),
                ph,
                ev.ts_us,
                ev.source
            ));
            if ev.kind == EventKind::Instant {
                out.push_str(",\"s\":\"t\"");
            }
            out.push_str(",\"args\":");
            push_fields(&ev.fields, &mut out);
            out.push('}');
        }
        out.push_str(&format!(
            "],\"displayTimeUnit\":\"ms\",\"metadata\":{{\"exporter\":\"ofl-trace/1\",\"clock\":\"virtual-us\",\"exported_unix_ms\":{exported_unix_ms}}}}}"
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Category;

    fn sample() -> Trace {
        Trace {
            events: vec![
                TraceEvent {
                    ts_us: 1,
                    source: 0,
                    seq: 0,
                    cat: Category::Engine,
                    kind: EventKind::Begin,
                    name: "dispatch",
                    fields: vec![
                        ("m", FieldValue::U64(2)),
                        ("tag", FieldValue::Str("a\"b".into())),
                    ],
                },
                TraceEvent {
                    ts_us: 3,
                    source: 1,
                    seq: 0,
                    cat: Category::Provider,
                    kind: EventKind::Instant,
                    name: "flaky.drop",
                    fields: vec![("delta", FieldValue::I64(-4))],
                },
            ],
            dropped: 0,
        }
    }

    #[test]
    fn jsonl_is_deterministic_and_escaped() {
        let t = sample();
        let a = t.to_jsonl();
        let b = t.to_jsonl();
        assert_eq!(a, b);
        let lines: Vec<&str> = a.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"meta\":{\"format\":\"ofl-trace/1\",\"events\":2,\"dropped\":0}}"
        );
        assert!(lines[1].contains("\"tag\":\"a\\\"b\""));
        assert!(lines[2].contains("\"delta\":-4"));
        assert!(lines[2].contains("\"cat\":\"provider\""));
    }

    #[test]
    fn chrome_trace_has_span_pairs_and_metadata() {
        let out = sample().to_chrome_trace();
        assert!(out.starts_with("{\"traceEvents\":["));
        assert!(out.contains("\"ph\":\"B\""));
        assert!(out.contains("\"ph\":\"i\""));
        assert!(out.contains("\"clock\":\"virtual-us\""));
        assert!(out.contains("\"exported_unix_ms\":"));
    }

    #[test]
    fn control_characters_are_escaped() {
        let mut s = String::new();
        json_escape("a\u{1}b", &mut s);
        assert_eq!(s, "\"a\\u0001b\"");
    }
}
