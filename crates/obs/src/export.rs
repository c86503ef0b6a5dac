//! Exporters: Prometheus text exposition, JSON snapshot, and Chrome
//! trace-event JSON (loadable in Perfetto / `chrome://tracing`).
//!
//! All output is hand-rolled text — no serialization dependency.

use crate::registry::Snapshot;
use crate::span::SpanEvent;

/// Splits `span_seconds{path="x"}` into (`span_seconds`, `path="x"`);
/// plain names return an empty label part.
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(i) if name.ends_with('}') => (&name[..i], &name[i + 1..name.len() - 1]),
        _ => (name, ""),
    }
}

/// Makes a name safe for Prometheus (`[a-zA-Z0-9_:]`).
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Formats an f64 the way Prometheus expects (`+Inf` for infinity).
fn prom_f64(v: f64) -> String {
    if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Renders a snapshot in Prometheus text exposition format.
///
/// Counters become `<name>_total`, histograms expand to cumulative
/// `_bucket{le=...}` series plus `_sum` and `_count`. Label sets embedded
/// in instrument names (`name{k="v"}`) are preserved and merged with `le`.
pub fn to_prometheus(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    // `# TYPE` must appear once per metric family: labelled series that
    // share a base name (e.g. `h2o_exec_node_jobs_total{node=...}`) get a single header.
    let mut typed: std::collections::BTreeSet<String> = std::collections::BTreeSet::new();
    for (name, value) in &snapshot.counters {
        let (base, labels) = split_labels(name);
        let mut base = sanitize(base);
        if !base.ends_with("_total") {
            base.push_str("_total");
        }
        if typed.insert(base.clone()) {
            out.push_str(&format!("# TYPE {base} counter\n"));
        }
        if labels.is_empty() {
            out.push_str(&format!("{base} {value}\n"));
        } else {
            out.push_str(&format!("{base}{{{labels}}} {value}\n"));
        }
    }
    for (name, value) in &snapshot.gauges {
        let (base, labels) = split_labels(name);
        let base = sanitize(base);
        if typed.insert(base.clone()) {
            out.push_str(&format!("# TYPE {base} gauge\n"));
        }
        if labels.is_empty() {
            out.push_str(&format!("{base} {}\n", prom_f64(*value)));
        } else {
            out.push_str(&format!("{base}{{{labels}}} {}\n", prom_f64(*value)));
        }
    }
    for (name, h) in &snapshot.histograms {
        let (base, labels) = split_labels(name);
        let base = sanitize(base);
        if typed.insert(base.clone()) {
            out.push_str(&format!("# TYPE {base} histogram\n"));
        }
        let sep = if labels.is_empty() { "" } else { "," };
        let mut cumulative = 0u64;
        for (bound, count) in &h.buckets {
            cumulative += count;
            out.push_str(&format!(
                "{base}_bucket{{{labels}{sep}le=\"{}\"}} {cumulative}\n",
                prom_f64(*bound)
            ));
        }
        out.push_str(&format!(
            "{base}_bucket{{{labels}{sep}le=\"+Inf\"}} {}\n",
            h.count
        ));
        if labels.is_empty() {
            out.push_str(&format!("{base}_sum {}\n", prom_f64(h.sum)));
            out.push_str(&format!("{base}_count {}\n", h.count));
        } else {
            out.push_str(&format!("{base}_sum{{{labels}}} {}\n", prom_f64(h.sum)));
            out.push_str(&format!("{base}_count{{{labels}}} {}\n", h.count));
        }
    }
    out
}

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// JSON-safe f64 (JSON has no Infinity/NaN; clamp to null).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Renders a snapshot as a JSON object:
/// `{"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
/// mean, p50, p95, p99}}}`.
pub fn to_json(snapshot: &Snapshot) -> String {
    let mut out = String::from("{\n  \"counters\": {");
    let mut first = true;
    for (name, v) in &snapshot.counters {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("\n    \"{}\": {v}", json_escape(name)));
    }
    out.push_str("\n  },\n  \"gauges\": {");
    first = true;
    for (name, v) in &snapshot.gauges {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n    \"{}\": {}",
            json_escape(name),
            json_f64(*v)
        ));
    }
    out.push_str("\n  },\n  \"histograms\": {");
    first = true;
    for (name, h) in &snapshot.histograms {
        if !first {
            out.push(',');
        }
        first = false;
        let mean = if h.count == 0 {
            0.0
        } else {
            h.sum / h.count as f64
        };
        out.push_str(&format!(
            "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"mean\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
            json_escape(name),
            h.count,
            json_f64(h.sum),
            json_f64(mean),
            json_f64(h.p50),
            json_f64(h.p95),
            json_f64(h.p99),
        ));
    }
    out.push_str("\n  }\n}\n");
    out
}

/// Renders span events as Chrome trace-event JSON ("X" complete events),
/// loadable in Perfetto or `chrome://tracing`.
///
/// The event `name` is the span's leaf name; the full hierarchical path is
/// attached under `args.path`. Nesting is reconstructed by the viewer from
/// the time intervals per thread.
pub fn to_chrome_trace(events: &[SpanEvent]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let leaf = e.path.rsplit('/').next().unwrap_or(&e.path);
        out.push_str(&format!(
            "\n{{\"name\":\"{}\",\"cat\":\"span\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{},\"args\":{{\"path\":\"{}\"}}}}",
            json_escape(leaf),
            e.start_us,
            e.dur_us,
            e.tid,
            json_escape(&e.path),
        ));
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::span::Tracer;

    #[test]
    fn prometheus_exposes_all_instrument_kinds() {
        let r = Registry::new();
        r.add("steps", 3);
        r.set("reward", 0.75);
        r.record("latency_seconds", 0.010);
        r.record("latency_seconds", 0.020);
        let text = to_prometheus(&r.snapshot());
        assert!(text.contains("# TYPE steps_total counter"));
        assert!(text.contains("steps_total 3"));
        assert!(text.contains("# TYPE reward gauge"));
        assert!(text.contains("reward 0.75"));
        assert!(text.contains("# TYPE latency_seconds histogram"));
        assert!(text.contains("latency_seconds_count 2"));
        assert!(text.contains("le=\"+Inf\"}} 2") || text.contains("le=\"+Inf\"} 2"));
    }

    #[test]
    fn prometheus_merges_embedded_labels() {
        let r = Registry::new();
        r.record("span_seconds{path=\"a/b\"}", 0.5);
        let text = to_prometheus(&r.snapshot());
        assert!(
            text.contains("span_seconds_bucket{path=\"a/b\",le="),
            "labels not merged:\n{text}"
        );
        assert!(text.contains("span_seconds_sum{path=\"a/b\"}"));
    }

    #[test]
    fn prometheus_emits_one_type_line_per_family() {
        let r = Registry::new();
        r.inc("visits{op=\"a\"}");
        r.inc("visits{op=\"b\"}");
        r.inc("visits{op=\"c\"}");
        let text = to_prometheus(&r.snapshot());
        let headers = text.matches("# TYPE visits_total counter").count();
        assert_eq!(headers, 1, "one TYPE header per family:\n{text}");
        assert!(text.contains("visits_total{op=\"a\"} 1"));
        assert!(text.contains("visits_total{op=\"c\"} 1"));
    }

    #[test]
    fn json_snapshot_has_quantiles() {
        let r = Registry::new();
        for i in 1..=100 {
            r.record("h", i as f64);
        }
        let json = to_json(&r.snapshot());
        assert!(json.contains("\"p99\""));
        assert!(json.contains("\"count\": 100"));
    }

    #[test]
    fn chrome_trace_is_wellformed() {
        let r = Registry::new();
        let t = Tracer::new(r);
        {
            let _a = t.span("outer");
            let _b = t.span("inner");
        }
        let trace = to_chrome_trace(&t.events());
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"args\":{\"path\":\"outer/inner\"}"));
        assert!(trace.trim_end().ends_with('}'));
    }
}
