//! Serialization for this crate's data: metric snapshots as stable
//! [`Json`] objects and span rings as Chrome trace-event documents.
//!
//! The registry and the recorder own no serializer; this module is
//! where their neutral snapshot types meet the crate's self-contained
//! JSON codec. The `stats` wire verb, the `--trace` CLI artifact, and
//! the cluster merge report all render through here, so they agree on
//! field names by construction.

use crate::json::Json;
use crate::metrics::{HistogramSnapshot, MetricsSnapshot};
use crate::trace::SpanRecord;

fn u64_json(v: u64) -> Json {
    // Counters beyond 2^53 would lose precision as a JSON number; no
    // realistic run gets near that, but saturate explicitly rather
    // than emit a lying digit string.
    Json::Num(v.min(1 << 53) as f64)
}

fn histogram_json(h: &HistogramSnapshot) -> Json {
    let buckets = h
        .buckets
        .iter()
        .map(|&(bound, n)| {
            let le = bound.map_or(Json::Null, u64_json);
            Json::Arr(vec![le, u64_json(n)])
        })
        .collect();
    Json::Obj(vec![
        ("count".into(), u64_json(h.count)),
        ("sum".into(), u64_json(h.sum)),
        ("buckets".into(), Json::Arr(buckets)),
    ])
}

/// Renders a registry snapshot as one stable JSON object:
/// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`, every
/// map in registry order. Histogram buckets are `[upper_bound, count]`
/// pairs with `null` as the overflow bound.
pub fn snapshot_to_json(snap: &MetricsSnapshot) -> Json {
    let counters = snap
        .counters
        .iter()
        .map(|&(name, v)| (name.to_owned(), u64_json(v)))
        .collect();
    let gauges = snap
        .gauges
        .iter()
        .map(|&(name, v)| (name.to_owned(), u64_json(v)))
        .collect();
    let histograms = snap
        .histograms
        .iter()
        .map(|h| (h.name.to_owned(), histogram_json(h)))
        .collect();
    Json::Obj(vec![
        ("counters".into(), Json::Obj(counters)),
        ("gauges".into(), Json::Obj(gauges)),
        ("histograms".into(), Json::Obj(histograms)),
    ])
}

/// Renders drained spans as a Chrome trace-event document (the JSON
/// object form: `{"traceEvents": [...]}`), loadable in
/// `chrome://tracing` and [Perfetto](https://ui.perfetto.dev). Every
/// span becomes one complete (`"ph": "X"`) event with microsecond
/// `ts`/`dur`; nesting is recovered by the viewer from interval
/// containment per thread, which the recorder's LIFO guard order
/// guarantees.
pub fn trace_to_json(records: &[SpanRecord], dropped: u64) -> Json {
    let events = records
        .iter()
        .map(|r| {
            let mut fields = vec![
                ("name".into(), Json::Str(r.name.clone())),
                ("cat".into(), Json::Str(r.cat.to_owned())),
                ("ph".into(), Json::Str("X".into())),
                ("ts".into(), u64_json(r.ts_us)),
                ("dur".into(), u64_json(r.dur_us)),
                ("pid".into(), Json::Num(0.0)),
                ("tid".into(), u64_json(r.tid)),
            ];
            if !r.args.is_empty() {
                let args = r
                    .args
                    .iter()
                    .map(|&(k, v)| (k.to_owned(), u64_json(v)))
                    .collect();
                fields.push(("args".into(), Json::Obj(args)));
            }
            Json::Obj(fields)
        })
        .collect();
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::Str("ms".into())),
        (
            "otherData".into(),
            Json::Obj(vec![("dropped_spans".into(), u64_json(dropped))]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_renders_registry_names() {
        let doc = snapshot_to_json(&crate::metrics().snapshot());
        let counters = doc.get("counters").expect("counters map");
        assert!(counters.get("evaluations").is_some());
        assert!(counters.get("frames_read").is_some());
        let histograms = doc.get("histograms").expect("histograms map");
        assert!(histograms.get("grant_width").is_some());
        // Round-trips through the codec.
        let reparsed = Json::parse(&doc.to_compact()).expect("valid JSON");
        assert_eq!(reparsed, doc);
    }

    #[test]
    fn trace_events_carry_chrome_fields() {
        let records = vec![SpanRecord {
            name: "flow".into(),
            cat: "flow",
            ts_us: 10,
            dur_us: 25,
            tid: 3,
            args: vec![("gates", 7)],
        }];
        let doc = trace_to_json(&records, 2);
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("events array");
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(e.get("ts").and_then(Json::as_uint), Some(10));
        assert_eq!(e.get("dur").and_then(Json::as_uint), Some(25));
        assert_eq!(e.get("tid").and_then(Json::as_uint), Some(3));
        let args = e.get("args").expect("args");
        assert_eq!(args.get("gates").and_then(Json::as_uint), Some(7));
        assert_eq!(
            doc.get("otherData")
                .and_then(|o| o.get("dropped_spans"))
                .and_then(Json::as_uint),
            Some(2)
        );
    }
}
