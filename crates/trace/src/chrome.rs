//! Chrome trace-event JSON export — load the output in Perfetto
//! (`ui.perfetto.dev`) or `chrome://tracing`.
//!
//! Mapping: one **pid** per host (`host` field; the Sim timeline gets
//! its own pid 0 track, hosts are offset by 1), one **tid** per actor
//! class + lane — planner workers, store shards, links (src→dst pair),
//! decode/exposure per executor host; on the sim track one per replica
//! plus one per (replica, device) for engine ops. All
//! spans become `"X"` complete events with byte/generation/wait
//! payloads in `args`; `"M"` metadata events name the tracks.

use crate::{ClockDomain, Span, SpanKind, Trace};
use std::collections::BTreeMap;

/// The pid a span renders under: 0 = the Sim timeline, 1 + host
/// otherwise (host -1, e.g. queue-side events, lands on pid 1).
fn pid(s: &Span) -> i64 {
    match s.domain {
        ClockDomain::Sim => 0,
        ClockDomain::Host => 1 + s.host.max(0),
    }
}

/// The tid a span renders under, plus a human track name.
fn tid(s: &Span) -> (i64, String) {
    match s.kind {
        SpanKind::IterExec => (1 + s.lane.max(0), format!("replica {}", s.lane.max(0))),
        // A pipeline device's ops overlap other devices' ops, so each
        // (replica, device) pair gets its own track.
        SpanKind::EngineOp => (
            1000 * (1 + s.lane.max(0)) + s.src.max(0),
            format!("replica {} dev {}", s.lane.max(0), s.src.max(0)),
        ),
        SpanKind::IterSync => (0, "iteration sync".into()),
        SpanKind::TicketClaim
        | SpanKind::TicketPlan
        | SpanKind::TicketLower
        | SpanKind::TicketEncode
        | SpanKind::TicketComplete
        | SpanKind::TicketReissue => (1000 + s.lane.max(0), format!("worker {}", s.lane.max(0))),
        SpanKind::StorePush | SpanKind::StoreTake | SpanKind::StoreDiscard => {
            (2000 + s.lane.max(0), format!("shard {}", s.lane.max(0)))
        }
        SpanKind::Decode => (3000 + s.lane.max(0), format!("decode h{}", s.lane.max(0))),
        SpanKind::ExposedWait | SpanKind::ExposedPlanning => {
            (3500 + s.lane.max(0), format!("exposed h{}", s.lane.max(0)))
        }
        SpanKind::LinkPush | SpanKind::LinkFetch | SpanKind::LinkRestore => (
            4000 + 64 * (s.src + 1) + (s.dst + 1),
            format!("link {}→{}", s.src, s.dst),
        ),
        SpanKind::ChurnAction => (5000, "churn".into()),
    }
}

/// Render a trace as Chrome trace-event JSON (`{"traceEvents": [...]}`).
pub fn to_chrome_trace(trace: &Trace) -> String {
    let mut events = Vec::with_capacity(trace.spans.len() + 32);
    let mut tracks: BTreeMap<(i64, i64), String> = BTreeMap::new();
    for s in &trace.spans {
        let p = pid(s);
        let (t, name) = tid(s);
        tracks.entry((p, t)).or_insert(name);
        events.push(format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":{p},\"tid\":{t},\"args\":{{\"iteration\":{},\"bytes\":{},\
             \"generation\":{},\"wait_us\":{:.3},\"src\":{},\"dst\":{}}}}}",
            s.kind.label(),
            match s.domain {
                ClockDomain::Sim => "sim",
                ClockDomain::Host => "host",
            },
            s.start_us,
            (s.end_us - s.start_us).max(0.0),
            s.iteration,
            s.bytes,
            s.generation,
            s.wait_us,
            s.src,
            s.dst,
        ));
    }
    let mut pids: Vec<i64> = tracks.keys().map(|&(p, _)| p).collect();
    pids.dedup();
    for p in pids {
        let pname = if p == 0 {
            "sim timeline".to_string()
        } else {
            format!("host {}", p - 1)
        };
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{p},\"tid\":0,\
             \"args\":{{\"name\":\"{pname}\"}}}}"
        ));
    }
    for ((p, t), name) in &tracks {
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{p},\"tid\":{t},\
             \"args\":{{\"name\":\"{name}\"}}}}"
        ));
    }
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceSink;

    #[test]
    fn chrome_export_is_parseable_json() {
        let sink = TraceSink::bounded(8);
        sink.record(Span {
            kind: SpanKind::LinkFetch,
            iteration: 3,
            lane: 1,
            host: 1,
            start_us: 10.0,
            end_us: 25.0,
            wait_us: 5.0,
            bytes: 4096,
            src: 0,
            dst: 1,
            ..Span::default()
        });
        sink.record(Span {
            kind: SpanKind::IterExec,
            domain: ClockDomain::Sim,
            iteration: 3,
            lane: 0,
            start_us: 0.0,
            end_us: 100.0,
            ..Span::default()
        });
        let text = to_chrome_trace(&sink.finish());
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_array())
            .expect("traceEvents array");
        // 2 spans + 2 process_name + 2 thread_name metadata events.
        assert_eq!(events.len(), 6);
    }

    #[test]
    fn overlapping_engine_ops_on_different_devices_get_distinct_tracks() {
        let sink = TraceSink::bounded(8);
        for device in [0, 1] {
            sink.record(Span {
                kind: SpanKind::EngineOp,
                domain: ClockDomain::Sim,
                iteration: 0,
                lane: 0,
                start_us: 10.0,
                end_us: 20.0,
                src: device,
                ..Span::default()
            });
        }
        let text = to_chrome_trace(&sink.finish());
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let tids: Vec<i64> = v["traceEvents"]
            .as_array()
            .expect("traceEvents array")
            .iter()
            .filter(|e| e["ph"] == "X")
            .map(|e| e["tid"].as_i64().expect("tid"))
            .collect();
        assert_eq!(tids.len(), 2);
        assert_ne!(tids[0], tids[1], "overlapping ops share a track");
    }
}
