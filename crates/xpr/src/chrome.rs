//! Chrome trace-event JSON export of flight-recorder traces.
//!
//! Emits the Trace Event Format's JSON-object form (a `traceEvents`
//! array), which Perfetto and `chrome://tracing` both load directly. Each
//! simulated processor gets its own named track (thread), plus one "bus"
//! track carrying IPI-flight slices from the send mark on the initiator
//! to the matching delivery mark on the target. Phase slices become
//! `B`/`E` duration events; point events become `i` instants.
//!
//! The format is flat enough that the writer is hand-rolled string
//! assembly — every emitted name is static ASCII, so no escaping layer
//! is needed (and the crate stays dependency-free).

use crate::json::Json;
use crate::trace::{TraceEdge, TraceEvent, TracePhase};

/// Nanoseconds rendered as the microsecond `ts` values the trace-event
/// format expects, keeping full nanosecond precision.
fn ts_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Serializes flight-recorder events as a Chrome trace-event JSON
/// document. `n_cpus` fixes the track layout: tids `0..n_cpus` are the
/// processors and tid `n_cpus` is the bus track.
///
/// Events must be in the order [`FlightRecorder::events`] produces
/// (globally time-sorted, per-CPU record order preserved); begin/end
/// nesting per track then matches the recorder's phase nesting.
///
/// [`FlightRecorder::events`]: crate::FlightRecorder::events
pub fn chrome_trace_json(events: &[TraceEvent], n_cpus: usize) -> String {
    let mut out = String::with_capacity(256 + events.len() * 128);
    out.push_str("{\"traceEvents\":[\n");
    let mut first = true;

    // Track names, so Perfetto labels rows "cpu 0".."cpu N", "bus".
    for tid in 0..=n_cpus {
        let name = if tid == n_cpus {
            "bus".to_string()
        } else {
            format!("cpu {tid}")
        };
        let line = format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{name}\"}}}}"
        );
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&line);
    }
    let line = "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
                \"args\":{\"sort_index\":0}}";
    out.push_str(",\n");
    out.push_str(line);

    for e in events {
        let tid = e.cpu.index();
        let ts = ts_us(e.at.as_nanos());
        let line = match e.edge {
            TraceEdge::Begin | TraceEdge::End => {
                let ph = if e.edge == TraceEdge::Begin { "B" } else { "E" };
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"shootdown\",\"ph\":\"{ph}\",\
                     \"pid\":1,\"tid\":{tid},\"ts\":{ts},\
                     \"args\":{{\"span\":{}}}}}",
                    e.phase.name(),
                    e.span.raw(),
                )
            }
            TraceEdge::Mark => {
                let name = if e.phase == TracePhase::IpiSend {
                    format!("{}-to-cpu{}", e.phase.name(), e.arg)
                } else {
                    e.phase.name().to_string()
                };
                format!(
                    "{{\"name\":\"{name}\",\"cat\":\"shootdown\",\"ph\":\"i\",\
                     \"s\":\"t\",\"pid\":1,\"tid\":{tid},\"ts\":{ts},\
                     \"args\":{{\"span\":{}}}}}",
                    e.span.raw(),
                )
            }
        };
        out.push_str(",\n");
        out.push_str(&line);
    }

    // The bus track: one complete ("X") slice per IPI, from the send mark
    // to the matching delivery mark on the target processor.
    for flight in ipi_flights(events) {
        let line = format!(
            "{{\"name\":\"ipi cpu{}-to-cpu{}\",\"cat\":\"bus\",\"ph\":\"X\",\
             \"pid\":1,\"tid\":{n_cpus},\"ts\":{},\"dur\":{},\
             \"args\":{{\"span\":{}}}}}",
            flight.from,
            flight.to,
            ts_us(flight.sent_ns),
            ts_us(flight.delivered_ns - flight.sent_ns),
            flight.span,
        );
        out.push_str(",\n");
        out.push_str(&line);
    }

    out.push_str("\n]}\n");
    out
}

/// One IPI's flight from send to delivery.
struct IpiFlight {
    span: u64,
    from: usize,
    to: usize,
    sent_ns: u64,
    delivered_ns: u64,
}

/// Pairs each [`TracePhase::IpiSend`] mark (whose `arg` names the target
/// processor) with the earliest not-yet-claimed
/// [`TracePhase::IpiDelivery`] mark on that target for the same span at
/// or after the send instant.
fn ipi_flights(events: &[TraceEvent]) -> Vec<IpiFlight> {
    let mut flights = Vec::new();
    let mut claimed = vec![false; events.len()];
    for e in events {
        if e.phase != TracePhase::IpiSend || e.edge != TraceEdge::Mark {
            continue;
        }
        let target = e.arg as usize;
        let delivery = events.iter().enumerate().find(|(i, d)| {
            !claimed[*i]
                && d.phase == TracePhase::IpiDelivery
                && d.edge == TraceEdge::Mark
                && d.span == e.span
                && d.cpu.index() == target
                && d.at >= e.at
        });
        if let Some((i, d)) = delivery {
            claimed[i] = true;
            flights.push(IpiFlight {
                span: e.span.raw(),
                from: e.cpu.index(),
                to: target,
                sent_ns: e.at.as_nanos(),
                delivered_ns: d.at.as_nanos(),
            });
        }
    }
    flights
}

/// The exporter's self-check (used by tests and the CLI): parses the
/// document with the strict [`Json`] parser and returns the length of
/// its `traceEvents` array.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    Ok(Json::parse(json)?.array_field("traceEvents")?.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{FlightRecorder, TraceEdge, TracePhase};
    use machtlb_sim::{CpuId, Time};

    fn sample_events() -> Vec<TraceEvent> {
        let mut r = FlightRecorder::new(2, 32);
        let s = r.begin_span();
        let c0 = CpuId::new(0);
        let c1 = CpuId::new(1);
        r.record(
            c0,
            s,
            TracePhase::Initiate,
            TraceEdge::Begin,
            Time::from_nanos(100),
        );
        r.record(
            c0,
            s,
            TracePhase::Initiate,
            TraceEdge::End,
            Time::from_nanos(300),
        );
        r.record(
            c0,
            s,
            TracePhase::IpiSend,
            TraceEdge::Begin,
            Time::from_nanos(300),
        );
        r.record_arg(
            c0,
            s,
            TracePhase::IpiSend,
            TraceEdge::Mark,
            Time::from_nanos(350),
            1,
        );
        r.record(
            c0,
            s,
            TracePhase::IpiSend,
            TraceEdge::End,
            Time::from_nanos(400),
        );
        r.record(
            c1,
            s,
            TracePhase::IpiDelivery,
            TraceEdge::Mark,
            Time::from_nanos(900),
        );
        r.events()
    }

    #[test]
    fn export_is_structurally_valid_json() {
        let json = chrome_trace_json(&sample_events(), 2);
        let events = validate_chrome_trace(&json).expect("well-formed");
        // 3 thread names + sort index + 6 events + 1 bus slice.
        assert_eq!(events, 11);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"cpu 0\""));
        assert!(json.contains("\"name\":\"bus\""));
    }

    #[test]
    fn bus_track_carries_ipi_flight() {
        let json = chrome_trace_json(&sample_events(), 2);
        assert!(json.contains("\"name\":\"ipi cpu0-to-cpu1\""));
        // send at 350ns = 0.350us, delivery at 900ns → dur 0.550us.
        assert!(json.contains("\"ts\":0.350,\"dur\":0.550"));
    }

    #[test]
    fn timestamps_are_microseconds_with_ns_precision() {
        assert_eq!(ts_us(0), "0.000");
        assert_eq!(ts_us(999), "0.999");
        assert_eq!(ts_us(1000), "1.000");
        assert_eq!(ts_us(1_234_567), "1234.567");
    }

    #[test]
    fn deliveries_are_claimed_once() {
        // Two sends to the same target in different spans must not both
        // pair with the same delivery mark.
        let mut r = FlightRecorder::new(2, 32);
        let s0 = r.begin_span();
        let s1 = r.begin_span();
        let c0 = CpuId::new(0);
        let c1 = CpuId::new(1);
        r.record_arg(
            c0,
            s0,
            TracePhase::IpiSend,
            TraceEdge::Mark,
            Time::from_nanos(10),
            1,
        );
        r.record_arg(
            c0,
            s1,
            TracePhase::IpiSend,
            TraceEdge::Mark,
            Time::from_nanos(20),
            1,
        );
        r.record(
            c1,
            s0,
            TracePhase::IpiDelivery,
            TraceEdge::Mark,
            Time::from_nanos(30),
        );
        r.record(
            c1,
            s1,
            TracePhase::IpiDelivery,
            TraceEdge::Mark,
            Time::from_nanos(40),
        );
        let flights = ipi_flights(&r.events());
        assert_eq!(flights.len(), 2);
        assert_eq!((flights[0].sent_ns, flights[0].delivered_ns), (10, 30));
        assert_eq!((flights[1].sent_ns, flights[1].delivered_ns), (20, 40));
    }
}
