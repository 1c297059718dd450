//! The shared JSON module (`machtlb::xpr::json`) behind every reader and
//! writer: the bench baselines, the Chrome-trace self-check, and the
//! string escaping all the writers use.

use machtlb::bench::{parse_report, BenchMetric, BenchReport};
use machtlb::core::KernelConfig;
use machtlb::sim::Time;
use machtlb::workloads::{run_tester, RunConfig, TesterConfig};
use machtlb::xpr::json::{escape, Json};
use machtlb::xpr::{chrome_trace_json, validate_chrome_trace};

/// Every committed `BENCH_*.json` baseline parses, under the name its
/// file carries.
#[test]
fn parse_report_reads_every_committed_baseline() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/bench/baselines");
    let mut parsed = 0;
    for entry in std::fs::read_dir(dir).expect("the baselines directory") {
        let path = entry.expect("a directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let Some(bench) = name
            .strip_prefix("BENCH_")
            .and_then(|n| n.strip_suffix(".json"))
        else {
            continue;
        };
        let text = std::fs::read_to_string(&path).expect("readable baseline");
        let report = parse_report(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(report.bench, bench, "{name}");
        assert!(!report.metrics.is_empty(), "{name}");
        parsed += 1;
    }
    assert!(parsed >= 7, "only {parsed} baselines found under {dir}");
}

/// Machine sizes and fanout degrees are counts: a negative or fractional
/// value is an error, not a saturated or truncated number.
#[test]
fn parse_report_rejects_negative_or_fractional_counts() {
    let mut r = BenchReport::new("counts");
    r.push(BenchMetric::new("basic_cost/n16", 16, "shootdown", 4, 512.5).counter("ipis_sent", 15));
    let good = r.to_json();
    assert_eq!(parse_report(&good), Ok(r));
    for (from, to) in [
        ("\"cpus\": 16", "\"cpus\": -16"),
        ("\"cpus\": 16", "\"cpus\": 16.5"),
        ("\"fanout\": 4", "\"fanout\": -4"),
        ("\"fanout\": 4", "\"fanout\": 4.25"),
        ("\"ipis_sent\": 15", "\"ipis_sent\": 1.5e1"),
    ] {
        let bad = good.replace(from, to);
        assert_ne!(bad, good);
        assert!(parse_report(&bad).is_err(), "accepted {to}");
    }
}

/// The Chrome exporter's output from a real traced run is valid JSON
/// with the trace-event shape, and its timestamps read back as numbers.
#[test]
fn a_chrome_export_parses() {
    let config = RunConfig {
        n_cpus: 4,
        kconfig: KernelConfig {
            trace_shootdowns: true,
            ..KernelConfig::default()
        },
        device_period: None,
        limit: Time::from_micros(60_000_000),
        ..RunConfig::multimax16(1)
    };
    let out = run_tester(
        &config,
        &TesterConfig {
            children: 3,
            warmup_increments: 20,
        },
    );
    assert!(!out.report.trace.is_empty(), "the run recorded a trace");
    let json = chrome_trace_json(&out.report.trace, out.report.n_cpus);
    let events = validate_chrome_trace(&json).expect("a well-formed trace");
    let doc = Json::parse(&json).expect("valid json");
    let trace = doc.array_field("traceEvents").expect("traceEvents");
    assert_eq!(trace.len(), events);
    assert!(events > out.report.trace.len(), "track headers plus events");
    for e in trace.iter().filter(|e| e.get("ts").is_some()) {
        e.f64_field("ts").expect("a numeric timestamp");
    }
    assert!(validate_chrome_trace(&json[..json.len() / 2]).is_err());
}

/// `escape` round-trips quotes, backslashes, control characters, and
/// non-ASCII text through the parser — and so does every writer built on
/// it, here the bench report.
#[test]
fn escape_round_trips_through_the_parser() {
    for s in [
        "",
        "plain",
        "a \"quoted\" word",
        "back\\slash\\",
        "controls \u{0}\u{1}\u{8}\u{c}\u{1f} \n\t\r",
        "non-ascii: é ß 漢字 😀",
    ] {
        let doc = format!("\"{}\"", escape(s));
        assert_eq!(Json::parse(&doc).expect(&doc).as_str(), Some(s));
    }
    let mut r = BenchReport::new("weird \"bench\"");
    r.push(BenchMetric::new("a\"b\\c", 1, "s\u{1}é", 1, 1.0).counter("tab\tkey", 2));
    assert_eq!(parse_report(&r.to_json()), Ok(r));
}
