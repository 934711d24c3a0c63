//! Cross-crate telemetry tests: the FheEngine's per-op span-duration and
//! noise histograms, the one gate and one `reset`, the scheduler's
//! utilization gauges cross-checked against analytic component times, and
//! exporter round-trips through strict parsers (Prometheus text, JSON,
//! Chrome trace).

use neo::ckks::batch::{BatchOp, BatchProgram, Slot};
use neo::ckks::cost::{CostConfig, Operation};
use neo::ckks::encoding::Complex64;
use neo::ckks::sched::batch_op_graph;
use neo::ckks::{CkksParams, FheEngine, LinearTransform, ParamSet};
use neo::gpu_sim::DeviceModel;
use neo::sched::{chrome_trace, publish_utilization, simulate, SimConfig};
use neo::trace::jsonv::{self, JsonValue};
use neo::trace::{record, registry, SPAN_DURATION_NS};
use std::collections::BTreeSet;

// The gate and the default registry are process-wide: every test that
// turns the gate on or reads the registry does so inside `record` (or
// holds `neo::trace::lock()`), so no concurrent test can flip the gate or
// reset the registry under it.

// ---------------------------------------------------------------------
// FheEngine histograms
// ---------------------------------------------------------------------

/// Each op kind's noise label and the span its latency comes from.
const OP_SPANS: [(&str, &str); 4] = [
    ("hmult", "ckks.hmult"),
    ("rescale", "ckks.rescale"),
    ("hadd", "ckks.hadd"),
    ("hrotate", "ckks.hrotate"),
];

/// Batch execution populates per-op-kind latency (span-duration) and
/// noise-consumption histograms, readable as p50/p95/p99 out of one
/// registry snapshot — the serving-layer contract of the telemetry layer.
#[test]
fn engine_batch_exposes_latency_and_noise_histograms() {
    let engine = FheEngine::new(CkksParams::test_tiny(), 7).expect("params are valid");
    let a = engine.encrypt_f64(&[0.5, 0.25], 3).expect("encrypt");
    let b = engine.encrypt_f64(&[0.25, 0.125], 3).expect("encrypt");

    let mut prog = BatchProgram::new();
    let m = prog
        .try_push(BatchOp::HMult(Slot::Input(0), Slot::Input(1)))
        .expect("legal op");
    let r = prog.try_push(BatchOp::Rescale(m)).expect("legal op");
    let s = prog.try_push(BatchOp::HAdd(r, r)).expect("legal op");
    prog.try_push(BatchOp::HRotate(s, 1)).expect("legal op");

    let ((report, snap), _) = record(|| {
        let report = engine
            .execute_batch_with_report(&prog, &[a, b], 1)
            .expect("batch executes");
        (report, registry().snapshot())
    });
    assert!(report.results.iter().all(Result::is_ok));

    for (op, span) in OP_SPANS {
        let lat = snap
            .histogram(SPAN_DURATION_NS, &[("span", span)])
            .unwrap_or_else(|| panic!("latency histogram for {op} missing"));
        assert!(lat.count >= 1, "{op}: no latency samples");
        let (p50, p95, p99) = (lat.p50(), lat.p95(), lat.p99());
        assert!(
            p50 <= p95 && p95 <= p99 && p99 <= lat.max,
            "{op}: quantiles out of order: p50={p50} p95={p95} p99={p99} max={}",
            lat.max
        );
        assert!(p50 > 0, "{op}: zero-latency op is implausible");

        let noise = snap
            .histogram("fhe_noise_consumed_bits", &[("op", op)])
            .unwrap_or_else(|| panic!("noise histogram for {op} missing"));
        assert!(noise.count >= 1, "{op}: no noise samples");
    }
    // HMult burns real budget; the histogram must have seen it.
    let hmult_noise = snap
        .histogram("fhe_noise_consumed_bits", &[("op", "hmult")])
        .expect("present");
    assert!(
        hmult_noise.max >= 1,
        "HMult consumed no noise budget bits: max={}",
        hmult_noise.max
    );
    let ops = snap.counter("fhe_batch_ops_total", &[]).expect("counter");
    assert!(ops >= 4, "batch op counter {ops} < 4");
}

/// Inside a BSGS transform each rotation, baby or giant, opens one
/// `ckks.hrotate` span, and no HAdd runs: the giant steps' key switches
/// land in the stage's running sums.
#[test]
fn bsgs_rotations_open_one_span_each_and_run_no_hadd() {
    let engine = FheEngine::new(CkksParams::test_tiny(), 13).expect("params are valid");
    let slots = engine.slots();
    let a = engine.encrypt_f64(&[0.5, 0.25], 3).expect("encrypt");
    // Baby size 3: babies 1 and 2 rotate, and so do the giant groups at
    // shifts 3 and 9 (the group at shift 0 does not).
    let diagonals = [0, 1, 2, 4, 9]
        .into_iter()
        .map(|d| (d, vec![Complex64::new(0.1, 0.0); slots]))
        .collect();
    let lt = LinearTransform::try_from_diagonals(slots, diagonals).expect("legal transform");
    let apply = || {
        lt.try_apply_bsgs(engine.chest(), engine.encoder(), &a, 3, engine.method())
            .expect("transform applies")
    };
    // The first application generates the Galois keys.
    apply();
    let (children, _) = record(|| {
        let outer = neo::trace::span!("test.bsgs");
        apply();
        drop(outer);
        let spans = neo::trace::span::spans();
        let outer = spans.iter().rposition(|s| s.name == "test.bsgs");
        let children = spans
            .iter()
            .filter(|s| s.parent.is_some() && s.parent == outer);
        children.map(|s| s.name).collect::<Vec<_>>()
    });
    let count = |name| children.iter().filter(|&&n| n == name).count();
    assert_eq!(count("ckks.hrotate"), 4, "{children:?}");
    assert_eq!(count("ckks.hadd"), 0, "{children:?}");
    assert_eq!(count("ckks.rescale"), 1, "{children:?}");
}

// ---------------------------------------------------------------------
// One gate, one reset
// ---------------------------------------------------------------------

/// `reset()` zeroes registry series in place, so the handles instrumented
/// crates cache (the noise histograms, each thread's span-histogram
/// cache) keep feeding what the next snapshot reads: the HAdd after the
/// reset must show up, and only it.
#[test]
fn reset_keeps_cached_series_reachable() {
    let engine = FheEngine::new(CkksParams::test_tiny(), 11).expect("params are valid");
    let a = engine.encrypt_f64(&[0.5], 3).expect("encrypt");
    let (snap, _) = record(|| {
        engine.hadd(&a, &a).expect("hadd");
        neo::trace::reset();
        engine.hadd(&a, &a).expect("hadd");
        registry().snapshot()
    });
    let count = |name: &str, labels: &[(&str, &str)]| snap.histogram(name, labels).map(|h| h.count);
    assert_eq!(count(SPAN_DURATION_NS, &[("span", "ckks.hadd")]), Some(1));
    assert_eq!(count("fhe_noise_consumed_bits", &[("op", "hadd")]), Some(1));
}

/// With the gate on outside `record`, K ops leave the span tree and the
/// event list untouched (memory stays bounded on long runs) while the
/// span histogram still counts every op.
#[test]
fn gate_on_outside_record_times_spans_without_a_tree() {
    const K: u64 = 3;
    let engine = FheEngine::new(CkksParams::test_tiny(), 12).expect("params are valid");
    let a = engine.encrypt_f64(&[0.5], 3).expect("encrypt");
    engine.hmult(&a, &a).expect("warm the relinearisation key");
    let hmult_ns = neo::trace::span::duration_histogram("ckks.hmult");

    let _lock = neo::trace::lock();
    let (spans, events) = (
        neo::trace::span::spans().len(),
        neo::trace::span::events().len(),
    );
    let timed = hmult_ns.count();
    neo::trace::enable();
    for _ in 0..K {
        engine.hmult(&a, &a).expect("hmult");
    }
    neo::trace::disable();
    assert_eq!(neo::trace::span::spans().len(), spans);
    assert_eq!(neo::trace::span::events().len(), events);
    assert_eq!(hmult_ns.count(), timed + K);
}

// ---------------------------------------------------------------------
// Scheduler utilization cross-check
// ---------------------------------------------------------------------

/// On the 4-stream fused KLSS HMult scenario the simulator's busy-time
/// accounting (what the gauges report) must agree with the analytic sum
/// of per-kernel engine times to ≤ 1% — the engines are exclusive and
/// HBM is work-conserving, so no service time may be created or lost.
#[test]
fn sched_utilization_gauges_match_component_sums() {
    let dev = DeviceModel::a100();
    let p = ParamSet::C.params();
    let hmult = batch_op_graph(&p, 35, Operation::HMult, &CostConfig::neo(), 8);
    let (fused, _) = hmult.fuse_elementwise();
    let sched = simulate(&fused, &dev, SimConfig::streams(4));

    let (mut cuda_sum, mut tcu_sum, mut mem_sum) = (0.0f64, 0.0f64, 0.0f64);
    for node in fused.nodes() {
        let (c, t, m, _) = dev.component_times(&node.profile);
        cuda_sum += c;
        tcu_sum += t;
        mem_sum += m;
    }
    let within_1pct = |got: f64, want: f64, what: &str| {
        let rel = if want > 0.0 {
            (got - want).abs() / want
        } else {
            got.abs()
        };
        assert!(
            rel <= 0.01,
            "{what}: got {got}, analytic {want} ({:.3}% off)",
            rel * 100.0
        );
    };
    within_1pct(sched.busy.cuda_s, cuda_sum, "cuda busy");
    within_1pct(sched.busy.tcu_s, tcu_sum, "tcu busy");
    within_1pct(sched.busy.hbm_s, mem_sum, "hbm busy");
    within_1pct(
        sched.busy.stream_compute_s.iter().sum(),
        cuda_sum + tcu_sum,
        "per-stream compute",
    );
    within_1pct(
        sched.busy.stream_mem_s.iter().sum(),
        sched.busy.hbm_s,
        "per-stream hbm",
    );

    let (snap, _) = record(|| {
        publish_utilization(&sched);
        registry().snapshot()
    });
    let window = sched.device_window_s();
    assert!(window > 0.0);
    for (engine, busy_s) in [
        ("cuda", sched.busy.cuda_s),
        ("tcu", sched.busy.tcu_s),
        ("hbm", sched.busy.hbm_s),
    ] {
        let gauge = snap
            .gauge("sched_engine_busy_fraction", &[("engine", engine)])
            .unwrap_or_else(|| panic!("{engine} gauge missing"));
        assert!(
            (gauge - busy_s / window).abs() < 1e-12,
            "{engine}: gauge {gauge} != busy/window {}",
            busy_s / window
        );
        assert!(
            gauge > 0.0 && gauge <= 1.0 + 1e-9,
            "{engine} fraction {gauge}"
        );
    }
    for s in 0..4 {
        let stream = s.to_string();
        let g = snap
            .gauge(
                "sched_stream_busy_fraction",
                &[("stream", &stream), ("engine", "compute")],
            )
            .expect("per-stream gauge");
        assert!((0.0..=1.0 + 1e-9).contains(&g), "stream {s} fraction {g}");
    }
}

// ---------------------------------------------------------------------
// Strict exporter round-trips
// ---------------------------------------------------------------------

/// One parsed Prometheus sample line.
struct PromSample {
    name: String,
    labels: Vec<(String, String)>,
    value: f64,
}

/// Strict parser for the Prometheus text exposition subset the exporter
/// emits. Panics on any malformed line, unknown escape, or duplicate
/// series — the test-side contract for satellite 3.
fn parse_prometheus(text: &str) -> Vec<PromSample> {
    let mut samples = Vec::new();
    let mut seen = BTreeSet::new();
    let mut typed: BTreeSet<String> = BTreeSet::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split_whitespace();
            let fam = it.next().expect("# TYPE has a family name").to_string();
            let kind = it.next().expect("# TYPE has a kind");
            assert!(
                ["counter", "gauge", "summary"].contains(&kind),
                "unknown TYPE {kind}"
            );
            assert!(it.next().is_none(), "trailing tokens on TYPE line: {line}");
            assert!(typed.insert(fam.clone()), "duplicate # TYPE for {fam}");
            continue;
        }
        assert!(!line.starts_with('#'), "unexpected comment {line:?}");
        let (series, value_str) = match line.find('}') {
            Some(close) => {
                let v = line[close + 1..].trim();
                (&line[..close + 1], v)
            }
            None => {
                let sp = line
                    .find(' ')
                    .unwrap_or_else(|| panic!("no value in {line:?}"));
                (&line[..sp], line[sp + 1..].trim())
            }
        };
        let value: f64 = match value_str {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            "NaN" => f64::NAN,
            v => v
                .parse()
                .unwrap_or_else(|e| panic!("bad value in {line:?}: {e}")),
        };
        let (name, labels) = match series.find('{') {
            None => (series.to_string(), Vec::new()),
            Some(open) => {
                assert!(
                    series.ends_with('}'),
                    "unterminated label block in {line:?}"
                );
                let name = series[..open].to_string();
                let body = &series[open + 1..series.len() - 1];
                (name, parse_label_block(body, line))
            }
        };
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "invalid metric name {name:?}"
        );
        assert!(
            !name.is_empty() && !name.chars().next().expect("nonempty").is_ascii_digit(),
            "invalid metric name {name:?}"
        );
        let key = format!("{name}{series:?}");
        assert!(seen.insert(key), "duplicate series in export: {line:?}");
        samples.push(PromSample {
            name,
            labels,
            value,
        });
    }
    samples
}

/// Parses `k="v",k2="v2"` with the three Prometheus escapes.
fn parse_label_block(body: &str, line: &str) -> Vec<(String, String)> {
    let mut labels = Vec::new();
    let mut chars = body.chars().peekable();
    loop {
        let mut key = String::new();
        while let Some(&c) = chars.peek() {
            if c == '=' {
                break;
            }
            key.push(c);
            chars.next();
        }
        assert!(!key.is_empty(), "empty label key in {line:?}");
        assert_eq!(chars.next(), Some('='), "missing '=' in {line:?}");
        assert_eq!(chars.next(), Some('"'), "missing opening quote in {line:?}");
        let mut value = String::new();
        loop {
            match chars.next() {
                Some('\\') => match chars.next() {
                    Some('\\') => value.push('\\'),
                    Some('"') => value.push('"'),
                    Some('n') => value.push('\n'),
                    other => panic!("invalid escape \\{other:?} in {line:?}"),
                },
                Some('"') => break,
                Some(c) => value.push(c),
                None => panic!("unterminated label value in {line:?}"),
            }
        }
        let dup = labels.iter().any(|(k, _)| *k == key);
        assert!(!dup, "duplicate label key {key:?} in {line:?}");
        labels.push((key, value));
        match chars.next() {
            Some(',') => continue,
            None => break,
            Some(c) => panic!("unexpected {c:?} after label in {line:?}"),
        }
    }
    labels
}

/// The Prometheus exporter round-trips through the strict parser: every
/// line parses, no series repeats, and hostile label values (quotes,
/// backslashes, newlines) survive escape + unescape byte-identical.
#[test]
fn prometheus_export_round_trips_through_strict_parser() {
    let hostile = "a\\b\"c\nd";
    let (snap, _) = record(|| {
        neo::trace::counter("roundtrip_requests_total", &[("path", hostile)]).add(3);
        neo::trace::gauge("roundtrip_depth", &[("q", "x,y=z")]).set(-2.5);
        let h = neo::trace::histogram("roundtrip_latency_ns", &[("op", "probe")]);
        for v in [100, 200, 400, 800] {
            h.record(v);
        }
        registry().snapshot()
    });
    let text = neo::trace::export::prometheus_text(&snap);
    let samples = parse_prometheus(&text);
    assert!(!samples.is_empty());

    let counter = samples
        .iter()
        .find(|s| s.name == "roundtrip_requests_total")
        .expect("counter exported");
    assert_eq!(counter.value, 3.0);
    assert_eq!(
        counter.labels,
        vec![("path".to_string(), hostile.to_string())],
        "hostile label value must round-trip byte-identical"
    );
    let gauge = samples
        .iter()
        .find(|s| s.name == "roundtrip_depth")
        .expect("gauge");
    assert_eq!(gauge.value, -2.5);
    // The histogram exports as a summary: quantile series + _count/_sum/_max.
    let quantiles: Vec<&PromSample> = samples
        .iter()
        .filter(|s| {
            s.name == "roundtrip_latency_ns" && s.labels.iter().any(|(k, _)| k == "quantile")
        })
        .collect();
    assert!(!quantiles.is_empty(), "summary quantile series missing");
    let count = samples
        .iter()
        .find(|s| s.name == "roundtrip_latency_ns_count")
        .expect("_count series");
    assert_eq!(count.value, 4.0);
}

/// The JSON exporter parses under the strict [`jsonv`] grammar (which
/// rejects duplicate keys outright) and carries one entry per series
/// with no (name, labels) collisions.
#[test]
fn json_export_round_trips_through_strict_parser() {
    let (snap, _) = record(|| {
        neo::trace::counter("jsonrt_total", &[("kind", "a")]).add(1);
        neo::trace::counter("jsonrt_total", &[("kind", "b")]).add(2);
        neo::trace::histogram("jsonrt_ns", &[]).record(1234);
        registry().snapshot()
    });
    let doc = jsonv::parse(&neo::trace::export::json(&snap)).expect("exporter emits valid JSON");
    let metrics = doc
        .get("metrics")
        .and_then(JsonValue::as_array)
        .expect("top-level metrics array");
    assert!(!metrics.is_empty());
    let mut seen = BTreeSet::new();
    for m in metrics {
        let name = m.get("name").and_then(JsonValue::as_str).expect("name");
        let labels = m
            .get("labels")
            .and_then(JsonValue::as_object)
            .expect("labels");
        let key = format!("{name}|{labels:?}");
        assert!(seen.insert(key), "duplicate series {name} in JSON export");
        let kind = m.get("type").and_then(JsonValue::as_str).expect("type");
        match kind {
            "counter" | "gauge" => {
                assert!(m.get("value").and_then(JsonValue::as_f64).is_some());
            }
            "histogram" => {
                let h = m.get("histogram").expect("nested histogram object");
                for field in ["count", "sum", "p50", "p99", "max"] {
                    assert!(
                        h.get(field).and_then(JsonValue::as_f64).is_some(),
                        "histogram missing {field}"
                    );
                }
            }
            other => panic!("unknown metric type {other:?}"),
        }
    }
    let hist = metrics
        .iter()
        .find(|m| m.get("name").and_then(JsonValue::as_str) == Some("jsonrt_ns"))
        .and_then(|m| m.get("histogram"))
        .expect("histogram exported");
    assert!(
        hist.get("count")
            .and_then(JsonValue::as_f64)
            .expect("count")
            >= 1.0
    );
}

/// The simulated Chrome trace is valid JSON under the strict parser and
/// every track's complete-events carry monotone non-decreasing start
/// timestamps with non-negative durations.
#[test]
fn chrome_trace_is_valid_json_with_monotone_tracks() {
    let dev = DeviceModel::a100();
    let p = ParamSet::C.params();
    let g = batch_op_graph(&p, 35, Operation::HMult, &CostConfig::neo(), 4);
    let (fused, _) = g.fuse_elementwise();
    let sched = simulate(&fused, &dev, SimConfig::streams(2));
    let trace = chrome_trace(&fused, &sched);

    let doc = jsonv::parse(&trace).expect("chrome trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(JsonValue::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut last_ts: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
    let mut complete = 0usize;
    for e in events {
        let ph = e.get("ph").and_then(JsonValue::as_str).expect("ph");
        match ph {
            "M" => {
                assert_eq!(
                    e.get("name").and_then(JsonValue::as_str),
                    Some("thread_name")
                );
            }
            "X" => {
                complete += 1;
                let tid = e.get("tid").and_then(JsonValue::as_f64).expect("tid") as u64;
                let ts = e.get("ts").and_then(JsonValue::as_f64).expect("ts");
                let dur = e.get("dur").and_then(JsonValue::as_f64).expect("dur");
                assert!(ts >= 0.0 && dur >= 0.0, "negative time: ts={ts} dur={dur}");
                if let Some(&prev) = last_ts.get(&tid) {
                    assert!(
                        ts >= prev,
                        "track {tid}: timestamps regress ({ts} after {prev})"
                    );
                }
                last_ts.insert(tid, ts);
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    assert!(complete >= fused.len(), "fewer spans than kernels");
}
