//! The benchmark's own tests: tiny passes against pinned fingerprints,
//! metric naming, and the self-time arithmetic.

use perfbench::metrics::{self, valid_name};
use perfbench::run::{check, median, run, tail_percentile, Args};
use perfbench::spans::{self, Recorder, Span};
use perfbench::work::{self, Op, Scale};
use ps_bench::jsonv::Json;

/// One test drives every workload: the memo cache and the runner's job
/// budget are process-global, so the workloads must not run concurrently.
#[test]
fn tiny_runs_pass_their_fingerprint_checks() {
    for name in work::NAMES {
        for trace in [false, true] {
            let args = Args {
                workload: name.into(),
                seed: 0,
                seconds: 0.0,
                trace,
            };
            let mut log = Vec::new();
            let out = run(&args, Scale::Tiny, &mut |l| log.push(l)).expect("known workload");
            assert!(
                out.correct && out.failed == 0,
                "{name} trace={trace}:\n{}",
                log.join("\n")
            );
            assert!(out.attempted > 0, "{name}");
            let want = if trace {
                metrics::per_layer()
            } else {
                metrics::end_to_end()
            };
            let got: Vec<_> = out.metrics.iter().map(|(d, _)| d.clone()).collect();
            assert_eq!(got, want, "{name} reports exactly its declared metrics");
            if trace {
                let value = |m: &str| out.metrics.iter().find(|(d, _)| d.name == m).expect(m).1;
                assert!(value("trace.coverage_frac") > 0.0, "{name}");
                if name != "figures-quick" {
                    assert!(
                        value("machine.replays") > 0.0 && value("machine.replay_s") > 0.0,
                        "{name}"
                    );
                }
            } else {
                assert!(
                    out.metrics.iter().all(|(_, v)| *v > 0.0),
                    "{name}: end-to-end metrics are never 0"
                );
            }
        }
    }
}

#[test]
fn a_changed_or_failed_operation_counts_as_a_failure() {
    let pinned = [("a", "x=1"), ("b", "x=2")];
    let op = |name: &str, fp: Result<&str, &str>| Op {
        name: name.into(),
        fingerprint: fp.map(str::to_owned).map_err(str::to_owned),
    };
    let good = [op("a", Ok("x=1")), op("b", Ok("x=2"))];
    assert!(check(&good, Some(&pinned), Some(&good)).is_empty());
    assert_eq!(check(&[op("a", Ok("x=9"))], Some(&pinned), None).len(), 1);
    assert_eq!(check(&[op("c", Ok("x=1"))], Some(&pinned), None).len(), 1);
    assert_eq!(check(&[op("a", Err("panic: boom"))], None, None).len(), 1);
    assert_eq!(check(&[op("a", Ok("x=3"))], None, Some(&good)).len(), 1);
}

#[test]
fn metric_names_are_valid_unique_and_match_benchmark_json() {
    let all: Vec<_> = metrics::end_to_end()
        .into_iter()
        .chain(metrics::per_layer())
        .collect();
    for d in &all {
        assert!(valid_name(&d.name), "{}", d.name);
        assert!(matches!(d.better, "lower" | "higher"), "{}", d.name);
    }
    let mut names: Vec<_> = all.iter().map(|d| d.name.clone()).collect();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), all.len(), "metric names are unique");
    assert!(!valid_name("bad name") && !valid_name(".dot") && !valid_name(""));

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = Json::parse(&text).expect("valid JSON");
    for (key, defs) in [
        ("end_to_end", metrics::end_to_end()),
        ("per_layer", metrics::per_layer()),
    ] {
        let listed: Vec<(String, String, String)> = doc
            .get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_owned();
                (s("name"), s("unit"), s("better"))
            })
            .collect();
        let declared: Vec<(String, String, String)> = defs
            .into_iter()
            .map(|d| (d.name, d.unit.into(), d.better.into()))
            .collect();
        assert_eq!(listed, declared, "{key}");
    }
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_owned()
        })
        .collect();
    assert_eq!(workloads, work::NAMES);
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    // pass [0, 100): children [10, 40) and [30, 60) overlap, [90, 120)
    // runs past the parent's end; the grandchild [15, 25) belongs to the
    // first child only.
    let spans = [
        span("pass", 0, 100, None),
        span("machine.replay", 10, 40, Some(0)),
        span("machine.replay", 30, 60, Some(0)),
        span("workloads.synth", 90, 120, Some(0)),
        span("workloads.synth", 15, 25, Some(1)),
    ];
    assert_eq!(
        spans::self_times(&spans),
        vec![100 - 50 - 10, 20, 30, 30, 10]
    );
    let by_name = spans::self_seconds_by_name(&spans);
    let close = |name: &str, ns: f64| (by_name[name] - ns * 1e-9).abs() < 1e-15;
    assert!(close("pass", 40.0) && close("machine.replay", 50.0) && close("workloads.synth", 40.0));
}

#[test]
fn recorder_nests_rebases_and_recovers_from_unwinding() {
    let mut rec = Recorder::new(true);
    rec.span("before", |_| {});
    let mark = rec.len();
    rec.span("pass", |rec| {
        rec.span("child", |_| {});
        let depth = rec.depth();
        rec.enter("unwound");
        rec.close_to(depth);
    });
    let spans = rec.since(mark);
    let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
    assert_eq!(
        names,
        [("pass", None), ("child", Some(0)), ("unwound", Some(0))]
    );
    assert_eq!(rec.depth(), 0);

    let mut off = Recorder::new(false);
    off.span("pass", |rec| rec.span("child", |_| {}));
    assert!(off.is_empty());
}

#[test]
fn summary_statistics() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    assert_eq!(median(&[]), 0.0);
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(20), None);
    assert_eq!(tail_percentile(40), Some(75.0));
    assert_eq!(tail_percentile(100), Some(90.0));
}
