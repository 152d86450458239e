//! Self-tests of the benchmark at tiny problem sizes.

use std::path::Path;

use mem3d::ServicePath;
use perfbench::golden::{self, Golden};
use perfbench::layers::traced_unit;
use perfbench::run::{self, checked_unit, RunConfig};
use perfbench::trace::Tracer;
use perfbench::workload::{Plan, Scale, Workload};

fn committed() -> Golden {
    Golden::parse(golden::COMMITTED).expect("the committed golden record parses")
}

fn tiny_run(workload: Workload, trace: bool, golden: Golden) -> run::RunResult {
    let cfg = RunConfig {
        workload,
        scale: Scale::Tiny,
        seed: 3,
        seconds: 0.05,
        trace,
        golden,
    };
    run::run(&cfg).expect("set-up succeeds")
}

#[test]
fn a_tiny_unit_of_every_workload_passes_its_check() {
    let golden = committed();
    for w in Workload::ALL {
        for seed in [1, 2] {
            let plan = Plan::new(w, Scale::Tiny, seed, ServicePath::Fast);
            let expected = golden.expected(&plan).expect("expected digests");
            let out = checked_unit(&plan, &expected)
                .unwrap_or_else(|e| panic!("{} seed {seed}: {e}", w.name()));
            assert!(out.beats > 0, "{} served no beats", w.name());
        }
    }
}

#[test]
fn a_tiny_traced_unit_of_every_workload_passes_and_nests() {
    let golden = committed();
    for w in Workload::ALL {
        let plan = Plan::new(w, Scale::Tiny, 5, ServicePath::Fast);
        let expected = golden.expected(&plan).expect("expected digests");
        let mut t = Tracer::new();
        let traced = traced_unit(&plan, &mut t).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        golden::check(&traced.output, &expected).expect("traced unit matches its golden");
        let selfs = t.self_times(traced.root).expect("spans nest");
        let wall = t.spans()[traced.root].dur_ns();
        assert!(selfs.values().sum::<u64>() <= wall);
        assert!(traced.metrics["layout.stream_ms"] > 0.0, "{}", w.name());
    }
}

#[test]
fn the_committed_tiny_digests_are_reproduced_on_the_reference_path() {
    // A stale golden.json would fail every unit instead of catching a
    // fast-path divergence.
    let tiny = golden::generate(&[Scale::Tiny]).expect("reference runs");
    let text = tiny.to_json();
    let labels = text.lines().filter(|l| l.contains('@')).count();
    assert_eq!(labels, 4, "{text}");
    for line in text.lines().filter(|l| l.contains('@')) {
        let line = line.trim().trim_end_matches(',');
        assert!(golden::COMMITTED.contains(line), "{line} is not committed");
    }
}

#[test]
fn the_fast_path_reproduces_the_reference_digests() {
    for w in Workload::ALL {
        let fast = Plan::new(w, Scale::Tiny, 9, ServicePath::Fast);
        let reference = fast.on(ServicePath::Reference);
        let (a, b) = (fast.run().unwrap(), reference.run().unwrap());
        assert_eq!(a.digests, b.digests, "{}", w.name());
    }
}

#[test]
fn a_corrupted_golden_is_counted_as_failures_not_a_crash() {
    // Flip the first hex digit of one committed digest.
    let key = "\"app-ddl@128\": \"";
    let at = golden::COMMITTED.find(key).expect("tiny app-ddl digest") + key.len();
    let mut text = golden::COMMITTED.to_string();
    let flipped = if &text[at..=at] == "0" { "1" } else { "0" };
    text.replace_range(at..=at, flipped);
    let corrupted = Golden::parse(&text).expect("still well-formed");
    assert_ne!(corrupted, committed());

    let r = tiny_run(Workload::AppDdl, false, corrupted);
    assert!(r.attempted >= 1);
    assert_eq!(r.failed, r.attempted, "every unit fails its check");
    let line = run::result_line(&r, &run::end_to_end(&r).unwrap());
    assert!(line.starts_with("{\"correct\":false,"), "{line}");
    let ok = &run::end_to_end(&r).unwrap()[5];
    assert_eq!(ok.0, "ok_frac");
    assert!(ok.1.contains("\"value\":0.0"), "{}", ok.1);
}

#[test]
fn a_malformed_or_incomplete_golden_is_an_error() {
    assert!(Golden::parse("{\"digests\": {\"x@1\": \"zz\"}}").is_err());
    assert!(Golden::parse("not json").is_err());
    let empty = Golden::parse("{\"digests\": {}}").unwrap();
    let plan = Plan::new(Workload::AppStrided, Scale::Tiny, 1, ServicePath::Fast);
    assert!(empty.expected(&plan).is_err());
}

#[test]
fn runs_report_every_metric_by_name() {
    let untraced = tiny_run(Workload::AppStrided, false, committed());
    assert_eq!(untraced.failed, 0, "{:?}", untraced.errors);
    let names: Vec<&str> = run::end_to_end(&untraced)
        .unwrap()
        .iter()
        .map(|m| m.0)
        .collect();
    assert_eq!(
        names,
        [
            "setup_s",
            "unit_ms.p50",
            "unit_ms.tail",
            "sim_beats_per_s",
            "peak_rss_mib",
            "ok_frac"
        ]
    );

    let traced = tiny_run(Workload::Tenancy, true, committed());
    assert_eq!(traced.failed, 0, "{:?}", traced.errors);
    assert!(
        !traced.layers.is_empty(),
        "a traced run records traced units"
    );
    let layer = run::per_layer(&traced);
    assert_eq!(layer.len(), perfbench::layers::METRICS.len() + 1);
    assert_eq!(layer.last().unwrap().0, "tracing.overhead");
}

#[test]
fn set_up_is_timed_in_fresh_processes() {
    let exe = Path::new(env!("CARGO_BIN_EXE_perfbench"));
    let args: Vec<String> = [
        "--workload",
        "app-ddl",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0",
    ]
    .map(String::from)
    .to_vec();
    let secs = run::timed_setups(exe, &args, 2).expect("set-up processes report ready");
    assert_eq!(secs.len(), 2);
    assert!(secs.iter().all(|&s| s > 0.0), "{secs:?}");

    let mut bad = args.clone();
    bad[1] = "no-such-workload".into();
    assert!(run::timed_setups(exe, &bad, 1).is_err());
}
