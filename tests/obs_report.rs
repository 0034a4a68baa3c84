//! Integration test for the observability report emitted by a full
//! pipeline run: the span tree must contain one `pipeline.stage.*` span
//! per stage per attempt, nested under `pipeline.attempt` under
//! `pipeline.anonymize`; the rendered report folds it into one row per
//! span path; and the simulator/topology layers must register their
//! metrics. Kept as a single `#[test]` because the obs collector is
//! process-global.

use confmask::{anonymize, Params, STAGE_SPAN_PREFIX};
use confmask_netgen::smallnets::example_network;
use confmask_obs::report::SpanNode;
use confmask_obs::Report;

const STAGES: [&str; 6] =
    ["preprocess", "scale", "topology", "route_equiv", "route_anon", "verify"];

#[test]
fn metrics_report_has_one_span_per_stage_per_attempt() {
    confmask_obs::reset();
    confmask_obs::set_enabled(true);
    // Learn this thread's dense index so the assertions below ignore spans
    // recorded by simulator worker threads.
    let (_, probe) = confmask_obs::capture(|| confmask_obs::span("obs.probe").finish());
    let me = probe[0].thread;

    let result = anonymize(&example_network(), &Params::new(3, 2)).unwrap();
    confmask_obs::set_enabled(false);
    let attempts = result.degradation.attempts.len();
    assert!(attempts >= 1);

    // The report a `--metrics-out` user would get: through JSON and back.
    let report = Report::from_json(&confmask_obs::report().to_json()).unwrap();
    assert_eq!(report.dropped_spans, 0);

    // Exactly one pipeline root on this thread, with one child per attempt.
    let tree = report.tree();
    let roots: Vec<&SpanNode> = tree
        .iter()
        .filter(|n| n.span.name == "pipeline.anonymize" && n.span.thread == me)
        .collect();
    assert_eq!(roots.len(), 1, "one pipeline.anonymize root span");
    let attempt_nodes: Vec<&SpanNode> = roots[0]
        .children
        .iter()
        .filter(|n| n.span.name == "pipeline.attempt")
        .collect();
    assert_eq!(attempt_nodes.len(), attempts, "one pipeline.attempt span per attempt");

    // One span per stage per attempt, nested under its attempt, matching
    // the durations the degradation report derived from the same spans.
    for (node, record) in attempt_nodes.iter().zip(&result.degradation.attempts) {
        let stage_names: Vec<&str> = node
            .children
            .iter()
            .filter_map(|n| n.span.name.strip_prefix(STAGE_SPAN_PREFIX))
            .collect();
        let expected: Vec<&str> = record.stages.iter().map(|s| s.stage).collect();
        assert_eq!(stage_names, expected, "stage spans mirror the attempt record");
        assert_eq!(stage_names, STAGES, "all six stages ran, in order");
    }

    // Simulations happen inside stages: every sim.control_plane span on
    // this thread has a parent.
    let sims: Vec<_> = report
        .spans
        .iter()
        .filter(|s| s.name == "sim.control_plane" && s.thread == me)
        .collect();
    assert!(!sims.is_empty(), "route stages simulate the network");
    assert!(sims.iter().all(|s| s.parent.is_some()));

    // `obs-report` folds spans by path: every span lands in exactly one
    // row, paths are unique, and the route_anon stage's many control-plane
    // advances are one row holding all of them.
    let profile = report.profile();
    let folded: u64 = profile.iter().map(|r| r.count).sum();
    assert_eq!(
        folded,
        report.spans.len() as u64,
        "every span folds into one row"
    );
    let paths: std::collections::BTreeSet<&str> = profile.iter().map(|r| r.path.as_str()).collect();
    assert_eq!(paths.len(), profile.len(), "one row per span path");
    assert!(profile.iter().all(|r| r.self_us <= r.total_us));
    let refilter_rows: Vec<_> = profile
        .iter()
        .filter(|r| r.path.ends_with("/sim.delta.refilter"))
        .collect();
    assert_eq!(refilter_rows.len(), 1, "{refilter_rows:?}");
    assert_eq!(
        refilter_rows[0].path,
        "pipeline.anonymize/pipeline.attempt/pipeline.stage.route_anon/sim.delta.refilter"
    );
    assert_eq!(
        refilter_rows[0].count,
        report.spans_named("sim.delta.refilter") as u64
    );
    assert!(
        refilter_rows[0].count > 1,
        "route_anon advances more than once"
    );
    let rendered = report.render();
    let refilter_lines = rendered
        .lines()
        .filter(|l| l.trim_start().starts_with("sim.delta.refilter "))
        .count();
    assert_eq!(refilter_lines, 1, "one rendered row per path:\n{rendered}");

    // The metric registry is stable across protocol mixes: all of these
    // exist even when their count is zero for this network.
    let expected_counters = [
        "sim.simulations",
        "sim.ospf.spf_runs",
        "sim.rip.rounds",
        "sim.bgp.rounds",
        "sim.dataplane.pairs",
        "core.route_equiv.iterations",
        "core.route_equiv.filters_added",
        "topology.kdegree.attempts",
        "topology.kdegree.edges_added",
    ];
    for name in expected_counters {
        assert!(report.counter(name).is_some(), "counter {name} missing");
    }
    for name in ["sim.fib.size", "sim.dataplane.paths_per_pair"] {
        let h = report.histogram(name).unwrap_or_else(|| panic!("histogram {name} missing"));
        assert!(h.count > 0, "histogram {name} is empty");
        assert!(h.min <= h.p50 && h.p50 <= h.p90 && h.p90 <= h.p99 && h.p99 <= h.max);
    }
    assert!(
        report.counters.len() + report.histograms.len() >= 8,
        "at least 8 named metrics ({} counters, {} histograms)",
        report.counters.len(),
        report.histograms.len()
    );
    // This network exercises the interesting paths for real.
    assert!(report.counter("sim.simulations").unwrap() >= 2);
    assert!(report.counter("sim.ospf.spf_runs").unwrap() > 0);
    assert!(report.counter("topology.kdegree.attempts").unwrap() >= 1);
}
