//! The traced run (`--trace 1`): per-layer numbers for all three
//! workloads, read only from what the program already exposes —
//! `Anonymized::stage_durations()`, `confmask_obs::report()` counters,
//! `ScenarioSweep` statistics and the daemon's `GET /metrics-json` — plus
//! the bench's own clock around calls into each layer.
//!
//! Every timing here is taken with collection off; each counter comes from
//! a repeat of the operation with collection on, reset before it so it
//! covers exactly that operation. Tracing must not change results: each
//! traced sweep's digest stream is compared against the untraced one.

use crate::anon;
use crate::common::{self, assert_untraced, mix, Outcome};
use crate::serve::{self, Daemon};
use crate::stats::{median, percentile};
use crate::sweep::{self, K2_NET, K2_SAMPLE};
use confmask::anonymize;
use confmask_obs::Report;
use confmask_serve::client;
use confmask_sim::fault::{enumerate_single_link_failures, sample_double_link_failures};
use confmask_sim_delta::{DeltaEngine, ScenarioSweep};
use std::collections::BTreeMap;
use std::time::Instant;

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1000.0
}

/// Runs `f` with collection on, from a clean registry, and returns its
/// result with the report of exactly that operation.
fn traced<T>(f: impl FnOnce() -> T) -> (T, Report) {
    confmask_obs::reset();
    confmask_obs::set_enabled(true);
    let out = f();
    let report = confmask_obs::report();
    confmask_obs::set_enabled(false);
    (out, report)
}

/// Counter sums across every traced operation of the run.
#[derive(Default)]
struct Totals {
    counters: BTreeMap<&'static str, u64>,
    util_sum: u64,
    util_count: u64,
    dropped_spans: u64,
}

impl Totals {
    const SUMMED: [&'static str; 10] = [
        "exec.tasks",
        "exec.steals",
        "topology.kdegree.attempts",
        "topology.kdegree.edges_added",
        "sim.cache.hits",
        "sim.cache.misses",
        "sim.delta.sims",
        "sim.delta.full_fallbacks",
        "sim.delta.pairs_recomputed",
        "sim.delta.pairs_reused",
    ];

    fn add(&mut self, r: &Report) {
        for name in Self::SUMMED {
            *self.counters.entry(name).or_default() += r.counter(name).unwrap_or(0);
        }
        if let Some(h) = r.histogram("exec.utilization_pct") {
            self.util_sum += h.sum;
            self.util_count += h.count;
        }
        self.dropped_spans = self.dropped_spans.max(r.dropped_spans);
    }

    fn get(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut o = Outcome::default();
    let mut totals = Totals::default();
    anon_layers(&mut o, &mut totals, seed);
    sweep_layers(&mut o, &mut totals, seed);
    serve_layers(&mut o, &mut totals, seed, (seconds / 2.0).clamp(1.0, 10.0));

    o.metric("exec.tasks", totals.get("exec.tasks"), "count");
    o.metric("exec.steals", totals.get("exec.steals"), "count");
    o.metric(
        "exec.utilization_pct",
        ratio(totals.util_sum as f64, totals.util_count as f64),
        "%",
    );
    o.metric(
        "topology.kdegree.attempts",
        totals.get("topology.kdegree.attempts"),
        "count",
    );
    o.metric(
        "topology.kdegree.edges_added",
        totals.get("topology.kdegree.edges_added"),
        "count",
    );
    let hits = totals.get("sim.cache.hits");
    o.metric(
        "sim-delta.cache_hit_ratio",
        ratio(hits, hits + totals.get("sim.cache.misses")),
        "ratio",
    );
    o.metric("obs.dropped_spans", totals.dropped_spans as f64, "count");
    o
}

/// `config`, `core`, `sim` and `obs` layers on the anon-confmask nets.
fn anon_layers(o: &mut Outcome, totals: &mut Totals, seed: u64) {
    let (mut parse_ms, mut emit_ms) = (0.0, 0.0);
    for id in anon::NETS {
        let net = common::net(id);
        o.attempted += 2;
        let t = Instant::now();
        let configs = match common::parse(&net.bundle) {
            Ok(c) => c,
            Err(e) => return o.fail(format!("net {id}: parse: {e}")),
        };
        parse_ms += ms(t);
        // The unit cost route_anon multiplies: a cold simulation.
        let sims: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                let _ = std::hint::black_box(confmask_sim::simulate(&configs));
                ms(t)
            })
            .collect();
        o.metric(
            format!("sim.simulate_ms.{id}"),
            median(&sims).expect("3 samples"),
            "ms",
        );
        // Converge the input in the shared cache first, so the untraced and
        // traced runs below both find the baseline cached; they use two
        // seeds so that neither finds its output cached (see
        // `anon::params`).
        let _ = DeltaEngine::global().converged(&configs);

        assert_untraced();
        let t = Instant::now();
        let plain = anonymize(&configs, &anon::params(seed, id, 0));
        let wall_ms = ms(t);
        let plain = match plain {
            Ok(a) => a,
            Err(e) => return o.fail(format!("net {id}: anonymize: {e}")),
        };
        o.note(format!(
            "anon_s.{id} = {:.4} s (1 untraced sample, without parse and emit)",
            wall_ms / 1000.0
        ));
        let t = Instant::now();
        let _ = std::hint::black_box(common::emit(&plain.configs));
        emit_ms += ms(t);

        let mut stage_sum = 0.0;
        let stages: BTreeMap<&str, f64> = plain
            .stage_durations()
            .iter()
            .map(|s| {
                let v = s.duration.as_secs_f64() * 1000.0;
                stage_sum += v;
                (s.stage, v)
            })
            .collect();
        for stage in [
            "preprocess",
            "topology",
            "route_equiv",
            "route_anon",
            "verify",
        ] {
            o.metric(
                format!("core.{stage}_ms.{id}"),
                stages.get(stage).copied().unwrap_or(0.0),
                "ms",
            );
        }
        o.metric(
            format!("core.unattributed_ms.{id}"),
            wall_ms - stage_sum,
            "ms",
        );
        o.metric(
            format!("core.attempts.{id}"),
            plain.degradation.attempts.len() as f64,
            "count",
        );

        let ((traced_ms, traced_out), r) = traced(|| {
            let t = Instant::now();
            let out = anonymize(&configs, &anon::params(seed, id, 1));
            (ms(t), out)
        });
        totals.add(&r);
        if let Err(e) = traced_out {
            o.fail(format!("net {id}: traced anonymize: {e}"));
        }
        let c = |name: &str| r.counter(name).unwrap_or(0) as f64;
        o.metric(
            format!("core.route_equiv.iterations.{id}"),
            c("core.route_equiv.iterations"),
            "count",
        );
        o.metric(
            format!("sim.simulations.{id}"),
            c("sim.simulations"),
            "count",
        );
        o.metric(
            format!("sim.ospf.spf_runs.{id}"),
            c("sim.ospf.spf_runs"),
            "count",
        );
        o.metric(
            format!("sim.dataplane.pairs.{id}"),
            c("sim.dataplane.pairs"),
            "count",
        );
        o.metric(
            format!("obs.trace_overhead_frac.{id}"),
            traced_ms / wall_ms - 1.0,
            "ratio",
        );
    }
    o.metric("config.parse_ms", parse_ms, "ms");
    o.metric("config.emit_ms", emit_ms, "ms");
}

/// `sim-delta` on the sweep-faults nets.
fn sweep_layers(o: &mut Outcome, totals: &mut Totals, seed: u64) {
    let mut k2_ratio = 0.0;
    for id in sweep::NETS {
        let configs = common::parse(&common::net(id).bundle).expect("generated input parses");
        assert_untraced();
        let t = Instant::now();
        let engine = DeltaEngine::new(4);
        let base = match engine.converged(&configs) {
            Ok(b) => b,
            Err(e) => return o.fail(format!("net {id}: converge: {e}")),
        };
        o.metric(format!("sim-delta.converge_ms.{id}"), ms(t), "ms");
        let s = ScenarioSweep::new(&engine, &base, &base.sim.dataplane);
        let k1 = enumerate_single_link_failures(&configs);
        o.attempted += 2 * k1.len() as u64;
        let t = Instant::now();
        let (plain, stats) = sweep::sweep_once(&s, &k1);
        o.metric(format!("sim-delta.sweep_ms.{id}"), ms(t), "ms");
        o.metric(
            format!("sim-delta.peak_digest_bytes.{id}"),
            stats.peak_digest_bytes as f64,
            "bytes",
        );
        let ((again, _), r) = traced(|| sweep::sweep_once(&s, &k1));
        totals.add(&r);
        if again.hash.0 != plain.hash.0 || plain.errors + again.errors > 0 {
            o.fail(format!("net {id}: traced k=1 sweep disagrees or failed"));
        }
        if id == K2_NET {
            let k2 = sample_double_link_failures(&configs, mix(seed, 2), K2_SAMPLE);
            o.attempted += k2.len() as u64;
            let ((fold, _), r) = traced(|| sweep::sweep_once(&s, &k2));
            totals.add(&r);
            if fold.errors > 0 {
                o.fail(format!("net {id}: {} k=2 scenario(s) failed", fold.errors));
            }
            k2_ratio = ratio(fold.distinct.len() as f64, k2.len() as f64);
        }
    }
    let sims = totals.get("sim.delta.sims");
    let reused = totals.get("sim.delta.pairs_reused");
    o.metric("sim-delta.k2_distinct_ratio", k2_ratio, "ratio");
    o.metric(
        "sim-delta.full_fallback_ratio",
        ratio(totals.get("sim.delta.full_fallbacks"), sims),
        "ratio",
    );
    o.metric(
        "sim-delta.pair_reuse_ratio",
        ratio(reused, reused + totals.get("sim.delta.pairs_recomputed")),
        "ratio",
    );
}

/// `serve`, `netcloak` and `nethide`, from a traced serve-mixed window.
/// The daemon collects regardless (`Server::bind` turns collection on).
fn serve_layers(o: &mut Outcome, totals: &mut Totals, seed: u64, window: f64) {
    let kinds = serve::job_kinds(seed);
    confmask_obs::reset();
    let daemon = match Daemon::start() {
        Ok(d) => d,
        Err(e) => return o.fail(format!("daemon start: {e}")),
    };
    let tally = serve::drive(&daemon.addr, &kinds, seed, window);
    let report = client::get(&daemon.addr, "/metrics-json")
        .map_err(|e| e.to_string())
        .and_then(|r| Report::from_json(&r.text()).map_err(|e| e.to_string()));
    let counts = daemon.stop();
    let mut checks = Outcome::default();
    match counts {
        Ok(c) => serve::check(&mut checks, &kinds, &tally, &c),
        Err(e) => checks.fail(format!("daemon stop: {e}")),
    }
    o.attempted += tally.submitted;
    o.failed += checks.failed;
    o.notes.extend(checks.notes);
    let report = match report {
        Ok(r) => r,
        Err(e) => return o.fail(format!("/metrics-json: {e}")),
    };
    totals.dropped_spans = totals.dropped_spans.max(report.dropped_spans);

    for strategy in confmask::Strategy::ALL {
        let lat: Vec<f64> = tally
            .jobs
            .iter()
            .filter(|j| kinds[j.kind].strategy == strategy)
            .map(|j| j.latency_ms)
            .collect();
        o.metric(
            format!("serve.job_ms.{strategy}"),
            median(&lat).unwrap_or(0.0),
            "ms",
        );
    }
    let jobs: Vec<f64> = tally.jobs.iter().map(|j| j.latency_ms).collect();
    o.metric(
        "serve.job_p99_ms",
        percentile(&jobs, 99.0).unwrap_or(0.0),
        "ms",
    );
    let submit: Vec<f64> = tally.jobs.iter().map(|j| j.submit_ms).collect();
    o.metric("serve.submit_ms.p50", median(&submit).unwrap_or(0.0), "ms");
    o.metric(
        "serve.submit_ms.p99",
        percentile(&submit, 99.0).unwrap_or(0.0),
        "ms",
    );
    // Daemon-side phases at microsecond resolution, from its spans.
    for (span, name) in [
        ("serve.queue_wait", "serve.queue_wait_ms"),
        ("serve.run", "serve.run_ms"),
        ("serve.persist", "serve.persist_ms"),
    ] {
        let d: Vec<f64> = report
            .spans
            .iter()
            .filter(|s| s.name == span)
            .map(|s| s.duration_us as f64 / 1000.0)
            .collect();
        o.metric(format!("{name}.p50"), median(&d).unwrap_or(0.0), "ms");
        o.metric(
            format!("{name}.p99"),
            percentile(&d, 99.0).unwrap_or(0.0),
            "ms",
        );
    }
    let fetch: Vec<f64> = tally.jobs.iter().map(|j| j.artifacts_ms).collect();
    o.metric("serve.artifacts_ms", median(&fetch).unwrap_or(0.0), "ms");
    let polls: u64 = tally.jobs.iter().map(|j| j.polls).sum();
    o.metric(
        "serve.polls_per_job",
        ratio(polls as f64, tally.jobs.len() as f64),
        "count",
    );
    let c = |name: &str| report.counter(name).unwrap_or(0) as f64;
    o.metric("serve.wal.bytes", c("serve.wal.bytes"), "bytes");
    o.metric("serve.wal.snapshots", c("serve.wal.snapshots"), "count");
}
