//! The end-to-end anonymization pipeline (Figure 3).

use crate::equivalence::{check_equivalence, EquivalenceReport};
use crate::metrics;
use crate::preprocess::{preprocess, Baseline};
use crate::route_anon::{anonymize_routes, RouteAnonOutcome};
use crate::route_equiv::{enforce_route_equivalence_with_budget, EquivOutcome};
use crate::scale::{obfuscate_scale, ScaleOutcome};
use crate::strawman::{strawman1, strawman2};
use crate::topo_anon::{anonymize_topology_with, FakeLink};
use crate::{Error, EquivalenceMode, Params};
use confmask_config::patch::{LineLedger, Patcher};
use confmask_config::NetworkConfigs;
use confmask_net_types::PrefixAllocator;
use confmask_sim::Simulation;
use confmask_sim_delta::DeltaEngine;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

/// The span-name prefix of pipeline stages; a span `pipeline.stage.<name>`
/// becomes one [`StageSample`] in the attempt that ran it.
pub const STAGE_SPAN_PREFIX: &str = "pipeline.stage.";

/// Wall-clock duration of one pipeline stage, as measured by its span
/// (Figure 16's breakdown). There is exactly one timing source: the
/// `pipeline.stage.*` spans the attempt emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageSample {
    /// Stage name (`preprocess`, `scale`, `topology`, `route_equiv`,
    /// `route_anon`, `verify`) — the span name minus
    /// [`STAGE_SPAN_PREFIX`].
    pub stage: &'static str,
    /// Wall-clock duration of the stage.
    pub duration: Duration,
}

/// Extra route-equivalence iterations granted per self-healing retry: the
/// n-th retry runs with `n * RETRY_BUDGET_STEP` iterations on top of the
/// `fake_link_count + 5` bound of §5.4.
pub const RETRY_BUDGET_STEP: usize = 8;

/// One pipeline attempt, as recorded by the self-healing driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttemptRecord {
    /// Zero-based attempt index (0 = the initial run).
    pub attempt: usize,
    /// The RNG seed this attempt ran with (attempt 0 uses `Params::seed`;
    /// retries use a seed derived from it).
    pub seed: u64,
    /// Extra route-equivalence iterations granted to this attempt.
    pub budget_boost: usize,
    /// Wall-clock duration of the attempt (its `pipeline.attempt` span).
    pub duration: Duration,
    /// Per-stage durations, from the `pipeline.stage.*` spans the attempt
    /// finished (in completion order; failed attempts keep the stages they
    /// got through, the last one being the stage that failed).
    pub stages: Vec<StageSample>,
    /// The rendered error, or `None` for the successful attempt.
    pub error: Option<String>,
    /// Whether the error (if any) was classified retryable.
    pub retryable: bool,
}

impl AttemptRecord {
    /// The duration of one named stage, if the attempt reached it.
    pub fn stage(&self, name: &str) -> Option<Duration> {
        self.stages
            .iter()
            .find(|s| s.stage == name)
            .map(|s| s.duration)
    }

    /// Sum of all stage durations (the attempt minus retry-driver
    /// overhead).
    pub fn stage_total(&self) -> Duration {
        self.stages.iter().map(|s| s.duration).sum()
    }
}

/// How a run degraded before succeeding (or failing for good): one record
/// per attempt the self-healing driver made. Attached to every
/// [`Anonymized`] so callers can audit whether the output needed healing.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DegradationReport {
    /// All attempts, in order. The last one is the successful one when the
    /// pipeline returned `Ok`.
    pub attempts: Vec<AttemptRecord>,
}

impl DegradationReport {
    /// Whether the run needed self-healing (at least one failed attempt).
    pub fn healed(&self) -> bool {
        self.attempts.len() > 1
    }

    /// Number of failed attempts before the outcome.
    pub fn failures(&self) -> usize {
        self.attempts.iter().filter(|a| a.error.is_some()).count()
    }
}

/// Seed for attempt `attempt`: the configured seed verbatim for the first
/// attempt, a SplitMix64-style remix for each retry so the streams are
/// decorrelated but the whole retry sequence stays deterministic.
fn derive_seed(seed: u64, attempt: usize) -> u64 {
    if attempt == 0 {
        return seed;
    }
    let mut z = seed ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Checks one stage's measured (span) duration against the optional
/// per-stage deadline.
fn check_deadline(
    stage: &'static str,
    took: Duration,
    deadline: Option<Duration>,
) -> Result<(), Error> {
    if let Some(limit) = deadline {
        if took > limit {
            return Err(Error::StageDeadlineExceeded { stage, limit });
        }
    }
    Ok(())
}

/// The result of anonymizing a network.
#[derive(Debug, Clone)]
pub struct Anonymized {
    /// The anonymized configurations — what the owner would share.
    pub configs: NetworkConfigs,
    /// Added-lines accounting (Table 3 / `U_C`).
    pub ledger: LineLedger,
    /// The original network's baseline (simulation + topology).
    pub baseline: Baseline,
    /// Full simulation of the anonymized network, shared with the
    /// simulation cache entry that converged it.
    pub final_sim: Arc<Simulation>,
    /// Fake links added by topology anonymization.
    pub fake_links: Vec<FakeLink>,
    /// Scale-obfuscation outcome (fake routers; empty unless
    /// `Params::fake_routers > 0`).
    pub scale: ScaleOutcome,
    /// Route-equivalence stage statistics.
    pub equiv: EquivOutcome,
    /// Route-anonymization stage statistics.
    pub route_anon: RouteAnonOutcome,
    /// The defensive functional-equivalence report.
    pub equivalence: EquivalenceReport,
    /// Parameters used.
    pub params: Params,
    /// The self-healing audit trail: one record per attempt made.
    pub degradation: DegradationReport,
}

impl Anonymized {
    /// Whether functional equivalence (Definition 3.3) holds — it must,
    /// for every successful run.
    pub fn functionally_equivalent(&self) -> bool {
        self.equivalence.holds()
    }

    /// Configuration utility `U_C` (§7.1).
    pub fn config_utility(&self) -> f64 {
        metrics::config_utility(self.configs.total_lines(), self.ledger.total_added())
    }

    /// Route anonymity `N_r` of the anonymized network (Figure 5).
    pub fn route_anonymity(&self) -> metrics::RouteAnonymity {
        metrics::route_anonymity(&self.final_sim.dataplane)
    }

    /// Route utility `P_U` (Figure 8) — 1.0 whenever equivalence holds.
    pub fn path_preservation(&self) -> f64 {
        metrics::path_preservation(
            &self.baseline.sim.dataplane,
            &self.final_sim.dataplane,
            &self.baseline.real_hosts,
        )
    }

    /// Per-stage wall-clock durations of the successful attempt, from its
    /// `pipeline.stage.*` spans (Figure 16's breakdown).
    pub fn stage_durations(&self) -> &[StageSample] {
        self.degradation
            .attempts
            .last()
            .map(|a| a.stages.as_slice())
            .unwrap_or(&[])
    }

    /// End-to-end duration of the successful attempt (sum of its stages).
    pub fn total_stage_time(&self) -> Duration {
        self.stage_durations().iter().map(|s| s.duration).sum()
    }
}

/// Runs the full ConfMask pipeline on `configs`, with self-healing.
///
/// The output is guaranteed functionally equivalent to the input — the
/// pipeline verifies this defensively and returns
/// [`Error::EquivalenceViolated`] rather than an unusable result.
///
/// **Self-healing**: a *retryable* failure (see [`Error::is_retryable`])
/// is retried up to `Params::max_retries` times with a reseeded RNG and an
/// escalating route-equivalence iteration budget; every attempt is
/// recorded in the returned [`DegradationReport`]. Fatal errors (BGP
/// oscillation, bad input, deadline overruns) fail fast on the first
/// occurrence; exhausting the retry budget yields
/// [`Error::RetriesExhausted`]. The retry sequence is a pure function of
/// `Params`, so anonymization stays deterministic given the seed.
pub fn anonymize(configs: &NetworkConfigs, params: &Params) -> Result<Anonymized, Error> {
    let (mut result, report) = run_with_retries(params, |_, seed, budget_boost| {
        run_attempt(configs, params, seed, budget_boost)
    })?;
    result.degradation = report;
    Ok(result)
}

/// The self-healing driver, independent of what an attempt does: runs
/// `attempt_fn(attempt, seed, budget_boost)` up to `max_retries + 1` times,
/// reseeding and escalating the budget between attempts, recording every
/// attempt. Fatal errors propagate on first occurrence; exhausting the
/// budget yields [`Error::RetriesExhausted`] wrapping the last error.
fn run_with_retries<T>(
    params: &Params,
    mut attempt_fn: impl FnMut(usize, u64, usize) -> Result<T, Error>,
) -> Result<(T, DegradationReport), Error> {
    let _pipeline = confmask_obs::span("pipeline.anonymize");
    let mut report = DegradationReport::default();
    let attempts_allowed = params.max_retries + 1;
    for attempt in 0..attempts_allowed {
        let seed = derive_seed(params.seed, attempt);
        let budget_boost = attempt * RETRY_BUDGET_STEP;
        if attempt > 0 {
            confmask_obs::counter_add("pipeline.retries", 1);
            confmask_obs::info!(
                "pipeline",
                "retrying: attempt {attempt}, seed {seed:#018x}, +{budget_boost} equivalence iterations"
            );
        }
        // The attempt span is the one timing source: its measured duration
        // becomes the record's `duration`, and the `pipeline.stage.*` spans
        // captured inside it become the record's `stages` — captured
        // thread-locally, so this works with global collection disabled.
        let attempt_span = confmask_obs::span("pipeline.attempt");
        let (outcome, spans) = confmask_obs::capture(|| attempt_fn(attempt, seed, budget_boost));
        let duration = attempt_span.finish();
        let stages = stage_samples(&spans);
        match outcome {
            Ok(value) => {
                report.attempts.push(AttemptRecord {
                    attempt,
                    seed,
                    budget_boost,
                    duration,
                    stages,
                    error: None,
                    retryable: false,
                });
                return Ok((value, report));
            }
            Err(e) => {
                let retryable = e.is_retryable();
                let failed_stage = stages.last().map(|s| s.stage).unwrap_or("preprocess");
                confmask_obs::warn!(
                    "pipeline",
                    "attempt {attempt} failed in {failed_stage} ({}): {e}",
                    if retryable { "retryable" } else { "fatal" }
                );
                report.attempts.push(AttemptRecord {
                    attempt,
                    seed,
                    budget_boost,
                    duration,
                    stages,
                    error: Some(e.to_string()),
                    retryable,
                });
                if !retryable {
                    return Err(e);
                }
                if attempt + 1 == attempts_allowed {
                    return Err(Error::RetriesExhausted {
                        attempts: attempts_allowed,
                        last: Box::new(e),
                    });
                }
            }
        }
    }
    unreachable!("attempts_allowed >= 1, every iteration returns")
}

/// The `pipeline.stage.*` spans among `spans`, as stage samples in
/// completion order.
fn stage_samples(spans: &[confmask_obs::FinishedSpan]) -> Vec<StageSample> {
    spans
        .iter()
        .filter_map(|s| {
            s.name.strip_prefix(STAGE_SPAN_PREFIX).map(|stage| StageSample {
                stage,
                duration: s.duration(),
            })
        })
        .collect()
}

/// One pipeline attempt (the pre-self-healing `anonymize` body).
fn run_attempt(
    configs: &NetworkConfigs,
    params: &Params,
    seed: u64,
    budget_boost: usize,
) -> Result<Anonymized, Error> {
    let mut rng = StdRng::seed_from_u64(seed);
    let deadline = params.stage_deadline;

    // Preprocess (Figure 3 stage 0).
    let sp = confmask_obs::span("pipeline.stage.preprocess");
    let baseline = preprocess(configs)?;
    check_deadline("preprocess", sp.finish(), deadline)?;

    let mut patcher = Patcher::new(configs.clone());
    let mut alloc = PrefixAllocator::new(configs.used_prefixes());

    // Step 0.5 — optional network-scale obfuscation (§9 extension): fake
    // routers join the graph before the k-degree plan is computed.
    let sp = confmask_obs::span("pipeline.stage.scale");
    let scale = obfuscate_scale(
        &mut patcher,
        &mut alloc,
        &baseline,
        params.fake_routers,
        &mut rng,
    )?;
    check_deadline("scale", sp.finish(), deadline)?;

    // Step 1 — topology anonymization.
    let sp = confmask_obs::span("pipeline.stage.topology");
    let fake_links = anonymize_topology_with(
        &mut patcher,
        &mut alloc,
        &baseline,
        params.k_r,
        params.cost_strategy,
        &mut rng,
    )?;
    check_deadline("topology", sp.finish(), deadline)?;
    confmask_obs::debug!(
        "pipeline",
        "topology anonymized: {} fake links",
        fake_links.len()
    );

    // Step 2.1 — route equivalence.
    let sp = confmask_obs::span("pipeline.stage.route_equiv");
    let equiv = match params.mode {
        EquivalenceMode::ConfMask => enforce_route_equivalence_with_budget(
            &mut patcher,
            &baseline,
            fake_links.len(),
            budget_boost,
        )?,
        EquivalenceMode::Strawman1 => strawman1(&mut patcher, &baseline, &fake_links)?,
        EquivalenceMode::Strawman2 => strawman2(&mut patcher, &baseline, &fake_links)?,
    };
    check_deadline("route_equiv", sp.finish(), deadline)?;

    // Step 2.2 — route anonymization.
    let sp = confmask_obs::span("pipeline.stage.route_anon");
    let route_anon = anonymize_routes(
        &mut patcher,
        &mut alloc,
        &baseline,
        params.k_h,
        params.noise_p,
        &mut rng,
    )?;
    check_deadline("route_anon", sp.finish(), deadline)?;

    // Verify.
    let sp = confmask_obs::span("pipeline.stage.verify");
    let (anon_configs, ledger) = patcher.into_parts();
    // Converge through the shared simulation cache: a later
    // `verify_failure_equivalence` sweep (or a repeat job on the same
    // output) reuses this converged state for delta recomputation.
    let final_sim = Arc::clone(&DeltaEngine::global().converged(&anon_configs)?.sim);
    let eq_sp = confmask_obs::span("core.verify.equivalence");
    let equivalence = check_equivalence(
        configs,
        &baseline.sim.dataplane,
        &anon_configs,
        &final_sim.dataplane,
    );
    eq_sp.finish();
    check_deadline("verify", sp.finish(), deadline)?;

    if !equivalence.holds() {
        return Err(Error::EquivalenceViolated(
            equivalence
                .violations
                .first()
                .cloned()
                .unwrap_or_else(|| "unknown".to_string()),
        ));
    }

    Ok(Anonymized {
        configs: anon_configs,
        ledger,
        baseline,
        final_sim,
        fake_links,
        scale,
        equiv,
        route_anon,
        equivalence,
        params: params.clone(),
        degradation: DegradationReport::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EquivalenceMode;
    use confmask_netgen::smallnets::example_network;
    use confmask_topology::extract::extract_topology;
    use confmask_topology::metrics::min_same_degree;

    #[test]
    fn end_to_end_example_network() {
        let net = example_network();
        let result = anonymize(&net, &Params::new(3, 2)).unwrap();
        assert!(result.functionally_equivalent());
        assert!((result.path_preservation() - 1.0).abs() < 1e-12);
        let topo = extract_topology(&result.configs);
        assert!(min_same_degree(&topo) >= 3);
        // Fake hosts exist and are provenance-flagged.
        assert_eq!(result.route_anon.fake_hosts.len(), 3);
        // The ledger accounts for every category.
        assert!(result.ledger.interface_lines > 0);
        assert!(result.ledger.host_lines > 0);
        assert!(result.config_utility() < 1.0);
    }

    #[test]
    fn all_modes_preserve_equivalence() {
        let net = example_network();
        for mode in [
            EquivalenceMode::ConfMask,
            EquivalenceMode::Strawman1,
            EquivalenceMode::Strawman2,
        ] {
            let result =
                anonymize(&net, &Params::new(3, 2).with_mode(mode)).unwrap();
            assert!(
                result.functionally_equivalent(),
                "{mode:?}: {:?}",
                result.equivalence.violations
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let net = example_network();
        let a = anonymize(&net, &Params::new(3, 2).with_seed(9)).unwrap();
        let b = anonymize(&net, &Params::new(3, 2).with_seed(9)).unwrap();
        assert_eq!(a.configs, b.configs);
    }

    #[test]
    fn anonymized_configs_emit_and_reparse() {
        let net = example_network();
        let result = anonymize(&net, &Params::new(3, 2)).unwrap();
        for rc in result.configs.routers.values() {
            let text = rc.emit();
            let back = confmask_config::parse_router(&text).unwrap();
            // Round-trip modulo provenance flags (not serialized).
            assert_eq!(back.hostname, rc.hostname);
            assert_eq!(back.interfaces.len(), rc.interfaces.len());
        }
        assert!(confmask_config::validate(&result.configs).is_empty());
    }

    #[test]
    fn route_anonymity_improves_with_fakes() {
        let net = example_network();
        let before = metrics_route_avg(&net);
        let result = anonymize(&net, &Params::new(3, 4)).unwrap();
        let after = result.route_anonymity().avg();
        assert!(
            after >= before,
            "anonymity should not decrease: {before} → {after}"
        );
    }

    fn metrics_route_avg(net: &confmask_config::NetworkConfigs) -> f64 {
        let sim = confmask_sim::simulate(net).unwrap();
        crate::metrics::route_anonymity(&sim.dataplane).avg()
    }

    #[test]
    fn bgp_divergence_is_fatal_and_never_retried() {
        // Griffin's bad gadget has no routing equilibrium: no reseed or
        // budget escalation can fix it, so self-healing must fail fast with
        // the underlying error rather than burn retries and wrap it in
        // RetriesExhausted.
        let net = confmask_netgen::smallnets::bad_gadget();
        let start = std::time::Instant::now();
        let err = anonymize(&net, &Params::new(3, 2)).expect_err("no equilibrium");
        assert!(!err.is_retryable(), "divergence must be classified fatal");
        assert!(
            matches!(
                err,
                crate::Error::Sim(confmask_sim::SimError::BgpDiverged { .. })
            ),
            "expected the bare simulation error, got: {err}"
        );
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "fail-fast must not consume the retry budget"
        );
    }

    #[test]
    fn degradation_report_records_the_single_clean_attempt() {
        let net = example_network();
        let params = Params::new(3, 2).with_seed(9);
        let result = anonymize(&net, &params).unwrap();
        assert!(!result.degradation.healed());
        assert_eq!(result.degradation.attempts.len(), 1);
        let a = &result.degradation.attempts[0];
        assert_eq!((a.attempt, a.seed), (0, 9));
        assert_eq!(a.error, None);
    }

    #[test]
    fn attempts_record_stage_durations_from_spans() {
        // Span capture is thread-local, so per-attempt stage durations must
        // be present even with global collection off (the default here).
        let net = example_network();
        let result = anonymize(&net, &Params::new(3, 2)).unwrap();
        let stages: Vec<&str> = result.stage_durations().iter().map(|s| s.stage).collect();
        assert_eq!(
            stages,
            ["preprocess", "scale", "topology", "route_equiv", "route_anon", "verify"],
            "one sample per stage, in completion order"
        );
        let a = &result.degradation.attempts[0];
        assert_eq!(a.stage("verify"), Some(result.stage_durations()[5].duration));
        assert!(a.stage("nonexistent").is_none());
        assert!(
            a.stage_total() <= a.duration,
            "stages nest inside the attempt span: {:?} vs {:?}",
            a.stage_total(),
            a.duration
        );
        assert_eq!(result.total_stage_time(), a.stage_total());
    }

    #[test]
    fn retry_driver_heals_a_retryable_failure_with_new_seed_and_budget() {
        let params = Params::new(3, 2).with_seed(7).with_max_retries(3);
        let (value, report) = run_with_retries(&params, |attempt, seed, boost| {
            if attempt == 0 {
                assert_eq!(seed, 7); // first attempt uses the seed verbatim
                assert_eq!(boost, 0);
                Err(Error::EquivalenceDiverged { iterations: 5 })
            } else {
                assert_eq!(seed, derive_seed(7, 1));
                assert_ne!(seed, 7);
                assert_eq!(boost, RETRY_BUDGET_STEP);
                Ok(42u32)
            }
        })
        .unwrap();
        assert_eq!(value, 42);
        assert!(report.healed());
        assert_eq!(report.attempts.len(), 2);
        assert!(report.attempts[0].retryable);
        assert!(report.attempts[0]
            .error
            .as_deref()
            .unwrap()
            .contains("did not converge"));
        assert_eq!(report.attempts[1].error, None);
    }

    #[test]
    fn retry_driver_fails_fast_on_fatal_errors() {
        let params = Params::new(3, 2).with_max_retries(5);
        let mut calls = 0usize;
        let err = run_with_retries(&params, |_, _, _| -> Result<(), Error> {
            calls += 1;
            Err(Error::Sim(confmask_sim::SimError::BgpDiverged { rounds: 1 }))
        })
        .unwrap_err();
        assert_eq!(calls, 1, "fatal errors must not be retried");
        assert!(matches!(
            err,
            Error::Sim(confmask_sim::SimError::BgpDiverged { .. })
        ));
    }

    #[test]
    fn retry_driver_exhausts_and_wraps_the_last_error() {
        let params = Params::new(3, 2).with_max_retries(2);
        let mut calls = 0usize;
        let err = run_with_retries(&params, |_, _, _| -> Result<(), Error> {
            calls += 1;
            Err(Error::EquivalenceDiverged { iterations: calls })
        })
        .unwrap_err();
        assert_eq!(calls, 3, "max_retries=2 allows three attempts");
        match err {
            Error::RetriesExhausted { attempts, last } => {
                assert_eq!(attempts, 3);
                assert!(matches!(*last, Error::EquivalenceDiverged { iterations: 3 }));
            }
            other => panic!("expected RetriesExhausted, got {other}"),
        }
    }

    #[test]
    fn derived_seeds_are_deterministic_and_distinct() {
        assert_eq!(derive_seed(5, 0), 5);
        assert_eq!(derive_seed(5, 1), derive_seed(5, 1));
        assert_ne!(derive_seed(5, 1), derive_seed(5, 2));
        assert_ne!(derive_seed(5, 1), derive_seed(6, 1));
    }
}
