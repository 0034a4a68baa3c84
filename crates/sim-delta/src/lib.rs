//! Incremental simulation engine: a content-addressed cache of converged
//! simulations plus delta recomputation for configuration perturbations.
//!
//! ConfMask's verification loop and the fault-scenario engine repeatedly
//! simulate networks that differ from an already-simulated baseline by one
//! or two administratively-shut interfaces, and route anonymization
//! re-simulates after every round of added or rolled-back filters. This
//! crate makes those repeat simulations cheap without ever changing their
//! answers:
//!
//! * [`DeltaEngine::converged`] memoizes full simulations behind a stable
//!   structural hash of the configurations ([`hash::structural_hash`]),
//!   with an LRU bound and collision-proof equality checks.
//! * [`DeltaEngine::simulate_perturbed`] re-simulates a perturbed copy of
//!   a cached baseline, recomputing only what the perturbation touched —
//!   see [`delta`]'s module docs for the per-protocol soundness argument
//!   of each supported class (interface shutdowns, prefix-scoped filter
//!   edits). Results are **byte-identical** to a cold
//!   [`confmask_sim::simulate`]: any perturbation outside the supported
//!   classes falls back to a full simulation, explicitly and observably
//!   (`sim.delta.full_fallbacks`).
//! * [`ControlPlane`] keeps one converged control plane (no data plane)
//!   and advances it in place through a chain of filter edits — the
//!   incremental form of Algorithm 2's re-simulation after each round.
//! * [`DeltaEngine::run_scenario`] is a drop-in replacement for
//!   [`confmask_sim::fault::run_scenario`] that routes the post-failure
//!   simulation through the delta engine.
//!
//! The engine is `Sync`; one [`DeltaEngine::global`] instance is shared
//! per process so the serve daemon's workers and a pipeline's retry
//! attempts hit the same cache.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod delta;
pub mod hash;
pub mod sweep;

pub use cache::SimCache;
pub use delta::ControlPlane;
pub use sweep::ScenarioSweep;

use confmask_config::NetworkConfigs;
use confmask_net_types::{Ipv4Prefix, RouterId};
use confmask_sim::dataplane::DataPlane;
use confmask_sim::fault::{
    classify_pair_with, physical_components, revert_shutdowns, DegradationClass, FailureScenario,
    ScenarioOutcome,
};
use confmask_sim::{ControlState, PathSet, SimError, Simulation};
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Default capacity of the per-process global cache: big enough for every
/// baseline a verification job juggles (original, anonymized, masked — per
/// concurrent job), small enough to bound memory on large networks.
pub const DEFAULT_CACHE_CAPACITY: usize = 16;

/// A converged simulation pinned to the exact configurations (and cache
/// key) that produced it.
#[derive(Debug, Clone)]
pub struct ConvergedSim {
    /// The structural hash of `configs` (the cache key).
    pub key: u128,
    /// The configurations that were simulated.
    pub configs: NetworkConfigs,
    /// The converged simulation result.
    pub sim: Simulation,
    /// The converged per-protocol control-plane state (delta inputs).
    pub state: ControlState,
    /// Per (host, router): the FIB prefix the router's longest-prefix
    /// match resolves that host's address to (`None` = no route).
    /// Precomputed once so every delta run can tell which lookups a
    /// perturbation changed without re-running longest-prefix matches.
    pub host_match: Vec<Vec<Option<Ipv4Prefix>>>,
    /// Per data-plane pair (in [`DataPlane::pairs`] order): the deduped
    /// router ids its recorded paths traverse, or `None` for a walk whose
    /// shape the recorded paths do not fully determine (blackholed,
    /// looping, empty, or ECMP-truncated). Precomputed so delta runs test
    /// pair reusability against a bool mask instead of re-walking path
    /// name lists.
    pub(crate) pair_meta: Vec<Option<Vec<u32>>>,
    /// Process-unique id, the identity key of the engine's scenario
    /// scratch buffer (never reused, unlike a structural hash).
    pub(crate) uid: u64,
}

static NEXT_UID: AtomicU64 = AtomicU64::new(1);

/// What a delta simulation reused versus recomputed.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeltaStats {
    /// The perturbation was unsupported (or an invariant check failed) and
    /// a full cold simulation ran instead.
    pub full_fallback: bool,
    /// The perturbed configs were identical to the base; the cached
    /// simulation was returned as-is.
    pub identical: bool,
    /// Destination prefixes in the network.
    pub ospf_prefixes_total: usize,
    /// Destination prefixes whose SPF re-ran.
    pub ospf_prefixes_recomputed: usize,
    /// Whether RIP warm-started from the cached fixpoint.
    pub rip_warm_started: bool,
    /// Whether the cached BGP routes were reused wholesale.
    pub bgp_reused: bool,
    /// Whether the perturbation took the filter-edit path (its affected
    /// destinations are the recomputed OSPF prefixes).
    pub filter_edits: bool,
    /// Ordered host pairs in the network.
    pub pairs_total: usize,
    /// Ordered host pairs that were re-traced.
    pub pairs_recomputed: usize,
}

impl DeltaStats {
    pub(crate) fn identical() -> Self {
        DeltaStats {
            identical: true,
            ..DeltaStats::default()
        }
    }

    pub(crate) fn full() -> Self {
        DeltaStats {
            full_fallback: true,
            ..DeltaStats::default()
        }
    }

    /// Fraction of per-prefix SPFs and per-pair traces that re-ran:
    /// 0.0 for an identical reuse, 1.0 for a full fallback, in between
    /// for a genuine delta.
    pub fn recompute_fraction(&self) -> f64 {
        if self.full_fallback {
            return 1.0;
        }
        if self.identical {
            return 0.0;
        }
        let done = self.ospf_prefixes_recomputed + self.pairs_recomputed;
        let total = (self.ospf_prefixes_total + self.pairs_total).max(1);
        done as f64 / total as f64
    }
}

/// Reusable per-worker scratch for fault sweeps: one baseline's configs,
/// kept around so consecutive scenarios against the same baseline apply
/// and revert shutdown flags in place instead of cloning the full
/// [`NetworkConfigs`] each time. Keyed by [`ConvergedSim`]'s
/// process-unique id. Purely a cache: it never influences results, so
/// parallel sweeps handing each worker its own scratch stay
/// byte-identical to a sequential run.
#[derive(Default)]
pub struct ScenarioScratch(Option<(u64, NetworkConfigs)>);

/// The incremental simulation engine: a simulation cache plus the delta
/// recomputation entry points.
pub struct DeltaEngine {
    cache: SimCache,
    /// Shared scenario scratch for [`DeltaEngine::run_scenario`] callers
    /// without their own; contended access falls back to cloning.
    scratch: Mutex<ScenarioScratch>,
}

static GLOBAL: OnceLock<DeltaEngine> = OnceLock::new();

impl DeltaEngine {
    /// Creates an engine with its own cache of the given capacity.
    pub fn new(capacity: usize) -> Self {
        DeltaEngine {
            cache: SimCache::new(capacity),
            scratch: Mutex::new(ScenarioScratch::default()),
        }
    }

    /// The per-process shared engine ([`DEFAULT_CACHE_CAPACITY`] entries).
    pub fn global() -> &'static DeltaEngine {
        GLOBAL.get_or_init(|| DeltaEngine::new(DEFAULT_CACHE_CAPACITY))
    }

    /// Number of cached converged simulations.
    pub fn cached(&self) -> usize {
        self.cache.len()
    }

    /// Simulates `configs` (or returns the cached converged simulation).
    ///
    /// The simulation runs *outside* the cache lock, so concurrent workers
    /// converging different networks do not serialize; two workers racing
    /// on the same network at worst both simulate it (last insert wins —
    /// both results are identical by determinism).
    pub fn converged(&self, configs: &NetworkConfigs) -> Result<Arc<ConvergedSim>, SimError> {
        let key = hash::structural_hash(configs);
        if let Some(hit) = self.cache.get(key, configs) {
            return Ok(hit);
        }
        let (sim, state) = confmask_sim::simulate_with_state(configs)?;
        let host_match = sim
            .net
            .hosts_iter()
            .map(|(_, h)| {
                (0..sim.net.router_count())
                    .map(|r| {
                        sim.fibs
                            .of(RouterId(r as u32))
                            .lookup(h.addr)
                            .map(|e| e.prefix)
                    })
                    .collect()
            })
            .collect();
        let name_to_id: BTreeMap<&str, u32> = sim
            .net
            .routers
            .iter()
            .enumerate()
            .map(|(r, router)| (router.name.as_str(), r as u32))
            .collect();
        let pair_meta = sim
            .dataplane
            .pairs()
            .map(|(_, ps)| {
                if ps.blackhole
                    || ps.has_loop
                    || ps.paths.is_empty()
                    || ps.paths.len() >= confmask_sim::dataplane::MAX_PATHS_PER_PAIR
                {
                    return None;
                }
                let mut on_path = Vec::new();
                for path in &ps.paths {
                    // path = [src_host, r_1, ..., r_k, dst_host]
                    for name in &path[1..path.len().saturating_sub(1)] {
                        on_path.push(*name_to_id.get(name.as_str())?);
                    }
                }
                on_path.sort_unstable();
                on_path.dedup();
                Some(on_path)
            })
            .collect();
        let converged = Arc::new(ConvergedSim {
            key,
            configs: configs.clone(),
            sim,
            state,
            host_match,
            pair_meta,
            uid: NEXT_UID.fetch_add(1, Ordering::Relaxed),
        });
        self.cache.insert(Arc::clone(&converged));
        Ok(converged)
    }

    /// Simulates a perturbed copy of a cached baseline, incrementally where
    /// the perturbation allows it. The returned [`Simulation`] is
    /// byte-identical to `simulate(perturbed)`; [`DeltaStats`] reports what
    /// was reused.
    pub fn simulate_perturbed(
        &self,
        base: &ConvergedSim,
        perturbed: &NetworkConfigs,
    ) -> Result<(Simulation, DeltaStats), SimError> {
        self.simulate_perturbed_inner(base, perturbed, false)
    }

    /// [`DeltaEngine::simulate_perturbed`], optionally skipping the
    /// config-diff walk when the caller itself produced `perturbed` by
    /// applying shutdowns to `base.configs` (the scenario runner), which
    /// proves the diff class by construction.
    fn simulate_perturbed_inner(
        &self,
        base: &ConvergedSim,
        perturbed: &NetworkConfigs,
        known_shutdowns: bool,
    ) -> Result<(Simulation, DeltaStats), SimError> {
        let sp = confmask_obs::span("sim.delta.sim");
        confmask_obs::counter_add("sim.delta.sims", 1);
        let (sim, stats) = if known_shutdowns {
            delta::simulate_delta_shutdowns(base, perturbed)?
        } else {
            delta::simulate_delta(base, perturbed)?
        };
        sp.finish();
        record_stats(&stats);
        Ok((sim, stats))
    }

    /// Drop-in replacement for [`confmask_sim::fault::run_scenario`] that
    /// simulates the failed network through the delta engine. Produces the
    /// identical [`ScenarioOutcome`] (same classification over the same
    /// baseline pairs), since the post-failure simulation is byte-identical.
    pub fn run_scenario(
        &self,
        base: &ConvergedSim,
        baseline: &DataPlane,
        scenario: &FailureScenario,
    ) -> Result<ScenarioOutcome, SimError> {
        // Fast path: flip shutdown flags on the engine's scratch copy of
        // the baseline configs and revert them afterwards, instead of
        // cloning the whole NetworkConfigs per scenario. Contention (or a
        // poisoned lock) falls back to the plain clone.
        if let Ok(mut slot) = self.scratch.try_lock() {
            return self.run_scenario_scratch(base, baseline, scenario, &mut slot);
        }
        let _sp = confmask_obs::span("sim.fault.scenario");
        confmask_obs::counter_add("sim.fault.scenarios", 1);
        confmask_obs::debug!("sim.delta", "injecting scenario {scenario}");
        let failed_configs = scenario.apply(&base.configs)?;
        self.scenario_outcome(base, baseline, scenario, &failed_configs)
    }

    /// [`DeltaEngine::run_scenario`] with a caller-owned scratch buffer, so
    /// each worker of a parallel sweep reuses its own configs copy instead
    /// of contending on the engine's shared one. The outcome is identical
    /// to [`DeltaEngine::run_scenario`] for any scratch state.
    pub fn run_scenario_scratch(
        &self,
        base: &ConvergedSim,
        baseline: &DataPlane,
        scenario: &FailureScenario,
        scratch: &mut ScenarioScratch,
    ) -> Result<ScenarioOutcome, SimError> {
        let _sp = confmask_obs::span("sim.fault.scenario");
        confmask_obs::counter_add("sim.fault.scenarios", 1);
        confmask_obs::debug!("sim.delta", "injecting scenario {scenario}");
        if scratch.0.as_ref().is_none_or(|(uid, _)| *uid != base.uid) {
            scratch.0 = Some((base.uid, base.configs.clone()));
        }
        let configs = &mut scratch.0.as_mut().expect("scratch was just filled").1;
        let flipped = scenario.apply_in_place(configs)?;
        let out = self.scenario_outcome(base, baseline, scenario, configs);
        revert_shutdowns(configs, &flipped);
        out
    }

    /// The streaming sweep over a cached baseline: scenarios fan out
    /// across the shared executor, each folding into a
    /// [`confmask_sim::ScenarioDigest`] — see [`ScenarioSweep`]. This is
    /// the replacement for the removed collect-then-reduce
    /// `run_scenarios`, which retained a full [`ScenarioOutcome`] per
    /// scenario for the whole batch.
    pub fn sweep<'a>(
        &'a self,
        base: &'a ConvergedSim,
        baseline: &DataPlane,
    ) -> ScenarioSweep<'a> {
        ScenarioSweep::new(self, base, baseline)
    }

    /// Simulates the already-failed configs through the delta engine and
    /// classifies every baseline pair against the result.
    fn scenario_outcome(
        &self,
        base: &ConvergedSim,
        baseline: &DataPlane,
        scenario: &FailureScenario,
        failed_configs: &NetworkConfigs,
    ) -> Result<ScenarioOutcome, SimError> {
        let (sim, _stats) = self.simulate_perturbed_inner(base, failed_configs, true)?;
        // Physical connectivity only arbitrates dropped traffic, so the
        // component flood fill runs lazily — scenarios where no baseline
        // pair drops skip it entirely.
        let comp: OnceCell<BTreeMap<String, usize>> = OnceCell::new();
        let empty = PathSet {
            blackhole: true,
            ..PathSet::default()
        };
        // Merge-join against the perturbed data plane: both iterate in
        // (src, dst) order and the baseline's pairs are a subset, so the
        // per-pair map lookups of the cold path collapse into one pass.
        // Comparing shared handles lets every pair whose path set the
        // delta run reused from this very baseline classify as Unchanged
        // without a deep path comparison.
        let mut after_pairs = sim.dataplane.shared_pairs().peekable();
        let mut rows = Vec::with_capacity(baseline.len());
        for ((src, dst), before) in baseline.shared_pairs() {
            let after = loop {
                match after_pairs.peek() {
                    Some((k, _)) if (&k.0, &k.1) < (src, dst) => {
                        after_pairs.next();
                    }
                    Some((k, ps)) if (&k.0, &k.1) == (src, dst) => break Some(*ps),
                    _ => break None,
                }
            };
            let class = match after {
                Some(after) if Arc::ptr_eq(after, before) => DegradationClass::Unchanged,
                _ => {
                    let after = after.map_or(&empty, |a| a.as_ref());
                    classify_pair_with(before, after, || {
                        let comp = comp.get_or_init(|| physical_components(failed_configs));
                        match (comp.get(src.as_str()), comp.get(dst.as_str())) {
                            (Some(a), Some(b)) => a == b,
                            _ => false,
                        }
                    })
                }
            };
            rows.push(((src.clone(), dst.clone()), class));
        }
        Ok(ScenarioOutcome {
            scenario: scenario.clone(),
            // `rows` is already (src, dst)-sorted: bulk-build the map
            // instead of 3k rebalancing inserts.
            classes: BTreeMap::from_iter(rows),
        })
    }
}

/// Records one delta simulation's [`DeltaStats`] into the `sim.delta.*`
/// metrics — shared by [`DeltaEngine::simulate_perturbed`], the streaming
/// digest path and [`ControlPlane::advance`], so all report reuse
/// identically.
pub(crate) fn record_stats(stats: &DeltaStats) {
    if stats.full_fallback {
        confmask_obs::counter_add("sim.delta.full_fallbacks", 1);
    }
    if stats.identical {
        confmask_obs::counter_add("sim.delta.identical_reuses", 1);
    }
    if stats.rip_warm_started {
        confmask_obs::counter_add("sim.delta.rip_warm_starts", 1);
    }
    if stats.filter_edits {
        confmask_obs::counter_add("sim.delta.filter_edits", 1);
        confmask_obs::counter_add(
            "sim.delta.filter_prefixes_recomputed",
            stats.ospf_prefixes_recomputed as u64,
        );
    }
    confmask_obs::counter_add(
        if stats.bgp_reused {
            "sim.delta.bgp_reuses"
        } else {
            "sim.delta.bgp_recomputes"
        },
        u64::from(!stats.identical && !stats.full_fallback),
    );
    confmask_obs::counter_add(
        "sim.delta.ospf_prefixes_recomputed",
        stats.ospf_prefixes_recomputed as u64,
    );
    confmask_obs::counter_add(
        "sim.delta.ospf_prefixes_reused",
        (stats.ospf_prefixes_total - stats.ospf_prefixes_recomputed) as u64,
    );
    confmask_obs::counter_add("sim.delta.pairs_recomputed", stats.pairs_recomputed as u64);
    confmask_obs::counter_add(
        "sim.delta.pairs_reused",
        (stats.pairs_total - stats.pairs_recomputed) as u64,
    );
    confmask_obs::observe(
        "sim.delta.recompute_fraction_pct",
        (stats.recompute_fraction() * 100.0).round() as u64,
    );
}

/// Registers every `sim.*`, `sim.cache.*`, and `sim.delta.*` metric at
/// zero so the metric set is stable from process start (same
/// register-at-zero rule the rest of the pipeline follows): scrapes and
/// reports see the keys before the first simulation, and a cache that is
/// never hit still exports `sim.cache.hits 0` rather than omitting the
/// series.
pub fn register_metrics() {
    confmask_sim::register_metrics();
    for name in [
        "sim.cache.hits",
        "sim.cache.misses",
        "sim.cache.evictions",
        "sim.delta.sims",
        "sim.delta.full_fallbacks",
        "sim.delta.identical_reuses",
        "sim.delta.rip_warm_starts",
        "sim.delta.filter_edits",
        "sim.delta.filter_prefixes_recomputed",
        "sim.delta.bgp_reuses",
        "sim.delta.bgp_recomputes",
        "sim.delta.ospf_prefixes_recomputed",
        "sim.delta.ospf_prefixes_reused",
        "sim.delta.pairs_recomputed",
        "sim.delta.pairs_reused",
    ] {
        confmask_obs::counter_add(name, 0);
    }
    confmask_obs::gauge_set("sim.cache.entries", 0.0);
    confmask_obs::histogram_register("sim.delta.recompute_fraction_pct");
}

#[cfg(test)]
mod tests {
    use super::*;
    use confmask_config::patch::Patcher;
    use confmask_config::{parse_router, HostConfig};
    use confmask_sim::fault::{enumerate_single_link_failures, run_scenario, Fault};
    use confmask_sim::{simulate, Fibs};

    fn host(name: &str, addr: &str, gw: &str) -> HostConfig {
        HostConfig {
            hostname: name.into(),
            iface_name: "eth0".into(),
            address: (addr.parse().unwrap(), 24),
            gateway: gw.parse().unwrap(),
            extra: vec![],
            added: false,
        }
    }

    /// Triangle r1–r2–r3 (all OSPF), hosts on r1 and r2.
    fn triangle() -> NetworkConfigs {
        let r1 = parse_router(
            "hostname r1\n!\ninterface Ethernet0/0\n ip address 10.0.12.0 255.255.255.254\n!\ninterface Ethernet0/1\n ip address 10.0.13.0 255.255.255.254\n!\ninterface Ethernet0/2\n ip address 10.1.1.1 255.255.255.0\n!\nrouter ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n network 10.1.1.0 0.0.0.255 area 0\n!\n",
        )
        .unwrap();
        let r2 = parse_router(
            "hostname r2\n!\ninterface Ethernet0/0\n ip address 10.0.12.1 255.255.255.254\n!\ninterface Ethernet0/1\n ip address 10.0.23.0 255.255.255.254\n!\ninterface Ethernet0/2\n ip address 10.1.2.1 255.255.255.0\n!\nrouter ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n network 10.1.2.0 0.0.0.255 area 0\n!\n",
        )
        .unwrap();
        let r3 = parse_router(
            "hostname r3\n!\ninterface Ethernet0/0\n ip address 10.0.13.1 255.255.255.254\n!\ninterface Ethernet0/1\n ip address 10.0.23.1 255.255.255.254\n!\nrouter ospf 1\n network 10.0.0.0 0.0.255.255 area 0\n!\n",
        )
        .unwrap();
        NetworkConfigs::new(
            [r1, r2, r3],
            [
                host("h1", "10.1.1.100", "10.1.1.1"),
                host("h2", "10.1.2.100", "10.1.2.1"),
            ],
        )
    }

    fn assert_sims_equal(a: &Simulation, b: &Simulation) {
        assert_eq!(a.fibs.per_router.len(), b.fibs.per_router.len());
        for (fa, fb) in a.fibs.per_router.iter().zip(b.fibs.per_router.iter()) {
            assert_eq!(
                fa.entries().collect::<Vec<_>>(),
                fb.entries().collect::<Vec<_>>()
            );
        }
        assert_eq!(a.dataplane, b.dataplane);
    }

    #[test]
    fn converged_caches_by_content() {
        let engine = DeltaEngine::new(4);
        let cfgs = triangle();
        let a = engine.converged(&cfgs).unwrap();
        let b = engine.converged(&cfgs.clone()).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "second call must be a cache hit");
        assert_eq!(engine.cached(), 1);
    }

    #[test]
    fn identical_perturbation_reuses_wholesale() {
        let engine = DeltaEngine::new(4);
        let cfgs = triangle();
        let base = engine.converged(&cfgs).unwrap();
        let (sim, stats) = engine.simulate_perturbed(&base, &cfgs).unwrap();
        assert!(stats.identical);
        assert_eq!(stats.recompute_fraction(), 0.0);
        assert_sims_equal(&sim, &base.sim);
    }

    #[test]
    fn every_single_link_failure_matches_cold_simulation() {
        let engine = DeltaEngine::new(4);
        let cfgs = triangle();
        let base = engine.converged(&cfgs).unwrap();
        for scenario in enumerate_single_link_failures(&cfgs) {
            let failed = scenario.apply(&cfgs).unwrap();
            let cold = simulate(&failed).unwrap();
            let (deltaed, stats) = engine.simulate_perturbed(&base, &failed).unwrap();
            assert!(
                !stats.full_fallback,
                "{scenario}: shutdowns must not fall back"
            );
            assert_sims_equal(&deltaed, &cold);
        }
    }

    #[test]
    fn run_scenario_matches_the_cold_engine() {
        let engine = DeltaEngine::new(4);
        let cfgs = triangle();
        let base = engine.converged(&cfgs).unwrap();
        let baseline = base.sim.dataplane.clone();
        for scenario in enumerate_single_link_failures(&cfgs) {
            let cold = run_scenario(&cfgs, &baseline, &scenario).unwrap();
            let warm = engine.run_scenario(&base, &baseline, &scenario).unwrap();
            assert_eq!(cold, warm, "{scenario}");
        }
    }

    #[test]
    fn router_down_only_recomputes_touched_state() {
        let engine = DeltaEngine::new(4);
        let cfgs = triangle();
        let base = engine.converged(&cfgs).unwrap();
        let scenario = FailureScenario::single(Fault::RouterDown {
            router: "r3".into(),
        });
        let failed = scenario.apply(&cfgs).unwrap();
        let cold = simulate(&failed).unwrap();
        let (deltaed, stats) = engine.simulate_perturbed(&base, &failed).unwrap();
        assert!(!stats.full_fallback);
        assert_sims_equal(&deltaed, &cold);
        // r3 carries no baseline traffic between h1 and h2 and hosts no
        // LAN: the h1↔h2 pairs reuse their cached traces.
        assert!(stats.pairs_recomputed < stats.pairs_total);
    }

    #[test]
    fn unsupported_perturbations_fall_back_to_full_simulation() {
        let engine = DeltaEngine::new(4);
        let cfgs = triangle();
        let base = engine.converged(&cfgs).unwrap();
        // A cost edit is not a shutdown: must fall back, and still match.
        let mut edited = cfgs.clone();
        edited.routers.get_mut("r1").unwrap().interfaces[0].ospf_cost = Some(3);
        let cold = simulate(&edited).unwrap();
        let (deltaed, stats) = engine.simulate_perturbed(&base, &edited).unwrap();
        assert!(stats.full_fallback);
        assert_eq!(stats.recompute_fraction(), 1.0);
        assert_sims_equal(&deltaed, &cold);
        // Un-shutdown (bring-up) is an addition: also a fallback.
        let down = FailureScenario::single(Fault::LinkDown {
            a: "r1".into(),
            b: "r2".into(),
            added: false,
        })
        .apply(&cfgs)
        .unwrap();
        let down_base = engine.converged(&down).unwrap();
        let (_, stats) = engine.simulate_perturbed(&down_base, &cfgs).unwrap();
        assert!(stats.full_fallback);
    }

    fn assert_fibs_equal(a: &Fibs, b: &Fibs) {
        assert_eq!(a.per_router.len(), b.per_router.len());
        for (fa, fb) in a.per_router.iter().zip(b.per_router.iter()) {
            assert_eq!(fa, fb);
        }
    }

    /// `cfgs` plus a deny entry for `prefix` in list `F` on `router`,
    /// bound inbound on `iface`.
    fn deny(cfgs: &NetworkConfigs, router: &str, iface: &str, prefix: &str) -> NetworkConfigs {
        let mut p = Patcher::new(cfgs.clone());
        p.ensure_deny_entry(router, "F", prefix.parse().unwrap())
            .unwrap();
        p.bind_igp_filter(router, "F", iface).unwrap();
        p.network().clone()
    }

    #[test]
    fn filter_only_diff_takes_the_filter_edit_path() {
        let cfgs = triangle();
        // r1 loses its only shortest path toward h2's LAN.
        let edited = deny(&cfgs, "r1", "Ethernet0/0", "10.1.2.0/24");
        assert!(matches!(
            delta::diff_configs(&cfgs, &edited),
            delta::ConfigDiff::FilterEdits { ref routers } if routers == &[0]
        ));
        let engine = DeltaEngine::new(4);
        let base = engine.converged(&cfgs).unwrap();
        let (sim, stats) = engine.simulate_perturbed(&base, &edited).unwrap();
        assert!(stats.filter_edits && !stats.full_fallback);
        assert_eq!(stats.ospf_prefixes_recomputed, 1, "only h2's LAN");
        assert_sims_equal(&sim, &simulate(&edited).unwrap());
        // h2 → h1 never consults the changed entry: reused, not re-traced.
        assert_eq!((stats.pairs_recomputed, stats.pairs_total), (1, 2));
    }

    #[test]
    fn filter_plus_shutdown_diff_is_unsupported() {
        let cfgs = triangle();
        let mut edited = deny(&cfgs, "r1", "Ethernet0/0", "10.1.2.0/24");
        edited.routers.get_mut("r3").unwrap().interfaces[0].shutdown = true;
        assert!(matches!(
            delta::diff_configs(&cfgs, &edited),
            delta::ConfigDiff::Unsupported
        ));
        let engine = DeltaEngine::new(4);
        let base = engine.converged(&cfgs).unwrap();
        let (sim, stats) = engine.simulate_perturbed(&base, &edited).unwrap();
        assert!(stats.full_fallback);
        assert_sims_equal(&sim, &simulate(&edited).unwrap());
    }

    #[test]
    fn binding_to_a_missing_list_affects_no_prefix() {
        let cfgs = triangle();
        let mut p = Patcher::new(cfgs.clone());
        p.bind_igp_filter("r1", "Missing", "Ethernet0/0").unwrap();
        let edited = p.network().clone();
        assert!(matches!(
            delta::diff_configs(&cfgs, &edited),
            delta::ConfigDiff::FilterEdits { .. }
        ));
        let mut cp = ControlPlane::cold(&cfgs).unwrap();
        let stats = cp.advance(&edited).unwrap();
        assert!(stats.filter_edits && !stats.full_fallback);
        assert_eq!(stats.ospf_prefixes_recomputed, 0);
        let (_, cold) = confmask_sim::simulate_control_plane(&edited).unwrap();
        assert_fibs_equal(cp.fibs(), &cold);
    }

    #[test]
    fn control_plane_tracks_cold_through_a_deny_and_its_rollback() {
        let cfgs = triangle();
        let lan2 = "10.1.2.0/24".parse().unwrap();
        let mut cp = ControlPlane::cold(&cfgs).unwrap();
        let mut p = Patcher::new(cfgs.clone());
        p.ensure_deny_entry("r1", "Rej-Ethernet0/0", lan2).unwrap();
        p.bind_igp_filter("r1", "Rej-Ethernet0/0", "Ethernet0/0")
            .unwrap();
        let stats = cp.advance(p.network()).unwrap();
        assert_eq!(stats.ospf_prefixes_recomputed, 1);
        let (_, cold) = confmask_sim::simulate_control_plane(p.network()).unwrap();
        assert_fibs_equal(cp.fibs(), &cold);
        let r1 = cp.net().router_id("r1").unwrap();
        assert!(cp.fibs().of(r1).entry(&lan2).is_none(), "the deny bites");

        // Algorithm 2's rollback: the emptied list and its binding go.
        assert!(p
            .remove_added_deny_entry("r1", "Rej-Ethernet0/0", lan2)
            .unwrap());
        cp.advance(p.network()).unwrap();
        let (_, cold) = confmask_sim::simulate_control_plane(&cfgs).unwrap();
        assert_fibs_equal(cp.fibs(), &cold);
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let engine = DeltaEngine::new(2);
        let a = triangle();
        let mut b = triangle();
        b.routers.get_mut("r1").unwrap().interfaces[0].ospf_cost = Some(2);
        let mut c = triangle();
        c.routers.get_mut("r1").unwrap().interfaces[0].ospf_cost = Some(4);
        engine.converged(&a).unwrap();
        engine.converged(&b).unwrap();
        engine.converged(&a).unwrap(); // refresh a
        engine.converged(&c).unwrap(); // evicts b
        assert_eq!(engine.cached(), 2);
        let before = engine.cached();
        engine.converged(&a).unwrap(); // still cached: no growth
        assert_eq!(engine.cached(), before);
    }
}
