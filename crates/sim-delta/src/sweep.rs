//! The warm streaming fault sweep: incremental delta simulation folded
//! directly into [`ScenarioDigest`]s, never materializing a perturbed
//! data plane.
//!
//! [`ScenarioSweep`] binds a cached baseline ([`ConvergedSim`]) to an
//! interned pair table once, then classifies each failure scenario
//! per-pair straight off the [`delta::DeltaPlan`]:
//!
//! * a **reusable** pair (same predicate the materializing path uses —
//!   [`delta::DeltaPlan::pair_reusable`]) whose baseline path set
//!   equals the base's classifies as `Unchanged` without touching a path;
//! * a reusable pair whose sweep baseline *differs* from the base (a
//!   masked-network sweep compared against the original's baseline)
//!   classifies the cached base path set against the sweep baseline;
//! * a **non-reusable** pair re-traces in id space into a reused
//!   [`PathArena`] and compares against the baseline allocation-free
//!   ([`PathArena::matches`]) — no `PathSet` is ever built.
//!
//! The result is byte-identical to folding the cold
//! [`confmask_sim::fault::run_scenario`] outcome through
//! [`ScenarioDigest::from_outcome`] (the differential gate in
//! `tests/delta_diff.rs` asserts encode-level equality), but a swept
//! scenario allocates nothing that outlives its digest — the memory
//! profile that makes exhaustive k = 2 enumeration and parallel sweeps on
//! a single core viable.

use crate::{delta, record_stats, ConvergedSim, DeltaEngine, DeltaStats, ScenarioScratch};
use confmask_config::NetworkConfigs;
use confmask_net_types::HostId;
use confmask_sim::dataplane::{trace_into, DataPlane, PathArena};
use confmask_sim::fault::{
    classify_pair, classify_pair_with, physical_components, revert_shutdowns, DegradationClass,
    FailureScenario,
};
use confmask_sim::sweep::{PairTable, ScenarioDigest, SweepMeter, SweepReducer, SweepStats};
use confmask_sim::{PathSet, SimError};
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One baseline pair's precomputed binding to the base simulation: where
/// it sits in the base data plane, its endpoints' host ids, and whether
/// the sweep's baseline path set equals the base's (computed once, so the
/// per-scenario fold never deep-compares paths for reused pairs).
struct PairBinding {
    /// Source host id (index into the plan's host order).
    si: u32,
    /// Destination host id.
    di: u32,
    /// Index of this pair in the base data plane's key order (and thus
    /// into `pair_meta`); `u32::MAX` when the base lacks the pair.
    base_idx: u32,
    /// Whether `baseline` equals the base's path set for this pair.
    same_as_base: bool,
    /// The sweep baseline's path set (what digests classify against).
    baseline: Arc<PathSet>,
    /// The base simulation's path set (what a reused pair yields).
    base_ps: Option<Arc<PathSet>>,
}

/// A streaming fault sweep over one cached baseline.
///
/// Built once per (baseline, pair table); [`ScenarioSweep::digest`] folds
/// one scenario, [`ScenarioSweep::run`] drives a whole scenario sequence
/// through the shared executor in bounded windows, feeding a
/// [`SweepReducer`] in scenario order.
pub struct ScenarioSweep<'a> {
    /// Held so a sweep cannot outlive the engine whose cache owns `base`
    /// (and to leave room for engine-level knobs later).
    _engine: &'a DeltaEngine,
    base: &'a ConvergedSim,
    table: Arc<PairTable>,
    binding: Vec<PairBinding>,
    /// The base data plane's key order disagreed with the host
    /// enumeration (the same defensive invariant the materializing path
    /// zips for): every scenario goes through the cold path.
    force_cold: bool,
}

impl<'a> ScenarioSweep<'a> {
    /// A sweep classifying `baseline`'s pairs, with a fresh [`PairTable`]
    /// interned from it.
    pub fn new(
        engine: &'a DeltaEngine,
        base: &'a ConvergedSim,
        baseline: &DataPlane,
    ) -> ScenarioSweep<'a> {
        let table = Arc::new(PairTable::from_baseline(baseline));
        Self::with_table(engine, base, baseline, table)
            .expect("a table interned from the baseline always matches it")
    }

    /// A sweep reusing an existing pair table — callers comparing two
    /// sweeps index-align their digests by sharing one table. Returns
    /// `None` when `table`'s pairs are not exactly `baseline`'s (fall
    /// back to [`ScenarioSweep::new`] and name-based comparison).
    pub fn with_table(
        engine: &'a DeltaEngine,
        base: &'a ConvergedSim,
        baseline: &DataPlane,
        table: Arc<PairTable>,
    ) -> Option<ScenarioSweep<'a>> {
        if table.len() != baseline.len() {
            return None;
        }
        for (i, ((s, d), _)) in baseline.pairs().enumerate() {
            if table.pair(i) != (s.as_str(), d.as_str()) {
                return None;
            }
        }

        let host_id: BTreeMap<&str, u32> = base
            .sim
            .net
            .hosts_iter()
            .map(|(id, h)| (h.name.as_str(), id.0))
            .collect();

        // The plan's pair indices assume the base data plane enumerates
        // exactly the ordered host pairs in host order — the invariant
        // `delta::materialize` re-zips per scenario; verify it once here.
        let mut force_cold = false;
        {
            let names: Vec<&str> = base
                .sim
                .net
                .hosts_iter()
                .map(|(_, h)| h.name.as_str())
                .collect();
            let mut cached = base.sim.dataplane.pairs();
            'check: for s in &names {
                for d in &names {
                    if s == d {
                        continue;
                    }
                    match cached.next() {
                        Some(((ks, kd), _)) if ks == s && kd == d => {}
                        _ => {
                            force_cold = true;
                            break 'check;
                        }
                    }
                }
            }
            if !force_cold && cached.next().is_some() {
                force_cold = true;
            }
        }

        // Merge-join the baseline against the base data plane (both are
        // name-sorted; the baseline is normally a restriction of it).
        let mut base_pairs = base.sim.dataplane.shared_pairs().enumerate().peekable();
        let mut binding = Vec::with_capacity(baseline.len());
        for ((s, d), ps) in baseline.shared_pairs() {
            while let Some((_, (k, _))) = base_pairs.peek() {
                if (&k.0, &k.1) < (s, d) {
                    base_pairs.next();
                } else {
                    break;
                }
            }
            let (mut base_idx, base_ps, same_as_base) = match base_pairs.peek() {
                Some((idx, (k, bp))) if (&k.0, &k.1) == (s, d) => {
                    let same = Arc::ptr_eq(ps, bp) || **ps == ***bp;
                    (*idx as u32, Some(Arc::clone(bp)), same)
                }
                _ => (u32::MAX, None, false),
            };
            let (si, di) = match (host_id.get(s.as_str()), host_id.get(d.as_str())) {
                (Some(&a), Some(&b)) => (a, b),
                _ => (u32::MAX, u32::MAX),
            };
            if si == u32::MAX || di == u32::MAX {
                base_idx = u32::MAX;
            }
            binding.push(PairBinding {
                si,
                di,
                base_idx,
                same_as_base: same_as_base && base_idx != u32::MAX,
                baseline: Arc::clone(ps),
                base_ps,
            });
        }

        Some(ScenarioSweep {
            _engine: engine,
            base,
            table,
            binding,
            force_cold,
        })
    }

    /// The shared pair table digests of this sweep refer into.
    pub fn table(&self) -> Arc<PairTable> {
        Arc::clone(&self.table)
    }

    /// Folds one scenario into its digest, reusing the worker's scratch
    /// configs (same apply/revert discipline as
    /// [`DeltaEngine::run_scenario_scratch`]). Byte-identical to folding
    /// the cold `run_scenario` outcome through
    /// [`ScenarioDigest::from_outcome`] with this sweep's table.
    pub fn digest(
        &self,
        scenario: &FailureScenario,
        scratch: &mut ScenarioScratch,
    ) -> Result<ScenarioDigest, SimError> {
        let _sp = confmask_obs::span("sim.fault.scenario");
        confmask_obs::counter_add("sim.fault.scenarios", 1);
        confmask_obs::debug!("sim.delta", "injecting scenario {scenario}");
        if scratch
            .0
            .as_ref()
            .is_none_or(|(uid, _)| *uid != self.base.uid)
        {
            scratch.0 = Some((self.base.uid, self.base.configs.clone()));
        }
        let configs = &mut scratch.0.as_mut().expect("scratch was just filled").1;
        let flipped = scenario.apply_in_place(configs)?;
        let out = self.digest_failed(configs);
        revert_shutdowns(configs, &flipped);
        out
    }

    /// Digests the already-failed configs: plan the delta, classify every
    /// bound pair off the plan, fall back to a cold run when planning
    /// declines.
    fn digest_failed(&self, failed: &NetworkConfigs) -> Result<ScenarioDigest, SimError> {
        let sp = confmask_obs::span("sim.delta.sim");
        confmask_obs::counter_add("sim.delta.sims", 1);
        let plan = if self.force_cold {
            None
        } else {
            delta::plan_shutdowns(self.base, failed)?
        };
        let (digest, stats) = match plan {
            Some(plan) => self.digest_plan(failed, &plan),
            None => (self.digest_cold(failed)?, DeltaStats::full()),
        };
        sp.finish();
        record_stats(&stats);
        Ok(digest)
    }

    /// Classifies every bound pair against the plan. Replicates
    /// `classify_pair_with`'s decision order exactly for re-traced pairs
    /// (equality, loop, dropped, rerouted) so the digest matches the
    /// materializing path bit for bit.
    fn digest_plan(
        &self,
        failed: &NetworkConfigs,
        plan: &delta::DeltaPlan,
    ) -> (ScenarioDigest, DeltaStats) {
        // Physical connectivity only arbitrates dropped traffic, so the
        // component flood fill runs lazily, at most once per scenario.
        let comp: OnceCell<BTreeMap<String, usize>> = OnceCell::new();
        let connected = |src: &str, dst: &str| {
            let comp = comp.get_or_init(|| physical_components(failed));
            match (comp.get(src), comp.get(dst)) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            }
        };
        let empty = PathSet {
            blackhole: true,
            ..PathSet::default()
        };
        let mut arena = PathArena::default();
        let mut digest = ScenarioDigest::new(self.table.len());
        let mut recomputed = 0usize;
        for (i, b) in self.binding.iter().enumerate() {
            let (src, dst) = self.table.pair(i);
            let class = if b.base_idx == u32::MAX {
                // The base simulation lacks this pair: the perturbed data
                // plane cannot contain it either (delta runs start from
                // the base's pair set), so it reads as dropped.
                classify_pair_with(&b.baseline, &empty, || connected(src, dst))
            } else if plan.pair_reusable(self.base, b.si as usize, b.di as usize, b.base_idx as usize)
            {
                if b.same_as_base {
                    // Reused ⇒ post-failure == base == this baseline.
                    DegradationClass::Unchanged
                } else {
                    let after = b.base_ps.as_ref().expect("present pair has a base path set");
                    classify_pair_with(&b.baseline, after, || connected(src, dst))
                }
            } else {
                recomputed += 1;
                trace_into(
                    &plan.new_net,
                    &plan.fibs,
                    HostId(b.si),
                    HostId(b.di),
                    &mut arena,
                );
                if arena.matches(&plan.new_net, &b.baseline) {
                    DegradationClass::Unchanged
                } else if arena.has_loop {
                    DegradationClass::Looping
                } else if arena.path_count() == 0 || arena.blackhole {
                    if connected(src, dst) {
                        DegradationClass::BlackHoled
                    } else {
                        DegradationClass::Partitioned
                    }
                } else {
                    DegradationClass::Rerouted
                }
            };
            digest.record(i, class);
        }
        (digest, plan.stats(self.binding.len(), recomputed))
    }

    /// Cold fallback: full re-simulation, classified per table pair —
    /// exactly `run_scenario`'s loop, folded straight into a digest.
    fn digest_cold(&self, failed: &NetworkConfigs) -> Result<ScenarioDigest, SimError> {
        let sim = confmask_sim::simulate(failed)?;
        let comp = physical_components(failed);
        let empty = PathSet {
            blackhole: true,
            ..PathSet::default()
        };
        let mut digest = ScenarioDigest::new(self.table.len());
        for (i, b) in self.binding.iter().enumerate() {
            let (src, dst) = self.table.pair(i);
            let after = sim.dataplane.between(src, dst).unwrap_or(&empty);
            let connected = match (comp.get(src), comp.get(dst)) {
                (Some(a), Some(b)) => a == b,
                _ => false,
            };
            digest.record(i, classify_pair(&b.baseline, after, connected));
        }
        Ok(digest)
    }

    /// Sweeps a scenario sequence: windows of scenarios fan out across
    /// the shared executor with per-worker scratch configs, and each
    /// digest is folded into `reducer` in scenario order while the window
    /// behind it is freed. Peak retention is one window of digests — the
    /// `peak_digest_bytes` the returned [`SweepStats`] reports.
    ///
    /// Items may be owned scenarios (a lazy k = 2 enumerator) or borrows
    /// (`scenarios.iter()` over a caller-held `Vec` — no per-item clone).
    pub fn run<B: std::borrow::Borrow<FailureScenario> + Sync>(
        &self,
        scenarios: impl IntoIterator<Item = B>,
        reducer: &mut dyn SweepReducer,
    ) -> SweepStats {
        let window = (confmask_exec::thread_count() * 32).clamp(64, 1024);
        let mut meter = SweepMeter::new(window);
        confmask_exec::par_stream_init(
            scenarios,
            window,
            ScenarioScratch::default,
            |scratch, _i, sc: &B| self.digest(sc.borrow(), scratch),
            |i, r| match r {
                Ok(d) => {
                    meter.fold_ok(i, d.retained_bytes());
                    reducer.fold(i, d);
                }
                Err(e) => {
                    meter.fold_err(i);
                    reducer.fold_err(i, e);
                }
            },
        );
        meter.finish()
    }

    /// The most severe class in a single ad-hoc scenario (convenience for
    /// callers that probe one compound failure).
    pub fn worst_of(
        &self,
        scenario: &FailureScenario,
        scratch: &mut ScenarioScratch,
    ) -> Result<DegradationClass, SimError> {
        self.digest(scenario, scratch).map(|d| d.worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use confmask_config::{parse_router, HostConfig, NetworkConfigs};
    use confmask_sim::fault::{
        enumerate_single_link_failures, run_scenario, Fault,
    };
    use confmask_sim::sweep::DigestList;
    use confmask_sim::simulate;

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

    fn scenarios(cfgs: &NetworkConfigs) -> Vec<FailureScenario> {
        let mut out = enumerate_single_link_failures(cfgs);
        for r in ["r1", "r2", "r3"] {
            out.push(FailureScenario::single(Fault::RouterDown { router: r.into() }));
        }
        out
    }

    #[test]
    fn warm_digests_match_cold_folds() {
        let engine = DeltaEngine::new(4);
        let cfgs = triangle();
        let base = engine.converged(&cfgs).unwrap();
        let sweep = engine.sweep(&base, &base.sim.dataplane);
        let mut scratch = ScenarioScratch::default();
        for sc in scenarios(&cfgs) {
            let warm = sweep.digest(&sc, &mut scratch).unwrap();
            let cold = ScenarioDigest::from_outcome(
                &run_scenario(&cfgs, &base.sim.dataplane, &sc).unwrap(),
                &sweep.table(),
            );
            assert_eq!(warm, cold, "{sc}");
            assert_eq!(warm.encode(), cold.encode(), "{sc}");
        }
    }

    #[test]
    fn warm_digests_match_against_foreign_baseline() {
        // The baseline comes from a *separate* cold simulation: no Arc
        // sharing with the cached base, so same_as_base runs on deep
        // equality. Results must still match the cold fold.
        let engine = DeltaEngine::new(4);
        let cfgs = triangle();
        let base = engine.converged(&cfgs).unwrap();
        let baseline = simulate(&cfgs).unwrap().dataplane;
        let sweep = engine.sweep(&base, &baseline);
        let mut scratch = ScenarioScratch::default();
        for sc in scenarios(&cfgs) {
            let warm = sweep.digest(&sc, &mut scratch).unwrap();
            let cold = ScenarioDigest::from_outcome(
                &run_scenario(&cfgs, &baseline, &sc).unwrap(),
                &sweep.table(),
            );
            assert_eq!(warm, cold, "{sc}");
        }
    }

    #[test]
    fn run_streams_in_order_with_digest_stats() {
        let engine = DeltaEngine::new(4);
        let cfgs = triangle();
        let base = engine.converged(&cfgs).unwrap();
        let sweep = engine.sweep(&base, &base.sim.dataplane);
        let scs = scenarios(&cfgs);
        let mut list = DigestList::default();
        let stats = sweep.run(scs.iter(), &mut list);
        assert_eq!(stats.scenarios, scs.len());
        assert_eq!(stats.errors, 0);
        assert!(stats.peak_digest_bytes > 0);
        assert_eq!(list.results.len(), scs.len());
        let mut scratch = ScenarioScratch::default();
        for (sc, got) in scs.iter().zip(&list.results) {
            assert_eq!(
                got.as_ref().unwrap(),
                &sweep.digest(sc, &mut scratch).unwrap(),
                "{sc}"
            );
        }
    }

    #[test]
    fn with_table_rejects_mismatched_tables() {
        let engine = DeltaEngine::new(4);
        let cfgs = triangle();
        let base = engine.converged(&cfgs).unwrap();
        let table = Arc::new(PairTable::from_baseline(&base.sim.dataplane));
        assert!(ScenarioSweep::with_table(
            &engine,
            &base,
            &base.sim.dataplane,
            Arc::clone(&table)
        )
        .is_some());
        // A restricted baseline has fewer pairs than the full table.
        let only: std::collections::BTreeSet<String> = ["h1".to_string()].into();
        let restricted = base.sim.dataplane.restricted_to(&only);
        assert!(ScenarioSweep::with_table(&engine, &base, &restricted, table).is_none());
    }

    #[test]
    fn erroring_scenarios_fold_as_errors() {
        let engine = DeltaEngine::new(4);
        let cfgs = triangle();
        let base = engine.converged(&cfgs).unwrap();
        let sweep = engine.sweep(&base, &base.sim.dataplane);
        let bad = FailureScenario::single(Fault::RouterDown {
            router: "nope".into(),
        });
        let mut list = DigestList::default();
        let stats = sweep.run([bad], &mut list);
        assert_eq!(stats.scenarios, 0);
        assert_eq!(stats.errors, 1);
        assert!(matches!(
            list.results[0],
            Err(SimError::UnknownElement(_))
        ));
    }
}
