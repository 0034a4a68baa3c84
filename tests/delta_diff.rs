//! Differential harness for the incremental simulation engine: on random
//! networks across protocol flavors (OSPF, RIP, two-AS BGP+OSPF), every
//! k = 1 fault simulated through [`DeltaEngine::simulate_perturbed`] must
//! be **byte-identical** to a cold `simulate()` of the same failed
//! configurations — same FIB entries on every router, same data-plane
//! paths for every host pair, and the same error when simulation fails.
//! The same holds for seeded sequences of route-filter edits, both
//! through `simulate_perturbed` and through a [`ControlPlane`] advanced
//! in place after every edit (compared with a cold `control_plane`: FIBs
//! and the whole per-protocol control state), with one router or several
//! edited per advance.
//!
//! The sweep is seeded and deterministic. `DELTA_DIFF_SEEDS` controls how
//! many random networks are generated (default 8; CI runs more).

use confmask_config::{
    DistributeListBinding, FilterAction, NetworkConfigs, PrefixList, PrefixListEntry,
};
use confmask_net_types::Ipv4Prefix;
use confmask_netgen::{synthesize, IgpProtocol, TopoSpec};
use confmask_sim::fault::{enumerate_single_link_failures, FailureScenario, Fault};
use confmask_sim::sweep::{DigestList, PairTable, ScenarioDigest};
use confmask_sim::{control_plane, simulate, Fibs, Simulation};
use confmask_sim_delta::{ControlPlane, ConvergedSim, DeltaEngine, ScenarioScratch};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A random connected network of 4–10 routers: random spanning tree plus
/// random extra links with optional costs, random host placement, and the
/// protocol flavor picked by `flavor` (0 = OSPF, 1 = RIP, 2 = BGP+OSPF).
fn random_spec(rng: &mut StdRng, flavor: u8) -> TopoSpec {
    let n = rng.gen_range(4usize..=10);
    let igp = if flavor == 1 {
        IgpProtocol::Rip
    } else {
        IgpProtocol::Ospf
    };
    let mut spec = TopoSpec::new("diff", (0..n).map(|i| format!("d{i}")).collect(), igp);
    for i in 1..n {
        let parent = rng.gen_range(0..i);
        spec.links.push((parent, i, None));
    }
    for _ in 0..rng.gen_range(0..8) {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        let cost = if rng.gen_bool(0.5) {
            Some(rng.gen_range(1u32..20))
        } else {
            None
        };
        if a != b
            && !spec
                .links
                .iter()
                .any(|&(x, y, _)| (x, y) == (a.min(b), a.max(b)))
        {
            spec.links.push((a.min(b), a.max(b), cost));
        }
    }
    for i in 0..rng.gen_range(2usize..5) {
        spec.hosts.push((format!("dh{i}"), rng.gen_range(0..n)));
    }
    if flavor == 2 {
        let cut = n / 2;
        spec.asn_of = Some(
            (0..n)
                .map(|i| if i < cut { 65001 } else { 65002 })
                .collect(),
        );
    }
    spec.boilerplate = false;
    spec
}

/// Byte-level equality of two simulations: every router's FIB entries in
/// order, and the full data plane (paths, flags) for every host pair.
fn assert_sims_equal(tag: &str, cold: &Simulation, delta: &Simulation) {
    assert_fibs_equal(tag, &cold.fibs, &delta.fibs);
    assert_eq!(cold.dataplane, delta.dataplane, "{tag}: data plane differs");
}

fn assert_fibs_equal(tag: &str, cold: &Fibs, delta: &Fibs) {
    assert_eq!(
        cold.per_router.len(),
        delta.per_router.len(),
        "{tag}: router count"
    );
    for (i, (fc, fd)) in cold
        .per_router
        .iter()
        .zip(delta.per_router.iter())
        .enumerate()
    {
        assert_eq!(
            fc.entries().collect::<Vec<_>>(),
            fd.entries().collect::<Vec<_>>(),
            "{tag}: FIB of router #{i} differs"
        );
    }
}

#[test]
fn delta_simulation_matches_cold_simulation_on_random_networks() {
    let seeds: u64 = std::env::var("DELTA_DIFF_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let mut networks_checked = 0u64;
    let mut scenarios_checked = 0u64;
    for i in 0..seeds {
        let mut rng = StdRng::seed_from_u64(0xD1FF_0000 ^ i);
        let flavor = (i % 3) as u8;
        let spec = random_spec(&mut rng, flavor);
        let configs = synthesize(&spec);
        // An unsimulatable healthy network is a generator artifact (e.g. a
        // BGP split isolating hosts), not a delta-engine case: skip it.
        if simulate(&configs).is_err() {
            continue;
        }
        networks_checked += 1;
        let engine = DeltaEngine::new(4);
        let base = engine.converged(&configs).expect("baseline converges");

        // Every single-link failure, plus two router-down faults: the full
        // supported perturbation class (shutdown-only).
        let mut scenarios = enumerate_single_link_failures(&configs);
        for router in configs.routers.keys().take(2) {
            scenarios.push(FailureScenario::single(Fault::RouterDown {
                router: router.clone(),
            }));
        }
        for scenario in scenarios {
            let tag = format!("seed {i} flavor {flavor}: {scenario}");
            let failed = scenario.apply(&configs).expect("fault applies");
            scenarios_checked += 1;
            match (simulate(&failed), engine.simulate_perturbed(&base, &failed)) {
                (Ok(cold), Ok((delta, stats))) => {
                    assert!(
                        !stats.full_fallback,
                        "{tag}: shutdown-only faults must take the delta path"
                    );
                    assert_sims_equal(&tag, &cold, &delta);
                }
                // Post-failure divergence (e.g. BGP oscillation) must be
                // reported identically by both engines.
                (Err(cold_err), Err(delta_err)) => {
                    assert_eq!(
                        cold_err.to_string(),
                        delta_err.to_string(),
                        "{tag}: error mismatch"
                    );
                }
                (cold, delta) => panic!(
                    "{tag}: outcome mismatch — cold {:?} vs delta {:?}",
                    cold.map(|_| "ok").map_err(|e| e.to_string()),
                    delta.map(|_| "ok").map_err(|e| e.to_string()),
                ),
            }
        }
    }
    assert!(networks_checked > 0, "every generated network was degenerate");
    assert!(scenarios_checked > 0);
    eprintln!(
        "delta-diff: {scenarios_checked} scenario(s) across {networks_checked} network(s), \
         zero mismatches"
    );
}

/// The batch sweep driver that replaced the engine's per-scenario
/// `run_scenario` façade — [`ScenarioSweep::run`] over a whole scenario
/// list — must classify every pair exactly as the cold
/// `fault::run_scenario` does, in scenario order, with errors where the
/// cold path errs.
///
/// [`ScenarioSweep::run`]: confmask_sim_delta::ScenarioSweep::run
#[test]
fn run_scenario_facade_matches_cold_on_random_networks() {
    let seeds: u64 = std::env::var("DELTA_DIFF_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .map(|n: u64| (n / 2).max(2))
        .unwrap_or(4);
    let mut scenarios_checked = 0usize;
    for i in 0..seeds {
        let mut rng = StdRng::seed_from_u64(0x5CEA_0000 ^ i);
        let spec = random_spec(&mut rng, (i % 3) as u8);
        let configs = synthesize(&spec);
        let Ok(sim) = simulate(&configs) else { continue };
        let engine = DeltaEngine::new(4);
        let base = engine.converged(&configs).expect("baseline converges");
        let sweep = engine.sweep(&base, &sim.dataplane);
        let table = PairTable::from_baseline(&sim.dataplane);
        let scenarios = enumerate_single_link_failures(&configs);
        let mut list = DigestList::default();
        let stats = sweep.run(scenarios.iter(), &mut list);
        assert_eq!(list.results.len(), scenarios.len(), "seed {i}");
        assert_eq!(stats.scenarios + stats.errors, scenarios.len(), "seed {i}");
        for (scenario, warm) in scenarios.iter().zip(list.results) {
            scenarios_checked += 1;
            let cold = confmask_sim::fault::run_scenario(&configs, &sim.dataplane, scenario);
            match (cold, warm) {
                (Ok(c), Ok(w)) => {
                    assert_eq!(
                        ScenarioDigest::from_outcome(&c, &table),
                        w,
                        "seed {i}: {scenario}"
                    )
                }
                (Err(c), Err(w)) => assert_eq!(c.to_string(), w.to_string()),
                (c, w) => panic!(
                    "seed {i}: {scenario}: outcome mismatch — cold {:?} vs warm {:?}",
                    c.map(|_| "ok").map_err(|e| e.to_string()),
                    w.map(|_| "ok").map_err(|e| e.to_string()),
                ),
            }
        }
    }
    assert!(scenarios_checked > 0);
}

/// The streaming sweep's digests must be byte-identical (down to the wire
/// encoding) to folding the cold `run_scenario` outcome through
/// `ScenarioDigest::from_outcome` — for every k = 1 fault plus router-down
/// faults, on random networks across protocol flavors.
#[test]
fn streaming_digests_match_cold_folds_on_random_networks() {
    let seeds: u64 = std::env::var("DELTA_DIFF_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .map(|n: u64| (n / 2).max(2))
        .unwrap_or(4);
    let mut scenarios_checked = 0u64;
    for i in 0..seeds {
        let seed = 0xD16E_0000 ^ i;
        let mut rng = StdRng::seed_from_u64(seed);
        let spec = random_spec(&mut rng, (i % 3) as u8);
        let configs = synthesize(&spec);
        let Ok(sim) = simulate(&configs) else { continue };
        let engine = DeltaEngine::new(4);
        let base = engine.converged(&configs).expect("baseline converges");
        let sweep = engine.sweep(&base, &sim.dataplane);
        let table = PairTable::from_baseline(&sim.dataplane);
        let mut scratch = ScenarioScratch::default();
        let mut scenarios = enumerate_single_link_failures(&configs);
        for router in configs.routers.keys().take(2) {
            scenarios.push(FailureScenario::single(Fault::RouterDown {
                router: router.clone(),
            }));
        }
        for scenario in scenarios {
            scenarios_checked += 1;
            let cold = confmask_sim::fault::run_scenario(&configs, &sim.dataplane, &scenario);
            let warm = sweep.digest(&scenario, &mut scratch);
            match (cold, warm) {
                (Ok(c), Ok(w)) => {
                    let folded = ScenarioDigest::from_outcome(&c, &table);
                    assert_eq!(folded, w, "seed {seed:#x}: {scenario}");
                    assert_eq!(
                        folded.encode(),
                        w.encode(),
                        "seed {seed:#x}: {scenario}: wire encoding differs"
                    );
                }
                (Err(c), Err(w)) => assert_eq!(c.to_string(), w.to_string()),
                (c, w) => panic!(
                    "seed {seed:#x}: {scenario}: outcome mismatch — cold {:?} vs warm {:?}",
                    c.map(|_| "ok").map_err(|e| e.to_string()),
                    w.map(|_| "ok").map_err(|e| e.to_string()),
                ),
            }
        }
    }
    assert!(scenarios_checked > 0);
    eprintln!("digest-diff: {scenarios_checked} scenario(s), zero mismatches");
}

/// The seeds count of a differential test: `DELTA_DIFF_SEEDS`, or 8.
fn diff_seeds() -> u64 {
    std::env::var("DELTA_DIFF_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(8)
}

/// Applies one random route-filter edit to `cfgs` and describes it: a
/// deny entry added to or removed from one of a few shared lists, or an
/// IGP interface / BGP session binding added or removed. Some bindings
/// name a list that never exists, and entries match host LANs, their /16
/// supernets, or nothing, so verdicts flip, stay, and shadow each other.
fn random_filter_edit(
    rng: &mut StdRng,
    cfgs: &mut NetworkConfigs,
    prefixes: &[Ipv4Prefix],
) -> String {
    let names: Vec<String> = cfgs.routers.keys().cloned().collect();
    let name = &names[rng.gen_range(0..names.len())];
    random_filter_edit_on(rng, cfgs, name, prefixes)
}

/// [`random_filter_edit`] on the router called `name`.
fn random_filter_edit_on(
    rng: &mut StdRng,
    cfgs: &mut NetworkConfigs,
    name: &str,
    prefixes: &[Ipv4Prefix],
) -> String {
    const LISTS: [&str; 4] = ["F0", "F1", "F2", "Missing"];
    let rc = cfgs.routers.get_mut(name).expect("router exists");
    // Entries mostly go to a list this router already binds, so edits
    // usually flip a verdict somewhere.
    let bound: Vec<&str> = LISTS[..3]
        .iter()
        .copied()
        .filter(|l| {
            let dls = rc.ospf.iter().flat_map(|o| &o.distribute_lists);
            let dls = dls.chain(rc.rip.iter().flat_map(|r| &r.distribute_lists));
            let mut dls = dls.chain(rc.bgp.iter().flat_map(|b| &b.distribute_lists));
            dls.any(|d| match d {
                DistributeListBinding::Interface { list, .. }
                | DistributeListBinding::Neighbor { list, .. } => list == l,
            })
        })
        .collect();
    let list = if !bound.is_empty() && rng.gen_bool(0.8) {
        bound[rng.gen_range(0..bound.len())]
    } else {
        LISTS[rng.gen_range(0..LISTS.len() - 1)]
    };
    match rng.gen_range(0..6) {
        0 | 1 => {
            let prefix = prefixes[rng.gen_range(0..prefixes.len())];
            if rc.prefix_list(list).is_none() {
                rc.prefix_lists.push(PrefixList {
                    name: list.to_string(),
                    entries: Vec::new(),
                });
            }
            let pl = rc.prefix_lists.iter_mut().find(|l| l.name == list).unwrap();
            let seq = pl.next_seq();
            pl.entries.push(PrefixListEntry {
                seq,
                action: FilterAction::Deny,
                prefix,
                added: true,
            });
            format!("{name}: deny {prefix} in {list}")
        }
        2 => {
            let entries: Vec<(usize, usize)> = rc
                .prefix_lists
                .iter()
                .enumerate()
                .flat_map(|(li, l)| (0..l.entries.len()).map(move |ei| (li, ei)))
                .collect();
            if entries.is_empty() {
                return format!("{name}: no entry to remove");
            }
            let (li, ei) = entries[rng.gen_range(0..entries.len())];
            let removed = rc.prefix_lists[li].entries.remove(ei);
            format!(
                "{name}: remove {} from {}",
                removed.prefix, rc.prefix_lists[li].name
            )
        }
        3 | 4 => {
            let list = LISTS[rng.gen_range(0..LISTS.len())].to_string();
            let neighbors: Vec<_> = rc
                .bgp
                .iter()
                .flat_map(|b| b.neighbors.iter())
                .map(|n| n.addr)
                .collect();
            if rng.gen_bool(0.5) && !neighbors.is_empty() {
                let neighbor = neighbors[rng.gen_range(0..neighbors.len())];
                let bgp = rc.bgp.as_mut().expect("has neighbors");
                bgp.distribute_lists.push(DistributeListBinding::Neighbor {
                    list: list.clone(),
                    neighbor,
                    added: true,
                });
                return format!("{name}: bind {list} on session {neighbor}");
            }
            let interface = rc.interfaces[rng.gen_range(0..rc.interfaces.len())]
                .name
                .clone();
            let binding = DistributeListBinding::Interface {
                list: list.clone(),
                interface: interface.clone(),
                added: true,
            };
            if let Some(o) = rc.ospf.as_mut() {
                o.distribute_lists.push(binding);
            } else if let Some(r) = rc.rip.as_mut() {
                r.distribute_lists.push(binding);
            } else {
                return format!("{name}: no IGP to bind on");
            }
            format!("{name}: bind {list} on {interface}")
        }
        _ => {
            let blocks = [
                rc.ospf.as_mut().map(|o| &mut o.distribute_lists),
                rc.rip.as_mut().map(|r| &mut r.distribute_lists),
                rc.bgp.as_mut().map(|b| &mut b.distribute_lists),
            ];
            let mut bound: Vec<&mut Vec<DistributeListBinding>> = blocks
                .into_iter()
                .flatten()
                .filter(|d| !d.is_empty())
                .collect();
            if bound.is_empty() {
                return format!("{name}: no binding to remove");
            }
            let dls = bound.swap_remove(rng.gen_range(0..bound.len()));
            let removed = dls.remove(rng.gen_range(0..dls.len()));
            format!("{name}: unbind {removed:?}")
        }
    }
}

/// The destination prefixes of `base`, their /16 supernets, and one
/// prefix no host uses: what random filter edits draw from.
fn edit_prefixes(base: &Simulation) -> Vec<Ipv4Prefix> {
    let mut prefixes: Vec<Ipv4Prefix> = base.net.destinations.iter().map(|(p, _)| *p).collect();
    let supernets: Vec<Ipv4Prefix> = prefixes
        .iter()
        .map(|p| Ipv4Prefix::new(p.network(), 16).unwrap())
        .collect();
    prefixes.extend(supernets);
    prefixes.push("192.0.2.0/24".parse().unwrap());
    prefixes
}

/// One step of a filter-edit chain, checked against cold runs: `cp`
/// advanced in place to `cfgs` must hold exactly the FIBs and the whole
/// per-protocol control state of a cold `control_plane`, and
/// `simulate_perturbed` against the unedited baseline must equal a cold
/// `simulate` — neither may fall back to a cold run. Returns the number
/// of prefixes the advance recomputed.
fn check_filter_step(
    tag: &str,
    cfgs: &NetworkConfigs,
    cp: &mut ControlPlane,
    engine: &DeltaEngine,
    base: &ConvergedSim,
) -> usize {
    let mut prefixes_recomputed = 0;
    match (control_plane(cfgs), cp.advance(cfgs)) {
        (Ok((_, cold, cold_state)), Ok(stats)) => {
            assert!(!stats.full_fallback, "{tag}: chain fell back");
            prefixes_recomputed = stats.ospf_prefixes_recomputed;
            assert_fibs_equal(tag, &cold, cp.fibs());
            assert!(
                cold_state == *cp.state(),
                "{tag}: advanced control state differs from cold"
            );
        }
        (Err(cold), Err(chained)) => {
            assert_eq!(
                cold.to_string(),
                chained.to_string(),
                "{tag}: error mismatch"
            )
        }
        (cold, chained) => panic!(
            "{tag}: outcome mismatch — cold {:?} vs chained {:?}",
            cold.map(|_| "ok").map_err(|e| e.to_string()),
            chained.map(|_| "ok").map_err(|e| e.to_string()),
        ),
    }
    match (simulate(cfgs), engine.simulate_perturbed(base, cfgs)) {
        (Ok(cold), Ok((delta, stats))) => {
            assert!(
                !stats.full_fallback,
                "{tag}: filter edits must take the delta path"
            );
            assert_sims_equal(tag, &cold, &delta);
        }
        (Err(cold), Err(delta)) => {
            assert_eq!(cold.to_string(), delta.to_string(), "{tag}: error mismatch")
        }
        (cold, delta) => panic!(
            "{tag}: outcome mismatch — cold {:?} vs delta {:?}",
            cold.map(|_| "ok").map_err(|e| e.to_string()),
            delta.map(|_| "ok").map_err(|e| e.to_string()),
        ),
    }
    prefixes_recomputed
}

/// Seeded sequences of route-filter edits on random OSPF, RIP and
/// BGP+OSPF networks, one edit per step, each checked by
/// [`check_filter_step`].
#[test]
fn filter_edits_match_cold_simulation_on_random_networks() {
    const STEPS: usize = 24;
    let mut steps_checked = 0u64;
    let mut prefixes_recomputed = 0usize;
    for i in 0..diff_seeds() {
        let mut rng = StdRng::seed_from_u64(0xF117_0000 ^ i);
        let flavor = (i % 3) as u8;
        let spec = random_spec(&mut rng, flavor);
        let mut cfgs = synthesize(&spec);
        if simulate(&cfgs).is_err() {
            continue;
        }
        let engine = DeltaEngine::new(4);
        let base = engine.converged(&cfgs).expect("baseline converges");
        let mut cp = ControlPlane::cold(&cfgs).expect("baseline converges");
        let prefixes = edit_prefixes(&base.sim);

        for step in 0..STEPS {
            let edit = random_filter_edit(&mut rng, &mut cfgs, &prefixes);
            let tag = format!("seed {i} flavor {flavor} step {step}: {edit}");
            steps_checked += 1;
            prefixes_recomputed += check_filter_step(&tag, &cfgs, &mut cp, &engine, &base);
        }
    }
    assert!(steps_checked > 0, "every generated network was degenerate");
    assert!(prefixes_recomputed > 0, "no edit ever flipped a verdict");
    eprintln!(
        "filter-diff: {steps_checked} edit(s), {prefixes_recomputed} prefix recomputation(s), \
         zero mismatches"
    );
}

/// Like [`filter_edits_match_cold_simulation_on_random_networks`], but
/// every step edits two to four distinct routers before one advance, so
/// the per-router OSPF refilter must re-derive several routers' rows in
/// one go.
#[test]
fn multi_router_filter_edits_match_cold_simulation_on_random_networks() {
    const STEPS: usize = 16;
    let mut multi_router_steps = 0u64;
    for i in 0..diff_seeds() {
        let mut rng = StdRng::seed_from_u64(0x3E17_0000 ^ i);
        let flavor = (i % 3) as u8;
        let spec = random_spec(&mut rng, flavor);
        let mut cfgs = synthesize(&spec);
        if simulate(&cfgs).is_err() {
            continue;
        }
        let engine = DeltaEngine::new(4);
        let base = engine.converged(&cfgs).expect("baseline converges");
        let mut cp = ControlPlane::cold(&cfgs).expect("baseline converges");
        let prefixes = edit_prefixes(&base.sim);
        let mut names: Vec<String> = cfgs.routers.keys().cloned().collect();

        for step in 0..STEPS {
            let before = cfgs.clone();
            names.shuffle(&mut rng);
            let count = rng.gen_range(2..=names.len().min(4));
            let edits: Vec<String> = names[..count]
                .iter()
                .map(|name| random_filter_edit_on(&mut rng, &mut cfgs, name, &prefixes))
                .collect();
            let tag = format!("seed {i} flavor {flavor} step {step}: {}", edits.join("; "));
            let edited = before
                .routers
                .values()
                .zip(cfgs.routers.values())
                .filter(|(b, a)| b != a)
                .count();
            multi_router_steps += u64::from(edited >= 2);
            check_filter_step(&tag, &cfgs, &mut cp, &engine, &base);
        }
    }
    assert!(
        multi_router_steps > 0,
        "no step ever changed two routers at once"
    );
    eprintln!(
        "multi-router filter-diff: {multi_router_steps} multi-router advance(s), zero mismatches"
    );
}
