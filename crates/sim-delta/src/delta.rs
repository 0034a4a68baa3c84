//! Delta recomputation for configuration perturbations.
//!
//! Given a cached converged simulation of a base network and a perturbed
//! copy of its configurations, this module produces the perturbed
//! [`Simulation`] while recomputing only what the perturbation can have
//! touched. Two perturbation classes are supported, and anything else (or
//! a mix of the two) falls back to a full cold simulation, explicitly:
//!
//! * **Administrative shutdowns** (`shutdown: false → true` on existing
//!   interfaces) — exactly what the fault engine's scenarios apply.
//!   Shutdowns only ever **remove** model elements, which is the
//!   monotonicity every warm-start argument below leans on.
//! * **Prefix-scoped filter edits** (only prefix lists and distribute-list
//!   bindings differ) — what Algorithm 2's deny rounds and rollbacks
//!   apply. They change nothing but per-destination filter verdicts at
//!   the edited routers, so only the destinations whose verdict changed
//!   are recomputed, and OSPF only at the edited routers, from the cached
//!   distances; see [`refilter`] for that class's per-protocol argument.
//!   The same [`refilter`] advances a [`ControlPlane`] in place through a
//!   chain of edits without any data plane.
//!
//! Per-protocol strategy for shutdowns (soundness arguments inline; the
//! contract is that results are **byte-identical** to a cold `simulate()`
//! of the perturbed configs):
//!
//! * **OSPF** — per-prefix SPFs are independent, so only *affected*
//!   prefixes re-run ([`ospf::compute_subset`]); the rest splice in the
//!   cached routes with interface indices remapped. A prefix is affected
//!   iff a failed interface sits directly on it (advertiser seeds and the
//!   connected-route skip change) or a removed OSPF edge lies on its
//!   shortest-path DAG (`dist[u] == cost(u→v) + dist[v]` in either
//!   direction). Removing a non-DAG edge changes neither distances (it was
//!   on no shortest path) nor candidate sets (every candidate edge
//!   satisfies the DAG equation), so unaffected prefixes converge to the
//!   cached result exactly.
//! * **RIP** — Bellman–Ford re-runs for every prefix but warm-starts from
//!   the cached fixpoint ([`rip::compute_with_state`]), which is sound for
//!   removal-only perturbations (see the proof on that function).
//! * **BGP** — warm-starting a path-vector protocol is *unsound* (BGP has
//!   multiple equilibria; a warm start can land in a different one than a
//!   cold run). Instead, the cached routes are reused wholesale when the
//!   iteration is provably isomorphic — the IGP router-path matrix is
//!   unchanged modulo interface renumbering and no removed interface was
//!   BGP-relevant (session endpoint, session carrier, or origin prefix
//!   owner) — and fully recomputed otherwise.
//! * **Data plane** — the trace DFS consults exactly one FIB entry per
//!   visited router: the longest-prefix match for the *destination host's*
//!   address. The reuse criterion is therefore per (router, destination):
//!   a pair reuses its cached path arena when its endpoints' attachments
//!   survived and, for its destination, no reachable router resolves that
//!   address differently (modulo interface renumbering). When *no* router's
//!   lookup for the destination changed, the entire DFS — blackholes,
//!   loops, and ECMP truncation included — replays identically, so the
//!   cached set is reused unconditionally. Otherwise only clean,
//!   non-truncated pairs are reusable (their recorded paths are exactly the
//!   routers the walk visits) and only when every on-path router's lookup
//!   is unchanged. Reuse shares the cached arena by `Arc` — no copying.

use crate::{record_stats, ConvergedSim, DeltaStats};
use confmask_config::{BgpConfig, NetworkConfigs, OspfConfig, RipConfig, RouterConfig};
use confmask_net_types::{HostId, Ipv4Prefix, RouterId};
use confmask_sim::dataplane::{trace_into, PathArena};
use confmask_sim::ospf::RouterPaths;
use confmask_sim::{
    bgp, merge_prefix, merge_router_fib, ospf, rip, simulate, BgpRoutes, ControlState, FibEntry,
    Fibs, NextHop, Peer, RipDist, RipRoutes, RouterNode, SimError, SimNetwork, Simulation,
};
use std::collections::{BTreeMap, BTreeSet};

/// How the perturbed configs differ from the cached base.
pub(crate) enum ConfigDiff {
    /// No difference at all.
    Identical,
    /// Only `shutdown: false → true` flips on existing interfaces (the
    /// delta path re-derives the removed-interface set from the rebuilt
    /// model, where address-less interfaces are already invisible).
    Shutdowns,
    /// Only prefix lists and distribute-list bindings differ, on the
    /// routers listed (by [`RouterId`] index, i.e. hostname order): filters
    /// were added, edited, removed, bound or unbound. The delta path
    /// re-derives the affected destinations from the re-resolved filter
    /// verdicts, so an edit nothing resolves (a binding to a missing list)
    /// affects no destination.
    FilterEdits {
        /// The routers whose filters changed.
        routers: Vec<usize>,
    },
    /// Any other change (additions, deletions, edits, un-shutdowns), or
    /// shutdowns and filter edits together.
    Unsupported,
}

/// Classifies the base → perturbed configuration diff in a single pass
/// (no up-front whole-config equality check: the walk below both finds
/// the tolerated shutdowns and filter edits and proves everything else
/// untouched).
pub(crate) fn diff_configs(base: &NetworkConfigs, new: &NetworkConfigs) -> ConfigDiff {
    if base.hosts != new.hosts || base.routers.len() != new.routers.len() {
        return ConfigDiff::Unsupported;
    }

    let mut any_shutdown = false;
    let mut filtered = Vec::new();
    let pairs = base.routers.iter().zip(new.routers.iter());
    for (r, ((bname, brc), (nname, nrc))) in pairs.enumerate() {
        if bname != nname {
            return ConfigDiff::Unsupported;
        }
        // Everything but the interface list and the route filters must be
        // untouched.
        let Some(bindings_equal) = protocols_equal_but_bindings(brc, nrc) else {
            return ConfigDiff::Unsupported;
        };
        if brc.hostname != nrc.hostname
            || brc.added != nrc.added
            || brc.static_routes != nrc.static_routes
            || brc.extra_lines != nrc.extra_lines
            || brc.interfaces.len() != nrc.interfaces.len()
        {
            return ConfigDiff::Unsupported;
        }
        if !bindings_equal || brc.prefix_lists != nrc.prefix_lists {
            filtered.push(r);
        }
        for (bi, ni) in brc.interfaces.iter().zip(nrc.interfaces.iter()) {
            if bi == ni {
                continue;
            }
            // The only tolerated interface difference is a fresh shutdown.
            let mut shutdown_normalized = bi.clone();
            shutdown_normalized.shutdown = ni.shutdown;
            if shutdown_normalized != *ni || bi.shutdown || !ni.shutdown {
                return ConfigDiff::Unsupported;
            }
            any_shutdown = true;
        }
    }
    match (any_shutdown, filtered.is_empty()) {
        (false, true) => ConfigDiff::Identical,
        (true, true) => ConfigDiff::Shutdowns,
        (false, false) => ConfigDiff::FilterEdits { routers: filtered },
        // Each class has its own soundness argument; none covers both.
        (true, false) => ConfigDiff::Unsupported,
    }
}

/// Compares two routers' protocol blocks apart from their distribute-list
/// bindings: `None` when anything else differs (a block added or removed,
/// a process id, network statement or neighbor edited), else whether the
/// bindings are equal too. The destructuring is exhaustive, so a field
/// added to a block later cannot slip past the diff unnoticed.
fn protocols_equal_but_bindings(b: &RouterConfig, n: &RouterConfig) -> Option<bool> {
    let ospf = match (&b.ospf, &n.ospf) {
        (None, None) => true,
        (Some(x), Some(y)) => {
            let OspfConfig {
                process_id,
                networks,
                distribute_lists,
            } = x;
            if *process_id != y.process_id || *networks != y.networks {
                return None;
            }
            *distribute_lists == y.distribute_lists
        }
        _ => return None,
    };
    let rip = match (&b.rip, &n.rip) {
        (None, None) => true,
        (Some(x), Some(y)) => {
            let RipConfig {
                networks,
                distribute_lists,
            } = x;
            if *networks != y.networks {
                return None;
            }
            *distribute_lists == y.distribute_lists
        }
        _ => return None,
    };
    let bgp = match (&b.bgp, &n.bgp) {
        (None, None) => true,
        (Some(x), Some(y)) => {
            let BgpConfig {
                asn,
                networks,
                neighbors,
                distribute_lists,
            } = x;
            if *asn != y.asn || *networks != y.networks || *neighbors != y.neighbors {
                return None;
            }
            *distribute_lists == y.distribute_lists
        }
        _ => return None,
    };
    Some(ospf && rip && bgp)
}

/// Simulates the perturbed network, incrementally where possible.
/// Byte-identical to `simulate(perturbed)` by construction.
pub(crate) fn simulate_delta(
    base: &ConvergedSim,
    perturbed: &NetworkConfigs,
) -> Result<(Simulation, DeltaStats), SimError> {
    match diff_configs(&base.configs, perturbed) {
        ConfigDiff::Identical => Ok((Simulation::clone(&base.sim), DeltaStats::identical())),
        ConfigDiff::Unsupported => full_fallback(perturbed),
        ConfigDiff::Shutdowns => {
            let plan = plan_shutdowns(base, perturbed)?;
            materialize_or_fallback(base, perturbed, plan)
        }
        ConfigDiff::FilterEdits { routers } => {
            let plan = plan_filter_edits(base, perturbed, &routers)?;
            materialize_or_fallback(base, perturbed, plan)
        }
    }
}

/// Materializes a plan, or runs cold when a defensive invariant check
/// failed while planning (never guess).
fn materialize_or_fallback(
    base: &ConvergedSim,
    perturbed: &NetworkConfigs,
    plan: Option<DeltaPlan>,
) -> Result<(Simulation, DeltaStats), SimError> {
    match plan {
        Some(plan) => Ok(materialize(base, plan)),
        None => full_fallback(perturbed),
    }
}

fn full_fallback(perturbed: &NetworkConfigs) -> Result<(Simulation, DeltaStats), SimError> {
    let sim = simulate(perturbed)?;
    Ok((sim, DeltaStats::full()))
}

/// Everything a delta derives *before* touching the data plane: the
/// perturbed model and FIBs plus the per-endpoint reuse predicates.
/// [`plan_shutdowns`] and [`plan_filter_edits`] build one per class;
/// [`materialize`] turns a plan into a full [`Simulation`], and the
/// streaming digest path (`crate::sweep`) instead classifies each
/// baseline pair directly off a shutdown plan — both answer pair
/// reusability with the same [`DeltaPlan::pair_reusable`], so they
/// cannot drift.
pub(crate) struct DeltaPlan {
    /// The perturbed network model.
    pub new_net: SimNetwork,
    /// The perturbed per-router FIBs.
    pub fibs: Fibs,
    /// Host ids in data-plane (hostname) order.
    pub hosts: Vec<HostId>,
    /// `lookup_changed[d][r]`: router `r` resolves destination host `d`'s
    /// address differently than the cached base.
    pub lookup_changed: Vec<Vec<bool>>,
    /// Destination hosts no router resolves differently.
    pub dst_untouched: Vec<bool>,
    /// Hosts whose attachment survived the perturbation.
    pub att_unchanged: Vec<bool>,
    /// Hosts that were unattached in the base network.
    pub unattached: Vec<bool>,
    ospf_prefixes_total: usize,
    ospf_prefixes_recomputed: usize,
    rip_warm_started: bool,
    bgp_reused: bool,
    bgp_recomputed: bool,
    filter_edits: bool,
}

impl DeltaPlan {
    /// Whether ordered pair `(si, di)` (host indices into
    /// [`DeltaPlan::hosts`], `idx` its position in the base data
    /// plane's key order) can reuse its cached path set. See the
    /// soundness argument on [`materialize`].
    pub fn pair_reusable(&self, base: &ConvergedSim, si: usize, di: usize, idx: usize) -> bool {
        if !self.att_unchanged[si] || !self.att_unchanged[di] {
            false
        } else if self.unattached[si] || self.dst_untouched[di] {
            true
        } else {
            match &base.pair_meta[idx] {
                Some(on_path) => {
                    let changed = &self.lookup_changed[di];
                    on_path.iter().all(|&r| !changed[r as usize])
                }
                None => false,
            }
        }
    }

    /// The delta statistics for this plan given the data-plane tallies.
    pub fn stats(&self, pairs_total: usize, pairs_recomputed: usize) -> DeltaStats {
        DeltaStats {
            full_fallback: false,
            identical: false,
            ospf_prefixes_total: self.ospf_prefixes_total,
            ospf_prefixes_recomputed: self.ospf_prefixes_recomputed,
            rip_warm_started: self.rip_warm_started,
            bgp_reused: self.bgp_reused,
            bgp_recomputed: self.bgp_recomputed,
            filter_edits: self.filter_edits,
            pairs_total,
            pairs_recomputed,
        }
    }
}

/// Builds the [`DeltaPlan`] for a shutdown-only perturbation: model,
/// FIBs (both incremental where provable), and the per-endpoint reuse
/// predicates. Returns `Ok(None)` when a defensive invariant check fails
/// and the caller should fall back to a cold run.
pub(crate) fn plan_shutdowns(
    base: &ConvergedSim,
    perturbed: &NetworkConfigs,
) -> Result<Option<DeltaPlan>, SimError> {
    let new_net = SimNetwork::build(perturbed)?;
    let base_net = &base.sim.net;
    let n = base_net.router_count();

    // Shutdown-only diffs keep the device sets (and hence RouterId/HostId
    // assignment, which follows hostname order) identical.
    if new_net.router_count() != n
        || new_net.hosts.len() != base_net.hosts.len()
        || new_net
            .routers
            .iter()
            .zip(base_net.routers.iter())
            .any(|(a, b)| a.name != b.name)
        || new_net
            .hosts
            .iter()
            .zip(base_net.hosts.iter())
            .any(|(a, b)| a.name != b.name)
    {
        return Ok(None);
    }

    // Per-router interface renumbering: `SimNetwork::build` skips shut
    // interfaces, so surviving interfaces shift down. Map base index →
    // new index by interface name; `None` marks a removed interface.
    let mut remap: Vec<Vec<Option<usize>>> = Vec::with_capacity(n);
    let mut failed: Vec<(usize, usize)> = Vec::new(); // (router, base iface idx)
    for r in 0..n {
        let new_by_name: BTreeMap<&str, usize> = new_net.routers[r]
            .ifaces
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.as_str(), i))
            .collect();
        let map: Vec<Option<usize>> = base_net.routers[r]
            .ifaces
            .iter()
            .map(|f| new_by_name.get(f.name.as_str()).copied())
            .collect();
        // Removal-only: every new interface must come from a base one.
        if map.iter().filter(|m| m.is_some()).count() != new_net.routers[r].ifaces.len() {
            return Ok(None);
        }
        for (bi, m) in map.iter().enumerate() {
            if m.is_none() {
                failed.push((r, bi));
            }
        }
        remap.push(map);
    }

    // ---- OSPF: recompute only affected prefixes. ----
    let mut affected: BTreeSet<Ipv4Prefix> = BTreeSet::new();
    for &(r, bi) in &failed {
        let iface = &base_net.routers[r].ifaces[bi];
        // Failed interface directly on a destination LAN: advertiser seeds
        // and the connected-route skip change for that prefix.
        if base_net
            .destinations
            .iter()
            .any(|(p, _)| *p == iface.prefix)
        {
            affected.insert(iface.prefix);
        }
        if !iface.ospf_active {
            continue;
        }
        // Removed OSPF edges (both directions vanish with either endpoint):
        // r --cost--> v and v --peer_cost--> r for every router peer.
        for peer in &iface.peers {
            let Peer::Router {
                router: v,
                iface: pi,
            } = peer
            else {
                continue;
            };
            let peer_iface = &base_net.router(*v).ifaces[*pi];
            if !peer_iface.ospf_active {
                continue;
            }
            let (u, v) = (r, v.0 as usize);
            for (prefix, dist) in &base.state.ospf_dist {
                if affected.contains(prefix) {
                    continue;
                }
                let (du, dv) = (dist[u], dist[v]);
                let fwd = dv != u64::MAX && du == u64::from(iface.cost).saturating_add(dv);
                let rev = du != u64::MAX && dv == u64::from(peer_iface.cost).saturating_add(du);
                if fwd || rev {
                    affected.insert(*prefix);
                }
            }
        }
    }

    let affected_dests: Vec<(Ipv4Prefix, Vec<HostId>)> = new_net
        .destinations
        .iter()
        .filter(|(p, _)| affected.contains(p))
        .cloned()
        .collect();
    let ospf_prefixes_total = new_net.destinations.len();
    let ospf_prefixes_recomputed = affected_dests.len();
    let (mut ospf_routes, mut ospf_dist) = ospf::compute_subset(&new_net, &affected_dests);

    // Splice the unaffected prefixes back in, renumbering interfaces. The
    // remap is monotone (removal preserves relative order), so sorted hop
    // lists stay sorted.
    for (prefix, _) in &new_net.destinations {
        if affected.contains(prefix) {
            continue;
        }
        if let Some(d) = base.state.ospf_dist.get(prefix) {
            ospf_dist.insert(*prefix, d.clone());
        }
        for r in 0..n {
            let Some(hops) = base.state.ospf_routes[r].get(prefix) else {
                continue;
            };
            let mut mapped = Vec::with_capacity(hops.len());
            for &(ii, v) in hops {
                match remap[r][ii] {
                    Some(ni) => mapped.push((ni, v)),
                    // A candidate hop through a removed interface satisfies
                    // the DAG equation, so the prefix would have been
                    // affected — reaching this means the invariant broke.
                    None => return Ok(None),
                }
            }
            ospf_routes[r].insert(*prefix, mapped);
        }
    }

    // ---- RIP: warm-start the fixpoint (sound under removal-only). ----
    let (rip_routes, _rip_dist) = rip::compute_with_state(&new_net, Some(&base.state.rip_dist));
    let rip_warm_started = !base.state.rip_dist.is_empty();

    // ---- BGP: reuse when provably isomorphic, else recompute. ----
    let any_bgp = new_net.routers.iter().any(|r| r.asn.is_some());
    let (bgp_routes, bgp_reused) = if !any_bgp {
        (vec![BTreeMap::new(); n], false)
    } else {
        let rp_new = ospf::router_paths(&new_net);
        let isomorphic = base
            .state
            .router_paths
            .as_ref()
            .is_some_and(|rp| router_paths_equal_after_remap(rp, &rp_new, &remap))
            && !failed
                .iter()
                .any(|&(r, bi)| iface_bgp_relevant(base_net, r, bi));
        let reused = if isomorphic {
            remap_bgp_routes(&base.state.bgp_routes, &remap)
        } else {
            None
        };
        match reused {
            Some(routes) => (routes, true),
            None => (bgp::compute(&new_net, &rp_new)?, false),
        }
    };

    // ---- FIB merge, incremental where provable. A router's FIB can be
    // cloned from the base when every merge input is unchanged *and* its
    // interface numbering is the identity: no removed interface (so
    // connected routes and hop indices keep their bytes), no static routes
    // (their resolution peeks at neighbors' interface tables), RIP silent
    // on both sides, BGP absent or reused (identity-remapped = identical),
    // and the recomputed OSPF rows for affected prefixes equal to the
    // cached ones. Everything else goes through the same merge as a cold
    // run. ----
    let rip_silent = base.state.rip_dist.is_empty() && rip_routes.iter().all(|t| t.is_empty());
    let bgp_stable = !any_bgp || bgp_reused;
    let mut fib_cloned = vec![false; n];
    let fibs = Fibs {
        per_router: (0..n)
            .map(|r| {
                let rid = RouterId(r as u32);
                let identity = remap[r].iter().all(|m| m.is_some());
                let reusable = identity
                    && rip_silent
                    && bgp_stable
                    && new_net.routers[r].static_routes.is_empty()
                    && affected_dests
                        .iter()
                        .all(|(p, _)| ospf_routes[r].get(p) == base.state.ospf_routes[r].get(p));
                if reusable {
                    fib_cloned[r] = true;
                    base.sim.fibs.per_router[r].clone()
                } else {
                    merge_router_fib(&new_net, rid, &ospf_routes, &rip_routes, &bgp_routes)
                }
            })
            .collect(),
    };

    // ---- Data plane: re-trace only pairs the failure can have touched. ----
    // Lockstep FIB diff per router (entries are prefix-sorted): the set of
    // prefixes whose entry changed modulo renumbering. `None` marks a
    // router whose FIB *key set* changed (entries appeared or vanished,
    // e.g. a lost connected route) — longest-prefix matches there cannot
    // be compared by key and fall back to actual lookups below.
    let changed_prefixes: Vec<Option<BTreeSet<Ipv4Prefix>>> = (0..n)
        .map(|r| {
            if fib_cloned[r] {
                return Some(BTreeSet::new());
            }
            let rid = RouterId(r as u32);
            let (bf, nf) = (base.sim.fibs.of(rid), fibs.of(rid));
            if bf.len() != nf.len() {
                return None;
            }
            let mut set = BTreeSet::new();
            for (be, ne) in bf.entries().zip(nf.entries()) {
                if be.prefix != ne.prefix {
                    return None;
                }
                if !entry_remap_equal(be, ne, &remap[r]) {
                    set.insert(be.prefix);
                }
            }
            Some(set)
        })
        .collect();

    let hosts: Vec<HostId> = new_net.hosts_iter().map(|(id, _)| id).collect();
    // lookup_changed[d][r]: router r resolves destination host d's address
    // differently than the cached base (the only FIB question `trace`
    // asks). With an unchanged key set the match lands on the same prefix
    // as at convergence (`host_match`), so the diff set answers directly.
    let lookup_changed: Vec<Vec<bool>> = hosts
        .iter()
        .enumerate()
        .map(|(di, &h)| {
            let addr = new_net.host(h).addr;
            (0..n)
                .map(|r| match &changed_prefixes[r] {
                    Some(set) if set.is_empty() => false,
                    Some(set) => match base.host_match[di][r] {
                        Some(k) => set.contains(&k),
                        None => false,
                    },
                    None => {
                        let rid = RouterId(r as u32);
                        !lookup_remap_equal(
                            base.sim.fibs.of(rid).lookup(addr),
                            fibs.of(rid).lookup(addr),
                            &remap[r],
                        )
                    }
                })
                .collect()
        })
        .collect();
    let dst_untouched: Vec<bool> = lookup_changed
        .iter()
        .map(|row| row.iter().all(|&c| !c))
        .collect();

    if !dataplane_covers_pairs(base, &new_net) {
        return Ok(None);
    }
    // Per host: whether its attachment survived the perturbation, and
    // whether it was unattached to begin with (hoisted out of the pair
    // loop — both depend only on the endpoint, not the pair).
    let att_unchanged: Vec<bool> = hosts
        .iter()
        .map(|&h| attachment_unchanged(base_net, &new_net, &remap, h))
        .collect();
    let unattached: Vec<bool> = hosts
        .iter()
        .map(|&h| base_net.host(h).attachment.is_none())
        .collect();

    Ok(Some(DeltaPlan {
        new_net,
        fibs,
        hosts,
        lookup_changed,
        dst_untouched,
        att_unchanged,
        unattached,
        ospf_prefixes_total,
        ospf_prefixes_recomputed,
        rip_warm_started,
        bgp_reused,
        bgp_recomputed: any_bgp && !bgp_reused,
        filter_edits: false,
    }))
}

/// Whether the cached data plane holds exactly the ordered pairs of
/// `net`'s hosts in host-id order, with pair metadata for each — so pair
/// position `i` is the `i`-th `(si, di)` of the plan's host enumeration.
/// Anything else means the base simulation predates an invariant change.
pub(crate) fn dataplane_covers_pairs(base: &ConvergedSim, net: &SimNetwork) -> bool {
    let dp = &base.sim.dataplane;
    dp.is_complete()
        && base.pair_meta.len() == dp.len()
        && dp.names().hosts().len() == net.hosts.len()
        && net
            .hosts_iter()
            .zip(dp.names().hosts())
            .all(|((_, h), name)| h.name == *name)
}

/// Builds the [`DeltaPlan`] for a filter-edit perturbation of `routers`:
/// the model is rebuilt, the cached control plane is advanced by
/// [`refilter`], and a destination's lookups count as changed only at
/// routers whose FIB entries changed. Returns `Ok(None)` when a defensive
/// invariant check fails and the caller should fall back to a cold run.
pub(crate) fn plan_filter_edits(
    base: &ConvergedSim,
    perturbed: &NetworkConfigs,
    routers: &[usize],
) -> Result<Option<DeltaPlan>, SimError> {
    // A filter edit keeps every device, interface and session, so both
    // models number them alike and differ only in resolved filters.
    let new_net = SimNetwork::build(perturbed)?;
    let old = &base.sim.net;
    let edited = routers
        .iter()
        .map(|&r| (&old.routers[r], &new_net.routers[r]));
    let affected = flipped_destinations(edited, &new_net.destinations);
    let mut fibs = base.sim.fibs.clone();
    let mut state = base.state.clone();
    let changed = refilter(&new_net, routers, &affected, &mut fibs, &mut state)?;
    let hosts: Vec<HostId> = new_net.hosts_iter().map(|(id, _)| id).collect();
    if !dataplane_covers_pairs(base, &new_net) {
        return Ok(None);
    }
    // lookup_changed[d][r]: only entries whose prefix contains host d's
    // address can decide its longest-prefix match, and only the entries
    // `refilter` reports changed differ from the base FIB — so a router
    // with no changed entry covering the address resolves it exactly as
    // before, and the rest compare actual lookups (an entry that vanished
    // or appeared moves the match to another prefix length).
    let lookup_changed: Vec<Vec<bool>> = hosts
        .iter()
        .map(|&h| {
            let addr = new_net.host(h).addr;
            changed
                .iter()
                .enumerate()
                .map(|(r, prefixes)| {
                    let rid = RouterId(r as u32);
                    prefixes.iter().any(|p| p.contains_addr(addr))
                        && base.sim.fibs.of(rid).lookup(addr) != fibs.of(rid).lookup(addr)
                })
                .collect()
        })
        .collect();
    let dst_untouched = lookup_changed
        .iter()
        .map(|row| row.iter().all(|&c| !c))
        .collect();
    // Filter edits keep every interface, so attachments (router and
    // interface index) carry over; checked rather than assumed.
    let att_unchanged = hosts
        .iter()
        .map(|&h| base.sim.net.host(h).attachment == new_net.host(h).attachment)
        .collect();
    let unattached = hosts
        .iter()
        .map(|&h| base.sim.net.host(h).attachment.is_none())
        .collect();
    Ok(Some(DeltaPlan {
        ospf_prefixes_total: new_net.destinations.len(),
        ospf_prefixes_recomputed: affected.len(),
        new_net,
        fibs,
        hosts,
        lookup_changed,
        dst_untouched,
        att_unchanged,
        unattached,
        rip_warm_started: false,
        bgp_reused: false,
        bgp_recomputed: base.state.router_paths.is_some(),
        filter_edits: true,
    }))
}

/// The destinations whose filter verdict differs between the old and new
/// version of some router (pairs of one router's node before and after a
/// filter edit). A verdict is whether an inbound filter on one of its
/// interfaces (`igp_denies`) or sessions (`denies`) denies the
/// destination; interfaces and sessions whose resolved filters are equal
/// are skipped without evaluating anything.
fn flipped_destinations<'a>(
    routers: impl Iterator<Item = (&'a RouterNode, &'a RouterNode)>,
    dests: &[(Ipv4Prefix, Vec<HostId>)],
) -> BTreeSet<Ipv4Prefix> {
    let mut affected = BTreeSet::new();
    let prefixes = || dests.iter().map(|(p, _)| *p);
    for (or, nr) in routers {
        for (oi, ni) in or.ifaces.iter().zip(&nr.ifaces) {
            if oi.igp_filters != ni.igp_filters {
                affected.extend(prefixes().filter(|p| oi.igp_denies(p) != ni.igp_denies(p)));
            }
        }
        for (os, ns) in or.sessions.iter().zip(&nr.sessions) {
            if os.in_filters != ns.in_filters {
                affected.extend(prefixes().filter(|p| os.denies(p) != ns.denies(p)));
            }
        }
    }
    affected
}

/// Advances a converged control plane — `fibs` and `state` — to model
/// `net` after a filter edit of the `edited` routers whose verdict-flipped
/// destinations are `affected` ([`flipped_destinations`]). `net` must
/// differ from the model the control plane was computed for only in the
/// edited routers' resolved route filters (a [`ConfigDiff::FilterEdits`]
/// diff). Returns, per router, the destination prefixes whose FIB entry
/// changed. On error nothing is modified: the one fallible step runs
/// before any write.
///
/// **Soundness of the filter-edit class.** The diff touched only prefix
/// lists and distribute-list bindings, so the new model differs only in
/// `IfaceNode::igp_filters` and `BgpSession::in_filters`. Every consumer
/// of those fields asks a single question — does a filter deny
/// destination `p` (`igp_denies` / `denies`) — and always about the
/// destination it is computing. A destination is therefore *affected*
/// iff that verdict changed on some interface or session; every other
/// destination sees exactly its old inputs. Per protocol:
///
/// * **OSPF** — filters never change OSPF distances (LSAs flood
///   regardless; a filter only drops candidate next hops of its own
///   prefix at RIB installation), so the cached `ospf_dist` is what a
///   cold SPF would converge to and stays as it is. Router `u`'s hop set
///   for `p` ([`ospf::candidate_hops`]) reads only `dist[p]` and `u`'s
///   own interfaces' verdicts, so it can change only at an edited router,
///   and only for an affected prefix. Those rows are re-derived from the
///   cached distances through the same function the cold SPF runs; every
///   other router keeps its rows, which a cold run would reproduce. No
///   SPF re-runs.
/// * **RIP** — a filter does change distance-vector distances, but only
///   for its own prefix: each prefix's Bellman–Ford reads only that
///   prefix's verdicts. Affected prefixes re-run cold through
///   [`rip::compute_subset`]; no warm start, because a removed filter
///   *adds* an adjacency and breaks the removal-only precondition that
///   makes warm starts sound. A network whose cached state has no RIP
///   destination skips this: filters create no RIP advertiser.
/// * **BGP** — recomputed cold whenever any router speaks BGP, from the
///   cached router-to-router IGP matrix (filters do not enter it: it
///   reads adjacencies, costs and ASNs only). A path-vector computation
///   can land in different equilibria depending on where its iteration
///   starts, so no cached BGP state is ever used as a starting point.
/// * **FIB** — an entry is a function of the router's connected and
///   static routes (unchanged) and its OSPF, RIP and BGP rows for that
///   destination, so exactly the (destination, router) rows that changed
///   above are re-merged, through the same [`merge_prefix`] a cold merge
///   runs for every destination.
pub(crate) fn refilter(
    net: &SimNetwork,
    edited: &[usize],
    affected: &BTreeSet<Ipv4Prefix>,
    fibs: &mut Fibs,
    state: &mut ControlState,
) -> Result<Vec<Vec<Ipv4Prefix>>, SimError> {
    // BGP first: it is the only step that can fail. A cold control plane
    // keeps the router-path matrix exactly when some router speaks BGP,
    // and filter edits change no ASN.
    let bgp_routes = match &state.router_paths {
        Some(rp) => Some(bgp::compute(net, rp)?),
        None => None,
    };

    // (destination, router) rows whose protocol routes changed.
    let mut rows: BTreeSet<(Ipv4Prefix, usize)> = BTreeSet::new();
    for &r in edited {
        let rid = RouterId(r as u32);
        let adj = ospf::router_adjacency(net, rid);
        let table = &mut state.ospf_routes[r];
        for p in affected {
            // No distance vector: no advertiser, and a filter makes none.
            let Some(dist) = state.ospf_dist.get(p) else {
                continue;
            };
            let hops = ospf::candidate_hops(net, rid, &adj, p, dist);
            let before = if hops.is_empty() {
                table.remove(p)
            } else {
                table.insert(*p, hops)
            };
            if table.get(p) != before.as_ref() {
                rows.insert((*p, r));
            }
        }
    }
    if !affected.is_empty() && !state.rip_dist.is_empty() {
        let subset: Vec<(Ipv4Prefix, Vec<HostId>)> = net
            .destinations
            .iter()
            .filter(|(p, _)| affected.contains(p))
            .cloned()
            .collect();
        let (routes, dist) = rip::compute_subset(net, &subset);
        splice_rip(state, affected, routes, dist, &mut rows);
    }
    if let Some(routes) = bgp_routes {
        let is_dest = |p: &Ipv4Prefix| net.destinations.iter().any(|(d, _)| d == p);
        for (r, (before, after)) in state.bgp_routes.iter().zip(&routes).enumerate() {
            let differ = before
                .iter()
                .filter(|(p, route)| after.get(p) != Some(route));
            let appeared = after.keys().filter(|p| !before.contains_key(p));
            let prefixes = differ.map(|(p, _)| p).chain(appeared);
            // Only destinations have FIB entries of their own.
            rows.extend(prefixes.filter(|p| is_dest(p)).map(|p| (*p, r)));
        }
        state.bgp_routes = routes;
    }

    let mut changed = vec![Vec::new(); net.router_count()];
    for (p, r) in rows {
        let fib = &mut fibs.per_router[r];
        let before = fib.entry(&p).cloned();
        let rid = RouterId(r as u32);
        let (ospf, rip, bgp) = (&state.ospf_routes, &state.rip_routes, &state.bgp_routes);
        merge_prefix(net, rid, &p, fib, ospf, rip, bgp);
        if fib.entry(&p) != before.as_ref() {
            changed[r].push(p);
        }
    }
    Ok(changed)
}

/// Replaces the RIP routes and distances of `prefixes` in the cached
/// state with a subset recomputation's output, adding every
/// (prefix, router) row whose routes changed to `rows`.
fn splice_rip(
    state: &mut ControlState,
    prefixes: &BTreeSet<Ipv4Prefix>,
    new_routes: RipRoutes,
    mut new_dist: RipDist,
    rows: &mut BTreeSet<(Ipv4Prefix, usize)>,
) {
    for p in prefixes {
        match new_dist.remove(p) {
            Some(d) => state.rip_dist.insert(*p, d),
            None => state.rip_dist.remove(p),
        };
    }
    for (r, (table, mut fresh)) in state.rip_routes.iter_mut().zip(new_routes).enumerate() {
        for p in prefixes {
            let before = table.remove(p);
            if let Some(hops) = fresh.remove(p) {
                table.insert(*p, hops);
            }
            if table.get(p) != before.as_ref() {
                rows.insert((*p, r));
            }
        }
    }
}

/// A converged control plane — model, FIBs and per-protocol state, no
/// data plane — that advances in place through a chain of configuration
/// edits. Filter edits go through [`refilter`]; any other diff recomputes
/// cold. After every [`ControlPlane::advance`] the FIBs are byte-identical
/// to a cold [`confmask_sim::simulate_control_plane`] of the configs
/// advanced to.
///
/// Algorithm 2 (route anonymization) keeps one for its whole stage: each
/// round adds or rolls back deny entries for a few fake-host prefixes at
/// one router, so an advance re-derives that router's OSPF next hops for
/// those prefixes from cached distances instead of re-running a whole
/// control plane.
#[derive(Debug)]
pub struct ControlPlane {
    configs: NetworkConfigs,
    net: SimNetwork,
    fibs: Fibs,
    state: ControlState,
}

impl ControlPlane {
    /// Computes the control plane of `configs` cold.
    pub fn cold(configs: &NetworkConfigs) -> Result<Self, SimError> {
        let (net, fibs, state) = confmask_sim::control_plane(configs)?;
        Ok(ControlPlane {
            configs: configs.clone(),
            net,
            fibs,
            state,
        })
    }

    /// The network model of the configs last advanced to.
    pub fn net(&self) -> &SimNetwork {
        &self.net
    }

    /// The per-router FIBs of the configs last advanced to.
    pub fn fibs(&self) -> &Fibs {
        &self.fibs
    }

    /// The converged per-protocol state of the configs last advanced to;
    /// equal to the state a cold [`confmask_sim::control_plane`] returns.
    pub fn state(&self) -> &ControlState {
        &self.state
    }

    /// Advances to `configs`, incrementally when they differ from the
    /// current configs by filter edits only. On error the control plane
    /// is left as it was. The returned stats say what was recomputed (no
    /// data plane is involved, so the pair tallies are zero).
    pub fn advance(&mut self, configs: &NetworkConfigs) -> Result<DeltaStats, SimError> {
        let _sp = confmask_obs::span("sim.delta.refilter");
        let stats = match diff_configs(&self.configs, configs) {
            ConfigDiff::Identical => DeltaStats::identical(),
            ConfigDiff::FilterEdits { routers } => self.refilter(configs, &routers)?,
            ConfigDiff::Shutdowns | ConfigDiff::Unsupported => {
                *self = ControlPlane::cold(configs)?;
                DeltaStats::full()
            }
        };
        record_stats(&stats);
        Ok(stats)
    }

    /// The filter-edit advance: re-resolves the edited routers' filters in
    /// place (nothing else in the model can have changed), diffs their
    /// verdicts against the old nodes, and [`refilter`]s.
    fn refilter(
        &mut self,
        configs: &NetworkConfigs,
        routers: &[usize],
    ) -> Result<DeltaStats, SimError> {
        let mut old = Vec::with_capacity(routers.len());
        for &r in routers {
            let rc = &configs.routers[&self.net.routers[r].name];
            old.push(self.net.routers[r].clone());
            self.net.refilter_router(RouterId(r as u32), rc);
        }
        let affected = flipped_destinations(
            old.iter()
                .zip(routers)
                .map(|(node, &r)| (node, &self.net.routers[r])),
            &self.net.destinations,
        );
        let refiltered = refilter(
            &self.net,
            routers,
            &affected,
            &mut self.fibs,
            &mut self.state,
        );
        if let Err(e) = refiltered {
            // Leave the control plane as it was.
            for (node, &r) in old.into_iter().zip(routers) {
                self.net.routers[r] = node;
            }
            return Err(e);
        }
        for &r in routers {
            let name = &self.net.routers[r].name;
            if let Some(kept) = self.configs.routers.get_mut(name) {
                kept.clone_from(&configs.routers[name]);
            }
        }
        Ok(DeltaStats {
            ospf_prefixes_total: self.net.destinations.len(),
            ospf_prefixes_recomputed: affected.len(),
            bgp_recomputed: self.state.router_paths.is_some(),
            filter_edits: true,
            ..DeltaStats::default()
        })
    }
}

/// Materializes a [`DeltaPlan`] into the full perturbed [`Simulation`].
///
/// Starts from the cached data plane (an O(pairs) clone of shared path
/// arenas) and overwrites only the pairs that must be re-traced. Host ids
/// and data-plane pairs share the same (hostname-sorted) order — planning
/// checked it ([`dataplane_covers_pairs`]) — so the pair position is the
/// running index of the ordered-pair enumeration, and router ids are the
/// base's (shutdowns and filter edits keep every router).
///
/// Pair reuse soundness ([`DeltaPlan::pair_reusable`], in check order):
/// * endpoint attachments must have survived (the trace consults them
///   before any FIB);
/// * an unattached source is an immediate blackhole regardless of any
///   FIB, so its cached trace replays exactly;
/// * a fully untouched destination (no router resolves it differently)
///   replays the DFS move for move — blackholes, loops, and ECMP
///   truncation included;
/// * otherwise only clean, non-truncated walks are determined by the
///   lookups of exactly the routers on their recorded paths
///   (`pair_meta`, precomputed at convergence), and reuse requires all
///   of those lookups unchanged.
pub(crate) fn materialize(base: &ConvergedSim, plan: DeltaPlan) -> (Simulation, DeltaStats) {
    let mut dp = base.sim.dataplane.clone();
    let mut arena = PathArena::default();
    let mut idx = 0usize;
    let mut pairs_recomputed = 0usize;
    for (si, &src) in plan.hosts.iter().enumerate() {
        for (di, &dst) in plan.hosts.iter().enumerate() {
            if si == di {
                continue;
            }
            if !plan.pair_reusable(base, si, di, idx) {
                pairs_recomputed += 1;
                trace_into(&plan.new_net, &plan.fibs, src, dst, &mut arena);
                dp.set_paths(idx, arena.compacted());
            }
            idx += 1;
        }
    }

    let stats = plan.stats(idx, pairs_recomputed);
    let sim = Simulation {
        net: plan.new_net,
        fibs: plan.fibs,
        dataplane: dp,
    };
    (sim, stats)
}

/// Whether the cached IGP router-path matrix equals the fresh one after
/// interface renumbering (router ids are stable, so only hop interface
/// indices need mapping).
fn router_paths_equal_after_remap(
    base: &RouterPaths,
    new: &RouterPaths,
    remap: &[Vec<Option<usize>>],
) -> bool {
    if base.dist != new.dist {
        return false;
    }
    base.next_hops
        .iter()
        .zip(new.next_hops.iter())
        .enumerate()
        .all(|(a, (brow, nrow))| {
            brow.iter().zip(nrow.iter()).all(|(bhops, nhops)| {
                bhops.len() == nhops.len()
                    && bhops
                        .iter()
                        .zip(nhops.iter())
                        .all(|(&(ii, v), &(nii, nv))| remap[a][ii] == Some(nii) && v == nv)
            })
        })
}

/// Whether removing this interface can change the BGP computation at all:
/// it terminates a session (its address is some router's configured peer
/// address), carries a session (its prefix covers a peer address on its
/// own router, i.e. it is — or shadows — a session's `local_iface`), or
/// backs a locally originated prefix.
fn iface_bgp_relevant(net: &SimNetwork, r: usize, bi: usize) -> bool {
    let iface = &net.routers[r].ifaces[bi];
    if net
        .routers
        .iter()
        .any(|router| router.sessions.iter().any(|s| s.peer_addr == iface.addr))
    {
        return true;
    }
    if net.routers[r]
        .sessions
        .iter()
        .any(|s| iface.prefix.contains_addr(s.peer_addr))
    {
        return true;
    }
    net.routers[r].bgp_networks.contains(&iface.prefix)
}

/// Renumbers interface indices inside cached BGP routes; `None` when any
/// route references a removed interface (then reuse is off the table).
fn remap_bgp_routes(base: &BgpRoutes, remap: &[Vec<Option<usize>>]) -> Option<BgpRoutes> {
    let mut out = Vec::with_capacity(base.len());
    for (r, table) in base.iter().enumerate() {
        let mut mapped = BTreeMap::new();
        for (prefix, route) in table {
            let mut next_hops = Vec::with_capacity(route.next_hops.len());
            for &(ii, v) in &route.next_hops {
                next_hops.push((remap[r][ii]?, v));
            }
            let mut route = route.clone();
            route.next_hops = next_hops;
            mapped.insert(*prefix, route);
        }
        out.push(mapped);
    }
    Some(out)
}

/// Whether two FIB entries are equal after interface renumbering.
fn entry_remap_equal(be: &FibEntry, ne: &FibEntry, remap: &[Option<usize>]) -> bool {
    be.prefix == ne.prefix
        && be.source == ne.source
        && be.next_hops.len() == ne.next_hops.len()
        && be
            .next_hops
            .iter()
            .zip(ne.next_hops.iter())
            .all(|(bh, nh)| match (bh, nh) {
                (NextHop::Deliver { iface: bi }, NextHop::Deliver { iface: ni }) => {
                    remap[*bi] == Some(*ni)
                }
                (
                    NextHop::Forward {
                        via_iface: bi,
                        router: br,
                        session_peer: bp,
                    },
                    NextHop::Forward {
                        via_iface: ni,
                        router: nr,
                        session_peer: np,
                    },
                ) => remap[*bi] == Some(*ni) && br == nr && bp == np,
                _ => false,
            })
}

/// Whether two longest-prefix-match results agree after renumbering: both
/// miss, or both hit the same entry modulo interface indices.
fn lookup_remap_equal(
    base: Option<&FibEntry>,
    new: Option<&FibEntry>,
    remap: &[Option<usize>],
) -> bool {
    match (base, new) {
        (None, None) => true,
        (Some(be), Some(ne)) => entry_remap_equal(be, ne, remap),
        _ => false,
    }
}

/// Whether a host's attachment survived the shutdowns unchanged (modulo
/// interface renumbering).
fn attachment_unchanged(
    base_net: &SimNetwork,
    new_net: &SimNetwork,
    remap: &[Vec<Option<usize>>],
    h: HostId,
) -> bool {
    match (base_net.host(h).attachment, new_net.host(h).attachment) {
        (None, None) => true,
        (Some((br, bi)), Some((nr, ni))) => br == nr && remap[br.0 as usize][bi] == Some(ni),
        _ => false,
    }
}
