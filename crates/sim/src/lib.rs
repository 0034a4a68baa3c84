//! Native control-plane simulator — the Batfish substitute.
//!
//! The original ConfMask prototype delegates all network simulation to an
//! external Batfish service. This crate replaces it with a self-contained
//! simulator implementing exactly the capabilities ConfMask uses:
//!
//! 1. **Model extraction** ([`SimNetwork`]): configurations → routers,
//!    interfaces, links, protocol sessions, and resolved route filters.
//! 2. **Control-plane computation**:
//!    * [`ospf`] — link-state SPF with ECMP and Cisco-style RIB filtering
//!      (a `distribute-list in` removes candidate next-hops *after* the SPF,
//!      which is the behaviour ConfMask's route-equivalence algorithm
//!      relies on for link-state protocols);
//!    * [`rip`] — distance-vector Bellman–Ford to a fixpoint with inbound
//!      advertisement filtering (filters make routes fall back to the
//!      next-best neighbor — the distance-vector behaviour of §5.1);
//!    * [`bgp`] — router-level path-vector with eBGP sessions, an implicit
//!      iBGP full mesh, AS-path loop prevention, shortest-AS-path selection
//!      and deterministic tie-breaking; iterated to a stable state (BGP
//!      converges to a *local equilibrium*, which is why ConfMask must
//!      re-simulate after adding filters, §4.3).
//! 3. **Data-plane extraction** ([`dataplane`]): per-router FIBs with
//!    longest-prefix match and administrative distance, exhaustive
//!    host-to-host forwarding-path enumeration with ECMP branching, loop and
//!    black-hole detection, and traceroute.
//!
//! The entry point is [`simulate`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bgp;
pub mod dataplane;
mod error;
pub mod fault;
mod fib;
mod network;
pub mod ospf;
pub mod rip;
pub mod sweep;

pub use bgp::BgpFibRoute;
pub use dataplane::{DataPlane, PairBits, PathArena, PathSet};
pub use error::SimError;
pub use fault::{DegradationClass, FailureScenario, Fault, ScenarioOutcome};
pub use sweep::{
    DigestList, PairTable, ScenarioDigest, SweepReducer, SweepStats, SweepSummary,
};
pub use fib::{
    merge_fibs, merge_prefix, merge_router_fib, AdminDistance, Fib, FibEntry, Fibs, NextHop,
    RouteSource,
};
pub use network::{BgpSession, HostNode, IfaceNode, Peer, RouterNode, SimNetwork};
pub use ospf::{IgpRoutes, OspfDist, RouterPaths};
pub use rip::{RipDist, RipRoutes};

use confmask_config::NetworkConfigs;
use confmask_net_types::Ipv4Prefix;
use std::collections::BTreeMap;

/// Per-router BGP RIB contributions (one map per [`confmask_net_types::RouterId`]).
pub type BgpRoutes = Vec<BTreeMap<Ipv4Prefix, BgpFibRoute>>;

/// A complete simulation result: the extracted model, every router's FIB,
/// and the host-to-host data plane.
#[derive(Debug, Clone)]
pub struct Simulation {
    /// The extracted network model.
    pub net: SimNetwork,
    /// Per-router forwarding tables.
    pub fibs: Fibs,
    /// All host-to-host forwarding paths (the paper's `DP`).
    pub dataplane: DataPlane,
}

/// Simulates a network: extracts the model, runs every configured protocol,
/// merges RIBs into FIBs by administrative distance, and enumerates the
/// data plane.
pub fn simulate(configs: &NetworkConfigs) -> Result<Simulation, SimError> {
    simulate_with_state(configs).map(|(sim, _)| sim)
}

/// Records the data-plane size metrics every full simulation reports,
/// regardless of which entry point produced it.
fn emit_dataplane_metrics(dataplane: &DataPlane) {
    if confmask_obs::enabled() {
        confmask_obs::counter_add("sim.dataplane.pairs", dataplane.len() as u64);
        for (_, ps) in dataplane.pairs() {
            confmask_obs::observe("sim.dataplane.paths_per_pair", ps.paths.len() as u64);
        }
    }
}

/// Registers every `sim.*` metric the simulator emits at zero, so scrapes
/// and reports taken before the first simulation already carry the full
/// key set (the register-at-zero rule the rest of the pipeline follows).
pub fn register_metrics() {
    for name in [
        "sim.simulations",
        "sim.ospf.spf_runs",
        "sim.rip.rounds",
        "sim.bgp.rounds",
        "sim.dataplane.pairs",
        "sim.fault.scenarios",
    ] {
        confmask_obs::counter_add(name, 0);
    }
    confmask_obs::histogram_register("sim.dataplane.paths_per_pair");
    confmask_obs::histogram_register("sim.fib.size");
    sweep::register_metrics();
}

/// The converged per-protocol control-plane state behind a [`Simulation`].
///
/// [`control_plane`] returns it alongside the FIBs so the
/// incremental engine (`confmask-sim-delta`) can cache what each protocol
/// converged *to* — per-prefix OSPF/RIP distance vectors, the IGP
/// router-to-router matrix, and the BGP RIB contributions — and later
/// recompute only what a perturbation actually touched.
#[derive(Debug, Clone)]
pub struct ControlState {
    /// OSPF candidate next-hops per (router, prefix).
    pub ospf_routes: IgpRoutes,
    /// Converged OSPF distance vectors per prefix.
    pub ospf_dist: OspfDist,
    /// RIP candidate next-hops per (router, prefix).
    pub rip_routes: RipRoutes,
    /// Converged RIP distance vectors per prefix.
    pub rip_dist: RipDist,
    /// Router-to-router IGP shortest paths (computed only when some router
    /// speaks BGP — it exists solely to resolve iBGP egresses).
    pub router_paths: Option<RouterPaths>,
    /// BGP RIB contributions per router.
    pub bgp_routes: BgpRoutes,
}

/// Like [`simulate`], but also returns the converged [`ControlState`].
pub fn simulate_with_state(
    configs: &NetworkConfigs,
) -> Result<(Simulation, ControlState), SimError> {
    let (net, fibs, state) = control_plane(configs)?;
    let sp = confmask_obs::span("sim.dataplane");
    let dataplane = dataplane::extract_dataplane(&net, &fibs)?;
    sp.finish();
    emit_dataplane_metrics(&dataplane);
    let sim = Simulation {
        net,
        fibs,
        dataplane,
    };
    Ok((sim, state))
}

/// Control-plane-only simulation: model extraction and FIB computation
/// without the (comparatively expensive) exhaustive data-plane enumeration.
/// The anonymization pipeline's inner fixpoint loops only inspect FIBs, so
/// they use this entry point and reserve [`simulate`] for verification.
pub fn simulate_control_plane(configs: &NetworkConfigs) -> Result<(SimNetwork, Fibs), SimError> {
    control_plane(configs).map(|(net, fibs, _)| (net, fibs))
}

/// The one control-plane implementation behind [`simulate`],
/// [`simulate_with_state`] and [`simulate_control_plane`]: extracts the
/// model, runs every configured protocol, and merges their RIBs into FIBs
/// through [`merge_fibs`]. Returns the converged per-protocol
/// [`ControlState`] alongside, which the incremental engine
/// (`confmask-sim-delta`) keeps to recompute only what a later
/// perturbation touches.
pub fn control_plane(
    configs: &NetworkConfigs,
) -> Result<(SimNetwork, Fibs, ControlState), SimError> {
    let sp = confmask_obs::span("sim.control_plane");
    confmask_obs::counter_add("sim.simulations", 1);
    // Register the protocol counters at zero so the metric set is stable
    // across protocol mixes (an OSPF-only network still reports
    // `sim.bgp.rounds` = 0 rather than omitting the key).
    for name in ["sim.ospf.spf_runs", "sim.rip.rounds", "sim.bgp.rounds"] {
        confmask_obs::counter_add(name, 0);
    }
    let net = SimNetwork::build(configs)?;
    let (ospf_routes, ospf_dist) = ospf::compute_with_state(&net);
    let (rip_routes, rip_dist) = rip::compute_with_state(&net, None);
    // The router-to-router IGP matrix is only BGP input, so pure IGP
    // networks skip its `n` Dijkstras entirely.
    let any_bgp = net.routers.iter().any(|r| r.asn.is_some());
    let (router_paths, bgp_routes) = if any_bgp {
        let rp = ospf::router_paths(&net);
        let routes = bgp::compute(&net, &rp)?;
        (Some(rp), routes)
    } else {
        (None, vec![BTreeMap::new(); net.router_count()])
    };
    let fibs = merge_fibs(&net, &ospf_routes, &rip_routes, &bgp_routes);
    sp.finish();
    if confmask_obs::enabled() {
        for fib in &fibs.per_router {
            confmask_obs::observe("sim.fib.size", fib.len() as u64);
        }
    }
    let state = ControlState {
        ospf_routes,
        ospf_dist,
        rip_routes,
        rip_dist,
        router_paths,
        bgp_routes,
    };
    Ok((net, fibs, state))
}
