//! `sim.delta.bgp_recomputes` counts the delta runs in which BGP actually
//! re-ran: a filter-edit advance on an OSPF-only network leaves it at 0,
//! and one on a BGP network adds exactly 1. Kept as a single `#[test]`
//! because the obs collector is process-global.

use confmask_config::patch::Patcher;
use confmask_config::NetworkConfigs;
use confmask_netgen::fattree::fattree_spec;
use confmask_netgen::smallnets::enterprise;
use confmask_netgen::synthesize;
use confmask_sim_delta::ControlPlane;

fn recomputes() -> u64 {
    confmask_obs::report()
        .counter("sim.delta.bgp_recomputes")
        .unwrap_or(0)
}

/// Three advances on `configs`, each denying one more host LAN on the
/// first interface of the first OSPF router, and the counter's increase
/// after each.
fn counter_steps(configs: &NetworkConfigs, expect_bgp: bool) -> Vec<u64> {
    let (name, rc) = configs
        .routers
        .iter()
        .find(|(_, rc)| rc.ospf.is_some())
        .expect("an OSPF router");
    let iface = rc.interfaces[0].name.clone();
    let lans: Vec<_> = configs
        .hosts
        .values()
        .map(|h| confmask_net_types::Ipv4Prefix::new(h.address.0, h.address.1).unwrap())
        .collect();
    let mut cp = ControlPlane::cold(configs).expect("converges");
    let mut patcher = Patcher::new(configs.clone());
    patcher.bind_igp_filter(name, "F", &iface).unwrap();
    let mut steps = Vec::new();
    for lan in lans.iter().take(3) {
        assert!(patcher.ensure_deny_entry(name, "F", *lan).unwrap());
        let before = recomputes();
        let stats = cp.advance(patcher.network()).expect("advances");
        assert!(stats.filter_edits && !stats.full_fallback);
        assert_eq!(stats.bgp_recomputed, expect_bgp);
        assert!(!stats.bgp_reused);
        steps.push(recomputes() - before);
    }
    steps
}

#[test]
fn bgp_recomputes_counts_only_runs_where_bgp_ran() {
    confmask_obs::reset();
    confmask_obs::set_enabled(true);
    confmask_sim_delta::register_metrics();

    // Net G (FatTree04): OSPF only.
    let ospf_only = synthesize(&fattree_spec(4));
    assert_eq!(counter_steps(&ospf_only, false), [0, 0, 0]);
    assert_eq!(recomputes(), 0);

    // Net A (Enterprise): BGP+OSPF.
    let bgp = synthesize(&enterprise());
    assert_eq!(counter_steps(&bgp, true), [1, 1, 1]);
    assert_eq!(recomputes(), 3);

    confmask_obs::set_enabled(false);
}
