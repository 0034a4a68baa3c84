//! Detailed metric coverage: N_r grouping corner cases and path
//! preservation against partially broken data planes.

use confmask::metrics::{config_utility, path_preservation, route_anonymity};
use confmask_sim::DataPlane;
use std::collections::BTreeSet;

fn path(nodes: &[&str]) -> Vec<String> {
    nodes.iter().map(|s| s.to_string()).collect()
}

#[test]
fn route_anonymity_single_router_pairs() {
    // Paths whose ingress == egress router (two LANs on one router) form
    // their own (r, r) group.
    let dp = DataPlane::from_names(
        [("h1", "h2", vec![path(&["h1", "r1", "h2"])], false, false)]
            .map(|(s, d, p, b, l)| (s.to_string(), d.to_string(), p, b, l)),
    );
    let nr = route_anonymity(&dp);
    assert_eq!(nr.per_pair.len(), 1);
    assert_eq!(nr.per_pair[&("r1".to_string(), "r1".to_string())], 1);
}

#[test]
fn route_anonymity_directional_groups() {
    // (r1, r2) and (r2, r1) are distinct ingress/egress groups.
    let dp = DataPlane::from_names([
        (
            "a".to_string(),
            "b".to_string(),
            vec![path(&["a", "r1", "r2", "b"])],
            false,
            false,
        ),
        (
            "b".to_string(),
            "a".to_string(),
            vec![path(&["b", "r2", "r1", "a"])],
            false,
            false,
        ),
    ]);
    let nr = route_anonymity(&dp);
    assert_eq!(nr.per_pair.len(), 2);
}

#[test]
fn path_preservation_counts_blackholes_as_lost() {
    let orig = DataPlane::from_names([(
        "h1".to_string(),
        "h2".to_string(),
        vec![path(&["h1", "r1", "h2"])],
        false,
        false,
    )]);
    let broken = DataPlane::from_names([("h1", "h2", vec![], true, false)]);
    let hosts: BTreeSet<String> = ["h1".to_string(), "h2".to_string()].into();
    assert_eq!(path_preservation(&orig, &broken, &hosts), 0.0);
    // A missing pair also counts as lost.
    let empty = DataPlane::default();
    assert_eq!(path_preservation(&orig, &empty, &hosts), 0.0);
}

#[test]
fn config_utility_saturates() {
    assert_eq!(config_utility(100, 0), 1.0);
    assert!(config_utility(100, 100) <= 0.0 + 1e-12);
}

#[test]
fn route_anonymity_counts_cross_host_duplicates_once() {
    // Two different host pairs with the SAME router sequence contribute a
    // single distinct path to the group.
    let seq = ["r1", "r2", "r3"];
    let dp = DataPlane::from_names([("a", "x"), ("b", "y")].map(|(s, d)| {
        let mut p = vec![s.to_string()];
        p.extend(seq.iter().map(|r| r.to_string()));
        p.push(d.to_string());
        (s.to_string(), d.to_string(), vec![p], false, false)
    }));
    let nr = route_anonymity(&dp);
    assert_eq!(nr.per_pair[&("r1".to_string(), "r3".to_string())], 1);
}
