//! Evaluation metrics (§7.1): route anonymity `N_r`, route utility `P_U`,
//! topology anonymity `k_d`, topology utility (clustering coefficient), and
//! configuration utility `U_C`.

use confmask_sim::{DataPlane, IdMap};
use std::collections::{BTreeMap, BTreeSet};

/// Route-anonymity statistics: distinct routing paths per (ingress router,
/// egress router) pair — Figure 5's `N_r`.
#[derive(Debug, Clone, Default)]
pub struct RouteAnonymity {
    /// Distinct paths per edge-router pair.
    pub per_pair: BTreeMap<(String, String), usize>,
}

impl RouteAnonymity {
    /// Average `N_r` over pairs.
    pub fn avg(&self) -> f64 {
        if self.per_pair.is_empty() {
            return 0.0;
        }
        self.per_pair.values().sum::<usize>() as f64 / self.per_pair.len() as f64
    }

    /// Minimum `N_r` over pairs (how exposed the most identifiable pair is).
    pub fn min(&self) -> usize {
        self.per_pair.values().copied().min().unwrap_or(0)
    }
}

/// Computes `N_r` from a data plane: for each (ingress, egress) router pair
/// carrying host traffic, the number of distinct *router sequences* among
/// all host-to-host paths between them (Definition 3.2's `p ∼ p'`
/// equivalence groups paths by ingress and egress router).
pub fn route_anonymity(dp: &DataPlane) -> RouteAnonymity {
    // Grouped by router id (ids are unique per name, so distinct id
    // sequences are distinct router sequences); names only for the keys.
    let mut groups: BTreeMap<(u32, u32), BTreeSet<&[u32]>> = BTreeMap::new();
    for ps in dp.pairs() {
        for routers in ps.arena().paths() {
            let (Some(&first), Some(&last)) = (routers.first(), routers.last()) else {
                continue; // same-LAN delivery has no routers
            };
            groups.entry((first, last)).or_default().insert(routers);
        }
    }
    let names = dp.names();
    RouteAnonymity {
        per_pair: groups
            .into_iter()
            .map(|((a, b), v)| {
                (
                    (names.router(a).to_owned(), names.router(b).to_owned()),
                    v.len(),
                )
            })
            .collect(),
    }
}

/// Route utility `P_U` (Figure 8): the fraction of host pairs whose path
/// sets are *exactly* preserved. Pairs are restricted to `real_hosts`.
/// Router ids are translated between the two planes once.
pub fn path_preservation(
    original: &DataPlane,
    anonymized: &DataPlane,
    real_hosts: &BTreeSet<String>,
) -> f64 {
    let orig = original.restricted_to(real_hosts);
    if orig.is_empty() {
        return 1.0;
    }
    let map = IdMap::new(orig.names(), anonymized.names());
    let kept = orig
        .pairs()
        .filter(|ps| {
            anonymized
                .between(ps.src(), ps.dst())
                .is_some_and(|anon| ps.arena().eq_mapped(&map, anon.arena()))
        })
        .count();
    kept as f64 / orig.len() as f64
}

/// Configuration utility `U_C = 1 − N_l / P_l` (§7.1): `added` injected
/// lines against the `total` lines of the anonymized configurations.
pub fn config_utility(total_lines: usize, added_lines: usize) -> f64 {
    if total_lines == 0 {
        return 1.0;
    }
    1.0 - added_lines as f64 / total_lines as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(nodes: &[&str]) -> Vec<String> {
        nodes.iter().map(|s| s.to_string()).collect()
    }

    fn dp(entries: &[(&str, &str, Vec<Vec<String>>)]) -> DataPlane {
        DataPlane::from_names(
            entries
                .iter()
                .map(|(s, d, paths)| (s.to_string(), d.to_string(), paths.clone(), false, false)),
        )
    }

    #[test]
    fn route_anonymity_counts_distinct_router_sequences() {
        let d = dp(&[
            ("h1", "h2", vec![path(&["h1", "r1", "r2", "h2"])]),
            ("h1x", "h2", vec![path(&["h1x", "r1", "r3", "r2", "h2"])]),
            ("h2", "h1", vec![path(&["h2", "r2", "r1", "h1"])]),
        ]);
        let nr = route_anonymity(&d);
        assert_eq!(nr.per_pair[&("r1".to_string(), "r2".to_string())], 2);
        assert_eq!(nr.per_pair[&("r2".to_string(), "r1".to_string())], 1);
        assert_eq!(nr.min(), 1);
        assert!((nr.avg() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn route_anonymity_ignores_same_lan_paths() {
        let d = dp(&[("h1", "h1b", vec![path(&["h1", "h1b"])])]);
        assert!(route_anonymity(&d).per_pair.is_empty());
    }

    #[test]
    fn path_preservation_full_and_partial() {
        let orig = dp(&[
            ("h1", "h2", vec![path(&["h1", "r1", "r2", "h2"])]),
            ("h2", "h1", vec![path(&["h2", "r2", "r1", "h1"])]),
        ]);
        let hosts: BTreeSet<String> = ["h1".to_string(), "h2".to_string()].into();
        assert!((path_preservation(&orig, &orig, &hosts) - 1.0).abs() < 1e-12);

        let half = dp(&[
            ("h1", "h2", vec![path(&["h1", "r1", "r3", "r2", "h2"])]), // changed
            ("h2", "h1", vec![path(&["h2", "r2", "r1", "h1"])]),       // kept
        ]);
        assert!((path_preservation(&orig, &half, &hosts) - 0.5).abs() < 1e-12);
    }

    /// Name-level reference for [`path_preservation`]: the fraction of
    /// real pairs whose rendered name paths and flags are equal.
    fn preserved_by_name(orig: &DataPlane, anon: &DataPlane, hosts: &BTreeSet<String>) -> f64 {
        let orig = orig.restricted_to(hosts);
        let kept = orig
            .pairs()
            .filter(|ps| {
                anon.between(ps.src(), ps.dst()).is_some_and(|a| {
                    a.to_names() == ps.to_names()
                        && (a.blackhole(), a.has_loop()) == (ps.blackhole(), ps.has_loop())
                })
            })
            .count();
        kept as f64 / orig.len() as f64
    }

    #[test]
    fn cross_network_comparison_translates_shifted_router_ids() {
        // Real routers m1 < m5; the anonymized plane adds fake routers that
        // sort before (a0), between (m3) and after (z9) them, carried by a
        // fake host's pair, so every real router's id shifts.
        let real = [
            ("h1", "h2", vec![path(&["h1", "m1", "m5", "h2"])]),
            ("h2", "h1", vec![path(&["h2", "m5", "m1", "h1"])]),
        ];
        let orig = dp(&real);
        let fake = (
            "hz",
            "h1",
            vec![path(&["hz", "a0", "m3", "z9", "m1", "h1"])],
        );
        let anon = dp(&[real[0].clone(), real[1].clone(), fake.clone()]);
        let (orig_names, anon_names) = (orig.names(), anon.names());
        assert_eq!(orig_names.routers(), ["m1", "m5"]);
        assert_eq!(anon_names.routers(), ["a0", "m1", "m3", "m5", "z9"]);

        let hosts: BTreeSet<String> = ["h1".to_string(), "h2".to_string()].into();
        assert!(anon.equivalent_on(&orig, &hosts));
        assert!(orig.equivalent_on(&anon, &hosts));
        assert_eq!(path_preservation(&orig, &anon, &hosts), 1.0);
        assert_eq!(preserved_by_name(&orig, &anon, &hosts), 1.0);

        // One hop changed: h1→h2 now detours through the fake m3.
        let changed = dp(&[
            ("h1", "h2", vec![path(&["h1", "m1", "m3", "m5", "h2"])]),
            real[1].clone(),
            fake,
        ]);
        assert!(!changed.equivalent_on(&orig, &hosts));
        assert!(!orig.equivalent_on(&changed, &hosts));
        assert_eq!(path_preservation(&orig, &changed, &hosts), 0.5);
        assert_eq!(preserved_by_name(&orig, &changed, &hosts), 0.5);
        let (o, c) = (
            orig.between("h1", "h2").unwrap(),
            changed.between("h1", "h2").unwrap(),
        );
        assert_ne!(o, c);
        assert_eq!(o == c, o.to_names() == c.to_names());
        assert_eq!(
            orig.between("h2", "h1").unwrap(),
            changed.between("h2", "h1").unwrap()
        );
    }

    #[test]
    fn config_utility_formula() {
        assert!((config_utility(1000, 100) - 0.9).abs() < 1e-12);
        assert!((config_utility(0, 0) - 1.0).abs() < 1e-12);
    }
}
