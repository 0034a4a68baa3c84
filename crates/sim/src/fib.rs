//! Forwarding tables: RIB merge by administrative distance and
//! longest-prefix-match lookup.

use crate::bgp;
use crate::network::SimNetwork;
use crate::ospf;
use crate::rip;
use confmask_net_types::{Ipv4Addr, Ipv4Prefix, RouterId};
use std::collections::BTreeMap;

/// Which protocol supplied a route (Cisco administrative distances).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum RouteSource {
    /// Directly connected network.
    Connected,
    /// Static route (`ip route ...`).
    Static,
    /// Learned over an eBGP session.
    Ebgp,
    /// OSPF intra-domain route.
    Ospf,
    /// RIP route.
    Rip,
    /// Learned via iBGP (resolved through the IGP toward the egress).
    Ibgp,
}

/// Administrative distance (lower wins), following Cisco defaults.
pub type AdminDistance = u8;

impl RouteSource {
    /// The Cisco default administrative distance of this source.
    pub fn admin_distance(self) -> AdminDistance {
        match self {
            RouteSource::Connected => 0,
            RouteSource::Static => 1,
            RouteSource::Ebgp => 20,
            RouteSource::Ospf => 110,
            RouteSource::Rip => 120,
            RouteSource::Ibgp => 200,
        }
    }
}

/// One forwarding next hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum NextHop {
    /// The destination prefix is directly connected: deliver on `iface`.
    Deliver {
        /// Index of the LAN interface.
        iface: usize,
    },
    /// Forward to an adjacent router.
    Forward {
        /// Outgoing interface index on this router.
        via_iface: usize,
        /// The adjacent router.
        router: RouterId,
        /// For eBGP-learned routes, the session peer address (where an
        /// inbound filter would be attached).
        session_peer: Option<Ipv4Addr>,
    },
}

impl NextHop {
    /// The adjacent router, when forwarding (not delivering).
    pub fn router(&self) -> Option<RouterId> {
        match self {
            NextHop::Forward { router, .. } => Some(*router),
            NextHop::Deliver { .. } => None,
        }
    }
}

/// A FIB entry: the winning route for one destination prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FibEntry {
    /// Destination prefix.
    pub prefix: Ipv4Prefix,
    /// Protocol that won the RIB race.
    pub source: RouteSource,
    /// ECMP next-hop set (non-empty).
    pub next_hops: Vec<NextHop>,
}

/// One router's forwarding table.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fib {
    entries: BTreeMap<Ipv4Prefix, FibEntry>,
    /// Bit `l` is set iff some entry has prefix length `l` (0..=32), so a
    /// lookup probes only the lengths present instead of scanning entries.
    lens: u64,
}

impl Fib {
    /// Inserts an entry (replacing any entry for the same prefix).
    pub fn insert(&mut self, entry: FibEntry) {
        self.lens |= 1u64 << entry.prefix.len();
        self.entries.insert(entry.prefix, entry);
    }

    /// Removes the entry for exactly `prefix`, if any.
    pub fn remove(&mut self, prefix: &Ipv4Prefix) -> Option<FibEntry> {
        let removed = self.entries.remove(prefix)?;
        let len = prefix.len();
        if !self.entries.keys().any(|p| p.len() == len) {
            self.lens &= !(1u64 << len);
        }
        Some(removed)
    }

    /// Longest-prefix-match lookup: probes each prefix length present,
    /// longest first. At most one entry per length can contain `addr`
    /// (the one keyed by `addr` masked to that length), so the first hit
    /// is the longest match.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<&FibEntry> {
        let mut lens = self.lens;
        while lens != 0 {
            let len = 63 - lens.leading_zeros() as u8;
            lens &= !(1u64 << len);
            let key = Ipv4Prefix::new(addr, len).expect("FIB prefix lengths are at most 32");
            if let Some(e) = self.entries.get(&key) {
                return Some(e);
            }
        }
        None
    }

    /// Exact-prefix entry.
    pub fn entry(&self, prefix: &Ipv4Prefix) -> Option<&FibEntry> {
        self.entries.get(prefix)
    }

    /// All entries, ordered by prefix.
    pub fn entries(&self) -> impl Iterator<Item = &FibEntry> {
        self.entries.values()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// All routers' forwarding tables, indexed by [`RouterId`].
#[derive(Debug, Clone, Default)]
pub struct Fibs {
    /// Per-router tables.
    pub per_router: Vec<Fib>,
}

impl Fibs {
    /// The FIB of a router.
    pub fn of(&self, r: RouterId) -> &Fib {
        &self.per_router[r.0 as usize]
    }
}

/// Merges per-protocol RIB contributions into FIBs by administrative
/// distance. This is the *only* merge implementation — the incremental
/// engine feeds it spliced (partly reused, partly recomputed) protocol
/// tables, or re-merges single prefixes through [`merge_prefix`], so cold
/// and delta simulations go through byte-identical merge logic.
pub fn merge_fibs(
    net: &SimNetwork,
    ospf_routes: &ospf::IgpRoutes,
    rip_routes: &rip::RipRoutes,
    bgp_routes: &[BTreeMap<Ipv4Prefix, bgp::BgpFibRoute>],
) -> Fibs {
    Fibs {
        per_router: net
            .routers_iter()
            .map(|(rid, _)| merge_router_fib(net, rid, ospf_routes, rip_routes, bgp_routes))
            .collect(),
    }
}

/// Merges one router's RIB contributions into its FIB — the per-router
/// body of [`merge_fibs`], exposed so the incremental engine can merge
/// only the routers a perturbation touched (and clone the rest): its
/// static routes, then [`merge_prefix`] for every destination.
pub fn merge_router_fib(
    net: &SimNetwork,
    rid: RouterId,
    ospf_routes: &ospf::IgpRoutes,
    rip_routes: &rip::RipRoutes,
    bgp_routes: &[BTreeMap<Ipv4Prefix, bgp::BgpFibRoute>],
) -> Fib {
    let mut fib = Fib::default();
    let router = net.router(rid);
    // Static routes install at their own prefixes (longest-prefix match
    // then decides against dynamic routes; at equal prefixes, AD 1 wins
    // over everything but Connected). Unresolvable next hops are
    // ignored, like a real RIB.
    for sr in &router.static_routes {
        let resolved = router.ifaces.iter().enumerate().find_map(|(ii, iface)| {
            if !iface.prefix.contains_addr(sr.next_hop) {
                return None;
            }
            iface.peers.iter().find_map(|p| match p {
                crate::network::Peer::Router {
                    router: peer,
                    iface: pi,
                } => (net.router(*peer).ifaces[*pi].addr == sr.next_hop).then_some((ii, *peer)),
                crate::network::Peer::Host(_) => None,
            })
        });
        if let Some((via_iface, peer)) = resolved {
            let connected_same = router.ifaces.iter().any(|i| i.prefix == sr.prefix);
            if !connected_same {
                fib.insert(FibEntry {
                    prefix: sr.prefix,
                    source: RouteSource::Static,
                    next_hops: vec![NextHop::Forward {
                        via_iface,
                        router: peer,
                        session_peer: None,
                    }],
                });
            }
        }
    }
    for (prefix, _hosts) in &net.destinations {
        merge_prefix(
            net,
            rid,
            prefix,
            &mut fib,
            ospf_routes,
            rip_routes,
            bgp_routes,
        );
    }
    fib
}

/// (Re)installs router `rid`'s winning route for destination `prefix`
/// into `fib`, which already holds the router's static routes — the
/// per-prefix body of [`merge_router_fib`]. Any dynamic entry `fib` held
/// for `prefix` is replaced (or removed when no protocol offers a route),
/// so the incremental engine can re-merge exactly the prefixes whose
/// protocol routes changed.
pub fn merge_prefix(
    net: &SimNetwork,
    rid: RouterId,
    prefix: &Ipv4Prefix,
    fib: &mut Fib,
    ospf_routes: &ospf::IgpRoutes,
    rip_routes: &rip::RipRoutes,
    bgp_routes: &[BTreeMap<Ipv4Prefix, bgp::BgpFibRoute>],
) {
    let router = net.router(rid);
    let r = rid.0 as usize;
    // 1. Connected.
    if let Some(iface) = router.ifaces.iter().position(|i| i.prefix == *prefix) {
        fib.insert(FibEntry {
            prefix: *prefix,
            source: RouteSource::Connected,
            next_hops: vec![NextHop::Deliver { iface }],
        });
        return;
    }
    // 1b. Static at the exact destination prefix (AD 1).
    if fib
        .entry(prefix)
        .is_some_and(|e| e.source == RouteSource::Static)
    {
        return;
    }
    let forward = |hops: &[(usize, RouterId)], session_peer| {
        hops.iter()
            .map(|&(via_iface, router)| NextHop::Forward {
                via_iface,
                router,
                session_peer,
            })
            .collect()
    };
    let bgp = bgp_routes[r]
        .get(prefix)
        .filter(|b| !b.next_hops.is_empty());
    let winner = if let Some(b) = bgp.filter(|b| b.source == RouteSource::Ebgp) {
        // 2. eBGP (AD 20).
        Some((RouteSource::Ebgp, forward(&b.next_hops, b.session_peer)))
    } else if let Some(hops) = ospf_routes[r].get(prefix).filter(|h| !h.is_empty()) {
        // 3. OSPF (AD 110).
        Some((RouteSource::Ospf, forward(hops, None)))
    } else if let Some(hops) = rip_routes[r].get(prefix).filter(|h| !h.is_empty()) {
        // 4. RIP (AD 120).
        Some((RouteSource::Rip, forward(hops, None)))
    } else {
        // 5. iBGP (AD 200).
        bgp.filter(|b| b.source == RouteSource::Ibgp)
            .map(|b| (RouteSource::Ibgp, forward(&b.next_hops, None)))
    };
    match winner {
        Some((source, next_hops)) => fib.insert(FibEntry {
            prefix: *prefix,
            source,
            next_hops,
        }),
        None => {
            fib.remove(prefix);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn lpm_prefers_longest() {
        let mut fib = Fib::default();
        fib.insert(FibEntry {
            prefix: p("10.0.0.0/8"),
            source: RouteSource::Ospf,
            next_hops: vec![NextHop::Deliver { iface: 0 }],
        });
        fib.insert(FibEntry {
            prefix: p("10.1.0.0/16"),
            source: RouteSource::Ospf,
            next_hops: vec![NextHop::Deliver { iface: 1 }],
        });
        let hit = fib.lookup("10.1.2.3".parse().unwrap()).unwrap();
        assert_eq!(hit.prefix, p("10.1.0.0/16"));
        let hit = fib.lookup("10.2.2.3".parse().unwrap()).unwrap();
        assert_eq!(hit.prefix, p("10.0.0.0/8"));
        assert!(fib.lookup("11.0.0.1".parse().unwrap()).is_none());
    }

    #[test]
    fn length_probing_matches_a_full_scan() {
        let entry = |s: &str| FibEntry {
            prefix: p(s),
            source: RouteSource::Ospf,
            next_hops: vec![NextHop::Deliver { iface: 0 }],
        };
        let mut fib = Fib::default();
        for s in [
            "0.0.0.0/0",
            "10.0.0.0/8",
            "10.1.0.0/16",
            "10.1.2.0/24",
            "10.1.2.128/25",
        ] {
            fib.insert(entry(s));
        }
        fib.insert(entry("10.1.2.3/32"));
        let scan = |fib: &Fib, a: Ipv4Addr| {
            fib.entries()
                .filter(|e| e.prefix.contains_addr(a))
                .max_by_key(|e| e.prefix.len())
                .map(|e| e.prefix)
        };
        let addrs = [
            "10.1.2.3",
            "10.1.2.200",
            "10.1.2.4",
            "10.1.9.9",
            "10.9.9.9",
            "11.0.0.1",
        ];
        for a in addrs {
            let a: Ipv4Addr = a.parse().unwrap();
            assert_eq!(fib.lookup(a).map(|e| e.prefix), scan(&fib, a), "{a}");
        }
        // Removing the only /32 and /25 clears their probe bits; the next
        // longest match takes over, and re-inserting restores it.
        assert!(fib.remove(&p("10.1.2.3/32")).is_some());
        assert!(fib.remove(&p("10.1.2.128/25")).is_some());
        assert!(fib.remove(&p("10.1.2.128/25")).is_none());
        assert_eq!(fib, {
            let mut f = Fib::default();
            for s in ["0.0.0.0/0", "10.0.0.0/8", "10.1.0.0/16", "10.1.2.0/24"] {
                f.insert(entry(s));
            }
            f
        });
        for a in addrs {
            let a: Ipv4Addr = a.parse().unwrap();
            assert_eq!(fib.lookup(a).map(|e| e.prefix), scan(&fib, a), "{a}");
        }
        assert_eq!(
            fib.lookup("10.1.2.3".parse().unwrap()).unwrap().prefix,
            p("10.1.2.0/24")
        );
    }

    #[test]
    fn admin_distances_are_ordered() {
        assert!(RouteSource::Connected.admin_distance() < RouteSource::Ebgp.admin_distance());
        assert!(RouteSource::Ebgp.admin_distance() < RouteSource::Ospf.admin_distance());
        assert!(RouteSource::Ospf.admin_distance() < RouteSource::Rip.admin_distance());
        assert!(RouteSource::Rip.admin_distance() < RouteSource::Ibgp.admin_distance());
    }
}
