//! Network model extraction from configuration files.
//!
//! Mirrors what Batfish's parsing stage provides to ConfMask: resolved
//! interfaces, links (interface pairs sharing a prefix), protocol activation
//! (Cisco `network`-statement semantics: a statement enables the protocol on
//! every interface whose address it covers), BGP sessions, and route filters
//! resolved to their prefix lists.

use crate::error::SimError;
use confmask_config::{
    DistributeListBinding, HostConfig, NetworkConfigs, PrefixList, RouterConfig, StaticRoute,
    DEFAULT_OSPF_COST,
};
use confmask_net_types::{Asn, HostId, Ipv4Addr, Ipv4Prefix, RouterId};
use std::collections::BTreeMap;

/// The device on the far side of an interface's L2 segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Peer {
    /// Another router (id and its interface index).
    Router {
        /// Peer router.
        router: RouterId,
        /// Index of the peer's interface on the shared segment.
        iface: usize,
    },
    /// A host attached to this interface's LAN.
    Host(HostId),
}

/// A resolved router interface.
#[derive(Debug, Clone)]
pub struct IfaceNode {
    /// Interface name (e.g. `Ethernet0/0`).
    pub name: String,
    /// Interface address.
    pub addr: Ipv4Addr,
    /// Connected prefix.
    pub prefix: Ipv4Prefix,
    /// Effective OSPF cost (explicit or [`DEFAULT_OSPF_COST`]).
    pub cost: u32,
    /// Devices sharing the segment.
    pub peers: Vec<Peer>,
    /// OSPF runs on this interface (covered by a `network ... area`).
    pub ospf_active: bool,
    /// RIP runs on this interface.
    pub rip_active: bool,
    /// Inbound IGP route filters bound to this interface.
    pub igp_filters: Vec<PrefixList>,
    /// Whether this interface was added by anonymization (provenance).
    pub added: bool,
}

impl IfaceNode {
    /// Whether an inbound IGP filter on this interface denies `prefix`.
    pub fn igp_denies(&self, prefix: &Ipv4Prefix) -> bool {
        self.igp_filters
            .iter()
            .any(|l| l.evaluate(prefix) == confmask_config::FilterAction::Deny)
    }
}

/// A resolved (e)BGP session.
#[derive(Debug, Clone)]
pub struct BgpSession {
    /// Index of the local interface carrying the session.
    pub local_iface: Option<usize>,
    /// Configured peer address.
    pub peer_addr: Ipv4Addr,
    /// Resolved peer router and its interface, when the address matches a
    /// modelled device.
    pub peer: Option<(RouterId, usize)>,
    /// Peer AS.
    pub remote_as: Asn,
    /// Local preference assigned to routes learned here (default 100).
    pub local_pref: u32,
    /// Inbound route filters for this session.
    pub in_filters: Vec<PrefixList>,
}

impl BgpSession {
    /// Whether an inbound filter on this session denies `prefix`.
    pub fn denies(&self, prefix: &Ipv4Prefix) -> bool {
        self.in_filters
            .iter()
            .any(|l| l.evaluate(prefix) == confmask_config::FilterAction::Deny)
    }
}

/// A resolved router.
#[derive(Debug, Clone)]
pub struct RouterNode {
    /// Hostname.
    pub name: String,
    /// Local AS (when running BGP).
    pub asn: Option<Asn>,
    /// Interfaces (index = interface id used across the simulator).
    pub ifaces: Vec<IfaceNode>,
    /// Prefixes this router's BGP originates (`network ... mask ...`).
    pub bgp_networks: Vec<Ipv4Prefix>,
    /// BGP sessions.
    pub sessions: Vec<BgpSession>,
    /// Static routes (`ip route ...`), resolved lazily at FIB merge.
    pub static_routes: Vec<StaticRoute>,
    /// Router runs OSPF.
    pub runs_ospf: bool,
    /// Router runs RIP.
    pub runs_rip: bool,
}

/// A resolved host.
#[derive(Debug, Clone)]
pub struct HostNode {
    /// Hostname.
    pub name: String,
    /// Host address.
    pub addr: Ipv4Addr,
    /// LAN prefix.
    pub prefix: Ipv4Prefix,
    /// Configured gateway.
    pub gateway: Ipv4Addr,
    /// The router interface acting as gateway, when resolvable.
    pub attachment: Option<(RouterId, usize)>,
    /// Whether this is an anonymization-added fake host (provenance).
    pub added: bool,
}

/// The fully resolved network model.
#[derive(Debug, Clone)]
pub struct SimNetwork {
    /// Routers, indexed by [`RouterId`].
    pub routers: Vec<RouterNode>,
    /// Hosts, indexed by [`HostId`].
    pub hosts: Vec<HostNode>,
    /// Destination prefixes to route: every host LAN, with its hosts.
    pub destinations: Vec<(Ipv4Prefix, Vec<HostId>)>,
    router_index: BTreeMap<String, RouterId>,
    host_index: BTreeMap<String, HostId>,
}

impl SimNetwork {
    /// Router id by hostname.
    pub fn router_id(&self, name: &str) -> Option<RouterId> {
        self.router_index.get(name).copied()
    }

    /// Host id by hostname.
    pub fn host_id(&self, name: &str) -> Option<HostId> {
        self.host_index.get(name).copied()
    }

    /// The router node for an id.
    pub fn router(&self, id: RouterId) -> &RouterNode {
        &self.routers[id.0 as usize]
    }

    /// The host node for an id.
    pub fn host(&self, id: HostId) -> &HostNode {
        &self.hosts[id.0 as usize]
    }

    /// Number of routers.
    pub fn router_count(&self) -> usize {
        self.routers.len()
    }

    /// Iterator over `(RouterId, &RouterNode)`.
    pub fn routers_iter(&self) -> impl Iterator<Item = (RouterId, &RouterNode)> {
        self.routers
            .iter()
            .enumerate()
            .map(|(i, r)| (RouterId(i as u32), r))
    }

    /// Iterator over `(HostId, &HostNode)`.
    pub fn hosts_iter(&self) -> impl Iterator<Item = (HostId, &HostNode)> {
        self.hosts
            .iter()
            .enumerate()
            .map(|(i, h)| (HostId(i as u32), h))
    }

    /// Whether two routers share at least one link.
    pub fn adjacent(&self, a: RouterId, b: RouterId) -> bool {
        self.router(a).ifaces.iter().any(|i| {
            i.peers
                .iter()
                .any(|p| matches!(p, Peer::Router { router, .. } if *router == b))
        })
    }

    /// Re-resolves router `rid`'s route filters from `rc` in place: every
    /// interface's inbound IGP filters and every BGP session's inbound
    /// filters, exactly as [`SimNetwork::build`] resolves them. Nothing
    /// else is touched, so when `rc` differs from the configuration the
    /// model was built from only in prefix lists and distribute-list
    /// bindings, the result equals a rebuild — the incremental engine's
    /// way to advance a model through filter edits without rebuilding it.
    pub fn refilter_router(&mut self, rid: RouterId, rc: &RouterConfig) {
        let bindings = igp_bindings(rc);
        let router = &mut self.routers[rid.0 as usize];
        for iface in &mut router.ifaces {
            iface.igp_filters = iface_filters(rc, &bindings, &iface.name);
        }
        for session in &mut router.sessions {
            session.in_filters = session_filters(rc, session.peer_addr);
        }
    }

    /// Builds the model from configurations.
    pub fn build(configs: &NetworkConfigs) -> Result<Self, SimError> {
        let router_names: Vec<&String> = configs.routers.keys().collect();
        let router_index: BTreeMap<String, RouterId> = router_names
            .iter()
            .enumerate()
            .map(|(i, n)| ((*n).clone(), RouterId(i as u32)))
            .collect();
        let host_index: BTreeMap<String, HostId> = configs
            .hosts
            .keys()
            .enumerate()
            .map(|(i, n)| (n.clone(), HostId(i as u32)))
            .collect();

        // Pass 1: interfaces with protocol activation.
        let mut routers: Vec<RouterNode> = configs
            .routers
            .values()
            .map(build_router)
            .collect::<Result<_, _>>()?;

        // Pass 2: resolve peers — group (router, iface) by exact prefix.
        let mut by_prefix: BTreeMap<Ipv4Prefix, Vec<(RouterId, usize)>> = BTreeMap::new();
        for (ri, r) in routers.iter().enumerate() {
            for (ii, iface) in r.ifaces.iter().enumerate() {
                by_prefix
                    .entry(iface.prefix)
                    .or_default()
                    .push((RouterId(ri as u32), ii));
            }
        }
        for members in by_prefix.values() {
            for &(ra, ia) in members {
                for &(rb, ib) in members {
                    if ra == rb {
                        continue;
                    }
                    routers[ra.0 as usize].ifaces[ia].peers.push(Peer::Router {
                        router: rb,
                        iface: ib,
                    });
                }
            }
        }

        // Pass 3: hosts and their attachments.
        let mut hosts: Vec<HostNode> = Vec::with_capacity(configs.hosts.len());
        for hc in configs.hosts.values() {
            hosts.push(build_host(hc, &routers)?);
        }
        for (hi, h) in hosts.iter().enumerate() {
            if let Some((rid, ii)) = h.attachment {
                routers[rid.0 as usize].ifaces[ii]
                    .peers
                    .push(Peer::Host(HostId(hi as u32)));
            }
        }

        // Pass 4: BGP sessions (needs the global address map).
        let addr_owner: BTreeMap<Ipv4Addr, (RouterId, usize)> = routers
            .iter()
            .enumerate()
            .flat_map(|(ri, r)| {
                r.ifaces
                    .iter()
                    .enumerate()
                    .map(move |(ii, i)| (i.addr, (RouterId(ri as u32), ii)))
            })
            .collect();
        for (name, rc) in &configs.routers {
            let rid = router_index[name];
            let Some(bgp) = &rc.bgp else { continue };
            let mut sessions = Vec::new();
            for nb in &bgp.neighbors {
                let peer = addr_owner.get(&nb.addr).copied();
                let local_iface = routers[rid.0 as usize]
                    .ifaces
                    .iter()
                    .position(|i| i.prefix.contains_addr(nb.addr));
                let in_filters = session_filters(rc, nb.addr);
                sessions.push(BgpSession {
                    local_iface,
                    peer_addr: nb.addr,
                    peer,
                    remote_as: nb.remote_as,
                    local_pref: nb.local_pref.unwrap_or(confmask_config::DEFAULT_LOCAL_PREF),
                    in_filters,
                });
            }
            routers[rid.0 as usize].sessions = sessions;
        }

        // Destinations: host LANs.
        let mut destinations: BTreeMap<Ipv4Prefix, Vec<HostId>> = BTreeMap::new();
        for (hi, h) in hosts.iter().enumerate() {
            destinations
                .entry(h.prefix)
                .or_default()
                .push(HostId(hi as u32));
        }

        Ok(SimNetwork {
            routers,
            hosts,
            destinations: destinations.into_iter().collect(),
            router_index,
            host_index,
        })
    }
}

fn build_router(rc: &RouterConfig) -> Result<RouterNode, SimError> {
    let ospf_nets: Vec<Ipv4Prefix> = rc
        .ospf
        .iter()
        .flat_map(|o| o.networks.iter().map(|n| n.prefix))
        .collect();
    let rip_nets: Vec<Ipv4Prefix> = rc
        .rip
        .iter()
        .flat_map(|r| r.networks.iter().map(|n| n.prefix))
        .collect();

    let igp_bindings = igp_bindings(rc);

    let mut ifaces = Vec::new();
    for iface in &rc.interfaces {
        if iface.shutdown {
            continue;
        }
        let Some((addr, len)) = iface.address else {
            continue;
        };
        let prefix = Ipv4Prefix::new(addr, len)
            .map_err(|e| SimError::BadConfig(format!("{}/{}: {e}", rc.hostname, iface.name)))?;
        let covers = |nets: &[Ipv4Prefix]| nets.iter().any(|n| n.contains_addr(addr));
        let igp_filters = iface_filters(rc, &igp_bindings, &iface.name);
        ifaces.push(IfaceNode {
            name: iface.name.clone(),
            addr,
            prefix,
            cost: iface.ospf_cost.unwrap_or(DEFAULT_OSPF_COST),
            peers: Vec::new(),
            ospf_active: rc.ospf.is_some() && covers(&ospf_nets),
            rip_active: rc.rip.is_some() && covers(&rip_nets),
            igp_filters,
            added: iface.added,
        });
    }

    Ok(RouterNode {
        name: rc.hostname.clone(),
        asn: rc.bgp.as_ref().map(|b| b.asn),
        ifaces,
        bgp_networks: rc
            .bgp
            .iter()
            .flat_map(|b| b.networks.iter().map(|n| n.prefix))
            .collect(),
        sessions: Vec::new(),
        static_routes: rc.static_routes.clone(),
        runs_ospf: rc.ospf.is_some(),
        runs_rip: rc.rip.is_some(),
    })
}

/// A router's IGP distribute-list bindings as `(list, interface)` pairs,
/// OSPF's then RIP's.
fn igp_bindings(rc: &RouterConfig) -> Vec<(&str, &str)> {
    rc.ospf
        .iter()
        .flat_map(|o| o.distribute_lists.iter())
        .chain(rc.rip.iter().flat_map(|r| r.distribute_lists.iter()))
        .filter_map(|d| match d {
            DistributeListBinding::Interface {
                list, interface, ..
            } => Some((list.as_str(), interface.as_str())),
            _ => None,
        })
        .collect()
}

/// The inbound IGP filters bound to interface `name`, resolved to their
/// prefix lists (bindings to missing lists resolve to nothing).
fn iface_filters(rc: &RouterConfig, bindings: &[(&str, &str)], name: &str) -> Vec<PrefixList> {
    bindings
        .iter()
        .filter(|(_, i)| *i == name)
        .filter_map(|(l, _)| rc.prefix_list(l).cloned())
        .collect()
}

/// The inbound filters bound to the BGP session with `neighbor`.
fn session_filters(rc: &RouterConfig, neighbor: Ipv4Addr) -> Vec<PrefixList> {
    rc.bgp
        .iter()
        .flat_map(|b| b.distribute_lists.iter())
        .filter_map(|d| match d {
            DistributeListBinding::Neighbor {
                list, neighbor: n, ..
            } if *n == neighbor => rc.prefix_list(list).cloned(),
            _ => None,
        })
        .collect()
}

fn build_host(hc: &HostConfig, routers: &[RouterNode]) -> Result<HostNode, SimError> {
    let (addr, len) = hc.address;
    let prefix = Ipv4Prefix::new(addr, len)
        .map_err(|e| SimError::BadConfig(format!("host {}: {e}", hc.hostname)))?;
    let mut attachment = None;
    'outer: for (ri, r) in routers.iter().enumerate() {
        for (ii, iface) in r.ifaces.iter().enumerate() {
            if iface.addr == hc.gateway && iface.prefix == prefix {
                attachment = Some((RouterId(ri as u32), ii));
                break 'outer;
            }
        }
    }
    Ok(HostNode {
        name: hc.hostname.clone(),
        addr,
        prefix,
        gateway: hc.gateway,
        attachment,
        added: hc.added,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use confmask_config::parse_router;

    fn net() -> NetworkConfigs {
        let r1 = parse_router(
            "hostname r1\n!\ninterface Ethernet0/0\n ip address 10.0.0.0 255.255.255.254\n ip ospf cost 5\n!\ninterface Ethernet0/1\n ip address 10.1.0.1 255.255.255.0\n!\nrouter ospf 1\n network 10.0.0.0 0.0.0.1 area 0\n network 10.1.0.0 0.0.0.255 area 0\n!\n",
        )
        .unwrap();
        let r2 = parse_router(
            "hostname r2\n!\ninterface Ethernet0/0\n ip address 10.0.0.1 255.255.255.254\n!\nrouter ospf 1\n network 10.0.0.0 0.0.0.1 area 0\n!\nrouter bgp 65001\n network 10.1.0.0 mask 255.255.255.0\n neighbor 10.0.0.0 remote-as 65002\n!\n",
        )
        .unwrap();
        let h = HostConfig {
            hostname: "h1".into(),
            iface_name: "eth0".into(),
            address: ("10.1.0.100".parse().unwrap(), 24),
            gateway: "10.1.0.1".parse().unwrap(),
            extra: vec![],
            added: false,
        };
        NetworkConfigs::new([r1, r2], [h])
    }

    #[test]
    fn resolves_router_peers() {
        let sim = SimNetwork::build(&net()).unwrap();
        let r1 = sim.router_id("r1").unwrap();
        let r2 = sim.router_id("r2").unwrap();
        assert!(sim.adjacent(r1, r2));
        assert!(sim.adjacent(r2, r1));
        let iface = &sim.router(r1).ifaces[0];
        assert_eq!(iface.cost, 5);
        assert!(iface.ospf_active);
    }

    #[test]
    fn resolves_host_attachment() {
        let sim = SimNetwork::build(&net()).unwrap();
        let h = sim.host(sim.host_id("h1").unwrap());
        let r1 = sim.router_id("r1").unwrap();
        assert_eq!(h.attachment.map(|(r, _)| r), Some(r1));
        // the LAN iface carries the host as a peer
        let (rid, ii) = h.attachment.unwrap();
        assert!(sim.router(rid).ifaces[ii]
            .peers
            .iter()
            .any(|p| matches!(p, Peer::Host(_))));
    }

    #[test]
    fn resolves_bgp_session() {
        let sim = SimNetwork::build(&net()).unwrap();
        let r2 = sim.router(sim.router_id("r2").unwrap());
        assert_eq!(r2.asn, Some(Asn(65001)));
        assert_eq!(r2.sessions.len(), 1);
        let s = &r2.sessions[0];
        assert_eq!(s.remote_as, Asn(65002));
        assert_eq!(s.peer.map(|(r, _)| r), sim.router_id("r1"));
        assert_eq!(s.local_iface, Some(0));
    }

    #[test]
    fn network_statement_gates_activation() {
        let mut cfgs = net();
        // Remove the r2 network statement: its interface must go inactive.
        cfgs.routers
            .get_mut("r2")
            .unwrap()
            .ospf
            .as_mut()
            .unwrap()
            .networks
            .clear();
        let sim = SimNetwork::build(&cfgs).unwrap();
        let r2 = sim.router(sim.router_id("r2").unwrap());
        assert!(!r2.ifaces[0].ospf_active);
    }

    #[test]
    fn destinations_are_host_lans() {
        let sim = SimNetwork::build(&net()).unwrap();
        assert_eq!(sim.destinations.len(), 1);
        assert_eq!(sim.destinations[0].0, "10.1.0.0/24".parse().unwrap());
        assert_eq!(sim.destinations[0].1.len(), 1);
    }

    #[test]
    fn unattachable_host_is_tolerated() {
        let mut cfgs = net();
        cfgs.hosts.get_mut("h1").unwrap().gateway = "10.1.0.9".parse().unwrap();
        let sim = SimNetwork::build(&cfgs).unwrap();
        assert!(sim.host(HostId(0)).attachment.is_none());
    }

    #[test]
    fn igp_filter_resolution() {
        let r1 = parse_router(
            "hostname r1\n!\ninterface Ethernet0/0\n ip address 10.0.0.0 255.255.255.254\n!\nrouter ospf 1\n network 10.0.0.0 0.0.0.1 area 0\n distribute-list prefix F in Ethernet0/0\n!\nip prefix-list F seq 5 deny 10.9.0.0/24\n!\n",
        )
        .unwrap();
        let cfgs = NetworkConfigs::new([r1], []);
        let sim = SimNetwork::build(&cfgs).unwrap();
        let iface = &sim.routers[0].ifaces[0];
        assert!(iface.igp_denies(&"10.9.0.0/24".parse().unwrap()));
        assert!(!iface.igp_denies(&"10.8.0.0/24".parse().unwrap()));
    }
}
