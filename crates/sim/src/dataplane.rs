//! Data-plane extraction: host-to-host forwarding paths, traceroute,
//! reachability, loop and black-hole detection.
//!
//! The data plane `DP` of §3.1 is "the collection of all host-to-host
//! routing paths in the network"; each path is a node sequence
//! `(h_s, r_1, …, r_n, h_d)`. Paths are enumerated by walking FIBs with
//! ECMP branching, which is exactly what Batfish's traceroute question does
//! for the original prototype.

use crate::error::SimError;
use crate::fib::{Fibs, NextHop};
use crate::network::SimNetwork;
use confmask_net_types::{HostId, RouterId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Cap on enumerated paths per host pair (ECMP explosion guard; far above
/// anything the evaluation networks produce).
pub const MAX_PATHS_PER_PAIR: usize = 256;

/// A fixed-width bitset over the pair indices of an interned host-pair
/// table: one bit per ordered host pair, packed 64 per word. The streaming
/// fault sweep uses it as the violated-pair bitmap of a scenario digest —
/// a network with 3 000 pairs costs 376 bytes per retained scenario
/// instead of a `BTreeMap` keyed by `(String, String)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairBits {
    bits: Vec<u64>,
    len: usize,
}

impl PairBits {
    /// An all-zero bitset over `len` pair indices.
    pub fn new(len: usize) -> Self {
        PairBits {
            bits: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// Number of pair indices covered (bit capacity, not popcount).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the bitset covers zero pairs.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`.
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "pair index {i} out of range {}", self.len);
        self.bits[i / 64] |= 1u64 << (i % 64);
    }

    /// Reads bit `i` (`false` when out of range).
    pub fn get(&self, i: usize) -> bool {
        i < self.len && self.bits[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates the set bit indices in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits.iter().enumerate().flat_map(|(wi, &w)| {
            let mut w = w;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let b = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(wi * 64 + b)
            })
        })
    }

    /// The packed words, least-significant pair first (canonical encoding).
    pub fn words(&self) -> &[u64] {
        &self.bits
    }

    /// Heap bytes retained by this bitset.
    pub fn retained_bytes(&self) -> usize {
        self.bits.capacity() * std::mem::size_of::<u64>()
    }
}

/// The forwarding behaviour between one (src, dst) host pair.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathSet {
    /// Complete forwarding paths, each `[h_s, r_1, …, r_n, h_d]` by device
    /// name, sorted and deduplicated.
    pub paths: Vec<Vec<String>>,
    /// Some branch dropped traffic (no FIB entry / undeliverable).
    pub blackhole: bool,
    /// Some branch entered a forwarding loop.
    pub has_loop: bool,
}

impl PathSet {
    /// Fully reachable: at least one path and no anomalous branch.
    pub fn clean(&self) -> bool {
        !self.paths.is_empty() && !self.blackhole && !self.has_loop
    }
}

/// All host-to-host forwarding paths (the paper's `DP`).
///
/// Path sets are stored behind [`Arc`] so that cloning a data plane — or
/// splicing unaffected pairs from a cached one into an incremental result —
/// shares the (potentially large) path vectors instead of deep-copying
/// them. Equality stays structural: two data planes compare equal iff their
/// pairs and path sets do, shared or not.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DataPlane {
    pairs: BTreeMap<(String, String), Arc<PathSet>>,
}

impl DataPlane {
    /// The path set between two hosts (by name).
    pub fn between(&self, src: &str, dst: &str) -> Option<&PathSet> {
        self.shared_between(src, dst).map(|ps| ps.as_ref())
    }

    /// The shared handle for a pair — lets callers reuse a path set in
    /// another data plane for the cost of a reference-count bump.
    pub fn shared_between(&self, src: &str, dst: &str) -> Option<&Arc<PathSet>> {
        self.pairs.get(&(src.to_string(), dst.to_string()))
    }

    /// Iterates over every `((src, dst), paths)` pair.
    pub fn pairs(&self) -> impl Iterator<Item = (&(String, String), &PathSet)> {
        self.pairs.iter().map(|(k, v)| (k, v.as_ref()))
    }

    /// Like [`DataPlane::pairs`], exposing the shared handles: two data
    /// planes that reuse a path set (the incremental engine's Arc sharing)
    /// yield pointer-equal handles, so a comparer can skip the deep path
    /// comparison for them.
    pub fn shared_pairs(&self) -> impl Iterator<Item = (&(String, String), &Arc<PathSet>)> {
        self.pairs.iter()
    }

    /// Number of host pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when no pairs exist.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The data plane restricted to pairs whose endpoints are both in
    /// `hosts` — used to compare an anonymized network with the original on
    /// the *real* hosts only (fake hosts are outside the equivalence
    /// mapping, Appendix A).
    pub fn restricted_to(&self, hosts: &BTreeSet<String>) -> DataPlane {
        DataPlane {
            pairs: self
                .pairs
                .iter()
                .filter(|((s, d), _)| hosts.contains(s) && hosts.contains(d))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }

    /// Exact route equivalence on a host subset: identical path sets for
    /// every pair (Definition 3.3's *route equivalence*).
    pub fn equivalent_on(&self, other: &DataPlane, hosts: &BTreeSet<String>) -> bool {
        self.restricted_to(hosts) == other.restricted_to(hosts)
    }

    /// Inserts a pair (used by the extractor and tests).
    pub fn insert(&mut self, src: String, dst: String, paths: PathSet) {
        self.insert_shared(src, dst, Arc::new(paths));
    }

    /// Inserts an already-shared path set without copying it.
    pub fn insert_shared(&mut self, src: String, dst: String, paths: Arc<PathSet>) {
        self.pairs.insert((src, dst), paths);
    }
}

/// Extracts the complete data plane: every ordered host pair.
///
/// Host pairs are independent, so tracing fans out pair-by-pair over the
/// shared executor (dynamic chunk claiming — the dominant cost of repeated
/// simulation in the anonymization pipeline, §5.4). Host names are
/// resolved once into an indexed table instead of `net.host(id).name`
/// lookups inside the hot pair loop, and the table is name-sorted so the
/// traced rows come out already in key order and the map bulk-builds from
/// a sorted sequence instead of rebalancing per insert. Results merge by
/// pair index, so the data plane is byte-identical at any worker count.
///
/// A panic inside one trace is contained: every sibling worker is still
/// joined and the first payload surfaces as [`SimError::TracePanic`]
/// instead of aborting the process.
pub fn extract_dataplane(net: &SimNetwork, fibs: &Fibs) -> Result<DataPlane, SimError> {
    let mut hosts: Vec<HostId> = net.hosts_iter().map(|(id, _)| id).collect();
    hosts.sort_by(|a, b| net.host(*a).name.cmp(&net.host(*b).name));
    let names: Vec<Arc<str>> = hosts
        .iter()
        .map(|&id| Arc::from(net.host(id).name.as_str()))
        .collect();
    // Ordered pairs in (src, dst) index order == (src, dst) name order.
    let mut pair_ids: Vec<(usize, usize)> = Vec::with_capacity(hosts.len() * hosts.len());
    for s in 0..hosts.len() {
        for d in 0..hosts.len() {
            if s != d {
                pair_ids.push((s, d));
            }
        }
    }

    let traced = confmask_exec::try_par_map(&pair_ids, |&(s, d)| {
        trace(net, fibs, hosts[s], hosts[d])
    })
    .map_err(|p| SimError::TracePanic(p.message()))?;

    let rows = pair_ids
        .iter()
        .zip(traced)
        .map(|(&(s, d), ps)| ((names[s].to_string(), names[d].to_string()), Arc::new(ps)));
    Ok(DataPlane {
        pairs: BTreeMap::from_iter(rows),
    })
}

/// An arena-backed path set over router *ids*: every enumerated path is a
/// span into one flat hop vector, so tracing a pair allocates nothing past
/// the first reuse and classifying the result never clones a device name.
///
/// `RouterId`s are assigned in lexicographic hostname order
/// ([`SimNetwork::build`]), so sorting id sequences orders spans exactly as
/// [`trace`] orders its name paths — a materialized arena is byte-identical
/// to the `PathSet` the name-level tracer would have produced. A span of
/// length zero is the same-LAN direct path (`[h_s, h_d]`, no routers).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathArena {
    /// Flat hop storage: router ids of every span, back to back.
    hops: Vec<u32>,
    /// One `(start, len)` span into `hops` per path.
    spans: Vec<(u32, u32)>,
    /// Some branch dropped traffic (no FIB entry / undeliverable).
    pub blackhole: bool,
    /// Some branch entered a forwarding loop.
    pub has_loop: bool,
}

impl PathArena {
    /// Resets the arena for the next pair, keeping the allocations.
    pub fn clear(&mut self) {
        self.hops.clear();
        self.spans.clear();
        self.blackhole = false;
        self.has_loop = false;
    }

    /// Number of recorded paths.
    pub fn path_count(&self) -> usize {
        self.spans.len()
    }

    /// Fully reachable: at least one path and no anomalous branch
    /// (mirror of [`PathSet::clean`]).
    pub fn clean(&self) -> bool {
        !self.spans.is_empty() && !self.blackhole && !self.has_loop
    }

    /// Iterates the paths as router-id slices (host endpoints excluded).
    pub fn paths(&self) -> impl Iterator<Item = &[u32]> {
        self.spans
            .iter()
            .map(|&(start, len)| &self.hops[start as usize..(start + len) as usize])
    }

    fn push_walk(&mut self, walk: &[RouterId]) {
        let start = self.hops.len() as u32;
        self.hops.extend(walk.iter().map(|r| r.0));
        self.spans.push((start, walk.len() as u32));
    }

    /// Sorts spans by hop sequence and drops duplicates — the id-level
    /// equivalent of the `sort` + `dedup` the name tracer applies.
    fn sort_dedup(&mut self) {
        let PathArena { hops, spans, .. } = self;
        let seg = |&(start, len): &(u32, u32)| &hops[start as usize..(start + len) as usize];
        spans.sort_by(|a, b| seg(a).cmp(seg(b)));
        spans.dedup_by(|a, b| seg(a) == seg(b));
    }

    /// Materializes the arena into a name-level [`PathSet`] with the given
    /// host endpoints.
    pub fn materialize(&self, net: &SimNetwork, src_name: &str, dst_name: &str) -> PathSet {
        let mut paths = Vec::with_capacity(self.spans.len());
        for hops in self.paths() {
            let mut p = Vec::with_capacity(hops.len() + 2);
            p.push(src_name.to_string());
            p.extend(hops.iter().map(|&r| net.router(RouterId(r)).name.clone()));
            p.push(dst_name.to_string());
            paths.push(p);
        }
        PathSet {
            paths,
            blackhole: self.blackhole,
            has_loop: self.has_loop,
        }
    }

    /// Allocation-free equality against a name-level path set: true iff
    /// [`PathArena::materialize`] would compare equal to `ps`. Host
    /// endpoints are equal by construction (the caller traced the same
    /// pair), so only flags and interior router names are compared.
    pub fn matches(&self, net: &SimNetwork, ps: &PathSet) -> bool {
        if self.blackhole != ps.blackhole
            || self.has_loop != ps.has_loop
            || self.spans.len() != ps.paths.len()
        {
            return false;
        }
        self.paths().zip(ps.paths.iter()).all(|(hops, path)| {
            path.len() == hops.len() + 2
                && hops
                    .iter()
                    .zip(path[1..].iter())
                    .all(|(&r, name)| net.router(RouterId(r)).name == *name)
        })
    }
}

/// Traces all forwarding paths from `src` to `dst` (the paper's
/// `traceroute(h_a, h_b)`).
pub fn trace(net: &SimNetwork, fibs: &Fibs, src: HostId, dst: HostId) -> PathSet {
    let mut arena = PathArena::default();
    trace_into(net, fibs, src, dst, &mut arena);
    let src_node = net.host(src);
    let dst_node = net.host(dst);
    arena.materialize(net, &src_node.name, &dst_node.name)
}

/// Traces `src → dst` into a caller-owned arena — the allocation-free core
/// of [`trace`]. The arena is cleared first, so it can be reused across an
/// entire sweep of pairs.
pub fn trace_into(net: &SimNetwork, fibs: &Fibs, src: HostId, dst: HostId, out: &mut PathArena) {
    out.clear();
    let src_node = net.host(src);
    let dst_node = net.host(dst);

    let Some((gw, _)) = src_node.attachment else {
        out.blackhole = true;
        return;
    };

    // Same-LAN special case: src and dst share a segment — direct delivery
    // (a zero-length span: no interior routers).
    if src_node.prefix == dst_node.prefix && src_node.attachment == dst_node.attachment {
        out.spans.push((out.hops.len() as u32, 0));
        return;
    }

    let mut walk: Vec<RouterId> = vec![gw];
    dfs(net, fibs, dst, &mut walk, out);
    out.sort_dedup();
}

fn dfs(net: &SimNetwork, fibs: &Fibs, dst: HostId, walk: &mut Vec<RouterId>, out: &mut PathArena) {
    if out.spans.len() >= MAX_PATHS_PER_PAIR {
        return;
    }
    let cur = *walk.last().expect("walk non-empty");
    let dst_node = net.host(dst);
    let entry = fibs.of(cur).lookup(dst_node.addr);
    let Some(entry) = entry else {
        out.blackhole = true;
        return;
    };
    for nh in &entry.next_hops {
        match nh {
            NextHop::Deliver { iface } => {
                // Delivery succeeds only if the destination host actually
                // sits on this router+interface.
                if dst_node.attachment == Some((cur, *iface)) {
                    out.push_walk(walk);
                } else {
                    out.blackhole = true;
                }
            }
            NextHop::Forward { router, .. } => {
                if walk.contains(router) {
                    out.has_loop = true;
                    continue;
                }
                walk.push(*router);
                dfs(net, fibs, dst, walk, out);
                walk.pop();
            }
        }
    }
}

/// The hosts among `hosts` reachable (cleanly) from a given router — used
/// by the route-anonymization algorithm (Algorithm 2) to check it never
/// breaks reachability. Each host costs one forwarding walk, so callers
/// pass only the hosts whose routes can have changed.
pub fn reachable_hosts_from_router(
    net: &SimNetwork,
    fibs: &Fibs,
    r: RouterId,
    hosts: impl IntoIterator<Item = HostId>,
) -> BTreeSet<HostId> {
    let mut reachable = BTreeSet::new();
    let mut out = PathArena::default();
    for hid in hosts {
        out.clear();
        let mut walk = vec![r];
        dfs(net, fibs, hid, &mut walk, &mut out);
        if out.clean() {
            reachable.insert(hid);
        }
    }
    reachable
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use confmask_config::{parse_router, HostConfig, NetworkConfigs};

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

    /// r1 —— r2, one host each; OSPF everywhere.
    fn two_net() -> NetworkConfigs {
        let r1 = parse_router(
            "hostname r1\n!\ninterface Ethernet0/0\n ip address 10.0.0.0 255.255.255.254\n!\ninterface Ethernet0/1\n ip address 10.1.1.1 255.255.255.0\n!\nrouter ospf 1\n network 0.0.0.0 255.255.255.255 area 0\n!\n",
        )
        .unwrap();
        let r2 = parse_router(
            "hostname r2\n!\ninterface Ethernet0/0\n ip address 10.0.0.1 255.255.255.254\n!\ninterface Ethernet0/1\n ip address 10.1.2.1 255.255.255.0\n!\nrouter ospf 1\n network 0.0.0.0 255.255.255.255 area 0\n!\n",
        )
        .unwrap();
        let mut cfgs = NetworkConfigs::new(
            [r1, r2],
            [
                host("h1", "10.1.1.100", "10.1.1.1"),
                host("h2", "10.1.2.100", "10.1.2.1"),
            ],
        );
        // Fix the `network 0.0.0.0/0` statements (wildcard form parses as /0 with address 0.0.0.0 — make it explicit).
        for rc in cfgs.routers.values_mut() {
            rc.ospf.as_mut().unwrap().networks[0].prefix = "0.0.0.0/0".parse().unwrap();
        }
        cfgs
    }

    #[test]
    fn end_to_end_two_router_path() {
        let sim = simulate(&two_net()).unwrap();
        let ps = sim.dataplane.between("h1", "h2").unwrap();
        assert!(ps.clean());
        assert_eq!(
            ps.paths,
            vec![vec![
                "h1".to_string(),
                "r1".into(),
                "r2".into(),
                "h2".into()
            ]]
        );
        // And the reverse direction.
        let ps = sim.dataplane.between("h2", "h1").unwrap();
        assert_eq!(
            ps.paths,
            vec![vec![
                "h2".to_string(),
                "r2".into(),
                "r1".into(),
                "h1".into()
            ]]
        );
    }

    #[test]
    fn same_lan_hosts_are_direct() {
        let mut cfgs = two_net();
        cfgs.hosts
            .insert("h1b".into(), host("h1b", "10.1.1.101", "10.1.1.1"));
        let sim = simulate(&cfgs).unwrap();
        let ps = sim.dataplane.between("h1", "h1b").unwrap();
        assert_eq!(ps.paths, vec![vec!["h1".to_string(), "h1b".into()]]);
    }

    #[test]
    fn missing_route_is_blackhole() {
        let mut cfgs = two_net();
        // Withdraw r2's LAN from OSPF.
        let r2 = cfgs.routers.get_mut("r2").unwrap();
        r2.ospf.as_mut().unwrap().networks[0].prefix = "10.0.0.0/31".parse().unwrap();
        let sim = simulate(&cfgs).unwrap();
        let ps = sim.dataplane.between("h1", "h2").unwrap();
        assert!(ps.blackhole);
        assert!(ps.paths.is_empty());
    }

    #[test]
    fn detached_host_is_blackhole() {
        let mut cfgs = two_net();
        cfgs.hosts.get_mut("h1").unwrap().gateway = "10.1.1.9".parse().unwrap();
        let sim = simulate(&cfgs).unwrap();
        assert!(sim.dataplane.between("h1", "h2").unwrap().blackhole);
    }

    #[test]
    fn reachability_from_each_router() {
        let sim = simulate(&two_net()).unwrap();
        for (rid, _) in sim.net.routers_iter() {
            let all = sim.net.hosts_iter().map(|(h, _)| h);
            let reach = reachable_hosts_from_router(&sim.net, &sim.fibs, rid, all);
            assert_eq!(reach.len(), 2, "every router reaches both hosts");
            let h2 = sim.net.host_id("h2").unwrap();
            let reach = reachable_hosts_from_router(&sim.net, &sim.fibs, rid, [h2]);
            assert_eq!(
                reach,
                BTreeSet::from([h2]),
                "only the asked hosts are walked"
            );
        }
    }

    #[test]
    fn pair_bits_set_get_iter() {
        let mut bits = PairBits::new(130);
        assert_eq!(bits.len(), 130);
        assert_eq!(bits.count_ones(), 0);
        for i in [0usize, 63, 64, 129] {
            bits.set(i);
        }
        assert!(bits.get(0) && bits.get(63) && bits.get(64) && bits.get(129));
        assert!(!bits.get(1) && !bits.get(500));
        assert_eq!(bits.count_ones(), 4);
        assert_eq!(bits.iter_ones().collect::<Vec<_>>(), vec![0, 63, 64, 129]);
        assert_eq!(bits.words().len(), 3);
    }

    #[test]
    fn arena_trace_matches_name_trace() {
        let sim = simulate(&two_net()).unwrap();
        let mut arena = PathArena::default();
        let ids: Vec<HostId> = sim.net.hosts_iter().map(|(id, _)| id).collect();
        for &s in &ids {
            for &d in &ids {
                if s == d {
                    continue;
                }
                trace_into(&sim.net, &sim.fibs, s, d, &mut arena);
                let named = trace(&sim.net, &sim.fibs, s, d);
                let (sn, dn) = (&sim.net.host(s).name, &sim.net.host(d).name);
                assert_eq!(arena.materialize(&sim.net, sn, dn), named);
                assert!(arena.matches(&sim.net, &named));
                // And a perturbed path set must NOT match.
                let mut other = named.clone();
                other.blackhole = !other.blackhole;
                assert!(!arena.matches(&sim.net, &other));
            }
        }
    }

    #[test]
    fn arena_same_lan_is_zero_length_span() {
        let mut cfgs = two_net();
        cfgs.hosts
            .insert("h1b".into(), host("h1b", "10.1.1.101", "10.1.1.1"));
        let sim = simulate(&cfgs).unwrap();
        let h1 = sim.net.hosts_iter().find(|(_, h)| h.name == "h1").unwrap().0;
        let h1b = sim
            .net
            .hosts_iter()
            .find(|(_, h)| h.name == "h1b")
            .unwrap()
            .0;
        let mut arena = PathArena::default();
        trace_into(&sim.net, &sim.fibs, h1, h1b, &mut arena);
        assert_eq!(arena.path_count(), 1);
        assert_eq!(arena.paths().next().unwrap().len(), 0);
        assert_eq!(
            arena.materialize(&sim.net, "h1", "h1b").paths,
            vec![vec!["h1".to_string(), "h1b".into()]]
        );
    }

    #[test]
    fn restricted_to_filters_pairs() {
        let sim = simulate(&two_net()).unwrap();
        let only_h1: BTreeSet<String> = ["h1".to_string()].into();
        assert!(sim.dataplane.restricted_to(&only_h1).is_empty());
        let both: BTreeSet<String> = ["h1".to_string(), "h2".to_string()].into();
        assert_eq!(sim.dataplane.restricted_to(&both).len(), 2);
        assert!(sim.dataplane.equivalent_on(&sim.dataplane, &both));
    }
}
