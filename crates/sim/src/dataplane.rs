//! Data-plane extraction: host-to-host forwarding paths, traceroute,
//! reachability, loop and black-hole detection.
//!
//! The data plane `DP` of §3.1 is "the collection of all host-to-host
//! routing paths in the network"; each path is a node sequence
//! `(h_s, r_1, …, r_n, h_d)`. Paths are enumerated by walking FIBs with
//! ECMP branching, which is exactly what Batfish's traceroute question does
//! for the original prototype.
//!
//! A [`DataPlane`] stores each pair's paths as router-id spans
//! ([`PathArena`]) over one shared [`NameTable`]; device names are
//! resolved only at the edges ([`PairPaths::to_names`], violation
//! messages, synthetic planes built with [`DataPlane::from_names`]).
//! Comparing two planes of one network is span equality; comparing two
//! networks translates ids once through an [`IdMap`].

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

/// The device names a data plane's ids refer to: routers indexed by
/// [`RouterId`], hosts in ascending name order.
///
/// One table is shared (behind an [`Arc`]) by a data plane and every
/// restriction or clone of it, so paths are stored as router ids and names
/// are resolved only where a caller asks for them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NameTable {
    routers: Vec<String>,
    hosts: Vec<String>,
}

impl NameTable {
    /// A table over `routers` (index = router id) and `hosts`, which must
    /// be strictly ascending: pair order and name order coincide only then
    /// (configurations key hosts by hostname, so they always are).
    pub fn new(routers: Vec<String>, hosts: Vec<String>) -> NameTable {
        debug_assert!(
            hosts.windows(2).all(|w| w[0] < w[1]),
            "host names must be unique and sorted"
        );
        NameTable { routers, hosts }
    }

    /// The name of router `id`.
    pub fn router(&self, id: u32) -> &str {
        &self.routers[id as usize]
    }

    /// The name of host index `i`.
    pub fn host(&self, i: u32) -> &str {
        &self.hosts[i as usize]
    }

    /// Router names, by router id.
    pub fn routers(&self) -> &[String] {
        &self.routers
    }

    /// Host names, ascending (index = host index).
    pub fn hosts(&self) -> &[String] {
        &self.hosts
    }

    /// The index of a host by name.
    pub fn host_index(&self, name: &str) -> Option<u32> {
        self.hosts
            .binary_search_by(|h| h.as_str().cmp(name))
            .ok()
            .map(|i| i as u32)
    }
}

/// Marks a router or host with no counterpart in the target table of an
/// [`IdMap`].
pub const UNMAPPED: u32 = u32::MAX;

/// Router- and host-id translation from one [`NameTable`] into another:
/// the one step a cross-network comparison (original vs anonymized data
/// plane) pays before comparing paths as ids.
///
/// Both tables order routers by name (`RouterId`s follow lexicographic
/// hostname order) and hosts by name, so the translation is strictly
/// increasing on its domain: a canonically sorted arena stays sorted after
/// translation, and positional comparison of translated ids agrees with
/// positional comparison of the names they stand for.
#[derive(Debug, Clone)]
pub struct IdMap {
    routers: Vec<u32>,
    hosts: Vec<u32>,
    identity: bool,
}

impl IdMap {
    /// The translation from `from`'s ids into `to`'s.
    pub fn new(from: &NameTable, to: &NameTable) -> IdMap {
        if std::ptr::eq(from, to) || from == to {
            return IdMap {
                routers: Vec::new(),
                hosts: Vec::new(),
                identity: true,
            };
        }
        let index = |names: &[String], target: &[String]| -> Vec<u32> {
            let by_name: BTreeMap<&str, u32> = target
                .iter()
                .enumerate()
                .map(|(i, n)| (n.as_str(), i as u32))
                .collect();
            names
                .iter()
                .map(|n| by_name.get(n.as_str()).copied().unwrap_or(UNMAPPED))
                .collect()
        };
        IdMap {
            routers: index(&from.routers, &to.routers),
            hosts: index(&from.hosts, &to.hosts),
            identity: false,
        }
    }

    /// Both tables are equal: every id maps to itself.
    pub fn is_identity(&self) -> bool {
        self.identity
    }

    /// The target id of router `r` ([`UNMAPPED`] when absent, or when
    /// `r` is itself [`UNMAPPED`]).
    pub fn router(&self, r: u32) -> u32 {
        if self.identity {
            r
        } else {
            self.routers.get(r as usize).copied().unwrap_or(UNMAPPED)
        }
    }

    /// The target index of host `h` ([`UNMAPPED`] when absent).
    pub fn host(&self, h: u32) -> u32 {
        if self.identity {
            h
        } else {
            self.hosts[h as usize]
        }
    }
}

/// One pair's forwarding paths over router *ids*: every path is a span
/// into one flat hop vector, so tracing a pair allocates nothing past the
/// first reuse and comparing two pairs of the same network is slice
/// equality.
///
/// `RouterId`s are assigned in lexicographic hostname order
/// ([`SimNetwork::build`]), so [`trace_into`]'s id-sorted spans are also
/// name-sorted. A span of length zero is the same-LAN direct path
/// (`[h_s, h_d]`, no routers). Host endpoints are not stored: the data
/// plane keys each arena by its pair.
///
/// Equality is logical — flags plus the sequence of paths — whatever the
/// hop vector's layout; [`PathArena::compacted`] gives the canonical
/// layout a [`DataPlane`] stores.
#[derive(Debug, Clone, Default)]
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

impl PartialEq for PathArena {
    fn eq(&self, other: &PathArena) -> bool {
        self.blackhole == other.blackhole
            && self.has_loop == other.has_loop
            && self.spans.len() == other.spans.len()
            && self.paths().zip(other.paths()).all(|(a, b)| a == b)
    }
}

impl Eq for PathArena {}

impl PathArena {
    /// The behaviour of a pair missing from a data plane: dropped, no path.
    pub fn dropped() -> PathArena {
        PathArena {
            blackhole: true,
            ..PathArena::default()
        }
    }

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

    /// Fully reachable: at least one path and no anomalous branch.
    pub fn clean(&self) -> bool {
        !self.spans.is_empty() && !self.blackhole && !self.has_loop
    }

    /// Iterates the paths as router-id slices (host endpoints excluded).
    pub fn paths(&self) -> impl ExactSizeIterator<Item = &[u32]> {
        self.spans
            .iter()
            .map(|&(start, len)| &self.hops[start as usize..(start + len) as usize])
    }

    /// The same paths and flags with the hops packed in span order and no
    /// spare capacity — the canonical layout a data plane stores.
    pub fn compacted(&self) -> PathArena {
        let mut out = PathArena {
            hops: Vec::with_capacity(self.paths().map(<[u32]>::len).sum()),
            spans: Vec::with_capacity(self.spans.len()),
            blackhole: self.blackhole,
            has_loop: self.has_loop,
        };
        for p in self.paths() {
            out.push_ids(p.iter().copied());
        }
        out
    }

    /// Whether translating this arena's router ids through `map` yields
    /// exactly `other` (flags and paths, in order).
    pub fn eq_mapped(&self, map: &IdMap, other: &PathArena) -> bool {
        self.blackhole == other.blackhole
            && self.has_loop == other.has_loop
            && self.paths_eq_mapped(map, other)
    }

    /// Like [`PathArena::eq_mapped`], comparing the paths only.
    pub fn paths_eq_mapped(&self, map: &IdMap, other: &PathArena) -> bool {
        self.spans.len() == other.spans.len()
            && self.paths().zip(other.paths()).all(|(a, b)| {
                if map.is_identity() {
                    return a == b;
                }
                a.len() == b.len()
                    && a.iter().zip(b).all(|(&x, &y)| {
                        let x = map.router(x);
                        x != UNMAPPED && x == y
                    })
            })
    }

    /// This arena with every router id translated through `map`; a router
    /// the target table lacks becomes [`UNMAPPED`], which no traced path
    /// contains.
    pub fn mapped(&self, map: &IdMap) -> PathArena {
        let mut out = PathArena {
            blackhole: self.blackhole,
            has_loop: self.has_loop,
            ..PathArena::default()
        };
        for p in self.paths() {
            out.push_ids(p.iter().map(|&r| map.router(r)));
        }
        out
    }

    fn push_ids(&mut self, ids: impl Iterator<Item = u32>) {
        let start = self.hops.len() as u32;
        self.hops.extend(ids);
        self.spans.push((start, self.hops.len() as u32 - start));
    }

    /// Sorts spans by hop sequence and drops duplicates.
    fn sort_dedup(&mut self) {
        let PathArena { hops, spans, .. } = self;
        let seg = |&(start, len): &(u32, u32)| &hops[start as usize..(start + len) as usize];
        spans.sort_by(|a, b| seg(a).cmp(seg(b)));
        spans.dedup_by(|a, b| seg(a) == seg(b));
    }
}

/// One host pair of a [`DataPlane`], read through the plane's name table:
/// the id-level [`PathArena`] plus name resolution for the edges
/// (traceroute output, violation messages, mined policies).
#[derive(Clone, Copy)]
pub struct PairPaths<'a> {
    names: &'a NameTable,
    src: u32,
    dst: u32,
    paths: &'a Arc<PathArena>,
}

impl<'a> PairPaths<'a> {
    /// Source host name.
    pub fn src(&self) -> &'a str {
        self.names.host(self.src)
    }

    /// Destination host name.
    pub fn dst(&self) -> &'a str {
        self.names.host(self.dst)
    }

    /// The id-level paths.
    pub fn arena(&self) -> &'a PathArena {
        self.paths
    }

    /// The shared handle of the id-level paths.
    pub fn shared(&self) -> &'a Arc<PathArena> {
        self.paths
    }

    /// The name of router `id` of this pair's data plane.
    pub fn router(&self, id: u32) -> &'a str {
        self.names.router(id)
    }

    /// Number of paths.
    pub fn path_count(&self) -> usize {
        self.paths.path_count()
    }

    /// Some branch dropped traffic.
    pub fn blackhole(&self) -> bool {
        self.paths.blackhole
    }

    /// Some branch entered a forwarding loop.
    pub fn has_loop(&self) -> bool {
        self.paths.has_loop
    }

    /// Fully reachable: at least one path and no anomalous branch.
    pub fn clean(&self) -> bool {
        self.paths.clean()
    }

    /// Each path's interior routers, by name.
    pub fn routers(&self) -> impl Iterator<Item = impl Iterator<Item = &'a str>> + 'a {
        let names = self.names;
        let arena: &'a PathArena = self.paths;
        arena
            .paths()
            .map(move |p| p.iter().map(move |&r| names.router(r)))
    }

    /// The paths rendered as device-name sequences `[h_s, r_1, …, h_d]`.
    pub fn to_names(&self) -> Vec<Vec<String>> {
        self.routers()
            .map(|routers| {
                std::iter::once(self.src())
                    .chain(routers)
                    .chain(std::iter::once(self.dst()))
                    .map(str::to_owned)
                    .collect()
            })
            .collect()
    }
}

/// Name-level equality: the same flags and, path by path, the same device
/// names — what comparing [`PairPaths::to_names`] renderings would say,
/// without rendering.
impl PartialEq for PairPaths<'_> {
    fn eq(&self, other: &PairPaths<'_>) -> bool {
        let (a, b) = (self.arena(), other.arena());
        a.blackhole == b.blackhole
            && a.has_loop == b.has_loop
            && a.path_count() == b.path_count()
            && (a.path_count() == 0 || (self.src(), self.dst()) == (other.src(), other.dst()))
            && self.routers().zip(other.routers()).all(|(x, y)| x.eq(y))
    }
}

impl std::fmt::Debug for PairPaths<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PairPaths")
            .field("src", &self.src())
            .field("dst", &self.dst())
            .field("paths", &self.to_names())
            .field("blackhole", &self.blackhole())
            .field("has_loop", &self.has_loop())
            .finish()
    }
}

/// One stored pair: host indices into the name table plus its paths.
#[derive(Debug, Clone)]
struct PairEntry {
    src: u32,
    dst: u32,
    paths: Arc<PathArena>,
}

/// All host-to-host forwarding paths (the paper's `DP`), as router-id
/// arenas keyed by host-index pairs over one shared [`NameTable`].
///
/// Pairs are kept in ascending `(src, dst)` index order, which is name
/// order because the host table is sorted. Path arenas sit behind
/// [`Arc`], so cloning a data plane — or splicing unaffected pairs from a
/// cached one into an incremental result — shares them instead of
/// copying. Equality is by name: two data planes compare equal iff they
/// hold the same host pairs with the same device-name paths, whatever
/// their tables' ids.
#[derive(Debug, Clone, Default)]
pub struct DataPlane {
    names: Arc<NameTable>,
    pairs: Vec<PairEntry>,
}

impl PartialEq for DataPlane {
    fn eq(&self, other: &DataPlane) -> bool {
        if self.pairs.len() != other.pairs.len() {
            return false;
        }
        let map = IdMap::new(&self.names, &other.names);
        // Host indices are name-ordered in both tables, so equal planes
        // list their pairs in the same order.
        self.pairs.iter().zip(&other.pairs).all(|(a, b)| {
            map.host(a.src) == b.src
                && map.host(a.dst) == b.dst
                && ((map.is_identity() && Arc::ptr_eq(&a.paths, &b.paths))
                    || a.paths.eq_mapped(&map, &b.paths))
        })
    }
}

impl Eq for DataPlane {}

impl DataPlane {
    /// The shared name table.
    pub fn names(&self) -> &Arc<NameTable> {
        &self.names
    }

    fn view<'a>(&'a self, e: &'a PairEntry) -> PairPaths<'a> {
        PairPaths {
            names: &self.names,
            src: e.src,
            dst: e.dst,
            paths: &e.paths,
        }
    }

    /// The position of the pair between two hosts (by name) in
    /// [`DataPlane::pairs`] order.
    pub fn index_of(&self, src: &str, dst: &str) -> Option<usize> {
        let key = (self.names.host_index(src)?, self.names.host_index(dst)?);
        self.pairs
            .binary_search_by(|e| (e.src, e.dst).cmp(&key))
            .ok()
    }

    /// The pair at position `i` of [`DataPlane::pairs`] order.
    pub fn pair(&self, i: usize) -> PairPaths<'_> {
        self.view(&self.pairs[i])
    }

    /// The paths between two hosts (by name).
    pub fn between(&self, src: &str, dst: &str) -> Option<PairPaths<'_>> {
        self.index_of(src, dst).map(|i| self.pair(i))
    }

    /// Iterates every pair in `(src, dst)` name order.
    pub fn pairs(&self) -> impl ExactSizeIterator<Item = PairPaths<'_>> {
        self.pairs.iter().map(|e| self.view(e))
    }

    /// Number of host pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when no pairs exist.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Whether the plane holds exactly every ordered pair of distinct
    /// hosts of its table, in order — as [`extract_dataplane`] builds it,
    /// so pair `i` is the `i`-th pair of the host enumeration.
    pub fn is_complete(&self) -> bool {
        let n = self.names.hosts.len() as u32;
        self.pairs.len() == (n as usize) * (n as usize).saturating_sub(1)
            && (0..n)
                .flat_map(|s| (0..n).filter(move |&d| d != s).map(move |d| (s, d)))
                .zip(&self.pairs)
                .all(|(k, e)| k == (e.src, e.dst))
    }

    /// Replaces the paths of the pair at position `i` — the incremental
    /// engine's splice of a re-traced pair into a cloned base plane.
    pub fn set_paths(&mut self, i: usize, paths: PathArena) {
        self.pairs[i].paths = Arc::new(paths);
    }

    /// The data plane restricted to pairs whose endpoints are both in
    /// `hosts` — used to compare an anonymized network with the original on
    /// the *real* hosts only (fake hosts are outside the equivalence
    /// mapping, Appendix A). The name table and path arenas are shared.
    pub fn restricted_to(&self, hosts: &BTreeSet<String>) -> DataPlane {
        let keep: Vec<bool> = self.names.hosts.iter().map(|h| hosts.contains(h)).collect();
        DataPlane {
            names: Arc::clone(&self.names),
            pairs: self
                .pairs
                .iter()
                .filter(|e| keep[e.src as usize] && keep[e.dst as usize])
                .cloned()
                .collect(),
        }
    }

    /// Exact route equivalence on a host subset: identical path sets for
    /// every pair (Definition 3.3's *route equivalence*).
    pub fn equivalent_on(&self, other: &DataPlane, hosts: &BTreeSet<String>) -> bool {
        self.restricted_to(hosts) == other.restricted_to(hosts)
    }

    /// Builds a data plane from device names — the edge form for planes
    /// that are not traced (synthetic virtual topologies, tests). Each row
    /// is `(src, dst, paths, blackhole, has_loop)` with every path given
    /// as `[h_s, r_1, …, r_n, h_d]`; paths keep the given order. Router
    /// ids are assigned in name order, as [`SimNetwork::build`] does.
    pub fn from_names<S: AsRef<str>>(
        rows: impl IntoIterator<Item = (S, S, Vec<Vec<S>>, bool, bool)>,
    ) -> DataPlane {
        let rows: Vec<_> = rows.into_iter().collect();
        let mut hosts = BTreeSet::new();
        let mut routers = BTreeSet::new();
        for (s, d, paths, _, _) in &rows {
            hosts.insert(s.as_ref());
            hosts.insert(d.as_ref());
            for p in paths {
                let interior = p.get(1..p.len().saturating_sub(1)).unwrap_or(&[]);
                routers.extend(interior.iter().map(S::as_ref));
            }
        }
        let names = NameTable::new(
            routers.iter().map(|r| r.to_string()).collect(),
            hosts.iter().map(|h| h.to_string()).collect(),
        );
        let router_id: BTreeMap<&str, u32> = routers
            .iter()
            .enumerate()
            .map(|(i, r)| (*r, i as u32))
            .collect();
        let mut pairs: Vec<PairEntry> = rows
            .iter()
            .map(|(s, d, paths, blackhole, has_loop)| {
                let mut arena = PathArena {
                    blackhole: *blackhole,
                    has_loop: *has_loop,
                    ..PathArena::default()
                };
                for p in paths {
                    let interior = p.get(1..p.len().saturating_sub(1)).unwrap_or(&[]);
                    arena.push_ids(interior.iter().map(|r| router_id[r.as_ref()]));
                }
                PairEntry {
                    src: names.host_index(s.as_ref()).expect("interned"),
                    dst: names.host_index(d.as_ref()).expect("interned"),
                    paths: Arc::new(arena),
                }
            })
            .collect();
        // A repeated pair keeps its last row, as a map insert would.
        pairs.reverse();
        pairs.sort_by_key(|e| (e.src, e.dst));
        pairs.dedup_by_key(|e| (e.src, e.dst));
        DataPlane {
            names: Arc::new(names),
            pairs,
        }
    }
}

/// Extracts the complete data plane: every ordered host pair.
///
/// Host pairs are independent, so tracing fans out source by source over
/// the shared executor, each worker tracing into one reused scratch arena
/// and keeping a compacted copy per pair. Hosts are name-sorted, so the
/// traced rows come out already in pair order; results merge by source
/// index, so the data plane is byte-identical at any worker count.
///
/// A panic inside one trace is contained: every sibling worker is still
/// joined and the first payload surfaces as [`SimError::TracePanic`]
/// instead of aborting the process.
pub fn extract_dataplane(net: &SimNetwork, fibs: &Fibs) -> Result<DataPlane, SimError> {
    let mut hosts: Vec<HostId> = net.hosts_iter().map(|(id, _)| id).collect();
    hosts.sort_by(|a, b| net.host(*a).name.cmp(&net.host(*b).name));
    let names = NameTable::new(
        net.routers_iter().map(|(_, r)| r.name.clone()).collect(),
        hosts.iter().map(|&h| net.host(h).name.clone()).collect(),
    );
    let srcs: Vec<u32> = (0..hosts.len() as u32).collect();
    let rows = confmask_exec::try_par_map(&srcs, |&s| {
        let mut scratch = PathArena::default();
        let mut row = Vec::with_capacity(hosts.len().saturating_sub(1));
        for d in 0..hosts.len() as u32 {
            if d != s {
                trace_into(
                    net,
                    fibs,
                    hosts[s as usize],
                    hosts[d as usize],
                    &mut scratch,
                );
                row.push(PairEntry {
                    src: s,
                    dst: d,
                    paths: Arc::new(scratch.compacted()),
                });
            }
        }
        row
    })
    .map_err(|p| SimError::TracePanic(p.message()))?;
    Ok(DataPlane {
        names: Arc::new(names),
        pairs: rows.into_iter().flatten().collect(),
    })
}

/// Traces all forwarding paths from `src` to `dst` (the paper's
/// `traceroute(h_a, h_b)`), as a compacted arena.
pub fn trace(net: &SimNetwork, fibs: &Fibs, src: HostId, dst: HostId) -> PathArena {
    let mut arena = PathArena::default();
    trace_into(net, fibs, src, dst, &mut arena);
    arena.compacted()
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
                    out.push_ids(walk.iter().map(|r| r.0));
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
            ps.to_names(),
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
            ps.to_names(),
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
        assert_eq!(ps.to_names(), vec![vec!["h1".to_string(), "h1b".into()]]);
    }

    #[test]
    fn missing_route_is_blackhole() {
        let mut cfgs = two_net();
        // Withdraw r2's LAN from OSPF.
        let r2 = cfgs.routers.get_mut("r2").unwrap();
        r2.ospf.as_mut().unwrap().networks[0].prefix = "10.0.0.0/31".parse().unwrap();
        let sim = simulate(&cfgs).unwrap();
        let ps = sim.dataplane.between("h1", "h2").unwrap();
        assert!(ps.blackhole());
        assert_eq!(ps.path_count(), 0);
    }

    #[test]
    fn detached_host_is_blackhole() {
        let mut cfgs = two_net();
        cfgs.hosts.get_mut("h1").unwrap().gateway = "10.1.1.9".parse().unwrap();
        let sim = simulate(&cfgs).unwrap();
        assert!(sim.dataplane.between("h1", "h2").unwrap().blackhole());
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
        // Each stored pair is its compacted trace, and renders to the
        // name paths the trace's router ids stand for.
        let sim = simulate(&two_net()).unwrap();
        assert!(sim.dataplane.is_complete());
        let mut arena = PathArena::default();
        for ps in sim.dataplane.pairs() {
            let s = sim.net.host_id(ps.src()).unwrap();
            let d = sim.net.host_id(ps.dst()).unwrap();
            trace_into(&sim.net, &sim.fibs, s, d, &mut arena);
            assert_eq!(ps.arena(), &arena);
            assert_eq!(ps.arena(), &trace(&sim.net, &sim.fibs, s, d));
            let named: Vec<Vec<String>> = arena
                .paths()
                .map(|hops| {
                    let mut p = vec![ps.src().to_string()];
                    p.extend(
                        hops.iter()
                            .map(|&r| sim.net.router(RouterId(r)).name.clone()),
                    );
                    p.push(ps.dst().to_string());
                    p
                })
                .collect();
            assert_eq!(ps.to_names(), named);
            // A flipped flag is a different path set.
            let mut other = arena.clone();
            other.blackhole = !other.blackhole;
            assert_ne!(ps.arena(), &other);
        }
    }

    #[test]
    fn arena_equality_ignores_hop_layout() {
        // Same paths pushed in a different order, then sorted: the hop
        // vectors differ, the arenas are equal and compact identically.
        let mut a = PathArena::default();
        a.push_ids([3, 1].into_iter());
        a.push_ids([2].into_iter());
        a.sort_dedup();
        let mut b = PathArena::default();
        b.push_ids([2].into_iter());
        b.push_ids([3, 1].into_iter());
        b.push_ids([2].into_iter());
        b.sort_dedup();
        assert_ne!(a.hops, b.hops);
        assert_eq!(a, b);
        assert_eq!(a.compacted().hops, b.compacted().hops);
        assert_eq!(a.paths().collect::<Vec<_>>(), vec![&[2][..], &[3, 1][..]]);
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
        assert_eq!(sim.dataplane.between("h1", "h1b").unwrap().arena(), &arena);
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

    #[test]
    fn from_names_round_trips_a_traced_plane() {
        let sim = simulate(&two_net()).unwrap();
        let rows: Vec<_> = sim
            .dataplane
            .pairs()
            .map(|ps| {
                (
                    ps.src().to_string(),
                    ps.dst().to_string(),
                    ps.to_names(),
                    ps.blackhole(),
                    ps.has_loop(),
                )
            })
            .collect();
        let rebuilt = DataPlane::from_names(rows);
        // Both tables hold r1 and r2 in name order, so the ids coincide.
        assert_eq!(rebuilt, sim.dataplane);
        assert_eq!(sim.dataplane, rebuilt);
        assert_eq!(
            rebuilt.between("h1", "h2").unwrap(),
            sim.dataplane.between("h1", "h2").unwrap()
        );
    }
}
