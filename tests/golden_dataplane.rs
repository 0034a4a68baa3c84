//! Golden data planes: the FNV-1a 64 hash of the name-rendered data
//! planes behind each Table 2 network's anonymization at k_R = 6,
//! k_H = 2 and a fixed seed — the original network's baseline plane, then
//! the anonymized network's final plane.
//!
//! The hash input is, for every pair in stored order, `src dst`, each path
//! as its device names joined in stored order, and the black-hole and loop
//! flags. It pins the data plane's contents and order independently of
//! how paths are represented, so a change to the representation (router
//! ids, arenas, shared name tables) that alters a single hop, flag or
//! path order fails here.
//!
//! Nets E and F are `#[ignore]`d like the golden bundles; run them with
//! `cargo test --release -p confmask --test golden_dataplane -- --include-ignored`.

use confmask::{anonymize, DataPlane, Params};

const K_R: usize = 6;
const K_H: usize = 2;
const SEED: u64 = 0x60_1DE2;

fn fold(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

fn fold_dataplane(h: &mut u64, dp: &DataPlane) {
    for ps in dp.pairs() {
        fold(h, format!("{} {}\n", ps.src(), ps.dst()).as_bytes());
        for path in ps.to_names() {
            fold(h, path.join(" ").as_bytes());
            fold(h, b"\n");
        }
        fold(
            h,
            format!("blackhole={} loop={}\n", ps.blackhole(), ps.has_loop()).as_bytes(),
        );
    }
}

fn planes_hash(id: char) -> u64 {
    let net = confmask_netgen::suite::full_suite()
        .into_iter()
        .find(|n| n.id == id)
        .expect("Table 2 net");
    let params = Params::new(K_R, K_H).with_seed(SEED);
    let result = anonymize(&net.configs, &params).unwrap_or_else(|e| panic!("net {id}: {e}"));
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    fold_dataplane(&mut h, &result.baseline.sim.dataplane);
    fold_dataplane(&mut h, &result.final_sim.dataplane);
    h
}

fn check(id: char, expected: u64) {
    let got = planes_hash(id);
    assert_eq!(
        got, expected,
        "net {id}: data plane hash {got:#018x}, pinned {expected:#018x}"
    );
}

#[test]
fn golden_a() {
    check('A', 0xf833_5089_1084_2535);
}

#[test]
fn golden_b() {
    check('B', 0x4b38_7524_76a5_85e9);
}

#[test]
fn golden_c() {
    check('C', 0x6761_b8e6_da3a_f4e0);
}

#[test]
fn golden_d() {
    check('D', 0x4718_460a_836d_13ed);
}

#[test]
#[ignore = "slow: net E takes seconds per anonymization"]
fn golden_e() {
    check('E', 0x304b_c5c6_b9b9_407d);
}

#[test]
#[ignore = "slow: net F takes seconds per anonymization"]
fn golden_f() {
    check('F', 0xdcc6_7dbd_3ad0_19bc);
}

#[test]
fn golden_g() {
    check('G', 0x5927_50b5_a9b6_563d);
}

#[test]
fn golden_h() {
    check('H', 0xe534_5196_5f9a_b59b);
}
