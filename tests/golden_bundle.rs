//! Golden bundles: the FNV-1a 64 hash of the IOS bundle ConfMask emits for
//! each Table 2 network at k_R = 6, k_H = 2 and a fixed seed.
//!
//! The hashes pin the anonymizer's output byte for byte, so any change to
//! a simulation fast path (incremental control planes, FIB lookup, data
//! plane reuse) that alters a single emitted line fails here. A change
//! that is *meant* to alter the output must update the table and say why.
//!
//! Nets E and F take seconds per run even in release builds, so their
//! tests are `#[ignore]`d; run them with
//! `cargo test --release -p confmask --test golden_bundle -- --include-ignored`.

use confmask::{anonymize, Params, Vendor};
use std::collections::BTreeMap;

const K_R: usize = 6;
const K_H: usize = 2;
const SEED: u64 = 0x60_1DE2;

/// FNV-1a 64 over `path \0 text \0` for every emitted file in path order.
fn bundle_hash(files: &BTreeMap<String, String>) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for (path, text) in files {
        for b in path.bytes().chain([0]).chain(text.bytes()).chain([0]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

fn emitted_hash(id: char) -> u64 {
    let net = confmask_netgen::suite::full_suite()
        .into_iter()
        .find(|n| n.id == id)
        .expect("Table 2 net");
    let params = Params::new(K_R, K_H).with_seed(SEED);
    let result = anonymize(&net.configs, &params).unwrap_or_else(|e| panic!("net {id}: {e}"));
    let mut files = BTreeMap::new();
    for (name, rc) in &result.configs.routers {
        files.insert(format!("routers/{name}.cfg"), rc.emit_as(Vendor::Ios));
    }
    for (name, hc) in &result.configs.hosts {
        files.insert(format!("hosts/{name}.cfg"), hc.emit_as(Vendor::Ios));
    }
    bundle_hash(&files)
}

fn check(id: char, expected: u64) {
    let got = emitted_hash(id);
    assert_eq!(
        got, expected,
        "net {id}: emitted bundle hash {got:#018x}, pinned {expected:#018x}"
    );
}

#[test]
fn golden_a() {
    check('A', 0xb04b_edd7_5bdf_bb1d);
}

#[test]
fn golden_b() {
    check('B', 0xca3f_90c6_ad76_db85);
}

#[test]
fn golden_c() {
    check('C', 0xd1af_1588_52f2_4ef8);
}

#[test]
fn golden_d() {
    check('D', 0xa30a_2016_224a_d96d);
}

#[test]
#[ignore = "slow: net E takes seconds per anonymization"]
fn golden_e() {
    check('E', 0xf9c8_5c20_2cbf_7dc8);
}

#[test]
#[ignore = "slow: net F takes seconds per anonymization"]
fn golden_f() {
    check('F', 0x75e0_0689_524f_27e7);
}

#[test]
fn golden_g() {
    check('G', 0x3326_f1fc_cd47_c54c);
}

#[test]
fn golden_h() {
    check('H', 0x842b_f1e0_7833_4ca1);
}
