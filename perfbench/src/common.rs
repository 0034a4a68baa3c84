//! Inputs and bookkeeping shared by the workloads: evaluation networks as
//! config-file bundles, the content hash every output is fingerprinted
//! with, seed derivation, peak memory, and the result record.

use confmask_config::{parse_host_as, parse_router_as, NetworkConfigs, Vendor};
use confmask_netgen::{fattree, smallnets, synthesize, wan};
use std::collections::BTreeMap;
use std::time::Instant;

/// A generated evaluation network and the IOS config files that are the
/// program's input.
pub struct Net {
    pub id: char,
    pub bundle: Vec<(String, String)>,
}

/// Generates Table 2 network `id` (only the nets the workloads use) and
/// renders it as its input files.
pub fn net(id: char) -> Net {
    let spec = match id {
        'A' => smallnets::enterprise(),
        'B' => smallnets::university(),
        'C' => smallnets::backbone(),
        'D' => wan::bics(),
        'F' => wan::uscarrier(),
        'G' => fattree::fattree_spec(4),
        'H' => fattree::fattree_spec(8),
        other => panic!("the benchmark does not use net {other}"),
    };
    Net {
        id,
        bundle: emit(&synthesize(&spec)),
    }
}

/// Renders a network as `(path, text)` IOS config files, routers then
/// hosts, each in name order.
pub fn emit(net: &NetworkConfigs) -> Vec<(String, String)> {
    let routers = net
        .routers
        .iter()
        .map(|(name, rc)| (format!("routers/{name}.cfg"), rc.emit_as(Vendor::Ios)));
    let hosts = net
        .hosts
        .iter()
        .map(|(name, hc)| (format!("hosts/{name}.cfg"), hc.emit_as(Vendor::Ios)));
    routers.chain(hosts).collect()
}

/// Parses a bundle written by [`emit`].
pub fn parse(bundle: &[(String, String)]) -> Result<NetworkConfigs, String> {
    let mut routers = Vec::new();
    let mut hosts = Vec::new();
    for (path, text) in bundle {
        let err = |e: confmask_config::ParseError| e.with_file(path.clone()).to_string();
        if path.starts_with("routers/") {
            routers.push(parse_router_as(Vendor::Ios, text).map_err(err)?);
        } else {
            hosts.push(parse_host_as(Vendor::Ios, text).map_err(err)?);
        }
    }
    Ok(NetworkConfigs::new(routers, hosts))
}

/// FNV-1a 64 over a byte stream — the fingerprint of every output the
/// determinism check compares.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Hash of a file bundle, independent of file order.
    pub fn of_files<'a>(files: impl IntoIterator<Item = (&'a str, &'a str)>) -> u64 {
        let sorted: BTreeMap<&str, &str> = files.into_iter().collect();
        let mut h = Fnv::default();
        for (path, text) in sorted {
            h.write(path.as_bytes());
            h.write(&[0]);
            h.write(text.as_bytes());
            h.write(&[0]);
        }
        h.0
    }
}

/// SplitMix64 finalizer: decorrelated sub-seeds from the workload seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Runs `setup` `reps` times and returns the last result with the median
/// set-up time in seconds: set-up is measured repeatedly so that work
/// moved into it shows as a stable number.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    let median = crate::stats::median(&times).expect("at least one set-up");
    (last.expect("at least one set-up"), median)
}

/// What one workload run produced: operation accounting, named metrics
/// (value, unit) and human-readable lines for the report.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a failed check (counted against `failed`).
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {}", what.into()));
    }
}

/// Asserts collection is off before an untraced timed region: end-to-end
/// numbers are only ever taken with `confmask_obs` disabled.
pub fn assert_untraced() {
    assert!(
        !confmask_obs::enabled(),
        "confmask_obs collection must be off in an untraced timed region"
    );
}
