//! `sweep-faults`: every k = 1 link failure of nets D, F and H, plus a
//! seeded k = 2 sample on D, streamed through `ScenarioSweep` against
//! baselines converged during set-up.
//!
//! The delta engine, the digest fold and the executor do the work here and
//! the anonymization pipeline does none, so a `route_anon` gain should not
//! move these numbers, while k = 2 digests repeat heavily — where symmetry
//! reduction would show.

use crate::common::{self, assert_untraced, mix, Fnv, Outcome};
use crate::stats::median;
use confmask_config::NetworkConfigs;
use confmask_sim::fault::{
    enumerate_single_link_failures, run_scenario, sample_double_link_failures, FailureScenario,
};
use confmask_sim::sweep::{ScenarioDigest, SweepReducer, SweepStats};
use confmask_sim::SimError;
use confmask_sim_delta::sweep::ScenarioSweep;
use confmask_sim_delta::{ConvergedSim, DeltaEngine};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;
use std::time::Instant;

pub const NETS: [char; 3] = ['D', 'F', 'H'];
/// The net whose k = 2 space is sampled, and the sample size.
pub const K2_NET: char = 'D';
pub const K2_SAMPLE: usize = 384;
/// Scenarios per scenario list re-checked against the cold oracle.
const CHECKS: usize = 6;

/// One net, converged on a fresh engine, with its scenario lists.
struct SweepNet {
    id: char,
    configs: NetworkConfigs,
    engine: DeltaEngine,
    base: Arc<ConvergedSim>,
    k1: Vec<FailureScenario>,
    k2: Vec<FailureScenario>,
}

impl SweepNet {
    /// Parses the generated input, converges it on a fresh engine (no
    /// state shared with any other caller) and enumerates its scenarios.
    fn prepare(id: char, seed: u64) -> SweepNet {
        let configs = common::parse(&common::net(id).bundle).expect("generated input parses");
        let engine = DeltaEngine::new(4);
        let base = engine
            .converged(&configs)
            .expect("healthy network converges");
        let k1 = enumerate_single_link_failures(&configs);
        let k2 = if id == K2_NET {
            sample_double_link_failures(&configs, mix(seed, 2), K2_SAMPLE)
        } else {
            Vec::new()
        };
        SweepNet {
            id,
            configs,
            engine,
            base,
            k1,
            k2,
        }
    }

    fn sweep(&self) -> ScenarioSweep<'_> {
        ScenarioSweep::new(&self.engine, &self.base, &self.base.sim.dataplane)
    }
}

/// Folds a digest stream into one hash (the determinism fingerprint), the
/// number of distinct digests, and the digests at the indices kept for
/// the cold re-check.
#[derive(Default)]
pub struct Fold {
    pub hash: Fnv,
    pub distinct: HashSet<u64>,
    pub errors: usize,
    keep: BTreeSet<usize>,
    kept: BTreeMap<usize, ScenarioDigest>,
}

impl Fold {
    fn keeping(n: usize) -> Fold {
        let keep = (0..CHECKS.min(n)).map(|k| k * n / CHECKS.min(n)).collect();
        Fold {
            keep,
            ..Fold::default()
        }
    }
}

impl SweepReducer for Fold {
    fn fold(&mut self, i: usize, digest: ScenarioDigest) {
        let bytes = digest.encode();
        let mut one = Fnv::default();
        one.write(&bytes);
        self.distinct.insert(one.0);
        self.hash.write(&(i as u64).to_le_bytes());
        self.hash.write(&bytes);
        if self.keep.contains(&i) {
            self.kept.insert(i, digest);
        }
    }

    fn fold_err(&mut self, i: usize, _error: SimError) {
        self.errors += 1;
        self.hash.write(&(i as u64).to_le_bytes());
        self.hash.write(b"error");
    }
}

/// Re-runs the kept scenarios through the cold `run_scenario` oracle and
/// compares digests. Returns the number of mismatches.
fn check(net: &SweepNet, scenarios: &[FailureScenario], fold: &Fold) -> Result<usize, String> {
    let cold = confmask_sim::simulate(&net.configs).map_err(|e| e.to_string())?;
    let table = net.sweep().table();
    let mut mismatches = 0;
    for (&i, digest) in &fold.kept {
        let outcome = run_scenario(&net.configs, &cold.dataplane, &scenarios[i])
            .map_err(|e| e.to_string())?;
        if ScenarioDigest::from_outcome(&outcome, &table) != *digest {
            mismatches += 1;
        }
    }
    Ok(mismatches)
}

/// Sweeps `scenarios` of one net into a fresh fold.
pub fn sweep_once(sweep: &ScenarioSweep<'_>, scenarios: &[FailureScenario]) -> (Fold, SweepStats) {
    let mut fold = Fold::keeping(scenarios.len());
    let stats = sweep.run(scenarios.iter(), &mut fold);
    (fold, stats)
}

pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut o = Outcome::default();
    // Set-up: generate, parse, converge and enumerate — and intern each
    // sweep's pair table — on fresh engines, five times.
    let (nets, setup_s) = common::timed_setup(5, || {
        let nets = NETS.map(|id| SweepNet::prepare(id, seed));
        for n in &nets {
            drop(n.sweep());
        }
        nets
    });
    let sweeps: Vec<ScenarioSweep<'_>> = nets.iter().map(SweepNet::sweep).collect();
    let k2_idx = NETS
        .iter()
        .position(|&id| id == K2_NET)
        .expect("k2 net is swept");

    let (mut k1_secs, mut k2_secs) = (Vec::new(), Vec::new());
    let mut first: Option<(Vec<Fold>, Fold)> = None;
    let mut distinct_ratio = 0.0;
    let mut peak_rss_mb = f64::NAN;
    let start = Instant::now();
    // Whole passes only; at least two, so every stream is hashed twice.
    while k1_secs.len() < 2 || {
        let pass = k1_secs.last().copied().unwrap_or(0.0) + k2_secs.last().copied().unwrap_or(0.0);
        start.elapsed().as_secs_f64() + pass <= seconds
    } {
        assert_untraced();
        let t = Instant::now();
        let k1: Vec<Fold> = nets
            .iter()
            .zip(&sweeps)
            .map(|(n, s)| sweep_once(s, &n.k1).0)
            .collect();
        k1_secs.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let (k2, _) = sweep_once(&sweeps[k2_idx], &nets[k2_idx].k2);
        k2_secs.push(t.elapsed().as_secs_f64());
        o.attempted +=
            (nets.iter().map(|n| n.k1.len()).sum::<usize>() + nets[k2_idx].k2.len()) as u64;
        for f in k1.iter().chain([&k2]) {
            if f.errors > 0 {
                o.failed += f.errors as u64;
                o.note(format!("FAILED: {} scenario(s) did not simulate", f.errors));
            }
        }
        match &first {
            None => {
                // Peak memory of one pass; later passes repeat it.
                peak_rss_mb = common::peak_rss_mb();
                distinct_ratio = k2.distinct.len() as f64 / nets[k2_idx].k2.len().max(1) as f64;
                first = Some((k1, k2));
            }
            Some((k1_0, k2_0)) => {
                for ((n, a), b) in nets.iter().zip(k1_0).zip(&k1) {
                    if a.hash.0 != b.hash.0 {
                        o.fail(format!(
                            "net {}: k=1 digest stream changed between passes",
                            n.id
                        ));
                    }
                }
                if k2_0.hash.0 != k2.hash.0 {
                    o.fail("k=2 digest stream changed between passes");
                }
            }
        }
    }

    let (k1_0, k2_0) = first.expect("at least one pass ran");
    for (n, f) in nets.iter().zip(&k1_0) {
        match check(n, &n.k1, f) {
            Ok(0) => {}
            Ok(m) => o.fail(format!(
                "net {}: {m} k=1 digest(s) differ from the cold oracle",
                n.id
            )),
            Err(e) => o.fail(format!("net {}: cold oracle: {e}", n.id)),
        }
    }
    match check(&nets[k2_idx], &nets[k2_idx].k2, &k2_0) {
        Ok(0) => {}
        Ok(m) => o.fail(format!("{m} k=2 digest(s) differ from the cold oracle")),
        Err(e) => o.fail(format!("k=2 cold oracle: {e}")),
    }

    let k1_median = median(&k1_secs).expect("at least one pass");
    let k2_len = nets[k2_idx].k2.len();
    let k2_rates: Vec<f64> = k2_secs.iter().map(|t| k2_len as f64 / t).collect();
    let k2_rate = median(&k2_rates).expect("at least one pass");
    let counts: Vec<String> = nets
        .iter()
        .map(|n| format!("{}={}", n.id, n.k1.len()))
        .collect();
    let passes: Vec<String> = k1_secs.iter().map(|t| format!("{t:.3}")).collect();
    o.note(format!(
        "sweep_k1_s = {k1_median:.4} s (median of passes {}; k=1 scenarios {})",
        passes.join(" "),
        counts.join(" ")
    ));
    o.note(format!(
        "sweep_k2_per_s = {k2_rate:.2} 1/s (median of {} pass(es) of {k2_len} k=2 \
         scenario(s) on {K2_NET}, {:.3} distinct)",
        k2_secs.len(),
        distinct_ratio
    ));
    let hashes: Vec<String> = nets
        .iter()
        .zip(&k1_0)
        .map(|(n, f)| format!("{}={:016x}", n.id, f.hash.0))
        .chain([format!("k2={:016x}", k2_0.hash.0)])
        .collect();
    o.note(format!("hashes: {}", hashes.join(" ")));

    o.metric("setup_s", setup_s, "s");
    o.metric("peak_rss_mb", peak_rss_mb, "MB");
    o.metric("latency_ms", k1_median * 1000.0, "ms");
    o.metric("ops_per_s", k2_rate, "1/s");
    o
}
