//! `serve-mixed`: a `serve` daemon with 2 workers and a durable state
//! directory, fresh for each run, driven by two closed-loop clients that
//! submit a seeded job sequence over the small nets A, B, C and G,
//! rotating the confmask, netcloak and nethide strategies, and fetch the
//! artifacts of every finished job.
//!
//! Fixed per-job costs dominate here — HTTP, the wire codec, parse/emit,
//! the fsynced WAL append and the periodic snapshot — and `route_anon`
//! does little. It is the only workload that runs `netcloak`, `nethide`
//! and the persistence layer.

use crate::common::{self, mix, Fnv, Outcome};
use crate::stats::{median, percentile, quartiles, tail};
use confmask::{anonymizer_for, JobOutcome, Params, Strategy, Vendor};
use confmask_serve::{client, wire, ServeOptions, Server};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const NETS: [char; 4] = ['A', 'B', 'C', 'G'];
/// Distinct parameter seeds per (net, strategy): each job body recurs,
/// so repeated jobs must return identical artifacts.
const PARAM_SEEDS: u64 = 4;
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Set-ups timed on each side of the clients' run.
const SETUPS: usize = 9;
/// Status poll interval: well under the median job latency.
const POLL: Duration = Duration::from_millis(2);
/// Back-off after a 429 before submitting again.
const REJECT_BACKOFF: Duration = Duration::from_millis(25);

/// One distinct job: what it runs and its encoded submission.
pub struct JobKind {
    pub net: char,
    pub strategy: Strategy,
    pub body: String,
}

/// Every distinct job of the seeded sequence.
pub fn job_kinds(seed: u64) -> Vec<JobKind> {
    let mut kinds = Vec::new();
    for net in NETS {
        let configs = common::parse(&common::net(net).bundle).expect("generated input parses");
        for p in 0..PARAM_SEEDS {
            let params = Params::new(6, 2).with_seed(mix(seed, (u64::from(net) << 8) | p));
            for strategy in Strategy::ALL {
                let body = wire::encode_submit(&configs, &params, Vendor::Ios, strategy);
                kinds.push(JobKind {
                    net,
                    strategy,
                    body,
                });
            }
        }
    }
    kinds
}

/// Job `i` of the seeded sequence: strategies rotate, net and parameter
/// seed are drawn from the workload seed.
fn pick(seed: u64, i: u64, kinds: usize) -> usize {
    let strategies = Strategy::ALL.len() as u64;
    let group = mix(seed, i) % (kinds as u64 / strategies);
    (group * strategies + i % strategies) as usize
}

/// A running daemon on an ephemeral port.
pub struct Daemon {
    pub addr: String,
    handle: JoinHandle<std::io::Result<confmask_serve::store::JobCounts>>,
    dir: PathBuf,
}

/// State directory of this process's daemon, inside the working
/// directory, emptied before each start.
fn state_dir() -> PathBuf {
    Path::new(".bench_state").join(format!("serve-{}", std::process::id()))
}

impl Daemon {
    pub fn start() -> Result<Daemon, String> {
        let dir = state_dir();
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let server = Server::bind(&ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: WORKERS,
            state_dir: Some(dir.clone()),
            ..ServeOptions::default()
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().to_string();
        let handle = std::thread::spawn(move || server.run());
        let ready = client::get(&addr, "/healthz").map_err(|e| format!("healthz: {e}"))?;
        if ready.status != 200 {
            return Err(format!("healthz answered {}", ready.status));
        }
        Ok(Daemon { addr, handle, dir })
    }

    /// Drains and stops the daemon, removes its state, and returns the
    /// store's final counts.
    pub fn stop(self) -> Result<confmask_serve::store::JobCounts, String> {
        let resp = client::post(&self.addr, "/v1/shutdown", "").map_err(|e| e.to_string())?;
        if resp.status != 202 {
            return Err(format!("shutdown answered {}", resp.status));
        }
        // The accept loop notices the flag on its next connection.
        while !self.handle.is_finished() {
            let _ = std::net::TcpStream::connect(&self.addr);
            std::thread::sleep(Duration::from_millis(5));
        }
        let counts = self
            .handle
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| e.to_string());
        let _ = std::fs::remove_dir_all(&self.dir);
        let _ = std::fs::remove_dir(".bench_state");
        counts
    }
}

/// One job as a client saw it.
pub struct JobRecord {
    pub kind: usize,
    pub latency_ms: f64,
    pub submit_ms: f64,
    pub artifacts_ms: f64,
    pub polls: u64,
    pub state: String,
    pub artifacts: Option<u64>,
}

/// What the clients did.
#[derive(Default)]
pub struct Tally {
    pub submitted: u64,
    pub rejected: u64,
    pub jobs: Vec<JobRecord>,
    pub elapsed: f64,
    pub errors: Vec<String>,
}

/// Runs the closed loop: each client submits the next job of the seeded
/// sequence, polls it to a terminal state, fetches its artifacts, and
/// repeats until `seconds` have passed; in-flight jobs are then drained,
/// so every submission is accounted for.
pub fn drive(addr: &str, kinds: &[JobKind], seed: u64, seconds: f64) -> Tally {
    let seq = AtomicU64::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let parts: Vec<Result<Tally, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| scope.spawn(|| client_loop(addr, kinds, seed, &seq, deadline)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut tally = Tally::default();
    for part in parts {
        match part {
            Ok(t) => {
                tally.submitted += t.submitted;
                tally.rejected += t.rejected;
                tally.jobs.extend(t.jobs);
            }
            Err(e) => tally.errors.push(e),
        }
    }
    tally.elapsed = start.elapsed().as_secs_f64();
    tally
}

fn client_loop(
    addr: &str,
    kinds: &[JobKind],
    seed: u64,
    seq: &AtomicU64,
    deadline: Instant,
) -> Result<Tally, String> {
    let mut t = Tally::default();
    while Instant::now() < deadline {
        let kind = pick(seed, seq.fetch_add(1, Ordering::Relaxed), kinds.len());
        let started = Instant::now();
        let resp = client::post(addr, "/v1/jobs", &kinds[kind].body).map_err(|e| e.to_string())?;
        let submit_ms = ms(started);
        t.submitted += 1;
        match resp.status {
            202 => {}
            429 => {
                t.rejected += 1;
                std::thread::sleep(REJECT_BACKOFF);
                continue;
            }
            other => return Err(format!("submit answered {other}: {}", resp.text())),
        }
        let id = wire::decode_job_created(&resp.body)?;
        let mut polls = 0;
        let state = loop {
            std::thread::sleep(POLL);
            polls += 1;
            let resp = client::get(addr, &format!("/v1/jobs/{id}")).map_err(|e| e.to_string())?;
            let status = wire::decode_status(&resp.body)?;
            if status.is_terminal() {
                break status.state;
            }
        };
        let latency_ms = ms(started);
        let fetched = Instant::now();
        let artifacts = if state == "failed" {
            None
        } else {
            let resp = client::get(addr, &format!("/v1/jobs/{id}/artifacts"))
                .map_err(|e| e.to_string())?;
            if resp.status != 200 {
                return Err(format!("artifacts of {id} answered {}", resp.status));
            }
            let files = wire::decode_artifacts(&resp.body)?;
            Some(Fnv::of_files(
                files.iter().map(|f| (f.path.as_str(), f.text.as_str())),
            ))
        };
        t.jobs.push(JobRecord {
            kind,
            latency_ms,
            submit_ms,
            artifacts_ms: ms(fetched),
            polls,
            state,
            artifacts,
        });
    }
    Ok(t)
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1000.0
}

/// The artifacts hash an in-process run of the same submission yields.
fn reference(kind: &JobKind) -> Result<u64, String> {
    let sub = wire::decode_submit(kind.body.as_bytes())?;
    let result = anonymizer_for(sub.strategy)
        .anonymize(&sub.configs, &sub.params)
        .map_err(|e| e.to_string())?;
    let outcome = JobOutcome::from_network(&result, sub.vendor);
    Ok(Fnv::of_files(
        outcome
            .artifacts
            .iter()
            .map(|f| (f.path.as_str(), f.text.as_str())),
    ))
}

/// Checks a finished run: transport errors, lossless accounting against
/// the daemon's own counts, one artifact hash per distinct job, and one
/// job per (net, strategy) against an in-process reference run. Adds
/// every failed job, rejection and failed check to `o.failed`.
pub fn check(
    o: &mut Outcome,
    kinds: &[JobKind],
    tally: &Tally,
    counts: &confmask_serve::store::JobCounts,
) {
    for e in &tally.errors {
        o.fail(format!("client: {e}"));
    }
    let by_state = |s: &str| tally.jobs.iter().filter(|j| j.state == s).count() as u64;
    let (done, degraded, failed) = (by_state("done"), by_state("degraded"), by_state("failed"));
    if tally.submitted != done + degraded + failed + tally.rejected {
        o.fail(format!(
            "lossy accounting: submitted {} != done {done} + degraded {degraded} + failed \
             {failed} + rejected {}",
            tally.submitted, tally.rejected
        ));
    }
    if (counts.done + counts.degraded + counts.failed) as u64 != done + degraded + failed {
        o.fail(format!(
            "daemon counts {counts:?} disagree with the clients"
        ));
    }
    o.failed += failed + tally.rejected;
    if failed + tally.rejected > 0 {
        o.note(format!(
            "FAILED: {failed} failed job(s), {} rejected (429)",
            tally.rejected
        ));
    }

    let mut seen: BTreeMap<usize, u64> = BTreeMap::new();
    for j in &tally.jobs {
        let Some(h) = j.artifacts else { continue };
        if let Some(prev) = seen.insert(j.kind, h) {
            if prev != h {
                o.fail(format!(
                    "job kind {}: one submission, two different artifact sets",
                    j.kind
                ));
            }
        }
    }
    let mut checked = BTreeSet::new();
    for (&kind, &h) in &seen {
        let k = &kinds[kind];
        if !checked.insert((k.net, k.strategy)) {
            continue;
        }
        match reference(k) {
            Ok(r) if r == h => {}
            Ok(_) => o.fail(format!(
                "{} on {}: artifacts differ from an in-process run",
                k.strategy, k.net
            )),
            Err(e) => o.fail(format!("{} on {}: reference run: {e}", k.strategy, k.net)),
        }
    }
    let mut fp = Fnv::default();
    for (kind, h) in &seen {
        fp.write(&(*kind as u64).to_le_bytes());
        fp.write(&h.to_le_bytes());
    }
    o.note(format!(
        "hashes: artifacts={:016x} ({} distinct job(s), {} checked in-process)",
        fp.0,
        seen.len(),
        checked.len()
    ));
}

pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut o = Outcome::default();
    let mut setups = Vec::new();
    // Set-up (job bodies plus a daemon on an empty state directory) is a
    // few tens of milliseconds, and how fast the host runs it shifts by up
    // to half within a few seconds. So it is taken nine times before the
    // clients start and nine times after they stop, and the median of all
    // eighteen is reported.
    let mut setup = |o: &mut Outcome, rep: usize| {
        let t = Instant::now();
        let kinds = job_kinds(seed);
        match Daemon::start() {
            Ok(d) => {
                setups.push(t.elapsed().as_secs_f64());
                Some((d, kinds))
            }
            Err(e) => {
                o.fail(format!("daemon start (set-up {rep}): {e}"));
                None
            }
        }
    };
    let stop = |o: &mut Outcome, d: Daemon| {
        if let Err(e) = d.stop() {
            o.fail(format!("stopping set-up daemon: {e}"));
        }
    };
    let mut live = None;
    for rep in 0..SETUPS {
        if let Some((d, _)) = live.take() {
            stop(&mut o, d);
        }
        live = setup(&mut o, rep);
        if live.is_none() {
            return o;
        }
    }
    let (daemon, kinds) = live.expect("set-up ran");
    let tally = drive(&daemon.addr, &kinds, seed, seconds);
    let rss = common::peak_rss_mb();
    o.attempted = tally.submitted.max(1);
    match daemon.stop() {
        Ok(counts) => check(&mut o, &kinds, &tally, &counts),
        Err(e) => o.fail(format!("daemon stop: {e}")),
    }
    for rep in SETUPS..2 * SETUPS {
        match setup(&mut o, rep) {
            Some((d, _)) => stop(&mut o, d),
            None => return o,
        }
    }

    let lat: Vec<f64> = tally.jobs.iter().map(|j| j.latency_ms).collect();
    let p50 = median(&lat).unwrap_or(f64::NAN);
    let jobs_per_s = tally.jobs.len() as f64 / tally.elapsed;
    o.note(format!(
        "jobs_per_s = {jobs_per_s:.2} 1/s ({} jobs, {CLIENTS} closed-loop clients)",
        lat.len()
    ));
    let [q1, _, q3] = quartiles(&lat).unwrap_or([f64::NAN; 3]);
    o.note(format!(
        "job_p50_ms = {p50:.3} ms (quartiles {q1:.3} .. {q3:.3} ms)"
    ));
    o.note(format!(
        "job_p99_ms = {:.3} ms ({} sample(s) beyond it)",
        percentile(&lat, 99.0).unwrap_or(f64::NAN),
        lat.len() - (0.99 * lat.len() as f64).ceil() as usize
    ));
    if let Some((p, v)) = tail(&lat) {
        o.note(format!(
            "job tail: p{p} = {v:.3} ms (highest percentile with >= 10 samples beyond)"
        ));
    }

    o.metric("setup_s", median(&setups).expect("eighteen set-ups"), "s");
    o.metric("peak_rss_mb", rss, "MB");
    o.metric("latency_ms", p50, "ms");
    o.metric("ops_per_s", jobs_per_s, "1/s");
    o
}
