//! The serve workload: in-process `ServeSession`s driven closed-loop by
//! one client, one protocol line at a time, every accepted line appended
//! to a WAL journal before the client sends the next.
//!
//! One iteration runs a venn session and a random session over the same
//! paper-default world with the same seeded command mix, each from vt 0
//! to the horizon, then recovers the venn session's journal and replays
//! it into a fresh session, which must reach the same vt and produce
//! byte-identical responses.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use venn_bench::Experiment;
use venn_core::VennConfig;
use venn_serve::wal::{real_fs, recover_journal, SyncPolicy, WalWriter};
use venn_serve::{Command, SchedSpec, ServeSession};

use crate::batch::{another_iteration, instance_seed};
use crate::report::{median, peak_rss_mb, quantile, Outcome, Summary, ARMS, SESSION_CMDS};

/// A serve workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Workload name.
    pub name: &'static str,
    /// Builds one instance's world from its seed.
    pub make: fn(u64) -> Experiment,
    /// Virtual time one `advance` moves, uniform over `[lo, hi)` ms.
    pub advance_ms: (u64, u64),
    /// Virtual time between streamed frames, ms.
    pub subscribe_every_ms: u64,
    /// Virtual time between `checkpoint`s, ms.
    pub checkpoint_every_ms: u64,
    /// Instances per iteration, each with its own world and command-mix
    /// seed (see [`instance_seed`]).
    pub instances: usize,
}

/// Command mix, as probabilities of the non-`advance` commands per line.
const P_SUBMIT: f64 = 0.0005;
const P_QUERY: f64 = 0.04;
const P_WITHDRAW: f64 = 0.002;
const P_STATS: f64 = 0.03;

/// The closed-loop client: a seeded command generator that reads each
/// acknowledgment before choosing the next line.
///
/// Its random draws never depend on the replies, so two sessions under
/// different schedulers receive the same submits, queries and advances
/// at the same virtual times; only whether a withdrawal is sent depends
/// on the session (a job that already finished is not withdrawn).
struct Client {
    rng: StdRng,
    spec: ServeSpec,
    horizon: u64,
    jobs: usize,
    /// The first job index this client submitted; it only withdraws its
    /// own jobs.
    first_own: usize,
    subscribed: bool,
    next_ckpt: u64,
    ckpt_path: String,
    pending_withdraw: Option<usize>,
    final_stats: bool,
    quit: bool,
}

impl Client {
    fn new(spec: ServeSpec, seed: u64, horizon: u64, jobs: usize, ckpt_path: String) -> Self {
        Client {
            rng: StdRng::seed_from_u64(seed ^ 0x5E_47E0),
            spec,
            horizon,
            jobs,
            first_own: jobs,
            subscribed: false,
            next_ckpt: spec.checkpoint_every_ms,
            ckpt_path,
            pending_withdraw: None,
            final_stats: false,
            quit: false,
        }
    }

    /// The next line to send, given the session's vt and the previous
    /// line's acknowledgment; `None` once `quit` was sent.
    fn next(&mut self, vt: u64, last_ack: &str) -> Option<String> {
        if !self.subscribed {
            self.subscribed = true;
            return Some(format!(
                r#"{{"cmd":"subscribe","every_ms":{}}}"#,
                self.spec.subscribe_every_ms
            ));
        }
        if let Some(job) = self.pending_withdraw.take() {
            if !last_ack.contains(r#""phase":"finished""#) {
                return Some(format!(r#"{{"cmd":"withdraw","job":{job}}}"#));
            }
        }
        if vt >= self.horizon {
            if !self.final_stats {
                self.final_stats = true;
                return Some(r#"{"cmd":"stats"}"#.into());
            }
            if !self.quit {
                self.quit = true;
                return Some(r#"{"cmd":"quit"}"#.into());
            }
            return None;
        }
        if vt >= self.next_ckpt {
            self.next_ckpt += self.spec.checkpoint_every_ms;
            return Some(format!(
                r#"{{"cmd":"checkpoint","path":"{}"}}"#,
                self.ckpt_path
            ));
        }
        let u: f64 = self.rng.gen();
        if u < P_SUBMIT {
            let category =
                ["general", "compute", "memory", "resource"][self.rng.gen_range(0..4usize)];
            let rounds = self.rng.gen_range(2..13u32);
            let demand = self.rng.gen_range(5..41u32);
            let task_ms = self.rng.gen_range(60_000..180_001u64);
            self.jobs += 1;
            return Some(format!(
                r#"{{"cmd":"submit","category":"{category}","rounds":{rounds},"demand":{demand},"task_ms":{task_ms}}}"#
            ));
        }
        if u < P_SUBMIT + P_QUERY {
            let job = self.rng.gen_range(0..self.jobs);
            return Some(format!(r#"{{"cmd":"query-job","job":{job}}}"#));
        }
        if u < P_SUBMIT + P_QUERY + P_WITHDRAW && self.jobs > self.first_own {
            // Withdraw one of its own jobs, unless it already finished.
            let job = self.rng.gen_range(self.first_own..self.jobs);
            self.pending_withdraw = Some(job);
            return Some(format!(r#"{{"cmd":"query-job","job":{job}}}"#));
        }
        if u < P_SUBMIT + P_QUERY + P_WITHDRAW + P_STATS {
            return Some(r#"{"cmd":"stats"}"#.into());
        }
        let (lo, hi) = self.spec.advance_ms;
        Some(format!(
            r#"{{"cmd":"advance","ms":{}}}"#,
            self.rng.gen_range(lo..hi)
        ))
    }
}

/// FNV-1a folded over successive byte strings.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Index into [`SESSION_CMDS`] of the command a line sends.
fn cmd_index(line: &str) -> Option<usize> {
    SESSION_CMDS
        .iter()
        .position(|c| line.contains(&format!(r#""cmd":"{c}""#)))
}

fn is_cmd(line: &str, name: &str) -> bool {
    cmd_index(line).is_some_and(|c| SESSION_CMDS[c] == name)
}

fn u64_field(json: &str, key: &str) -> Option<u64> {
    let pat = format!("\"{key}\":");
    let rest = &json[json.find(&pat)? + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One live session, from `ServeSession::new` to `quit`.
#[derive(Default)]
struct SessionRun {
    setup_s: f64,
    world_new_s: f64,
    /// Send-to-ack latency of every line (apply + WAL append), seconds.
    latencies: Vec<f64>,
    apply_s: [f64; SESSION_CMDS.len()],
    cmds: [u64; SESSION_CMDS.len()],
    parse_s: f64,
    wal_append_s: f64,
    wal_appends: u64,
    wal_bytes: u64,
    frames: u64,
    resp_bytes: u64,
    /// FNV-1a over every response, as sent.
    resp_hash: u64,
    /// FNV-1a over every response with the per-process scratch directory
    /// masked, so runs in different processes compare.
    fingerprint: u64,
    final_stats: String,
    vt: u64,
    errors: Vec<String>,
    /// Sessions merged into this one (see [`SessionRun::merge`]).
    instances: usize,
    /// Average JCT over finished jobs, summed over merged instances.
    avg_jct_ms: f64,
    /// Finished over non-withdrawn jobs, summed over merged instances.
    completion: f64,
    /// Mean checkpoint bytes of the session, summed over merged
    /// instances.
    ckpt_bytes: f64,
    heap_peak_bytes: u64,
    journal: PathBuf,
}

impl SessionRun {
    /// Folds another instance's session into this one: times, counts and
    /// latencies add up, the response fingerprints chain, and the
    /// simulated outputs are summed for averaging over `instances`.
    fn merge(&mut self, o: SessionRun) {
        self.instances += o.instances;
        self.setup_s += o.setup_s;
        self.world_new_s += o.world_new_s;
        self.latencies.extend(o.latencies);
        for c in 0..SESSION_CMDS.len() {
            self.apply_s[c] += o.apply_s[c];
            self.cmds[c] += o.cmds[c];
        }
        self.parse_s += o.parse_s;
        self.wal_append_s += o.wal_append_s;
        self.wal_appends += o.wal_appends;
        self.wal_bytes += o.wal_bytes;
        self.frames += o.frames;
        self.resp_bytes += o.resp_bytes;
        self.resp_hash = fnv(self.resp_hash, &o.resp_hash.to_le_bytes());
        self.fingerprint = fnv(self.fingerprint, &o.fingerprint.to_le_bytes());
        self.errors.extend(o.errors);
        self.avg_jct_ms += o.avg_jct_ms;
        self.completion += o.completion;
        self.ckpt_bytes += o.ckpt_bytes;
        self.heap_peak_bytes = self.heap_peak_bytes.max(o.heap_peak_bytes);
    }
}

fn sched_spec(arm: &str, exp: &Experiment) -> SchedSpec {
    let venn = VennConfig::default();
    SchedSpec {
        name: arm.to_string(),
        epsilon: venn.epsilon,
        tiers: venn.tiers,
        seed: exp.sim.seed ^ 0xA5A5,
    }
}

fn path_str(p: &Path) -> Result<String, String> {
    p.to_str()
        .map(str::to_string)
        .ok_or_else(|| format!("non-UTF-8 path {p:?}"))
}

fn run_session(
    spec: &ServeSpec,
    exp: &Experiment,
    arm: &str,
    dir: &Path,
    traced: bool,
) -> Result<SessionRun, String> {
    venn_metrics::alloc::reset_peak();
    let journal = dir.join(format!("{arm}.wal"));
    let ckpt = path_str(&dir.join(format!("{arm}.vsnp")))?;
    let dir_str = path_str(dir)?;
    let mut run = SessionRun {
        instances: 1,
        resp_hash: FNV_SEED,
        fingerprint: FNV_SEED,
        journal: journal.clone(),
        ..SessionRun::default()
    };

    let t = Instant::now();
    let mut session = ServeSession::new(exp.sim, sched_spec(arm, exp), &exp.workload)?;
    run.world_new_s = t.elapsed().as_secs_f64();
    let mut wal = WalWriter::create(real_fs(), &path_str(&journal)?, SyncPolicy::default())
        .map_err(|e| format!("journal: {e}"))?;
    run.setup_s = t.elapsed().as_secs_f64();

    let horizon = exp.sim.horizon_ms();
    let mut client = Client::new(*spec, exp.sim.seed, horizon, exp.workload.jobs.len(), ckpt);
    let mut ack = String::new();
    let mut withdrawn = 0usize;
    let mut ckpts: Vec<f64> = Vec::new();
    while let Some(line) = client.next(session.vt(), &ack) {
        let cmd = cmd_index(&line);
        let t = Instant::now();
        if traced {
            let tp = Instant::now();
            let parsed = Command::parse_line(&line);
            run.parse_s += tp.elapsed().as_secs_f64();
            std::hint::black_box(parsed.is_ok());
        }
        let ta = Instant::now();
        let out = session.apply_line(&line);
        let apply_s = ta.elapsed().as_secs_f64();
        if let Some(j) = &out.journal {
            let tw = Instant::now();
            wal.append(j).map_err(|e| format!("journal append: {e}"))?;
            run.wal_append_s += tw.elapsed().as_secs_f64();
            run.wal_appends += 1;
        }
        run.latencies.push(t.elapsed().as_secs_f64());
        if let Some(c) = cmd {
            run.apply_s[c] += apply_s;
            run.cmds[c] += 1;
        }
        for r in &out.responses {
            run.resp_hash = fnv(run.resp_hash, r.as_bytes());
            run.fingerprint = fnv(run.fingerprint, r.replace(&dir_str, "$DIR").as_bytes());
            run.resp_bytes += r.len() as u64;
        }
        run.frames += out.responses.len().saturating_sub(1) as u64;
        ack = out.responses.last().cloned().unwrap_or_default();
        if !ack.contains(r#""ok":true"#) {
            run.errors.push(format!("{line} -> {ack}"));
        }
        if is_cmd(&line, "stats") {
            run.final_stats = ack.clone();
        }
        if is_cmd(&line, "withdraw") {
            withdrawn += 1;
        }
        if is_cmd(&line, "checkpoint") {
            ckpts.push(u64_field(&ack, "bytes").unwrap_or(0) as f64);
        }
    }
    wal.seal().map_err(|e| format!("journal seal: {e}"))?;
    run.ckpt_bytes = ckpts.iter().sum::<f64>() / ckpts.len().max(1) as f64;
    run.wal_bytes = std::fs::metadata(&journal)
        .map_err(|e| format!("journal: {e}"))?
        .len();
    run.vt = session.vt();
    let result = session.into_result();
    let finished = result.records.iter().filter(|r| r.is_finished()).count();
    run.avg_jct_ms = result.avg_jct_ms();
    run.completion = finished as f64 / result.records.len().saturating_sub(withdrawn).max(1) as f64;
    run.heap_peak_bytes = venn_metrics::alloc::peak_bytes();
    Ok(run)
}

/// Journal recovery of one live session: `recover_journal` over the
/// journal bytes, then the replay into a fresh session.
struct Recovery {
    decode_s: f64,
    replay_s: f64,
}

fn recover(
    exp: &Experiment,
    arm: &str,
    live: &SessionRun,
    out: &mut Outcome,
) -> Result<Recovery, String> {
    let t = Instant::now();
    let bytes = std::fs::read(&live.journal).map_err(|e| format!("read journal: {e}"))?;
    let rec = recover_journal(&bytes).map_err(|e| format!("recover journal: {e}"))?;
    let decode_s = t.elapsed().as_secs_f64();
    out.check(
        rec.sealed && rec.torn.is_none() && rec.lines.len() as u64 == live.wal_appends,
        || {
            format!(
                "{arm} journal: sealed={} torn={:?} lines={} appended={}",
                rec.sealed,
                rec.torn,
                rec.lines.len(),
                live.wal_appends
            )
        },
    );

    let t = Instant::now();
    let mut session = ServeSession::new(exp.sim, sched_spec(arm, exp), &exp.workload)?;
    let mut hash = FNV_SEED;
    let mut final_stats = String::new();
    let mut errors = 0usize;
    for line in &rec.lines {
        let o = session.apply_line(line);
        for r in &o.responses {
            hash = fnv(hash, r.as_bytes());
        }
        let ack = o.responses.last().map_or("", String::as_str);
        if !ack.contains(r#""ok":true"#) {
            errors += 1;
        }
        if is_cmd(line, "stats") {
            final_stats = ack.to_string();
        }
    }
    let replay_s = t.elapsed().as_secs_f64();
    out.check(
        errors == 0
            && session.vt() == live.vt
            && final_stats == live.final_stats
            && hash == live.resp_hash,
        || {
            format!(
                "{arm} replay: errors={errors} vt {} vs live {}, final stats equal={}, responses equal={}",
                session.vt(),
                live.vt,
                final_stats == live.final_stats,
                hash == live.resp_hash
            )
        },
    );
    Ok(Recovery { decode_s, replay_s })
}

struct Iteration {
    generate_s: f64,
    /// In [`ARMS`] order, each merged over the iteration's instances.
    sessions: Vec<SessionRun>,
    recovery: Recovery,
    traced: bool,
}

/// Runs `spec` at `seed` for about `seconds` (and at least one
/// iteration, two when traced), with its scratch files in a fresh directory under
/// `.bench_tmp/` that is removed afterwards.
pub fn run(spec: &ServeSpec, seed: u64, seconds: f64, traced: bool) -> Outcome {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let dir = PathBuf::from(".bench_tmp").join(format!(
        "{}-{}-{}",
        spec.name,
        std::process::id(),
        RUNS.fetch_add(1, Ordering::Relaxed)
    ));
    let mut out = Outcome::default();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        out.check(false, || format!("create {dir:?}: {e}"));
        return out;
    }
    let its = iterate(spec, seed, seconds, traced, &dir, &mut out);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_tmp");
    if !its.is_empty() {
        report(spec, seed, &its, traced, &mut out);
    }
    out
}

fn iterate(
    spec: &ServeSpec,
    seed: u64,
    seconds: f64,
    traced: bool,
    dir: &Path,
    out: &mut Outcome,
) -> Vec<Iteration> {
    let start = Instant::now();
    let mut its: Vec<Iteration> = Vec::new();
    loop {
        let i = its.len();
        let trace_it = traced && i % 2 == 1;
        let mut it = Iteration {
            generate_s: 0.0,
            sessions: Vec::new(),
            recovery: Recovery {
                decode_s: 0.0,
                replay_s: 0.0,
            },
            traced: trace_it,
        };
        for k in 0..spec.instances {
            let t = Instant::now();
            let exp = (spec.make)(instance_seed(seed, k));
            it.generate_s += t.elapsed().as_secs_f64();
            let mut sessions = Vec::new();
            for arm in ARMS {
                // Only the venn session is traced; it is the one whose
                // per-layer figures are reported.
                match run_session(spec, &exp, arm, dir, trace_it && arm == "venn") {
                    Ok(s) => {
                        out.attempted += s.latencies.len() as u64;
                        out.failures.extend(
                            s.errors
                                .iter()
                                .map(|e| format!("{arm} instance {k} unplanned error: {e}")),
                        );
                        sessions.push(s);
                    }
                    Err(e) => {
                        out.check(false, || {
                            format!("{} {arm} instance {k} iteration {i}: {e}", spec.name)
                        });
                        return its;
                    }
                }
            }
            match recover(&exp, "venn", &sessions[1], out) {
                Ok(r) => {
                    it.recovery.decode_s += r.decode_s;
                    it.recovery.replay_s += r.replay_s;
                }
                Err(e) => {
                    out.check(false, || format!("{} venn recovery: {e}", spec.name));
                    return its;
                }
            }
            if it.sessions.is_empty() {
                it.sessions = sessions;
            } else {
                for (acc, s) in it.sessions.iter_mut().zip(sessions) {
                    acc.merge(s);
                }
            }
        }
        its.push(it);
        // A traced run needs an untraced and a traced iteration.
        let min = if traced { 2 } else { 1 };
        if !another_iteration(&start, its.len(), min, seconds) {
            return its;
        }
    }
}

fn report(spec: &ServeSpec, seed: u64, its: &[Iteration], traced: bool, out: &mut Outcome) {
    // Every iteration must reproduce the first one's responses.
    for (i, it) in its.iter().enumerate() {
        for (a, s) in it.sessions.iter().enumerate() {
            let first = its[0].sessions[a].fingerprint;
            out.check(s.fingerprint == first, || {
                format!(
                    "{} {} iteration {i}: responses differ from iteration 0",
                    spec.name, ARMS[a]
                )
            });
        }
    }
    let plain: Vec<&Iteration> = its.iter().filter(|it| !it.traced).collect();
    let venn_lat: Vec<f64> = plain
        .iter()
        .flat_map(|it| it.sessions[1].latencies.iter().copied())
        .collect();
    let cmd = Summary::of(&venn_lat);
    let cmds_per_s = venn_lat.len() as f64 / venn_lat.iter().sum::<f64>();
    out.lines.push(format!(
        "# {} seed={seed} iterations={} traced_iterations={}",
        spec.name,
        its.len(),
        its.len() - plain.len()
    ));
    out.lines.push(format!(
        "# venn cmd send-to-ack: {}; cmds_per_s {cmds_per_s:.1}",
        cmd.render("us", 1e6)
    ));
    for (a, arm) in ARMS.iter().enumerate() {
        let s = &its[0].sessions[a];
        let runs: Vec<f64> = plain
            .iter()
            .map(|it| it.sessions[a].latencies.iter().sum::<f64>())
            .collect();
        out.lines.push(format!(
            "# {arm}: instances={} lines={} avg_jct_ms={:.1} completion={:.4} frames={} responses_fnv={:016x} run_s: {}",
            s.instances,
            s.latencies.len(),
            s.avg_jct_ms / s.instances as f64,
            s.completion / s.instances as f64,
            s.frames,
            s.fingerprint,
            Summary::of(&runs).render("s", 1.0)
        ));
        out.fingerprints.push((arm.to_string(), s.fingerprint));
    }

    let (random, venn) = (&its[0].sessions[0], &its[0].sessions[1]);
    if !traced {
        let setups: Vec<f64> = its
            .iter()
            .map(|it| it.generate_s + it.sessions.iter().map(|s| s.setup_s).sum::<f64>())
            .collect();
        out.metric("setup_s", "s", median(&setups));
        for (a, arm) in ARMS.iter().enumerate().rev() {
            let runs: Vec<f64> = its
                .iter()
                .map(|it| it.sessions[a].latencies.iter().sum::<f64>())
                .collect();
            out.metric(format!("run_s.{arm}"), "s", median(&runs));
        }
        out.metric("peak_rss_mb", "MB", peak_rss_mb());
        let n = venn.instances as f64;
        out.metric("avg_jct_h.venn", "h", venn.avg_jct_ms / n / 3.6e6);
        out.metric(
            "speedup_vs_random",
            "x",
            random.avg_jct_ms / venn.avg_jct_ms,
        );
        out.metric("completion_rate.venn", "ratio", venn.completion / n);
        out.metric("ckpt_mb", "MB", venn.ckpt_bytes / n / 1e6);
        let rec: Vec<f64> = its
            .iter()
            .map(|it| it.recovery.decode_s + it.recovery.replay_s)
            .collect();
        out.metric("recover_s", "s", median(&rec));
        return;
    }

    let traced_its: Vec<&Iteration> = its.iter().filter(|it| it.traced).collect();
    let Some(t0) = traced_its.first() else { return };
    let med = |f: &dyn Fn(&Iteration) -> f64| -> f64 {
        let v: Vec<f64> = traced_its.iter().map(|it| f(it)).collect();
        median(&v)
    };
    for (a, arm) in ARMS.iter().enumerate() {
        let news: Vec<f64> = its.iter().map(|it| it.sessions[a].world_new_s).collect();
        out.metric(format!("world.new_s.{arm}"), "s", median(&news));
        let heap = its
            .iter()
            .map(|it| it.sessions[a].heap_peak_bytes)
            .max()
            .unwrap_or(0);
        out.metric(format!("heap_peak_mb.{arm}"), "MB", heap as f64 / 1e6);
        let total = |it: &Iteration| it.sessions[a].latencies.iter().sum::<f64>();
        let plain_runs: Vec<f64> = plain.iter().map(|it| total(it)).collect();
        out.metric(
            format!("trace_overhead.{arm}"),
            "ratio",
            med(&total) / median(&plain_runs),
        );
    }
    let gens: Vec<f64> = its.iter().map(|it| it.generate_s).collect();
    out.metric("traces.generate_s", "s", median(&gens));
    out.metric("protocol.parse_s", "s", med(&|it| it.sessions[1].parse_s));
    for (c, name) in SESSION_CMDS.iter().enumerate() {
        out.metric(
            format!("session.apply_s.{name}"),
            "s",
            med(&|it| it.sessions[1].apply_s[c]),
        );
        out.metric(
            format!("session.cmds.{name}"),
            "count",
            t0.sessions[1].cmds[c] as f64,
        );
    }
    let tv = &t0.sessions[1];
    out.metric("session.frames", "count", tv.frames as f64);
    out.metric("session.resp_bytes", "bytes", tv.resp_bytes as f64);
    out.metric("session.cmd_p50_us", "us", cmd.p50 * 1e6);
    out.metric("session.cmd_p99_us", "us", quantile(&venn_lat, 0.99) * 1e6);
    out.metric("session.cmds_per_s", "1/s", cmds_per_s);
    out.metric("wal.appends", "count", tv.wal_appends as f64);
    out.metric("wal.append_s", "s", med(&|it| it.sessions[1].wal_append_s));
    out.metric("wal.bytes", "bytes", tv.wal_bytes as f64);
    let dec: Vec<f64> = its.iter().map(|it| it.recovery.decode_s).collect();
    let rep: Vec<f64> = its.iter().map(|it| it.recovery.replay_s).collect();
    out.metric("wal.recover_s", "s", median(&dec));
    out.metric("wal.replay_s", "s", median(&rep));
}
