//! BanditWare benchmark: three seeded closed-loop workloads against the
//! library's public API, end to end (`--trace 0`) and per layer
//! (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload bp3d-fleet|wide-hot-tenant|durable-ingest \
//!     --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! A run trains its tenants in an untimed pre-run, then repeats measured
//! windows until `--seconds` have passed. Every window restores the state
//! the pre-run left behind (timed: `setup_s`), drives the same seeded
//! stream (timed: throughput and latencies), then checks the outputs
//! (untimed). The process runs pinned to one CPU, and every time it
//! reports is scaled to a reference host by a host-speed probe timed every
//! few milliseconds ([`host::SpeedProbe`]). The last stdout line is the
//! result object; the lines before it carry the host fingerprint,
//! per-phase request accounting, sample counts and the checks.

mod durable;
mod gen;
mod host;
mod layers;
mod replay;
mod selftest;
mod stats;
mod tcp;
mod trace;

use banditware_core::BanditConfig;
use banditware_serve::{Engine, EngineBuilder};
use gen::{mix, Oracle, Workload, SALT_ENGINE};
use host::ProcCounters;
use stats::{Latencies, Obj, Summary};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// End-to-end metrics (`--trace 0`): name and unit.
pub const E2E: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("rounds_per_s", "1/s"),
    ("recommend_p50_us", "us"),
    ("recommend_p99_us", "us"),
    ("record_p50_us", "us"),
    ("record_p99_us", "us"),
    ("best_hw_share", "ratio"),
    ("served_share", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Hard stop: a run that has not finished by then reports a timeout.
const WATCHDOG: Duration = Duration::from_secs(170);

/// How often the host-speed probe is timed: short against the host's
/// phases, long against the probe (about 0.13 ms).
const PROBE_EVERY: Duration = Duration::from_millis(5);

/// Every this many probes of a window, and its first, count the CPU time
/// other threads used during the probe (see [`host::SpeedProbe`]). The
/// count reads `/proc` for every thread before and after the probe, so it
/// is taken on a sample of the probes.
const AUDIT_EVERY: u32 = 8;

/// A deliberately injected fault, for proving that each check fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    None,
    /// Flip one bit of one TCP recommendation reply (bp3d-fleet).
    FlipBit,
    /// Lose one record on its way to the engine while the client counts it.
    DropRecord,
    /// Cut the last acknowledged record out of one tenant's WAL before the
    /// recovery check (durable-ingest).
    LoseWalRecord,
}

/// Where the faults land: window 0, this burst.
pub const FAULT_BURST: usize = 3;

/// Everything a run needs to know.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub oracle: Oracle,
    /// Scratch directory for checkpoints and WALs (inside the checkout).
    pub work: PathBuf,
    pub fault: Fault,
    /// Bursts per measured window.
    pub bursts: usize,
}

impl Ctx {
    pub fn new(workload: Workload, seed: u64, work: PathBuf, fault: Fault, scale: usize) -> Ctx {
        Ctx {
            workload,
            seed,
            oracle: Oracle::new(workload, seed),
            work,
            fault,
            bursts: (workload.bursts_per_window() / scale).max(FAULT_BURST + 1),
        }
    }

    /// The engine every workload serves: default policy, retention, stripes
    /// and durability, with a seed derived from the run seed.
    pub fn builder(&self) -> EngineBuilder {
        Engine::builder(self.oracle.specs(), self.workload.n_features())
            .config(BanditConfig::paper().with_seed(mix(self.seed, SALT_ENGINE)))
    }

    pub fn keys(&self) -> Vec<String> {
        (0..self.workload.n_tenants()).map(gen::tenant_key).collect()
    }
}

/// Requests sent, succeeded and failed in one phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Acct {
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
}

impl Acct {
    pub fn ok(&mut self) {
        self.sent += 1;
        self.ok += 1;
    }

    pub fn fail(&mut self) {
        self.sent += 1;
        self.failed += 1;
    }

    fn json(&self, phase: &str) -> String {
        Obj::new()
            .str("phase", phase)
            .int("sent", self.sent)
            .int("ok", self.ok)
            .int("failed", self.failed)
            .end()
    }
}

/// The client's view of the tickets one window issued, for the check that
/// each is recorded once. Each tenant counts its tickets up, and a burst's
/// recommends are all answered before the next burst starts, so a burst's
/// tickets, sorted, lie strictly above every earlier one of their key: a
/// ticket at or below the last one seen for its key is a duplicate. Holds
/// one number per key, not the tickets.
pub struct Tickets {
    last: Vec<Option<u64>>,
    burst: Vec<(usize, u64)>,
    pub issued: u64,
    pub duplicates: u64,
}

impl Tickets {
    pub fn new(n_keys: usize) -> Tickets {
        Tickets { last: vec![None; n_keys], burst: Vec::new(), issued: 0, duplicates: 0 }
    }

    pub fn issue(&mut self, key: usize, ticket: u64) {
        self.burst.push((key, ticket));
    }

    /// Check the tickets issued since the last call.
    pub fn end_burst(&mut self) {
        self.burst.sort_unstable();
        for &(key, ticket) in &self.burst {
            if self.last[key].is_some_and(|last| ticket <= last) {
                self.duplicates += 1;
            }
            self.last[key] = Some(ticket);
            self.issued += 1;
        }
        self.burst.clear();
    }
}

/// One measured window.
pub struct Window {
    pub setup_s: f64,
    /// Time spent inside rounds (generation between bursts excluded).
    pub busy_s: f64,
    /// Mean host speed over the window's probes.
    pub speed: f64,
    pub wall_s: f64,
    pub rounds: u64,
    pub proc: ProcCounters,
    pub traced: bool,
    /// Recommend and record latencies (untraced windows).
    pub lat: [Summary; 2],
}

/// The host-speed probe and its last reading.
struct Speed {
    probe: host::SpeedProbe,
    at: Instant,
    now: f64,
    /// Sum and count of the open window's readings.
    sum: f64,
    n: u32,
}

/// Everything a run measured.
#[derive(Default)]
pub struct RunOut {
    pub windows: Vec<Window>,
    /// The open window's latency samples.
    pub rec_lat: Latencies,
    pub recd_lat: Latencies,
    /// Measured-phase recommendations (untraced windows), the ones within
    /// tolerance of the oracle-best arm, and the explored ones.
    pub picks: u64,
    pub good: u64,
    pub explored: u64,
    pub setup: Acct,
    pub measured: Acct,
    pub check: Acct,
    pub checks: Vec<(&'static str, bool, String)>,
    /// Per traced window, per-layer values.
    pub layers: Vec<BTreeMap<&'static str, f64>>,
    /// Replayed on-path time per round, per traced window (for the residual).
    pub on_path_ns: Vec<f64>,
    pub engine_keys: f64,
    pub engine_in_flight: f64,
    /// durable-ingest: `compact_all` durations (ms) in the measured phase.
    pub live_compact_ms: Vec<f64>,
    /// durable-ingest: per set-up, records replayed and ns per recovered
    /// record.
    pub live_recover: Vec<(f64, f64)>,
    /// Per span name, self time over the whole run (traced runs).
    pub spans: BTreeMap<&'static str, trace::SelfTime>,
    /// Whether times are scaled to the reference host: in untraced runs.
    /// A traced run reports the per-layer metrics as measured, and its
    /// process counters must not count the probe's work.
    probing: bool,
    speed: Option<Speed>,
}

impl RunOut {
    pub fn check(&mut self, name: &'static str, ok: bool, detail: String) {
        if let Some(c) = self.checks.iter_mut().find(|c| c.0 == name) {
            if c.1 && !ok {
                *c = (name, ok, detail);
            }
        } else {
            self.checks.push((name, ok, detail));
        }
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.1)
            && self.setup.failed + self.measured.failed + self.check.failed == 0
    }

    pub fn quality(&mut self, good: bool, explored: bool) {
        self.picks += 1;
        self.good += u64::from(good);
        self.explored += u64::from(explored);
    }

    /// Time the host-speed probe if [`PROBE_EVERY`] has passed since it
    /// was last timed, or if `now`. Call it only between requests, while
    /// every program thread waits.
    pub fn probe_host(&mut self, now: bool) -> Result<(), String> {
        if !self.probing {
            return Ok(());
        }
        match &mut self.speed {
            Some(sp) if now || sp.at.elapsed() >= PROBE_EVERY => {
                sp.now = sp.probe.speed(sp.n % AUDIT_EVERY == 0)?;
                sp.at = Instant::now();
                sp.sum += sp.now;
                sp.n += 1;
            }
            Some(_) => {}
            None => {
                let mut probe = host::SpeedProbe::start()?;
                let now = probe.speed(true)?;
                self.speed = Some(Speed { probe, at: Instant::now(), now, sum: now, n: 1 });
            }
        }
        Ok(())
    }

    /// `secs` measured now, scaled to the reference host.
    pub fn scaled(&self, secs: f64) -> f64 {
        secs * self.speed.as_ref().map_or(1.0, |sp| sp.now)
    }

    fn scaled_ns(&self, ns: u64) -> u64 {
        self.scaled(ns as f64).round() as u64
    }

    /// A recommend's latency, measured now.
    pub fn rec_ns(&mut self, ns: u64) {
        let ns = self.scaled_ns(ns);
        self.rec_lat.push(ns);
    }

    /// A record's latency, measured now.
    pub fn recd_ns(&mut self, ns: u64) {
        let ns = self.scaled_ns(ns);
        self.recd_lat.push(ns);
    }

    /// Close a window, summarizing its latency samples and host-speed
    /// readings into it.
    pub fn push_window(&mut self, mut w: Window) {
        w.lat = [std::mem::take(&mut self.rec_lat), std::mem::take(&mut self.recd_lat)]
            .map(|l| l.summary());
        if let Some(sp) = &mut self.speed {
            w.speed = sp.sum / f64::from(sp.n.max(1));
            (sp.sum, sp.n) = (0.0, 0);
        }
        self.windows.push(w);
    }

    /// [`stats::mid_mean`] of `f` over the untraced (or traced) windows.
    /// Windows repeat one measurement from one state; on a shared host
    /// other guests' load slows some of them, while a change in the program
    /// moves them all.
    pub fn mid_mean_over(&self, traced: bool, f: impl Fn(&Window) -> f64) -> f64 {
        let mut v: Vec<f64> = self.windows.iter().filter(|w| w.traced == traced).map(f).collect();
        stats::mid_mean(&mut v)
    }

    pub fn rounds_per_s(&self, traced: bool) -> f64 {
        self.mid_mean_over(traced, |w| w.rounds as f64 / w.busy_s)
    }

    /// The nine end-to-end metrics: mid-means over the untraced windows of
    /// each window's throughput and latency percentiles; set-up time is the
    /// mid-mean over every window. Times are scaled to the reference host.
    pub fn e2e(&self) -> Vec<(&'static str, f64)> {
        let mut setup: Vec<f64> = self.windows.iter().map(|w| w.setup_s).collect();
        let vals = [
            stats::mid_mean(&mut setup),
            self.rounds_per_s(false),
            self.mid_mean_over(false, |w| w.lat[0].p50_us),
            self.mid_mean_over(false, |w| w.lat[0].tail_us),
            self.mid_mean_over(false, |w| w.lat[1].p50_us),
            self.mid_mean_over(false, |w| w.lat[1].tail_us),
            self.good as f64 / self.picks.max(1) as f64,
            self.measured.ok as f64 / self.measured.sent.max(1) as f64,
            host::peak_rss_mb(),
        ];
        E2E.iter().map(|(n, _)| *n).zip(vals).collect()
    }
}

/// Run one workload: an untimed pre-run, then windows until `seconds` have
/// passed.
pub fn run(ctx: &Ctx, seconds: f64, trace: bool) -> Result<RunOut, String> {
    let mut out = RunOut { probing: !trace, ..RunOut::default() };
    let mut tracer = trace::Tracer::new(false);
    let tcp_state =
        if ctx.workload == Workload::DurableIngest { None } else { Some(tcp::prerun(ctx)?) };
    let durable_state =
        if ctx.workload == Workload::DurableIngest { Some(durable::prerun(ctx)?) } else { None };
    let start = Instant::now();
    let min_windows = if trace { 4 } else { 3 };
    let mut w = 0;
    loop {
        // A traced run alternates untraced and traced windows, so the
        // tracing overhead is measured inside the run.
        let traced = trace && w % 2 == 1;
        tracer.set_on(traced);
        if let Some(st) = &tcp_state {
            tcp::window(ctx, st, w, traced, &mut tracer, &mut out)?;
        }
        if let Some(st) = &durable_state {
            durable::window(ctx, st, w, traced, &mut tracer, &mut out)?;
        }
        w += 1;
        if w >= min_windows && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    if let Some(sp) = &out.speed {
        sp.probe.check_idle()?;
    }
    out.spans = tracer.summarize(0);
    Ok(out)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = val()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v:?}"))?);
            }
            "--seed" => seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = val()? == "1",
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds.is_finite() && seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// The scratch root inside the checkout, one directory per process.
pub fn work_root() -> PathBuf {
    PathBuf::from(".perfbench_work").join(format!("run-{}", std::process::id()))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    // Counted before pinning narrows the process to one CPU.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = match host::pin_to_one_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if argv.first().map(String::as_str) == Some("--self-test") {
        std::process::exit(selftest::main());
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 | --self-test",
                Workload::ALL.map(Workload::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let done = Arc::new(AtomicBool::new(false));
    {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let t = Instant::now();
            while t.elapsed() < WATCHDOG {
                std::thread::sleep(Duration::from_millis(200));
                if done.load(Ordering::SeqCst) {
                    return;
                }
            }
            eprintln!(
                "perfbench: timed out after {} s; requests in flight count as failed",
                WATCHDOG.as_secs()
            );
            std::process::exit(3);
        });
    }
    let work = work_root();
    let code = match std::fs::create_dir_all(&work) {
        Err(e) => {
            eprintln!("perfbench: cannot create {}: {e}", work.display());
            2
        }
        Ok(()) => {
            let code = measure(&args, work.clone(), nproc, cpu);
            let _ = std::fs::remove_dir_all(&work);
            let _ = std::fs::remove_dir(".perfbench_work");
            code
        }
    };
    done.store(true, Ordering::SeqCst);
    std::process::exit(code);
}

fn measure(args: &Args, work: PathBuf, nproc: usize, cpu: usize) -> i32 {
    let finger = host::Fingerprint::take(&work, nproc, cpu);
    if matches!(finger.wal_fs.as_str(), "tmpfs" | "ramfs") {
        eprintln!("perfbench: refusing to run on {}: fsync is free there", finger.wal_fs);
        return 2;
    }
    let dot_before = host::dot_ns(64, 200_000);
    let ctx = Ctx::new(args.workload, args.seed, work, Fault::None, 1);
    let result = run(&ctx, args.seconds, args.trace);
    let dot_after = host::dot_ns(64, 200_000);
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", ctx.workload.name());
            return 1;
        }
    };
    println!(
        "{}",
        Obj::new()
            .raw(
                "host",
                &Obj::new()
                    .int("nproc", finger.nproc as u64)
                    .int("pinned_cpu", finger.cpu as u64)
                    .str("cpu_model", &finger.cpu_model)
                    .str("kernel", &finger.kernel)
                    .str("wal_fs", &finger.wal_fs)
                    .num("dot_m64_ns_before", dot_before)
                    .num("dot_m64_ns_after", dot_after)
                    .end(),
            )
            .str("workload", ctx.workload.name())
            .int("seed", ctx.seed)
            .bool("trace", args.trace)
            .end()
    );
    let phases = [out.setup.json("setup"), out.measured.json("measured"), out.check.json("check")];
    println!("{}", Obj::new().raw("phases", &stats::array(&phases)).end());
    let checks: Vec<String> = out
        .checks
        .iter()
        .map(|(n, ok, d)| Obj::new().str("check", n).bool("ok", *ok).str("detail", d).end())
        .collect();
    println!("{}", Obj::new().raw("checks", &stats::array(&checks)).end());

    if args.trace {
        let spans: Vec<String> = out
            .spans
            .iter()
            .map(|(name, t)| {
                Obj::new()
                    .str("span", name)
                    .int("count", t.count)
                    .int("rounds", t.rounds)
                    .int("self_ns", t.self_ns)
                    .end()
            })
            .collect();
        println!("{}", Obj::new().raw("spans", &stats::array(&spans)).end());
    }
    let metrics = if args.trace {
        layers::finish(&ctx, &mut out)
    } else {
        let e2e = out.e2e();
        E2E.iter().zip(e2e).map(|((n, u), (_, v))| (*n, *u, v)).collect::<Vec<_>>()
    };
    let untraced: Vec<&Window> = out.windows.iter().filter(|w| !w.traced).collect();
    let per_window_lat: Vec<String> = untraced
        .iter()
        .map(|w| {
            let [a, b] = w.lat;
            format!("{:?}", [a.p50_us, a.tail_us, b.p50_us, b.tail_us])
        })
        .collect();
    let per_window_steal: Vec<String> =
        untraced.iter().map(|w| format!("{:?}", w.proc.steal_share())).collect();
    let per_window_rps: Vec<String> =
        untraced.iter().map(|w| format!("{:?}", w.rounds as f64 / w.busy_s)).collect();
    let per_window_speed: Vec<String> =
        out.windows.iter().map(|w| format!("{:?}", w.speed)).collect();
    let samples = |i: usize| untraced.iter().map(|w| w.lat[i].n).sum::<u64>();
    println!(
        "{}",
        Obj::new()
            .raw(
                "samples",
                &Obj::new()
                    .int("windows", out.windows.len() as u64)
                    .int("recommend", samples(0))
                    .int("record", samples(1))
                    .num(
                        "window_tail_quantile",
                        stats::tail_quantile(untraced.first().map_or(0, |w| w.lat[0].n) as usize),
                    )
                    .int("picks", out.picks)
                    .raw("window_rounds_per_s", &stats::array(&per_window_rps))
                    .raw("window_latency_us", &stats::array(&per_window_lat))
                    .raw("window_steal_share", &stats::array(&per_window_steal))
                    .num("ref_exchange_us", host::REF_EXCHANGE_US)
                    .raw("window_host_speed", &stats::array(&per_window_speed))
                    .end(),
            )
            .end()
    );
    let mut m = Obj::new();
    for (name, unit, v) in &metrics {
        m = m.raw(name, &Obj::new().num("value", *v).str("unit", unit).end());
    }
    let attempted = out.setup.sent + out.measured.sent + out.check.sent;
    let failed = out.setup.failed + out.measured.failed + out.check.failed;
    println!(
        "{}",
        Obj::new()
            .bool("correct", out.correct())
            .int("attempted", attempted.max(1))
            .int("failed", failed)
            .raw("metrics", &m.end())
            .end()
    );
    if out.correct() {
        0
    } else {
        1
    }
}
