//! Host fingerprint, CPU pinning, the host-speed probe and `/proc/self`
//! counters.

use banditware_linalg::vector;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::Path;
use std::thread::JoinHandle;
use std::time::Instant;

/// What the numbers were measured on.
pub struct Fingerprint {
    /// CPUs the process could use before [`pin_to_one_cpu`].
    pub nproc: usize,
    /// The CPU the run is pinned to.
    pub cpu: usize,
    pub cpu_model: String,
    pub kernel: String,
    pub wal_fs: String,
}

impl Fingerprint {
    pub fn take(work_dir: &Path, nproc: usize, cpu: usize) -> Fingerprint {
        let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let cpu_model = cpuinfo
            .lines()
            .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split(':').nth(1)))
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
        Fingerprint {
            nproc,
            cpu,
            cpu_model,
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
            wal_fs: fs_type(work_dir),
        }
    }
}

/// Filesystem type of the mount holding `path` (longest mount-point prefix
/// in `/proc/self/mountinfo`).
fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let info = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    let mut best: Option<(usize, String)> = None;
    for line in info.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        let Some(dash) = fields.iter().position(|f| *f == "-") else { continue };
        let (Some(mount), Some(fstype)) = (fields.get(4), fields.get(dash + 1)) else { continue };
        let mount = mount.replace("\\040", " ");
        if path.starts_with(&mount) && best.as_ref().is_none_or(|(len, _)| mount.len() >= *len) {
            best = Some((mount.len(), (*fstype).to_string()));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, t)| t)
}

// SAFETY: declarations match the Linux libc prototypes of
// `sched_getaffinity(2)` and `sched_setaffinity(2)`; the one caller passes
// a mask buffer it owns and that buffer's size in bytes.
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Pin the calling thread, and so every thread it starts afterwards, the
/// program's server threads included, to the last CPU it may run on, and
/// return that CPU. On a guest of a few virtual CPUs a wakeup that crosses
/// CPUs costs an interrupt to, and often the waking of, a halted virtual
/// CPU, which the hypervisor prices differently from minute to minute;
/// where the client and the program share one CPU, a wakeup is a context
/// switch, and the run measures the program's own work.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of `size` bytes.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } < 0 {
        return Err(format!("sched_getaffinity: {}", std::io::Error::last_os_error()));
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or("sched_getaffinity: no CPU in the mask")?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of `size` bytes; the kernel only reads it.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } < 0 {
        return Err(format!("sched_setaffinity: {}", std::io::Error::last_os_error()));
    }
    Ok(cpu)
}

/// Median time of one probe exchange, in µs, on the reference host: a
/// 2-vCPU Intel Xeon guest (Linux 6.18), pinned as [`pin_to_one_cpu`] pins.
pub const REF_EXCHANGE_US: f64 = 8.0;
/// Exchanges per probe.
const PROBE_EXCHANGES: usize = 16;
/// Bytes per exchange: about one bp3d-fleet burst of frames.
const PROBE_BYTES: usize = 64 * 48;
/// The share of the audited probes' time the process's other threads may
/// use before the run is refused. Idle threads wake on timers (the
/// watchdog every 200 ms, a connection thread every 25 ms): a wakeup that
/// lands in a probe costs it about a tenth of its time, but such wakeups
/// land in few probes. A thread that keeps busy takes about half.
const PROBE_FOREIGN_MAX: f64 = 0.1;

/// The host-speed probe. Other guests of a shared host slow this one in
/// phases that last from a second to many minutes (a busy sibling
/// hyperthread, steal), by up to 2x, and every time the benchmark takes
/// moves with them. The probe times a fixed exchange that runs none of the
/// program's code: [`PROBE_BYTES`] written over loopback TCP to an echo
/// thread on the same CPU and read back, which takes the same kinds of
/// work as a round (syscalls, a context switch each way, copies). It is
/// timed only while every program thread waits; a program thread that ran
/// during it would slow it and so hide its own cost in every scaled time,
/// which [`SpeedProbe::check_idle`] refuses. `speed` is
/// [`REF_EXCHANGE_US`] over the median exchange: the factor by which the
/// host is currently faster than the reference host.
pub struct SpeedProbe {
    conn: TcpStream,
    echo: Option<JoinHandle<()>>,
    /// Thread ids of the probe's two ends, which the audit leaves out.
    own: [String; 2],
    /// Over the audited probes: ns of CPU the process's other threads
    /// used, and ns of wall time.
    audited: [u64; 2],
    out: Vec<u8>,
    back: Vec<u8>,
    times: Vec<f64>,
}

/// The calling thread's id, from `/proc/thread-self`.
fn thread_id() -> Result<String, String> {
    let link = std::fs::read_link("/proc/thread-self").map_err(|e| format!("thread id: {e}"))?;
    link.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .ok_or_else(|| format!("thread id: {}", link.display()))
}

impl SpeedProbe {
    pub fn start() -> Result<SpeedProbe, String> {
        let err = |e: std::io::Error| format!("speed probe: {e}");
        let own = thread_id()?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(err)?;
        let conn = TcpStream::connect(listener.local_addr().map_err(err)?).map_err(err)?;
        let (mut peer, _) = listener.accept().map_err(err)?;
        conn.set_nodelay(true).map_err(err)?;
        peer.set_nodelay(true).map_err(err)?;
        let (tid_tx, tid_rx) = std::sync::mpsc::channel();
        let echo = std::thread::spawn(move || {
            let _ = tid_tx.send(thread_id());
            let mut buf = vec![0u8; PROBE_BYTES];
            while peer.read_exact(&mut buf).is_ok() && peer.write_all(&buf).is_ok() {}
        });
        // From here on, dropping the probe ends and joins the echo thread.
        let mut probe = SpeedProbe {
            conn,
            echo: Some(echo),
            own: [own, String::new()],
            audited: [0, 0],
            out: vec![0x5a; PROBE_BYTES],
            back: vec![0; PROBE_BYTES],
            times: Vec::with_capacity(PROBE_EXCHANGES),
        };
        probe.own[1] = tid_rx.recv().map_err(|e| format!("speed probe: {e}"))??;
        Ok(probe)
    }

    /// CPU time so far, in ns, of the process's threads other than the
    /// probe's own (`/proc/self/task/*/schedstat`).
    fn others_cpu_ns(&self) -> u64 {
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return 0 };
        tasks
            .flatten()
            .filter(|t| !self.own.iter().any(|o| t.file_name().to_str() == Some(o.as_str())))
            .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
            .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
            .sum()
    }

    /// The host's speed now. With `audit`, count the CPU time the
    /// process's other threads used meanwhile.
    pub fn speed(&mut self, audit: bool) -> Result<f64, String> {
        let before = audit.then(|| self.others_cpu_ns());
        let start = Instant::now();
        self.times.clear();
        for _ in 0..PROBE_EXCHANGES {
            let t = Instant::now();
            self.conn
                .write_all(&self.out)
                .and_then(|()| self.conn.read_exact(&mut self.back))
                .map_err(|e| format!("speed probe: {e}"))?;
            self.times.push(t.elapsed().as_secs_f64() * 1e6);
        }
        if let Some(before) = before {
            let wall_ns = start.elapsed().as_nanos() as u64;
            self.audited[0] += self.others_cpu_ns().saturating_sub(before);
            self.audited[1] += wall_ns;
        }
        Ok(REF_EXCHANGE_US / crate::stats::median(&mut self.times))
    }

    /// Refuse the readings if the process's other threads used more than
    /// [`PROBE_FOREIGN_MAX`] of the audited probes' time.
    pub fn check_idle(&self) -> Result<(), String> {
        let share = self.audited[0] as f64 / self.audited[1].max(1) as f64;
        if share > PROBE_FOREIGN_MAX {
            return Err(format!(
                "speed probe: other threads of the process ran for {:.1} % of the audited \
                 probes' time, so the probe did not time the host alone",
                share * 100.0
            ));
        }
        Ok(())
    }
}

impl Drop for SpeedProbe {
    /// Closing the connection ends the echo thread, which is then joined.
    fn drop(&mut self) {
        let _ = self.conn.shutdown(Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

/// Median ns of one `vector::dot` at width `m`. At m = 64 it is the
/// calibration probe timed before and after a run, so a host-level
/// slowdown shows next to the numbers.
pub fn dot_ns(m: usize, iters: usize) -> f64 {
    let a: Vec<f64> = (0..m).map(|i| 0.5 + i as f64 * 0.01).collect();
    let b: Vec<f64> = (0..m).map(|i| 1.5 - i as f64 * 0.01).collect();
    median_ns_per_call(9, iters, || {
        std::hint::black_box(vector::dot(std::hint::black_box(&a), std::hint::black_box(&b)));
    })
}

/// Median over `samples` of the mean ns per call of `iters` calls.
pub fn median_ns_per_call(samples: usize, iters: usize, mut op: impl FnMut()) -> f64 {
    for _ in 0..iters.min(1_000) {
        op();
    }
    let mut v: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                op();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    crate::stats::median(&mut v)
}

/// Peak resident set (VmHWM) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|r| r.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Process-wide counters, summed over the live threads.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcCounters {
    /// CPU time in ns (`/proc/self/task/*/schedstat`).
    pub cpu_ns: u64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
    /// Write-family syscalls (`/proc/self/io` `syscw`, whole process).
    /// Socket sends (`sendto`) are not counted there.
    pub write_syscalls: u64,
    /// TCP segments sent in this network namespace (`/proc/net/snmp`
    /// `OutSegs`): over loopback, both ends' socket writes.
    pub tcp_out_segs: u64,
    /// Host-wide CPU ticks (`/proc/stat`): all, and stolen by the
    /// hypervisor for other guests.
    pub host_ticks: u64,
    pub steal_ticks: u64,
}

impl ProcCounters {
    pub fn sample() -> ProcCounters {
        let mut c = ProcCounters::default();
        if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
            for task in tasks.flatten() {
                let dir = task.path();
                if let Ok(s) = std::fs::read_to_string(dir.join("schedstat")) {
                    c.cpu_ns +=
                        s.split_whitespace().next().and_then(|v| v.parse().ok()).unwrap_or(0);
                }
                if let Ok(s) = std::fs::read_to_string(dir.join("status")) {
                    for line in s.lines() {
                        if let Some(v) = line
                            .strip_prefix("voluntary_ctxt_switches:")
                            .or_else(|| line.strip_prefix("nonvoluntary_ctxt_switches:"))
                        {
                            c.ctx_switches += v.trim().parse::<u64>().unwrap_or(0);
                        }
                    }
                }
            }
        }
        let io = std::fs::read_to_string("/proc/self/io").unwrap_or_default();
        c.write_syscalls = io
            .lines()
            .find_map(|l| l.strip_prefix("syscw:"))
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(0);
        c.tcp_out_segs = tcp_out_segs();
        let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let cpu: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        c.host_ticks = cpu.iter().sum();
        c.steal_ticks = cpu.get(7).copied().unwrap_or(0);
        c
    }

    /// Share of the host's CPU time the hypervisor gave to other guests.
    pub fn steal_share(&self) -> f64 {
        self.steal_ticks as f64 / self.host_ticks.max(1) as f64
    }

    pub fn since(self, earlier: ProcCounters) -> ProcCounters {
        ProcCounters {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
            write_syscalls: self.write_syscalls.saturating_sub(earlier.write_syscalls),
            tcp_out_segs: self.tcp_out_segs.saturating_sub(earlier.tcp_out_segs),
            host_ticks: self.host_ticks.saturating_sub(earlier.host_ticks),
            steal_ticks: self.steal_ticks.saturating_sub(earlier.steal_ticks),
        }
    }
}

fn tcp_out_segs() -> u64 {
    let snmp = std::fs::read_to_string("/proc/net/snmp").unwrap_or_default();
    let mut rows = snmp.lines().filter(|l| l.starts_with("Tcp:"));
    let (Some(names), Some(values)) = (rows.next(), rows.next()) else { return 0 };
    names
        .split_whitespace()
        .zip(values.split_whitespace())
        .find(|(n, _)| *n == "OutSegs")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0)
}
