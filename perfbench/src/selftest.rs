//! `--self-test`: the benchmark checks itself.
//!
//! * Determinism: the same seed gives bitwise-identical generated inputs,
//!   and a different seed different ones; two runs with one seed give the
//!   same `best_hw_share` on bp3d-fleet and durable-ingest.
//! * Coverage: a tiny run of each workload prints every end-to-end metric
//!   (`--trace 0`) and every per-layer metric (`--trace 1`), finite and
//!   with its unit, and passes every check.
//! * Faults: each correctness check fires on a seeded fault — one flipped
//!   response bit, one dropped record, one record cut from the WAL — and
//!   the host-speed probe refuses to time the host while another thread
//!   of the process is busy.

use crate::gen::{Oracle, Stream, Workload};
use crate::host::SpeedProbe;
use crate::layers::LAYER;
use crate::replay::Fnv;
use crate::{run, work_root, Ctx, Fault, RunOut, E2E};
use std::sync::atomic::{AtomicBool, Ordering};

/// Windows in a self-test run are this many times smaller.
const SCALE: usize = 16;

/// Digest of the first `bursts` bursts of a workload's inputs: keys,
/// contexts, and the runtimes every arm would observe.
fn input_digest(workload: Workload, seed: u64, bursts: usize) -> u64 {
    let oracle = Oracle::new(workload, seed);
    let mut stream = Stream::new(workload, seed);
    let mut reqs = Vec::new();
    let mut h = Fnv::new();
    for _ in 0..bursts {
        stream.next_burst(&oracle, &mut reqs);
        for r in &reqs {
            h.word(r.key as u64);
            for x in &r.x {
                h.word(x.to_bits());
            }
            for arm in 0..oracle.n_arms() {
                h.word(stream.runtime(&oracle, arm, &r.x).to_bits());
            }
        }
    }
    h.finish()
}

struct Tally {
    failed: usize,
}

impl Tally {
    fn expect(&mut self, name: &str, ok: bool, detail: &str) {
        if ok {
            println!("PASS {name}");
        } else {
            self.failed += 1;
            println!("FAIL {name}: {detail}");
        }
    }
}

fn tiny(
    workload: Workload,
    seed: u64,
    fault: Fault,
    trace: bool,
    n: usize,
) -> Result<(Ctx, RunOut), String> {
    let dir = work_root().join(format!("selftest-{n}"));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let ctx = Ctx::new(workload, seed, dir, fault, SCALE);
    let out = run(&ctx, 0.0, trace)?;
    let _ = std::fs::remove_dir_all(&ctx.work);
    Ok((ctx, out))
}

fn check_state(out: &RunOut, name: &str) -> Option<bool> {
    out.checks.iter().find(|c| c.0 == name).map(|c| c.1)
}

pub fn main() -> i32 {
    let mut t = Tally { failed: 0 };
    let mut n = 0;
    let mut next = || {
        n += 1;
        n
    };

    for w in Workload::ALL {
        let a = input_digest(w, 7, 32);
        t.expect(
            &format!("{}: same seed, same inputs", w.name()),
            a == input_digest(w, 7, 32),
            "digests differ",
        );
        t.expect(
            &format!("{}: other seed, other inputs", w.name()),
            a != input_digest(w, 8, 32),
            "digests equal",
        );
    }

    for w in Workload::ALL {
        for trace in [false, true] {
            let label = format!("{} tiny run (trace {})", w.name(), u8::from(trace));
            match tiny(w, 11, Fault::None, trace, next()) {
                Err(e) => t.expect(&label, false, &e),
                Ok((ctx, mut out)) => {
                    let failing: Vec<String> = out
                        .checks
                        .iter()
                        .filter(|c| !c.1)
                        .map(|c| format!("{}: {}", c.0, c.2))
                        .collect();
                    t.expect(&format!("{label}: checks pass"), out.correct(), &failing.join("; "));
                    let metrics: Vec<(&str, &str, f64)> = if trace {
                        crate::layers::finish(&ctx, &mut out)
                    } else {
                        E2E.iter().zip(out.e2e()).map(|((n, u), (_, v))| (*n, *u, v)).collect()
                    };
                    let want: Vec<&str> = if trace {
                        LAYER.iter().map(|m| m.0).collect()
                    } else {
                        E2E.iter().map(|m| m.0).collect()
                    };
                    let names: Vec<&str> = metrics.iter().map(|m| m.0).collect();
                    let bad: Vec<String> = metrics
                        .iter()
                        .filter(|(_, u, v)| !v.is_finite() || u.is_empty())
                        .map(|(n, u, v)| format!("{n}={v} {u}"))
                        .collect();
                    for (name, unit, v) in &metrics {
                        println!("  {name} = {v} {unit}");
                    }
                    t.expect(
                        &format!("{label}: every metric, finite, with its unit"),
                        names == want && bad.is_empty(),
                        &format!("missing or bad: {bad:?}"),
                    );
                }
            }
        }
    }

    for w in [Workload::Bp3dFleet, Workload::DurableIngest] {
        let share = |n: usize| tiny(w, 5, Fault::None, false, n).map(|(_, o)| (o.good, o.picks));
        let (a, b) = (share(next()), share(next()));
        t.expect(
            &format!("{}: same seed, same best_hw_share", w.name()),
            matches!((&a, &b), (Ok(x), Ok(y)) if x == y && x.1 > 0),
            &format!("{a:?} vs {b:?}"),
        );
    }

    let faults = [
        (Workload::Bp3dFleet, Fault::FlipBit, "twin"),
        (Workload::Bp3dFleet, Fault::DropRecord, "tickets"),
        (Workload::DurableIngest, Fault::DropRecord, "tickets"),
        (Workload::DurableIngest, Fault::LoseWalRecord, "recovery"),
    ];
    for (w, fault, check) in faults {
        let label = format!("{}: {fault:?} trips the {check} check", w.name());
        match tiny(w, 3, fault, false, next()) {
            Err(e) => t.expect(&label, false, &e),
            Ok((_, out)) => t.expect(
                &label,
                check_state(&out, check) == Some(false) && !out.correct(),
                &format!("{check} check state {:?}", check_state(&out, check)),
            ),
        }
    }
    // The host-speed probe's audit: it passes an idle process and refuses
    // one whose other thread is busy while the probe runs.
    let audit = || {
        let mut p = SpeedProbe::start()?;
        (0..50).try_for_each(|_| p.speed(true).map(drop))?;
        p.check_idle()
    };
    let idle = audit();
    t.expect("speed probe: an idle process passes the audit", idle.is_ok(), &format!("{idle:?}"));
    let stop = AtomicBool::new(false);
    let busy = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        });
        let r = audit();
        stop.store(true, Ordering::Relaxed);
        r
    });
    t.expect("speed probe: a busy thread trips the audit", busy.is_err(), &format!("{busy:?}"));

    let _ = std::fs::remove_dir_all(work_root());
    let _ = std::fs::remove_dir(".perfbench_work");
    if t.failed == 0 {
        println!("self-test: all passed");
        0
    } else {
        println!("self-test: {} failed", t.failed);
        1
    }
}
