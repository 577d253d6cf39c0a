//! The PR-3 acceptance gate: the steady-state record path performs **zero
//! heap allocations**, verified by a counting global allocator.
//!
//! The counter is process-wide, so this binary opts out of the libtest
//! harness (`harness = false` in `Cargo.toml`) and runs its sections
//! sequentially from `main`: even serialized `#[test]` bodies flake,
//! because the harness's own threads allocate (result printing, channel
//! bookkeeping) inside a sibling's counting window.

use banditware_core::arm::{ArmEstimator, RecursiveArm};
use banditware_core::boltzmann::Boltzmann;
use banditware_core::drift::DiscountedArm;
use banditware_core::linucb::LinUcb;
use banditware_core::scaler::ScaledPolicy;
use banditware_core::thompson::LinThompson;
use banditware_core::{
    ArmSpec, BanditConfig, DecayingEpsilonGreedy, FeatureFrame, ObservationFrame, Policy,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// Counting requires delegating to the system allocator, which is inherently
// `unsafe`; the arithmetic around it is a single relaxed atomic increment.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Deterministic pseudo-context without touching the heap.
fn fill_context(buf: &mut [f64], round: usize) {
    for (j, v) in buf.iter_mut().enumerate() {
        *v = ((round * 31 + j * 7) % 97) as f64 * 0.5 + 0.1;
    }
}

/// Run `op` for `rounds` rounds and return the number of heap allocations
/// it performed.
fn count_allocs(rounds: usize, mut op: impl FnMut(usize)) -> u64 {
    let before = allocations();
    for round in 0..rounds {
        op(round);
    }
    allocations() - before
}

fn steady_state_record_path_is_allocation_free() {
    const M: usize = 16;
    let mut x = vec![0.0; M];

    // --- RecursiveArm::update: the acceptance criterion itself. ---
    let mut arm = RecursiveArm::new(M);
    for round in 0..200 {
        fill_context(&mut x, round);
        arm.update(&x, 10.0 + (round % 13) as f64).unwrap();
    }
    let n = count_allocs(100, |round| {
        fill_context(&mut x, 200 + round);
        arm.update(&x, 42.0).unwrap();
    });
    assert_eq!(n, 0, "RecursiveArm::update allocated {n} times in 100 steady-state rounds");

    // --- DiscountedArm (the exponential-discount path): γ-scaling must
    // keep the factor live, so updates stay allocation-free too. ---
    let mut arm = DiscountedArm::new(M, 0.95).unwrap();
    for round in 0..200 {
        fill_context(&mut x, round);
        arm.update(&x, 10.0 + (round % 13) as f64).unwrap();
    }
    let n = count_allocs(100, |round| {
        fill_context(&mut x, 200 + round);
        arm.update(&x, 42.0).unwrap();
    });
    assert_eq!(n, 0, "DiscountedArm::update allocated {n} times in 100 steady-state rounds");

    // --- ε-greedy select+observe (the serving default, Algorithm 1). ---
    let mut policy = DecayingEpsilonGreedy::<RecursiveArm>::new(
        ArmSpec::unit_costs(5),
        M,
        BanditConfig::paper().with_epsilon0(0.1).with_seed(7),
    )
    .unwrap();
    for round in 0..100 {
        fill_context(&mut x, round);
        policy.observe(round % 5, &x, 10.0 + (round % 17) as f64).unwrap();
    }
    let n = count_allocs(200, |round| {
        fill_context(&mut x, 100 + round);
        let sel = policy.select(&x).unwrap();
        policy.observe(sel.arm, &x, 10.0 + (round % 17) as f64).unwrap();
    });
    assert_eq!(n, 0, "ε-greedy select+observe allocated {n} times in 200 steady-state rounds");

    // --- Scaled ε-greedy: the standardization wrapper scales in place. ---
    let mut policy = ScaledPolicy::new(
        DecayingEpsilonGreedy::<RecursiveArm>::new(
            ArmSpec::unit_costs(4),
            M,
            BanditConfig::paper().with_epsilon0(0.1).with_seed(8),
        )
        .unwrap(),
    );
    for round in 0..100 {
        fill_context(&mut x, round);
        let sel = policy.select(&x).unwrap();
        policy.observe(sel.arm, &x, 10.0 + (round % 11) as f64).unwrap();
    }
    let n = count_allocs(200, |round| {
        fill_context(&mut x, 100 + round);
        let sel = policy.select(&x).unwrap();
        policy.observe(sel.arm, &x, 10.0 + (round % 11) as f64).unwrap();
    });
    assert_eq!(n, 0, "scaled ε-greedy allocated {n} times in 200 steady-state rounds");

    // --- LinUCB select+observe. ---
    let mut policy = LinUcb::new(ArmSpec::unit_costs(5), M, 1.0, 1.0).unwrap();
    for round in 0..50 {
        fill_context(&mut x, round);
        policy.observe(round % 5, &x, 10.0 + (round % 13) as f64).unwrap();
    }
    let n = count_allocs(200, |round| {
        fill_context(&mut x, 50 + round);
        let sel = policy.select(&x).unwrap();
        policy.observe(sel.arm, &x, 10.0 + (round % 13) as f64).unwrap();
    });
    assert_eq!(n, 0, "LinUCB select+observe allocated {n} times in 200 steady-state rounds");

    // --- Thompson sampling select+observe. ---
    let mut policy = LinThompson::new(ArmSpec::unit_costs(4), M, 1.0, 1.0, 9).unwrap();
    for round in 0..50 {
        fill_context(&mut x, round);
        policy.observe(round % 4, &x, 10.0 + (round % 13) as f64).unwrap();
    }
    let n = count_allocs(100, |round| {
        fill_context(&mut x, 50 + round);
        let sel = policy.select(&x).unwrap();
        policy.observe(sel.arm, &x, 10.0 + (round % 13) as f64).unwrap();
    });
    assert_eq!(n, 0, "Thompson select+observe allocated {n} times in 100 steady-state rounds");

    // --- Boltzmann select+observe. ---
    let mut policy = Boltzmann::new(ArmSpec::unit_costs(5), M, 10.0, 0.999, 3).unwrap();
    for round in 0..50 {
        fill_context(&mut x, round);
        policy.observe(round % 5, &x, 10.0 + (round % 13) as f64).unwrap();
    }
    let n = count_allocs(200, |round| {
        fill_context(&mut x, 50 + round);
        let sel = policy.select(&x).unwrap();
        policy.observe(sel.arm, &x, 10.0 + (round % 13) as f64).unwrap();
    });
    assert_eq!(n, 0, "Boltzmann select+observe allocated {n} times in 200 steady-state rounds");
}

/// The PR-4 read-path pin: `&self` scoring — `predict`, `predict_all_into`
/// with a caller buffer, LinUCB's `lcb` — performs zero heap allocations
/// once warm, across the policies whose read paths previously allocated
/// (LinUCB/Thompson augmented contexts, the scaled wrapper's transform).
fn read_path_is_allocation_free() {
    const M: usize = 16;
    let mut x = vec![0.0; M];
    let mut preds = Vec::with_capacity(8);

    // --- LinUCB predict / predict_all_into / lcb. ---
    let mut policy = LinUcb::new(ArmSpec::unit_costs(5), M, 1.0, 1.0).unwrap();
    for round in 0..50 {
        fill_context(&mut x, round);
        policy.observe(round % 5, &x, 10.0 + (round % 13) as f64).unwrap();
    }
    // Warm the read scratch once before counting.
    policy.predict_all_into(&x, &mut preds).unwrap();
    let n = count_allocs(200, |round| {
        fill_context(&mut x, 50 + round);
        policy.predict(round % 5, &x).unwrap();
        policy.predict_all_into(&x, &mut preds).unwrap();
        policy.lcb(round % 5, &x).unwrap();
    });
    assert_eq!(n, 0, "LinUCB read path allocated {n} times in 200 sweeps");

    // --- Thompson predict. ---
    let mut policy = LinThompson::new(ArmSpec::unit_costs(4), M, 1.0, 1.0, 9).unwrap();
    for round in 0..50 {
        fill_context(&mut x, round);
        policy.observe(round % 4, &x, 10.0 + (round % 13) as f64).unwrap();
    }
    policy.predict_all_into(&x, &mut preds).unwrap();
    let n = count_allocs(200, |round| {
        fill_context(&mut x, 50 + round);
        policy.predict(round % 4, &x).unwrap();
        policy.predict_all_into(&x, &mut preds).unwrap();
    });
    assert_eq!(n, 0, "Thompson read path allocated {n} times in 200 sweeps");

    // --- Scaled ε-greedy predict / predict_all_into (transform + inner). ---
    let mut policy = ScaledPolicy::new(
        DecayingEpsilonGreedy::<RecursiveArm>::new(
            ArmSpec::unit_costs(4),
            M,
            BanditConfig::paper().with_epsilon0(0.1).with_seed(8),
        )
        .unwrap(),
    );
    for round in 0..50 {
        fill_context(&mut x, round);
        let sel = policy.select(&x).unwrap();
        policy.observe(sel.arm, &x, 10.0 + (round % 11) as f64).unwrap();
    }
    policy.predict_all_into(&x, &mut preds).unwrap();
    let n = count_allocs(200, |round| {
        fill_context(&mut x, 50 + round);
        policy.predict(round % 4, &x).unwrap();
        policy.predict_all_into(&x, &mut preds).unwrap();
    });
    assert_eq!(n, 0, "scaled read path allocated {n} times in 200 sweeps");
}

/// The batched-select pin: refilling a reused [`FeatureFrame`] in place
/// and selecting through `select_frame_into` over a reused selections
/// buffer and a reused row-gather buffer — the path
/// `Engine::recommend_batch_frame` drives per coalesced network burst —
/// performs zero heap allocations once warm: the per-arm columnar predict
/// kernel, the scaled wrapper's column-wise scaler pass, and the default
/// row gather (LinUCB) alike.
fn batched_select_path_is_allocation_free() {
    const M: usize = 16;
    const B: usize = 32;
    let mut xs: Vec<Vec<f64>> = (0..B).map(|_| vec![0.0; M]).collect();
    let mut out = Vec::with_capacity(B);
    let mut row = Vec::new();

    let fill_batch = |xs: &mut [Vec<f64>], round: usize| {
        for (i, x) in xs.iter_mut().enumerate() {
            fill_context(x, round * B + i);
        }
    };

    let mut frame = FeatureFrame::new();

    // --- ε-greedy (the serving default): the columnar predict kernel. ---
    let mut policy = DecayingEpsilonGreedy::<RecursiveArm>::new(
        ArmSpec::unit_costs(5),
        M,
        BanditConfig::paper().with_epsilon0(0.1).with_seed(9),
    )
    .unwrap();
    for round in 0..50 {
        fill_batch(&mut xs, round);
        policy.observe(round % 5, &xs[0], 10.0 + (round % 17) as f64).unwrap();
    }
    frame.fill_from_rows(&xs).unwrap();
    policy.select_frame_into(&frame, &mut out, &mut row).unwrap();
    let n = count_allocs(100, |round| {
        fill_batch(&mut xs, 50 + round);
        frame.fill_from_rows(&xs).unwrap();
        policy.select_frame_into(&frame, &mut out, &mut row).unwrap();
    });
    assert_eq!(n, 0, "ε-greedy frame path allocated {n} times in 100 warm bursts");

    // --- Scaled ε-greedy: the column-wise scaler pass must reuse the
    // wrapper's staging frame. ---
    let mut policy = ScaledPolicy::new(
        DecayingEpsilonGreedy::<RecursiveArm>::new(
            ArmSpec::unit_costs(4),
            M,
            BanditConfig::paper().with_epsilon0(0.1).with_seed(10),
        )
        .unwrap(),
    );
    for round in 0..50 {
        fill_batch(&mut xs, round);
        let sel = policy.select(&xs[0]).unwrap();
        policy.observe(sel.arm, &xs[0], 10.0 + (round % 11) as f64).unwrap();
    }
    frame.fill_from_rows(&xs).unwrap();
    policy.select_frame_into(&frame, &mut out, &mut row).unwrap();
    let n = count_allocs(100, |round| {
        fill_batch(&mut xs, 50 + round);
        frame.fill_from_rows(&xs).unwrap();
        policy.select_frame_into(&frame, &mut out, &mut row).unwrap();
    });
    assert_eq!(n, 0, "scaled frame path allocated {n} times in 100 warm bursts");

    // --- LinUCB: the default row gather must reuse the caller's buffer. ---
    let mut policy = LinUcb::new(ArmSpec::unit_costs(5), M, 1.0, 1.0).unwrap();
    for round in 0..50 {
        fill_batch(&mut xs, round);
        policy.observe(round % 5, &xs[0], 10.0 + (round % 13) as f64).unwrap();
    }
    frame.fill_from_rows(&xs).unwrap();
    policy.select_frame_into(&frame, &mut out, &mut row).unwrap();
    let n = count_allocs(100, |round| {
        fill_batch(&mut xs, 50 + round);
        frame.fill_from_rows(&xs).unwrap();
        policy.select_frame_into(&frame, &mut out, &mut row).unwrap();
    });
    assert_eq!(n, 0, "LinUCB frame path allocated {n} times in 100 warm bursts");
}

/// The batched-record pin: staging a burst into a reused
/// [`ObservationFrame`] and absorbing it through `observe_frame` — the
/// per-arm counting sort, the feature-major block gather, the rank-k Gram
/// fold (`push_block` + live-factor cholupdates), the scaled wrapper's
/// column transform, and the default row gather (LinUCB) into a reused
/// buffer — performs zero heap allocations once warm.
fn batched_record_path_is_allocation_free() {
    const M: usize = 16;
    const B: usize = 32;
    let mut xs: Vec<Vec<f64>> = (0..B).map(|_| vec![0.0; M]).collect();
    let mut obs = ObservationFrame::new();
    let mut absorbed: Vec<bool> = Vec::new();
    let mut row = Vec::new();

    let fill_batch = |xs: &mut [Vec<f64>], round: usize| {
        for (i, x) in xs.iter_mut().enumerate() {
            fill_context(x, round * B + i);
        }
    };
    // Stage the round's burst: deterministic arms across `n_arms`,
    // strictly positive runtimes (the rank-k fast path).
    let stage = |obs: &mut ObservationFrame, xs: &[Vec<f64>], round: usize, n_arms: usize| {
        obs.begin(B, M);
        for (i, x) in xs.iter().enumerate() {
            let arm = (round * B + i) % n_arms;
            let rt = 10.0 + ((round + i) % 17) as f64;
            obs.set_row(i, arm, x, rt, false).unwrap();
        }
    };

    // --- ε-greedy grouped rank-k absorption (the serving default). ---
    let mut policy = DecayingEpsilonGreedy::<RecursiveArm>::new(
        ArmSpec::unit_costs(5),
        M,
        BanditConfig::paper().with_epsilon0(0.1).with_seed(11),
    )
    .unwrap();
    for round in 0..50 {
        fill_batch(&mut xs, round);
        policy.observe(round % 5, &xs[0], 10.0 + (round % 17) as f64).unwrap();
    }
    // Warm the group/block scratches (and every arm's live factor) once.
    fill_batch(&mut xs, 50);
    stage(&mut obs, &xs, 50, 5);
    policy.observe_frame(&obs, &mut absorbed, &mut row).unwrap();
    let n = count_allocs(100, |round| {
        fill_batch(&mut xs, 51 + round);
        stage(&mut obs, &xs, 51 + round, 5);
        policy.observe_frame(&obs, &mut absorbed, &mut row).unwrap();
    });
    assert_eq!(n, 0, "ε-greedy observe_frame allocated {n} times in 100 warm bursts");

    // --- Scaled ε-greedy: the column transform + lane copy must reuse the
    // wrapper's staging frame. ---
    let mut policy = ScaledPolicy::new(
        DecayingEpsilonGreedy::<RecursiveArm>::new(
            ArmSpec::unit_costs(4),
            M,
            BanditConfig::paper().with_epsilon0(0.1).with_seed(12),
        )
        .unwrap(),
    );
    for round in 0..50 {
        fill_batch(&mut xs, round);
        let sel = policy.select(&xs[0]).unwrap();
        policy.observe(sel.arm, &xs[0], 10.0 + (round % 11) as f64).unwrap();
    }
    fill_batch(&mut xs, 50);
    stage(&mut obs, &xs, 50, 4);
    policy.observe_frame(&obs, &mut absorbed, &mut row).unwrap();
    let n = count_allocs(100, |round| {
        fill_batch(&mut xs, 51 + round);
        stage(&mut obs, &xs, 51 + round, 4);
        policy.observe_frame(&obs, &mut absorbed, &mut row).unwrap();
    });
    assert_eq!(n, 0, "scaled observe_frame allocated {n} times in 100 warm bursts");

    // --- LinUCB: the default row-gather absorption must reuse the
    // caller's buffer. ---
    let mut policy = LinUcb::new(ArmSpec::unit_costs(5), M, 1.0, 1.0).unwrap();
    for round in 0..50 {
        fill_batch(&mut xs, round);
        policy.observe(round % 5, &xs[0], 10.0 + (round % 13) as f64).unwrap();
    }
    fill_batch(&mut xs, 50);
    stage(&mut obs, &xs, 50, 5);
    policy.observe_frame(&obs, &mut absorbed, &mut row).unwrap();
    let n = count_allocs(100, |round| {
        fill_batch(&mut xs, 51 + round);
        stage(&mut obs, &xs, 51 + round, 5);
        policy.observe_frame(&obs, &mut absorbed, &mut row).unwrap();
    });
    assert_eq!(n, 0, "LinUCB observe_frame allocated {n} times in 100 warm bursts");
}

fn main() {
    for (name, section) in [
        (
            "steady_state_record_path_is_allocation_free",
            steady_state_record_path_is_allocation_free as fn(),
        ),
        ("read_path_is_allocation_free", read_path_is_allocation_free),
        ("batched_select_path_is_allocation_free", batched_select_path_is_allocation_free),
        ("batched_record_path_is_allocation_free", batched_record_path_is_allocation_free),
    ] {
        section();
        println!("alloc_free: {name} ... ok");
    }
}
