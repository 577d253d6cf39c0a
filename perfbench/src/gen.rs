//! Seeded inputs: the three workloads' shapes, their cost models (the
//! oracle behind `best_hw_share`) and the request streams.
//!
//! Everything here is a pure function of the run seed, so the same seed
//! gives bitwise-identical inputs. Streams are generated on the fly, one
//! burst at a time, never held whole in memory.

use banditware_core::{ArmSpec, Tolerance};
use banditware_workloads::bp3d::{paper_burn_units, Bp3dModel, BurnUnit, Weather};
use banditware_workloads::cycles::CyclesModel;
use banditware_workloads::hardware::{ndp_hardware, synthetic_hardware, HardwareConfig};
use banditware_workloads::CostModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The tolerance `best_hw_share` judges a pick with: an arm counts as a
/// right pick when its noise-free runtime is within 3 % of the
/// oracle-best arm's (the paper's `(1 + tr)·R(fastest) + ts` with
/// `tr = 0.03`, `ts = 0`).
pub const JUDGE_TOLERANCE: Tolerance = Tolerance { ratio: 0.03, seconds: 0.0 };

/// Which workload a run drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// TCP, 256 trained BP3D tenants, Zipf keys, pipelined bursts of 64.
    Bp3dFleet,
    /// TCP, one m=64 tenant, two connections with one request in flight each.
    WideHotTenant,
    /// In process through `DurableEngine`, Cycles tenants, bursts of 16.
    DurableIngest,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::Bp3dFleet, Workload::WideHotTenant, Workload::DurableIngest];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Bp3dFleet => "bp3d-fleet",
            Workload::WideHotTenant => "wide-hot-tenant",
            Workload::DurableIngest => "durable-ingest",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Context width m.
    pub fn n_features(self) -> usize {
        match self {
            Workload::Bp3dFleet => 7,
            Workload::WideHotTenant => 64,
            Workload::DurableIngest => 1,
        }
    }

    pub fn n_tenants(self) -> usize {
        match self {
            Workload::Bp3dFleet => 256,
            Workload::WideHotTenant => 1,
            Workload::DurableIngest => 64,
        }
    }

    /// Rounds per burst: pipelined bursts (bp3d), one wave over the two
    /// connections (wide), one batch call pair (durable).
    pub fn burst(self) -> usize {
        match self {
            Workload::Bp3dFleet => 64,
            Workload::WideHotTenant => 2,
            Workload::DurableIngest => 16,
        }
    }

    /// Bursts in one measured window. Short windows give a run many of
    /// them to take quartiles over; a durable-ingest window is long enough
    /// that its one `compact_all` (an fsync per tenant) stays a minor share.
    pub fn bursts_per_window(self) -> usize {
        match self {
            Workload::Bp3dFleet => 320,
            Workload::WideHotTenant => 1_000,
            Workload::DurableIngest => 32_768,
        }
    }

    /// Training rounds per tenant in the untimed pre-run.
    pub fn train_rounds(self) -> usize {
        match self {
            Workload::Bp3dFleet => 400,
            Workload::WideHotTenant => 4_000,
            Workload::DurableIngest => 400,
        }
    }
}

pub fn tenant_key(i: usize) -> String {
    format!("t{i:03}")
}

/// splitmix64: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sub-seed salts, one per independent random stream.
pub const SALT_WORLD: u64 = 1;
pub const SALT_TRAIN: u64 = 2;
pub const SALT_STREAM: u64 = 3;
pub const SALT_ENGINE: u64 = 4;

/// The ground-truth runtime model of a workload.
pub enum Oracle {
    Bp3d {
        model: Bp3dModel,
        hardware: Vec<HardwareConfig>,
        units: Vec<BurnUnit>,
    },
    Cycles {
        model: CyclesModel,
        hardware: Vec<HardwareConfig>,
    },
    /// The benchmark's own seeded linear model at m = 64:
    /// `runtime_a(x) = c_a + w_a·x`, log-normal noise.
    Linear {
        intercepts: Vec<f64>,
        weights: Vec<Vec<f64>>,
        sigma: f64,
    },
}

impl Oracle {
    pub fn new(workload: Workload, seed: u64) -> Oracle {
        let mut rng = StdRng::seed_from_u64(mix(seed, SALT_WORLD));
        match workload {
            Workload::Bp3dFleet => Oracle::Bp3d {
                model: Bp3dModel::paper(),
                hardware: ndp_hardware(),
                units: paper_burn_units(&mut rng),
            },
            Workload::DurableIngest => {
                Oracle::Cycles { model: CyclesModel::paper(), hardware: synthetic_hardware() }
            }
            Workload::WideHotTenant => {
                let m = workload.n_features();
                let arms = 4;
                let intercepts = (0..arms).map(|_| rng.gen_range(10.0..30.0)).collect();
                let weights =
                    (0..arms).map(|_| (0..m).map(|_| rng.gen_range(0.0..2.0)).collect()).collect();
                Oracle::Linear { intercepts, weights, sigma: 0.05 }
            }
        }
    }

    pub fn specs(&self) -> Vec<ArmSpec> {
        let from_hw = |hw: &[HardwareConfig]| {
            hw.iter().map(|h| ArmSpec::new(h.id, h.name.clone(), h.resource_cost())).collect()
        };
        match self {
            Oracle::Bp3d { hardware, .. } | Oracle::Cycles { hardware, .. } => from_hw(hardware),
            Oracle::Linear { intercepts, .. } => (0..intercepts.len())
                .map(|i| ArmSpec::new(i, format!("W{i}"), 1.0 + i as f64))
                .collect(),
        }
    }

    pub fn n_arms(&self) -> usize {
        match self {
            Oracle::Bp3d { hardware, .. } | Oracle::Cycles { hardware, .. } => hardware.len(),
            Oracle::Linear { intercepts, .. } => intercepts.len(),
        }
    }

    /// Noise-free runtime of `arm` on context `x`.
    pub fn expected(&self, arm: usize, x: &[f64]) -> f64 {
        match self {
            Oracle::Bp3d { model, hardware, .. } => model.expected_runtime(&hardware[arm], x),
            Oracle::Cycles { model, hardware } => model.expected_runtime(&hardware[arm], x),
            Oracle::Linear { intercepts, weights, .. } => {
                intercepts[arm] + weights[arm].iter().zip(x).map(|(w, v)| w * v).sum::<f64>()
            }
        }
    }

    /// One observed (noisy) runtime.
    pub fn sample(&self, arm: usize, x: &[f64], rng: &mut StdRng) -> f64 {
        match self {
            Oracle::Bp3d { model, hardware, .. } => model.sample_runtime(&hardware[arm], x, rng),
            Oracle::Cycles { model, hardware } => model.sample_runtime(&hardware[arm], x, rng),
            Oracle::Linear { sigma, .. } => {
                let z = banditware_workloads::noise::gaussian(rng);
                self.expected(arm, x) * (sigma * z).exp()
            }
        }
    }

    /// Whether `arm` is within [`JUDGE_TOLERANCE`] of the oracle-best arm.
    pub fn is_good_pick(&self, arm: usize, x: &[f64]) -> bool {
        let best = (0..self.n_arms()).map(|a| self.expected(a, x)).fold(f64::INFINITY, f64::min);
        self.expected(arm, x) <= JUDGE_TOLERANCE.limit(best)
    }

    /// One context vector.
    pub fn context(&self, rng: &mut StdRng) -> Vec<f64> {
        match self {
            Oracle::Bp3d { units, .. } => {
                let unit = &units[rng.gen_range(0..units.len())];
                let weather = Weather::sample(rng);
                let sim_time = [400.0, 600.0, 800.0, 1000.0, 1200.0][rng.gen_range(0..5)];
                Bp3dModel::features_for(unit, &weather, sim_time, rng)
            }
            Oracle::Cycles { .. } => vec![f64::from(rng.gen_range(100u32..=500))],
            Oracle::Linear { weights, .. } => {
                (0..weights[0].len()).map(|_| rng.gen_range(0.0..1.0)).collect()
            }
        }
    }
}

/// Zipf(s = 1) popularity over `n` keys, sampled by inverse CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / k as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One generated request: tenant index and context.
pub struct Req {
    pub key: usize,
    pub x: Vec<f64>,
}

/// The measured-phase request stream of a window: contexts, key choice and
/// the observed runtimes. Every window of a run replays the same stream
/// from the same restored state, so windows are repetitions of one
/// measurement.
pub struct Stream {
    workload: Workload,
    inputs: StdRng,
    noise: StdRng,
    zipf: Zipf,
}

impl Stream {
    pub fn new(workload: Workload, seed: u64) -> Stream {
        let s = mix(seed, SALT_STREAM);
        Stream {
            workload,
            inputs: StdRng::seed_from_u64(s),
            noise: StdRng::seed_from_u64(s ^ 0xA5A5_A5A5),
            zipf: Zipf::new(workload.n_tenants()),
        }
    }

    /// The next burst's requests into `out` (cleared first).
    pub fn next_burst(&mut self, oracle: &Oracle, out: &mut Vec<Req>) {
        out.clear();
        let n = self.workload.burst();
        match self.workload {
            Workload::Bp3dFleet => {
                for _ in 0..n {
                    let key = self.zipf.sample(&mut self.inputs);
                    out.push(Req { key, x: oracle.context(&mut self.inputs) });
                }
            }
            Workload::WideHotTenant => {
                for _ in 0..n {
                    out.push(Req { key: 0, x: oracle.context(&mut self.inputs) });
                }
            }
            Workload::DurableIngest => {
                let key = self.inputs.gen_range(0..self.workload.n_tenants());
                for _ in 0..n {
                    out.push(Req { key, x: oracle.context(&mut self.inputs) });
                }
            }
        }
    }

    /// The observed runtime for a served pick.
    pub fn runtime(&mut self, oracle: &Oracle, arm: usize, x: &[f64]) -> f64 {
        oracle.sample(arm, x, &mut self.noise)
    }
}
