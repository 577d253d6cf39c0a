//! Medians, tail percentiles and the small JSON writer the output uses.

use std::fmt::Write;

/// Median of `v` (sorted in place); 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Mean of the middle half of `v` (sorted in place), the values between
/// its quartiles; 0 for an empty slice. A host phase that slows a varying
/// share of a run's windows moves it smoothly, where the median jumps from
/// one phase's level to the other's; the fastest and slowest quarters,
/// which a mean would follow, are left out.
pub fn mid_mean(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let cut = v.len() / 4;
    let mid = &v[cut..v.len() - cut];
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// The highest percentile (at most p99) that has at least ten samples
/// beyond it, for `n` samples.
pub fn tail_quantile(n: usize) -> f64 {
    if n == 0 {
        return 0.5;
    }
    (1.0 - 10.0 / n as f64).clamp(0.5, 0.99)
}

/// Sub-buckets per power of two: a bucket is at most 1/64 (1.6 %) wide.
const SUB_BITS: u32 = 6;
const SUB: usize = 1 << SUB_BITS;
/// Buckets up to 2^40 ns (about 18 minutes; larger values land in the
/// last of them), plus one for failed requests.
const BUCKETS: usize = (40 - SUB_BITS as usize + 1) * SUB + 1;

fn bucket(ns: u64) -> usize {
    if ns < SUB as u64 {
        return ns as usize;
    }
    let e = 63 - ns.leading_zeros();
    let shift = e - SUB_BITS;
    ((e - SUB_BITS + 1) as usize) * SUB + ((ns >> shift) as usize & (SUB - 1))
}

/// Lowest value and width of bucket `i`.
fn bucket_span(i: usize) -> (f64, f64) {
    if i < SUB {
        return (i as f64, 1.0);
    }
    let octave = (i / SUB - 1) as i32;
    let scale = 2f64.powi(octave);
    ((SUB + i % SUB) as f64 * scale, scale)
}

/// Latency samples in ns as a log-linear histogram, so a window's samples
/// take constant memory. A failed request is stored
/// in the top bucket: it misses every latency limit.
#[derive(Clone)]
pub struct Latencies {
    counts: Vec<u32>,
    n: u64,
}

impl Default for Latencies {
    fn default() -> Self {
        Latencies { counts: vec![0; BUCKETS], n: 0 }
    }
}

impl Latencies {
    pub fn push(&mut self, ns: u64) {
        self.counts[bucket(ns).min(BUCKETS - 2)] += 1;
        self.n += 1;
    }

    pub fn push_failed(&mut self) {
        self.counts[BUCKETS - 1] += 1;
        self.n += 1;
    }

    pub fn len(&self) -> u64 {
        self.n
    }

    /// Quantile `q` in µs (nearest rank, interpolated within its bucket);
    /// `f64::MAX` when it falls on a failed request.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((q * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            let c = u64::from(c);
            if below + c >= rank {
                if i == BUCKETS - 1 {
                    return f64::MAX;
                }
                let (low, width) = bucket_span(i);
                let frac = (rank - below) as f64 - 0.5;
                return (low + width * frac / c as f64) / 1e3;
            }
            below += c;
        }
        f64::MAX
    }

    pub fn summary(&self) -> Summary {
        Summary {
            n: self.n,
            p50_us: self.quantile_us(0.5),
            tail_us: self.quantile_us(tail_quantile(self.n as usize)),
        }
    }
}

/// What a window keeps of its latency samples: their count, p50 and tail
/// ([`tail_quantile`] of the count) in µs.
#[derive(Debug, Default, Clone, Copy)]
pub struct Summary {
    pub n: u64,
    pub p50_us: f64,
    pub tail_us: f64,
}

/// A JSON object built field by field (no escaping beyond quotes and
/// backslashes: keys and values are the benchmark's own strings).
pub struct Obj {
    buf: String,
}

pub fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

impl Obj {
    pub fn new() -> Obj {
        Obj { buf: String::from("{") }
    }

    fn key(&mut self, k: &str) {
        if self.buf.len() > 1 {
            self.buf.push_str(", ");
        }
        let _ = write!(self.buf, "\"{}\": ", esc(k));
    }

    pub fn num(mut self, k: &str, v: f64) -> Obj {
        self.key(k);
        if v.is_finite() {
            let _ = write!(self.buf, "{v:?}");
        } else {
            self.buf.push_str("null");
        }
        self
    }

    pub fn int(mut self, k: &str, v: u64) -> Obj {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    pub fn str(mut self, k: &str, v: &str) -> Obj {
        self.key(k);
        let _ = write!(self.buf, "\"{}\"", esc(v));
        self
    }

    pub fn bool(mut self, k: &str, v: bool) -> Obj {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Insert pre-rendered JSON.
    pub fn raw(mut self, k: &str, json: &str) -> Obj {
        self.key(k);
        self.buf.push_str(json);
        self
    }

    pub fn end(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

pub fn array(items: &[String]) -> String {
    format!("[{}]", items.join(", "))
}
