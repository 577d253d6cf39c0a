//! Columnar (struct-of-arrays) context batches for the serving hot path.
//!
//! A burst of recommendation requests arrives as rows — one `Vec<f64>`
//! context per workflow. The per-arm prediction sweep, however, walks
//! *features*: `R̂(Hᵢ, x) = wᵢᵀx + bᵢ` multiplies weight `w[f]` against
//! feature `f` of every row. Row-major storage makes that inner loop stride
//! `n_features` doubles between touches of the same weight;
//! [`FeatureFrame`] transposes the burst once into column-major storage so
//! the kernel streams contiguous memory — one [`banditware_linalg::vector::axpy`]
//! per feature column — and the Welford scaler pass
//! ([`crate::StandardScaler::observe_frame`]) walks each per-feature
//! accumulator over a contiguous column.
//!
//! ## Bitwise-determinism contract
//!
//! The columnar batch path is **bitwise identical** to sequential single
//! rounds: for any batch, [`crate::Policy::select_frame_into`] over a frame
//! built from the rows returns exactly the selections (and consumes exactly
//! the RNG stream) of one [`crate::Policy::select`] call per row in row
//! order — for [`crate::ScaledPolicy`], of absorbing every row into its
//! scaler first and then selecting on each standardized row — and every
//! prediction matches [`crate::Policy::predict`] to the last bit. This
//! holds because
//!
//! * [`FeatureFrame::predict_into`] replays `vector::dot`'s accumulation
//!   order exactly: four independent lane accumulators over feature blocks
//!   of 4 (lane `k` sums `w[4j+k]·x[4j+k]` in ascending `j`), a sequential
//!   scalar tail, combined as `(s0 + s1) + (s2 + s3) + tail` and only then
//!   `+ intercept` — the same adds in the same order, just batched across
//!   rows;
//! * a Welford accumulator for feature `f` sees the same value sequence
//!   whether the burst is absorbed row-by-row or column-by-column (each
//!   accumulator only ever reads its own feature, in row order either way);
//! * standardization is element-wise.
//!
//! Golden determinism suites and the serving equivalence tests rely on this
//! contract; see `crates/core/tests/frame_equivalence.rs`.

use crate::error::CoreError;
use crate::Result;
use banditware_linalg::vector;

/// A batch of contexts in column-major (struct-of-arrays) layout.
///
/// Feature `f` of row `r` lives at `cols[f * n_rows + r]`, so
/// [`FeatureFrame::column`] is a contiguous `&[f64]` of one feature across
/// the whole burst. Buffers are reused across [`FeatureFrame::fill_from_rows`]
/// calls: a steady-state serving loop re-fills the same frame without
/// allocating.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FeatureFrame {
    /// Column-major values, `n_features * n_rows` long.
    cols: Vec<f64>,
    n_rows: usize,
    n_features: usize,
}

impl FeatureFrame {
    /// New empty frame (0 rows, 0 features).
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a frame from row-major contexts (convenience over
    /// [`FeatureFrame::fill_from_rows`]).
    ///
    /// # Errors
    /// [`CoreError::FeatureDimMismatch`] on ragged rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        let mut frame = FeatureFrame::new();
        frame.fill_from_rows(rows)?;
        Ok(frame)
    }

    /// Rebuild this frame from row-major contexts, reusing storage. The
    /// width is inferred from the first row (an empty batch yields an empty
    /// frame).
    ///
    /// # Errors
    /// [`CoreError::FeatureDimMismatch`] when rows disagree on width; the
    /// frame is left unchanged.
    pub fn fill_from_rows(&mut self, rows: &[Vec<f64>]) -> Result<()> {
        let n_rows = rows.len();
        let n_features = rows.first().map_or(0, Vec::len);
        for row in rows {
            if row.len() != n_features {
                return Err(CoreError::FeatureDimMismatch { got: row.len(), expected: n_features });
            }
        }
        self.n_rows = n_rows;
        self.n_features = n_features;
        self.cols.clear();
        self.cols.resize(n_features * n_rows, 0.0);
        for (r, row) in rows.iter().enumerate() {
            for (f, &v) in row.iter().enumerate() {
                self.cols[f * n_rows + r] = v;
            }
        }
        Ok(())
    }

    /// Reset to an `n_rows × n_features` frame of zeros (reusing storage),
    /// ready for row-at-a-time filling via [`FeatureFrame::set_row`]. This
    /// is the staging entry point for producers whose rows are not
    /// contiguous `Vec`s (the record path scatters ticket-table rounds in).
    pub fn begin(&mut self, n_rows: usize, n_features: usize) {
        self.n_rows = n_rows;
        self.n_features = n_features;
        self.cols.clear();
        self.cols.resize(n_features * n_rows, 0.0);
    }

    /// Scatter one row into a frame prepared by [`FeatureFrame::begin`].
    ///
    /// # Errors
    /// [`CoreError::FeatureDimMismatch`] when `row.len() != n_features`.
    ///
    /// # Panics
    /// Panics when `r >= n_rows`.
    pub fn set_row(&mut self, r: usize, row: &[f64]) -> Result<()> {
        if row.len() != self.n_features {
            return Err(CoreError::FeatureDimMismatch {
                got: row.len(),
                expected: self.n_features,
            });
        }
        assert!(r < self.n_rows, "row {r} of a {}-row frame", self.n_rows);
        for (f, &v) in row.iter().enumerate() {
            self.cols[f * self.n_rows + r] = v;
        }
        Ok(())
    }

    /// Overwrite this frame with a copy of `src`, reusing storage.
    pub fn copy_from(&mut self, src: &FeatureFrame) {
        self.n_rows = src.n_rows;
        self.n_features = src.n_features;
        self.cols.clear();
        self.cols.extend_from_slice(&src.cols);
    }

    /// Number of rows (contexts) in the batch.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of features per context.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// True when the frame holds no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Feature `f` across all rows, contiguous.
    ///
    /// # Panics
    /// Panics when `f >= n_features` (programmer error on the hot path).
    pub fn column(&self, f: usize) -> &[f64] {
        assert!(f < self.n_features, "column {f} of a {}-feature frame", self.n_features);
        &self.cols[f * self.n_rows..(f + 1) * self.n_rows]
    }

    /// Mutable view of feature `f` across all rows (used by the scaler's
    /// columnar standardization pass).
    ///
    /// # Panics
    /// Panics when `f >= n_features`.
    pub fn column_mut(&mut self, f: usize) -> &mut [f64] {
        assert!(f < self.n_features, "column {f} of a {}-feature frame", self.n_features);
        &mut self.cols[f * self.n_rows..(f + 1) * self.n_rows]
    }

    /// Gather row `r` into `out` (cleared first) — the row view for
    /// consumers that need one context contiguously (ticket bookkeeping,
    /// policies without a columnar kernel).
    ///
    /// # Panics
    /// Panics when `r >= n_rows`.
    pub fn copy_row_into(&self, r: usize, out: &mut Vec<f64>) {
        assert!(r < self.n_rows, "row {r} of a {}-row frame", self.n_rows);
        out.clear();
        out.reserve(self.n_features);
        // A zero-feature frame stores no columns at all: `cols[r..]` would
        // slice past the empty store for r > 0 (non-contextual policies
        // issue such frames).
        if self.n_features == 0 {
            return;
        }
        out.extend(self.cols[r..].iter().step_by(self.n_rows).take(self.n_features));
    }

    /// Row `r` as an owned vector.
    pub fn row_to_vec(&self, r: usize) -> Vec<f64> {
        let mut out = Vec::new();
        self.copy_row_into(r, &mut out);
        out
    }

    /// Affine prediction of every row against one arm's coefficients:
    /// `out[r] = w·x_r + b`, **bit-for-bit** equal to
    /// `vector::dot(w, row_r) + b` (see the module docs for why). `out`
    /// must be pre-sized to `n_rows`; `scratch` is reused across calls and
    /// arms, so the steady-state sweep allocates nothing.
    ///
    /// # Panics
    /// Panics when `weights.len() != n_features` or `out.len() != n_rows`.
    pub fn predict_into(
        &self,
        weights: &[f64],
        intercept: f64,
        scratch: &mut PredictScratch,
        out: &mut [f64],
    ) {
        assert_eq!(weights.len(), self.n_features, "predict_into: weight count mismatch");
        assert_eq!(out.len(), self.n_rows, "predict_into: output length mismatch");
        let n = self.n_rows;
        // `out` doubles as the scalar-tail accumulator.
        out.fill(0.0);
        let PredictScratch { acc0, acc1, acc2, acc3 } = scratch;
        for acc in [&mut *acc0, &mut *acc1, &mut *acc2, &mut *acc3] {
            acc.clear();
            acc.resize(n, 0.0);
        }
        // Lane k accumulates w[4j+k]·col[4j+k] in ascending j — per
        // (lane, row) the identical add sequence `dot` performs, expressed
        // as one contiguous axpy per feature column.
        let mut f = 0;
        while f + 4 <= self.n_features {
            vector::axpy(weights[f], self.column(f), acc0);
            vector::axpy(weights[f + 1], self.column(f + 1), acc1);
            vector::axpy(weights[f + 2], self.column(f + 2), acc2);
            vector::axpy(weights[f + 3], self.column(f + 3), acc3);
            f += 4;
        }
        while f < self.n_features {
            vector::axpy(weights[f], self.column(f), out);
            f += 1;
        }
        for ((((o, &a0), &a1), &a2), &a3) in
            out.iter_mut().zip(&*acc0).zip(&*acc1).zip(&*acc2).zip(&*acc3)
        {
            *o = ((a0 + a1) + (a2 + a3) + *o) + intercept;
        }
    }
}

/// A batch of completed observations in columnar layout — the record-side
/// twin of [`FeatureFrame`].
///
/// Features reuse [`FeatureFrame`] storage (column-major, so the rank-k
/// Gram fold streams contiguous feature columns); outcomes, arms, and
/// explored flags ride along as per-row lanes. Buffers are reused across
/// [`ObservationFrame::begin`] cycles, so a steady-state record loop stages
/// every burst without allocating.
///
/// The same bitwise-determinism contract as the select side applies:
/// absorbing a frame through [`crate::Policy::observe_frame`] produces
/// exactly the policy state of row-by-row [`crate::Policy::observe`] calls
/// in row order (see `crates/serve/tests/record_frame_equivalence.rs`).
#[derive(Debug, Clone, Default)]
pub struct ObservationFrame {
    features: FeatureFrame,
    outcomes: Vec<f64>,
    arms: Vec<usize>,
    explored: Vec<bool>,
}

impl ObservationFrame {
    /// New empty frame.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reset to `n_rows` zeroed observations of `n_features` features
    /// (reusing storage), ready for [`ObservationFrame::set_row`].
    pub fn begin(&mut self, n_rows: usize, n_features: usize) {
        self.features.begin(n_rows, n_features);
        self.outcomes.clear();
        self.outcomes.resize(n_rows, 0.0);
        self.arms.clear();
        self.arms.resize(n_rows, 0);
        self.explored.clear();
        self.explored.resize(n_rows, false);
    }

    /// Stage one completed round into row `r`.
    ///
    /// # Errors
    /// [`CoreError::FeatureDimMismatch`] when `features.len()` disagrees
    /// with the frame width.
    ///
    /// # Panics
    /// Panics when `r >= n_rows`.
    pub fn set_row(
        &mut self,
        r: usize,
        arm: usize,
        features: &[f64],
        outcome: f64,
        explored: bool,
    ) -> Result<()> {
        self.features.set_row(r, features)?;
        self.outcomes[r] = outcome;
        self.arms[r] = arm;
        self.explored[r] = explored;
        Ok(())
    }

    /// Number of observations in the batch.
    pub fn n_rows(&self) -> usize {
        self.features.n_rows()
    }

    /// Number of features per observation.
    pub fn n_features(&self) -> usize {
        self.features.n_features()
    }

    /// True when the frame holds no observations.
    pub fn is_empty(&self) -> bool {
        self.features.is_empty()
    }

    /// The feature block, columnar.
    pub fn features(&self) -> &FeatureFrame {
        &self.features
    }

    /// Mutable feature block — for in-place columnar transforms (the
    /// scaler's standardization pass). Callers must keep the row count in
    /// step with the lanes.
    pub fn features_mut(&mut self) -> &mut FeatureFrame {
        &mut self.features
    }

    /// Outcome (runtime) lane, one per row.
    pub fn outcomes(&self) -> &[f64] {
        &self.outcomes
    }

    /// Arm lane, one per row.
    pub fn arms(&self) -> &[usize] {
        &self.arms
    }

    /// Outcome of row `r`.
    ///
    /// # Panics
    /// Panics when `r >= n_rows`.
    pub fn outcome(&self, r: usize) -> f64 {
        self.outcomes[r]
    }

    /// Arm of row `r`.
    ///
    /// # Panics
    /// Panics when `r >= n_rows`.
    pub fn arm(&self, r: usize) -> usize {
        self.arms[r]
    }

    /// Explored flag of row `r`.
    ///
    /// # Panics
    /// Panics when `r >= n_rows`.
    pub fn explored(&self, r: usize) -> bool {
        self.explored[r]
    }

    /// Copy the non-feature lanes (outcomes, arms, explored) from `src`,
    /// reusing storage. Used by wrappers that transform features into a
    /// scratch frame but pass the bookkeeping lanes through unchanged.
    pub fn copy_lanes_from(&mut self, src: &ObservationFrame) {
        self.outcomes.clear();
        self.outcomes.extend_from_slice(&src.outcomes);
        self.arms.clear();
        self.arms.extend_from_slice(&src.arms);
        self.explored.clear();
        self.explored.extend_from_slice(&src.explored);
    }
}

/// Reusable lane accumulators for [`FeatureFrame::predict_into`]. One per
/// policy; cleared and resized (allocation-free once warm) on every call.
#[derive(Debug, Clone, Default)]
pub struct PredictScratch {
    acc0: Vec<f64>,
    acc1: Vec<f64>,
    acc2: Vec<f64>,
    acc3: Vec<f64>,
}

impl PredictScratch {
    /// New empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use banditware_linalg::lstsq::LinearFit;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rows(n_rows: usize, n_features: usize, seed: u64) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n_rows)
            .map(|_| (0..n_features).map(|_| rng.gen_range(-100.0..100.0)).collect())
            .collect()
    }

    #[test]
    fn roundtrips_rows_through_columns() {
        let data = rows(7, 5, 1);
        let frame = FeatureFrame::from_rows(&data).unwrap();
        assert_eq!(frame.n_rows(), 7);
        assert_eq!(frame.n_features(), 5);
        assert!(!frame.is_empty());
        for (r, row) in data.iter().enumerate() {
            assert_eq!(&frame.row_to_vec(r), row);
        }
        for f in 0..5 {
            let col: Vec<f64> = data.iter().map(|row| row[f]).collect();
            assert_eq!(frame.column(f), &col[..]);
        }
    }

    #[test]
    fn rejects_ragged_rows() {
        let mut frame = FeatureFrame::from_rows(&rows(3, 4, 2)).unwrap();
        let bad = vec![vec![1.0, 2.0], vec![1.0]];
        assert!(frame.fill_from_rows(&bad).is_err());
        // failed fill leaves the old contents alone
        assert_eq!(frame.n_rows(), 3);
        assert_eq!(frame.n_features(), 4);
    }

    #[test]
    fn empty_batch_is_empty_frame() {
        let frame = FeatureFrame::from_rows(&[]).unwrap();
        assert!(frame.is_empty());
        assert_eq!(frame.n_features(), 0);
        assert_eq!(FeatureFrame::new(), frame);
    }

    #[test]
    fn refill_reuses_capacity() {
        let mut frame = FeatureFrame::new();
        frame.fill_from_rows(&rows(64, 8, 3)).unwrap();
        let cap = frame.cols.capacity();
        frame.fill_from_rows(&rows(32, 8, 4)).unwrap();
        assert_eq!(frame.n_rows(), 32);
        assert_eq!(frame.cols.capacity(), cap, "smaller refill must not reallocate");
    }

    #[test]
    fn copy_from_matches_source() {
        let a = FeatureFrame::from_rows(&rows(5, 3, 5)).unwrap();
        let mut b = FeatureFrame::new();
        b.copy_from(&a);
        assert_eq!(a, b);
    }

    #[test]
    fn predict_into_is_bitwise_dot_plus_intercept() {
        let mut scratch = PredictScratch::new();
        // Sweep widths across several block boundaries, including the empty
        // frame and pure-tail widths.
        for n_features in [0usize, 1, 3, 4, 5, 7, 8, 11, 16, 65] {
            let data = rows(9, n_features, 10 + n_features as u64);
            let frame = FeatureFrame::from_rows(&data).unwrap();
            let mut rng = StdRng::seed_from_u64(99);
            let fit = LinearFit {
                weights: (0..n_features).map(|_| rng.gen_range(-2.0..2.0)).collect(),
                intercept: rng.gen_range(-10.0..10.0),
                residual_ss: 0.0,
                n_obs: 1,
            };
            let mut out = vec![0.0; frame.n_rows()];
            frame.predict_into(&fit.weights, fit.intercept, &mut scratch, &mut out);
            for (r, row) in data.iter().enumerate() {
                assert_eq!(
                    out[r].to_bits(),
                    fit.predict(row).to_bits(),
                    "width {n_features}, row {r}"
                );
            }
        }
    }
}
