//! Gap penalty models.

/// How gaps are penalized.
///
/// The paper (and all of its experiments) uses a linear model: every gap
/// symbol costs the same fixed penalty. The affine model (Gotoh) is
/// provided as the conventional production extension; the full-matrix
/// (Gotoh), Myers–Miller and FastLSA aligners support it (see
/// DESIGN.md §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GapModel {
    /// Each gap symbol adds `penalty` (negative) to the score.
    Linear {
        /// Per-symbol gap score; must be ≤ 0.
        penalty: i32,
    },
    /// Opening a gap adds `open`, each symbol (including the first) adds
    /// `extend`; both negative. A gap of length L costs `open + L*extend`.
    Affine {
        /// One-time gap-open score; must be ≤ 0.
        open: i32,
        /// Per-symbol gap-extension score; must be ≤ 0.
        extend: i32,
    },
}

impl GapModel {
    /// The paper's default: linear penalty −10.
    pub const PAPER_DEFAULT: GapModel = GapModel::Linear { penalty: -10 };

    /// Builds a linear model, validating sign.
    ///
    /// # Panics
    ///
    /// Panics when `penalty > 0` — a positive gap score makes "optimal
    /// alignment" unbounded, so this is a configuration error.
    pub fn linear(penalty: i32) -> Self {
        assert!(penalty <= 0, "gap penalty must be <= 0, got {penalty}");
        GapModel::Linear { penalty }
    }

    /// Builds an affine model, validating signs.
    ///
    /// # Panics
    ///
    /// Panics when either component is positive.
    pub fn affine(open: i32, extend: i32) -> Self {
        assert!(open <= 0 && extend <= 0, "affine gap scores must be <= 0");
        GapModel::Affine { open, extend }
    }

    /// The per-symbol penalty of a linear model.
    ///
    /// # Panics
    ///
    /// Panics on an affine model: the linear kernels, Hirschberg and the
    /// linear full-matrix aligners are defined for linear gaps only, and
    /// silently dropping the open cost would produce wrong scores.
    pub fn linear_penalty(&self) -> i32 {
        match *self {
            GapModel::Linear { penalty } => penalty,
            GapModel::Affine { .. } => {
                // flsa-check: allow(panic) — documented `# Panics`
                // contract: only linear-gap paths call this. The FastLSA
                // solver matches on the gap model and sends an affine
                // scheme to the affine kernels, refusing its parallel fill
                // up front (ConfigError::GapModelNotLinear); the shard
                // fleet, serve and `flsa batch` build linear schemes.
                panic!("this aligner supports linear gap penalties only (paper's model)")
            }
        }
    }

    /// Worst-case score magnitude a single gap symbol can contribute.
    ///
    /// For the linear model this is `|penalty|`; for the affine model it
    /// conservatively charges the one-time open on every symbol,
    /// `|open| + |extend|`. Used by the i32-overflow guard
    /// ([`crate::ScoringScheme::max_safe_span`]) and mirrored by the static audit's
    /// R10 certificate — both must stay at least this pessimistic.
    pub fn max_penalty_abs(&self) -> i64 {
        match *self {
            GapModel::Linear { penalty } => (penalty as i64).abs(),
            GapModel::Affine { open, extend } => (open as i64).abs() + (extend as i64).abs(),
        }
    }

    /// Total cost of a gap run of `len` symbols.
    pub fn run_cost(&self, len: usize) -> i64 {
        match *self {
            GapModel::Linear { penalty } => penalty as i64 * len as i64,
            GapModel::Affine { open, extend } => {
                if len == 0 {
                    0
                } else {
                    open as i64 + extend as i64 * len as i64
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_minus_ten_linear() {
        assert_eq!(GapModel::PAPER_DEFAULT.linear_penalty(), -10);
        assert_eq!(GapModel::PAPER_DEFAULT.run_cost(3), -30);
    }

    #[test]
    fn affine_run_cost_counts_open_once() {
        let g = GapModel::affine(-10, -2);
        assert_eq!(g.run_cost(0), 0);
        assert_eq!(g.run_cost(1), -12);
        assert_eq!(g.run_cost(5), -20);
    }

    #[test]
    #[should_panic(expected = "linear gap penalties only")]
    fn linear_penalty_rejects_affine() {
        GapModel::affine(-10, -2).linear_penalty();
    }

    #[test]
    #[should_panic(expected = "must be <= 0")]
    fn positive_linear_penalty_rejected() {
        GapModel::linear(3);
    }
}
