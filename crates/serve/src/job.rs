//! Request validation and job shaping.
//!
//! A wire-level [`AlignRequest`] becomes a [`JobSpec`] here: the named
//! scoring scheme is reconstructed, the sequences are checked against
//! its alphabet, the FastLSA configuration is validated, and the job's
//! memory footprint is estimated with the paper's space model so the
//! admission controller can reason about it *before* any allocation
//! happens. Every rejection carries a typed [`ErrorCode`] — a bad
//! request is answered, never dropped.

use fastlsa_core::{model, AlignError, FastLsaConfig};
use flsa_dp::{Move, Path};
use flsa_scoring::{tables, ScoringScheme};
use flsa_seq::Sequence;

use crate::wire::{AlignRequest, ErrorCode};

/// Default grid division factor when the request leaves `k` at 0.
pub const DEFAULT_K: usize = 8;
/// Most worker threads a single request may demand. A corrupted or
/// hostile request must be *answered*, never obeyed: without this cap a
/// single bit flip in the `threads` field would make the server spawn
/// tens of thousands of wavefront threads and abort on stack
/// exhaustion (found by the corruption sweep).
pub const MAX_THREADS: u16 = 64;
/// Largest base-case buffer (DPM entries) a request may demand — 256 Mi
/// entries, a 1 GiB DP buffer. Same reasoning as [`MAX_THREADS`]: the
/// estimate and the governor budget both derive from `base_cells`, so
/// an absurd value must become a typed rejection up front.
pub const MAX_BASE_CELLS: u64 = 1 << 28;
/// Default base-case buffer (DPM entries) when the request leaves
/// `base_cells` at 0 — matches [`FastLsaConfig::default`]'s 4 MiB.
pub const DEFAULT_BASE_CELLS: usize = 1 << 20;

/// Headroom multiplier on the modeled footprint: the space model bounds
/// the DP buffers, and real runs carry sequences, paths, and arena slack
/// on top (core's own tests allow 10%; admission allows 25%).
const ESTIMATE_HEADROOM_NUM: usize = 5;
const ESTIMATE_HEADROOM_DEN: usize = 4;
/// Flat per-job overhead added to the estimate (sequences, result path,
/// thread stacks).
const ESTIMATE_FLAT_BYTES: usize = 64 << 10;

/// A validated, runnable job.
#[derive(Debug)]
pub struct JobSpec {
    /// The request as received (kept for spooling and checkpoint meta).
    pub request: AlignRequest,
    /// Reconstructed scoring scheme.
    pub scheme: ScoringScheme,
    /// Sequence A, encoded in the scheme's alphabet.
    pub a: Sequence,
    /// Sequence B, encoded in the scheme's alphabet.
    pub b: Sequence,
    /// Validated FastLSA configuration.
    pub config: FastLsaConfig,
    /// Admission-controller footprint estimate in bytes.
    pub estimate_bytes: usize,
    /// DPM size `m · n`, the spool-threshold measure.
    pub cells: u64,
}

/// Validates a request into a [`JobSpec`], or a typed rejection.
pub fn validate(request: AlignRequest) -> Result<JobSpec, (ErrorCode, String)> {
    if request.threads > MAX_THREADS {
        return Err((
            ErrorCode::BadRequest,
            format!(
                "threads {} exceeds the limit {MAX_THREADS}",
                request.threads
            ),
        ));
    }
    if request.base_cells > MAX_BASE_CELLS {
        return Err((
            ErrorCode::BadRequest,
            format!(
                "base_cells {} exceeds the limit {MAX_BASE_CELLS}",
                request.base_cells
            ),
        ));
    }
    let scheme = tables::scheme_for(&request.matrix, request.gap)
        .map_err(|detail| (ErrorCode::BadRequest, detail))?;
    let text_a = std::str::from_utf8(&request.seq_a)
        .map_err(|_| (ErrorCode::BadRequest, "sequence a is not UTF-8".to_string()))?;
    let text_b = std::str::from_utf8(&request.seq_b)
        .map_err(|_| (ErrorCode::BadRequest, "sequence b is not UTF-8".to_string()))?;
    let a = Sequence::from_str("a", scheme.alphabet(), text_a)
        .map_err(|e| (ErrorCode::BadRequest, format!("sequence a: {e}")))?;
    let b = Sequence::from_str("b", scheme.alphabet(), text_b)
        .map_err(|e| (ErrorCode::BadRequest, format!("sequence b: {e}")))?;

    let k = if request.k == 0 {
        DEFAULT_K
    } else {
        request.k as usize
    };
    let base_cells = if request.base_cells == 0 {
        DEFAULT_BASE_CELLS
    } else {
        request.base_cells as usize
    };
    let mut config = FastLsaConfig::new(k, base_cells);
    if request.threads > 1 {
        config = config.with_threads(request.threads as usize);
    }
    config
        .validate_run(&scheme, a.len(), b.len())
        .map_err(|e| (ErrorCode::BadRequest, e.to_string()))?;

    let estimate_bytes = estimate_bytes(a.len(), b.len(), k, base_cells);
    let cells = (a.len() as u64).saturating_mul(b.len() as u64);
    Ok(JobSpec {
        request,
        scheme,
        a,
        b,
        config,
        estimate_bytes,
        cells,
    })
}

/// The admission footprint for an `m × n` job under FastLSA(`k`,
/// `base_cells`): the paper's space model (entries × 4 bytes) with
/// headroom plus a flat per-job overhead.
pub fn estimate_bytes(m: usize, n: usize, k: usize, base_cells: usize) -> usize {
    let entries = model::fastlsa_space_entries(m, n, k, base_cells);
    let dp_bytes = (entries * 4.0).ceil() as usize;
    dp_bytes / ESTIMATE_HEADROOM_DEN * ESTIMATE_HEADROOM_NUM + ESTIMATE_FLAT_BYTES
}

/// Renders the optimal path as a run-length-encoded CIGAR-style string:
/// `Diag` → `M`, `Up` → `D` (a residue of A against a gap), `Left` → `I`
/// (a residue of B against a gap). FastLSA recovers the canonical
/// full-matrix path for every configuration, so this string is
/// byte-identical across `k`/`base_cells`/threads — the chaos harness's
/// equality target.
pub fn cigar(path: &Path) -> String {
    let mut out = String::new();
    let mut run: Option<(char, u64)> = None;
    for m in path.moves() {
        let op = match m {
            Move::Diag => 'M',
            Move::Up => 'D',
            Move::Left => 'I',
        };
        run = match run {
            Some((cur, n)) if cur == op => Some((cur, n + 1)),
            Some((cur, n)) => {
                out.push_str(&format!("{n}{cur}"));
                Some((op, 1))
            }
            None => Some((op, 1)),
        };
    }
    if let Some((cur, n)) = run {
        out.push_str(&format!("{n}{cur}"));
    }
    out
}

/// Maps an engine error onto the wire taxonomy. `deadline_expired`
/// distinguishes a deadline-driven cancellation from an administrative
/// one — the token itself cannot tell us which fired.
pub fn error_code_for(err: &AlignError, deadline_expired: bool) -> (ErrorCode, String) {
    let code = match err {
        AlignError::Config(_) | AlignError::AlphabetMismatch { .. } => ErrorCode::BadRequest,
        AlignError::AllocFailed { .. } => ErrorCode::ResourceExhausted,
        AlignError::Cancelled if deadline_expired => ErrorCode::DeadlineExpired,
        AlignError::Cancelled => ErrorCode::Cancelled,
        AlignError::WorkerPanic => ErrorCode::WorkerPanic,
        AlignError::CheckpointSave { .. } | AlignError::CorruptCheckpoint { .. } => {
            ErrorCode::Internal
        }
    };
    (code, err.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flsa_dp::Metrics;

    fn request(matrix: &str, a: &str, b: &str) -> AlignRequest {
        AlignRequest {
            id: 1,
            deadline_ms: 0,
            threads: 0,
            k: 0,
            gap: -1,
            base_cells: 0,
            matrix: matrix.to_string(),
            seq_a: a.as_bytes().to_vec(),
            seq_b: b.as_bytes().to_vec(),
        }
    }

    #[test]
    fn valid_request_produces_runnable_spec() {
        let spec = validate(request("dna", "ACGTACGT", "ACGTTCGT")).unwrap();
        assert_eq!(spec.config.k, DEFAULT_K);
        assert_eq!(spec.cells, 64);
        assert!(spec.estimate_bytes > ESTIMATE_FLAT_BYTES);
        let r =
            fastlsa_core::align_with(&spec.a, &spec.b, &spec.scheme, spec.config, &Metrics::new())
                .unwrap();
        assert_eq!(r.path.score(&spec.a, &spec.b, &spec.scheme), r.score);
    }

    #[test]
    fn unknown_matrix_and_bad_residues_are_bad_requests() {
        let (code, detail) = validate(request("nope", "ACGT", "ACGT")).unwrap_err();
        assert_eq!(code, ErrorCode::BadRequest);
        assert!(detail.contains("nope"));
        let mut positive_gap = request("dna", "ACGT", "ACGT");
        positive_gap.gap = 5;
        let (code, detail) = validate(positive_gap).unwrap_err();
        assert_eq!(code, ErrorCode::BadRequest);
        assert!(detail.contains("gap 5"), "{detail}");
        let (code, _) = validate(request("dna", "ACGT", "AXGT")).unwrap_err();
        assert_eq!(code, ErrorCode::BadRequest);
        let mut req = request("dna", "ACGT", "ACGT");
        req.seq_b = vec![0xff, 0xfe];
        let (code, detail) = validate(req).unwrap_err();
        assert_eq!(code, ErrorCode::BadRequest);
        assert!(detail.contains("UTF-8"));
    }

    #[test]
    fn hostile_resource_demands_are_rejected() {
        let mut req1 = request("dna", "ACGT", "ACGT");
        req1.threads = u16::MAX;
        let (code, detail) = validate(req1).unwrap_err();
        assert_eq!(code, ErrorCode::BadRequest);
        assert!(detail.contains("threads"), "{detail}");
        let mut req2 = request("dna", "ACGT", "ACGT");
        req2.base_cells = u64::MAX;
        let (code, detail) = validate(req2).unwrap_err();
        assert_eq!(code, ErrorCode::BadRequest);
        assert!(detail.contains("base_cells"), "{detail}");
    }

    #[test]
    fn invalid_config_is_a_bad_request() {
        let mut req = request("dna", "ACGT", "ACGT");
        req.k = 1;
        let (code, detail) = validate(req).unwrap_err();
        assert_eq!(code, ErrorCode::BadRequest);
        assert!(detail.contains("k"));
    }

    #[test]
    fn cigar_run_length_encodes_the_canonical_path() {
        let spec = validate(request("dna", "ACGTACGT", "ACGTCGT")).unwrap();
        let r =
            fastlsa_core::align_with(&spec.a, &spec.b, &spec.scheme, spec.config, &Metrics::new())
                .unwrap();
        let s = cigar(&r.path);
        assert!(!s.is_empty());
        // Total ops cover the whole path, and only MDI appear.
        let mut total = 0u64;
        let mut num = String::new();
        for ch in s.chars() {
            if ch.is_ascii_digit() {
                num.push(ch);
            } else {
                assert!(matches!(ch, 'M' | 'D' | 'I'), "bad op {ch}");
                total += num.parse::<u64>().unwrap();
                num.clear();
            }
        }
        assert_eq!(total as usize, r.path.moves().len());
    }

    #[test]
    fn estimate_grows_with_problem_size() {
        let small = estimate_bytes(100, 100, 8, 1024);
        let big = estimate_bytes(10_000, 10_000, 8, 1024);
        assert!(big > small);
    }

    #[test]
    fn error_codes_map_the_taxonomy() {
        let (c, _) = error_code_for(&AlignError::Cancelled, true);
        assert_eq!(c, ErrorCode::DeadlineExpired);
        let (c, _) = error_code_for(&AlignError::Cancelled, false);
        assert_eq!(c, ErrorCode::Cancelled);
        let (c, _) = error_code_for(&AlignError::WorkerPanic, false);
        assert_eq!(c, ErrorCode::WorkerPanic);
        let (c, _) = error_code_for(
            &AlignError::AllocFailed {
                bytes: 1,
                what: "x",
            },
            false,
        );
        assert_eq!(c, ErrorCode::ResourceExhausted);
    }
}
