//! The semantic audit must pass on this workspace and fail on each
//! seeded fixture, through both the library API and the `audit`
//! binary's exit code — plus the R10 acceptance cross-check: the
//! runtime overflow guard must be no looser than the certificate.

use std::path::{Path, PathBuf};
use std::process::Command;

use flsa_check::audit::audit_workspace;
use flsa_scoring::{GapModel, ScoringScheme, SubstitutionMatrix};
use flsa_seq::Alphabet;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/fixtures/audit/{name}"))
}

#[test]
fn workspace_sources_are_audit_clean() {
    let report = audit_workspace(&repo_root()).expect("scan the workspace");
    assert!(
        report.findings.is_empty(),
        "workspace audit findings:\n{}",
        report
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn r8_fixture_trips_panic_reachability_with_call_chain() {
    let report = audit_workspace(&fixture_root("r8")).expect("scan the r8 fixture");
    // The unwrap two hops below the solver entry must surface with its
    // offending chain — the interprocedural step the regex lint lacks.
    assert!(
        report.findings.iter().any(|f| {
            f.rule == "R8-panic-reachability" && f.message.contains("run -> helper -> deepest")
        }),
        "no chained unwrap finding: {:?}",
        report.findings
    );
    // The unguarded pub hot-kernel indexing must surface too.
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == "R8-panic-reachability" && f.message.contains("bounds guard")),
        "no index-guard finding: {:?}",
        report.findings
    );
}

#[test]
fn r9_fixture_trips_detection_dominance() {
    let report = audit_workspace(&fixture_root("r9")).expect("scan the r9 fixture");
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == "R9-detection-dominance" && f.message.contains("`row_update_avx2`")),
        "no dominance finding: {:?}",
        report.findings
    );
    // The 512-bit twin: an avx512f kernel called without any dominating
    // `is_x86_feature_detected!("avx512f")` proof must also surface.
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == "R9-detection-dominance" && f.message.contains("row_update_avx512")),
        "no avx512 dominance finding: {:?}",
        report.findings
    );
    // A call written with a turbofish (`f::<X>(…)`) is a call too.
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == "R9-detection-dominance" && f.message.contains("row_update_turbo")),
        "no turbofish dominance finding: {:?}",
        report.findings
    );
}

#[test]
fn r10_fixture_trips_overflow_cert() {
    let report = audit_workspace(&fixture_root("r10")).expect("scan the r10 fixture");
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == "R10-overflow-cert" && f.message.contains("align_opts")),
        "no overflow-guard finding: {:?}",
        report.findings
    );
}

#[test]
fn runtime_guard_is_no_looser_than_certificate() {
    // Acceptance criterion: build the extremal scoring scheme the
    // certificate is derived from (largest |substitution| and |gap|
    // found anywhere in the workspace) and check the runtime guard
    // admits no span the certificate does not cover.
    let cert = audit_workspace(&repo_root())
        .expect("scan the workspace")
        .certificate;
    let s = i32::try_from(cert.sub_abs_max).expect("sub magnitude fits i32");
    let g = i32::try_from(cert.gap_abs_max).expect("gap magnitude fits i32");
    let extremal = ScoringScheme::new(
        SubstitutionMatrix::match_mismatch("extremal", Alphabet::dna(), s, -s),
        GapModel::linear(-g),
    );
    let enforced = extremal.max_safe_span() as u64;
    assert!(
        enforced <= cert.max_span,
        "validate_run admits span {enforced} but the certificate only covers {}",
        cert.max_span
    );
    // And the certificate is not vacuous: it must cover at least the
    // paper-scale experiments (megabase pairs).
    assert!(
        cert.max_span >= 2_000_000,
        "certified span {}",
        cert.max_span
    );
}

#[test]
fn audit_binary_exit_codes_gate_on_findings() {
    let clean = Command::new(env!("CARGO_BIN_EXE_audit"))
        .arg(repo_root())
        .output()
        .expect("run audit on the workspace");
    assert!(
        clean.status.success(),
        "audit on the workspace failed:\n{}",
        String::from_utf8_lossy(&clean.stdout)
    );

    for fixture in ["r8", "r9", "r10"] {
        let bad = Command::new(env!("CARGO_BIN_EXE_audit"))
            .arg(fixture_root(fixture))
            .output()
            .expect("run audit on the fixture");
        assert_eq!(
            bad.status.code(),
            Some(1),
            "audit on the {fixture} fixture:\n{}",
            String::from_utf8_lossy(&bad.stdout)
        );
    }

    let usage = Command::new(env!("CARGO_BIN_EXE_audit"))
        .arg("--no-such-flag")
        .output()
        .expect("run audit with a bad flag");
    assert_eq!(usage.status.code(), Some(2), "usage errors must exit 2");
}

#[test]
fn audit_binary_writes_the_json_certificate() {
    let path = std::env::temp_dir().join(format!("flsa-audit-cert-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_audit"))
        .arg(repo_root())
        .arg("--json")
        .arg(&path)
        .output()
        .expect("run audit with --json");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let json = std::fs::read_to_string(&path).expect("certificate file written");
    let _ = std::fs::remove_file(&path);
    for key in [
        "\"sub_abs_max\"",
        "\"gap_abs_max\"",
        "\"max_span\"",
        "\"max_len_square\"",
        "\"formula\"",
        "\"findings\": 0",
    ] {
        assert!(json.contains(key), "missing {key} in certificate:\n{json}");
    }
}
