//! Kill–restore fault matrix: SIGKILL the real `flsa` binary mid-run at
//! seeded points, resume from the surviving snapshot, and require the
//! final stdout to be byte-identical to an uninterrupted run — across
//! sequential, parallel and affine-gap configurations.
//!
//! Each of the five tests schedules 20 kill points (5 seeds × 4 kills;
//! a run that finishes first dodges the rest) and asserts that at least
//! 8 land mid-run, so the matrix delivers at least 40 mid-run process
//! deaths, 8 of them in affine runs.

use std::path::PathBuf;
use std::process::Command;

use flsa_fault::crash::{CrashJob, KillPlan};

fn flsa_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_flsa"))
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("flsa-crash-{}-{name}", std::process::id()));
    p
}

/// Generates a pair long enough that a debug-build alignment runs for
/// hundreds of milliseconds — room for several kills to land mid-run.
fn gen_pair(name: &str, len: usize, seed: u64) -> PathBuf {
    let fa = tmp(name);
    let out = Command::new(flsa_bin())
        .args([
            "gen",
            "--len",
            &len.to_string(),
            "--seed",
            &seed.to_string(),
            "-o",
            fa.to_str().unwrap(),
        ])
        .output()
        .expect("gen runs");
    assert!(out.status.success(), "{out:?}");
    fa
}

/// Runs `seeds.len()` kill–restore loops over the same job and checks
/// every one reproduces the reference bytes. Returns total kills landed.
fn crash_matrix(tag: &str, extra_args: &[&str], seeds: &[u64]) -> u32 {
    let fa = gen_pair(&format!("{tag}.fa"), 1400, 77);
    let mut align_args: Vec<String> =
        vec!["-k".into(), "4".into(), "--base-cells".into(), "512".into()];
    align_args.extend(extra_args.iter().map(|s| s.to_string()));
    align_args.push(fa.to_str().unwrap().into());

    let ckpt = tmp(&format!("{tag}.ckpt"));
    let job = CrashJob {
        flsa_bin: &flsa_bin(),
        align_args: &align_args,
        ckpt: &ckpt,
        every_blocks: 1,
    };
    let reference = job.reference_stdout().expect("reference run");
    assert!(!reference.is_empty());

    let mut kills = 0;
    let mut resumes = 0;
    for &seed in seeds {
        std::fs::remove_file(&ckpt).ok();
        let plan = KillPlan::from_seed(seed, 4, 80);
        let outcome = job
            .run(&plan)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(
            outcome.stdout, reference,
            "seed {seed}: output diverged after {} kills / {} resumes",
            outcome.kills_delivered, outcome.resumes
        );
        kills += outcome.kills_delivered;
        resumes += outcome.resumes;
    }
    std::fs::remove_file(&fa).ok();
    std::fs::remove_file(&ckpt).ok();
    println!(
        "{tag}: {kills} kills delivered, {resumes} resumes, {} seeds",
        seeds.len()
    );
    assert!(
        kills >= 8,
        "{tag}: only {kills} of {} scheduled kills landed mid-run; \
         the job is completing too fast to test recovery",
        seeds.len() * 4
    );
    assert!(resumes > 0, "{tag}: no restart ever found a snapshot");
    kills
}

#[test]
fn sequential_runs_survive_seeded_kills() {
    crash_matrix("seq", &[], &[2, 3, 5, 8, 13]);
}

#[test]
fn sequential_runs_survive_kills_with_offset_seeds() {
    crash_matrix("seq2", &[], &[21, 34, 55, 89, 144]);
}

#[test]
fn parallel_runs_survive_seeded_kills() {
    crash_matrix("par", &["--threads", "3"], &[7, 11, 19, 23, 29]);
}

#[test]
fn parallel_runs_survive_kills_with_offset_seeds() {
    crash_matrix("par2", &["--threads", "3"], &[31, 37, 41, 43, 47]);
}

#[test]
fn affine_runs_survive_seeded_kills() {
    // The snapshot records the affine gap model, so `flsa resume`
    // rebuilds the same scheme and reports the run as fastlsa-affine.
    let affine = [
        "--algo",
        "fastlsa-affine",
        "--matrix",
        "dna",
        "--gap-open",
        "-10",
        "--gap-extend",
        "-1",
    ];
    crash_matrix("affine", &affine, &[3, 17, 53, 61, 67]);
}
