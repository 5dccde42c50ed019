//! End-to-end tests of the `flsa` binary: generate data, align it with
//! every algorithm, and check the reports agree.

use std::path::PathBuf;
use std::process::{Command, Output};

use flsa_seq::generate::homologous_pair;
use flsa_seq::{fasta, Alphabet, Sequence};

fn flsa(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_flsa"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("flsa-cli-test-{}-{name}", std::process::id()));
    p
}

fn score_line(text: &str) -> i64 {
    text.lines()
        .find(|l| l.starts_with("score "))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no score line in:\n{text}"))
}

#[test]
fn gen_then_align_all_global_algorithms_agree() {
    let fa = tmp("pair.fa");
    let out = flsa(&[
        "gen",
        "--len",
        "300",
        "--seed",
        "5",
        "-o",
        fa.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");

    let mut scores = Vec::new();
    for algo in ["fastlsa", "nw", "nw-packed", "hirschberg"] {
        let out = flsa(&["align", "--algo", algo, "--quiet", fa.to_str().unwrap()]);
        assert!(out.status.success(), "{algo}: {out:?}");
        scores.push(score_line(&stdout(&out)));
    }
    assert!(scores.windows(2).all(|w| w[0] == w[1]), "{scores:?}");
    std::fs::remove_file(fa).ok();
}

#[test]
fn paper_example_via_matrix_flag() {
    let fa = tmp("paper.fa");
    std::fs::write(&fa, ">a\nTLDKLLKD\n>b\nTDVLKAD\n").unwrap();
    let out = flsa(&[
        "align",
        "--matrix",
        "paper",
        "--quiet",
        fa.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(score_line(&stdout(&out)), 82);
    std::fs::remove_file(fa).ok();
}

#[test]
fn stats_flag_reports_metrics() {
    let fa = tmp("stats.fa");
    std::fs::write(&fa, ">a\nACGTACGT\n>b\nACGTTCGT\n").unwrap();
    let out = flsa(&["align", "--stats", "--quiet", fa.to_str().unwrap()]);
    let text = stdout(&out);
    assert!(text.contains("cells computed"), "{text}");
    assert!(text.contains("peak aux memory"), "{text}");
    std::fs::remove_file(fa).ok();
}

#[test]
fn parallel_threads_give_same_score() {
    let fa = tmp("par.fa");
    let out = flsa(&[
        "gen",
        "--len",
        "500",
        "--seed",
        "9",
        "-o",
        fa.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let s1 = score_line(&stdout(&flsa(&[
        "align",
        "--quiet",
        "-k",
        "4",
        "--base-cells",
        "1024",
        fa.to_str().unwrap(),
    ])));
    let s4 = score_line(&stdout(&flsa(&[
        "align",
        "--quiet",
        "-k",
        "4",
        "--base-cells",
        "1024",
        "--threads",
        "4",
        fa.to_str().unwrap(),
    ])));
    assert_eq!(s1, s4);
    std::fs::remove_file(fa).ok();
}

#[test]
fn custom_matrix_file_is_honoured() {
    let fa = tmp("mat.fa");
    std::fs::write(&fa, ">a\nAC\n>b\nAC\n").unwrap();
    let mat = tmp("matrix.txt");
    std::fs::write(
        &mat,
        "  A C G T\nA 9 0 0 0\nC 0 9 0 0\nG 0 0 9 0\nT 0 0 0 9\n",
    )
    .unwrap();
    let out = flsa(&[
        "align",
        "--matrix-file",
        mat.to_str().unwrap(),
        "--quiet",
        fa.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(score_line(&stdout(&out)), 18);
    std::fs::remove_file(fa).ok();
    std::fs::remove_file(mat).ok();
}

#[test]
fn affine_algorithms_agree_with_each_other() {
    let fa = tmp("affine.fa");
    let out = flsa(&[
        "gen",
        "--len",
        "200",
        "--seed",
        "3",
        "-o",
        fa.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let g = score_line(&stdout(&flsa(&[
        "align",
        "--algo",
        "gotoh",
        "--gap-open",
        "-12",
        "--gap-extend",
        "-2",
        "--quiet",
        fa.to_str().unwrap(),
    ])));
    let m = score_line(&stdout(&flsa(&[
        "align",
        "--algo",
        "mm-affine",
        "--gap-open",
        "-12",
        "--gap-extend",
        "-2",
        "--quiet",
        fa.to_str().unwrap(),
    ])));
    assert_eq!(g, m);
    std::fs::remove_file(fa).ok();
}

#[test]
fn local_and_semiglobal_modes_run() {
    let fa = tmp("modes.fa");
    std::fs::write(&fa, ">a\nGATTACA\n>b\nCCCCGATTACACCCC\n").unwrap();
    for algo in ["sw", "fit", "overlap", "banded"] {
        let out = flsa(&["align", "--algo", algo, "--quiet", fa.to_str().unwrap()]);
        assert!(out.status.success(), "{algo}: {out:?}");
    }
    // fit: the query embeds perfectly, 7 matches at +5.
    let out = flsa(&["align", "--algo", "fit", "--quiet", fa.to_str().unwrap()]);
    assert_eq!(score_line(&stdout(&out)), 35);
    std::fs::remove_file(fa).ok();
}

#[test]
fn unknown_algorithm_fails_cleanly() {
    let fa = tmp("bad.fa");
    std::fs::write(&fa, ">a\nAC\n>b\nAC\n").unwrap();
    let out = flsa(&["align", "--algo", "nope", fa.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown algorithm"));
    std::fs::remove_file(fa).ok();
}

#[test]
fn msa_subcommand_aligns_a_family() {
    let fa = tmp("family.fa");
    std::fs::write(
        &fa,
        ">s1\nACGTACGT\n>s2\nACGTCGT\n>s3\nACGGACGT\n>s4\nACGTACGT\n",
    )
    .unwrap();
    let out = flsa(&["msa", fa.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    assert!(text.contains("4 sequences"), "{text}");
    assert!(text.contains("sum-of-pairs"), "{text}");
    std::fs::remove_file(fa).ok();
}

#[test]
fn help_and_info_print() {
    assert!(stdout(&flsa(&["help"])).contains("USAGE"));
    assert!(stdout(&flsa(&["info"])).contains("blosum62"));
}

#[test]
fn json_flag_emits_machine_readable_stats() {
    let fa = tmp("json.fa");
    let out = flsa(&[
        "gen",
        "--len",
        "400",
        "--seed",
        "13",
        "-o",
        fa.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let out = flsa(&["align", "--json", fa.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    // One line, one JSON object, all the MetricsSnapshot fields present.
    assert_eq!(text.trim().lines().count(), 1, "{text}");
    let doc = flsa_trace::json::parse(text.trim()).unwrap_or_else(|e| panic!("{e}:\n{text}"));
    assert_eq!(doc.get("algo").and_then(|v| v.as_str()), Some("fastlsa"));
    for key in [
        "score",
        "len_a",
        "len_b",
        "threads",
        "time_ns",
        "cells_computed",
        "cells_base_case",
        "traceback_steps",
        "kernel_calls",
        "peak_bytes",
        "cell_factor",
    ] {
        assert!(doc.get(key).is_some(), "missing {key} in {text}");
    }
    assert!(doc.get("cells_computed").unwrap().as_u64().unwrap() > 0);
    std::fs::remove_file(fa).ok();
}

#[test]
fn trace_then_report_round_trips_both_formats() {
    let fa = tmp("trace.fa");
    let out = flsa(&[
        "gen",
        "--len",
        "600",
        "--seed",
        "21",
        "-o",
        fa.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    for format in ["chrome", "jsonl"] {
        let tr = tmp(&format!("trace.{format}"));
        let out = flsa(&[
            "align",
            "--threads",
            "2",
            "-k",
            "4",
            "--base-cells",
            "4096",
            "--quiet",
            "--trace",
            tr.to_str().unwrap(),
            "--trace-format",
            format,
            fa.to_str().unwrap(),
        ]);
        assert!(out.status.success(), "{format}: {out:?}");
        let trace = flsa_trace::read_trace(&std::fs::read_to_string(&tr).unwrap()).unwrap();
        assert!(trace.kernel_cells() > 0, "{format}: no kernel events");
        assert_eq!(trace.meta.threads, 2);

        let out = flsa(&["report", tr.to_str().unwrap()]);
        assert!(out.status.success(), "{format}: {out:?}");
        let text = stdout(&out);
        assert!(text.contains("per-thread utilization"), "{text}");
        assert!(text.contains("ramp-up / saturated / drain"), "{text}");
        std::fs::remove_file(tr).ok();
    }
    std::fs::remove_file(fa).ok();
}

#[test]
fn unknown_long_flag_fails_cleanly() {
    let out = flsa(&["align", "--threds", "4", "x.fa"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--threds"));
    let out = flsa(&["align", "--notaflag", "x.fa"]);
    assert!(!out.status.success());
}

// --- exit-code taxonomy: 0 ok, 1 runtime fault, 2 bad config/args, ---
// --- 3 malformed input                                             ---

fn write_pair(name: &str) -> PathBuf {
    let fa = tmp(name);
    std::fs::write(&fa, ">a\nACGTACGTACGTACGT\n>b\nACGTTCGTACGGACGT\n").unwrap();
    fa
}

#[test]
fn exit_code_0_on_successful_alignment() {
    let fa = write_pair("exit0.fa");
    let out = flsa(&["align", "--quiet", fa.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    std::fs::remove_file(fa).ok();
}

#[test]
fn exit_code_1_when_the_deadline_cancels_the_run() {
    let fa = write_pair("exit1.fa");
    let out = flsa(&[
        "align",
        "--deadline-ms",
        "0",
        "--quiet",
        fa.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("cancelled"), "{err}");
    std::fs::remove_file(fa).ok();
}

#[test]
fn exit_code_2_on_bad_config_or_args() {
    let fa = write_pair("exit2.fa");
    // Invalid FastLSA configuration (k must be >= 2).
    let out = flsa(&["align", "-k", "1", "--quiet", fa.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("k must be >= 2"));
    // Unknown algorithm and unknown subcommand are argument errors too.
    let out = flsa(&["align", "--algo", "nope", fa.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = flsa(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // Invalid numeric option value.
    let out = flsa(&["align", "--deadline-ms", "soon", fa.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // A positive gap makes the optimum unbounded: a typed usage error
    // naming the matrix and the gap, not a panic (exit 101).
    let out = flsa(&["align", "--gap", "5", "--quiet", fa.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(err.contains("\"dna\"") && err.contains("gap 5"), "{err}");
    std::fs::remove_file(fa).ok();
}

#[test]
fn exit_code_2_when_the_span_exceeds_the_schemes_i32_bound() {
    // A gap of -2e9 leaves i32 on an 8×7 pair, under either gap model.
    let fa = tmp("overflow.fa");
    std::fs::write(&fa, ">a\nACGTACGT\n>b\nACGTCGT\n").unwrap();
    let affine = ["--gap-open", "-2000000000", "--gap-extend", "-1"];
    let linear = ["--gap", "-2000000000"];
    let cases = [
        ("gotoh", &affine[..]),
        ("mm-affine", &affine),
        ("fastlsa-affine", &affine),
        ("nw", &linear),
        ("hirschberg", &linear),
    ];
    for (algo, gap) in cases {
        let mut args = vec!["align", "--algo", algo, "--quiet", fa.to_str().unwrap()];
        args.extend_from_slice(gap);
        let out = flsa(&args);
        assert_eq!(out.status.code(), Some(2), "{algo}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(err.contains("exceeds the i32-safe limit"), "{algo}: {err}");
    }
    std::fs::remove_file(fa).ok();
}

#[test]
fn affine_span_cap_keeps_scores_off_the_sentinel() {
    // Under open 0 / extend -1e6 a 1×540 pair (span 541) is inside the
    // overflow bound (1072) but its gap scores would reach the affine
    // kernels' unreachable-cell sentinel: the cap is 534. A 1×500 pair
    // still aligns, to one match plus one 499-symbol gap.
    for (len, score) in [(540, None), (500, Some(-498_999_995))] {
        let fa = tmp(&format!("cap{len}.fa"));
        std::fs::write(&fa, format!(">a\nA\n>b\n{}\n", "ACGT".repeat(len / 4))).unwrap();
        for algo in ["gotoh", "mm-affine", "fastlsa-affine"] {
            let out = flsa(&[
                "align",
                "--algo",
                algo,
                "--gap-open",
                "0",
                "--gap-extend",
                "-1000000",
                "--quiet",
                fa.to_str().unwrap(),
            ]);
            match score {
                None => assert_eq!(out.status.code(), Some(2), "{algo} 1x{len}: {out:?}"),
                Some(s) => {
                    assert!(out.status.success(), "{algo} 1x{len}: {out:?}");
                    assert_eq!(score_line(&stdout(&out)), s, "{algo} 1x{len}");
                }
            }
        }
        std::fs::remove_file(fa).ok();
    }
}

#[test]
fn fastlsa_affine_takes_the_fastlsa_run_options() {
    let fa = write_pair("affine_opts.fa");
    let base = [
        "align",
        "--algo",
        "fastlsa-affine",
        "--quiet",
        fa.to_str().unwrap(),
    ];
    let reference = flsa(&base);
    assert!(reference.status.success(), "{reference:?}");
    let runs: [&[&str]; 4] = [
        &["--deadline-ms", "60000"],
        &["--memory", "1000000"],
        &["--kernel", "scalar"],
        &["--threads", "1"],
    ];
    for extra in runs {
        let out = flsa(&[&base[..], extra].concat());
        assert!(out.status.success(), "{extra:?}: {out:?}");
        assert_eq!(stdout(&out), stdout(&reference), "{extra:?}");
    }
    // The wavefront fill and the shard fleet run linear gaps only.
    for extra in [&["--threads", "2"][..], &["--shards", "2"]] {
        let out = flsa(&[&base[..], extra].concat());
        assert_eq!(out.status.code(), Some(2), "{extra:?}: {out:?}");
    }
    std::fs::remove_file(fa).ok();
}

#[test]
fn exit_code_3_on_malformed_or_missing_input() {
    // Sequence data before any FASTA header.
    let bad = tmp("exit3.fa");
    std::fs::write(&bad, "ACGT this is not a fasta file\n").unwrap();
    let out = flsa(&["align", bad.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    std::fs::remove_file(&bad).ok();
    // Missing file.
    let out = flsa(&["align", "/nonexistent/pair.fa"]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    // Too few records in an otherwise valid file.
    let one = tmp("exit3-one.fa");
    std::fs::write(&one, ">only\nACGT\n").unwrap();
    let out = flsa(&["align", one.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("need two"));
    std::fs::remove_file(one).ok();
}

#[test]
fn memory_budget_degrades_but_still_exits_zero() {
    let fa = write_pair("budget.fa");
    let out = flsa(&["align", "--memory", "4096", "--quiet", fa.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(stdout(&out).contains("score "), "{out:?}");
    std::fs::remove_file(fa).ok();
}

#[test]
fn report_rejects_missing_and_invalid_files() {
    let out = flsa(&["report", "/nonexistent/trace.json"]);
    assert!(!out.status.success());
    let bad = tmp("bad-trace.json");
    std::fs::write(&bad, "not a trace").unwrap();
    let out = flsa(&["report", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    std::fs::remove_file(bad).ok();
}

// --- checkpoint / resume -------------------------------------------------

/// A pair long enough that `--checkpoint-every-blocks 1` leaves several
/// snapshots behind when a run is cut short.
fn write_checkpoint_pair(name: &str) -> PathBuf {
    let fa = tmp(name);
    let out = flsa(&[
        "gen",
        "--len",
        "500",
        "--seed",
        "12",
        "-o",
        fa.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    fa
}

#[test]
fn checkpointed_align_completes_and_removes_the_snapshot() {
    let fa = write_checkpoint_pair("ckpt-ok.fa");
    let ckpt = tmp("ckpt-ok.ckpt");
    let out = flsa(&[
        "align",
        "--checkpoint",
        ckpt.to_str().unwrap(),
        "--checkpoint-every-blocks",
        "1",
        "-k",
        "4",
        "--base-cells",
        "512",
        fa.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    assert!(stdout(&out).contains("score "));
    assert!(!ckpt.exists(), "snapshot should be removed after success");
    std::fs::remove_file(fa).ok();
}

#[test]
fn cancelled_run_leaves_a_snapshot_that_resume_finishes_identically() {
    let fa = write_checkpoint_pair("ckpt-resume.fa");
    let ckpt = tmp("ckpt-resume.ckpt");
    let align = [
        "align",
        "-k",
        "4",
        "--base-cells",
        "512",
        fa.to_str().unwrap(),
    ];
    let reference = flsa(&align);
    assert!(reference.status.success(), "{reference:?}");

    // Cancel immediately: the engine force-checkpoints at the last
    // consistent point before reporting the cancellation (exit 1).
    let mut cancelled: Vec<&str> = align.to_vec();
    let ckpt_s = ckpt.to_str().unwrap();
    cancelled.extend_from_slice(&[
        "--checkpoint",
        ckpt_s,
        "--checkpoint-every-blocks",
        "1",
        "--deadline-ms",
        "0",
    ]);
    let out = flsa(&cancelled);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(
        ckpt.exists(),
        "cancellation must leave a resumable snapshot"
    );

    let resumed = flsa(&["resume", ckpt_s]);
    assert_eq!(resumed.status.code(), Some(0), "{resumed:?}");
    assert_eq!(
        stdout(&resumed),
        stdout(&reference),
        "resumed output must be byte-identical"
    );
    assert!(!ckpt.exists(), "snapshot should be removed after resume");
    std::fs::remove_file(fa).ok();
}

#[test]
fn corrupt_snapshot_exits_3_with_a_structured_message() {
    let fa = write_checkpoint_pair("ckpt-corrupt.fa");
    let ckpt = tmp("ckpt-corrupt.ckpt");
    let ckpt_s = ckpt.to_str().unwrap();
    let out = flsa(&[
        "align",
        "-k",
        "4",
        "--base-cells",
        "512",
        "--checkpoint",
        ckpt_s,
        "--checkpoint-every-blocks",
        "1",
        "--deadline-ms",
        "0",
        fa.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");

    // Flip one bit in the middle of the snapshot.
    let mut bytes = std::fs::read(&ckpt).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&ckpt, &bytes).unwrap();
    let out = flsa(&["resume", ckpt_s]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("corrupt checkpoint"),
        "{out:?}"
    );

    // Truncation is detected too.
    bytes[mid] ^= 0x40; // restore the flipped bit
    bytes.truncate(bytes.len() - 20);
    std::fs::write(&ckpt, &bytes).unwrap();
    let out = flsa(&["resume", ckpt_s]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");

    std::fs::remove_file(ckpt).ok();
    std::fs::remove_file(fa).ok();
}

#[test]
fn resume_rejects_missing_files_and_bad_usage() {
    let out = flsa(&["resume", "/nonexistent/run.ckpt"]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    let out = flsa(&["resume"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    // --checkpoint composes only with the checkpointable engine.
    let fa = write_pair("ckpt-usage.fa");
    let out = flsa(&[
        "align",
        "--algo",
        "nw",
        "--checkpoint",
        "/tmp/x.ckpt",
        fa.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let out = flsa(&[
        "align",
        "--checkpoint",
        "/tmp/x.ckpt",
        "--checkpoint-every-blocks",
        "0",
        fa.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    std::fs::remove_file(fa).ok();
}

// --- one option table: what a run does not read is refused -------------

#[test]
fn matrix_file_scores_batch_and_msa_too() {
    let fa = tmp("matfile-pair.fa");
    std::fs::write(&fa, ">a\nAC\n>b\nAC\n").unwrap();
    let mat = tmp("matfile-matrix.txt");
    std::fs::write(
        &mat,
        "  A C G T\nA 9 0 0 0\nC 0 9 0 0\nG 0 0 9 0\nT 0 0 0 9\n",
    )
    .unwrap();
    let (fa_s, mat_s) = (fa.to_str().unwrap(), mat.to_str().unwrap());
    let out = flsa(&["batch", "--matrix-file", mat_s, fa_s]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    assert_eq!(text.split('\t').nth(2), Some("18"), "{text}");
    let out = flsa(&["msa", "--matrix-file", mat_s, "--quiet", fa_s]);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    assert!(text.trim_end().ends_with("sum-of-pairs 18"), "{text}");
    std::fs::remove_file(fa).ok();
    std::fs::remove_file(mat).ok();
}

#[test]
fn an_invalid_gate_fails_before_the_sweep_writes_anything() {
    let report = tmp("gate-abc.json");
    let out = flsa(&[
        "bench",
        "kernels",
        "--len",
        "64",
        "--reps",
        "1",
        "--gate",
        "abc",
        "-o",
        report.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--gate"));
    assert!(!report.exists(), "the sweep ran before --gate was checked");
}

#[test]
fn a_closed_stdout_exits_1_without_a_panic() {
    use std::process::Stdio;
    // ~400 KB of FASTA: more than a pipe buffer holds, so the write is
    // certain to hit the closed pipe.
    let mut child = Command::new(env!("CARGO_BIN_EXE_flsa"))
        .args(["gen", "--len", "200000"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("child exits");
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("flsa:"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn options_and_arguments_a_run_does_not_read_are_refused() {
    let fa = write_pair("refused.fa");
    let report = tmp("refused-bench.json");
    let (p, r) = (fa.to_str().unwrap(), report.to_str().unwrap());
    // (arguments, what stderr must name); `P` is the pair file and `F`
    // the bench report, which must never be written.
    let cases: &[(&[&str], &str)] = &[
        (&["gen", "--workers", "3"], "--workers"),
        (&["gen", "--len", "5", "stray"], "stray"),
        (&["info", "--json"], "--json"),
        (&["batch", "--threads", "8", "P"], "--threads"),
        (&["align", "--width", "10", "P"], "--width"),
        (
            &["align", "--algo", "nw", "--threads", "4", "P"],
            "--threads",
        ),
        (
            &["align", "--algo", "nw", "--deadline-ms", "0", "P"],
            "--deadline-ms",
        ),
        (
            &["align", "--algo", "gotoh", "--kernel", "scalar", "P"],
            "--kernel",
        ),
        (
            &["align", "--algo", "gotoh", "--memory", "10", "P"],
            "--memory",
        ),
        (
            &["align", "--algo", "nw", "--gap-open", "-5", "P"],
            "--gap-open",
        ),
        (&["align", "--band", "3", "P"], "--band"),
        (&["align", "--memory", "4096", "-k", "4", "P"], "-k"),
        (&["align", "--tiles", "4", "P"], "--tiles"),
        (&["align", "--shard-fault", "kill:0", "P"], "--shard-fault"),
        (
            &["align", "--checkpoint-every-blocks", "2", "P"],
            "--checkpoint-every-blocks",
        ),
        (&["align", "--trace-format", "jsonl", "P"], "--trace-format"),
        (&["align", "--fault", "kill:0", "P"], "--fault"),
        (
            &["align", "--algo", "gotoh", "--gap-open", "5", "P"],
            "--gap-open",
        ),
        (
            &["resume", "--kernel", "scalar", "/nonexistent.ckpt"],
            "--kernel",
        ),
        (
            &[
                "bench",
                "kernels",
                "--len",
                "64",
                "--reps",
                "1",
                "--threads",
                "2",
                "-o",
                "F",
            ],
            "--threads",
        ),
    ];
    for (args, needle) in cases {
        let args: Vec<&str> = args
            .iter()
            .map(|&a| match a {
                "P" => p,
                "F" => r,
                a => a,
            })
            .collect();
        let out = flsa(&args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(needle), "{args:?}: {err}");
    }
    assert!(!report.exists());
    std::fs::remove_file(fa).ok();
}

// --- flsa batch: each pair answers as `flsa align` answers it -----------

/// `n` homologous pairs (about 85% identity, indels included) of
/// `lo..=hi` residues over `alphabet`; with `ns`, every third pair has an
/// `N` at every ninth position.
fn homologous_pairs(
    alphabet: &Alphabet,
    n: usize,
    (lo, hi): (usize, usize),
    ns: bool,
) -> Vec<(Sequence, Sequence)> {
    let with_ns = |s: Sequence| {
        let n_code = alphabet.encode_symbol('N').unwrap();
        let codes = s.codes().iter().enumerate();
        let codes = codes.map(|(j, &c)| if j % 9 == 4 { n_code } else { c });
        Sequence::from_codes(s.id(), alphabet, codes.collect())
    };
    (0..n)
        .map(|i| {
            let len = lo + i * 7919 % (hi - lo + 1);
            let (a, b) = homologous_pair(&format!("p{i}"), alphabet, len, 0.85, i as u64).unwrap();
            if ns && i % 3 == 0 {
                (with_ns(a), with_ns(b))
            } else {
                (a, b)
            }
        })
        .collect()
}

/// The CIGAR of the alignment `flsa align` renders after its score and
/// identity lines: three-line blocks (top row, markers, bottom row)
/// separated by blank lines; a gap in the top row is an `I`, in the
/// bottom row a `D`.
fn cigar_of_rendering(text: &str) -> String {
    let lines: Vec<&str> = text
        .lines()
        .skip_while(|l| !l.starts_with("identity "))
        .skip(1)
        .filter(|l| !l.is_empty())
        .collect();
    assert!(
        !lines.is_empty() && lines.len().is_multiple_of(3),
        "no rendering in:\n{text}"
    );
    let top = lines.iter().step_by(3).flat_map(|l| l.bytes());
    let bottom = lines.iter().skip(2).step_by(3).flat_map(|l| l.bytes());
    let mut cigar = String::new();
    let mut run: Option<(char, usize)> = None;
    for (t, b) in top.zip(bottom) {
        let op = match (t, b) {
            (b'-', _) => 'I',
            (_, b'-') => 'D',
            _ => 'M',
        };
        run = match run {
            Some((cur, n)) if cur == op => Some((cur, n + 1)),
            Some((cur, n)) => {
                cigar.push_str(&format!("{n}{cur}"));
                Some((op, 1))
            }
            None => Some((op, 1)),
        };
    }
    if let Some((cur, n)) = run {
        cigar.push_str(&format!("{n}{cur}"));
    }
    cigar
}

/// For each pair, aligned alone from the file `fa`, the score
/// `flsa align --json` prints and the CIGAR of the alignment `flsa align`
/// renders.
fn align_each(fa: &str, pairs: &[(Sequence, Sequence)], matrix: &str) -> Vec<(i64, String)> {
    let want = pairs
        .iter()
        .map(|(a, b)| {
            fasta::write_file(fa, &[a.clone(), b.clone()]).unwrap();
            let out = flsa(&["align", "--matrix", matrix, "--json", fa]);
            assert!(out.status.success(), "{out:?}");
            let text = stdout(&out);
            let doc =
                flsa_trace::json::parse(text.trim()).unwrap_or_else(|e| panic!("{e}:\n{text}"));
            let score = doc.get("score").and_then(|v| v.as_f64()).unwrap() as i64;
            let out = flsa(&["align", "--matrix", matrix, fa]);
            assert!(out.status.success(), "{out:?}");
            let text = stdout(&out);
            assert_eq!(score_line(&text), score, "{}", a.id());
            (score, cigar_of_rendering(&text))
        })
        .collect();
    std::fs::remove_file(fa).ok();
    want
}

/// Runs `flsa batch` on `inputs` (TSV, then `--json`) and asserts that
/// line and element `i` carry pair `i`'s ids and the score and CIGAR
/// `flsa align` gives it.
fn assert_batch_matches_align(inputs: &[&str], matrix: &str, pairs: &[(Sequence, Sequence)]) {
    let want = align_each(&format!("{}.pair", inputs[0]), pairs, matrix);
    let mut args = vec!["batch", "--matrix", matrix];
    args.extend_from_slice(inputs);
    let out = flsa(&args);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), pairs.len(), "{text}");
    for (i, ((a, b), (score, cigar))) in pairs.iter().zip(&want).enumerate() {
        let expected = format!("{}\t{}\t{score}\t{cigar}", a.id(), b.id());
        assert_eq!(lines[i], expected, "TSV line {i}");
    }

    args.push("--json");
    let out = flsa(&args);
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    assert_eq!(text.lines().count(), 1, "{text}");
    let doc = flsa_trace::json::parse(text.trim()).unwrap_or_else(|e| panic!("{e}:\n{text}"));
    let items = doc
        .as_arr()
        .unwrap_or_else(|| panic!("not an array:\n{text}"));
    assert_eq!(items.len(), pairs.len(), "{text}");
    for (i, ((a, b), (score, cigar))) in pairs.iter().zip(&want).enumerate() {
        let field = |k: &str| items[i].get(k).and_then(|v| v.as_str());
        assert_eq!(field("a"), Some(a.id()), "element {i}");
        assert_eq!(field("b"), Some(b.id()), "element {i}");
        assert_eq!(field("cigar"), Some(cigar.as_str()), "element {i}");
        let got = items[i].get("score").and_then(|v| v.as_f64()).unwrap() as i64;
        assert_eq!(got, *score, "element {i} score");
    }
}

/// One FASTA of the pairs' records, consecutive records paired.
fn write_pairs_fasta(tag: &str, pairs: &[(Sequence, Sequence)]) -> PathBuf {
    let fa = tmp(&format!("{tag}.fa"));
    let records: Vec<Sequence> = pairs
        .iter()
        .flat_map(|(a, b)| [a.clone(), b.clone()])
        .collect();
    fasta::write_file(&fa, &records).unwrap();
    fa
}

#[test]
fn batch_of_mixed_length_dna_pairs_matches_align_pair_by_pair() {
    // Serve's small-pair range.
    let pairs = homologous_pairs(&Alphabet::dna(), 12, (48, 768), true);
    let fa = write_pairs_fasta("batch-dna", &pairs);
    assert_batch_matches_align(&[fa.to_str().unwrap()], "dna", &pairs);
    std::fs::remove_file(fa).ok();
}

#[test]
fn batch_of_two_protein_files_matches_align_pair_by_pair() {
    let pairs = homologous_pairs(&Alphabet::protein(), 8, (40, 400), false);
    let (qa, qb) = (tmp("batch-prot-a.fa"), tmp("batch-prot-b.fa"));
    let (ra, rb): (Vec<Sequence>, Vec<Sequence>) = pairs.iter().cloned().unzip();
    fasta::write_file(&qa, &ra).unwrap();
    fasta::write_file(&qb, &rb).unwrap();
    let inputs = [qa.to_str().unwrap(), qb.to_str().unwrap()];
    assert_batch_matches_align(&inputs, "blosum62", &pairs);
    std::fs::remove_file(qa).ok();
    std::fs::remove_file(qb).ok();
}

#[test]
fn batch_prints_the_same_bytes_on_the_scalar_kernel() {
    let pairs = homologous_pairs(&Alphabet::dna(), 10, (48, 768), true);
    let fa = write_pairs_fasta("batch-scalar", &pairs);
    let fa_s = fa.to_str().unwrap();
    for json in [&[][..], &["--json"]] {
        let mut auto = vec!["batch", fa_s];
        auto.extend_from_slice(json);
        let mut scalar = auto.clone();
        scalar.extend_from_slice(&["--kernel", "scalar"]);
        let (want, got) = (flsa(&auto), flsa(&scalar));
        assert!(want.status.success() && got.status.success(), "{got:?}");
        assert!(!want.stdout.is_empty());
        assert_eq!(stdout(&got), stdout(&want), "{json:?}");
    }
    std::fs::remove_file(fa).ok();
}

#[test]
fn batch_refuses_unpaired_records_as_an_input_error() {
    let odd = tmp("batch-odd.fa");
    std::fs::write(&odd, ">a\nACGT\n>b\nACGA\n>c\nACGG\n").unwrap();
    let out = flsa(&["batch", odd.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");

    let (qa, qb) = (tmp("batch-uneven-a.fa"), tmp("batch-uneven-b.fa"));
    std::fs::write(&qa, ">a\nACGT\n>b\nACGA\n").unwrap();
    std::fs::write(&qb, ">c\nACGG\n").unwrap();
    let out = flsa(&["batch", qa.to_str().unwrap(), qb.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    for f in [odd, qa, qb] {
        std::fs::remove_file(f).ok();
    }
}
