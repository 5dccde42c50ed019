//! `flsa` — command-line front end for the FastLSA alignment library.
//!
//! ```text
//! flsa align [options] A.fasta [B.fasta]   align two sequences
//! flsa gen   [options]                     generate a synthetic homologous pair
//! flsa paper EXPERIMENT|all                regenerate the paper's tables and figures
//! ```
//!
//! Every subcommand and option is declared once, in `args::COMMANDS`;
//! run `flsa help` for the full list.
#![forbid(unsafe_code)]

/// `print!` for handlers. It evaluates to `Result<(), CliError>`, so a
/// closed stdout is a runtime fault (exit 1) instead of a panic.
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// [`out!`] plus a newline.
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

mod args;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use args::Args;
use fastlsa_core::{
    AlignError, AlignOptions, CancelToken, CheckpointPolicy, ConfigError, FastLsaConfig,
    ParallelConfig,
};
use flsa_checkpoint::{
    read_snapshot, resume_from_snapshot, CheckpointMetrics, FileCheckpointSink, SnapshotMeta,
};
use flsa_dp::{AlignResult, Alignment, Kernel, KernelBackend, Metrics};
use flsa_metrics::{MetricsSnapshot, Registry};
use flsa_scoring::{tables, GapModel, ScoringScheme};
use flsa_seq::{fasta, generate, Alphabet, Sequence};
use flsa_trace::Recorder;

/// A CLI failure: the message printed to stderr plus the process exit
/// code. The taxonomy (1 runtime fault, 2 bad config/args, 3 malformed
/// input) lets scripts distinguish "your command was wrong" from "your
/// data was wrong" from "the run itself failed".
#[derive(Debug)]
struct CliError {
    code: u8,
    msg: String,
}

impl CliError {
    /// Exit 2: bad arguments, unknown names, invalid configuration.
    fn usage(msg: impl Into<String>) -> Self {
        Self {
            code: 2,
            msg: msg.into(),
        }
    }

    /// Exit 3: input files that are missing, unreadable, or malformed.
    fn input(msg: impl Into<String>) -> Self {
        Self {
            code: 3,
            msg: msg.into(),
        }
    }

    /// Exit 1: faults at run time — allocation exhaustion past the
    /// bottom of the degradation ladder, cancellation, worker panics,
    /// output I/O errors.
    fn runtime(msg: impl Into<String>) -> Self {
        Self {
            code: 1,
            msg: msg.into(),
        }
    }
}

impl From<AlignError> for CliError {
    fn from(e: AlignError) -> Self {
        match &e {
            AlignError::Config(_) => Self::usage(e.to_string()),
            AlignError::AlphabetMismatch { .. } => Self::input(e.to_string()),
            // A snapshot that fails validation is malformed input, like
            // a bad FASTA file — distinct from faults during the run.
            AlignError::CorruptCheckpoint { .. } => Self::input(e.to_string()),
            _ => Self::runtime(e.to_string()),
        }
    }
}

impl From<flsa_shard::ShardError> for CliError {
    fn from(e: flsa_shard::ShardError) -> Self {
        match e {
            flsa_shard::ShardError::Config { .. } => Self::usage(e.to_string()),
            flsa_shard::ShardError::Align(inner) => Self::from(inner),
            // NoWorkers / TaskFailed: the fleet failed at run time.
            _ => Self::runtime(e.to_string()),
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv).and_then(|a| (a.cmd.run)(&a)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("flsa: {}", e.msg);
            ExitCode::from(e.code)
        }
    }
}

/// The one path to stdout. `print!` panics once the reader has gone
/// (`flsa gen | head -c 10`); this reports the failed write as exit 1.
fn write_stdout(text: std::fmt::Arguments) -> Result<(), CliError> {
    use std::io::Write as _;
    let mut stdout = std::io::stdout().lock();
    stdout
        .write_fmt(text)
        .and_then(|()| stdout.flush())
        .map_err(|e| CliError::runtime(format!("stdout: {e}")))
}

fn cmd_help(_: &Args) -> Result<(), CliError> {
    out!("{}", args::help())
}

/// Every record of a FASTA file; a missing or malformed file is bad
/// input (exit 3).
fn read_fasta(path: &str, alphabet: &Alphabet) -> Result<Vec<Sequence>, CliError> {
    fasta::read_file(path, alphabet).map_err(|e| CliError::input(e.to_string()))
}

fn load_pair(paths: &[String], alphabet: &Alphabet) -> Result<(Sequence, Sequence), CliError> {
    match paths {
        [one] => {
            let mut it = read_fasta(one, alphabet)?.into_iter();
            match (it.next(), it.next()) {
                (Some(sa), Some(sb)) => Ok((sa, sb)),
                (got, _) => Err(CliError::input(format!(
                    "{one} holds {} record(s); need two",
                    got.map_or(0, |_| 1)
                ))),
            }
        }
        [a, b] => {
            let (ra, rb) = (read_fasta(a, alphabet)?, read_fasta(b, alphabet)?);
            let first = |path: &String, recs: Vec<Sequence>| {
                let first = recs.into_iter().next();
                first.ok_or_else(|| CliError::input(format!("{path} is empty")))
            };
            Ok((first(a, ra)?, first(b, rb)?))
        }
        _ => unreachable!("the command table gives align an arity of 1..=2"),
    }
}

/// Parses and validates `--kernel`: `None` means auto-select, `Some` is
/// a named backend the current CPU can actually run.
fn parse_kernel(a: &Args) -> Result<Option<KernelBackend>, CliError> {
    match a.str_or("kernel", "auto") {
        "auto" => Ok(None),
        name => {
            let b = KernelBackend::parse(name).ok_or_else(|| {
                CliError::usage(format!(
                    "unknown kernel backend {name:?} \
                     (expected auto, scalar, sse4.1, avx2, avx512)"
                ))
            })?;
            if !b.is_available() {
                return Err(CliError::usage(format!(
                    "kernel backend {name} is not available on this CPU \
                     (available: {})",
                    KernelBackend::available()
                        .iter()
                        .map(|b| b.name())
                        .collect::<Vec<_>>()
                        .join(", ")
                )));
            }
            Ok(Some(b))
        }
    }
}

/// The scoring scheme from `--matrix` or `--matrix-file`, with `--gap`,
/// or with `--gap-open`/`--gap-extend` when `affine`; and the matrix's
/// registry name (`None` for a file), from which checkpoints and shard
/// workers rebuild the scheme.
fn scheme_from(a: &Args, affine: bool) -> Result<(ScoringScheme, Option<String>), CliError> {
    let gap = if affine { 0 } else { a.value_or("gap", -10)? };
    let (scheme, name) = match a.text("matrix-file") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::input(format!("{path}: {e}")))?;
            let matrix = flsa_scoring::parse_ncbi(path, &text)
                .map_err(|e| CliError::input(format!("{path}: {e}")))?;
            let scheme = tables::linear_scheme(path, matrix, gap).map_err(CliError::usage)?;
            (scheme, None)
        }
        None => {
            let name = a.str_or("matrix", "dna");
            let scheme = tables::scheme_for(name, gap).map_err(CliError::usage)?;
            (scheme, Some(name.to_string()))
        }
    };
    if !affine {
        return Ok((scheme, name));
    }
    let open: i32 = a.value_or("gap-open", -10)?;
    let extend: i32 = a.value_or("gap-extend", -2)?;
    if open > 0 || extend > 0 {
        return Err(CliError::usage(format!(
            "--gap-open {open} / --gap-extend {extend}: affine gap scores must be <= 0"
        )));
    }
    let gap = GapModel::affine(open, extend);
    Ok((ScoringScheme::new(scheme.matrix().clone(), gap), name))
}

/// FastLSA's grid factor and Base Case buffer, from `-k` and
/// `--base-cells`.
fn fastlsa_config(a: &Args) -> Result<FastLsaConfig, CliError> {
    Ok(FastLsaConfig::new(
        a.value_or("k", 8)?,
        a.value_or("base-cells", 1 << 20)?,
    ))
}

/// This binary re-invoked as `flsa shard-worker`: the worker command of
/// `align --shards` and `bench shard`.
fn shard_worker_cmd() -> Result<Vec<String>, CliError> {
    let exe = std::env::current_exe()
        .map_err(|e| CliError::runtime(format!("cannot locate own binary: {e}")))?;
    Ok(vec![
        exe.to_string_lossy().into_owned(),
        "shard-worker".to_string(),
    ])
}

/// Writes a registry snapshot to `path`, atomically (tmp + rename): JSON
/// when the path ends in `.json`, Prometheus text format otherwise.
fn write_metrics_file(path: &str, snap: &MetricsSnapshot) -> Result<(), String> {
    let body = if path.ends_with(".json") {
        snap.to_json()
    } else {
        snap.to_prometheus()
    };
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, body).map_err(|e| format!("{path}: {e}"))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("{path}: {e}"))
}

/// The background observer behind `--progress` and the periodic metrics
/// refresh: one thread, woken every 200 ms, that repaints the status
/// line and (when checkpointing, so a killed run leaves something to
/// resume *and* to seed metrics from) rewrites the metrics export about
/// once a second.
struct LiveObserver {
    stop: std::sync::mpsc::Sender<()>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl LiveObserver {
    /// Spawns the observer, or returns `None` when it would have nothing
    /// to do (no progress line, nothing to refresh) — a bare `--metrics`
    /// run pays only the final export.
    fn spawn(reg: &Arc<Registry>, progress: bool, refresh_path: Option<String>) -> Option<Self> {
        if !progress && refresh_path.is_none() {
            return None;
        }
        // The channel doubles as the stop signal: `finish` drops the
        // sender, turning the 200ms `recv_timeout` tick into an
        // immediate `Disconnected` — shutdown never waits out a sleep.
        let (stop, tick) = std::sync::mpsc::channel::<()>();
        let reg = Arc::clone(reg);
        let handle = std::thread::spawn(move || {
            let line = progress.then(|| flsa_metrics::progress::Progress::new(&reg));
            let start = Instant::now();
            let mut ticks = 0u64;
            loop {
                let disconnected = matches!(
                    tick.recv_timeout(Duration::from_millis(200)),
                    Err(std::sync::mpsc::RecvTimeoutError::Disconnected)
                );
                if disconnected {
                    break;
                }
                if let Some(p) = &line {
                    use std::io::Write as _;
                    eprint!("\r{}", p.line(start.elapsed().as_secs_f64()));
                    let _ = std::io::stderr().flush();
                }
                ticks += 1;
                if ticks.is_multiple_of(5) {
                    if let Some(path) = &refresh_path {
                        let _ = write_metrics_file(path, &reg.snapshot());
                    }
                }
            }
            if line.is_some() {
                eprintln!();
            }
        });
        Some(LiveObserver {
            stop,
            handle: Some(handle),
        })
    }

    /// Stops the refresh loop and waits for the final repaint.
    fn finish(mut self) {
        drop(self.stop);
        if let Some(h) = self.handle.take() {
            h.join().ok();
        }
    }
}

/// Final `--metrics` export. Called after the run settles (success or
/// fault — a deadline-hit or exhausted run still leaves its numbers); a
/// write failure is only promoted to an error when the run itself
/// succeeded, so it never masks the run's own fault.
fn export_metrics(
    registry: Option<&Arc<Registry>>,
    path: Option<&str>,
    run_failed: bool,
) -> Result<(), CliError> {
    let (Some(reg), Some(path)) = (registry, path) else {
        return Ok(());
    };
    match write_metrics_file(path, &reg.snapshot()) {
        Ok(()) => Ok(()),
        Err(e) if run_failed => {
            eprintln!("flsa: warning: metrics export failed: {e}");
            Ok(())
        }
        Err(e) => Err(CliError::runtime(e)),
    }
}

/// How an `align` or `resume` run is instrumented and printed, read from
/// its options before the run starts.
struct Run {
    /// `--trace FILE`, its format, and the recorder that fills it.
    trace: Option<(String, String, Arc<Recorder>)>,
    /// `--metrics FILE`.
    metrics_path: Option<String>,
    progress: bool,
    /// The registry `--metrics` or `--progress` asked for; `None` keeps
    /// the metrics-off path allocation-free.
    registry: Option<Arc<Registry>>,
    metrics: Metrics,
    json: bool,
    stats: bool,
    quiet: bool,
}

impl Run {
    /// Reads the trace, metrics and output options. A `resumed` run
    /// first folds in whatever export the killed run left at `--metrics`
    /// (counters add, gauges carry over), so its final export covers the
    /// whole logical alignment, not just the resumed half.
    fn from_args(a: &Args, resumed: bool) -> Result<Run, CliError> {
        let trace = match a.text("trace") {
            Some(path) => {
                let format = a.str_or("trace-format", "chrome");
                if !matches!(format, "chrome" | "jsonl") {
                    return Err(CliError::usage(format!(
                        "unknown trace format {format:?} (expected chrome or jsonl)"
                    )));
                }
                let recorder = Arc::new(Recorder::new());
                Some((path.to_string(), format.to_string(), recorder))
            }
            None => None,
        };
        let metrics_path = a.text("metrics").map(str::to_string);
        let progress = a.flag("progress");
        let registry = (metrics_path.is_some() || progress).then(|| Arc::new(Registry::new()));
        if let (true, Some(reg), Some(mpath)) = (resumed, &registry, &metrics_path) {
            if let Ok(text) = std::fs::read_to_string(mpath) {
                match MetricsSnapshot::parse(&text) {
                    Ok(prev) => reg.seed(&prev),
                    Err(e) => {
                        eprintln!("flsa: warning: ignoring unparsable metrics file {mpath}: {e}")
                    }
                }
            }
        }
        let mut metrics = match &trace {
            Some((.., r)) => Metrics::with_recorder(Arc::clone(r)),
            None => Metrics::new(),
        };
        if let Some(reg) = &registry {
            metrics = metrics.with_registry(reg);
        }
        Ok(Run {
            trace,
            metrics_path,
            progress,
            registry,
            metrics,
            json: a.flag("json"),
            stats: a.flag("stats"),
            quiet: a.flag("quiet"),
        })
    }

    /// Times `job` under the live observer, then writes the final
    /// metrics export. The export is also refreshed mid-run when the run
    /// is `resumable`: a checkpoint makes the partial totals worth
    /// keeping; otherwise it is written once on exit.
    fn time<T>(
        &self,
        resumable: bool,
        job: impl FnOnce() -> Result<T, CliError>,
    ) -> Result<(T, Duration), CliError> {
        let live = self.registry.as_ref().and_then(|reg| {
            let refresh = self.metrics_path.clone().filter(|_| resumable);
            LiveObserver::spawn(reg, self.progress, refresh)
        });
        let start = Instant::now();
        let outcome = job();
        let elapsed = start.elapsed();
        if let Some(live) = live {
            live.finish();
        }
        let failed = outcome.is_err();
        export_metrics(self.registry.as_ref(), self.metrics_path.as_deref(), failed)?;
        Ok((outcome?, elapsed))
    }

    /// Prints a finished run in whichever form the switches ask for.
    /// Shared by `align` and `resume` so a resumed run's output is
    /// byte-identical to the uninterrupted run's.
    #[allow(clippy::too_many_arguments)]
    fn report(
        &self,
        algo: &str,
        score: i64,
        path: Option<&flsa_dp::Path>,
        sa: &Sequence,
        sb: &Sequence,
        scheme: &ScoringScheme,
        elapsed: Duration,
        threads: usize,
    ) -> Result<(), CliError> {
        let trace_line = match &self.trace {
            Some((out, format, r)) => {
                r.set_label(format!("{algo} {}x{}", sa.len(), sb.len()));
                r.set_threads(threads as u32);
                let events = write_trace(out, format, r).map_err(CliError::runtime)?;
                Some(format!(
                    "trace           {events} events -> {out} ({format})"
                ))
            }
            None => None,
        };

        if self.json {
            let s = self.metrics.snapshot();
            return outln!(
                "{{\"algo\":\"{algo}\",\"score\":{score},\"len_a\":{},\"len_b\":{},\
                 \"threads\":{threads},\"time_ns\":{},\"cells_computed\":{},\
                 \"cells_base_case\":{},\"traceback_steps\":{},\"kernel_calls\":{},\
                 \"peak_bytes\":{},\"cell_factor\":{:.6}}}",
                sa.len(),
                sb.len(),
                elapsed.as_nanos(),
                s.cells_computed,
                s.cells_base_case,
                s.traceback_steps,
                s.kernel_calls,
                s.peak_bytes,
                s.cell_factor(sa.len(), sb.len())
            );
        }

        outln!(
            "score {score}   ({} x {} residues, {algo})",
            sa.len(),
            sb.len()
        )?;
        if let Some(path) = path.filter(|_| !self.quiet) {
            let al = Alignment::from_path(sa, sb, path, scheme);
            outln!("identity {:.1}%", al.identity() * 100.0)?;
            out!("{al}")?;
        }
        if self.stats {
            let s = self.metrics.snapshot();
            outln!("time            {:?}", elapsed)?;
            outln!("cells computed  {}", s.cells_computed)?;
            outln!("cell factor     {:.3}", s.cell_factor(sa.len(), sb.len()))?;
            outln!("traceback steps {}", s.traceback_steps)?;
            outln!("peak aux memory {} bytes", s.peak_bytes)?;
        }
        match trace_line {
            Some(line) => outln!("{line}"),
            None => Ok(()),
        }
    }
}

/// An `align` algorithm with its options read and its inputs bound:
/// returns the score and, for the global algorithms, the path.
type Job<'a> = Box<dyn FnOnce() -> Result<(i64, Option<flsa_dp::Path>), CliError> + 'a>;

fn global(r: AlignResult) -> Result<(i64, Option<flsa_dp::Path>), CliError> {
    Ok((r.score, Some(r.path)))
}

fn cmd_align(a: &Args) -> Result<(), CliError> {
    let algo = a.str_or("algo", "fastlsa");
    let affine = matches!(algo, "gotoh" | "mm-affine" | "fastlsa-affine");
    let (scheme, matrix) = scheme_from(a, affine)?;
    let run = &Run::from_args(a, false)?;
    let (sa, sb) = &load_pair(&a.positional, scheme.alphabet())?;
    // Every algorithm runs i32 DP: refuse a span the scheme cannot hold
    // before dispatching.
    let (span, max_span) = (sa.len().saturating_add(sb.len()), scheme.max_safe_span());
    if span > max_span {
        return Err(AlignError::from(ConfigError::ScoreOverflow { span, max_span }).into());
    }
    let (scheme, metrics) = (&scheme, &run.metrics);
    let mut threads = 1;
    let mut checkpointing = false;
    let job: Job = match algo {
        // One solver for both gap models; the scheme carries the model.
        "fastlsa" | "fastlsa-affine" => match a.value_or("shards", 0)? {
            0 => {
                threads = a.value_or("threads", 1)?;
                let mut budget_bytes = None;
                // A budget sizes k and the base case itself, and is also
                // enforced at run time by the degradation ladder.
                let mut cfg = match a.value("memory")? {
                    Some(bytes) => {
                        budget_bytes = Some(bytes);
                        FastLsaConfig::for_memory(bytes, sa.len(), sb.len())
                    }
                    None => fastlsa_config(a)?,
                };
                if threads > 1 {
                    cfg = match a.value_or("tiles", 0)? {
                        0 => cfg.with_threads(threads),
                        tiles => cfg.with_parallel(ParallelConfig {
                            threads,
                            tiles_per_block: tiles,
                        }),
                    };
                }
                let deadline_ms: Option<u64> = a.value("deadline-ms")?;
                let kernel = parse_kernel(a)?;
                let ckpt_path = a.text("checkpoint");
                let checkpoint = match ckpt_path {
                    Some(path) => {
                        let Some(name) = &matrix else {
                            return Err(CliError::usage(
                                "--checkpoint needs a named --matrix (snapshots record the scheme \
                                 by name so `flsa resume` can rebuild it)",
                            ));
                        };
                        let every: u64 = a.value_or("checkpoint-every-blocks", 64)?;
                        if every == 0 {
                            return Err(CliError::usage(
                                "--checkpoint-every-blocks must be at least 1",
                            ));
                        }
                        let meta = SnapshotMeta::for_run(name, scheme, sa, sb, every);
                        let mut sink = FileCheckpointSink::new(path, meta);
                        if let Some(reg) = &run.registry {
                            sink = sink.with_metrics(CheckpointMetrics::new(reg));
                        }
                        Some(CheckpointPolicy::new(every, Arc::new(sink)))
                    }
                    None => None,
                };
                checkpointing = checkpoint.is_some();
                Box::new(move || {
                    let opts = AlignOptions {
                        budget_bytes,
                        cancel: deadline_ms
                            .map(|ms| CancelToken::with_deadline(Duration::from_millis(ms))),
                        checkpoint,
                        kernel,
                        registry: run.registry.clone(),
                        ..AlignOptions::default()
                    };
                    let r = fastlsa_core::align_opts(sa, sb, scheme, cfg, &opts, metrics)?;
                    // The job finished: the snapshot has served its purpose.
                    if let Some(path) = ckpt_path {
                        cleanup_checkpoint(path);
                    }
                    global(r)
                })
            }
            // A coordinator in this process farms grid-block tasks out to
            // `flsa shard-worker` processes; the result is byte-identical
            // to the sequential engine's, so it flows into the same report.
            _ if affine => {
                return Err(CliError::usage(
                    "--shards runs linear gaps only (shard tasks carry one gap penalty)",
                ))
            }
            shards => {
                let Some(name) = matrix else {
                    return Err(CliError::usage(
                        "--shards needs a named --matrix (workers rebuild the scheme by name)",
                    ));
                };
                let cfg = fastlsa_config(a)?;
                let mut opts = flsa_shard::ShardOptions::new(shards, shard_worker_cmd()?);
                if let Some(spec) = a.text("shard-fault") {
                    opts.worker_faults = spec.split(';').map(str::to_string).collect();
                }
                opts.registry = run.registry.clone();
                let gap = scheme.gap().linear_penalty();
                Box::new(move || {
                    global(flsa_shard::align_sharded(
                        sa, sb, &name, gap, cfg, &opts, metrics,
                    )?)
                })
            }
        },
        "nw" => {
            // The reference FM algorithm defaults to the scalar kernel;
            // an explicit --kernel switches the fill backend.
            let kernel = parse_kernel(a)?;
            Box::new(move || {
                global(match kernel {
                    Some(b) => {
                        let kernel = Kernel::try_new(b).expect("pre-validated backend");
                        flsa_fullmatrix::needleman_wunsch_kernel(sa, sb, scheme, &kernel, metrics)
                    }
                    None => flsa_fullmatrix::needleman_wunsch(sa, sb, scheme, metrics),
                })
            })
        }
        "nw-packed" => Box::new(|| {
            global(flsa_fullmatrix::needleman_wunsch_packed(
                sa, sb, scheme, metrics,
            ))
        }),
        "hirschberg" => {
            let kernel = match parse_kernel(a)? {
                Some(b) => Kernel::try_new(b).expect("pre-validated backend"),
                None => Kernel::auto(),
            };
            Box::new(move || {
                global(flsa_hirschberg::hirschberg_kernel(
                    sa,
                    sb,
                    scheme,
                    flsa_hirschberg::HirschbergConfig::default(),
                    &kernel,
                    metrics,
                ))
            })
        }
        "banded" => {
            let w: usize = a.value_or("band", 32)?;
            Box::new(move || {
                global(flsa_fullmatrix::banded_needleman_wunsch(
                    sa, sb, scheme, w, metrics,
                ))
            })
        }
        "gotoh" => Box::new(|| global(flsa_fullmatrix::gotoh(sa, sb, scheme, metrics))),
        "mm-affine" => Box::new(|| {
            global(flsa_hirschberg::myers_miller_affine(
                sa, sb, scheme, metrics,
            ))
        }),
        "fit" | "overlap" => {
            let ends = if algo == "fit" {
                flsa_fullmatrix::EndsFree::FIT_A_IN_B
            } else {
                flsa_fullmatrix::EndsFree::OVERLAP_A_THEN_B
            };
            Box::new(move || global(flsa_fullmatrix::semiglobal(sa, sb, scheme, ends, metrics)))
        }
        "sw" => Box::new(|| {
            let r = flsa_fullmatrix::smith_waterman(sa, sb, scheme, metrics);
            outln!(
                "local score {} over {}[{:?}] x {}[{:?}]",
                r.score,
                sa.id(),
                r.a_range(),
                sb.id(),
                r.b_range()
            )?;
            Ok((r.score, None))
        }),
        other => return Err(CliError::usage(format!("unknown algorithm {other:?}"))),
    };
    a.reject_unread()?;
    let ((score, path), elapsed) = run.time(checkpointing, job)?;
    run.report(algo, score, path.as_ref(), sa, sb, scheme, elapsed, threads)
}

/// `flsa shard-worker`: the worker-process end of `--shards`, spoken to
/// over stdin/stdout with the `FLSASHD2` protocol. Never invoked by
/// hand; the coordinator spawns it and owns both pipes (stdout carries
/// protocol frames, so nothing may print there).
fn cmd_shard_worker(a: &Args) -> Result<(), CliError> {
    let opts = flsa_shard::WorkerOptions::parse_args(&a.positional).map_err(CliError::usage)?;
    // The worker's exit code is the protocol's, not the CLI taxonomy's:
    // exit straight from the loop so a Shutdown frame maps to 0.
    std::process::exit(flsa_shard::worker::run(&opts))
}

/// Removes a completed run's snapshot and any leftover temp buffers.
fn cleanup_checkpoint(path: &str) {
    let p = std::path::Path::new(path);
    std::fs::remove_file(p).ok();
    std::fs::remove_file(p.with_extension("tmp0")).ok();
    std::fs::remove_file(p.with_extension("tmp1")).ok();
}

/// `flsa resume CKPT`: validate a snapshot written by
/// `flsa align --checkpoint` and run the alignment to completion.
fn cmd_resume(a: &Args) -> Result<(), CliError> {
    let run = Run::from_args(a, true)?;
    a.reject_unread()?;
    let ckpt_path = &a.positional[0];
    let snap = read_snapshot(std::path::Path::new(ckpt_path))
        .map_err(|e| CliError::input(e.to_string()))?;
    // The same scheme `align` built: the named matrix with the recorded
    // gap model, linear or affine.
    let (gap, algo) = match snap.meta.gap {
        GapModel::Linear { penalty } => (penalty, "fastlsa"),
        GapModel::Affine { .. } => (0, "fastlsa-affine"),
    };
    let scheme = tables::scheme_for(&snap.meta.scheme_name, gap)
        .map(|s| ScoringScheme::new(s.matrix().clone(), snap.meta.gap))
        .map_err(|msg| {
            CliError::input(format!(
                "cannot rebuild the snapshot's scoring scheme: {msg}"
            ))
        })?;
    // `sequences` re-verifies the scheme digest and every residue code.
    let (sa, sb) = snap
        .sequences(&scheme)
        .map_err(|e| CliError::input(e.to_string()))?;

    // Keep checkpointing to the same file at the recorded cadence, with
    // the degrade history carried over, so a resumed run is just as
    // killable as the original.
    let mut sink = FileCheckpointSink::new(ckpt_path.as_str(), snap.meta.clone());
    if let Some(reg) = &run.registry {
        sink = sink.with_metrics(CheckpointMetrics::new(reg));
    }
    let opts = AlignOptions {
        checkpoint: Some(CheckpointPolicy::new(
            snap.meta.every_blocks,
            Arc::new(sink),
        )),
        registry: run.registry.clone(),
        ..AlignOptions::default()
    };
    let (r, elapsed) = run.time(true, || {
        Ok(resume_from_snapshot(&snap, &scheme, &opts, &run.metrics)?)
    })?;
    cleanup_checkpoint(ckpt_path);
    run.report(
        algo,
        r.score,
        Some(&r.path),
        &sa,
        &sb,
        &scheme,
        elapsed,
        snap.state.config.threads(),
    )
}

/// Snapshots `recorder` and writes it to `path` in `format`, returning the
/// event count.
fn write_trace(path: &str, format: &str, recorder: &Recorder) -> Result<usize, String> {
    use std::io::Write as _;
    let trace = recorder.snapshot();
    let events = trace.events.len();
    let file = std::fs::File::create(path).map_err(|e| format!("{path}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    match format {
        "jsonl" => flsa_trace::write_jsonl(&trace, &mut w),
        _ => flsa_trace::write_chrome(&trace, &mut w),
    }
    .and_then(|()| w.flush())
    .map_err(|e| format!("{path}: {e}"))?;
    Ok(events)
}

/// `flsa report [TRACE] [--metrics FILE]`: reads a trace (either export
/// format) and prints the utilization / pipeline-phase / recursion
/// analysis; a metrics export adds what only the registry has, or is
/// summarized on its own when no trace is given (the `flsa serve
/// --metrics` workflow has no trace to pair with).
fn cmd_report(a: &Args) -> Result<(), CliError> {
    let mpath = a.text("metrics");
    a.reject_unread()?;
    let metrics = match mpath {
        Some(mpath) => {
            let mtext = std::fs::read_to_string(mpath)
                .map_err(|e| CliError::input(format!("{mpath}: {e}")))?;
            let snap = MetricsSnapshot::parse(&mtext)
                .map_err(|e| CliError::input(format!("{mpath}: {e}")))?;
            Some((mpath, snap))
        }
        None => None,
    };
    match (&a.positional[..], &metrics) {
        ([path], _) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::input(format!("{path}: {e}")))?;
            let trace = flsa_trace::read_trace(&text)
                .map_err(|e| CliError::input(format!("{path}: {e}")))?;
            let analysis = flsa_trace::analyze(&trace);
            out!("{}", flsa_trace::render_report(&analysis))?;
            if let Some((mpath, snap)) = &metrics {
                out!("{}", render_metrics_extras(mpath, snap))?;
                out!("{}", render_serve_metrics(snap))?;
            }
            Ok(())
        }
        ([], Some((mpath, snap))) => {
            outln!("metrics report ({mpath}):")?;
            let serve = render_serve_metrics(snap);
            if !serve.is_empty() {
                return out!("{serve}");
            }
            // Not a serve export: show the engine-side totals.
            use flsa_metrics::names;
            outln!(
                "  kernel cells    {}",
                snap.counter(names::CELLS_TOTAL).unwrap_or(0)
            )?;
            outln!(
                "  kernel calls    {}",
                snap.counter(names::KERNEL_CALLS_TOTAL).unwrap_or(0)
            )
        }
        _ => Err(CliError::usage(
            "report needs a trace file (from `flsa align --trace`), \
             a --metrics export, or both",
        )),
    }
}

/// The service section of `flsa report --metrics`: rendered only when
/// the export came from a daemon (any `flsa_serve_*` series present).
fn render_serve_metrics(snap: &MetricsSnapshot) -> String {
    use flsa_metrics::names;
    use std::fmt::Write as _;
    let c = |name| snap.counter(name).unwrap_or(0);
    if c(names::SERVE_REQUESTS_TOTAL) == 0 && c(names::SERVE_CONNECTIONS_TOTAL) == 0 {
        return String::new();
    }
    let mut out = String::new();
    let _ = writeln!(out, "\nserve:");
    let _ = writeln!(
        out,
        "  requests        {} over {} connections",
        c(names::SERVE_REQUESTS_TOTAL),
        c(names::SERVE_CONNECTIONS_TOTAL)
    );
    let _ = writeln!(
        out,
        "  outcomes        {} ok, {} failed, {} overloaded ({} deadline-expired)",
        c(names::SERVE_COMPLETED_TOTAL),
        c(names::SERVE_FAILED_TOTAL),
        c(names::SERVE_REJECTED_TOTAL),
        c(names::SERVE_DEADLINE_EXPIRED_TOTAL)
    );
    let _ = writeln!(
        out,
        "  faults          {} contained panics, {} retries, {} protocol errors",
        c(names::SERVE_PANICS_TOTAL),
        c(names::SERVE_RETRIES_TOTAL),
        c(names::SERVE_PROTOCOL_ERRORS_TOTAL)
    );
    let _ = writeln!(
        out,
        "  crash safety    {} spooled, {} recovered after restart",
        c(names::SERVE_SPOOLED_TOTAL),
        c(names::SERVE_RECOVERED_TOTAL)
    );
    let _ = writeln!(
        out,
        "  queue           depth peak {}, inflight now {}",
        snap.gauge(names::SERVE_QUEUE_DEPTH_PEAK).unwrap_or(0),
        snap.gauge(names::SERVE_INFLIGHT).unwrap_or(0)
    );
    for (label, name) in [
        ("request latency", names::SERVE_REQUEST_NS),
        ("admission wait", names::SERVE_ADMIT_WAIT_NS),
    ] {
        if let Some(h) = snap.histogram(name).filter(|h| h.count > 0) {
            let _ = writeln!(
                out,
                "  {label:<15} p50 {} p99 {} over {} samples",
                fmt_dur_ns(h.quantile(0.5)),
                fmt_dur_ns(h.quantile(0.99)),
                h.count
            );
        }
    }
    out
}

fn fmt_dur_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// The `flsa report TRACE --metrics FILE` section: what only the
/// registry has. Kernel cells and calls are not repeated here, since the
/// trace report above prints them per backend from the same record. The
/// wavefront busy/idle totals are folded into an occupancy figure, and
/// checkpoint saves are summarized.
fn render_metrics_extras(mpath: &str, snap: &MetricsSnapshot) -> String {
    use flsa_metrics::names;
    use std::fmt::Write as _;
    let mut out = format!("\nmetrics ({mpath}):\n");
    let header = out.len();
    let busy = snap.counter(names::WORKER_BUSY_NS_TOTAL).unwrap_or(0);
    let idle = snap.counter(names::WORKER_IDLE_NS_TOTAL).unwrap_or(0);
    if busy + idle > 0 {
        let occupancy = busy as f64 / (busy + idle) as f64 * 100.0;
        let _ = writeln!(
            out,
            "  worker occupancy {occupancy:.1}%  (busy {} / idle {}; {} parks, {} tiles, inflight peak {})",
            fmt_dur_ns(busy),
            fmt_dur_ns(idle),
            snap.counter(names::WORKER_PARKS_TOTAL).unwrap_or(0),
            snap.counter(names::TILES_TOTAL).unwrap_or(0),
            snap.gauge(names::TILES_INFLIGHT_PEAK).unwrap_or(0)
        );
    }
    if let Some(saves) = snap
        .counter(names::CHECKPOINT_SAVES_TOTAL)
        .filter(|&s| s > 0)
    {
        let fsync = snap.histogram(names::CHECKPOINT_FSYNC_NS);
        let _ = writeln!(
            out,
            "  checkpoints     {} saves, {} bytes, fsync p50 {} p99 {}",
            saves,
            snap.counter(names::CHECKPOINT_BYTES_TOTAL).unwrap_or(0),
            fsync.map_or("-".to_string(), |h| fmt_dur_ns(h.quantile(0.5))),
            fsync.map_or("-".to_string(), |h| fmt_dur_ns(h.quantile(0.99)))
        );
    }
    if out.len() == header {
        out.push_str("  no wavefront pool or checkpoint activity recorded\n");
    }
    out
}

/// `flsa batch`: aligns many pairs in one call, each with default-config
/// FastLSA ([`fastlsa_core::align_opts`]), so each answer is the one
/// `flsa align` gives the pair. Every pair is aligned before anything is
/// printed: an error on any pair prints no results. One FASTA pairs
/// consecutive records (1&2, 3&4, ...); two FASTA files pair record `i`
/// of the first with record `i` of the second.
fn cmd_batch(a: &Args) -> Result<(), CliError> {
    let (scheme, _) = scheme_from(a, false)?;
    let kernel = parse_kernel(a)?;
    let (json, stats) = (a.flag("json"), a.flag("stats"));
    a.reject_unread()?;

    let seqs: Vec<Sequence> = match &a.positional[..] {
        [one] => {
            let recs = read_fasta(one, scheme.alphabet())?;
            if recs.len() < 2 || recs.len() % 2 != 0 {
                return Err(CliError::input(format!(
                    "{one} holds {} record(s); batch needs an even number (consecutive \
                     records are paired)",
                    recs.len()
                )));
            }
            recs
        }
        [qa, qb] => {
            let ra = read_fasta(qa, scheme.alphabet())?;
            let rb = read_fasta(qb, scheme.alphabet())?;
            if ra.len() != rb.len() || ra.is_empty() {
                return Err(CliError::input(format!(
                    "{qa} holds {} record(s) but {qb} holds {}; batch pairs them one-to-one",
                    ra.len(),
                    rb.len()
                )));
            }
            // Interleave so the "consecutive records" pairing below
            // covers both input shapes with one code path.
            ra.into_iter().zip(rb).flat_map(|(x, y)| [x, y]).collect()
        }
        _ => unreachable!("the command table gives batch an arity of 1..=2"),
    };
    let pairs: Vec<(&Sequence, &Sequence)> = seqs.chunks_exact(2).map(|c| (&c[0], &c[1])).collect();

    let opts = AlignOptions {
        kernel,
        ..AlignOptions::default()
    };
    let metrics = Metrics::new();
    let start = Instant::now();
    let results = pairs
        .iter()
        .map(|(x, y)| {
            fastlsa_core::align_opts(x, y, &scheme, FastLsaConfig::default(), &opts, &metrics)
        })
        .collect::<Result<Vec<_>, _>>()?;
    let elapsed = start.elapsed();

    if json {
        let mut out = String::from("[");
        for (i, ((sa, sb), r)) in pairs.iter().zip(&results).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"a\":\"{}\",\"b\":\"{}\",\"score\":{},\"cigar\":\"{}\"}}",
                sa.id(),
                sb.id(),
                r.score,
                flsa_serve::job::cigar(&r.path)
            ));
        }
        out.push(']');
        outln!("{out}")?;
    } else {
        for ((sa, sb), r) in pairs.iter().zip(&results) {
            outln!(
                "{}\t{}\t{}\t{}",
                sa.id(),
                sb.id(),
                r.score,
                flsa_serve::job::cigar(&r.path)
            )?;
        }
    }
    if stats {
        let s = metrics.snapshot();
        let backend = kernel.unwrap_or_else(KernelBackend::detect_best);
        outln!("pairs           {}", pairs.len())?;
        outln!("kernel backend  {}", backend.name())?;
        outln!("time            {elapsed:?}")?;
        outln!("cells computed  {}", s.cells_computed)?;
        outln!("peak aux memory {} bytes", s.peak_bytes)?;
    }
    Ok(())
}

fn cmd_msa(a: &Args) -> Result<(), CliError> {
    let (scheme, _) = scheme_from(a, false)?;
    let cfg = fastlsa_config(a)?;
    let (quiet, stats) = (a.flag("quiet"), a.flag("stats"));
    a.reject_unread()?;
    let seqs = read_fasta(&a.positional[0], scheme.alphabet())?;
    let metrics = Metrics::new();
    let start = Instant::now();
    let result = flsa_msa::center_star(&seqs, &scheme, cfg, &metrics).map_err(|e| match e {
        flsa_msa::MsaError::Align(inner) => CliError::from(inner),
        other => CliError::input(other.to_string()),
    })?;
    let elapsed = start.elapsed();
    outln!(
        "{} sequences, {} columns, center {}, conservation {:.1}%, sum-of-pairs {}",
        result.msa.num_rows(),
        result.msa.num_cols(),
        seqs[result.center].id(),
        result.msa.conservation() * 100.0,
        result.msa.sum_of_pairs(&scheme)
    )?;
    if !quiet {
        out!("{}", result.msa)?;
    }
    if stats {
        let s = metrics.snapshot();
        outln!("time            {elapsed:?}")?;
        outln!("cells computed  {}", s.cells_computed)?;
        outln!("peak aux memory {} bytes", s.peak_bytes)?;
    }
    Ok(())
}

/// Adapts a seeded [`flsa_fault::serve::ServeFaultPlan`] to the daemon's
/// [`flsa_serve::JobHooks`], so CI's chaos job can fault-inject a *real*
/// daemon process the same way the in-process chaos harness does. The
/// target job is addressed by server sequence number: a fresh daemon
/// numbers jobs from 1 in submission order, so submitted job `i` is
/// seq `i + 1`.
struct FaultSeedHooks {
    plan: flsa_fault::serve::ServeFaultPlan,
    target_seq: u64,
}

impl flsa_serve::JobHooks for FaultSeedHooks {
    fn on_attempt(&self, seq: u64, attempt: u32) {
        use flsa_fault::serve::ServeFaultKind;
        match self.plan.kind {
            ServeFaultKind::WorkerPanic => {
                if seq == self.target_seq && attempt <= self.plan.panic_attempts {
                    panic!(
                        "fault-seed {}: injected worker panic (attempt {attempt})",
                        self.plan.seed
                    );
                }
            }
            ServeFaultKind::SlowJob => {
                if seq == self.target_seq {
                    std::thread::sleep(Duration::from_millis(self.plan.slow_ms));
                }
            }
            ServeFaultKind::DeadlineExpiry => {
                std::thread::sleep(Duration::from_millis(self.plan.slow_ms));
            }
            ServeFaultKind::BudgetSqueeze => {}
        }
    }
}

/// `flsa serve`: run the alignment daemon until SIGTERM/SIGINT or a
/// client `Shutdown` frame, then drain gracefully and exit 0.
fn cmd_serve(a: &Args) -> Result<(), CliError> {
    let mut cfg = flsa_serve::ServeConfig::new(a.str_or("addr", "127.0.0.1:7878"));
    cfg.workers = a.value_or("workers", cfg.workers)?;
    cfg.queue_cap = a.value_or("queue-cap", cfg.queue_cap)?;
    cfg.max_retries = a.value_or("retries", cfg.max_retries)?;
    cfg.default_deadline_ms = a.value_or("deadline-ms", cfg.default_deadline_ms)?;
    cfg.spool_min_cells = a.value_or("spool-min-cells", cfg.spool_min_cells)?;
    cfg.spool_retain_done = a.value_or("spool-retain", cfg.spool_retain_done)?;
    cfg.checkpoint_every_blocks =
        a.value_or("checkpoint-every-blocks", cfg.checkpoint_every_blocks)?;
    cfg.budget_bytes = a.value("memory")?;
    cfg.spool_dir = a.text("spool").map(std::path::PathBuf::from);
    let metrics_path = a.text("metrics");
    let fault_seed: Option<u64> = a.value("fault-seed")?;
    a.reject_unread()?;
    let registry = metrics_path.map(|_| Arc::new(Registry::new()));
    cfg.registry = registry.clone();
    if let Some(seed) = fault_seed {
        let plan = flsa_fault::serve::ServeFaultPlan::from_seed(seed);
        // BudgetSqueeze plans carry the squeeze; an explicit --memory
        // still wins so operators can reproduce with their own budget.
        if cfg.budget_bytes.is_none() {
            cfg.budget_bytes = plan.budget_bytes;
        }
        eprintln!(
            "flsa: fault injection active: seed {seed}, class {}, target job {}",
            plan.kind.name(),
            plan.target_job
        );
        cfg.hooks = Some(Arc::new(FaultSeedHooks {
            target_seq: plan.target_job + 1,
            plan,
        }));
    }

    flsa_serve::signal::install();
    let server = flsa_serve::Server::start(cfg).map_err(|e| match &e {
        flsa_serve::ServeError::Bind { .. } | flsa_serve::ServeError::Config { .. } => {
            CliError::usage(e.to_string())
        }
        flsa_serve::ServeError::SpoolCorrupt { .. } => CliError::input(e.to_string()),
        flsa_serve::ServeError::SpoolIo { .. } => CliError::runtime(e.to_string()),
    })?;
    // Scripts (and the integration tests) read this line to learn the
    // bound port; every stdout write is flushed, so it is visible now.
    outln!("listening on {}", server.local_addr())?;

    while !(flsa_serve::signal::drain_requested() || server.drain_requested()) {
        std::thread::sleep(Duration::from_millis(25));
    }
    server.drain();
    let summary = server.join();
    outln!(
        "drained: {} completed, {} failed, {} overloaded, {} drained, {} spooled pending",
        summary.completed,
        summary.failed,
        summary.rejected,
        summary.drained,
        summary.spooled_pending
    )?;
    export_metrics(registry.as_ref(), metrics_path, false)
}

/// The end of every `flsa bench` suite: the JSON report goes to `out`,
/// then `check` applies the suite's `--gate`, if one was given.
fn finish_bench(
    out: &str,
    json: String,
    gate: Option<f64>,
    check: impl FnOnce(f64) -> Result<(), CliError>,
) -> Result<(), CliError> {
    std::fs::write(out, json).map_err(|e| CliError::runtime(format!("{out}: {e}")))?;
    outln!("report          -> {out}")?;
    gate.map_or(Ok(()), check)
}

/// The host line of the kernel and metrics benches.
fn print_host(host: &flsa_bench::HostStamp) -> Result<(), CliError> {
    let features = if host.cpu_features.is_empty() {
        "none".to_string()
    } else {
        host.cpu_features.join(", ")
    };
    outln!(
        "cpu features: {features}   best backend: {}",
        host.best_backend
    )
}

/// `flsa bench serve`: the seeded load harness — an in-process daemon
/// driven by multi-threaded clients over both workload mixes and both
/// pacing disciplines, with latency percentiles and a throughput gate.
fn cmd_bench_serve(a: &Args) -> Result<(), CliError> {
    use flsa_bench::serve::{LoadConfig, Mix, Mode};
    let mut cfg = LoadConfig::default();
    if let Some(m) = a.text("mix") {
        cfg.mixes = vec![Mix::parse(m).ok_or_else(|| {
            CliError::usage(format!(
                "unknown mix {m:?} (expected read-heavy or rapid-grow)"
            ))
        })?];
    }
    if let Some(m) = a.text("mode") {
        cfg.modes = vec![Mode::parse(m).ok_or_else(|| {
            CliError::usage(format!("unknown mode {m:?} (expected closed or open)"))
        })?];
    }
    cfg.clients = a.value_or("clients", cfg.clients)?;
    cfg.ops = a.value_or("ops", cfg.ops)?;
    cfg.rate = a.value_or("rate", cfg.rate)?;
    cfg.seed = a.value_or("seed", cfg.seed)?;
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    cfg.workers = a.value_or("threads", cfg.workers.min(host))?;
    cfg.budget_bytes = a.value("memory")?;
    let gate: Option<f64> = a.value("gate")?;
    let out = a.str_or("out", "BENCH_serve.json");
    a.reject_unread()?;
    if cfg.clients == 0 || cfg.ops == 0 || cfg.workers == 0 {
        return Err(CliError::usage(
            "--clients, --ops, and --threads must be at least 1",
        ));
    }
    if !cfg.rate.is_finite() || cfg.rate <= 0.0 {
        return Err(CliError::usage("--rate must be positive"));
    }

    let report = flsa_bench::serve::run(&cfg);
    out!("{}", report.render())?;
    finish_bench(out, report.to_json(), gate, |gate| {
        if !report.all_answered() {
            return Err(CliError::runtime(
                "load harness lost responses: submitted != completed + failed + rejected",
            ));
        }
        let throughput = report.gate_throughput();
        if throughput.is_infinite() {
            return Err(CliError::usage(
                "--gate needs at least one closed-loop cell (open-loop throughput \
                 is capped by the submission schedule, not the server)",
            ));
        }
        outln!("throughput gate {throughput:.1} req/s measured, {gate:.1} required")?;
        if throughput < gate {
            return Err(CliError::runtime(format!(
                "serve throughput regression: slowest closed-loop cell sustained \
                 only {throughput:.1} req/s (gate {gate:.1})"
            )));
        }
        Ok(())
    })
}

/// `flsa bench shard`: times the multi-process coordinator against the
/// sequential engine — a clean sharded run plus a slice of the seeded
/// chaos matrix — verifying byte-identity throughout, and optionally
/// gates on the worst-case chaos recovery overhead.
fn cmd_bench_shard(a: &Args) -> Result<(), CliError> {
    let mut cfg = flsa_bench::shard::ShardBenchConfig::default();
    cfg.len = a.value_or("len", cfg.len)?;
    cfg.reps = a.value_or("reps", cfg.reps)?;
    cfg.shards = a.value_or("shards", cfg.shards)?;
    cfg.chaos_plans = a.value_or("ops", cfg.chaos_plans)?;
    cfg.seed = a.value_or("seed", cfg.seed)?;
    let gate: Option<f64> = a.value("gate")?;
    let out = a.str_or("out", "BENCH_shard.json");
    a.reject_unread()?;
    if cfg.len == 0 || cfg.reps == 0 || cfg.shards == 0 {
        return Err(CliError::usage(
            "--len, --reps, and --shards must be at least 1",
        ));
    }
    cfg.worker_cmd = shard_worker_cmd()?;
    let report = flsa_bench::shard::run(&cfg).map_err(CliError::runtime)?;
    out!("{}", report.render())?;
    finish_bench(out, report.to_json(), gate, |gate| {
        if !report.all_identical() {
            return Err(CliError::runtime(
                "shard bench correctness failure: a run diverged from the sequential engine",
            ));
        }
        let worst = report.worst_chaos_ms();
        outln!("chaos gate      {worst:.0} ms worst recovery, {gate:.0} ms allowed")?;
        if worst > gate {
            return Err(CliError::runtime(format!(
                "shard recovery regression: slowest chaos run took {worst:.0} ms \
                 end to end (gate {gate:.0} ms)"
            )));
        }
        Ok(())
    })
}

/// `flsa bench kernels`: sweeps every available DP kernel backend over a
/// set of square problem sizes, linear and affine, prints throughput
/// tables, writes the JSON report, and optionally gates on the
/// SIMD-vs-scalar speedups.
fn cmd_bench_kernels(a: &Args) -> Result<(), CliError> {
    let lens = a.list("len")?.unwrap_or_else(|| vec![1024, 4096, 10_000]);
    let reps: usize = a.value_or("reps", 3)?;
    let gate: Option<f64> = a.value("gate")?;
    let out = a.str_or("out", "BENCH_kernels.json");
    a.reject_unread()?;
    if lens.is_empty() || reps == 0 {
        return Err(CliError::usage("--len and --reps must be non-empty"));
    }
    let report = flsa_bench::kernels::run(&lens, reps);
    out!("{}", report.render())?;
    print_host(&report.host)?;
    finish_bench(out, report.to_json(), gate, |gate| {
        let speedup = report.best_speedup().unwrap_or(0.0);
        outln!("speedup gate    {speedup:.2}x measured, {gate:.2}x required")?;
        if speedup < gate {
            return Err(CliError::runtime(format!(
                "kernel speedup regression: best vectorized backend reached only \
                 {speedup:.2}x scalar (gate {gate:.2}x)"
            )));
        }
        // Dispatch-order sanity: detect_best prefers the widest vector
        // backend, so the widest must not be slower than the next-widest.
        if let Some(ratio) = report.widest_vs_next() {
            outln!(
                "dispatch gate   widest vector backend {ratio:.2}x next-widest, 1.00x required"
            )?;
            if ratio < 1.0 {
                return Err(CliError::runtime(format!(
                    "kernel dispatch regression: widest vector backend runs at only \
                     {ratio:.2}x the next-widest, so auto-dispatch picks a slower kernel"
                )));
            }
        }
        // The affine fill answers to the same speedup gate, and its
        // widest row must not lose to the next one down either.
        let affine = report.affine_best_speedup().unwrap_or(0.0);
        outln!("affine gate     {affine:.2}x measured, {gate:.2}x required")?;
        if affine < gate {
            return Err(CliError::runtime(format!(
                "affine kernel regression: best affine backend reached only \
                 {affine:.2}x scalar affine (gate {gate:.2}x)"
            )));
        }
        if let Some(ratio) = report.affine_avx512_vs_avx2() {
            outln!("affine dispatch AVX-512 affine {ratio:.2}x AVX2 affine, 1.00x required")?;
            if ratio < 1.0 {
                return Err(CliError::runtime(format!(
                    "affine dispatch regression: AVX-512 affine runs at only \
                     {ratio:.2}x AVX2 affine, so auto-dispatch picks a slower kernel"
                )));
            }
        }
        Ok(())
    })
}

/// `flsa bench metrics`: measures what the metrics layer costs — the
/// record-path nanobenches plus a metrics-on vs metrics-off end-to-end
/// parallel align — writes the JSON report, and optionally gates on the
/// end-to-end overhead percentage.
fn cmd_bench_metrics(a: &Args) -> Result<(), CliError> {
    let len: usize = a.value_or("len", 10_000)?;
    let reps: usize = a.value_or("reps", 3)?;
    let host = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads: usize = a.value_or("threads", 4.min(host))?;
    let gate: Option<f64> = a.value("gate")?;
    let out = a.str_or("out", "BENCH_metrics.json");
    a.reject_unread()?;
    if len == 0 || reps == 0 || threads == 0 {
        return Err(CliError::usage(
            "--len, --reps, and --threads must be at least 1",
        ));
    }
    let report = flsa_bench::metrics::run(len, reps, threads);
    out!("{}", report.render())?;
    print_host(&report.host)?;
    finish_bench(out, report.to_json(), gate, |gate| {
        let overhead = report.overhead_pct();
        outln!("overhead gate   {overhead:+.2}% measured, {gate:.2}% allowed")?;
        if overhead > gate {
            return Err(CliError::runtime(format!(
                "metrics overhead regression: metrics-on align cost {overhead:.2}% \
                 over metrics-off (gate {gate:.2}%)"
            )));
        }
        Ok(())
    })
}

/// `flsa paper`: regenerates the tables and figures of the paper's
/// evaluation (index in DESIGN.md §4, results in EXPERIMENTS.md).
fn cmd_paper(a: &Args) -> Result<(), CliError> {
    use flsa_bench::experiments::{ExpOptions, EXPERIMENTS};
    let opts = ExpOptions {
        max_len: a.value_or("max-len", ExpOptions::default().max_len)?,
        full: a.flag("full"),
    };
    let out_dir = a.text("out");
    a.reject_unread()?;
    let Some(chosen) = a.positional.first() else {
        for (name, about, _) in EXPERIMENTS {
            outln!("    {name:12} {about}")?;
        }
        return Ok(());
    };
    let all = chosen == "all";
    if !all && !EXPERIMENTS.iter().any(|(name, ..)| name == chosen) {
        return Err(CliError::usage(format!(
            "unknown experiment {chosen:?}; `flsa paper` lists them"
        )));
    }
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir).map_err(|e| CliError::runtime(format!("{dir}: {e}")))?;
    }
    for (name, _, run) in EXPERIMENTS
        .iter()
        .filter(|(name, ..)| all || name == chosen)
    {
        if all {
            outln!("{}", "=".repeat(64))?;
        }
        let report = run(opts);
        if let Some(dir) = out_dir {
            let path = format!("{dir}/{name}.txt");
            std::fs::write(&path, &report)
                .map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
        }
        outln!("{report}")?;
    }
    Ok(())
}

fn cmd_gen(a: &Args) -> Result<(), CliError> {
    let kind = a.str_or("kind", "dna");
    let len: usize = a.value_or("len", 1000)?;
    let identity: f64 = a.value_or("identity", 0.85)?;
    let seed: u64 = a.value_or("seed", 42)?;
    let path = a.text("out");
    a.reject_unread()?;
    let alphabet = match kind {
        "dna" => Alphabet::dna(),
        "protein" => Alphabet::protein(),
        other => return Err(CliError::usage(format!("unknown kind {other:?}"))),
    };
    let (sa, sb) = generate::homologous_pair("pair", &alphabet, len, identity, seed)
        .map_err(|e| CliError::usage(e.to_string()))?;
    let text = fasta::to_string(&[sa, sb]);
    match path {
        Some(path) => {
            std::fs::write(path, text).map_err(|e| CliError::runtime(format!("{path}: {e}")))
        }
        None => out!("{text}"),
    }
}

fn cmd_info(_: &Args) -> Result<(), CliError> {
    outln!("substitution matrices:")?;
    for m in [
        tables::dna_default(),
        tables::blosum62(),
        tables::pam250(),
        tables::mdm_fragment(),
    ] {
        outln!(
            "  {:16} alphabet={} scores {}..{}",
            m.name(),
            m.alphabet().name(),
            m.min_score(),
            m.max_score()
        )?;
    }
    outln!("\nworkload suite (synthetic Table 3 stand-in):")?;
    for w in flsa_seq::workload::SUITE {
        outln!(
            "  {:12} {:?} len={} identity={:.2} seed={}",
            w.name,
            w.kind,
            w.len,
            w.identity,
            w.seed
        )?;
    }
    let features = flsa_dp::detected_cpu_features();
    outln!(
        "\ncpu simd features: {}",
        if features.is_empty() {
            "none detected".to_string()
        } else {
            features.join(", ")
        }
    )?;
    outln!("kernel backends:")?;
    for b in KernelBackend::ALL {
        outln!(
            "  {:8} {}{}",
            b.name(),
            if b.is_available() {
                "available"
            } else {
                "unavailable on this CPU"
            },
            if b == KernelBackend::detect_best() {
                "  (auto pick)"
            } else {
                ""
            },
        )?;
    }
    Ok(())
}
