//! The `flsa` command table and the parser it drives.
//!
//! Each subcommand is declared once, in [`COMMANDS`]: its name, usage
//! line, prose, positional arity, handler, and one [`Opt`] row per
//! option. Parsing, dispatch and `flsa help` all read this table. A
//! handler reads its options through the typed getters on [`Args`]
//! before it starts work, then calls [`Args::reject_unread`], so an
//! option the chosen subcommand, algorithm or mode does not read is a
//! usage error instead of a silent no-op.

use std::cell::Cell;
use std::str::FromStr;

use crate::CliError;

/// One option row: `--long`, an optional one-letter alias, the value
/// placeholder (`None` for a switch) and the help text.
pub struct Opt {
    long: &'static str,
    short: Option<&'static str>,
    value: Option<&'static str>,
    help: &'static str,
}

const fn opt(long: &'static str, value: &'static str, help: &'static str) -> Opt {
    Opt {
        long,
        short: None,
        value: Some(value),
        help,
    }
}

const fn switch(long: &'static str, help: &'static str) -> Opt {
    Opt {
        long,
        short: None,
        value: None,
        help,
    }
}

impl Opt {
    const fn short(self, alias: &'static str) -> Opt {
        Opt {
            short: Some(alias),
            ..self
        }
    }
}

/// One subcommand.
pub struct Command {
    /// One word, or two for a bench suite (`bench kernels`).
    pub name: &'static str,
    /// What follows the name on the usage line.
    usage: &'static str,
    /// What it does, wrapped on output; empty to leave it out of the help.
    prose: &'static str,
    /// Positional arguments accepted: at least `.0`, at most `.1`.
    arity: (usize, usize),
    /// The argv tail goes to the handler unparsed, as `positional`.
    raw: bool,
    opts: &'static [Opt],
    /// The handler.
    pub run: fn(&Args) -> Result<(), CliError>,
}

// Rows shared, word for word, by several subcommands.
#[rustfmt::skip]
mod rows {
    use super::{opt, switch, Opt};

    pub const MATRIX: Opt = opt("matrix", "NAME", "dna (default) | blosum62 | pam250 | identity | paper");
    pub const MATRIX_FILE: Opt = opt("matrix-file", "F", "load an NCBI-format matrix file instead");
    pub const GAP: Opt = opt("gap", "N", "linear gap penalty (default -10)");
    pub const K: Opt = opt("k", "N", "FastLSA grid division factor (default 8)").short("k");
    pub const BASE_CELLS: Opt = opt("base-cells", "N", "FastLSA base-case buffer, DPM entries (default 1Mi)");
    pub const STATS: Opt = switch("stats", "print cells/memory/time metrics");
    pub const JSON: Opt = switch("json", "print score and metrics as one JSON object instead");
    pub const QUIET: Opt = switch("quiet", "suppress the alignment rendering");
    pub const TRACE: Opt = opt("trace", "FILE", "record an execution trace (spans, wavefront tiles, kernels) to FILE; \
        analyze with `flsa report FILE` or load in Perfetto / chrome://tracing");
    pub const TRACE_FORMAT: Opt = opt("trace-format", "F", "chrome (default) | jsonl");
    pub const METRICS: Opt = opt("metrics", "FILE", "export the run's metrics registry (counters, gauges, latency \
        histograms) to FILE on exit: JSON when FILE ends in .json, Prometheus text format otherwise. With a \
        checkpoint the file is also refreshed during the run, so a killed run leaves a snapshot `flsa resume` \
        folds into its own totals.");
    pub const PROGRESS: Opt = switch("progress", "live status line on stderr (percent done, cells/sec, ETA, engine \
        phase, and the kernel backend that has computed the most cells so far), refreshed at a bounded ~5 Hz");
    pub const REPS: Opt = opt("reps", "N", "timed repetitions per case, best kept (default 3)");
    pub const REPORT: Opt = opt("out", "FILE", "JSON report path (default BENCH_<suite>.json)").short("o");
}
use rows::*;

/// Every subcommand, in `flsa help` order.
#[rustfmt::skip]
pub const COMMANDS: &[Command] = &[
    Command {
        name: "align", usage: "[options] A.fasta [B.fasta]", arity: (1, 2), raw: false, run: crate::cmd_align,
        prose: "Align the two records of one FASTA file, or the first record of each of two files.",
        opts: &[
            opt("algo", "ALGO", "fastlsa (default) | nw | nw-packed | hirschberg | sw | banded | gotoh | mm-affine \
                | fastlsa-affine | fit | overlap"),
            MATRIX, MATRIX_FILE, GAP,
            opt("gap-open", "N", "affine gap open (gotoh, mm-affine, fastlsa-affine; default -10)"),
            opt("gap-extend", "N", "affine gap extend (gotoh, mm-affine, fastlsa-affine; default -2)"),
            opt("band", "W", "band half-width for --algo banded (default 32)"),
            K, BASE_CELLS,
            opt("memory", "BYTES", "derive k/base-cells from a memory budget instead; also enforced at runtime: \
                allocations beyond the budget walk the degradation ladder (smaller base-case buffer, then smaller k)"),
            opt("deadline-ms", "N", "cancel the alignment after N milliseconds"),
            opt("threads", "P", "parallel FastLSA with P threads (default 1)"),
            opt("tiles", "F", "tiles per grid block per dimension, with --threads above 1 (default auto)"),
            opt("shards", "N", "multi-process execution: a coordinator farms grid-block tasks out to N `flsa \
                shard-worker` processes over CRC-framed pipes, with per-task deadlines, heartbeats, reassignment, \
                and worker quarantine; the output is byte-identical to the sequential run under any worker \
                failure mix. Needs a named --matrix; workers pick their own kernel backend."),
            opt("shard-fault", "S", "per-slot worker fault specs for chaos runs, semicolon-separated (`kill:N`, \
                `hang:N`, `corrupt:N`, `slow:MS`; empty slot = clean)"),
            opt("kernel", "K", "DP kernel backend: auto (default) | scalar | sse4.1 | avx2 | avx512. Every backend \
                is bit-identical; unavailable backends are rejected. Applies to fastlsa, nw, and hirschberg."),
            opt("checkpoint", "FILE", "write a crash-safe snapshot of the recursion state to FILE, atomically, as \
                the run progresses; after a crash or kill, `flsa resume FILE` continues from the last snapshot. The \
                file is removed when the run completes. Needs a named --matrix."),
            opt("checkpoint-every-blocks", "N", "snapshot cadence in completed grid blocks (default 64)"),
            STATS, JSON, QUIET, TRACE, TRACE_FORMAT, METRICS, PROGRESS,
        ],
    },
    Command {
        name: "batch", usage: "[options] PAIRS.fasta [B.fasta]", arity: (1, 2), raw: false, run: crate::cmd_batch,
        prose: "Align many independent pairs in one call: small pairs ride the striped inter-sequence batch kernel \
            (8 or 16 pairs per SIMD dispatch, one pair per i16 lane), with a bit-identical exact fallback for \
            lanes that could saturate. One FASTA pairs consecutive records (1&2, 3&4, ...); two FASTA files pair \
            record i of the first with record i of the second. Output is one tab-separated `id_a id_b score \
            cigar` line per pair.",
        opts: &[
            MATRIX, MATRIX_FILE, GAP,
            opt("kernel", "K", "auto (default) | scalar | sse4.1 | avx2 | avx512"),
            switch("json", "print one JSON array instead of the table"),
            switch("stats", "print pair count, backend, cells, memory, time"),
        ],
    },
    Command {
        name: "resume", usage: "[options] CKPT", arity: (1, 1), raw: false, run: crate::cmd_resume,
        prose: "Continue an interrupted `flsa align --checkpoint` run. The snapshot is validated (CRC-framed; \
            scheme and sequence digests must match) and the run continues to completion, checkpointing at the \
            same cadence. A corrupt or mismatched snapshot exits with code 3 and touches nothing. With --metrics \
            FILE, an existing export at FILE (from the killed run) is folded in so the final export covers the \
            whole logical alignment; --stats and --json then report the same whole-lineage totals.",
        opts: &[STATS, JSON, QUIET, TRACE, TRACE_FORMAT, METRICS, PROGRESS],
    },
    Command {
        name: "msa", usage: "[options] FAMILY.fasta", arity: (1, 1), raw: false, run: crate::cmd_msa,
        prose: "Center-star multiple alignment of every record in FAMILY.fasta, with FastLSA as the pairwise \
            aligner.",
        opts: &[MATRIX, MATRIX_FILE, GAP, K, BASE_CELLS, QUIET, STATS],
    },
    Command {
        name: "serve", usage: "[options]", arity: (0, 0), raw: false, run: crate::cmd_serve,
        prose: "Alignment daemon (TCP, crash-safe). It runs until SIGTERM/SIGINT (graceful drain: stop accepting, \
            finish or checkpoint in-flight work, answer queued jobs with Draining) or a client Shutdown frame. \
            Exit codes: 0 clean drain, 2 bind/config error, 3 unrecoverable spool corruption.",
        opts: &[
            opt("addr", "A:P", "listen address (default 127.0.0.1:7878; port 0 picks a free port, printed as \
                `listening on ...`)"),
            opt("workers", "N", "worker threads executing jobs (default 2)"),
            opt("queue-cap", "N", "bounded admission queue; a full queue answers Overloaded with a retry-after \
                hint (default 64)"),
            opt("memory", "BYTES", "server-wide admission budget: jobs that can never fit get a typed TooLarge, \
                jobs that do not fit right now wait their turn (default unbudgeted)"),
            opt("retries", "N", "retry attempts after a contained worker panic (default 2)"),
            opt("deadline-ms", "N", "default deadline for requests that carry none (default 0 = none)"),
            opt("spool", "DIR", "crash-safe spool: large jobs are journaled and checkpointed under DIR, so a \
                SIGKILL'd daemon finishes them byte-identically after restart"),
            opt("spool-min-cells", "N", "jobs with m*n cells at or above N are spooled (default 250000)"),
            opt("spool-retain", "N", "keep only the newest N completed results in the spool; older job files are \
                garbage-collected in a crash-safe order (.done before .req), so a restart mid-GC never orphans an \
                accepted job (default 256)"),
            opt("checkpoint-every-blocks", "N", "checkpoint cadence for spooled jobs (default 4)"),
            opt("metrics", "FILE", "export the serve registry (requests, retries, panics, queue depth, latency \
                histograms) to FILE when the daemon drains"),
            opt("fault-seed", "N", "inject the seeded ServeFaultPlan N (chaos/CI only): panics, stalls, or tight \
                deadlines on a deterministic target job"),
        ],
    },
    Command {
        name: "report", usage: "[TRACE] [--metrics FILE]", arity: (0, 1), raw: false, run: crate::cmd_report,
        prose: "Analyze a trace file, a metrics export, or both.",
        opts: &[
            opt("metrics", "FILE", "load a metrics export written by `flsa align --metrics` or `flsa serve \
                --metrics`. With a trace, add what only the registry has: the worker busy/idle split as an \
                occupancy figure, and checkpoint saves. Kernel cells are not repeated: each kernel call is \
                recorded once, with the backend of the fill that ran, and the trace report already lists them per \
                backend. Serve exports additionally get a service section (outcome counts, retries and contained \
                panics, queue depth peak, request and admission-wait latency quantiles)."),
        ],
    },
    Command {
        name: "bench kernels", usage: "[options]", arity: (0, 0), raw: false, run: crate::cmd_bench_kernels,
        prose: "DP kernel backend throughput sweep, linear and affine.",
        opts: &[
            opt("len", "CSV", "comma-separated square problem sides (default 1024,4096,10000)"),
            REPS,
            opt("gate", "F", "fail (exit 1) unless the best vectorized backend reaches F x scalar cells/sec on \
                the largest size, for the linear and the affine fill alike"),
            REPORT,
        ],
    },
    Command {
        name: "bench metrics", usage: "[options]", arity: (0, 0), raw: false, run: crate::cmd_bench_metrics,
        prose: "Metrics-layer overhead bench: the record paths, then metrics-on vs metrics-off end to end.",
        opts: &[
            opt("len", "N", "square problem side for the end-to-end overhead measurement (default 10000)"),
            REPS,
            opt("threads", "P", "worker threads for the parallel align (default 4, capped at the host's \
                parallelism)"),
            opt("gate", "F", "fail (exit 1) if metrics-on overhead exceeds F percent end-to-end"),
            REPORT,
        ],
    },
    Command {
        name: "bench serve", usage: "[options]", arity: (0, 0), raw: false, run: crate::cmd_bench_serve,
        prose: "Seeded load harness for the daemon.",
        opts: &[
            opt("mix", "M", "read-heavy | rapid-grow (default: both)"),
            opt("mode", "M", "closed | open (default: both)"),
            opt("clients", "N", "concurrent client connections (default 4)"),
            opt("ops", "N", "requests per client (default 32)"),
            opt("rate", "F", "open-loop submission rate per client, req/s (default 100)"),
            opt("seed", "N", "workload seed (default 42; same seed, same jobs)"),
            opt("threads", "P", "daemon worker threads (default 4, capped at the host's parallelism)"),
            opt("memory", "BYTES", "daemon admission budget (default unbudgeted)"),
            opt("gate", "F", "fail (exit 1) unless every request was answered and the slowest closed-loop cell \
                sustains F req/s"),
            REPORT,
        ],
    },
    Command {
        name: "bench shard", usage: "[options]", arity: (0, 0), raw: false, run: crate::cmd_bench_shard,
        prose: "Sharded-execution bench and chaos gate.",
        opts: &[
            opt("len", "N", "square problem side (default 600)"),
            REPS,
            opt("shards", "N", "worker processes for the clean sharded run (default 4)"),
            opt("ops", "N", "chaos plans from the seeded matrix to run (default 8)"),
            opt("seed", "N", "base seed for the chaos plans (default 0)"),
            opt("gate", "MS", "fail (exit 1) unless every run (clean and chaos) is byte-identical to the \
                sequential engine and the slowest chaos run recovers end to end within MS milliseconds"),
            REPORT,
        ],
    },
    Command {
        name: "paper", usage: "[EXPERIMENT|all] [options]", arity: (0, 1), raw: false, run: crate::cmd_paper,
        prose: "Regenerate a table or figure of the paper's evaluation (experiments E1-E14, indexed in DESIGN.md \
            section 4), or all of them in order. Without EXPERIMENT, list the experiments.",
        opts: &[
            opt("max-len", "N", "cap workload ancestor length (default 16000)"),
            switch("full", "include the slow, large configurations"),
            opt("out", "DIR", "also write each report to DIR/<experiment>.txt"),
        ],
    },
    Command {
        name: "gen", usage: "[options]", arity: (0, 0), raw: false, run: crate::cmd_gen,
        prose: "Generate a synthetic homologous pair as FASTA.",
        opts: &[
            opt("kind", "K", "dna (default) | protein"),
            opt("len", "N", "ancestor length (default 1000)"),
            opt("identity", "F", "target identity 0..1 (default 0.85)"),
            opt("seed", "N", "RNG seed (default 42)"),
            opt("out", "FILE", "output FASTA (default stdout)").short("o"),
        ],
    },
    Command {
        name: "info", usage: "", arity: (0, 0), raw: false, run: crate::cmd_info,
        prose: "List the substitution matrices, the workload suite and the kernel backends.",
        opts: &[],
    },
    Command {
        name: "shard-worker", usage: "[--heartbeat-ms N] [--fault SPEC]", arity: (0, usize::MAX), raw: true,
        run: crate::cmd_shard_worker,
        prose: "The worker process of `flsa align --shards`, spoken to over stdin/stdout. The coordinator \
            spawns it; it is not run by hand.",
        opts: &[],
    },
    Command {
        name: "help", usage: "", arity: (0, 0), raw: false, run: crate::cmd_help,
        prose: "",
        opts: &[],
    },
];

const EXIT_CODES: &str = "\
EXIT CODES:
    0  success
    1  runtime fault (memory exhausted, deadline hit, worker panic, I/O)
    2  bad configuration or arguments, including an option the run does
       not read
    3  malformed or unreadable input
";

/// A parsed command line: the subcommand, the options given, and the
/// positional arguments.
pub struct Args {
    /// The subcommand to run.
    pub cmd: &'static Command,
    /// Options given, by long name, with their values (empty for a
    /// switch) and whether a getter has read them.
    given: Vec<(&'static str, String, Cell<bool>)>,
    /// Positional arguments after the subcommand name; for a raw
    /// subcommand, the whole tail.
    pub positional: Vec<String>,
}

/// Parses `argv[1..]` against [`COMMANDS`]. No arguments, or `--help`
/// anywhere, selects `help`.
pub fn parse(argv: &[String]) -> Result<Args, CliError> {
    let help = [String::from("help")];
    let argv = if argv.is_empty() || argv.iter().any(|t| t == "--help") {
        &help[..]
    } else {
        argv
    };
    let cmd = COMMANDS
        .iter()
        .find(|c| {
            c.name
                .split(' ')
                .enumerate()
                .all(|(i, word)| argv.get(i).is_some_and(|t| t == word))
        })
        .ok_or_else(|| {
            // Bench suites are two words: name the suite that was not found.
            let words = if argv[0] == "bench" { 2 } else { 1 };
            let name = argv[..words.min(argv.len())].join(" ");
            CliError::usage(format!("unknown command {name:?}; try `flsa help`"))
        })?;
    let tail = &argv[cmd.name.split(' ').count().min(argv.len())..];
    let mut args = Args {
        cmd,
        given: Vec::new(),
        positional: Vec::new(),
    };
    if cmd.raw {
        args.positional = tail.to_vec();
        return Ok(args);
    }
    let mut it = tail.iter();
    while let Some(tok) = it.next() {
        let row = if let Some(long) = tok.strip_prefix("--") {
            cmd.opts.iter().find(|o| o.long == long)
        } else if let Some(short) = tok.strip_prefix('-') {
            cmd.opts.iter().find(|o| o.short == Some(short))
        } else {
            args.positional.push(tok.clone());
            continue;
        };
        let row = row.ok_or_else(|| refuse(cmd, tok))?;
        let value = match row.value {
            None => String::new(),
            Some(_) => it
                .next()
                .ok_or_else(|| CliError::usage(format!("option {tok} requires a value")))?
                .clone(),
        };
        // As with any repeated option, the last one wins.
        args.given.retain(|(long, ..)| *long != row.long);
        args.given.push((row.long, value, Cell::new(false)));
    }
    let (min, max) = cmd.arity;
    if let Some(stray) = args.positional.get(max) {
        return Err(CliError::usage(format!(
            "unexpected argument {stray:?}; usage: {}",
            cmd.usage_line()
        )));
    }
    if args.positional.len() < min {
        return Err(CliError::usage(format!(
            "missing argument; usage: {}",
            cmd.usage_line()
        )));
    }
    Ok(args)
}

impl Command {
    fn usage_line(&self) -> String {
        format!("flsa {} {}", self.name, self.usage)
            .trim_end()
            .to_string()
    }
}

/// The error for an option `cmd` does not declare: named as belonging
/// elsewhere when another subcommand declares it.
fn refuse(cmd: &Command, tok: &str) -> CliError {
    let name = tok.trim_start_matches('-');
    let elsewhere = COMMANDS
        .iter()
        .flat_map(|c| c.opts)
        .any(|o| o.long == name || o.short == Some(name));
    CliError::usage(if elsewhere {
        format!("option {tok} does not apply to `flsa {}`", cmd.name)
    } else {
        format!("unknown option {tok}; try `flsa help`")
    })
}

impl Args {
    /// The `--key` string if given (empty for a switch), marking it read.
    pub fn text(&self, key: &str) -> Option<&str> {
        debug_assert!(
            self.cmd.opts.iter().any(|o| o.long == key),
            "`flsa {}` reads --{key}, which its table entry does not declare",
            self.cmd.name
        );
        let (_, value, read) = self.given.iter().find(|(long, ..)| *long == key)?;
        read.set(true);
        Some(value)
    }

    /// True when the `--key` switch was given.
    pub fn flag(&self, key: &str) -> bool {
        self.text(key).is_some()
    }

    /// The `--key` string, or `default`.
    pub fn str_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.text(key).unwrap_or(default)
    }

    /// The `--key` value parsed as `T`, if given.
    pub fn value<T: FromStr>(&self, key: &str) -> Result<Option<T>, CliError> {
        self.text(key).map(|v| parse_value(key, v)).transpose()
    }

    /// The `--key` value parsed as `T`, or `default`.
    pub fn value_or<T: FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        Ok(self.value(key)?.unwrap_or(default))
    }

    /// The comma-separated `--key` list parsed as `T`s, if given.
    pub fn list<T: FromStr>(&self, key: &str) -> Result<Option<Vec<T>>, CliError> {
        self.text(key)
            .map(|csv| csv.split(',').map(|v| parse_value(key, v.trim())).collect())
            .transpose()
    }

    /// Fails on the first option given that no getter has read: it does
    /// not apply to the subcommand, algorithm or mode this run chose.
    pub fn reject_unread(&self) -> Result<(), CliError> {
        match self.given.iter().find(|(.., read)| !read.get()) {
            None => Ok(()),
            Some((long, ..)) => Err(CliError::usage(format!(
                "option --{long} has no effect on this `flsa {}` run (it does not apply to \
                 the algorithm or mode the other options chose)",
                self.cmd.name
            ))),
        }
    }
}

fn parse_value<T: FromStr>(key: &str, v: &str) -> Result<T, CliError> {
    v.parse()
        .map_err(|_| CliError::usage(format!("invalid value {v:?} for --{key}")))
}

/// `flsa help`, rendered from [`COMMANDS`].
pub fn help() -> String {
    let mut s =
        String::from("flsa - FastLSA sequence alignment (Driga et al., ICPP 2003)\n\nUSAGE:\n");
    for c in COMMANDS {
        s += &format!("    {}\n", c.usage_line());
    }
    for c in COMMANDS.iter().filter(|c| !c.prose.is_empty()) {
        s += &format!("\n{}:\n", c.name.to_uppercase());
        for line in wrap(c.prose, 72) {
            s += &format!("    {line}\n");
        }
        if !c.opts.is_empty() {
            s.push('\n');
        }
        for o in c.opts {
            let mut flag = match o.short {
                Some(alias) => format!("-{alias}, --{}", o.long),
                None => format!("--{}", o.long),
            };
            if let Some(v) = o.value {
                flag = format!("{flag} {v}");
            }
            let help = wrap(o.help, 53);
            let mut lines = help.iter();
            if flag.len() > 18 {
                s += &format!("    {flag}\n");
            } else if let Some(first) = lines.next() {
                s += &format!("    {flag:<18} {first}\n");
            }
            for line in lines {
                s += &format!("{:23}{line}\n", "");
            }
        }
    }
    s.push('\n');
    s + EXIT_CODES
}

/// Greedy word wrap to `width` columns.
fn wrap(text: &str, width: usize) -> Vec<String> {
    let mut lines: Vec<String> = Vec::new();
    for word in text.split_whitespace() {
        match lines.last_mut() {
            Some(line) if line.chars().count() + 1 + word.chars().count() <= width => {
                line.push(' ');
                line.push_str(word);
            }
            _ => lines.push(word.to_string()),
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn parse_ok(s: &str) -> Args {
        parse(&argv(s)).unwrap_or_else(|e| panic!("{s}: {}", e.msg))
    }

    fn parse_err(s: &str) -> String {
        match parse(&argv(s)) {
            Ok(_) => panic!("{s}: parsed"),
            Err(e) => {
                assert_eq!(e.code, 2, "{s}: {}", e.msg);
                e.msg
            }
        }
    }

    #[test]
    fn parses_subcommand_options_and_positionals() {
        let a = parse_ok("align --algo fastlsa -k 8 --stats a.fa b.fa");
        assert_eq!(a.cmd.name, "align");
        assert_eq!(a.str_or("algo", "x"), "fastlsa");
        assert_eq!(a.value_or("k", 2usize).unwrap(), 8);
        assert!(a.flag("stats"));
        assert_eq!(a.positional, vec!["a.fa", "b.fa"]);
        assert!(a.reject_unread().is_ok());
        let b = parse_ok("bench kernels --len 64,128 -o r.json");
        assert_eq!(b.cmd.name, "bench kernels");
        assert_eq!(b.list::<usize>("len").unwrap(), Some(vec![64, 128]));
        assert_eq!(b.str_or("out", "x"), "r.json");
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse_err("align --algo").contains("--algo"));
    }

    #[test]
    fn invalid_numeric_value_is_an_error() {
        let a = parse_ok("align -k banana x.fa");
        let err = a.value_or("k", 2usize).expect_err("banana is no number");
        assert_eq!(err.code, 2);
        assert!(err.msg.contains("--k"), "{}", err.msg);
        let b = parse_ok("bench kernels --len 64,x");
        assert!(b.list::<usize>("len").is_err());
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = parse_ok("align x.fa");
        assert_eq!(a.value_or("threads", 1usize).unwrap(), 1);
        assert_eq!(a.str_or("matrix", "dna"), "dna");
        assert!(!a.flag("stats"));
    }

    #[test]
    fn unknown_short_option_rejected() {
        assert!(parse_err("align -z 3").contains("-z"));
    }

    #[test]
    fn unknown_long_option_rejected() {
        let err = parse_err("align --threds 4 a.fa");
        assert!(err.contains("unknown option --threds"), "{err}");
        parse_err("align --no-such-flag a.fa");
    }

    #[test]
    fn help_is_the_default_and_the_help_switch() {
        for s in ["", "help", "--help", "align --help x.fa"] {
            assert_eq!(parse_ok(s).cmd.name, "help", "{s:?}");
        }
    }

    #[test]
    fn an_option_of_another_subcommand_is_refused_by_name() {
        let err = parse_err("gen --workers 3");
        assert_eq!(err, "option --workers does not apply to `flsa gen`");
        assert!(parse_err("resume --kernel scalar x.ckpt").contains("--kernel"));
        // Only the shard worker reads its two flags, and it parses them itself.
        assert!(parse_err("align --fault kill:0 x.fa").contains("--fault"));
        assert!(parse_err("align --heartbeat-ms 5 x.fa").contains("--heartbeat-ms"));
        let w = parse_ok("shard-worker --heartbeat-ms 5 --fault kill:0");
        assert_eq!(w.positional, argv("--heartbeat-ms 5 --fault kill:0"));
    }

    #[test]
    fn positionals_beyond_the_arity_are_refused() {
        assert!(parse_err("gen --len 5 stray").contains("\"stray\""));
        assert!(parse_err("info stray").contains("\"stray\""));
        assert!(parse_err("bench kernels stray").contains("\"stray\""));
        assert!(parse_err("align a b c").contains("\"c\""));
        assert!(parse_err("resume").contains("missing argument"));
        assert!(parse_err("bench nope").contains("unknown command \"bench nope\""));
        assert!(parse_err("frobnicate").contains("unknown command"));
    }

    #[test]
    fn trace_options_take_values() {
        let a = parse_ok("align --trace out.json --trace-format jsonl a.fa");
        assert_eq!(a.text("trace"), Some("out.json"));
        assert_eq!(a.str_or("trace-format", "chrome"), "jsonl");
        parse_err("align --trace");
    }

    #[test]
    fn an_option_no_getter_read_is_refused() {
        let a = parse_ok("align --algo nw --threads 4 x.fa");
        assert_eq!(a.str_or("algo", "fastlsa"), "nw");
        let err = a.reject_unread().expect_err("--threads was never read");
        assert_eq!(err.code, 2);
        assert!(err.msg.contains("--threads"), "{}", err.msg);
    }

    #[test]
    fn the_last_of_a_repeated_option_wins() {
        let a = parse_ok("align -k 3 --k 5 x.fa");
        assert_eq!(a.value_or("k", 8usize).unwrap(), 5);
        assert!(a.reject_unread().is_ok());
    }

    #[test]
    fn rows_are_unique_and_all_rendered_in_help() {
        let help = help();
        for c in COMMANDS {
            assert!(help.contains(&format!("flsa {}", c.name)), "{}", c.name);
            for (i, o) in c.opts.iter().enumerate() {
                let dup = c.opts[..i]
                    .iter()
                    .any(|p| p.long == o.long || (o.short.is_some() && p.short == o.short));
                assert!(!dup, "`flsa {}` declares --{} twice", c.name, o.long);
                assert!(help.contains(&format!("--{}", o.long)), "--{}", o.long);
            }
        }
        // A knob nothing reads has no row.
        assert!(!help.contains("--width"));
        assert!(help.lines().all(|l| l.chars().count() <= 80), "{help}");
    }
}
