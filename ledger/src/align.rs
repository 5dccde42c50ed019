//! The three align workloads: FASTA text in, CIGAR string out.
//!
//! A run cycles through the workload's distinct pairs in whole passes
//! until `--seconds` have elapsed. Each pair is timed from FASTA text to
//! CIGAR string; its output is checked between pairs, outside the timed
//! region, and against the Hirschberg or Myers–Miller oracle at the end.

use std::sync::Arc;
use std::time::{Duration, Instant};

use fastlsa_core::{align_affine, align_opts, model, AlignOptions, FastLsaConfig};
use flsa_dp::{Kernel, Metrics};
use flsa_metrics::{names, Histogram, Registry};
use flsa_scoring::{tables, GapModel, ScoringScheme};
use flsa_seq::{fasta, Sequence};
use flsa_trace::Recorder;

use crate::check::cigar_score;
use crate::gen;
use crate::pin;
use crate::report::{self, median, quantile, ratio, Values};
use crate::spans::{self, Layers, Span};
use crate::workload::Workload;
use crate::Outcome;

/// Set-up takes well under a microsecond, so a sample times a batch of
/// this many. One batch runs before every pass: the median batch mean sees
/// the shared host at the same moments as the rest of the run.
const SETUP_BATCH: u32 = 100;

/// Each kernel-ceiling shape is filled for at least this long.
const CEILING_MIN: Duration = Duration::from_millis(20);

/// What a user holds before the first alignment: the scoring scheme, the
/// configuration, and the detected kernel backend.
struct Engine {
    scheme: ScoringScheme,
    config: FastLsaConfig,
    affine: bool,
    kernel: Kernel,
}

impl Engine {
    fn setup(w: Workload, threads: usize) -> Engine {
        let affine = w == Workload::ProteinAffine;
        let scheme = if affine {
            ScoringScheme::new(tables::blosum62(), GapModel::affine(-11, -1))
        } else {
            ScoringScheme::dna_default()
        };
        let config = match w {
            Workload::GenomePar => FastLsaConfig::default().with_threads(threads),
            _ => FastLsaConfig::default(),
        };
        Engine {
            scheme,
            config,
            affine,
            kernel: Kernel::auto(),
        }
    }

    /// A linear-gap scheme over the same matrix, for the kernel ceilings.
    fn linear_scheme(&self) -> ScoringScheme {
        if self.affine {
            ScoringScheme::new(tables::blosum62(), GapModel::linear(-11))
        } else {
            self.scheme.clone()
        }
    }
}

struct Answer {
    m: usize,
    n: usize,
    score: i64,
    cigar: String,
}

/// One FASTA→CIGAR call with its spans on the caller's clock.
struct Call {
    pair: Span,
    parse: Span,
    align: Span,
    cigar: Span,
    result: Result<Answer, String>,
}

impl Call {
    fn wall_ns(&self) -> u64 {
        self.pair.end - self.pair.start
    }
}

fn call(
    e: &Engine,
    text: &str,
    metrics: &Metrics,
    opts: &AlignOptions,
    now: &dyn Fn() -> u64,
) -> Call {
    let t0 = now();
    let parsed = fasta::parse_str(text, e.scheme.alphabet());
    let t1 = now();
    let (aligned, t2) = match parsed {
        Ok(recs) if recs.len() == 2 => {
            let (a, b) = (&recs[0], &recs[1]);
            let r = if e.affine {
                align_affine(a, b, &e.scheme, e.config, metrics)
            } else {
                align_opts(a, b, &e.scheme, e.config, opts, metrics)
            };
            (
                r.map(|r| (a.len(), b.len(), r))
                    .map_err(|err| err.to_string()),
                now(),
            )
        }
        Ok(recs) => (
            Err(format!("expected 2 FASTA records, got {}", recs.len())),
            now(),
        ),
        Err(err) => (Err(err.to_string()), now()),
    };
    let result = aligned.map(|(m, n, r)| Answer {
        m,
        n,
        score: r.score,
        cigar: flsa_serve::job::cigar(&r.path),
    });
    let t3 = now();
    Call {
        pair: Span { start: t0, end: t3 },
        parse: Span { start: t0, end: t1 },
        align: Span { start: t1, end: t2 },
        cigar: Span { start: t2, end: t3 },
        result,
    }
}

/// Checks every answer and keeps the failure tally.
struct Checker {
    seqs: Vec<(Sequence, Sequence)>,
    /// The first answer per pair; every later one must repeat it.
    first: Vec<Option<(i64, String)>>,
    runs: Vec<u64>,
    wrong: Vec<u64>,
    errors: u64,
    note: Option<String>,
}

impl Checker {
    fn new(e: &Engine, pool: &[gen::Pair]) -> Checker {
        let seq = |id, s: &[u8]| {
            let text = std::str::from_utf8(s).expect("residue letters are ASCII");
            Sequence::from_str(id, e.scheme.alphabet(), text).expect("generated residues are valid")
        };
        Checker {
            seqs: pool
                .iter()
                .map(|p| (seq("a", &p.a), seq("b", &p.b)))
                .collect(),
            first: vec![None; pool.len()],
            runs: vec![0; pool.len()],
            wrong: vec![0; pool.len()],
            errors: 0,
            note: None,
        }
    }

    /// True when pair `i`'s answer is a global alignment whose CIGAR
    /// re-scores to its score and repeats the pair's first answer.
    fn check(&mut self, e: &Engine, i: usize, c: &Call) -> bool {
        let ans = match &c.result {
            Ok(ans) => ans,
            Err(err) => {
                self.errors += 1;
                self.note.get_or_insert_with(|| format!("pair {i}: {err}"));
                return false;
            }
        };
        self.runs[i] += 1;
        let (a, b) = &self.seqs[i];
        let ok = (ans.m, ans.n) == (a.len(), b.len())
            && cigar_score(&ans.cigar, a.codes(), b.codes(), &e.scheme) == Some(ans.score)
            && match &self.first[i] {
                Some((score, cigar)) => *score == ans.score && *cigar == ans.cigar,
                None => {
                    self.first[i] = Some((ans.score, ans.cigar.clone()));
                    true
                }
            };
        if !ok {
            self.wrong[i] += 1;
            self.note
                .get_or_insert_with(|| format!("pair {i}: CIGAR does not re-score or repeat"));
        }
        ok
    }

    /// Compares each pair's score with the linear-space oracle
    /// (Hirschberg, or Myers–Miller for affine gaps); every run of a pair
    /// the oracle disagrees with is wrong. Returns the oracle's time.
    fn oracle(&mut self, e: &Engine) -> Duration {
        let mut spent = Duration::ZERO;
        for (i, (a, b)) in self.seqs.iter().enumerate() {
            let t = Instant::now();
            let want = if e.affine {
                flsa_hirschberg::myers_miller_affine(a, b, &e.scheme, &Metrics::new()).score
            } else {
                flsa_hirschberg::hirschberg(a, b, &e.scheme, &Metrics::new()).score
            };
            spent += t.elapsed();
            if self.first[i].as_ref().is_some_and(|(got, _)| *got != want) {
                self.wrong[i] = self.runs[i];
                self.note.get_or_insert_with(|| {
                    format!("pair {i}: score differs from the oracle's {want}")
                });
            }
        }
        spent
    }

    fn failed(&self) -> u64 {
        self.errors + self.wrong.iter().sum::<u64>()
    }

    /// Σ m·n over the distinct pairs.
    fn pool_cells(&self) -> f64 {
        self.seqs
            .iter()
            .map(|(a, b)| (a.len() * b.len()) as f64)
            .sum()
    }
}

pub fn run(w: Workload, seed: u64, seconds: u64, traced: bool) -> Outcome {
    let spec = w.pool_spec().expect("an align workload");
    let pool = gen::pool(&spec, seed);
    let texts: Vec<String> = pool.iter().map(gen::fasta).collect();

    let engine = Engine::setup(w, report::nproc());
    let mut checker = Checker::new(&engine, &pool);

    // Warm-up, untimed and unchecked: lazy allocations and page faults
    // are paid before the clock starts.
    let epoch = Instant::now();
    let clock = move || epoch.elapsed().as_nanos() as u64;
    let smallest = (0..pool.len())
        .min_by_key(|&i| texts[i].len())
        .expect("non-empty pool");
    call(
        &engine,
        &texts[smallest],
        &Metrics::new(),
        &AlignOptions::default(),
        &clock,
    );

    let deadline = Instant::now() + Duration::from_secs(seconds);
    let (mut outcome, fastlsa_gcups) = if traced {
        traced_passes(&engine, &texts, &mut checker, deadline)
    } else {
        (
            timed_passes(w, &engine, &texts, &mut checker, deadline, &clock),
            0.0,
        )
    };

    // Read before the oracle's own buffers add to it.
    let peak_rss = report::peak_rss_mib();
    let oracle_time = checker.oracle(&engine);
    let failed = checker.failed();
    if traced {
        let gcups = ratio(checker.pool_cells(), oracle_time.as_nanos() as f64);
        let key = if engine.affine {
            "hirschberg.mm_affine_gcups"
        } else {
            "hirschberg.gcups"
        };
        outcome.values.insert(key, gcups);
        outcome.values.insert("mem.peak_rss_mib", peak_rss);
        if !engine.affine {
            outcome
                .values
                .insert("hirschberg.speedup", ratio(fastlsa_gcups, gcups));
        }
    } else {
        let attempted = outcome.attempted as f64;
        outcome
            .values
            .insert("ok_frac", (attempted - failed as f64) / attempted);
    }
    outcome.failed = failed;
    if outcome.error.is_none() {
        outcome.error = checker.note.take();
    }
    outcome
}

/// The untraced run: every end-to-end metric but memory and correctness,
/// which [`run`] adds. Other tenants of a shared host only ever slow a
/// pair down, so each figure is taken on the fast side:
///
/// - On one thread, from each pair's fastest run. A lone pair of tens of
///   milliseconds often finds its CPU quiet, so its fastest run is the
///   program's own speed. On the shared 2-CPU reference host, over six
///   seeds in a noisy stretch, `gcups` from fastest runs spread 0.06 on
///   protein-affine, where the fast quartile over passes spread 0.25.
/// - On `nproc` threads, per pass over the distinct pairs, as the upper
///   quartile of a rate and the lower quartile of a latency over passes.
///   A parallel pair needs every CPU quiet at once, which seldom happens,
///   so its fastest run is luck: over eight seeds `gcups` from fastest
///   runs spread 0.12 on genome-par, against 0.09 for the quartile over
///   passes.
fn timed_passes(
    w: Workload,
    e: &Engine,
    texts: &[String],
    checker: &mut Checker,
    deadline: Instant,
    clock: &dyn Fn() -> u64,
) -> Outcome {
    let opts = AlignOptions::default();
    let (mut gcups, mut goodput, mut p50) = (vec![], vec![], vec![]);
    let (mut setup_s, mut attempted) = (vec![], 0);
    let mut fastest_ms = vec![f64::INFINITY; texts.len()];
    let mut all_ok = vec![true; texts.len()];
    let single = e.config.threads() == 1;
    let rotation = single.then(pin::Rotation::new).flatten();
    while Instant::now() < deadline {
        if let Some(r) = &rotation {
            r.pin(gcups.len());
        }
        let t = Instant::now();
        for _ in 0..SETUP_BATCH {
            std::hint::black_box(Engine::setup(w, e.config.threads()));
        }
        setup_s.push(t.elapsed().as_secs_f64() / f64::from(SETUP_BATCH));
        let (mut cells, mut wall_ns, mut good) = (0f64, 0u64, 0u64);
        let mut pass_ms = Vec::with_capacity(texts.len());
        for (i, text) in texts.iter().enumerate() {
            let c = call(e, text, &Metrics::new(), &opts, clock);
            let ok = checker.check(e, i, &c);
            let ms = c.wall_ns() as f64 / 1e6;
            if let Ok(ans) = &c.result {
                cells += (ans.m * ans.n) as f64;
            }
            good += u64::from(ok && ms <= w.limit_ms());
            wall_ns += c.wall_ns();
            pass_ms.push(ms);
            fastest_ms[i] = fastest_ms[i].min(ms);
            all_ok[i] &= ok;
        }
        attempted += pass_ms.len() as u64;
        gcups.push(ratio(cells, wall_ns as f64));
        goodput.push(ratio(good as f64, wall_ns as f64 / 1e9));
        p50.push(median(&pass_ms));
    }
    let mut values = Values::new();
    if single {
        let total_s = fastest_ms.iter().sum::<f64>() / 1e3;
        let good = (0..texts.len())
            .filter(|&i| all_ok[i] && fastest_ms[i] <= w.limit_ms())
            .count();
        values.insert("gcups", ratio(checker.pool_cells(), total_s * 1e9));
        values.insert("p50_ms", median(&fastest_ms));
        values.insert("goodput_rps", ratio(good as f64, total_s));
    } else {
        values.insert("gcups", quantile(&gcups, 0.75));
        values.insert("p50_ms", quantile(&p50, 0.25));
        values.insert("goodput_rps", quantile(&goodput, 0.75));
    }
    values.insert("setup_s", median(&setup_s));
    Outcome {
        values,
        attempted,
        ..Outcome::default()
    }
}

/// Sums over the traced run's passes.
#[derive(Default)]
struct Totals {
    layers: Layers,
    cells_mn: f64,
    parse_ns: u64,
    cigar_ns: u64,
    traced_wall: u64,
    plain_wall: u64,
    plain_align: u64,
    plain_mn: f64,
    plain_ms: Vec<f64>,
    busy_ns: u64,
    idle_ns: u64,
    parks: u64,
    tiles: u64,
    peak_bytes: u64,
    bound_cells: f64,
}

/// The traced run: each pair runs once plain and once traced per pass,
/// in alternating order, so the two sides see the same inputs and drift.
/// Also returns the plain runs' align-call Gcells/s, the FastLSA side of
/// the Hirschberg comparison.
fn traced_passes(
    e: &Engine,
    texts: &[String],
    checker: &mut Checker,
    deadline: Instant,
) -> (Outcome, f64) {
    let epoch = Instant::now();
    let clock = move || epoch.elapsed().as_nanos() as u64;
    let plain_opts = AlignOptions::default();
    let mut t = Totals::default();
    let mut first_pass: Option<(u64, u64, u64, u64)> = None;
    let tile_ns = Histogram::new();
    let (mut passes, mut attempted) = (0u64, 0u64);
    let mut error = None;
    while Instant::now() < deadline || passes == 0 {
        let (mut pass_cells, mut pass_calls, mut pass_blocks, mut pass_fresh) = (0, 0, 0, 0);
        for (i, text) in texts.iter().enumerate() {
            let plain_first = (passes + i as u64).is_multiple_of(2);
            for traced in [!plain_first, plain_first] {
                attempted += 1;
                if !traced {
                    let c = call(e, text, &Metrics::new(), &plain_opts, &clock);
                    checker.check(e, i, &c);
                    if let Ok(ans) = &c.result {
                        t.plain_mn += (ans.m * ans.n) as f64;
                    }
                    t.plain_wall += c.wall_ns();
                    t.plain_align += c.align.end - c.align.start;
                    t.plain_ms.push(c.wall_ns() as f64 / 1e6);
                    continue;
                }
                let rec = Arc::new(Recorder::new());
                let reg = Arc::new(Registry::new());
                let metrics = Metrics::with_recorder(rec.clone()).with_registry(&reg);
                let opts = AlignOptions {
                    registry: Some(reg.clone()),
                    ..AlignOptions::default()
                };
                let main_tid = rec.thread_id();
                let now = || rec.now_ns();
                let c = call(e, text, &metrics, &opts, &now);
                checker.check(e, i, &c);
                let Ok(ans) = &c.result else { continue };
                let cells = metrics.snapshot().cells_computed;
                let layers =
                    spans::analyse(&rec.snapshot(), main_tid, c.pair, c.parse, c.align, c.cigar)
                        .and_then(|l| {
                            if l.kernel_cells == cells {
                                Ok(l)
                            } else {
                                Err(format!(
                                    "trace kernel cells {} != metrics cells {cells}",
                                    l.kernel_cells
                                ))
                            }
                        });
                let layers = match layers {
                    Ok(l) => l,
                    Err(err) => {
                        error.get_or_insert(format!("trace consistency, pair {i}: {err}"));
                        continue;
                    }
                };
                let snap = reg.snapshot();
                let counter = |name| snap.counter(name).unwrap_or(0);
                pass_cells += cells;
                pass_calls += layers.kernel_calls;
                pass_blocks += counter(names::BLOCKS_FILLED_TOTAL);
                pass_fresh += snap.gauge(names::ARENA_FRESH_ALLOCS).unwrap_or(0).max(0) as u64;
                t.busy_ns += counter(names::WORKER_BUSY_NS_TOTAL);
                t.idle_ns += counter(names::WORKER_IDLE_NS_TOTAL);
                t.parks += counter(names::WORKER_PARKS_TOTAL);
                t.tiles += counter(names::TILES_TOTAL);
                if let Some(h) = snap.histogram(names::TILE_NS) {
                    tile_ns.seed(h);
                }
                t.peak_bytes = t.peak_bytes.max(metrics.snapshot().peak_bytes);
                t.layers.add(&layers);
                t.cells_mn += (ans.m * ans.n) as f64;
                t.parse_ns += c.parse.end - c.parse.start;
                t.cigar_ns += c.cigar.end - c.cigar.start;
                t.traced_wall += c.wall_ns();
                if passes == 0 {
                    let cfg = e.config;
                    t.bound_cells +=
                        model::fastlsa_cells_bound(ans.m, ans.n, cfg.k, cfg.base_cells);
                }
            }
        }
        let pass = (pass_cells, pass_calls, pass_blocks, pass_fresh);
        match first_pass {
            None => first_pass = Some(pass),
            // The cell count is exact: every pass must repeat it.
            Some((cells, ..)) if cells != pass_cells => {
                error.get_or_insert(format!(
                    "pass {passes} computed {pass_cells} cells, pass 0 {cells}"
                ));
            }
            Some(_) => {}
        }
        passes += 1;
    }
    let (cells, calls, blocks, fresh) = first_pass.unwrap_or_default();
    let tiles = tile_ns.snapshot(names::TILE_NS);
    let pass_mn = t.cells_mn / passes as f64;

    let l = &t.layers;
    let align = l.align_ns as f64;
    let fill_ns = (l.fill_ns.iter().sum::<u64>() + l.base_ns) as f64;
    let mut v = Values::new();
    let traced_pairs = (passes * texts.len() as u64) as f64;
    v.insert("seq.parse_ms", t.parse_ns as f64 / traced_pairs / 1e6);
    v.insert("path.cigar_ms", t.cigar_ns as f64 / traced_pairs / 1e6);
    let lin = e.linear_scheme();
    let ceiling = kernel_ceiling(&e.kernel, &lin, &checker.seqs, e.config.k);
    v.insert("dp.ceiling_gcups", ceiling);
    v.insert(
        "dp.ceiling_d1_gcups",
        kernel_ceiling(&e.kernel, &lin, &checker.seqs, e.config.k * e.config.k),
    );
    // The affine solver records no spans: all of its time is fill time.
    let kernel_ns = if fill_ns > 0.0 { fill_ns } else { align };
    v.insert("dp.kernel_gcups", ratio(l.kernel_cells as f64, kernel_ns));
    v.insert("dp.cells", cells as f64);
    v.insert("dp.kernel_calls", calls as f64);
    v.insert(
        "core.fill_d0.gcups",
        ratio(l.fill_cells[0] as f64, l.fill_ns[0] as f64),
    );
    v.insert("core.fill_d0.share", ratio(l.fill_ns[0] as f64, align));
    v.insert(
        "core.fill_d1.gcups",
        ratio(l.fill_cells[1] as f64, l.fill_ns[1] as f64),
    );
    v.insert("core.fill_d1.share", ratio(l.fill_ns[1] as f64, align));
    v.insert("core.fill_deep.share", ratio(l.fill_ns[2] as f64, align));
    v.insert(
        "core.base_case.gcups",
        ratio(l.base_cells as f64, l.base_ns as f64),
    );
    v.insert("core.base_case.share", ratio(l.base_ns as f64, align));
    v.insert("core.traceback.share", ratio(l.traceback_ns as f64, align));
    v.insert(
        "core.bookkeeping.share",
        ratio(l.bookkeeping_ns as f64, align),
    );
    let plain_gcups = ratio(t.plain_mn, t.plain_wall as f64);
    v.insert("core.efficiency", ratio(plain_gcups, ceiling));
    if e.affine {
        v.insert("core.affine.gcups", ratio(t.cells_mn, align));
        v.insert("core.affine.cell_factor", ratio(cells as f64, pass_mn));
    } else {
        v.insert("core.cell_factor", ratio(cells as f64, pass_mn));
        v.insert("core.cell_bound", ratio(t.bound_cells, pass_mn));
    }
    v.insert("core.blocks", blocks as f64);
    v.insert("core.arena_fresh_allocs", fresh as f64);
    v.insert(
        "core.peak_tracked_mib",
        t.peak_bytes as f64 / (1 << 20) as f64,
    );
    v.insert(
        "wavefront.busy_share",
        ratio(t.busy_ns as f64, (t.busy_ns + t.idle_ns) as f64),
    );
    v.insert("wavefront.idle_ms", t.idle_ns as f64 / passes as f64 / 1e6);
    v.insert("wavefront.parks", t.parks as f64 / passes as f64);
    v.insert("wavefront.tiles", t.tiles as f64 / passes as f64);
    v.insert("wavefront.tile_us_p50", tiles.quantile(0.50) as f64 / 1e3);
    v.insert("wavefront.tile_us_p99", tiles.quantile(0.99) as f64 / 1e3);
    v.insert("tail.p99_ms", quantile(&t.plain_ms, 0.99));
    v.insert(
        "trace.overhead_pct",
        (ratio(t.traced_wall as f64, t.plain_wall as f64) - 1.0) * 100.0,
    );
    let outcome = Outcome {
        values: v,
        attempted,
        error,
        ..Outcome::default()
    };
    (outcome, ratio(t.plain_mn, t.plain_align as f64))
}

/// Kernel ceiling: Gcells/s of an isolated `Kernel::fill_last_row` on
/// each pair's block shape at `div` (k for the level-0 blocks, k² for the
/// depth-1 blocks), on the same backend the aligner detects.
fn kernel_ceiling(
    kernel: &Kernel,
    scheme: &ScoringScheme,
    seqs: &[(Sequence, Sequence)],
    div: usize,
) -> f64 {
    let gap = scheme.gap().linear_penalty();
    let metrics = Metrics::new();
    let (mut cells, mut ns) = (0f64, 0f64);
    for (a, b) in seqs {
        let (rows, cols) = (a.len() / div, b.len() / div);
        if rows == 0 || cols == 0 {
            continue;
        }
        let top: Vec<i32> = (0..=cols as i32).map(|j| j * gap).collect();
        let left: Vec<i32> = (0..=rows as i32).map(|i| i * gap).collect();
        let mut out = vec![0i32; cols + 1];
        let (xa, xb) = (&a.codes()[..rows], &b.codes()[..cols]);
        let start = Instant::now();
        let mut reps = 0u64;
        while reps < 3 || start.elapsed() < CEILING_MIN {
            kernel.fill_last_row(xa, xb, &top, &left, scheme, &mut out, &metrics);
            std::hint::black_box(&out);
            reps += 1;
        }
        ns += start.elapsed().as_nanos() as f64;
        cells += (rows * cols) as f64 * reps as f64;
    }
    ratio(cells, ns)
}
