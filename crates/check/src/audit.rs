//! Semantic workspace audit: three interprocedural passes over the
//! [`crate::parse`] model, strengthening the textual lint rules into
//! structural guarantees.
//!
//! * **R8-panic-reachability** — builds the workspace call graph,
//!   computes the closure reachable from the DP/kernel entry points
//!   (public fns in the R2 hot set, the solver recursion, wavefront
//!   tile execution), and flags any `panic!`/`unwrap`/`expect` inside a
//!   reachable fn of a library crate, reporting the offending call
//!   chain. Intentional invariant panics keep the lint's documented
//!   escape hatches (`// flsa-check: allow(panic)` /
//!   `allow(unwrap)` with a justification). Public fns in hot files
//!   must additionally guard their slice-index expressions with a
//!   release-mode bounds check (`check_boundary` or an `assert!`
//!   family call — `debug_assert!` compiles out exactly where the
//!   optimized kernels run, so it does not count).
//! * **R9-detection-dominance** — proves every call site of a
//!   `#[target_feature]` fn is dominated by a CPU-feature proof, in
//!   one of three tiers: (a) the caller itself carries a superset
//!   `#[target_feature]`, (b) the caller's body checks
//!   `is_x86_feature_detected!` for every needed feature or consults
//!   the `"FLSA_KERNEL_FORCE"` gate, or (c) the caller is a method
//!   whose receiver type admits the guarded variant only through
//!   constructors that prove the features (constructor-admission: a
//!   constructor is any fn building the type with a struct literal;
//!   it is admissible if its transitive call closure detects the
//!   features, consults the force gate, or never names the guarding
//!   enum variant at all).
//! * **R10-overflow-cert** — interval analysis of the DP recurrence:
//!   from the workspace's substitution extrema and gap penalties it
//!   derives the worst-case `i32` score magnitude as a function of the
//!   sequence span (`m + n`), emits a machine-readable certificate,
//!   and checks that the alignment entry points (`align_opts`,
//!   `align_resume`, `align_traced`, `align_affine`, `gotoh`,
//!   `myers_miller_affine`) reach the runtime overflow guard
//!   (`max_safe_span` / `validate_run`) on their call graph. The same
//!   certificate covers the affine prefix-scan rows in `flsa-dp::simd`
//!   with no new term: their scan input `w = D + open − j·extend` has
//!   `|D| ≤ span·C`, `|open| ≤ G` and `|j·extend| ≤ span·G`, so
//!   `|w| ≤ span·C + G + span·G = span·(C+G) + G`, the envelope of the
//!   linear u-domain intermediates, because `G` already counts
//!   `|open| + |extend|` per symbol. The AVX-512 anti-diagonal band
//!   fill adds no intermediate at all: each kept cell is
//!   `max(diag + S, max(up, left) + gap)`, and `max(up, left) + gap` is
//!   one of the scalar sums `up + gap`, `left + gap`. Lanes outside the
//!   rectangle may wrap, but they feed only other outside lanes and are
//!   never stored. The AVX-512 byte band keeps score differences
//!   instead, in their own `i8` domain: with linear gap `g` and largest
//!   score `smax`, every difference `u = H(i,j) − H(i−1,j)` and
//!   `v = H(i,j) − H(i,j−1)` lies in `[g, smax − g]` when the boundary's
//!   do (induction on `z = max(S, v + g, u + g)`, `u' = z − v`,
//!   `v' = z − u`), and `z = H(i,j) − H(i−1,j−1)` lies in `[2g, smax]`.
//!   The fill runs only when both ranges fit `i8` (`2g ≥ −128`,
//!   `smax − g ≤ 127`, every score in `[−128, 127]`) and every boundary
//!   difference is in range, so no byte wraps. Its `i32` edges are
//!   prefix sums of those differences from a boundary value, and each
//!   partial sum is a real `H`, which this envelope already covers.
//!
//! Name resolution is conservative (identifier-based): the graph
//! over-approximates, so R8 reachability and R9 constructor closures
//! can only err toward *more* checking, never less.

use crate::lint::{
    collect_sources, has_marker, is_hot, Finding, ALLOW_PANIC, ALLOW_UNWRAP, PANIC_TOKENS,
    UNWRAP_EXEMPT_PREFIXES,
};
use crate::parse::{FnItem, Model};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io;
use std::path::Path;

/// Solver fns treated as DP entry points (the linear-space recursion).
const SOLVER_ENTRIES: &[&str] = &[
    "run",
    "resume",
    "drive",
    "base_case",
    "fill_grid",
    "fill_grid_sequential",
];
const SOLVER_FILE: &str = "crates/core/src/solver.rs";

/// Wavefront fns treated as tile-execution entry points.
const WAVEFRONT_ENTRIES: &[&str] = &["run_traced"];
const WAVEFRONT_FILE: &str = "crates/wavefront/src/pool.rs";

/// Alignment entry points that must reach the overflow guard (R10).
const OVERFLOW_GUARDED_ENTRIES: &[&str] = &[
    "align_opts",
    "align_resume",
    "align_traced",
    "align_affine",
    "gotoh",
    "myers_miller_affine",
];

/// Fns recognized as the runtime overflow guard (R10).
const OVERFLOW_GUARDS: &[&str] = &["max_safe_span", "validate_run"];

/// Release-mode bounds guards accepted for hot-fn indexing (R8).
const RELEASE_ASSERTS: &[&str] = &["assert", "assert_eq", "assert_ne"];

/// The derived overflow certificate (R10), exported as JSON.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// Largest |substitution score| found in the baked tables and
    /// `match_mismatch(…)` literals.
    pub sub_abs_max: i64,
    /// Largest |gap penalty| found at `GapModel::linear/affine(…)`
    /// literals (affine counts `|open| + |extend|` per cell).
    pub gap_abs_max: i64,
    /// Per-unit-of-span cell growth: `C = max(S, G)`.
    pub cell_coeff: i64,
    /// Per-unit-of-span intermediate growth including the two-pass
    /// u-domain shift: `C + G`.
    pub unit_cost: i64,
    /// Certified span bound: any `m + n <= max_span` keeps every DP
    /// value and u-domain intermediate within `i32`.
    pub max_span: u64,
    /// Square-input convenience bound: `max_span / 2`.
    pub max_len_square: u64,
    /// Entry fn -> overflow guard reachable on its call graph.
    pub guards: Vec<(String, bool)>,
}

impl Certificate {
    /// Hand-rolled JSON (the workspace vendors no serde).
    pub fn to_json(&self, findings: usize) -> String {
        let mut guards = String::new();
        for (i, (name, ok)) in self.guards.iter().enumerate() {
            if i > 0 {
                guards.push_str(", ");
            }
            guards.push_str(&format!("\"{name}\": {ok}"));
        }
        format!(
            "{{\n  \"version\": 1,\n  \"rule\": \"R10-overflow-cert\",\n  \
             \"sub_abs_max\": {},\n  \"gap_abs_max\": {},\n  \"cell_coeff\": {},\n  \
             \"unit_cost\": {},\n  \"i32_max\": {},\n  \"max_span\": {},\n  \
             \"max_len_square\": {},\n  \"formula\": \"|H(i,j)| <= (i+j)*max(S,G); \
             two-pass u-domain intermediates <= span*(C+G) + G; \
             max_span = (2^31-1)/(C+G) - 1\",\n  \"guards\": {{{}}},\n  \
             \"findings\": {}\n}}\n",
            self.sub_abs_max,
            self.gap_abs_max,
            self.cell_coeff,
            self.unit_cost,
            i32::MAX,
            self.max_span,
            self.max_len_square,
            guards,
            findings,
        )
    }
}

/// Result of a full audit run.
#[derive(Debug)]
pub struct AuditReport {
    pub findings: Vec<Finding>,
    pub certificate: Certificate,
}

/// Audits a set of `(relative path, contents)` sources as one
/// workspace. Pure core — [`audit_workspace`] feeds it from disk,
/// tests feed it inline strings.
pub fn audit_sources(files: &[(String, String)]) -> AuditReport {
    let model = Model::parse(files);
    let graph = Graph::new(&model);
    let mut findings = Vec::new();
    r8_panic_reachability(&model, &graph, &mut findings);
    r9_detection_dominance(&model, &graph, &mut findings);
    let certificate = r10_overflow_cert(&model, &graph, files, &mut findings);
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    AuditReport {
        findings,
        certificate,
    }
}

/// Audits the workspace rooted at `root` from disk.
pub fn audit_workspace(root: &Path) -> io::Result<AuditReport> {
    Ok(audit_sources(&collect_sources(root)?))
}

/// The call graph: conservative identifier-based resolution over the
/// non-test fns of the model.
struct Graph<'m> {
    model: &'m Model,
    /// name -> indices of non-test fns with that name.
    by_name: BTreeMap<&'m str, Vec<usize>>,
}

impl<'m> Graph<'m> {
    fn new(model: &'m Model) -> Self {
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in model.fns.iter().enumerate() {
            if !f.in_test_region {
                by_name.entry(&f.name).or_default().push(i);
            }
        }
        Graph { model, by_name }
    }

    fn fns(&self) -> &[FnItem] {
        &self.model.fns
    }

    /// Direct callees of fn `fi` (deduplicated, deterministic order).
    fn callees(&self, fi: usize) -> Vec<usize> {
        let mut out = BTreeSet::new();
        for call in &self.model.fns[fi].calls {
            if let Some(cands) = self.by_name.get(call.name.as_str()) {
                for &c in cands {
                    // Method calls only resolve to fns taking `self`.
                    if !call.method || self.model.fns[c].has_self_param {
                        out.insert(c);
                    }
                }
            }
        }
        out.into_iter().collect()
    }

    /// BFS closure from `roots`; records the call-chain parent of each
    /// newly reached fn for chain reporting.
    fn closure(&self, roots: &[usize]) -> BTreeMap<usize, Option<usize>> {
        let mut parent: BTreeMap<usize, Option<usize>> = BTreeMap::new();
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &r in roots {
            if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(r) {
                e.insert(None);
                queue.push_back(r);
            }
        }
        while let Some(fi) = queue.pop_front() {
            for c in self.callees(fi) {
                if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(c) {
                    e.insert(Some(fi));
                    queue.push_back(c);
                }
            }
        }
        parent
    }

    /// `entry -> … -> fi` chain rendered from a closure's parent map.
    fn chain(&self, parent: &BTreeMap<usize, Option<usize>>, fi: usize) -> String {
        let mut names = vec![self.fns()[fi].name.clone()];
        let mut cur = fi;
        while let Some(Some(p)) = parent.get(&cur) {
            names.push(self.fns()[*p].name.clone());
            cur = *p;
        }
        names.reverse();
        names.join(" -> ")
    }
}

/// True when `rel` belongs to a library crate (R8's universe).
fn is_library(rel: &str) -> bool {
    !UNWRAP_EXEMPT_PREFIXES.iter().any(|p| rel.starts_with(p))
}

/// Like [`has_marker`], but also accepts the marker anywhere in the
/// contiguous comment block directly above the line — a justification
/// that wraps onto several comment lines still counts.
fn has_marker_block(lines: &[crate::lint::Line], idx: usize, marker: &str) -> bool {
    if has_marker(lines, idx, marker) {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let l = &lines[j];
        if !l.code.trim().is_empty() || l.comment.trim().is_empty() {
            return false;
        }
        if l.comment.contains(marker) {
            return true;
        }
    }
    false
}

/// DP/kernel entry points for R8 reachability.
fn entry_points(model: &Model) -> Vec<usize> {
    let mut out = Vec::new();
    for (i, f) in model.fns.iter().enumerate() {
        if f.in_test_region {
            continue;
        }
        let named = |file: &str, names: &[&str]| f.file == file && names.contains(&f.name.as_str());
        if (is_hot(&f.file) && f.is_pub)
            || named(SOLVER_FILE, SOLVER_ENTRIES)
            || named(WAVEFRONT_FILE, WAVEFRONT_ENTRIES)
        {
            out.push(i);
        }
    }
    out
}

fn r8_panic_reachability(model: &Model, graph: &Graph<'_>, findings: &mut Vec<Finding>) {
    let entries = entry_points(model);
    let reach = graph.closure(&entries);
    let mut reported: BTreeSet<(String, usize)> = BTreeSet::new();

    for &fi in reach.keys() {
        let f = &graph.fns()[fi];
        if !is_library(&f.file) || f.in_test_region {
            continue;
        }
        let Some(lines) = model.lines_of(&f.file) else {
            continue;
        };
        let chain = graph.chain(&reach, fi);
        for idx in f.body_start..=f.body_end.min(lines.len().saturating_sub(1)) {
            for tok in PANIC_TOKENS {
                if lines[idx].code.contains(tok)
                    && !has_marker_block(lines, idx, ALLOW_PANIC)
                    && !has_marker_block(lines, idx, ALLOW_UNWRAP)
                    && reported.insert((f.file.clone(), idx + 1))
                {
                    findings.push(Finding {
                        file: f.file.clone(),
                        line: idx + 1,
                        rule: "R8-panic-reachability",
                        message: format!(
                            "`{tok}` is reachable from a DP/kernel entry point (call chain: \
                             {chain}); return a Result or justify with `// {ALLOW_PANIC}`"
                        ),
                    });
                }
            }
        }
        // Public hot-file fns must bounds-guard their indexing in
        // release builds before the optimizer sees the loop.
        if is_hot(&f.file) && f.is_pub && !f.index_lines.is_empty() {
            let guarded = f.calls.iter().any(|c| c.name == "check_boundary")
                || f.macros
                    .iter()
                    .any(|m| RELEASE_ASSERTS.contains(&m.name.as_str()));
            if !guarded {
                findings.push(Finding {
                    file: f.file.clone(),
                    line: f.index_lines[0],
                    rule: "R8-panic-reachability",
                    message: format!(
                        "pub hot-kernel fn `{}` has {} slice-index expression(s) but no \
                         release-mode bounds guard (`check_boundary` or `assert!` family; \
                         `debug_assert!` compiles out in release)",
                        f.name,
                        f.index_lines.len()
                    ),
                });
            }
        }
    }
}

/// `Type::Variant` mentions (both segments capitalized) in one code line.
fn variants_in(code: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let b: Vec<char> = code.chars().collect();
    let mut i = 0;
    let ident_from = |b: &[char], mut j: usize| -> (String, usize) {
        let s = j;
        while j < b.len() && (b[j].is_alphanumeric() || b[j] == '_') {
            j += 1;
        }
        (b[s..j].iter().collect(), j)
    };
    while i < b.len() {
        if b[i].is_alphabetic()
            && b[i].is_uppercase()
            && (i == 0 || !crate::lint::is_ident_char(b[i - 1]))
        {
            let (first, j) = ident_from(&b, i);
            if j + 1 < b.len() && b[j] == ':' && b[j + 1] == ':' {
                let (second, k) = ident_from(&b, j + 2);
                if second.chars().next().is_some_and(|c| c.is_uppercase()) {
                    out.insert(format!("{first}::{second}"));
                }
                i = k;
                continue;
            }
            i = j;
        } else {
            i += 1;
        }
    }
    out
}

fn r9_detection_dominance(model: &Model, graph: &Graph<'_>, findings: &mut Vec<Finding>) {
    // Kernel fns: carry #[target_feature(enable = "…")].
    let kernels: Vec<usize> = model
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.target_features.is_empty() && !f.in_test_region)
        .map(|(i, _)| i)
        .collect();
    if kernels.is_empty() {
        return;
    }
    let mut closure_cache: BTreeMap<usize, BTreeMap<usize, Option<usize>>> = BTreeMap::new();

    for &ki in &kernels {
        let needed: BTreeSet<&str> = model.fns[ki]
            .target_features
            .iter()
            .map(String::as_str)
            .collect();
        let kname = &model.fns[ki].name;
        for (ci, caller) in model.fns.iter().enumerate() {
            if ci == ki || caller.in_test_region {
                continue;
            }
            let Some(call) = caller
                .calls
                .iter()
                .find(|c| &c.name == kname && (!c.method || model.fns[ki].has_self_param))
            else {
                continue;
            };
            if dominated(model, graph, caller, call.line, &needed, &mut closure_cache) {
                continue;
            }
            findings.push(Finding {
                file: caller.file.clone(),
                line: call.line,
                rule: "R9-detection-dominance",
                message: format!(
                    "call to `#[target_feature(enable = \"{}\")]` fn `{kname}` in `{}` is not \
                     dominated by an `is_x86_feature_detected!` check, the FLSA_KERNEL_FORCE \
                     gate, or a feature-proving constructor",
                    model.fns[ki].target_features.join(","),
                    caller.name
                ),
            });
        }
    }
}

/// The three dominance tiers for one call site (see module docs).
fn dominated(
    model: &Model,
    graph: &Graph<'_>,
    caller: &FnItem,
    call_line: usize,
    needed: &BTreeSet<&str>,
    cache: &mut BTreeMap<usize, BTreeMap<usize, Option<usize>>>,
) -> bool {
    // (a) The caller itself promises a superset ISA.
    let caller_feats: BTreeSet<&str> = caller.target_features.iter().map(String::as_str).collect();
    if needed.iter().all(|f| caller_feats.contains(f)) {
        return true;
    }
    // (b) The caller's own body proves the features or consults the gate.
    if caller.mentions_force_gate || needed.iter().all(|f| caller.detects.contains(*f)) {
        return true;
    }
    // (c) Constructor admission for a guarded method dispatch.
    let (true, Some(ty)) = (caller.has_self_param, caller.self_type.as_deref()) else {
        return false;
    };
    let Some(lines) = model.lines_of(&caller.file) else {
        return false;
    };
    // The match arm guarding this call: nearest `=>` line at or above
    // the call site, still inside the body.
    let mut guards: BTreeSet<String> = BTreeSet::new();
    let mut idx = (call_line - 1).min(lines.len().saturating_sub(1));
    loop {
        let code = &lines[idx].code;
        if code.contains("=>") {
            let pattern = code.split("=>").next().unwrap_or("");
            guards = variants_in(pattern);
            break;
        }
        if idx == caller.body_start || idx == 0 {
            break;
        }
        idx -= 1;
    }
    if guards.is_empty() {
        return false;
    }
    // Every constructor of the receiver type must be admissible.
    let ctors: Vec<usize> = model
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| {
            !f.in_test_region
                && (f.struct_literals.contains(ty)
                    || (f.struct_literals.contains("Self") && f.self_type.as_deref() == Some(ty)))
        })
        .map(|(i, _)| i)
        .collect();
    if ctors.is_empty() {
        return false;
    }
    ctors.iter().all(|&c| {
        let reach = cache
            .entry(c)
            .or_insert_with(|| graph.closure(&[c]))
            .clone();
        let mut detects: BTreeSet<&str> = BTreeSet::new();
        let mut force = false;
        let mut mentions_guard = false;
        for &fi in reach.keys() {
            let f = &model.fns[fi];
            detects.extend(f.detects.iter().map(String::as_str));
            force |= f.mentions_force_gate;
            mentions_guard |= f.variants.iter().any(|v| guards.contains(v));
        }
        force || needed.iter().all(|f| detects.contains(*f)) || !mentions_guard
    })
}

/// Integer literals (with sign) in one lexed code line.
fn int_literals(code: &str) -> Vec<i64> {
    let b: Vec<char> = code.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if b[i].is_ascii_digit() && (i == 0 || !crate::lint::is_ident_char(b[i - 1])) {
            let neg = i > 0 && b[i - 1] == '-';
            let mut v: i64 = 0;
            let mut overflow = false;
            while i < b.len() && (b[i].is_ascii_digit() || b[i] == '_') {
                if b[i] != '_' {
                    v = match v
                        .checked_mul(10)
                        .and_then(|x| x.checked_add((b[i] as u8 - b'0') as i64))
                    {
                        Some(x) => x,
                        None => {
                            overflow = true;
                            v
                        }
                    };
                }
                i += 1;
            }
            // Skip type suffixes (`-4i32`).
            while i < b.len() && crate::lint::is_ident_char(b[i]) {
                i += 1;
            }
            if !overflow {
                out.push(if neg { -v } else { v });
            }
        } else {
            i += 1;
        }
    }
    out
}

/// Largest |argument| at `prefix(…)` call sites in `code`, capped to
/// the first `max_args` literals after the opening paren.
fn call_arg_extreme(code: &str, prefix: &str, max_args: usize) -> i64 {
    let mut best = 0i64;
    let mut rest = code;
    while let Some(p) = rest.find(prefix) {
        rest = &rest[p + prefix.len()..];
        let args: String = rest.chars().take_while(|c| *c != ')').collect();
        let mut lits = int_literals(&args);
        lits.truncate(max_args);
        // Affine per-cell worst case pays open + extend on one step.
        let sum: i64 = lits.iter().map(|v| v.abs()).sum();
        best = best.max(sum);
    }
    best
}

fn r10_overflow_cert(
    model: &Model,
    graph: &Graph<'_>,
    files: &[(String, String)],
    findings: &mut Vec<Finding>,
) -> Certificate {
    // Substitution extrema: every literal in the baked score tables,
    // plus match/mismatch constructor arguments anywhere.
    let mut sub_abs = 0i64;
    let mut gap_abs = 0i64;
    for (rel, _) in files {
        let Some(lines) = model.lines_of(rel) else {
            continue;
        };
        let is_tables = rel.ends_with("src/tables.rs");
        for line in lines {
            if is_tables {
                sub_abs = int_literals(&line.code)
                    .iter()
                    .map(|v| v.abs())
                    .fold(sub_abs, i64::max);
            }
            sub_abs = sub_abs.max(call_arg_extreme(&line.code, "match_mismatch(", 2));
            gap_abs = gap_abs.max(call_arg_extreme(&line.code, "GapModel::linear(", 1));
            gap_abs = gap_abs.max(call_arg_extreme(&line.code, "GapModel::affine(", 2));
        }
    }
    let s = sub_abs.max(1);
    let g = gap_abs.max(1);
    let c = s.max(g);
    let unit = c + g;
    let max_span = ((i32::MAX as i64) / unit - 1).max(0) as u64;

    // Guard wiring: each alignment entry point must reach the runtime
    // overflow guard on the call graph.
    let mut guards = Vec::new();
    for entry in OVERFLOW_GUARDED_ENTRIES {
        let roots: Vec<usize> = model
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| &f.name == entry && !f.in_test_region)
            .map(|(i, _)| i)
            .collect();
        if roots.is_empty() {
            continue;
        }
        let reach = graph.closure(&roots);
        let wired = reach
            .keys()
            .any(|&fi| OVERFLOW_GUARDS.contains(&model.fns[fi].name.as_str()));
        if !wired {
            let f = &model.fns[roots[0]];
            findings.push(Finding {
                file: f.file.clone(),
                line: f.decl_line,
                rule: "R10-overflow-cert",
                message: format!(
                    "alignment entry point `{entry}` never reaches the overflow guard \
                     (`max_safe_span` / `validate_run`): an accepted input can overflow \
                     i32 scores beyond span {max_span}"
                ),
            });
        }
        guards.push((entry.to_string(), wired));
    }

    Certificate {
        sub_abs_max: s,
        gap_abs_max: g,
        cell_coeff: c,
        unit_cost: unit,
        max_span,
        max_len_square: max_span / 2,
        guards,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn audit(files: &[(&str, &str)]) -> AuditReport {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect();
        audit_sources(&owned)
    }

    fn rules(report: &AuditReport) -> Vec<&'static str> {
        report.findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn r8_flags_panic_two_calls_deep_with_chain() {
        let kernel = "\
pub fn fill_full(top: &[i32]) -> i32 {
    helper(top)
}
fn helper(top: &[i32]) -> i32 { deep(top) }
fn deep(top: &[i32]) -> i32 { top.first().copied().unwrap() }
";
        let r = audit(&[("crates/dp/src/kernel.rs", kernel)]);
        let f: Vec<_> = r
            .findings
            .iter()
            .filter(|f| f.rule == "R8-panic-reachability")
            .collect();
        assert_eq!(f.len(), 1, "{:?}", r.findings);
        assert_eq!(f[0].line, 5);
        assert!(
            f[0].message.contains("fill_full -> helper -> deep"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn r8_honors_allow_markers_and_test_regions() {
        let kernel = "\
pub fn fill_full(top: &[i32]) -> i32 { helper(top) }
fn helper(top: &[i32]) -> i32 {
    // flsa-check: allow(panic) -- boundary validated by check_boundary
    top.first().copied().unwrap()
}
#[cfg(test)]
mod tests {
    fn t() { None::<u32>.unwrap(); }
}
";
        let r = audit(&[("crates/dp/src/kernel.rs", kernel)]);
        assert_eq!(rules(&r), Vec::<&str>::new(), "{:?}", r.findings);
    }

    #[test]
    fn r8_panics_in_unreachable_fns_stay_quiet() {
        let src = "\
pub fn fill_full(top: &[i32]) -> i32 { top.len() as i32 }
fn orphan() { panic!(\"never called from a kernel entry\"); }
";
        let r = audit(&[("crates/dp/src/kernel.rs", src)]);
        assert_eq!(rules(&r), Vec::<&str>::new(), "{:?}", r.findings);
    }

    #[test]
    fn r8_requires_release_guard_for_pub_hot_indexing() {
        let bad = "pub fn fill_row(v: &mut [i32]) { v[0] = 1; }\n";
        let r = audit(&[("crates/dp/src/kernel.rs", bad)]);
        assert_eq!(rules(&r), vec!["R8-panic-reachability"]);
        assert!(r.findings[0].message.contains("bounds guard"));

        let asserted = "pub fn fill_row(v: &mut [i32]) { assert!(!v.is_empty()); v[0] = 1; }\n";
        let r = audit(&[("crates/dp/src/kernel.rs", asserted)]);
        assert_eq!(rules(&r), Vec::<&str>::new(), "{:?}", r.findings);

        // debug_assert! is not a release guard.
        let dbg = "pub fn fill_row(v: &mut [i32]) { debug_assert!(!v.is_empty()); v[0] = 1; }\n";
        let r = audit(&[("crates/dp/src/kernel.rs", dbg)]);
        assert_eq!(rules(&r), vec!["R8-panic-reachability"]);
    }

    #[test]
    fn r9_tier_a_and_b_accept_feature_proofs() {
        let src = "\
/// # Safety
/// Caller proves AVX2.
#[target_feature(enable = \"avx2\")]
pub(crate) unsafe fn inner(x: &mut [i32]) { if !x.is_empty() { x[0] = 1; } }
/// # Safety
/// Same contract, forwarded.
#[target_feature(enable = \"avx2\")]
pub(crate) unsafe fn outer(x: &mut [i32]) {
    // SAFETY: same ISA contract as ours.
    unsafe { inner(x) }
}
pub fn dispatch(x: &mut [i32]) {
    if is_x86_feature_detected!(\"avx2\") {
        // SAFETY: detected above.
        unsafe { outer(x) }
    }
}
";
        let r = audit(&[("crates/dp/src/simd/x86.rs", src)]);
        assert!(
            !rules(&r).contains(&"R9-detection-dominance"),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn r9_flags_an_undominated_call() {
        let src = "\
/// # Safety
/// Caller proves AVX2.
#[target_feature(enable = \"avx2\")]
pub(crate) unsafe fn inner(x: &mut [i32]) { x.fill(0); }
pub fn reckless(x: &mut [i32]) {
    // SAFETY: (wrong) assumed AVX2.
    unsafe { inner(x) }
}
";
        let r = audit(&[("crates/dp/src/simd/x86.rs", src)]);
        let f: Vec<_> = r
            .findings
            .iter()
            .filter(|f| f.rule == "R9-detection-dominance")
            .collect();
        assert_eq!(f.len(), 1, "{:?}", r.findings);
        assert!(f[0].message.contains("reckless"), "{}", f[0].message);
    }

    #[test]
    fn r9_tier_c_accepts_constructor_admission() {
        let src = "\
pub enum Backend { Scalar, Avx2 }
pub struct Kernel { backend: Backend }
impl Kernel {
    pub fn scalar() -> Kernel { Kernel { backend: Backend::Scalar } }
    pub fn auto() -> Kernel {
        if is_x86_feature_detected!(\"avx2\") {
            return Kernel { backend: Backend::Avx2 };
        }
        Kernel { backend: Backend::Scalar }
    }
    pub fn run(&self, x: &mut [i32]) {
        match self.backend {
            Backend::Scalar => x.fill(0),
            Backend::Avx2 => {
                // SAFETY: Avx2 admitted only by a detecting constructor.
                unsafe { fast(x) }
            }
        }
    }
}
/// # Safety
/// Caller proves AVX2.
#[target_feature(enable = \"avx2\")]
pub(crate) unsafe fn fast(x: &mut [i32]) { x.fill(1); }
";
        let r = audit(&[("crates/dp/src/simd/mod.rs", src)]);
        assert!(
            !rules(&r).contains(&"R9-detection-dominance"),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn r9_tier_c_rejects_a_leaky_constructor() {
        // `sneaky` builds the Avx2 variant with no detection anywhere
        // in its closure: constructor admission must fail.
        let src = "\
pub enum Backend { Scalar, Avx2 }
pub struct Kernel { backend: Backend }
impl Kernel {
    pub fn sneaky() -> Kernel { Kernel { backend: Backend::Avx2 } }
    pub fn run(&self, x: &mut [i32]) {
        match self.backend {
            Backend::Scalar => x.fill(0),
            Backend::Avx2 => {
                // SAFETY: (wrong) nothing proved this.
                unsafe { fast(x) }
            }
        }
    }
}
/// # Safety
/// Caller proves AVX2.
#[target_feature(enable = \"avx2\")]
pub(crate) unsafe fn fast(x: &mut [i32]) { x.fill(1); }
";
        let r = audit(&[("crates/dp/src/simd/mod.rs", src)]);
        assert!(
            rules(&r).contains(&"R9-detection-dominance"),
            "{:?}",
            r.findings
        );
    }

    /// The byte band's shape: a three-feature kernel reached from a
    /// `Backend::Avx512` arm of a `Kernel` whose constructor proves only
    /// `avx512f`, through `byte_fill` in `body`.
    fn byte_band_fixture(body: &str) -> String {
        format!(
            "\
pub enum Backend {{ Scalar, Avx512 }}
pub struct Kernel {{ backend: Backend }}
impl Kernel {{
    pub fn auto() -> Kernel {{
        if is_x86_feature_detected!(\"avx512f\") {{
            return Kernel {{ backend: Backend::Avx512 }};
        }}
        Kernel {{ backend: Backend::Scalar }}
    }}
    pub fn fill(&self, x: &mut [i32]) {{
        match self.backend {{
            Backend::Scalar => x.fill(0),
            Backend::Avx512 => {{
                {body}
            }}
        }}
    }}
}}
/// # Safety
/// Caller proves AVX-512 F, BW and VBMI.
#[target_feature(enable = \"avx512f,avx512bw,avx512vbmi\")]
pub(crate) unsafe fn byte_fill(x: &mut [i32]) {{ x.fill(1); }}
"
        )
    }

    #[test]
    fn r9_flags_a_vbmi_kernel_behind_an_avx512f_constructor() {
        // The constructor detects avx512f alone: the arm's admission does
        // not prove avx512bw or avx512vbmi.
        let src = byte_band_fixture(
            "// SAFETY: (wrong) Avx512 was admitted on avx512f alone.
                unsafe { byte_fill(x) }",
        );
        let r = audit(&[("crates/dp/src/simd/mod.rs", &src)]);
        let f: Vec<_> = r
            .findings
            .iter()
            .filter(|f| f.rule == "R9-detection-dominance")
            .collect();
        assert_eq!(f.len(), 1, "{:?}", r.findings);
        assert!(f[0].message.contains("byte_fill"), "{}", f[0].message);
        assert!(f[0].message.contains("avx512vbmi"), "{}", f[0].message);
    }

    #[test]
    fn r9_accepts_a_vbmi_kernel_called_where_all_three_features_are_detected() {
        let src = byte_band_fixture(
            "let cpu = is_x86_feature_detected!(\"avx512f\")
                    && is_x86_feature_detected!(\"avx512bw\")
                    && is_x86_feature_detected!(\"avx512vbmi\");
                if cpu {
                    // SAFETY: all three features detected just above.
                    unsafe { byte_fill(x) }
                }",
        );
        let r = audit(&[("crates/dp/src/simd/mod.rs", &src)]);
        assert!(
            !rules(&r).contains(&"R9-detection-dominance"),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn r10_derives_the_span_bound_from_extrema() {
        let files = [
            (
                "crates/scoring/src/tables.rs",
                "pub const T: [i32; 2] = [-11, 10];\n",
            ),
            (
                "crates/core/src/lib.rs",
                "pub fn align_opts(m: usize) -> i32 {\n    validate_run(m)\n}\n\
                 fn validate_run(m: usize) -> i32 { m as i32 }\n\
                 fn pick() { let _ = GapModel::linear(-20); }\n",
            ),
        ];
        let r = audit(&files);
        assert_eq!(r.certificate.sub_abs_max, 11);
        assert_eq!(r.certificate.gap_abs_max, 20);
        assert_eq!(r.certificate.cell_coeff, 20);
        assert_eq!(r.certificate.unit_cost, 40);
        assert_eq!(r.certificate.max_span, (i32::MAX as u64) / 40 - 1);
        assert!(
            !rules(&r).contains(&"R10-overflow-cert"),
            "{:?}",
            r.findings
        );
        assert!(r
            .certificate
            .guards
            .contains(&("align_opts".to_string(), true)));
    }

    #[test]
    fn r10_flags_an_unguarded_entry_point() {
        let files = [
            (
                "crates/core/src/lib.rs",
                "pub fn align_opts(m: usize) -> i32 { m as i32 }\n",
            ),
            (
                "crates/scoring/src/tables.rs",
                "pub const T: [i32; 1] = [100_000_000];\n",
            ),
        ];
        let r = audit(&files);
        assert!(rules(&r).contains(&"R10-overflow-cert"), "{:?}", r.findings);
        assert_eq!(r.certificate.sub_abs_max, 100_000_000);
    }

    #[test]
    fn certificate_json_round_trips_the_key_fields() {
        let files = [(
            "crates/scoring/src/tables.rs",
            "pub const T: [i32; 1] = [-7];\n",
        )];
        let r = audit(&files);
        let json = r.certificate.to_json(r.findings.len());
        assert!(json.contains("\"sub_abs_max\": 7"), "{json}");
        assert!(json.contains("\"max_span\""), "{json}");
        assert!(json.contains("\"version\": 1"), "{json}");
    }
}
