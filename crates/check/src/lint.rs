//! Source-level lint rules for the workspace.
//!
//! A deliberately small, dependency-free scanner: a line-oriented lexer
//! splits each source line into *code* and *comment* halves (string
//! literals are blanked, block comments and raw strings tracked across
//! lines), and the rules below run over the result:
//!
//! * **R1-safety-comment** — every occurrence of the `unsafe` keyword
//!   must be justified by a `// SAFETY:` comment on the same line or in
//!   the comment/attribute block immediately above it (a doc block
//!   containing a `# Safety` section also counts, for `unsafe fn`
//!   declarations).
//! * **R2-no-panic-hot-kernel** — the DP hot kernels
//!   (`dp::kernel`, `dp::affine` and the `fullmatrix` fill loops) must
//!   not contain `.unwrap()`, `.expect(`, `panic!`, `unreachable!`,
//!   `todo!` or `unimplemented!` outside `#[cfg(test)]` modules.
//!   Intentional invariant panics carry a `// flsa-check: allow(panic)`
//!   marker on the same or previous line.
//! * **R3-relaxed-justified** — every `Ordering::Relaxed` must carry a
//!   comment (same line, or a comment line directly above the
//!   contiguous block of `Relaxed` lines) saying why relaxed ordering
//!   suffices; `// flsa-check: allow(relaxed)` also works.
//! * **R4-forbid-unsafe** — a crate whose sources contain no `unsafe`
//!   at all must declare `#![forbid(unsafe_code)]` in every crate root
//!   (`src/lib.rs` / `src/main.rs`) so the property is load-bearing.
//! * **R5-no-unwrap-in-library** — library crates must not call
//!   `.unwrap()` or `.expect(` outside `#[cfg(test)]` modules: the
//!   public API is fallible (`AlignError`), so failures must travel as
//!   `Result`, not as panics. Intentional invariant unwraps carry a
//!   `// flsa-check: allow(unwrap)` marker on the same or previous
//!   line. Binary and dev-tool crates (`crates/cli`, `crates/bench`,
//!   `crates/check`) are exempt, as are the DP hot kernels already
//!   covered by the stricter R2.
//! * **R6-target-feature** — `#[target_feature(enable = "…")]` is the
//!   one attribute that lets callers assume an ISA the build did not
//!   prove, so it is confined to `crates/dp/src/simd/`, the function it
//!   annotates must be `unsafe fn` (callers are forced to prove CPU
//!   support), and every enabled feature must have a matching
//!   `is_x86_feature_detected!("…")` call site somewhere in the scanned
//!   sources. This rule is workspace-global: the detection call site
//!   may live in a different file than the kernel it guards.
//! * **R7-metric-names** — metric registration sites
//!   (`.counter("…")`, `.gauge("…")`, `.histogram("…")`) must not pass
//!   inline string literals: every metric name is a constant in
//!   `flsa_metrics::names`, which keeps the Prometheus namespace
//!   collision-free and greppable. `crates/metrics/src/` itself is
//!   exempt (it defines the API and the names), as are `#[cfg(test)]`
//!   modules; a deliberate dynamic name carries a
//!   `// flsa-check: allow(metric-name)` marker.
//!
//! Scope: production sources only — `src/` trees of the workspace root
//! and every `crates/*` member. Integration tests, benches, fixtures,
//! `target/` and `vendor/` are not scanned. `#[cfg(test)]` modules at
//! the tail of a file are exempt from R2/R3/R5 (but not R1: unsafe in
//! tests still needs a SAFETY story).

use std::fs;
use std::io;
use std::path::Path;

/// One lint violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Path of the offending file, relative to the scanned root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier, e.g. `"R1-safety-comment"`.
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Files whose inner loops are DP hot kernels (rule R2).
pub(crate) const HOT_FILES: &[&str] = &["crates/dp/src/kernel.rs", "crates/dp/src/affine.rs"];

/// Directory prefixes that are hot wholesale (rule R2).
pub(crate) const HOT_PREFIXES: &[&str] = &["crates/fullmatrix/src/", "crates/dp/src/simd/"];

/// The only directory allowed to hold `#[target_feature]` fns (rule R6).
const SIMD_DIR: &str = "crates/dp/src/simd/";

/// Panic-family tokens banned in hot kernels.
pub(crate) const PANIC_TOKENS: &[&str] = &[
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

/// Panic-carrying calls banned in library crates (rule R5).
const UNWRAP_TOKENS: &[&str] = &[".unwrap()", ".expect("];

/// Crates exempt from R5: binaries and dev tooling whose top level *is*
/// the process, so panicking on a broken invariant is acceptable there.
pub(crate) const UNWRAP_EXEMPT_PREFIXES: &[&str] =
    &["crates/cli/", "crates/bench/", "crates/check/"];

/// Registration calls that must take a `flsa_metrics::names` constant,
/// not an inline literal (rule R7). The lexer blanks string contents but
/// keeps the quote characters, so `.counter("` in lexed code means a
/// literal was passed, while `.counter(names::…` has no quote.
const METRIC_TOKENS: &[&str] = &[".counter(\"", ".gauge(\"", ".histogram(\""];

/// The one directory allowed to spell metric names out: the metrics
/// crate itself, which defines both the API and the names module.
const METRICS_CRATE_PREFIX: &str = "crates/metrics/src/";

pub(crate) const ALLOW_PANIC: &str = "flsa-check: allow(panic)";
const ALLOW_RELAXED: &str = "flsa-check: allow(relaxed)";
pub(crate) const ALLOW_UNWRAP: &str = "flsa-check: allow(unwrap)";
const ALLOW_METRIC_NAME: &str = "flsa-check: allow(metric-name)";

pub(crate) fn is_hot(rel: &str) -> bool {
    HOT_FILES.contains(&rel) || HOT_PREFIXES.iter().any(|p| rel.starts_with(p))
}

/// One source line after lexing: executable text with strings blanked,
/// and the concatenated comment text.
#[derive(Clone, Debug, Default)]
pub(crate) struct Line {
    pub(crate) code: String,
    pub(crate) comment: String,
}

/// Lexer state carried across lines: block-comment depth, an open raw
/// string (`Some(n)` = waiting for `"` followed by `n` hashes), and an
/// open ordinary string.
#[derive(Default)]
struct Lexer {
    block_depth: usize,
    raw_hashes: Option<usize>,
    in_string: bool,
}

impl Lexer {
    /// Consumes one physical line and splits it into code and comment.
    fn feed(&mut self, line: &str) -> Line {
        let b: Vec<char> = line.chars().collect();
        let mut code = String::new();
        let mut comment = String::new();
        let mut i = 0;
        while i < b.len() {
            if self.block_depth > 0 {
                if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                    self.block_depth -= 1;
                    i += 2;
                } else if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                    self.block_depth += 1;
                    i += 2;
                } else {
                    comment.push(b[i]);
                    i += 1;
                }
                continue;
            }
            if let Some(n) = self.raw_hashes {
                if b[i] == '"'
                    && b[i + 1..].len() >= n
                    && b[i + 1..i + 1 + n].iter().all(|c| *c == '#')
                {
                    self.raw_hashes = None;
                    code.push('"');
                    i += 1 + n;
                } else {
                    i += 1;
                }
                continue;
            }
            if self.in_string {
                if b[i] == '\\' {
                    i += 2;
                } else if b[i] == '"' {
                    self.in_string = false;
                    code.push('"');
                    i += 1;
                } else {
                    i += 1;
                }
                continue;
            }
            match b[i] {
                '/' if b.get(i + 1) == Some(&'/') => {
                    comment.push_str(&b[i + 2..].iter().collect::<String>());
                    break;
                }
                '/' if b.get(i + 1) == Some(&'*') => {
                    self.block_depth = 1;
                    i += 2;
                }
                '"' => {
                    self.in_string = true;
                    code.push('"');
                    i += 1;
                }
                'r' | 'b' if !prev_is_ident(&code) => {
                    if let Some(consumed) = raw_string_start(&b, i) {
                        self.raw_hashes = Some(consumed.hashes);
                        code.push('"');
                        i += consumed.len;
                    } else if b[i] == 'b' && b.get(i + 1) == Some(&'"') {
                        // Byte string: same escape rules as an ordinary one.
                        self.in_string = true;
                        code.push('"');
                        i += 2;
                    } else {
                        code.push(b[i]);
                        i += 1;
                    }
                }
                '\'' => {
                    if b.get(i + 1) == Some(&'\\') {
                        // Escaped char literal: skip to the closing quote.
                        let mut j = i + 2;
                        while j < b.len() && b[j] != '\'' {
                            j += 1;
                        }
                        i = j + 1;
                    } else if b.get(i + 2) == Some(&'\'') {
                        i += 3;
                    } else {
                        // Lifetime or label: plain code.
                        code.push('\'');
                        i += 1;
                    }
                }
                c => {
                    code.push(c);
                    i += 1;
                }
            }
        }
        Line { code, comment }
    }
}

struct RawStart {
    hashes: usize,
    len: usize,
}

/// Recognizes `r"`, `r#"`, `br"` … at position `i`.
fn raw_string_start(b: &[char], i: usize) -> Option<RawStart> {
    let mut j = i;
    if b[j] == 'b' {
        j += 1;
    }
    if b.get(j) != Some(&'r') {
        return None;
    }
    j += 1;
    let mut hashes = 0;
    while b.get(j) == Some(&'#') {
        hashes += 1;
        j += 1;
    }
    if b.get(j) == Some(&'"') {
        Some(RawStart {
            hashes,
            len: j + 1 - i,
        })
    } else {
        None
    }
}

pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn prev_is_ident(code: &str) -> bool {
    code.chars().next_back().is_some_and(is_ident_char)
}

/// True when `code` contains `tok` as a standalone identifier (not as a
/// substring of a longer identifier, e.g. `unsafe` inside `unsafe_code`).
pub(crate) fn has_token(code: &str, tok: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(tok) {
        let p = start + pos;
        let e = p + tok.len();
        let before_ok = p == 0 || !code[..p].chars().next_back().is_some_and(is_ident_char);
        let after_ok = !code[e..].chars().next().is_some_and(is_ident_char);
        if before_ok && after_ok {
            return true;
        }
        start = p + 1;
    }
    false
}

pub(crate) fn lex(text: &str) -> Vec<Line> {
    let mut lexer = Lexer::default();
    text.lines().map(|l| lexer.feed(l)).collect()
}

/// Index of the first `#[cfg(test)]` line, i.e. where the trailing test
/// module starts (the workspace convention); lines from there on are
/// exempt from R2/R3.
pub(crate) fn test_region_start(lines: &[Line]) -> usize {
    lines
        .iter()
        .position(|l| l.code.contains("#[cfg(test)]"))
        .unwrap_or(lines.len())
}

/// R1: the `unsafe` on line `idx` is justified by a SAFETY comment on
/// the same line or in the comment/attribute block directly above (a
/// `# Safety` doc section counts for declarations).
fn r1_satisfied(lines: &[Line], idx: usize) -> bool {
    let justifies = |c: &str| c.contains("SAFETY") || c.contains("# Safety");
    if justifies(&lines[idx].comment) {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        if justifies(&lines[j].comment) {
            return true;
        }
        let code = lines[j].code.trim();
        if code.is_empty() || code.starts_with("#[") || code.starts_with("#![") {
            continue;
        }
        return false;
    }
    false
}

/// R2/R3 escape hatch: the marker on the same or the previous line.
pub(crate) fn has_marker(lines: &[Line], idx: usize, marker: &str) -> bool {
    lines[idx].comment.contains(marker) || (idx > 0 && lines[idx - 1].comment.contains(marker))
}

/// R3: the `Relaxed` on line `idx` carries a same-line comment, or a
/// comment line sits directly above the contiguous run of `Relaxed`
/// lines it belongs to.
fn r3_satisfied(lines: &[Line], idx: usize) -> bool {
    if !lines[idx].comment.trim().is_empty() {
        return true;
    }
    let mut j = idx;
    while j > 0 {
        j -= 1;
        let l = &lines[j];
        if l.code.trim().is_empty() && !l.comment.trim().is_empty() {
            return true;
        }
        if has_token(&l.code, "Relaxed") {
            continue;
        }
        return false;
    }
    false
}

/// Lints one file's text; appends findings and reports whether the file
/// contains any `unsafe` code (for R4 aggregation).
fn lint_file(rel: &str, text: &str, findings: &mut Vec<Finding>) -> bool {
    let lines = lex(text);
    let test_start = test_region_start(&lines);
    let hot = is_hot(rel);
    let library = !UNWRAP_EXEMPT_PREFIXES.iter().any(|p| rel.starts_with(p));
    let mut has_unsafe = false;

    for (idx, line) in lines.iter().enumerate() {
        let lineno = idx + 1;
        if has_token(&line.code, "unsafe") {
            has_unsafe = true;
            if !r1_satisfied(&lines, idx) {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: lineno,
                    rule: "R1-safety-comment",
                    message:
                        "`unsafe` without a `// SAFETY:` comment on this line or the block above"
                            .to_string(),
                });
            }
        }
        if idx >= test_start {
            continue;
        }
        if hot {
            for tok in PANIC_TOKENS {
                if line.code.contains(tok) && !has_marker(&lines, idx, ALLOW_PANIC) {
                    findings.push(Finding {
                        file: rel.to_string(),
                        line: lineno,
                        rule: "R2-no-panic-hot-kernel",
                        message: format!(
                            "`{tok}` in a DP hot kernel (mark intentional invariant panics with `// {ALLOW_PANIC}`)"
                        ),
                    });
                }
            }
        }
        if library && !hot {
            for tok in UNWRAP_TOKENS {
                if line.code.contains(tok) && !has_marker(&lines, idx, ALLOW_UNWRAP) {
                    findings.push(Finding {
                        file: rel.to_string(),
                        line: lineno,
                        rule: "R5-no-unwrap-in-library",
                        message: format!(
                            "`{tok}` in a library crate: return a Result or mark the \
                             invariant with `// {ALLOW_UNWRAP}`"
                        ),
                    });
                }
            }
        }
        if !rel.starts_with(METRICS_CRATE_PREFIX) {
            for tok in METRIC_TOKENS {
                if line.code.contains(tok) && !has_marker(&lines, idx, ALLOW_METRIC_NAME) {
                    findings.push(Finding {
                        file: rel.to_string(),
                        line: lineno,
                        rule: "R7-metric-names",
                        message: format!(
                            "inline metric name at a `{tok}…\")` site: use a \
                             `flsa_metrics::names` constant (or mark with \
                             `// {ALLOW_METRIC_NAME}`)"
                        ),
                    });
                }
            }
        }
        if has_token(&line.code, "Relaxed")
            && !has_marker(&lines, idx, ALLOW_RELAXED)
            && !r3_satisfied(&lines, idx)
        {
            findings.push(Finding {
                file: rel.to_string(),
                line: lineno,
                rule: "R3-relaxed-justified",
                message:
                    "`Ordering::Relaxed` without a comment saying why relaxed ordering suffices"
                        .to_string(),
            });
        }
    }
    has_unsafe
}

/// The first `"…"` literal in `s`, if any.
pub(crate) fn first_quoted(s: &str) -> Option<&str> {
    let open = s.find('"')?;
    let rest = &s[open + 1..];
    let close = rest.find('"')?;
    Some(&rest[..close])
}

/// Feature names with a runtime `is_x86_feature_detected!("…")` call
/// site anywhere in the scanned sources (rule R6). Read from the *raw*
/// text: the feature name is a string literal, which the lexer blanks.
fn detected_features(files: &[(String, String)]) -> std::collections::BTreeSet<String> {
    let mut out = std::collections::BTreeSet::new();
    for (_, text) in files {
        for line in text.lines() {
            let mut rest = line;
            while let Some(p) = rest.find("is_x86_feature_detected!") {
                rest = &rest[p + "is_x86_feature_detected!".len()..];
                if let Some(feat) = first_quoted(rest) {
                    out.insert(feat.to_string());
                }
            }
        }
    }
    out
}

/// R6: every `#[target_feature]` attribute must live under [`SIMD_DIR`],
/// annotate an `unsafe fn`, and enable only features that some scanned
/// file runtime-detects. The gate is the lexed code (so mentions in
/// comments or string literals don't count), but the feature names are
/// read from the raw line because the lexer blanks string contents.
fn r6_target_feature(
    rel: &str,
    text: &str,
    detected: &std::collections::BTreeSet<String>,
    findings: &mut Vec<Finding>,
) {
    let raw: Vec<&str> = text.lines().collect();
    let lines = lex(text);
    for idx in 0..lines.len() {
        if !lines[idx].code.contains("#[target_feature") {
            continue;
        }
        let lineno = idx + 1;
        if !rel.starts_with(SIMD_DIR) {
            findings.push(Finding {
                file: rel.to_string(),
                line: lineno,
                rule: "R6-target-feature",
                message: format!(
                    "`#[target_feature]` outside `{SIMD_DIR}`: explicit-ISA kernels are \
                     confined there"
                ),
            });
        }
        // The annotated fn must be `unsafe`: it may share this line or
        // follow after further attribute / comment-only lines.
        let mut decl = None;
        let mut j = idx;
        while j < lines.len() {
            let code = lines[j].code.trim();
            if has_token(code, "fn") {
                decl = Some(j);
                break;
            }
            if j > idx && !(code.is_empty() || code.starts_with("#[") || code.starts_with("#![")) {
                break;
            }
            j += 1;
        }
        if !decl.is_some_and(|d| has_token(&lines[d].code, "unsafe")) {
            findings.push(Finding {
                file: rel.to_string(),
                line: lineno,
                rule: "R6-target-feature",
                message: "`#[target_feature]` on a non-`unsafe fn`: callers must be forced to \
                          prove CPU support at the call site"
                    .to_string(),
            });
        }
        // Every enabled feature needs a runtime-detection call site.
        let Some(p) = raw[idx].find("enable") else {
            continue;
        };
        let Some(csv) = first_quoted(&raw[idx][p..]) else {
            continue;
        };
        for feat in csv.split(',').map(str::trim).filter(|f| !f.is_empty()) {
            if !detected.contains(feat) {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: lineno,
                    rule: "R6-target-feature",
                    message: format!(
                        "feature \"{feat}\" has no `is_x86_feature_detected!(\"{feat}\")` call \
                         site anywhere in the workspace"
                    ),
                });
            }
        }
    }
}

/// Lints a set of `(relative path, contents)` sources as one workspace:
/// runs R1–R3/R5 per file, R6 per file against the workspace-wide
/// detection set, and R4 per crate. This is the pure core —
/// [`lint_workspace`] feeds it from disk, tests feed it inline strings.
pub fn lint_sources(files: &[(String, String)]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let detected = detected_features(files);
    // crate key -> (has_unsafe, root files seen)
    let mut crates: std::collections::BTreeMap<String, (bool, Vec<usize>)> =
        std::collections::BTreeMap::new();

    for (i, (rel, text)) in files.iter().enumerate() {
        let has_unsafe = lint_file(rel, text, &mut findings);
        r6_target_feature(rel, text, &detected, &mut findings);
        let key = crate_key(rel);
        let entry = crates.entry(key).or_default();
        entry.0 |= has_unsafe;
        if is_crate_root(rel) {
            entry.1.push(i);
        }
    }

    for (key, (has_unsafe, roots)) in &crates {
        if *has_unsafe {
            continue;
        }
        for &i in roots {
            let (rel, text) = &files[i];
            let declares = lex(text)
                .iter()
                .any(|l| l.code.contains("#![forbid(unsafe_code)]"));
            if !declares {
                findings.push(Finding {
                    file: rel.clone(),
                    line: 1,
                    rule: "R4-forbid-unsafe",
                    message: format!(
                        "crate `{key}` has no unsafe code but does not declare #![forbid(unsafe_code)]"
                    ),
                });
            }
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    findings
}

/// Crate a source file belongs to: `crates/<name>/…` or the workspace
/// root facade.
fn crate_key(rel: &str) -> String {
    let mut parts = rel.split('/');
    if parts.next() == Some("crates") {
        if let Some(name) = parts.next() {
            return name.to_string();
        }
    }
    "fastlsa (workspace root)".to_string()
}

/// `src/lib.rs` and `src/main.rs` are crate roots (each is a separate
/// compilation target, so R4 requires the attribute on each).
fn is_crate_root(rel: &str) -> bool {
    rel.ends_with("src/lib.rs") || rel.ends_with("src/main.rs")
}

/// Collects the production sources under `root`: `<root>/src/**/*.rs`
/// and `<root>/crates/*/src/**/*.rs`, sorted for determinism.
pub fn collect_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk(&root_src, root, &mut files)?;
    }
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<_> = fs::read_dir(&crates_dir)?
            .collect::<io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        members.sort();
        for member in members {
            let src = member.join("src");
            if src.is_dir() {
                walk(&src, root, &mut files)?;
            }
        }
    }
    files.sort();
    Ok(files)
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<(String, String)>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if matches!(name, "target" | "vendor" | "fixtures" | ".git") {
                continue;
            }
            walk(&path, root, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push((rel, fs::read_to_string(&path)?));
        }
    }
    Ok(())
}

/// Lints the workspace rooted at `root` from disk.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    Ok(lint_sources(&collect_sources(root)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(rel: &str, text: &str) -> Vec<Finding> {
        lint_sources(&[(rel.to_string(), text.to_string())])
    }

    fn rules(findings: &[Finding]) -> Vec<&'static str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn lexer_strips_line_and_block_comments() {
        let lines = lex("let x = 1; // unsafe panic!\n/* unsafe\nstill comment */ let y = 2;");
        assert_eq!(lines[0].code.trim(), "let x = 1;");
        assert!(lines[0].comment.contains("unsafe"));
        assert!(!has_token(&lines[1].code, "unsafe"));
        assert_eq!(lines[2].code.trim(), "let y = 2;");
    }

    #[test]
    fn lexer_blanks_strings_and_handles_raw_strings_and_lifetimes() {
        let lines = lex("let s = \"unsafe panic!()\"; let l: &'a str = r#\"Relaxed \" quote\"#;");
        assert!(!has_token(&lines[0].code, "unsafe"));
        assert!(!lines[0].code.contains("panic!"));
        assert!(!has_token(&lines[0].code, "Relaxed"));
        assert!(lines[0].code.contains("'a str"));
        let lines = lex("let c = '\"'; let d = \"after the char literal\"; panic!();");
        assert!(lines[0].code.contains("panic!"));
        assert!(!lines[0].code.contains("after the char"));
    }

    #[test]
    fn token_matching_respects_identifier_boundaries() {
        assert!(has_token("unsafe { }", "unsafe"));
        assert!(!has_token("#![forbid(unsafe_code)]", "unsafe"));
        assert!(has_token("Ordering::Relaxed", "Relaxed"));
        assert!(!has_token("RelaxedOrdering", "Relaxed"));
    }

    #[test]
    fn r1_accepts_same_line_preceding_block_and_safety_doc_section() {
        let ok = "\
// SAFETY: fine
unsafe { a() }
let x = unsafe { b() }; // SAFETY: also fine
/// # Safety
/// Caller must hold the lock.
pub unsafe fn c() {}
";
        assert_eq!(one("crates/x/src/lib.rs", ok), vec![]);
        let bad = "fn f() {\n    unsafe { a() }\n}\n";
        let f = one("crates/x/src/lib.rs", bad);
        assert_eq!(rules(&f), vec!["R1-safety-comment"]);
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn r2_flags_panics_only_in_hot_files_outside_tests() {
        let src = "fn f(o: Option<u32>) -> u32 { o.unwrap() }\n#[cfg(test)]\nmod t { fn g() { panic!(); } }\n";
        assert_eq!(
            rules(&one("crates/dp/src/kernel.rs", src)),
            vec!["R2-no-panic-hot-kernel"]
        );
        // Outside the hot list R2 stays quiet (the unwrap is R5's business).
        assert_eq!(
            rules(&one("crates/dp/src/matrix.rs", src)),
            vec!["R5-no-unwrap-in-library"]
        );
        let marked = "fn f() {\n    // flsa-check: allow(panic)\n    panic!(\"corrupt DPM\");\n}\n";
        assert_eq!(one("crates/fullmatrix/src/nw.rs", marked), vec![]);
    }

    #[test]
    fn r3_accepts_same_line_or_block_comment_above_a_relaxed_run() {
        let ok = "\
fn f(c: &C) {
    c.a.load(Ordering::Relaxed); // Relaxed: monotonic counter
    // Relaxed: snapshot needs no ordering between fields.
    c.b.load(Ordering::Relaxed);
    c.d.load(Ordering::Relaxed);
}
";
        assert_eq!(one("crates/x/src/m.rs", ok), vec![]);
        let bad = "fn f(c: &C) {\n    c.a.load(Ordering::Relaxed);\n}\n";
        assert_eq!(
            rules(&one("crates/x/src/m.rs", bad)),
            vec!["R3-relaxed-justified"]
        );
    }

    #[test]
    fn r4_requires_forbid_only_on_zero_unsafe_crates() {
        let clean = [(
            "crates/clean/src/lib.rs".to_string(),
            "pub fn f() {}\n".to_string(),
        )];
        assert_eq!(rules(&lint_sources(&clean)), vec!["R4-forbid-unsafe"]);
        let declared = [(
            "crates/clean/src/lib.rs".to_string(),
            "#![forbid(unsafe_code)]\npub fn f() {}\n".to_string(),
        )];
        assert_eq!(lint_sources(&declared), vec![]);
        let has_unsafe = [(
            "crates/raw/src/lib.rs".to_string(),
            "// SAFETY: test\npub fn f() { unsafe { g() } }\n".to_string(),
        )];
        assert_eq!(lint_sources(&has_unsafe), vec![]);
    }

    #[test]
    fn r5_flags_unwrap_in_library_crates_but_not_tools_or_tests() {
        let src = "pub fn f(o: Option<u32>) -> u32 { o.unwrap() }\n\
                   #[cfg(test)]\nmod t { fn g(o: Option<u32>) { o.unwrap(); } }\n";
        assert_eq!(
            rules(&one("crates/core/src/solver.rs", src)),
            vec!["R5-no-unwrap-in-library"]
        );
        // Binaries and dev tooling may unwrap at top level.
        assert_eq!(one("crates/cli/src/args.rs", src), vec![]);
        assert_eq!(one("crates/bench/src/experiments.rs", src), vec![]);
        assert_eq!(one("crates/check/src/model.rs", src), vec![]);
        // Hot kernels are covered by the stricter R2, not double-reported.
        let f = one("crates/dp/src/kernel.rs", src);
        assert_eq!(rules(&f), vec!["R2-no-panic-hot-kernel"]);
    }

    #[test]
    fn r5_accepts_the_allow_unwrap_marker_and_expects_are_covered() {
        let marked = "pub fn f(o: Option<u32>) -> u32 {\n\
                      \x20   // flsa-check: allow(unwrap) -- len checked above\n\
                      \x20   o.unwrap()\n}\n";
        assert_eq!(one("crates/core/src/grid.rs", marked), vec![]);
        let expect = "pub fn f(o: Option<u32>) -> u32 { o.expect(\"set\") }\n";
        assert_eq!(
            rules(&one("crates/wavefront/src/pool.rs", expect)),
            vec!["R5-no-unwrap-in-library"]
        );
    }

    #[test]
    fn r6_accepts_confined_unsafe_and_detected_kernels() {
        let kernel = "\
/// # Safety
/// Caller must have proven AVX2 support at runtime.
#[target_feature(enable = \"avx2\")]
pub(crate) unsafe fn f() {}
";
        // The detection call site lives in a *different* file — R6 is
        // workspace-global, mirroring the real dispatch layout.
        let dispatch = "pub fn up() -> bool { std::arch::is_x86_feature_detected!(\"avx2\") }\n";
        let files = [
            ("crates/dp/src/simd/x86.rs".to_string(), kernel.to_string()),
            (
                "crates/dp/src/simd/mod.rs".to_string(),
                dispatch.to_string(),
            ),
        ];
        assert_eq!(lint_sources(&files), vec![]);
    }

    #[test]
    fn r6_flags_escaped_safe_and_undetected_target_feature_fns() {
        // Outside the simd dir, on a safe fn, feature never detected:
        // three distinct findings anchored to the attribute line.
        let bad = "#[target_feature(enable = \"avx512vnni\")]\npub fn f() {}\n";
        let f = one("crates/core/src/fast.rs", bad);
        assert_eq!(rules(&f), vec!["R6-target-feature"; 3]);
        assert!(f.iter().all(|x| x.line == 1));

        // Confined and detected, but the fn is safe: exactly one finding.
        let safe_fn = "#[target_feature(enable = \"avx2\")]\nfn f() {}\n\
                       pub fn d() -> bool { is_x86_feature_detected!(\"avx2\") }\n";
        let f = one("crates/dp/src/simd/k.rs", safe_fn);
        assert_eq!(rules(&f), vec!["R6-target-feature"]);
    }

    #[test]
    fn r6_checks_each_enabled_feature_against_detection_sites() {
        let src = "\
/// # Safety
/// ISA proven by the dispatcher.
#[target_feature(enable = \"avx2,bmi2\")]
pub unsafe fn f() {}
pub fn d() -> bool { is_x86_feature_detected!(\"avx2\") }
";
        let f = one("crates/dp/src/simd/k.rs", src);
        assert_eq!(rules(&f), vec!["R6-target-feature"]);
        assert!(f[0].message.contains("bmi2"), "{}", f[0].message);
    }

    #[test]
    fn r6_ignores_mentions_in_comments_and_strings() {
        let src = "// `#[target_feature(enable = \"avx2\")]` stays in the simd dir.\n\
                   pub fn f() -> &'static str { \"#[target_feature]\" }\n";
        assert_eq!(one("crates/core/src/doc.rs", src), vec![]);
    }

    #[test]
    fn doc_comment_examples_do_not_trip_r2() {
        let src = "/// ```\n/// let x = v.unwrap();\n/// ```\npub fn f() {}\n";
        assert_eq!(one("crates/dp/src/kernel.rs", src), vec![]);
    }

    #[test]
    fn r7_flags_inline_metric_names_but_not_names_constants() {
        let inline = "pub fn f(reg: &Registry) { reg.counter(\"flsa_cells_total\").inc(); }\n";
        let f = one("crates/core/src/metrics.rs", inline);
        assert_eq!(rules(&f), vec!["R7-metric-names"]);
        assert!(
            f[0].message.contains("flsa_metrics::names"),
            "{}",
            f[0].message
        );
        let constant = "pub fn f(reg: &Registry) { reg.counter(names::CELLS_TOTAL).inc(); }\n";
        assert_eq!(one("crates/core/src/metrics.rs", constant), vec![]);
    }

    #[test]
    fn r7_covers_all_three_instruments() {
        let src = "fn f(r: &Registry) {\n    r.gauge(\"g\").set(1);\n    r.histogram(\"h\").record(2);\n}\n";
        assert_eq!(
            rules(&one("crates/wavefront/src/pool.rs", src)),
            vec!["R7-metric-names"; 2]
        );
    }

    #[test]
    fn r7_exempts_the_metrics_crate_tests_and_marked_sites() {
        let src = "pub fn f(reg: &Registry) { reg.counter(\"x\").inc(); }\n";
        // The metrics crate defines the API and the names module.
        assert_eq!(one("crates/metrics/src/registry.rs", src), vec![]);
        let in_tests = "#[cfg(test)]\nmod t { fn g(r: &Registry) { r.counter(\"x\"); } }\n";
        assert_eq!(one("crates/core/src/metrics.rs", in_tests), vec![]);
        let marked = "fn f(r: &Registry, name: &'static str) {\n\
                      \x20   // flsa-check: allow(metric-name) -- caller-chosen name\n\
                      \x20   r.counter(\"prefix\");\n}\n";
        assert_eq!(one("crates/core/src/metrics.rs", marked), vec![]);
    }
}
