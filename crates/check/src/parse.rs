//! Item-level model of the workspace sources for the semantic audit.
//!
//! A small in-repo Rust parser — not a full grammar, but enough structure
//! for interprocedural analysis: it tokenizes the lexed code (strings
//! blanked, comments stripped by [`crate::lint`]'s line lexer) and
//! recovers, per file:
//!
//! * `fn` items with name, declaration line, body extent, `pub`/`unsafe`
//!   modifiers, `self` parameter, enclosing `impl` target type, and any
//!   `#[target_feature(enable = "…")]` attributes;
//! * call sites (free/path calls and `.method(` calls) and macro
//!   invocations inside each body;
//! * slice-index expressions (`expr[…]`), struct-literal type names
//!   (`Type { … }`), and `Type::Variant` path mentions;
//! * `is_x86_feature_detected!("…")` features and quoted
//!   `"FLSA_KERNEL_FORCE"` mentions per body.
//!
//! The model is deliberately conservative where Rust is ambiguous: name
//! resolution is by identifier (the audit passes over-approximate the
//! call graph), struct patterns count as struct literals, and attribute
//! lines are skipped wholesale so `#[cfg(…)]` arguments never register
//! as calls. That direction of error only ever *adds* edges and checks,
//! which is the safe side for R8/R9.

use crate::lint::{first_quoted, is_ident_char, lex, test_region_start, Line};
use std::collections::BTreeSet;

/// One call site inside a fn body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CallSite {
    /// Callee name: the last path segment for `a::b::f(…)`, the method
    /// name for `recv.f(…)`.
    pub name: String,
    /// 1-based source line.
    pub line: usize,
    /// True for `.name(…)` method-call syntax.
    pub method: bool,
}

/// One parsed `fn` item.
#[derive(Clone, Debug, Default)]
pub struct FnItem {
    /// Workspace-relative path of the defining file.
    pub file: String,
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub decl_line: usize,
    /// 0-based line range of the body, inclusive (empty for `fn …;`).
    pub body_start: usize,
    pub body_end: usize,
    /// Target type of the enclosing `impl` block, if any (for
    /// `impl Trait for Type`, the `Type`).
    pub self_type: Option<String>,
    pub is_unsafe: bool,
    pub is_pub: bool,
    pub has_self_param: bool,
    /// Features from `#[target_feature(enable = "…")]` attributes
    /// directly above the declaration.
    pub target_features: Vec<String>,
    /// Declared at or after the file's `#[cfg(test)]` region.
    pub in_test_region: bool,
    pub calls: Vec<CallSite>,
    /// Macro invocation names (`!` stripped).
    pub macros: Vec<CallSite>,
    /// 1-based lines containing a slice-index expression.
    pub index_lines: Vec<usize>,
    /// Struct-literal type names appearing in the body (`Type { … }`,
    /// including struct patterns — conservative by design).
    pub struct_literals: BTreeSet<String>,
    /// `Type::Variant` path mentions (both idents capitalized).
    pub variants: BTreeSet<String>,
    /// Features checked via `is_x86_feature_detected!("…")` in the body.
    pub detects: BTreeSet<String>,
    /// Body mentions the `"FLSA_KERNEL_FORCE"` env gate as a string
    /// literal (quoted in the raw source, so comments don't count).
    pub mentions_force_gate: bool,
}

impl FnItem {
    /// 1-based body line range for reporting.
    pub fn body_lines(&self) -> std::ops::RangeInclusive<usize> {
        self.body_start + 1..=self.body_end + 1
    }
}

/// The whole workspace, parsed.
#[derive(Debug, Default)]
pub struct Model {
    pub fns: Vec<FnItem>,
    /// Per-file lexed lines, kept for the passes' line-level checks
    /// (panic tokens, markers, match-arm guards).
    pub(crate) files: Vec<(String, Vec<Line>)>,
}

impl Model {
    /// Parses a set of `(relative path, contents)` sources.
    pub fn parse(files: &[(String, String)]) -> Model {
        let mut model = Model::default();
        for (rel, text) in files {
            parse_file(rel, text, &mut model);
        }
        model
    }

    /// Lexed lines of `file`, if it is part of the model.
    pub(crate) fn lines_of(&self, file: &str) -> Option<&[Line]> {
        self.files
            .iter()
            .find(|(f, _)| f == file)
            .map(|(_, l)| l.as_slice())
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Tok {
    Ident(String),
    /// Single punctuation character; numbers are dropped entirely.
    P(char),
}

/// Tokenizes the lexed code of one file into `(line_idx, token)` pairs.
/// Attribute lines (`#[…]` / `#![…]`) are skipped so their arguments
/// never masquerade as calls or index expressions.
fn tokenize(lines: &[Line]) -> Vec<(usize, Tok)> {
    let mut toks = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let code = line.code.trim();
        if code.starts_with("#[") || code.starts_with("#![") {
            continue;
        }
        let b: Vec<char> = line.code.chars().collect();
        let mut i = 0;
        while i < b.len() {
            let c = b[i];
            if c.is_whitespace() {
                i += 1;
            } else if c.is_alphabetic() || c == '_' {
                let start = i;
                while i < b.len() && is_ident_char(b[i]) {
                    i += 1;
                }
                toks.push((idx, Tok::Ident(b[start..i].iter().collect())));
            } else if c.is_ascii_digit() {
                // Number literal (incl. suffixes like `0u8`); dropped.
                while i < b.len() && is_ident_char(b[i]) {
                    i += 1;
                }
            } else {
                toks.push((idx, Tok::P(c)));
                i += 1;
            }
        }
    }
    toks
}

/// Keywords that can directly precede `(` without being calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "let", "in", "move", "as", "where",
    "impl", "dyn", "break", "continue", "else", "unsafe", "pub", "use", "mod", "crate", "super",
    "ref", "mut", "box", "static", "const", "extern", "async", "await", "struct", "enum", "trait",
    "type", "union",
];

/// `fn` modifiers scanned backwards from the `fn` keyword.
const FN_MODIFIERS: &[&str] = &["pub", "unsafe", "const", "extern", "async"];

/// Keywords that exclude a following `Ident {` from struct-literal
/// detection (`impl Kernel {`, `struct Foo {`, …).
const NON_LITERAL_PRECEDERS: &[&str] = &[
    "impl", "for", "struct", "enum", "union", "trait", "mod", "use",
];

struct FileParser<'a> {
    rel: &'a str,
    raw: Vec<&'a str>,
    lines: &'a [Line],
    toks: Vec<(usize, Tok)>,
    test_start: usize,
}

fn parse_file(rel: &str, text: &str, model: &mut Model) {
    let lines = lex(text);
    let toks = tokenize(&lines);
    let p = FileParser {
        rel,
        raw: text.lines().collect(),
        lines: &lines,
        toks,
        test_start: test_region_start(&lines),
    };
    p.run(model);
    model.files.push((rel.to_string(), lines));
}

impl<'a> FileParser<'a> {
    fn ident_at(&self, i: usize) -> Option<&str> {
        match self.toks.get(i) {
            Some((_, Tok::Ident(s))) => Some(s),
            _ => None,
        }
    }

    fn punct_at(&self, i: usize) -> Option<char> {
        match self.toks.get(i) {
            Some((_, Tok::P(c))) => Some(*c),
            _ => None,
        }
    }

    fn line_of(&self, i: usize) -> usize {
        self.toks.get(i).map_or(0, |(l, _)| *l)
    }

    /// `::` at token positions `i`, `i+1`.
    fn is_path_sep(&self, i: usize) -> bool {
        self.punct_at(i) == Some(':') && self.punct_at(i + 1) == Some(':')
    }

    /// Position of the `>` that closes the generic list opened by a `<`
    /// at `open`, skipping nested lists and the `>` of `->`; `None` when
    /// no `<` is there or the statement ends first.
    fn generic_list_end(&self, open: usize) -> Option<usize> {
        if self.punct_at(open) != Some('<') {
            return None;
        }
        let mut depth = 0usize;
        for j in open..self.toks.len() {
            match self.punct_at(j) {
                Some('<') => depth += 1,
                Some('>') if self.punct_at(j - 1) != Some('-') => {
                    depth -= 1;
                    if depth == 0 {
                        return Some(j);
                    }
                }
                Some(';' | '{' | '}') => return None,
                _ => {}
            }
        }
        None
    }

    /// Features enabled by `#[target_feature(enable = "…")]` attribute
    /// lines directly above `decl_idx` (skipping other attributes,
    /// comment-only and blank lines).
    fn features_above(&self, decl_idx: usize) -> Vec<String> {
        let mut feats = Vec::new();
        let mut j = decl_idx;
        while j > 0 {
            j -= 1;
            let code = self.lines[j].code.trim();
            if code.is_empty() {
                // Comment-only or genuinely blank line: keep scanning.
                continue;
            }
            if !(code.starts_with("#[") || code.starts_with("#![")) {
                break;
            }
            if code.contains("target_feature") {
                if let Some(p) = self.raw[j].find("enable") {
                    if let Some(csv) = first_quoted(&self.raw[j][p..]) {
                        for f in csv.split(',').map(str::trim).filter(|f| !f.is_empty()) {
                            feats.push(f.to_string());
                        }
                    }
                }
            }
        }
        feats.sort();
        feats.dedup();
        feats
    }

    /// Main parse loop: tracks brace depth plus `impl` and `fn` stacks,
    /// and attributes body-level facts to the innermost open fn.
    fn run(&self, model: &mut Model) {
        let mut depth: usize = 0;
        // (target type, depth inside the impl body)
        let mut impl_stack: Vec<(String, usize)> = Vec::new();
        // (index into out, depth inside the fn body)
        let mut fn_stack: Vec<(usize, usize)> = Vec::new();
        let mut pending_impl: Option<String> = None;
        let mut out: Vec<FnItem> = Vec::new();

        let mut i = 0;
        while i < self.toks.len() {
            match &self.toks[i].1 {
                Tok::P('{') => {
                    depth += 1;
                    if let Some(ty) = pending_impl.take() {
                        impl_stack.push((ty, depth));
                    }
                    i += 1;
                }
                Tok::P('}') => {
                    if let Some(&(fi, d)) = fn_stack.last() {
                        if d == depth {
                            out[fi].body_end = self.line_of(i);
                            fn_stack.pop();
                        }
                    }
                    if let Some(&(_, d)) = impl_stack.last() {
                        if d == depth {
                            impl_stack.pop();
                        }
                    }
                    depth = depth.saturating_sub(1);
                    i += 1;
                }
                Tok::Ident(w) if w == "impl" && self.ident_at(i + 1) != Some("Trait") => {
                    // `impl<T> Trait for Type {` / `impl Type {`: recover
                    // the target type, leave `i` on the opening brace.
                    let (ty, next) = self.parse_impl_header(i + 1);
                    pending_impl = ty;
                    i = next;
                }
                Tok::Ident(w) if w == "fn" => {
                    if let Some((item, next, opened)) = self.parse_fn(i) {
                        let mut item = item;
                        item.self_type = impl_stack.last().map(|(t, _)| t.clone());
                        out.push(item);
                        if opened {
                            depth += 1;
                            fn_stack.push((out.len() - 1, depth));
                        }
                        i = next;
                    } else {
                        i += 1;
                    }
                }
                Tok::Ident(w) => {
                    self.body_ident(i, w, fn_stack.last().map(|&(fi, _)| fi), &mut out);
                    i += 1;
                }
                Tok::P('[') => {
                    if let Some(&(fi, _)) = fn_stack.last() {
                        // Index expression: `expr[` where expr ends in an
                        // identifier, `]` or `)`.
                        let indexes = match self.toks.get(i.wrapping_sub(1)) {
                            Some((_, Tok::Ident(id))) => !NON_CALL_KEYWORDS.contains(&id.as_str()),
                            Some((_, Tok::P(']'))) | Some((_, Tok::P(')'))) => true,
                            _ => false,
                        };
                        if indexes {
                            let ln = self.line_of(i) + 1;
                            if out[fi].index_lines.last() != Some(&ln) {
                                out[fi].index_lines.push(ln);
                            }
                        }
                    }
                    i += 1;
                }
                Tok::P(_) => i += 1,
            }
        }
        // Unterminated bodies (truncated file): close at EOF.
        let last_line = self.lines.len().saturating_sub(1);
        for &(fi, _) in &fn_stack {
            out[fi].body_end = last_line;
        }
        model.fns.extend(out);
    }

    /// Parses an `impl` header starting after the `impl` keyword.
    /// Returns the target type and the token index of the opening `{`
    /// (or of whatever stopped the scan).
    fn parse_impl_header(&self, mut i: usize) -> (Option<String>, usize) {
        let mut last_type: Option<String> = None;
        let mut after_for = false;
        while i < self.toks.len() {
            match &self.toks[i].1 {
                Tok::P('{') | Tok::P(';') => break,
                Tok::P('<') => {
                    // Skip balanced generics, tolerating `->` inside.
                    let mut angle = 1usize;
                    i += 1;
                    while i < self.toks.len() && angle > 0 {
                        match self.punct_at(i) {
                            Some('<') => angle += 1,
                            Some('>') if self.punct_at(i.wrapping_sub(1)) != Some('-') => {
                                angle -= 1
                            }
                            _ => {}
                        }
                        i += 1;
                    }
                }
                Tok::Ident(w) if w == "for" => {
                    after_for = true;
                    last_type = None;
                    i += 1;
                }
                Tok::Ident(w) if w == "where" => {
                    // `impl … where …: no type info past this point.
                    i += 1;
                }
                Tok::Ident(w) => {
                    // Keep the last path segment seen; `a::b::Type`
                    // overwrites as segments go by.
                    if last_type.is_none() || self.is_path_sep(i.wrapping_sub(2)) || !after_for {
                        last_type = Some(w.clone());
                    }
                    i += 1;
                }
                Tok::P(_) => i += 1,
            }
        }
        (last_type, i)
    }

    /// Parses a `fn` item starting at the `fn` keyword token.
    /// Returns `(item, next token index, body_opened)`; when
    /// `body_opened` the index is just past the `{` and the caller owns
    /// pushing the fn onto its stack.
    fn parse_fn(&self, fn_idx: usize) -> Option<(FnItem, usize, bool)> {
        let name = self.ident_at(fn_idx + 1)?.to_string();
        let decl_line = self.line_of(fn_idx);

        // Modifiers: walk backwards over `pub`, `pub(crate)`, `unsafe`, …
        let mut is_pub = false;
        let mut is_unsafe = false;
        let mut j = fn_idx;
        while j > 0 {
            j -= 1;
            match &self.toks[j].1 {
                Tok::Ident(w) if FN_MODIFIERS.contains(&w.as_str()) => {
                    is_pub |= w == "pub";
                    is_unsafe |= w == "unsafe";
                }
                Tok::Ident(w) if w == "crate" || w == "super" || w == "in" || w == "self" => {}
                Tok::P('(') | Tok::P(')') => {}
                _ => break,
            }
        }

        // Signature: optional generics, then the argument parens.
        let mut i = fn_idx + 2;
        if self.punct_at(i) == Some('<') {
            let mut angle = 1usize;
            i += 1;
            while i < self.toks.len() && angle > 0 {
                match self.punct_at(i) {
                    Some('<') => angle += 1,
                    Some('>') if self.punct_at(i.wrapping_sub(1)) != Some('-') => angle -= 1,
                    _ => {}
                }
                i += 1;
            }
        }
        let mut has_self_param = false;
        if self.punct_at(i) == Some('(') {
            let mut paren = 1usize;
            i += 1;
            while i < self.toks.len() && paren > 0 {
                match &self.toks[i].1 {
                    Tok::P('(') => paren += 1,
                    Tok::P(')') => paren -= 1,
                    Tok::Ident(w) if w == "self" && paren == 1 => has_self_param = true,
                    _ => {}
                }
                i += 1;
            }
        }
        // Return type / where clause: skip to the body `{` or a `;`.
        let mut opened = false;
        while i < self.toks.len() {
            match self.punct_at(i) {
                Some('{') => {
                    opened = true;
                    i += 1;
                    break;
                }
                Some(';') => {
                    i += 1;
                    break;
                }
                _ => i += 1,
            }
        }

        let body_line = if opened {
            self.line_of(i.saturating_sub(1))
        } else {
            decl_line
        };
        Some((
            FnItem {
                file: self.rel.to_string(),
                name,
                decl_line: decl_line + 1,
                body_start: body_line,
                body_end: body_line,
                is_unsafe,
                is_pub,
                has_self_param,
                target_features: self.features_above(decl_line),
                in_test_region: decl_line >= self.test_start,
                ..FnItem::default()
            },
            i,
            opened,
        ))
    }

    /// Handles an identifier token inside (possibly) a fn body: call /
    /// macro / variant / struct-literal / detection extraction.
    fn body_ident(&self, i: usize, w: &str, fn_of: Option<usize>, out: &mut [FnItem]) {
        let Some(fi) = fn_of else { return };
        let item = &mut out[fi];
        let line = self.line_of(i);
        let lineno = line + 1;
        let prev_dot = self.punct_at(i.wrapping_sub(1)) == Some('.');
        let kw = NON_CALL_KEYWORDS.contains(&w);

        match self.punct_at(i + 1) {
            Some('!') => {
                if w == "is_x86_feature_detected" {
                    if let Some(p) = self.raw[line].find("is_x86_feature_detected") {
                        if let Some(feat) = first_quoted(&self.raw[line][p..]) {
                            item.detects.insert(feat.to_string());
                        }
                    }
                }
                item.macros.push(CallSite {
                    name: w.to_string(),
                    line: lineno,
                    method: false,
                });
            }
            Some('(') if !kw => {
                item.calls.push(CallSite {
                    name: w.to_string(),
                    line: lineno,
                    method: prev_dot,
                });
            }
            Some(':') if self.is_path_sep(i + 1) => {
                // `w::<…>(` — a turbofish call, recorded as `w(` would be.
                let after = self.generic_list_end(i + 3).map_or(0, |close| close + 1);
                if !kw && after > 0 && self.punct_at(after) == Some('(') {
                    item.calls.push(CallSite {
                        name: w.to_string(),
                        line: lineno,
                        method: prev_dot,
                    });
                }
                // `w::next` — record uppercase variant pairs.
                if let Some(next) = self.ident_at(i + 3) {
                    let w_up = w.chars().next().is_some_and(|c| c.is_uppercase());
                    let n_up = next.chars().next().is_some_and(|c| c.is_uppercase());
                    if w_up && n_up {
                        item.variants.insert(format!("{w}::{next}"));
                    }
                }
            }
            Some('{') if !kw => {
                let starts_upper = w.chars().next().is_some_and(|c| c.is_uppercase());
                let prev_excludes = match self.ident_at(i.wrapping_sub(1)) {
                    Some(p) => NON_LITERAL_PRECEDERS.contains(&p),
                    None => false,
                };
                // `Path::Variant { … }` is an enum-variant literal, not
                // a plain struct literal of `Variant`.
                let path_qualified = self.is_path_sep(i.wrapping_sub(2));
                if starts_upper && !prev_excludes && !prev_dot && !path_qualified {
                    item.struct_literals.insert(w.to_string());
                }
            }
            _ => {}
        }
        if w == "Self" && self.punct_at(i + 1) == Some('{') {
            item.struct_literals.insert("Self".to_string());
        }
        // Quoted env-gate mention on this line (string literal in the
        // raw source — comments rarely quote it).
        if !item.mentions_force_gate && self.raw[line].contains("\"FLSA_KERNEL_FORCE\"") {
            item.mentions_force_gate = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_one(rel: &str, text: &str) -> Model {
        Model::parse(&[(rel.to_string(), text.to_string())])
    }

    fn find<'m>(m: &'m Model, name: &str) -> &'m FnItem {
        m.fns
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("fn `{name}` not parsed"))
    }

    #[test]
    fn parses_fn_modifiers_and_impl_types() {
        let src = "\
pub struct Kernel { backend: u8 }
impl Kernel {
    pub(crate) fn try_new(b: u8) -> Option<Kernel> {
        Some(Kernel { backend: b })
    }
    pub fn run(&self) -> i32 { self.step() }
    unsafe fn raw(&mut self) {}
}
impl Default for Kernel {
    fn default() -> Kernel { Kernel::scalar() }
}
fn free() {}
";
        let m = parse_one("crates/x/src/lib.rs", src);
        let t = find(&m, "try_new");
        assert_eq!(t.self_type.as_deref(), Some("Kernel"));
        assert!(t.is_pub && !t.is_unsafe && !t.has_self_param);
        assert!(t.struct_literals.contains("Kernel"));
        let r = find(&m, "run");
        assert!(r.has_self_param && r.is_pub);
        assert_eq!(r.calls.len(), 1);
        assert!(r.calls[0].method && r.calls[0].name == "step");
        assert!(find(&m, "raw").is_unsafe);
        let d = find(&m, "default");
        assert_eq!(d.self_type.as_deref(), Some("Kernel"));
        assert!(d.calls.iter().any(|c| c.name == "scalar" && !c.method));
        assert_eq!(find(&m, "free").self_type, None);
    }

    #[test]
    fn multi_line_signatures_and_bodies() {
        let src = "\
pub fn fill(
    top: &[i32],
    left: &[i32],
) -> Vec<i32> {
    let mut v = top.to_vec();
    helper(&mut v);
    v
}
fn helper(v: &mut Vec<i32>) { v.push(0); }
";
        let m = parse_one("crates/x/src/lib.rs", src);
        let f = find(&m, "fill");
        assert_eq!(f.decl_line, 1);
        assert_eq!(f.body_lines(), 4..=8);
        assert!(f.calls.iter().any(|c| c.name == "helper"));
        assert!(f.calls.iter().any(|c| c.name == "to_vec" && c.method));
    }

    #[test]
    fn target_features_detection_and_force_gate() {
        let src = "\
/// # Safety
/// ISA proven by caller.
#[inline]
#[target_feature(enable = \"avx2\")]
pub(crate) unsafe fn row_avx2(x: &mut [i32]) { x[0] = 1; }

pub fn dispatch(x: &mut [i32]) {
    if is_x86_feature_detected!(\"avx2\") {
        // SAFETY: detected above.
        unsafe { row_avx2(x) }
    }
}
pub fn forced() -> Option<String> { std::env::var(\"FLSA_KERNEL_FORCE\").ok() }
";
        let m = parse_one("crates/dp/src/simd/x86.rs", src);
        let k = find(&m, "row_avx2");
        assert_eq!(k.target_features, vec!["avx2"]);
        assert!(k.is_unsafe);
        assert_eq!(k.index_lines, vec![5]);
        let d = find(&m, "dispatch");
        assert!(d.detects.contains("avx2"));
        assert!(d.calls.iter().any(|c| c.name == "row_avx2" && !c.method));
        assert!(find(&m, "forced").mentions_force_gate);
    }

    #[test]
    fn variants_indexes_and_test_region() {
        let src = "\
pub fn pick(b: Backend, v: &[i32]) -> i32 {
    match b {
        Backend::Fast => v[0],
        Backend::Slow => v.get(1).copied().unwrap_or(0),
    }
}
#[cfg(test)]
mod tests {
    fn in_tests() { helper(); }
}
";
        let m = parse_one("crates/x/src/lib.rs", src);
        let p = find(&m, "pick");
        assert!(p.variants.contains("Backend::Fast"));
        assert!(p.variants.contains("Backend::Slow"));
        assert_eq!(p.index_lines, vec![3]);
        assert!(!p.in_test_region);
        assert!(find(&m, "in_tests").in_test_region);
        // `match b {` must not register a struct literal or a call.
        assert!(!p.struct_literals.contains("b"));
        assert!(!p.calls.iter().any(|c| c.name == "match"));
    }

    #[test]
    fn attribute_lines_do_not_register_calls_or_indexes() {
        let src = "\
pub fn f() {
    #[cfg(target_arch = \"x86_64\")]
    inner();
}
";
        let m = parse_one("crates/x/src/lib.rs", src);
        let f = find(&m, "f");
        assert!(!f.calls.iter().any(|c| c.name == "cfg"));
        assert!(f.calls.iter().any(|c| c.name == "inner"));
        assert!(f.index_lines.is_empty());
    }

    #[test]
    fn turbofish_calls_are_recorded() {
        let src = "\
pub fn f(x: &mut [i32]) -> Option<Vec<i32>> {
    inner::<true>(x);
    byte_sweep_rows::<N>(x);
    let v = x.iter().copied().collect::<Vec<i32>>();
    Self::edge_step::<Box<dyn Fn() -> i32>>(v);
    let t: Option<Vec<u8>> = None;
    None
}
";
        let m = parse_one("crates/x/src/lib.rs", src);
        let f = find(&m, "f");
        let call =
            |name: &str, method: bool| f.calls.iter().any(|c| c.name == name && c.method == method);
        assert!(call("inner", false) && call("byte_sweep_rows", false));
        assert!(call("collect", true) && call("edge_step", false));
        // A type's generic list is no call.
        assert!(!f
            .calls
            .iter()
            .any(|c| c.name == "Option" || c.name == "Vec"));
    }

    #[test]
    fn trait_method_declarations_parse_without_bodies() {
        let src = "\
pub trait Sink {
    fn save(&mut self, blob: &[u8]) -> bool;
    fn flush(&mut self) { self.save(&[]); }
}
";
        let m = parse_one("crates/x/src/lib.rs", src);
        let s = find(&m, "save");
        assert!(s.has_self_param);
        let f = find(&m, "flush");
        assert!(f.calls.iter().any(|c| c.name == "save" && c.method));
    }
}
