//! Token-tree-grade Rust source analysis for the AST lints.
//!
//! The workspace builds fully offline, so there is no `syn`; instead this
//! module carries a small, honest Rust lexer and delimiter-tree parser
//! that is exact about the things the lints need and nothing more:
//!
//! - comments (line, nested block) and string/char/byte/raw literals are
//!   lexed away, so no lint ever matches inside one;
//! - multi-character operators (`==`, `+=`, `=>`, `..=`, …) are single
//!   tokens, so "is this an assignment?" is a token test, not a substring
//!   heuristic;
//! - `#[cfg(test)]` / `#[test]` items are skipped *as items* — a test
//!   module in the middle of a file no longer blinds the scanner to the
//!   non-test code after it, and `#[cfg(feature = …)]`-gated branches are
//!   scanned like any other code.
//!
//! On top of the trees sit the lint passes proper:
//! [`scan_panics`], [`scan_confinement`] (direct field writes *and*
//! mutations routed through `&mut self` helper methods — the blind spot
//! of the old string scanner), [`scan_wallclock`], and
//! [`scan_compute_purity`]. The mutating-method set is not hard-coded: it
//! is extracted from `impl Router` in `router.rs` by
//! [`router_mut_methods`], so a new `&mut self` method is covered the
//! commit it lands.

use std::collections::BTreeSet;

/// Token categories the lints distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Operator or other punctuation (multi-char operators are one token).
    Punct,
    /// String/char/byte/numeric literal (contents are opaque to lints).
    Literal,
    /// A `'label` or `'lifetime`.
    Lifetime,
}

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// Category.
    pub kind: TokKind,
    /// Source text (literal text is preserved but never matched on).
    pub text: String,
    /// 1-based source line.
    pub line: usize,
}

/// A delimiter tree: either a leaf token or a balanced `(…)`, `[…]`,
/// `{…}` group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tree {
    /// A single token.
    Leaf(Tok),
    /// A balanced delimiter group.
    Group(Group),
}

/// A balanced delimiter group and its children.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    /// Opening delimiter: `(`, `[`, or `{`.
    pub delim: char,
    /// 1-based line of the opening delimiter.
    pub line: usize,
    /// The trees between the delimiters.
    pub children: Vec<Tree>,
}

impl Tree {
    /// The leaf token, if this is a leaf.
    pub fn leaf(&self) -> Option<&Tok> {
        match self {
            Tree::Leaf(t) => Some(t),
            Tree::Group(_) => None,
        }
    }

    /// The group, if this is one with the given delimiter.
    pub fn group(&self, delim: char) -> Option<&Group> {
        match self {
            Tree::Group(g) if g.delim == delim => Some(g),
            _ => None,
        }
    }

    /// True if this is an identifier leaf with the given text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.leaf()
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == text)
    }

    /// True if this is a punct leaf with the given text.
    pub fn is_punct(&self, text: &str) -> bool {
        self.leaf()
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == text)
    }

    /// Source line of this tree's first token.
    pub fn line(&self) -> usize {
        match self {
            Tree::Leaf(t) => t.line,
            Tree::Group(g) => g.line,
        }
    }
}

/// Multi-character operators, longest first so lexing is greedy.
const MULTI_PUNCT: &[&str] = &[
    "..=", "<<=", ">>=", "...", "==", "!=", "<=", ">=", "=>", "->", "::", "&&", "||", "+=", "-=",
    "*=", "/=", "%=", "^=", "&=", "|=", "<<", ">>", "..",
];

/// Compound assignment operators plus plain `=` — exactly the tokens that
/// write through their left-hand side.
const ASSIGN_OPS: &[&str] = &[
    "=", "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "<<=", ">>=",
];

/// Lexes Rust source into tokens, discarding comments and whitespace.
///
/// # Errors
///
/// Returns a message (with a 1-based line) on an unterminated comment,
/// string, or char literal.
pub fn lex(src: &str) -> Result<Vec<Tok>, String> {
    let b = src.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line = 1usize;
    while i < b.len() {
        let c = b[i];
        match c {
            b'\n' => {
                line += 1;
                i += 1;
            }
            _ if c.is_ascii_whitespace() => i += 1,
            b'/' if b.get(i + 1) == Some(&b'/') => {
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if b.get(i + 1) == Some(&b'*') => {
                let start_line = line;
                let mut depth = 1usize;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'\n' {
                        line += 1;
                        i += 1;
                    } else if b[i] == b'/' && b.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && b.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
                if depth > 0 {
                    return Err(format!("line {start_line}: unterminated block comment"));
                }
            }
            b'"' => {
                let (len, newlines) = lex_string(&b[i..], line)?;
                toks.push(Tok {
                    kind: TokKind::Literal,
                    text: src[i..i + len].to_string(),
                    line,
                });
                line += newlines;
                i += len;
            }
            b'r' | b'b' if raw_or_byte_string_len(&b[i..]).is_some() => {
                let (len, newlines) = raw_or_byte_string_len(&b[i..])
                    .ok_or_else(|| format!("line {line}: unterminated raw/byte string"))??;
                toks.push(Tok {
                    kind: TokKind::Literal,
                    text: src[i..i + len].to_string(),
                    line,
                });
                line += newlines;
                i += len;
            }
            b'\'' => {
                // Lifetime vs char literal: a lifetime is `'` + ident with
                // no closing quote right after the first char.
                let is_lifetime = b
                    .get(i + 1)
                    .is_some_and(|&c| c.is_ascii_alphabetic() || c == b'_')
                    && b.get(i + 2) != Some(&b'\'');
                if is_lifetime {
                    let mut j = i + 1;
                    while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                        j += 1;
                    }
                    toks.push(Tok {
                        kind: TokKind::Lifetime,
                        text: src[i..j].to_string(),
                        line,
                    });
                    i = j;
                } else {
                    let mut j = i + 1;
                    while j < b.len() && b[j] != b'\'' {
                        if b[j] == b'\\' {
                            j += 1;
                        }
                        j += 1;
                    }
                    if j >= b.len() {
                        return Err(format!("line {line}: unterminated char literal"));
                    }
                    toks.push(Tok {
                        kind: TokKind::Literal,
                        text: src[i..=j].to_string(),
                        line,
                    });
                    i = j + 1;
                }
            }
            _ if c.is_ascii_alphabetic() || c == b'_' => {
                let mut j = i;
                while j < b.len() && (b[j].is_ascii_alphanumeric() || b[j] == b'_') {
                    j += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text: src[i..j].to_string(),
                    line,
                });
                i = j;
            }
            _ if c.is_ascii_digit() => {
                let mut j = i;
                while j < b.len() {
                    let d = b[j];
                    if d.is_ascii_alphanumeric() || d == b'_' {
                        j += 1;
                    } else if d == b'.'
                        && b.get(j + 1).is_some_and(u8::is_ascii_digit)
                        && b.get(j.wrapping_sub(1)) != Some(&b'.')
                    {
                        j += 1; // decimal point of a float, not `..`
                    } else {
                        break;
                    }
                }
                toks.push(Tok {
                    kind: TokKind::Literal,
                    text: src[i..j].to_string(),
                    line,
                });
                i = j;
            }
            _ => {
                let rest = &src[i..];
                let op = MULTI_PUNCT.iter().find(|p| rest.starts_with(**p));
                let text = match op {
                    Some(p) => (*p).to_string(),
                    None => (c as char).to_string(),
                };
                i += text.len();
                toks.push(Tok {
                    kind: TokKind::Punct,
                    text,
                    line,
                });
            }
        }
    }
    Ok(toks)
}

/// Length and newline count of the plain string literal starting at
/// `b[0] == '"'`.
fn lex_string(b: &[u8], line: usize) -> Result<(usize, usize), String> {
    let mut j = 1;
    let mut newlines = 0;
    while j < b.len() {
        match b[j] {
            b'"' => return Ok((j + 1, newlines)),
            b'\\' => j += 2,
            b'\n' => {
                newlines += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    Err(format!("line {line}: unterminated string literal"))
}

/// If `b` starts a raw string (`r"…"`, `r#"…"#`), byte string (`b"…"`),
/// raw byte string (`br#"…"#`), or byte char (`b'…'`), its total length
/// and newline count. `None` means "not one of those" (e.g. `r#ident`, or
/// a plain identifier starting with r/b), which the caller lexes as an
/// identifier.
#[allow(clippy::type_complexity)]
fn raw_or_byte_string_len(b: &[u8]) -> Option<Result<(usize, usize), String>> {
    let mut j = 0;
    if b[j] == b'b' {
        j += 1;
        if b.get(j) == Some(&b'\'') {
            // Byte char literal b'…'.
            let mut k = j + 1;
            while k < b.len() && b[k] != b'\'' {
                if b[k] == b'\\' {
                    k += 1;
                }
                k += 1;
            }
            if k >= b.len() {
                return Some(Err("unterminated byte char".to_string()));
            }
            return Some(Ok((k + 1, 0)));
        }
        if b.get(j) == Some(&b'"') {
            // Byte string b"…": same shape as a plain string.
            return Some(lex_string(&b[j..], 0).map(|(len, nl)| (j + len, nl)));
        }
        if b.get(j) != Some(&b'r') {
            return None;
        }
        j += 1;
    } else if b[j] == b'r' {
        j += 1;
    } else {
        return None;
    }
    // Raw (byte) string: zero or more '#' then '"'.
    let hashes_start = j;
    while b.get(j) == Some(&b'#') {
        j += 1;
    }
    let hashes = j - hashes_start;
    if b.get(j) != Some(&b'"') {
        return None; // r#ident or identifier starting with r/b
    }
    j += 1;
    let mut newlines = 0;
    while j < b.len() {
        if b[j] == b'\n' {
            newlines += 1;
            j += 1;
            continue;
        }
        if b[j] == b'"' {
            let close = &b[j + 1..];
            if close.len() >= hashes && close[..hashes].iter().all(|&c| c == b'#') {
                return Some(Ok((j + 1 + hashes, newlines)));
            }
        }
        j += 1;
    }
    Some(Err("unterminated raw string".to_string()))
}

/// Parses tokens into delimiter trees. Tolerant of stray closers (they
/// become leaves) so a half-written fixture still parses.
pub fn parse_trees(toks: Vec<Tok>) -> Vec<Tree> {
    let mut stack: Vec<(char, usize, Vec<Tree>)> = Vec::new();
    let mut top: Vec<Tree> = Vec::new();
    for tok in toks {
        let is_open = tok.kind == TokKind::Punct && matches!(tok.text.as_str(), "(" | "[" | "{");
        let close_of = |c: &str| match c {
            ")" => Some('('),
            "]" => Some('['),
            "}" => Some('{'),
            _ => None,
        };
        if is_open {
            let delim = tok.text.chars().next().unwrap_or('(');
            stack.push((delim, tok.line, std::mem::take(&mut top)));
            continue;
        }
        if tok.kind == TokKind::Punct {
            if let Some(open) = close_of(&tok.text) {
                if stack.last().is_some_and(|(d, _, _)| *d == open) {
                    let (delim, line, parent) = stack.pop().unwrap_or(('(', 0, Vec::new()));
                    let children = std::mem::replace(&mut top, parent);
                    top.push(Tree::Group(Group {
                        delim,
                        line,
                        children,
                    }));
                    continue;
                }
            }
        }
        top.push(Tree::Leaf(tok));
    }
    // Unclosed groups: flatten back as if the closer were at EOF.
    while let Some((delim, line, parent)) = stack.pop() {
        let children = std::mem::replace(&mut top, parent);
        top.push(Tree::Group(Group {
            delim,
            line,
            children,
        }));
    }
    top
}

/// Lexes and parses a whole source file.
///
/// # Errors
///
/// Propagates lexer errors ([`lex`]).
pub fn parse_file(src: &str) -> Result<Vec<Tree>, String> {
    Ok(parse_trees(lex(src)?))
}

/// True if the attribute group `#[…]` marks test-only code: `#[test]`,
/// `#[cfg(test)]`, or any `cfg` whose predicate mentions `test` (e.g.
/// `#[cfg(all(test, feature = "x"))]`).
fn attr_is_test(attr: &Group) -> bool {
    let mut toks = Vec::new();
    flatten(&attr.children, &mut toks);
    if toks.first().is_some_and(|t| t.text == "test") {
        return true;
    }
    toks.first().is_some_and(|t| t.text == "cfg") && toks.iter().any(|t| t.text == "test")
}

/// Flattens trees to leaves depth-first (groups contribute their children
/// but not their delimiters).
fn flatten<'a>(trees: &'a [Tree], out: &mut Vec<&'a Tok>) {
    for t in trees {
        match t {
            Tree::Leaf(tok) => out.push(tok),
            Tree::Group(g) => flatten(&g.children, out),
        }
    }
}

/// Walks every token stream of non-test code: the top level and the
/// children of every group, except items annotated `#[test]`/`#[cfg(test)]`
/// (the whole item — attribute through body — is skipped). The callback
/// receives each stream once.
pub fn walk_non_test<'a>(trees: &'a [Tree], visit: &mut dyn FnMut(&'a [Tree])) {
    visit(trees);
    let mut i = 0;
    while i < trees.len() {
        // `#[test-ish]` attribute: skip tokens up to and including the
        // item's body (first `{…}` group) or its `;` terminator.
        if trees[i].is_punct("#") {
            if let Some(attr) = trees.get(i + 1).and_then(|t| t.group('[')) {
                if attr_is_test(attr) {
                    i += 2;
                    while i < trees.len() {
                        let t = &trees[i];
                        i += 1;
                        if t.is_punct(";") || t.group('{').is_some() {
                            break;
                        }
                    }
                    continue;
                }
                // Non-test attribute: step past it, scan the item.
                i += 2;
                continue;
            }
        }
        if let Tree::Group(g) = &trees[i] {
            walk_non_test(&g.children, visit);
        }
        i += 1;
    }
}

/// A lint finding inside one file: (1-based line, message).
pub type Finding = (usize, String);

/// Panic-API lint over parsed trees: flags `.unwrap()` / `.expect(…)`
/// method calls in non-test code. Unlike the string scanner, this skips
/// test *items* wherever they appear and keeps scanning the rest of the
/// file, never matches inside comments or string literals, and descends
/// into `#[cfg(feature = …)]`-gated branches.
///
/// # Errors
///
/// Propagates lexer errors.
pub fn scan_panics(src: &str) -> Result<Vec<Finding>, String> {
    let trees = parse_file(src)?;
    let mut findings = Vec::new();
    walk_non_test(&trees, &mut |stream| {
        for w in stream.windows(3) {
            if w[0].is_punct(".")
                && (w[1].is_ident("unwrap") || w[1].is_ident("expect"))
                && w[2].group('(').is_some()
            {
                let name = w[1].leaf().map(|t| t.text.as_str()).unwrap_or("unwrap");
                findings.push((
                    w[1].line(),
                    format!(
                        "`.{name}(…)` in a per-cycle hot path; use Option/Result \
                         flow or an assert naming the invariant"
                    ),
                ));
            }
        }
    });
    findings.sort();
    Ok(findings)
}

/// Wall-clock lint over parsed trees: flags `Instant`, `SystemTime`, and
/// `std::time` paths in non-test code, anywhere in the file.
///
/// # Errors
///
/// Propagates lexer errors.
pub fn scan_wallclock(src: &str) -> Result<Vec<Finding>, String> {
    let trees = parse_file(src)?;
    let mut findings = Vec::new();
    walk_non_test(&trees, &mut |stream| {
        for (i, t) in stream.iter().enumerate() {
            let hit = if t.is_ident("Instant") || t.is_ident("SystemTime") {
                t.leaf().map(|l| l.text.clone())
            } else if t.is_ident("time")
                && i >= 2
                && stream[i - 1].is_punct("::")
                && stream[i - 2].is_ident("std")
            {
                Some("std::time".to_string())
            } else {
                None
            };
            if let Some(name) = hit {
                findings.push((
                    t.line(),
                    format!(
                        "wall-clock source `{name}` in deterministic tracing code; \
                         stamp with the simulated cycle instead"
                    ),
                ));
            }
        }
    });
    findings.sort();
    Ok(findings)
}

/// Extracts the names of `&mut self` methods from `impl Router { … }`
/// blocks in `router.rs` source — the helper methods through which router
/// state can be mutated. Keeping this extracted (not hard-coded) means a
/// newly added mutating method is confined the moment it exists.
///
/// # Errors
///
/// Propagates lexer errors.
pub fn router_mut_methods(router_src: &str) -> Result<BTreeSet<String>, String> {
    let trees = parse_file(router_src)?;
    let mut methods = BTreeSet::new();
    let mut i = 0;
    while i < trees.len() {
        if trees[i].is_ident("impl") && trees.get(i + 1).is_some_and(|t| t.is_ident("Router")) {
            if let Some(body) = trees.get(i + 2).and_then(|t| t.group('{')) {
                collect_mut_self_fns(&body.children, &mut methods);
            }
        }
        i += 1;
    }
    Ok(methods)
}

/// Collects `fn name(&mut self, …)` names from an impl body stream.
fn collect_mut_self_fns(stream: &[Tree], out: &mut BTreeSet<String>) {
    let mut i = 0;
    while i + 2 < stream.len() {
        if stream[i].is_ident("fn") {
            let name = stream[i + 1].leaf().filter(|t| t.kind == TokKind::Ident);
            // Generics between name and params are rare here; find the
            // first paren group after the name.
            let mut j = i + 2;
            while j < stream.len() && stream[j].group('(').is_none() {
                j += 1;
            }
            if let (Some(name), Some(params)) = (name, stream.get(j).and_then(|t| t.group('('))) {
                let mut toks = Vec::new();
                flatten(&params.children, &mut toks);
                let sig: Vec<&str> = toks
                    .iter()
                    .filter(|t| t.kind != TokKind::Lifetime)
                    .take(3)
                    .map(|t| t.text.as_str())
                    .collect();
                if sig.len() >= 3 && sig[0] == "&" && sig[1] == "mut" && sig[2] == "self" {
                    out.insert(name.text.clone());
                }
            }
            i = j;
        }
        i += 1;
    }
}

/// Which mutation rules apply to a file in the confinement scan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfinementRules {
    /// Flag direct writes to the listed `Router` fields.
    pub direct_writes: bool,
    /// Flag calls to `&mut self` `Router` methods (helper-routed
    /// mutations) and `&mut` borrows of router state.
    pub method_calls: bool,
}

/// Commit-confinement lint over parsed trees.
///
/// Flags, in non-test code, on receivers whose access chain roots at a
/// `router`/`routers` binding:
///
/// - direct field writes (`router.credits[d][v] -= 1`, `….sa_losers.clear()`)
///   when `rules.direct_writes` is on;
/// - calls to any name in `mut_methods` (`routers[n].accept(…)`) and
///   `&mut` borrows (`&mut routers[n]`) when `rules.method_calls` is on —
///   the mutation paths the old line scanner could not see.
///
/// # Errors
///
/// Propagates lexer errors.
pub fn scan_confinement(
    src: &str,
    fields: &[&str],
    mut_methods: &BTreeSet<String>,
    rules: ConfinementRules,
) -> Result<Vec<Finding>, String> {
    let trees = parse_file(src)?;
    let mut findings = Vec::new();
    walk_non_test(&trees, &mut |stream| {
        scan_confinement_stream(stream, fields, mut_methods, rules, &mut findings);
    });
    findings.sort();
    findings.dedup();
    Ok(findings)
}

/// True if the access chain ending just before `stream[dot]` (a `.`
/// leaf) roots at an ident named `router` or `routers`, skipping back
/// over `.field` and `[index]` links (e.g. `self.routers[i]`,
/// `net.routers[up.0]`).
fn chain_roots_at_router(stream: &[Tree], dot: usize) -> bool {
    let mut i = dot; // index of the `.` token; look left of it
    loop {
        if i == 0 {
            return false;
        }
        let prev = &stream[i - 1];
        if prev.group('[').is_some() {
            i -= 1;
            continue;
        }
        match prev.leaf() {
            Some(t) if t.kind == TokKind::Ident => {
                if t.text == "router" || t.text == "routers" {
                    return true;
                }
                // Continue left through `name .` links.
                if i >= 2 && stream[i - 2].is_punct(".") {
                    i -= 2;
                    continue;
                }
                return false;
            }
            Some(t) if t.kind == TokKind::Literal => {
                // Tuple index, e.g. `up.0` inside `routers[up.0]` never
                // appears at this level; a literal chain link like
                // `pair.0.credits` — keep walking left.
                if i >= 2 && stream[i - 2].is_punct(".") {
                    i -= 2;
                    continue;
                }
                return false;
            }
            _ => return false,
        }
    }
}

/// Scans one token stream for confinement violations.
fn scan_confinement_stream(
    stream: &[Tree],
    fields: &[&str],
    mut_methods: &BTreeSet<String>,
    rules: ConfinementRules,
    findings: &mut Vec<Finding>,
) {
    for i in 0..stream.len() {
        if !stream[i].is_punct(".") {
            // `&mut router…` borrow escape: a `&mut` whose operand roots
            // at a router binding (type positions spell `&mut Router` /
            // `&mut [Router]`, which do not match the binding names).
            if rules.method_calls
                && stream[i].is_punct("&")
                && stream.get(i + 1).is_some_and(|t| t.is_ident("mut"))
                && stream
                    .get(i + 2)
                    .is_some_and(|t| t.is_ident("router") || t.is_ident("routers"))
            {
                findings.push((
                    stream[i].line(),
                    "aliased `&mut` borrow of router state outside the commit pass".to_string(),
                ));
            }
            continue;
        }
        if !chain_roots_at_router(stream, i) {
            continue;
        }
        let Some(name) = stream.get(i + 1).and_then(Tree::leaf) else {
            continue;
        };
        if name.kind != TokKind::Ident {
            continue;
        }
        let is_call = stream.get(i + 2).is_some_and(|t| t.group('(').is_some());
        if rules.method_calls && is_call && mut_methods.contains(&name.text) {
            findings.push((
                name.line,
                format!(
                    "Router::{}(…) mutates router state outside the commit pass; \
                     route the mutation through crates/noc/src/commit.rs",
                    name.text
                ),
            ));
            continue;
        }
        if rules.direct_writes && !is_call && fields.contains(&name.text.as_str()) {
            // Mutation iff the rest of this statement assigns through the
            // access or calls an in-place mutator on it.
            if statement_mutates(&stream[i + 2..], mut_methods) {
                findings.push((
                    name.line,
                    format!(
                        "Router field `{}` mutated outside the commit pass; \
                         route the write through crates/noc/src/commit.rs",
                        name.text
                    ),
                ));
            }
        }
    }
}

/// In-place container mutators (superset of the old string list; exact
/// token match, so `.clear()` in a string no longer counts).
const CONTAINER_MUTATORS: &[&str] = &[
    "push",
    "push_back",
    "push_front",
    "pop_front",
    "pop_back",
    "clear",
    "extend",
    "extend_from_slice",
    "insert",
    "remove",
    "drain",
    "truncate",
    "swap",
    "fill",
    "retain",
    "sort",
    "sort_unstable",
    "resize",
];

/// Whether the statement tail after a field access writes to it: an
/// assignment operator before the statement ends (`;`, `,`, or a brace
/// group), or a chained in-place mutator call.
fn statement_mutates(tail: &[Tree], mut_methods: &BTreeSet<String>) -> bool {
    for (i, t) in tail.iter().enumerate() {
        if t.is_punct(";") || t.is_punct(",") || t.group('{').is_some() {
            return false;
        }
        if let Some(tok) = t.leaf() {
            if tok.kind == TokKind::Punct && ASSIGN_OPS.contains(&tok.text.as_str()) {
                return true;
            }
            if tok.kind == TokKind::Ident
                && i >= 1
                && tail[i - 1].is_punct(".")
                && tail.get(i + 1).is_some_and(|n| n.group('(').is_some())
                && (CONTAINER_MUTATORS.contains(&tok.text.as_str())
                    || mut_methods.contains(&tok.text))
            {
                return true;
            }
        }
    }
    false
}

/// Interior-mutability types that would let "pure" compute code smuggle
/// writes past the phase split.
const INTERIOR_MUTABILITY: &[&str] = &[
    "RefCell",
    "Cell",
    "UnsafeCell",
    "Mutex",
    "RwLock",
    "OnceLock",
    "OnceCell",
    "LazyLock",
    "AtomicBool",
    "AtomicUsize",
    "AtomicIsize",
    "AtomicU8",
    "AtomicU16",
    "AtomicU32",
    "AtomicU64",
];

/// Compute-phase purity lint: in non-test code, flags interior-mutability
/// type names, and — if `check_compute_router_sig` — verifies that
/// `compute_router` takes `router: &Router` (shared, not `&mut`).
/// Mutating-method calls and `&mut` borrows are covered by
/// [`scan_confinement`] with `method_calls` on.
///
/// # Errors
///
/// Propagates lexer errors.
pub fn scan_compute_purity(
    src: &str,
    check_compute_router_sig: bool,
) -> Result<Vec<Finding>, String> {
    let trees = parse_file(src)?;
    let mut findings = Vec::new();
    walk_non_test(&trees, &mut |stream| {
        for t in stream {
            if let Some(tok) = t.leaf() {
                if tok.kind == TokKind::Ident && INTERIOR_MUTABILITY.contains(&tok.text.as_str()) {
                    findings.push((
                        tok.line,
                        format!(
                            "interior-mutability type `{}` in phase-split kernel code; \
                             all mutation must flow through the commit pass",
                            tok.text
                        ),
                    ));
                }
            }
        }
    });
    if check_compute_router_sig {
        if let Some(msg) = compute_router_sig_violation(&trees) {
            findings.push(msg);
        }
    }
    findings.sort();
    findings.dedup();
    Ok(findings)
}

/// Checks that `fn compute_router(router: &Router, …)` takes the router
/// by shared reference. Returns a finding if the parameter is `&mut`, or
/// if the function/parameter cannot be found (the contract must stay
/// checkable).
fn compute_router_sig_violation(trees: &[Tree]) -> Option<Finding> {
    let mut result = Some((
        1,
        "fn compute_router(router: &Router, …) not found; the purity \
         contract is no longer checkable"
            .to_string(),
    ));
    let mut i = 0;
    while i + 2 < trees.len() {
        if trees[i].is_ident("fn") && trees[i + 1].is_ident("compute_router") {
            let mut j = i + 2;
            while j < trees.len() && trees[j].group('(').is_none() {
                j += 1;
            }
            if let Some(params) = trees.get(j).and_then(|t| t.group('(')) {
                let mut toks = Vec::new();
                flatten(&params.children, &mut toks);
                for (k, t) in toks.iter().enumerate() {
                    if t.text == "router" && toks.get(k + 1).is_some_and(|c| c.text == ":") {
                        let rest: Vec<&str> = toks[k + 2..]
                            .iter()
                            .filter(|t| t.kind != TokKind::Lifetime)
                            .take(2)
                            .map(|t| t.text.as_str())
                            .collect();
                        result = if rest == ["&", "mut"] {
                            Some((
                                t.line,
                                "compute_router takes `router: &mut …`; the compute \
                                 phase must take the router by shared reference"
                                    .to_string(),
                            ))
                        } else {
                            None
                        };
                        return result;
                    }
                }
            }
        }
        i += 1;
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .expect("lexes")
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn lexer_strips_comments_and_strings() {
        let src = r##"
            // line .unwrap()
            /* block /* nested */ .unwrap() */
            let s = "string .unwrap()";
            let r = r#"raw .unwrap()"#;
            let b = b"bytes .unwrap()";
            real.unwrap();
        "##;
        let findings = scan_panics(src).expect("parses");
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].0, 7);
    }

    #[test]
    fn lexer_distinguishes_lifetimes_from_chars() {
        let toks = lex("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }").expect("lexes");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
        let chars: Vec<_> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Literal && t.text.starts_with('\''))
            .collect();
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn lexer_is_greedy_on_operators() {
        let toks = lex("a ..= b == c => d").expect("lexes");
        let puncts: Vec<String> = toks
            .into_iter()
            .filter(|t| t.kind == TokKind::Punct)
            .map(|t| t.text)
            .collect();
        assert_eq!(puncts, vec!["..=", "==", "=>"]);
    }

    #[test]
    fn raw_identifiers_lex_as_identifiers() {
        assert!(idents("let r#match = 1;").contains(&"match".to_string()));
    }

    #[test]
    fn trees_balance_delimiters() {
        let trees = parse_file("fn f(a: [u8; 4]) { g(a[0]); }").expect("parses");
        // fn, f, (…), {…}
        assert_eq!(trees.len(), 4);
        assert!(trees[3].group('{').is_some());
    }

    #[test]
    fn scanning_continues_past_a_test_module() {
        // The old line scanner stopped at the first `#[cfg(test)]` and
        // missed everything after it; the tree walk skips only the item.
        let src = "
            #[cfg(test)]
            mod tests { fn t() { x.unwrap(); } }
            fn after() { y.unwrap(); }
        ";
        let findings = scan_panics(src).expect("parses");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].0, 4, "the post-test-mod call is caught");
    }

    #[test]
    fn cfg_feature_gated_code_is_scanned() {
        let src = "
            #[cfg(feature = \"validate\")]
            fn gated() { z.unwrap(); }
        ";
        assert_eq!(scan_panics(src).expect("parses").len(), 1);
    }

    #[test]
    fn test_attribute_skips_single_fn() {
        let src = "
            #[test]
            fn t() { x.unwrap(); }
            fn hot() { y.expect(\"msg\"); }
        ";
        let findings = scan_panics(src).expect("parses");
        assert_eq!(findings.len(), 1);
        assert!(findings[0].1.contains("expect"));
    }

    #[test]
    fn wallclock_found_after_test_module() {
        let src = "
            #[cfg(test)]
            mod tests {}
            fn f() { let t = std::time::Instant::now(); }
        ";
        let findings = scan_wallclock(src).expect("parses");
        // `std::time` and `Instant` both flagged on line 4.
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().all(|f| f.0 == 4));
    }

    #[test]
    fn router_mut_methods_extracts_mut_self_only() {
        let src = "
            impl Router {
                pub fn node(&self) -> NodeId { self.node }
                pub fn accept(&mut self, port: usize) {}
                pub(crate) fn reshape_packet(&mut self, n: usize) -> isize { 0 }
                pub fn free_slots(&self, p: usize) -> usize { 0 }
            }
            impl Other {
                pub fn mutator(&mut self) {}
            }
        ";
        let methods = router_mut_methods(src).expect("parses");
        let names: Vec<&str> = methods.iter().map(String::as_str).collect();
        assert_eq!(names, vec!["accept", "reshape_packet"]);
    }

    const ALL_RULES: ConfinementRules = ConfinementRules {
        direct_writes: true,
        method_calls: true,
    };

    fn fields() -> &'static [&'static str] {
        &["inputs", "out_alloc", "credits", "rr_sa", "sa_losers"]
    }

    fn methods() -> BTreeSet<String> {
        ["accept", "return_credit", "set_locked"]
            .into_iter()
            .map(String::from)
            .collect()
    }

    #[test]
    fn confinement_flags_writes_not_reads() {
        let src = "
            fn compute(router: &Router) {
                let snapshot = router.out_alloc.clone();
                if router.credits[0][1] >= 8 || router.credits[0][1] != 0 {}
                let o = Outcome { rr_sa: router.rr_sa };
                router.credits[0][1] -= 1;
                routers[next].inputs[0][1].state = VcState::Idle;
                router.sa_losers.clear();
            }
        ";
        let lines: Vec<usize> = scan_confinement(src, fields(), &methods(), ALL_RULES)
            .expect("parses")
            .into_iter()
            .map(|f| f.0)
            .collect();
        assert_eq!(lines, vec![6, 7, 8]);
    }

    #[test]
    fn confinement_catches_helper_method_mutation() {
        // The defect class the old string scanner missed: no field name
        // appears, the write is routed through a &mut self method.
        let src = "
            fn sneak(routers: &mut [Router], dep: &Departure) {
                routers[dep.next].accept(dep.port, dep.vc, dep.flit);
            }
        ";
        let findings = scan_confinement(src, fields(), &methods(), ALL_RULES).expect("parses");
        assert_eq!(findings.len(), 1);
        assert!(findings[0].1.contains("Router::accept"));
    }

    #[test]
    fn confinement_catches_mut_borrow_escape() {
        let src = "
            fn escape(routers: &mut [Router]) {
                helper(&mut routers[0]);
            }
        ";
        let findings = scan_confinement(src, fields(), &methods(), ALL_RULES).expect("parses");
        assert_eq!(findings.len(), 1);
        assert!(findings[0].1.contains("aliased `&mut`"));
    }

    #[test]
    fn confinement_ignores_type_positions_and_locals() {
        let src = "
            fn ok(routers: &mut [Router], out: &mut Vec<u32>) {
                let creds = router.credits[0][1];
                out.push(creds as u32);
            }
        ";
        assert_eq!(
            scan_confinement(src, fields(), &methods(), ALL_RULES).expect("parses"),
            Vec::new()
        );
    }

    #[test]
    fn confinement_catches_cfg_hidden_branch_after_test_mod() {
        // Both blind spots at once: the mutation hides behind a feature
        // cfg *after* a test module.
        let src = "
            #[cfg(test)]
            mod tests {}
            #[cfg(feature = \"exotic\")]
            fn hidden(router: &mut Router) {
                router.credits[0][0] += 1;
            }
        ";
        let findings = scan_confinement(src, fields(), &methods(), ALL_RULES).expect("parses");
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].0, 6);
    }

    #[test]
    fn purity_flags_interior_mutability() {
        let src = "fn f() { let c: RefCell<u32> =\n    RefCell::new(0); }";
        let findings = scan_compute_purity(src, false).expect("parses");
        assert_eq!(findings.len(), 2, "declaration and constructor");
    }

    #[test]
    fn purity_checks_compute_router_signature() {
        let good = "pub fn compute_router(router: &Router, now: u64) {}";
        assert_eq!(scan_compute_purity(good, true).expect("parses"), Vec::new());
        let bad = "pub fn compute_router(router: &mut Router, now: u64) {}";
        let findings = scan_compute_purity(bad, true).expect("parses");
        assert_eq!(findings.len(), 1);
        assert!(findings[0].1.contains("&mut"));
    }

    /// Caller-provided scratch arenas are the sanctioned way for the
    /// compute phase to avoid per-cycle allocation: extra `&mut`
    /// out-params are fine as long as the *router* stays a shared
    /// reference (the purity contract is about router state, not about
    /// where the results are written).
    #[test]
    fn purity_accepts_mut_scratch_out_params() {
        let arena = "pub fn compute_router(router: &Router, now: u64, \
                     scratch: &mut ComputeScratch, out: &mut RouterOutcome) {}";
        assert_eq!(
            scan_compute_purity(arena, true).expect("parses"),
            Vec::new()
        );
    }
}
