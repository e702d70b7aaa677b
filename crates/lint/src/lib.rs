//! Repo-specific determinism lint.
//!
//! rustc and clippy cannot know that this workspace's value rests on
//! byte-reproducible reports: no wall-clock reads in decision paths, no
//! hasher-seed-dependent iteration in anything that prints, no entropy,
//! no panicking shortcuts inside the transactional migration paths, and
//! no dependency the offline build cannot resolve. This crate enforces
//! those policies at the token level — a lightweight scanner (no
//! syn/proc-macro) that is string-safe and comment-safe, so `"HashMap"`
//! in a string literal or `Instant::now` in a doc comment never trips a
//! rule.
//!
//! Textual rules (one line at a time):
//! - **D1 wall-clock** — `Instant::now`/`SystemTime::now` outside
//!   `crates/bench`.
//! - **D2 unordered-map** — `HashMap`/`HashSet` in report/decision
//!   crates (`mtm`, `baselines`, `harness`, `tiersim`, `obs`,
//!   `scenario`) without a justified
//!   `// lint:allow(unordered-map): <reason>` annotation.
//! - **D3 entropy** — `rand`-style entropy sources anywhere.
//! - **D4 non-exhaustive-error** — public `*Error` enums must carry
//!   `#[non_exhaustive]`.
//! - **D5 no-unwrap** — `.unwrap()`/`.expect(` in the transactional
//!   migration paths (`tiersim::migrate`, `mtm::migration`).
//! - **H1 hermetic-dep** — every manifest dependency must resolve
//!   inside the workspace (see [`hermetic`]).
//! - **U1 unsafe-safety** — every `unsafe` block or impl needs a
//!   `// SAFETY:` comment directly above it, and every `unsafe fn` (or
//!   trait) a `# Safety` doc section stating what its caller must uphold.
//!
//! Semantic rules (whole-workspace, over the call graph built by
//! [`parse`] + [`graph`]):
//! - **D6 determinism-taint** — no function transitively reachable from
//!   a decision/report entry point may reach a D1/D2/D3 source, even
//!   across crates the textual scopes don't cover.
//! - **D7 lock-order** — the lock-acquisition order graph must be
//!   acyclic (a real deadlock detector for the worker-pool code).
//! - **D8 panic-path** — the transitive closure of the migration /
//!   checkpoint roots must be unwrap-free (D5 generalized to the call
//!   tree).
//! - **O1 obs-name** — metric names are declared once in `obs::names`,
//!   unique, `[a-z0-9_]+`, booked via the consts, and never dead
//!   (see [`obsnames`]).
//! - **L1 bad-allow** — a `lint:allow(<slug>)` annotation or `lint.toml`
//!   entry naming no existing rule is itself a finding (a misspelled
//!   slug must not be silently inert).
//!
//! Test code is exempt: files under `tests/`/`benches/` and `#[cfg(test)]`
//! regions. Line-level exceptions use `// lint:allow(<slug>): <reason>`
//! (same line or the comment line directly above); repo-wide exceptions
//! live in `lint.toml` (`allow <slug> <path-substring>` lines). A
//! justified line-level allow also suppresses the semantic rule riding on
//! the same fact (the author looked at that exact line); a `lint.toml`
//! path-level allow does **not** stop D6/D8 from auditing the allowed
//! code's *callers* — that asymmetry is what catches cross-crate
//! laundering.

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

pub mod graph;
pub mod hermetic;
pub mod obsnames;
pub mod parse;

/// The lint rules, in reporting order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// D1: wall-clock time outside `crates/bench`.
    WallClock,
    /// D2: iteration-order-unstable collections in report/decision crates.
    UnorderedMap,
    /// D3: entropy sources anywhere.
    Entropy,
    /// D4: public error enums must be `#[non_exhaustive]`.
    NonExhaustiveError,
    /// D5: panicking shortcuts in transactional migration paths.
    NoUnwrap,
    /// H1: non-hermetic manifest dependency.
    HermeticDep,
    /// D6: D1/D2/D3 source reachable from a decision/report entry point.
    DeterminismTaint,
    /// D7: cycle in the lock-acquisition order graph.
    LockOrder,
    /// D8: panicking shortcut reachable from a migration/checkpoint root.
    PanicPath,
    /// O1: metric-name audit violation (duplicate, bad charset, raw
    /// literal booking, or a declared-but-never-booked name).
    ObsName,
    /// L1: `lint:allow`/`lint.toml` slug naming no existing rule.
    BadAllow,
    /// U1: `unsafe` code without its safety argument.
    UnsafeSafety,
}

impl Rule {
    /// Every rule, in reporting order.
    pub const ALL: &'static [Rule] = &[
        Rule::WallClock,
        Rule::UnorderedMap,
        Rule::Entropy,
        Rule::NonExhaustiveError,
        Rule::NoUnwrap,
        Rule::HermeticDep,
        Rule::DeterminismTaint,
        Rule::LockOrder,
        Rule::PanicPath,
        Rule::ObsName,
        Rule::BadAllow,
        Rule::UnsafeSafety,
    ];

    /// Short rule code (`D1`..`D8`, `H1`, `O1`, `L1`, `U1`).
    pub fn code(self) -> &'static str {
        match self {
            Rule::WallClock => "D1",
            Rule::UnorderedMap => "D2",
            Rule::Entropy => "D3",
            Rule::NonExhaustiveError => "D4",
            Rule::NoUnwrap => "D5",
            Rule::HermeticDep => "H1",
            Rule::DeterminismTaint => "D6",
            Rule::LockOrder => "D7",
            Rule::PanicPath => "D8",
            Rule::ObsName => "O1",
            Rule::BadAllow => "L1",
            Rule::UnsafeSafety => "U1",
        }
    }

    /// Stable slug used in `lint:allow(...)` annotations and `lint.toml`.
    pub fn slug(self) -> &'static str {
        match self {
            Rule::WallClock => "wall-clock",
            Rule::UnorderedMap => "unordered-map",
            Rule::Entropy => "entropy",
            Rule::NonExhaustiveError => "non-exhaustive-error",
            Rule::NoUnwrap => "no-unwrap",
            Rule::HermeticDep => "hermetic-dep",
            Rule::DeterminismTaint => "determinism-taint",
            Rule::LockOrder => "lock-order",
            Rule::PanicPath => "panic-path",
            Rule::ObsName => "obs-name",
            Rule::BadAllow => "bad-allow",
            Rule::UnsafeSafety => "unsafe-safety",
        }
    }

    /// The rule a slug names, if any (used to reject misspelled slugs).
    pub fn from_slug(slug: &str) -> Option<Rule> {
        Rule::ALL.iter().copied().find(|r| r.slug() == slug)
    }
}

/// One lint finding, displayed as `file:line: CODE/slug: message`.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Path relative to the workspace root (forward slashes).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}/{}: {}",
            self.path,
            self.line,
            self.rule.code(),
            self.rule.slug(),
            self.message
        )
    }
}

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Finding {
    /// One JSON object per finding, with a stable field order
    /// (`path`, `line`, `code`, `slug`, `message`) so downstream tooling
    /// can diff outputs byte-for-byte.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"path\":\"{}\",\"line\":{},\"code\":\"{}\",\"slug\":\"{}\",\"message\":\"{}\"}}",
            json_escape(&self.path),
            self.line,
            self.rule.code(),
            self.rule.slug(),
            json_escape(&self.message)
        )
    }
}

/// One `lint.toml` allowlist entry: suppress `slug` findings in any file
/// whose relative path contains `path_substr`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Allow {
    /// Rule slug the entry suppresses.
    pub slug: String,
    /// Substring matched against the finding's relative path.
    pub path_substr: String,
    /// 1-based `lint.toml` line, for slug-validation findings.
    pub line: usize,
}

/// Parses the plain-text allowlist: `#` comment lines, blank lines, and
/// `allow <slug> <path-substring>` entries (trailing `# reason` ignored).
pub fn parse_allowlist(text: &str) -> Result<Vec<Allow>, String> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut toks = line.split_whitespace();
        let (verb, slug, path) = (toks.next(), toks.next(), toks.next());
        match (verb, slug, path) {
            (Some("allow"), Some(slug), Some(path)) => {
                let rest = toks.next();
                if let Some(r) = rest {
                    if !r.starts_with('#') {
                        return Err(format!(
                            "lint.toml:{}: trailing token `{r}` (use `# reason` for comments)",
                            i + 1
                        ));
                    }
                }
                out.push(Allow {
                    slug: slug.to_string(),
                    path_substr: path.to_string(),
                    line: i + 1,
                });
            }
            _ => {
                return Err(format!(
                    "lint.toml:{}: expected `allow <slug> <path-substring>`, got `{line}`",
                    i + 1
                ));
            }
        }
    }
    Ok(out)
}

/// Returns `src` with comments and string/char-literal *contents* blanked
/// to spaces (newlines preserved, so line numbers survive). Handles line
/// and nested block comments, escapes, raw strings (`r"..."`,
/// `r#"..."#`), byte strings, and tells lifetimes (`'a`) apart from char
/// literals (`'x'`, `'\n'`).
pub fn strip_code(src: &str) -> String {
    let b: Vec<char> = src.chars().collect();
    let n = b.len();
    let mut out = String::with_capacity(src.len());
    let blank = |c: char| if c == '\n' { '\n' } else { ' ' };
    let mut i = 0;
    while i < n {
        let c = b[i];
        let prev_ident = out.chars().last().is_some_and(|p| p.is_alphanumeric() || p == '_');
        match c {
            '/' if i + 1 < n && b[i + 1] == '/' => {
                while i < n && b[i] != '\n' {
                    out.push(' ');
                    i += 1;
                }
            }
            '/' if i + 1 < n && b[i + 1] == '*' => {
                let mut depth = 1;
                out.push_str("  ");
                i += 2;
                while i < n && depth > 0 {
                    if b[i] == '/' && i + 1 < n && b[i + 1] == '*' {
                        depth += 1;
                        out.push_str("  ");
                        i += 2;
                    } else if b[i] == '*' && i + 1 < n && b[i + 1] == '/' {
                        depth -= 1;
                        out.push_str("  ");
                        i += 2;
                    } else {
                        out.push(blank(b[i]));
                        i += 1;
                    }
                }
            }
            '"' => {
                out.push('"');
                i += 1;
                while i < n {
                    if b[i] == '\\' && i + 1 < n {
                        out.push_str("  ");
                        i += 2;
                    } else if b[i] == '"' {
                        out.push('"');
                        i += 1;
                        break;
                    } else {
                        out.push(blank(b[i]));
                        i += 1;
                    }
                }
            }
            'r' | 'b' if !prev_ident => {
                // Possible raw/byte string prefix: r" r#" b" br" br#".
                let mut j = i;
                let mut is_raw = false;
                if b[j] == 'b' {
                    j += 1;
                }
                if j < n && b[j] == 'r' {
                    is_raw = true;
                    j += 1;
                }
                let mut hashes = 0;
                if is_raw {
                    while j < n && b[j] == '#' {
                        hashes += 1;
                        j += 1;
                    }
                }
                let is_literal = j < n && b[j] == '"' && (is_raw || b[i] == 'b');
                if is_literal {
                    for _ in i..=j {
                        out.push(' ');
                    }
                    i = j + 1;
                    while i < n {
                        if !is_raw && b[i] == '\\' && i + 1 < n {
                            // Plain byte string: honor escapes.
                            out.push_str("  ");
                            i += 2;
                        } else if b[i] == '"' {
                            // Close only on `"` followed by `hashes` #s.
                            let have =
                                (0..hashes).take_while(|&k| b.get(i + 1 + k) == Some(&'#')).count();
                            if have == hashes {
                                for _ in 0..=hashes {
                                    out.push(' ');
                                }
                                i += 1 + hashes;
                                break;
                            }
                            out.push(' ');
                            i += 1;
                        } else {
                            out.push(blank(b[i]));
                            i += 1;
                        }
                    }
                } else {
                    out.push(c);
                    i += 1;
                }
            }
            '\'' => {
                if i + 1 < n && b[i + 1] == '\\' {
                    // Escaped char literal: '\n', '\'', '\u{...}'.
                    out.push_str("'  ");
                    i += 3;
                    while i < n && b[i] != '\'' {
                        out.push(blank(b[i]));
                        i += 1;
                    }
                    if i < n {
                        out.push('\'');
                        i += 1;
                    }
                } else if i + 2 < n && b[i + 2] == '\'' {
                    // Simple char literal 'x' (including 'a' — a lifetime
                    // is never followed by a closing quote).
                    out.push_str("' '");
                    i += 3;
                } else {
                    // Lifetime tick.
                    out.push('\'');
                    i += 1;
                }
            }
            _ => {
                out.push(c);
                i += 1;
            }
        }
    }
    out
}

/// True when `word` occurs in `line` delimited by non-identifier chars.
pub(crate) fn has_ident(line: &str, word: &str) -> bool {
    ident_at(line, word).is_some()
}

/// Byte offset of the first occurrence of `word` in `line` delimited by
/// non-identifier chars.
fn ident_at(line: &str, word: &str) -> Option<usize> {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut start = 0;
    while let Some(pos) = line[start..].find(word) {
        let at = start + pos;
        let before_ok = at == 0 || !line[..at].chars().next_back().is_some_and(is_ident);
        let after_ok = !line[at + word.len()..].chars().next().is_some_and(is_ident);
        if before_ok && after_ok {
            return Some(at);
        }
        start = at + word.len();
    }
    None
}

/// Marks every line inside a `#[cfg(test)]`-gated item (brace-matched
/// from the attribute), so unit-test modules are rule-exempt.
pub(crate) fn test_mask(stripped_lines: &[&str]) -> Vec<bool> {
    let mut mask = vec![false; stripped_lines.len()];
    let mut i = 0;
    while i < stripped_lines.len() {
        if stripped_lines[i].contains("cfg(test)") {
            let mut depth: i64 = 0;
            let mut opened = false;
            let mut j = i;
            while j < stripped_lines.len() {
                mask[j] = true;
                for ch in stripped_lines[j].chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                if opened && depth <= 0 {
                    break;
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    mask
}

/// If line `idx` (or the comment-only line directly above it) carries a
/// `lint:allow(<slug>)` annotation, returns its trimmed reason text
/// (possibly empty — the caller turns an empty reason into a finding).
pub(crate) fn annotation_reason<'a>(
    raw_lines: &'a [&'a str],
    idx: usize,
    slug: &str,
) -> Option<&'a str> {
    let needle = format!("lint:allow({slug})");
    let extract = |line: &'a str| -> Option<&'a str> {
        let pos = line.find(&needle)?;
        let rest = &line[pos + needle.len()..];
        Some(rest.strip_prefix(':').unwrap_or("").trim())
    };
    if let Some(r) = extract(raw_lines[idx]) {
        return Some(r);
    }
    if idx > 0 {
        let above = raw_lines[idx - 1].trim_start();
        if above.starts_with("//") {
            return extract(raw_lines[idx - 1]);
        }
    }
    None
}

/// Crates whose output feeds reports or policy decisions (D2 scope, and
/// the D6 entry-point set: every non-test fn in these crates is treated
/// as a decision/report entry).
pub(crate) const ORDERED_CRATES: &[&str] = &[
    "crates/mtm/",
    "crates/baselines/",
    "crates/harness/",
    "crates/tiersim/",
    "crates/obs/",
    "crates/scenario/",
];

/// Entropy-source identifiers rejected everywhere (D3).
pub(crate) const ENTROPY_IDENTS: &[&str] =
    &["thread_rng", "OsRng", "getrandom", "from_entropy", "StdRng", "SmallRng", "RandomState"];

/// Files holding the transactional migration paths (D5 scope).
const NO_UNWRAP_FILES: &[&str] = &["crates/tiersim/src/migrate.rs", "crates/mtm/src/migration.rs"];

/// True when the path is wholly test code (integration tests, benches).
pub(crate) fn is_test_path(rel: &str) -> bool {
    rel.starts_with("tests/")
        || rel.contains("/tests/")
        || rel.starts_with("benches/")
        || rel.contains("/benches/")
}

/// Scans one source file (before allowlist filtering). `rel` is the
/// workspace-relative path with forward slashes.
pub fn scan_source(rel: &str, src: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    if is_test_path(rel) {
        return findings;
    }
    let stripped = strip_code(src);
    let stripped_lines: Vec<&str> = stripped.lines().collect();
    let raw_lines: Vec<&str> = src.lines().collect();
    let mask = test_mask(&stripped_lines);

    let d1_scope = !rel.starts_with("crates/bench/");
    let d2_scope = ORDERED_CRATES.iter().any(|p| rel.starts_with(p));
    let d5_scope = NO_UNWRAP_FILES.iter().any(|f| rel == *f || rel.ends_with(f));

    let emit = |line_idx: usize, rule: Rule, message: String, findings: &mut Vec<Finding>| {
        match annotation_reason(&raw_lines, line_idx, rule.slug()) {
            Some(reason) if !reason.is_empty() => {}
            Some(_) => findings.push(Finding {
                path: rel.to_string(),
                line: line_idx + 1,
                rule,
                message: format!(
                    "lint:allow({}) annotation is missing its justification",
                    rule.slug()
                ),
            }),
            None => findings.push(Finding { path: rel.to_string(), line: line_idx + 1, rule, message }),
        }
    };

    for (idx, line) in stripped_lines.iter().enumerate() {
        if mask[idx] {
            continue;
        }
        let collapsed: String = line.chars().filter(|c| !c.is_whitespace()).collect();

        if d1_scope
            && (collapsed.contains("Instant::now(") || collapsed.contains("SystemTime::now("))
        {
            emit(
                idx,
                Rule::WallClock,
                "wall-clock read outside crates/bench; decision paths must use the virtual clock"
                    .to_string(),
                &mut findings,
            );
        }

        if d2_scope && (has_ident(line, "HashMap") || has_ident(line, "HashSet")) {
            let which = if has_ident(line, "HashMap") { "HashMap" } else { "HashSet" };
            emit(
                idx,
                Rule::UnorderedMap,
                format!(
                    "{which} in a report/decision crate; use BTreeMap/BTreeSet or justify with lint:allow(unordered-map)"
                ),
                &mut findings,
            );
        }

        for ident in ENTROPY_IDENTS {
            if has_ident(line, ident) {
                emit(
                    idx,
                    Rule::Entropy,
                    format!("entropy source `{ident}`; all randomness must come from seeded in-repo PRNGs"),
                    &mut findings,
                );
                break;
            }
        }
        if has_ident(line, "rand") && line.contains("rand::") {
            emit(
                idx,
                Rule::Entropy,
                "`rand::` path; the external rand crate is neither hermetic nor deterministic"
                    .to_string(),
                &mut findings,
            );
        }

        // D4: `pub enum FooError` must carry #[non_exhaustive] within the
        // preceding attribute block (look back up to 8 lines).
        if let Some(rest) = line.trim_start().strip_prefix("pub enum ") {
            let ident: String =
                rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
            if ident.ends_with("Error") {
                let lo = idx.saturating_sub(8);
                let attributed =
                    stripped_lines[lo..idx].iter().any(|l| l.contains("non_exhaustive"));
                if !attributed {
                    emit(
                        idx,
                        Rule::NonExhaustiveError,
                        format!("public error enum `{ident}` is not #[non_exhaustive]"),
                        &mut findings,
                    );
                }
            }
        }

        if d5_scope && (collapsed.contains(".unwrap()") || collapsed.contains(".expect(")) {
            emit(
                idx,
                Rule::NoUnwrap,
                "panicking shortcut in a transactional migration path; handle the None/Err arm"
                    .to_string(),
                &mut findings,
            );
        }

        if let Some(message) = unsafe_without_safety(&stripped_lines, &raw_lines, idx) {
            emit(idx, Rule::UnsafeSafety, message, &mut findings);
        }
    }
    findings
}

/// U1 for the `unsafe` on line `idx`: `None` when it carries its safety
/// argument (or is not an unsafe item at all, e.g. an `unsafe(...)`
/// attribute), else the finding's message. A block, impl or extern block
/// needs a `// SAFETY:` line in the run of `//` comments directly above
/// it; an `unsafe fn` or trait needs a `# Safety` heading in the doc
/// comments above it (attributes may sit between).
fn unsafe_without_safety(stripped: &[&str], raw: &[&str], idx: usize) -> Option<String> {
    let line = stripped[idx];
    let at = ident_at(line, "unsafe")?;
    // What follows `unsafe`, on a later line if it ends this one.
    let after =
        std::iter::once(&line[at + "unsafe".len()..]).chain(stripped[idx + 1..].iter().copied());
    let rest = after.map(str::trim).find(|l| !l.is_empty()).unwrap_or("");
    let word: String = rest.chars().take_while(|c| c.is_alphanumeric() || *c == '_').collect();
    let declares_fn = match word.as_str() {
        "fn" | "trait" => true,
        "extern" => rest.split('{').next().is_some_and(|head| has_ident(head, "fn")),
        "impl" => false,
        "" if rest.starts_with('{') => false,
        _ => return None,
    };
    let above = raw[..idx].iter().rev().map(|l| l.trim_start());
    if declares_fn {
        let mut doc = above.take_while(|l| l.starts_with("///") || l.starts_with("#["));
        if doc.any(|l| l.trim_start_matches('/').trim() == "# Safety") {
            return None;
        }
        return Some(format!(
            "`unsafe {word}` without a `# Safety` doc section stating what must hold"
        ));
    }
    let mut comments = above.take_while(|l| l.starts_with("//") && !l.starts_with("///"));
    if comments.any(|l| l.trim_start_matches('/').trim_start().starts_with("SAFETY:")) {
        return None;
    }
    let what = if word.is_empty() { "block".to_string() } else { word };
    Some(format!("`unsafe` {what} without a `// SAFETY:` comment directly above it"))
}

/// Recursively collects every `.rs` file under `root`, skipping build
/// output and VCS/artifact directories. Sorted for deterministic output.
pub fn workspace_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                // `fixtures` holds the lint crate's seeded-violation
                // corpus — scanned by its own tests, never by self-scan.
                if matches!(name.as_ref(), "target" | ".git" | "results" | ".claude" | "fixtures") {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Relative path with forward slashes, for findings and scope checks.
fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// L1: flags `lint:allow(<slug>)` annotations whose slug names no
/// existing rule — a misspelled slug must fail loudly, not silently
/// leave the violation unexempted (or worse, look exempted in review).
/// Only slugs drawn from the annotation charset `[a-z0-9-]+` are
/// checked, so prose like `lint:allow(<slug>)` in docs stays inert.
pub fn scan_bad_allows(rel: &str, src: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    if is_test_path(rel) {
        return findings;
    }
    for (idx, line) in src.lines().enumerate() {
        let mut start = 0;
        while let Some(pos) = line[start..].find("lint:allow(") {
            let at = start + pos + "lint:allow(".len();
            let rest = &line[at..];
            let slug: String = rest
                .chars()
                .take_while(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || *c == '-')
                .collect();
            start = at;
            if slug.is_empty() || !rest[slug.len()..].starts_with(')') {
                continue;
            }
            if Rule::from_slug(&slug).is_none() {
                findings.push(Finding {
                    path: rel.to_string(),
                    line: idx + 1,
                    rule: Rule::BadAllow,
                    message: format!(
                        "lint:allow({slug}) names no rule; known slugs: {}",
                        Rule::ALL.iter().map(|r| r.slug()).collect::<Vec<_>>().join(", ")
                    ),
                });
            }
        }
    }
    findings
}

/// L1 for the repo-wide allowlist: every `lint.toml` entry must name an
/// existing rule slug.
pub fn validate_allowlist(allows: &[Allow]) -> Vec<Finding> {
    allows
        .iter()
        .filter(|a| Rule::from_slug(&a.slug).is_none())
        .map(|a| Finding {
            path: "lint.toml".to_string(),
            line: a.line,
            rule: Rule::BadAllow,
            message: format!(
                "allow entry names unknown rule slug `{}`; known slugs: {}",
                a.slug,
                Rule::ALL.iter().map(|r| r.slug()).collect::<Vec<_>>().join(", ")
            ),
        })
        .collect()
}

/// Applies the allowlist: drops findings whose slug matches an entry and
/// whose path contains the entry's substring.
pub fn apply_allowlist(findings: Vec<Finding>, allows: &[Allow]) -> Vec<Finding> {
    findings
        .into_iter()
        .filter(|f| {
            !allows
                .iter()
                .any(|a| a.slug == f.rule.slug() && f.path.contains(&a.path_substr))
        })
        .collect()
}

/// Full lint run: every workspace `.rs` file through the textual rules,
/// every manifest through the hermeticity rules, then the semantic
/// passes (call-graph D6/D7/D8, obs-name O1) over the same sources,
/// allowlist applied, findings sorted. This is what `bin/lint` and
/// `tests/hermetic.rs` call.
pub fn run(root: &Path) -> Result<Vec<Finding>, String> {
    Ok(run_with_graph(root)?.0)
}

/// [`run`], but also returning the call-graph workspace so `bin/lint
/// --graph` can dump it without re-reading the tree.
pub fn run_with_graph(root: &Path) -> Result<(Vec<Finding>, graph::Workspace), String> {
    let allows = match std::fs::read_to_string(root.join("lint.toml")) {
        Ok(text) => parse_allowlist(&text)?,
        Err(_) => Vec::new(),
    };
    let mut files: Vec<(String, String)> = Vec::new();
    for path in workspace_sources(root) {
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("read {}: {e}", path.display()))?;
        files.push((rel_path(root, &path), src));
    }
    let (findings, ws) = run_on_files(&files, &allows, hermetic::scan_manifests(root)?);
    Ok((findings, ws))
}

/// The pure core of [`run`]: textual + semantic rules over in-memory
/// sources. Separated so the fixture-corpus tests can drive the whole
/// pipeline without touching the real tree.
pub fn run_on_files(
    files: &[(String, String)],
    allows: &[Allow],
    manifest_findings: Vec<Finding>,
) -> (Vec<Finding>, graph::Workspace) {
    let mut findings = validate_allowlist(allows);
    for (rel, src) in files {
        findings.extend(scan_source(rel, src));
        findings.extend(scan_bad_allows(rel, src));
    }
    findings.extend(manifest_findings);
    let mut findings = apply_allowlist(findings, allows);

    // The semantic passes dedup against textual findings that *survived*
    // the allowlist: a base finding still on the report means the site
    // is already visible, so D6/D8 stay quiet there; a base finding
    // suppressed only by a path-level `lint.toml` entry leaves the site
    // auditable from its callers (the laundering catch).
    let base: BTreeSet<(String, usize, Rule)> =
        findings.iter().map(|f| (f.path.clone(), f.line, f.rule)).collect();
    let ws = graph::Workspace::build(files);
    let mut semantic = ws.check_taint(&base);
    semantic.extend(ws.check_lock_order());
    semantic.extend(ws.check_panic_paths(&base));
    semantic.extend(obsnames::audit(files));
    findings.extend(apply_allowlist(semantic, allows));
    findings.sort();
    (findings, ws)
}

#[cfg(test)]
mod tests;
