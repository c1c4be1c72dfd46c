//! The invariant lint pass: scans non-test library code for panic-prone
//! constructs and checks crate-root hygiene headers.
//!
//! Rule IDs (also the names accepted by `// lint: allow(<rule>)`):
//!
//! | rule            | rejects                                              |
//! |-----------------|------------------------------------------------------|
//! | `no-unwrap`     | `.unwrap()` on `Option`/`Result`                     |
//! | `no-expect`     | `.expect(...)`                                       |
//! | `no-panic`      | `panic!(...)`                                        |
//! | `no-todo`       | `todo!` / `unimplemented!`                           |
//! | `no-index`      | unchecked `x[i]` indexing (net/core/serve only)      |
//! | `transport-stats` | `Transport` impls without a forwarding `stats()`   |
//! | `forbid-unsafe` | crate roots missing `#![forbid(unsafe_code)]`        |
//! | `missing-docs`  | crate roots missing a `missing_docs` lint header     |

use crate::lexer;
use crate::symbols::{Model, SourceFile};
use crate::Diagnostic;
use std::fs;
use std::path::{Path, PathBuf};

/// Crates where unchecked indexing is rejected outright: a bad index in the
/// distributed runtime, the wire protocol or the tenant-facing serve front
/// kills a live inference, whereas the numeric kernels index in tight loops
/// under their own invariants.
const INDEX_CHECKED_CRATES: &[&str] = &["net", "core", "serve"];

/// Runs the lint pass over an already-lexed workspace [`Model`] (the
/// sources are masked exactly once per xtask invocation and shared with
/// the audit passes), appending diagnostics. Returns `(files, lines)`
/// scanned for the summary.
pub fn check(model: &Model, diags: &mut Vec<Diagnostic>) -> (usize, usize) {
    let mut files = 0usize;
    let mut lines = 0usize;
    for file in &model.files {
        if file.rel_path.ends_with("/src/lib.rs") {
            check_crate_root(file, diags);
        }
        let (f, l) = check_file(file, diags);
        files += f;
        lines += l;
    }
    (files, lines)
}

/// Library crates: every `crates/*` directory with a `src/lib.rs`.
pub fn library_crates(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = fs::read_dir(root.join("crates")) else {
        return out;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.join("src/lib.rs").is_file() {
            out.push(path);
        }
    }
    out.sort();
    out
}

/// All `.rs` files under `dir`, excluding `src/bin/` (CLI binaries may exit
/// loudly) — recursion is shallow here, the workspace has no deep trees.
pub(crate) fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n == "bin") {
                    continue;
                }
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Crate-root hygiene headers. Inner attributes carry no strings or
/// comments, so the masked lines preserve them verbatim.
fn check_crate_root(file: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let has = |needle: &str| file.masked.lines.iter().any(|l| l.contains(needle));
    if !has("#![forbid(unsafe_code)]") {
        diags.push(Diagnostic {
            path: file.rel_path.clone(),
            line: 1,
            rule: "forbid-unsafe",
            message: "crate root must carry #![forbid(unsafe_code)]".into(),
        });
    }
    if !has("#![warn(missing_docs)]") && !has("#![deny(missing_docs)]") {
        diags.push(Diagnostic {
            path: file.rel_path.clone(),
            line: 1,
            rule: "missing-docs",
            message: "crate root must enable the missing_docs lint".into(),
        });
    }
}

fn check_file(file: &SourceFile, diags: &mut Vec<Diagnostic>) -> (usize, usize) {
    let rel = &file.rel_path;
    let masked = &file.masked;
    let skip = &file.test_mask;
    let index_checked = INDEX_CHECKED_CRATES.contains(&file.crate_name.as_str());

    for (idx, line) in masked.lines.iter().enumerate() {
        let lineno = idx + 1;
        if skip.get(idx).copied().unwrap_or(false) {
            continue;
        }
        let mut hits: Vec<(&'static str, String)> = Vec::new();
        if line.contains(".unwrap()") {
            hits.push((
                "no-unwrap",
                "call .unwrap() may panic; return a typed error".into(),
            ));
        }
        if line.contains(".expect(") {
            hits.push((
                "no-expect",
                "call .expect() may panic; return a typed error".into(),
            ));
        }
        if contains_bang_macro(line, "panic") {
            hits.push((
                "no-panic",
                "panic! aborts a live inference; return an error".into(),
            ));
        }
        if contains_bang_macro(line, "todo") || contains_bang_macro(line, "unimplemented") {
            hits.push(("no-todo", "unfinished code path".into()));
        }
        if index_checked && has_unchecked_index(line) {
            hits.push((
                "no-index",
                "unchecked indexing may panic; use .get() or validate first".into(),
            ));
        }
        for (rule, message) in hits {
            if !masked.is_allowed(lineno, rule) {
                diags.push(Diagnostic {
                    path: rel.clone(),
                    line: lineno,
                    rule,
                    message,
                });
            }
        }
    }
    check_transport_impls(masked, skip, rel, diags);
    (1, masked.lines.len())
}

/// The `transport-stats` rule: every `impl … Transport for …` block must
/// define `fn stats(`, and the body must not be a bare
/// `TransportStats::default()` stub. Wrappers that forget to forward
/// `stats()` silently zero every counter behind them — exactly the kind of
/// observability rot that makes chaos-test failures undebuggable.
fn check_transport_impls(
    masked: &lexer::Masked,
    skip: &[bool],
    rel: &str,
    diags: &mut Vec<Diagnostic>,
) {
    let mut i = 0usize;
    while i < masked.lines.len() {
        let line = masked.lines.get(i).map(String::as_str).unwrap_or("");
        if skip.get(i).copied().unwrap_or(false) || !is_transport_impl(line) {
            i += 1;
            continue;
        }
        let end = matching_brace_end(&masked.lines, i);
        let impl_lineno = i + 1;
        let mut stats_line: Option<usize> = None;
        for (j, body_line) in masked.lines.iter().enumerate().take(end + 1).skip(i) {
            if body_line.contains("fn stats(") {
                stats_line = Some(j);
                break;
            }
        }
        match stats_line {
            None => {
                if !masked.is_allowed(impl_lineno, "transport-stats") {
                    diags.push(Diagnostic {
                        path: rel.to_string(),
                        line: impl_lineno,
                        rule: "transport-stats",
                        message: "Transport impl must define stats(); without it the \
                                  transport's counters are invisible to callers"
                            .into(),
                    });
                }
            }
            Some(j) => {
                let body_end = matching_brace_end(&masked.lines, j);
                let body: String = masked
                    .lines
                    .iter()
                    .take(body_end + 1)
                    .skip(j)
                    .map(|l| l.trim())
                    .collect::<Vec<_>>()
                    .join(" ");
                let after_open = body.split_once('{').map(|(_, b)| b).unwrap_or("");
                let inner = after_open
                    .rsplit_once('}')
                    .map(|(b, _)| b)
                    .unwrap_or(after_open)
                    .trim();
                if inner == "TransportStats::default()"
                    && !masked.is_allowed(j + 1, "transport-stats")
                {
                    diags.push(Diagnostic {
                        path: rel.to_string(),
                        line: j + 1,
                        rule: "transport-stats",
                        message: "stats() returns a default stub; forward or aggregate the \
                                  underlying transport's counters"
                            .into(),
                    });
                }
            }
        }
        i = end + 1;
    }
}

/// True if `line` opens an `impl … Transport for …` block (not a trait
/// definition, not an inherent impl, not a `SomethingTransport for`).
fn is_transport_impl(line: &str) -> bool {
    if !line.trim_start().starts_with("impl") {
        return false;
    }
    let Some(pos) = line.find("Transport for ") else {
        return false;
    };
    pos == 0
        || !line
            .get(..pos)
            .and_then(|prefix| prefix.chars().next_back())
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Index of the line holding the `}` that closes the first `{` at or after
/// line `start` (clamped to the last line if braces never balance).
pub(crate) fn matching_brace_end(lines: &[String], start: usize) -> usize {
    let mut depth = 0i32;
    let mut opened = false;
    for (j, line) in lines.iter().enumerate().skip(start) {
        for ch in line.chars() {
            match ch {
                '{' => {
                    depth += 1;
                    opened = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
            if opened && depth == 0 {
                return j;
            }
        }
    }
    lines.len().saturating_sub(1)
}

/// Marks lines inside `#[cfg(test)]`-gated items (brace-matched from the
/// attribute) so the lint only fires on shipping code.
pub(crate) fn test_lines(lines: &[String]) -> Vec<bool> {
    let mut skip = vec![false; lines.len()];
    let mut i = 0usize;
    while i < lines.len() {
        if lines[i].contains("#[cfg(test)]") {
            // Walk forward to the first `{`, then to its matching `}`.
            let mut depth = 0i32;
            let mut opened = false;
            let mut j = i;
            'outer: while j < lines.len() {
                skip[j] = true;
                for ch in lines[j].chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            opened = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                    if opened && depth == 0 {
                        break 'outer;
                    }
                }
                j += 1;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    skip
}

/// True if `line` invokes `name!` as a macro (word-boundary on the left).
fn contains_bang_macro(line: &str, name: &str) -> bool {
    let needle = format!("{name}!");
    let mut start = 0usize;
    while let Some(pos) = line[start..].find(&needle) {
        let at = start + pos;
        let boundary = at == 0
            || !line[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
        if boundary {
            return true;
        }
        start = at + needle.len();
    }
    false
}

/// Heuristic for unchecked index/slice expressions: `[` directly after an
/// identifier character, `]`, or `)` is an `Index` use (`buf[i]`,
/// `&frame[..n]`); `#[attr]`, `vec![…]`, array types and literals are not.
fn has_unchecked_index(line: &str) -> bool {
    let bytes = line.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        if b != b'[' || i == 0 {
            continue;
        }
        let prev = bytes[i - 1];
        if prev.is_ascii_alphanumeric() || prev == b'_' || prev == b']' || prev == b')' {
            return true;
        }
    }
    false
}

pub(crate) fn display_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .display()
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bang_macro_word_boundary() {
        assert!(contains_bang_macro("panic!(\"x\")", "panic"));
        assert!(!contains_bang_macro("should_panic!(\"x\")", "panic"));
        assert!(!contains_bang_macro("no macros here", "panic"));
    }

    #[test]
    fn index_heuristic() {
        assert!(has_unchecked_index("let x = buf[i];"));
        assert!(has_unchecked_index("let s = &frame[..n];"));
        assert!(!has_unchecked_index("#[derive(Debug)]"));
        assert!(!has_unchecked_index("let v = vec![0u8; 4];"));
        assert!(!has_unchecked_index("fn f(x: [u8; 4]) {}"));
    }

    fn transport_diags(text: &str) -> Vec<Diagnostic> {
        let masked = lexer::mask(text);
        let skip = vec![false; masked.lines.len()];
        let mut diags = Vec::new();
        check_transport_impls(&masked, &skip, "x.rs", &mut diags);
        diags
    }

    #[test]
    fn transport_impl_without_stats_is_flagged() {
        let diags = transport_diags(
            "impl Transport for Foo {\n    fn send(&self) {}\n}\n\
             impl<T: Transport> Transport for Bar<T> {\n    fn send(&self) {}\n}\n",
        );
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.rule == "transport-stats"));
        assert_eq!(diags[0].line, 1);
        assert_eq!(diags[1].line, 4);
    }

    #[test]
    fn transport_stats_stub_is_flagged() {
        let diags = transport_diags(
            "impl Transport for Foo {\n    fn stats(&self) -> TransportStats {\n        \
             TransportStats::default()\n    }\n}\n",
        );
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, "transport-stats");
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn forwarding_stats_passes() {
        let diags = transport_diags(
            "impl Transport for Foo {\n    fn stats(&self) -> TransportStats {\n        \
             self.inner.stats()\n    }\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn non_transport_impls_are_ignored() {
        let diags = transport_diags(
            "impl Foo {\n    fn go(&self) {}\n}\n\
             impl MyTransport for Foo {\n    fn go(&self) {}\n}\n\
             pub trait Transport {\n    fn stats(&self);\n}\n",
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn test_blocks_are_skipped() {
        let lines: Vec<String> = [
            "fn a() {}",
            "#[cfg(test)]",
            "mod tests {",
            "    fn b() {}",
            "}",
            "fn c() {}",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let skip = test_lines(&lines);
        assert_eq!(skip, vec![false, true, true, true, true, false]);
    }
}
