//! Per-file analysis context: lexes the source and precomputes the
//! structures every rule needs — the code-token index, inline-allow
//! lines, `#[cfg(test)]` spans, and enclosing-function lookup.

use crate::lexer::{lex, Token, TokenKind};
use std::collections::{BTreeMap, BTreeSet};

/// How a file participates in the build, which decides which rules apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code: the subject of every rule.
    Lib,
    /// A binary target (`src/bin/…`, `main.rs`): CLIs own their stdout
    /// and their exit behaviour, so hygiene rules do not apply.
    Bin,
    /// Integration tests and benches: exempt from all rules.
    TestOrBench,
}

/// The lexed, pre-indexed view of one source file.
#[derive(Debug)]
pub struct FileContext {
    /// Crate directory name (`power`, `thermal`, …).
    pub crate_name: String,
    /// Build role of the file.
    pub kind: FileKind,
    /// Workspace-relative path with `/` separators.
    pub rel_path: String,
    /// Every token, comments included.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of the non-comment tokens, in order.
    pub code: Vec<usize>,
    /// Lines carrying an inline allow directive → the rules it names.
    pub allows: BTreeMap<u32, BTreeSet<String>>,
    /// Half-open ranges of raw-token indices inside `#[cfg(test)]` items.
    pub test_spans: Vec<(usize, usize)>,
}

impl FileContext {
    /// Lexes and indexes `source`.
    #[must_use]
    pub fn new(crate_name: &str, kind: FileKind, rel_path: &str, source: &str) -> Self {
        let tokens = lex(source);
        let code: Vec<usize> = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !t.is_comment())
            .map(|(i, _)| i)
            .collect();
        let allows = collect_allows(&tokens);
        let test_spans = collect_test_spans(&tokens, &code);
        FileContext {
            crate_name: crate_name.to_string(),
            kind,
            rel_path: rel_path.to_string(),
            tokens,
            code,
            allows,
            test_spans,
        }
    }

    /// True if the raw-token index lies inside a `#[cfg(test)]` item.
    #[must_use]
    pub fn in_test_span(&self, token_index: usize) -> bool {
        self.test_spans
            .iter()
            .any(|&(start, end)| token_index >= start && token_index < end)
    }

    /// True if a finding on `line` for `rule` is suppressed by an inline
    /// allow on the same line or the line immediately above.
    #[must_use]
    pub fn is_allowed(&self, line: u32, rule: &str) -> bool {
        [line, line.saturating_sub(1)]
            .iter()
            .any(|l| self.allows.get(l).is_some_and(|set| set.contains(rule)))
    }

    /// Name of the function enclosing (or most recently preceding) the
    /// code token at position `code_pos` in [`FileContext::code`]. Falls
    /// back to the token's own text so every finding has a stable symbol.
    #[must_use]
    pub fn enclosing_fn(&self, code_pos: usize) -> String {
        for back in (0..code_pos).rev() {
            let tok = &self.tokens[self.code[back]];
            if tok.kind == TokenKind::Ident && tok.text == "fn" {
                if let Some(&next) = self.code.get(back + 1) {
                    let name = &self.tokens[next];
                    if name.kind == TokenKind::Ident {
                        return name.text.clone();
                    }
                }
            }
        }
        self.code
            .get(code_pos)
            .map(|&i| self.tokens[i].text.clone())
            .unwrap_or_default()
    }

    /// The code token at `code_pos`, if any.
    #[must_use]
    pub fn code_token(&self, code_pos: usize) -> Option<&Token> {
        self.code.get(code_pos).map(|&i| &self.tokens[i])
    }

    /// Shorthand: text of the code token at `code_pos` (empty past EOF).
    #[must_use]
    pub fn code_text(&self, code_pos: usize) -> &str {
        self.code
            .get(code_pos)
            .map_or("", |&i| self.tokens[i].text.as_str())
    }
}

/// Extracts inline allow directives (`ramp-lint:allow` and a
/// parenthesised, comma-separated rule list) from plain `//` comments.
/// The directive suppresses findings on its own line and the line below,
/// so it can trail the offending statement or sit directly above it.
/// Doc and block comments never carry one, so documentation may spell
/// the directive out.
fn collect_allows(tokens: &[Token]) -> BTreeMap<u32, BTreeSet<String>> {
    let mut map: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
    for tok in tokens.iter().filter(|t| is_plain_line_comment(t)) {
        let mut rest = tok.text.as_str();
        while let Some(at) = rest.find("ramp-lint:allow(") {
            rest = &rest[at + "ramp-lint:allow(".len()..];
            let Some(close) = rest.find(')') else { break };
            let entry = map.entry(tok.line).or_default();
            for rule in rest[..close].split(',') {
                let rule = rule.trim();
                if !rule.is_empty() {
                    entry.insert(rule.to_string());
                }
            }
            rest = &rest[close..];
        }
    }
    map
}

/// True for a `//` comment that is not a doc comment (`///`, `//!`); a
/// comment of four or more slashes is plain again, as in rustdoc.
fn is_plain_line_comment(tok: &Token) -> bool {
    let text = tok.text.as_str();
    tok.kind == TokenKind::LineComment
        && !text.starts_with("//!")
        && (!text.starts_with("///") || text.starts_with("////"))
}

/// Finds the raw-token spans of `#[cfg(test)]` items: the attribute, any
/// further attributes, then the item through its closing brace (or `;`).
fn collect_test_spans(tokens: &[Token], code: &[usize]) -> Vec<(usize, usize)> {
    let text = |pos: usize| code.get(pos).map_or("", |&i| tokens[i].text.as_str());
    let mut spans = Vec::new();
    let mut pos = 0usize;
    while pos < code.len() {
        // Match `#` `[` `cfg` `(` `test` `)` `]`.
        let is_cfg_test = text(pos) == "#"
            && text(pos + 1) == "["
            && text(pos + 2) == "cfg"
            && text(pos + 3) == "("
            && text(pos + 4) == "test"
            && text(pos + 5) == ")"
            && text(pos + 6) == "]";
        if !is_cfg_test {
            pos += 1;
            continue;
        }
        let span_start = code[pos];
        let mut cursor = pos + 7;
        // Skip any further attributes on the same item.
        while text(cursor) == "#" && text(cursor + 1) == "[" {
            let mut depth = 0usize;
            cursor += 1;
            while cursor < code.len() {
                match text(cursor) {
                    "[" => depth += 1,
                    "]" => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            cursor += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                cursor += 1;
            }
        }
        // Advance to the item's body `{` (or a `;` for bodiless items).
        let mut found_body = false;
        while cursor < code.len() {
            match text(cursor) {
                "{" => {
                    found_body = true;
                    break;
                }
                ";" => break,
                _ => cursor += 1,
            }
        }
        if found_body {
            // Match braces to the end of the item.
            let mut depth = 0usize;
            while cursor < code.len() {
                match text(cursor) {
                    "{" => depth += 1,
                    "}" => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                cursor += 1;
            }
        }
        let span_end = code
            .get(cursor)
            .copied()
            .map_or(tokens.len(), |raw| raw + 1);
        spans.push((span_start, span_end));
        pos = cursor.max(pos + 1);
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(src: &str) -> FileContext {
        FileContext::new("core", FileKind::Lib, "crates/core/src/x.rs", src)
    }

    #[test]
    fn cfg_test_module_is_spanned() {
        let src = "pub fn live() {}\n#[cfg(test)]\nmod tests {\n  fn t() { x.unwrap(); }\n}\npub fn after() {}";
        let c = ctx(src);
        let unwrap_idx = c
            .tokens
            .iter()
            .position(|t| t.text == "unwrap")
            .expect("token present");
        assert!(c.in_test_span(unwrap_idx));
        let after_idx = c
            .tokens
            .iter()
            .position(|t| t.text == "after")
            .expect("token present");
        assert!(!c.in_test_span(after_idx));
    }

    #[test]
    fn cfg_test_with_extra_attributes() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests { fn f() {} }\nfn g() {}";
        let c = ctx(src);
        let f_idx = c.tokens.iter().position(|t| t.text == "f").expect("f");
        let g_idx = c.tokens.iter().position(|t| t.text == "g").expect("g");
        assert!(c.in_test_span(f_idx));
        assert!(!c.in_test_span(g_idx));
    }

    #[test]
    fn allow_applies_to_same_and_next_line() {
        let src = "// ramp-lint:allow(panic-hygiene) -- invariant\nlet x = y.unwrap();\nlet z = w.unwrap(); // ramp-lint:allow(panic-hygiene, determinism)";
        let c = ctx(src);
        assert!(c.is_allowed(2, "panic-hygiene"));
        assert!(c.is_allowed(3, "panic-hygiene"));
        assert!(c.is_allowed(3, "determinism"));
        assert!(!c.is_allowed(2, "determinism"));
    }

    #[test]
    fn enclosing_fn_finds_nearest() {
        let src = "fn alpha() { one(); }\nfn beta() { two(); }";
        let c = ctx(src);
        let two_pos = c
            .code
            .iter()
            .position(|&i| c.tokens[i].text == "two")
            .expect("two");
        assert_eq!(c.enclosing_fn(two_pos), "beta");
    }
}
