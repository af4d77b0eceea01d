//! The rule set: each rule scans a [`FileContext`] token stream and
//! reports [`Finding`]s. Rules are purely lexical — see module docs on
//! [`crate::lexer`] for what that buys and costs.

use crate::context::{FileContext, FileKind};
use crate::findings::{Finding, Severity};
use crate::lexer::TokenKind;

/// Metadata for one rule: fixed severity plus a one-line description
/// (surfaced in the SARIF `rules` array and the README rule table).
#[derive(Debug, Clone, Copy)]
pub struct RuleMeta {
    /// Rule name as it appears in findings and allow directives.
    pub name: &'static str,
    /// The severity every finding of this rule carries.
    pub severity: Severity,
    /// One-line description of what the rule catches.
    pub summary: &'static str,
}

/// Every rule, token-local and cross-file, in reporting order.
pub const RULES: [RuleMeta; 10] = [
    RuleMeta {
        name: "unit-safety",
        severity: Severity::Error,
        summary: "raw f64 in pub fn signatures of the model crates",
    },
    RuleMeta {
        name: "determinism",
        severity: Severity::Error,
        summary: "wall clocks, OS entropy, hash-order iteration in simulation code",
    },
    RuleMeta {
        name: "obs-hygiene",
        severity: Severity::Warning,
        summary: "println!/eprintln!/dbg! bypassing the ramp-obs sinks",
    },
    RuleMeta {
        name: "panic-hygiene",
        severity: Severity::Warning,
        summary: "unwrap()/expect()/panic! on library paths",
    },
    RuleMeta {
        name: "span-hygiene",
        severity: Severity::Warning,
        summary: "dynamic or malformed span/metric names",
    },
    RuleMeta {
        name: "panic-reach",
        severity: Severity::Error,
        summary: "pub model-crate APIs transitively reaching a panic site",
    },
    RuleMeta {
        name: "float-determinism",
        severity: Severity::Error,
        summary: "f64/f32 accumulation inside Executor closures or merge callbacks",
    },
    RuleMeta {
        name: "atomic-ordering",
        severity: Severity::Warning,
        summary: "Relaxed stores paired with Acquire loads; atomics outside obs/core",
    },
    RuleMeta {
        name: "alloc-hygiene",
        severity: Severity::Warning,
        summary: "allocation-prone constructs in declared hot paths",
    },
    RuleMeta {
        name: "allow-hygiene",
        severity: Severity::Warning,
        summary: "inline allows naming an unknown rule or one that never runs on the file",
    },
];

/// Looks a rule up by name (used to rehydrate `&'static` rule names from
/// the incremental cache).
#[must_use]
pub fn rule_named(name: &str) -> Option<&'static RuleMeta> {
    RULES.iter().find(|r| r.name == name)
}

/// Crates whose public APIs must use `ramp-units` newtypes instead of
/// raw `f64` (the model crates, where a bare double is a latent
/// unit-confusion bug).
const UNIT_SAFE_CRATES: [&str; 3] = ["power", "thermal", "core"];

/// Crates exempt from the determinism rule: `obs` implements the clocks
/// and sinks, `bench` measures wall-time by design.
const DETERMINISM_EXEMPT: [&str; 2] = ["obs", "bench"];

/// Crates exempt from observability hygiene: `obs` implements the
/// stderr sink itself.
const OBS_EXEMPT: [&str; 1] = ["obs"];

/// Crates exempt from panic hygiene: `bench` is the experiment harness,
/// where aborting on a broken study is the correct behaviour.
const PANIC_EXEMPT: [&str; 1] = ["bench"];

/// Crates exempt from span hygiene: `obs` implements the span/metric
/// registry itself, so its internals handle names generically.
const SPAN_EXEMPT: [&str; 1] = ["obs"];

/// Whether `rule` reads files of kind `kind` in crate `crate_name`:
/// the one scope table rule dispatch and [`allow_hygiene`] share. Only
/// library files are analyzed. The cross-file rules read every library
/// file (panic-reach follows calls into any crate).
#[must_use]
fn runs_on(rule: &str, crate_name: &str, kind: FileKind) -> bool {
    let listed = |crates: &[&str]| crates.contains(&crate_name);
    kind == FileKind::Lib
        && match rule {
            "unit-safety" => listed(&UNIT_SAFE_CRATES),
            "determinism" => !listed(&DETERMINISM_EXEMPT),
            "obs-hygiene" => !listed(&OBS_EXEMPT),
            "panic-hygiene" => !listed(&PANIC_EXEMPT),
            "span-hygiene" => !listed(&SPAN_EXEMPT),
            "panic-reach" | "float-determinism" | "atomic-ordering" | "alloc-hygiene" => true,
            _ => false,
        }
}

/// Every applicable rule's findings for one file, before inline allows
/// are applied.
#[must_use]
fn raw_findings(ctx: &FileContext) -> Vec<Finding> {
    let mut findings = Vec::new();
    let runs = |rule| runs_on(rule, &ctx.crate_name, ctx.kind);
    if runs("unit-safety") {
        unit_safety(ctx, &mut findings);
    }
    if runs("determinism") {
        determinism(ctx, &mut findings);
    }
    if runs("obs-hygiene") {
        obs_hygiene(ctx, &mut findings);
    }
    if runs("panic-hygiene") {
        panic_hygiene(ctx, &mut findings);
    }
    if runs("span-hygiene") {
        span_hygiene(ctx, &mut findings);
    }
    findings
}

/// Runs every applicable rule over one file, applying inline allows.
/// Returns the surviving findings and the count suppressed inline.
#[must_use]
pub fn check_file_counted(ctx: &FileContext) -> (Vec<Finding>, usize) {
    let all = raw_findings(ctx);
    let before = all.len();
    let mut survivors: Vec<Finding> = all
        .into_iter()
        .filter(|f| !ctx.is_allowed(f.line, f.rule))
        .collect();
    let suppressed = before - survivors.len();
    allow_hygiene(ctx, &mut survivors);
    (survivors, suppressed)
}

/// allow-hygiene: an inline allow must name a rule that runs on its
/// file. One that names an unknown rule, or a rule out of scope for the
/// file's crate or kind, suppresses nothing and only claims it does.
/// A `panic-hygiene` allow also justifies its site to panic-reach, so it
/// is live wherever panic-reach runs.
fn allow_hygiene(ctx: &FileContext, findings: &mut Vec<Finding>) {
    let runs = |rule: &str| runs_on(rule, &ctx.crate_name, ctx.kind);
    for (&line, allowed) in &ctx.allows {
        for rule in allowed {
            if runs(rule) || (rule == "panic-hygiene" && runs("panic-reach")) {
                continue;
            }
            let why = if rule_named(rule).is_some() {
                format!("`{rule}` never runs on this file")
            } else {
                format!("`{rule}` is not a ramp-lint rule")
            };
            findings.push(Finding {
                rule: "allow-hygiene",
                severity: Severity::Warning,
                file: ctx.rel_path.clone(),
                line,
                col: 1,
                symbol: format!("allow({rule})"),
                message: format!("inline allow suppresses nothing: {why}; delete it"),
            });
        }
    }
}

/// Runs every applicable rule over one file, applying inline allows.
#[must_use]
pub fn check_file(ctx: &FileContext) -> Vec<Finding> {
    check_file_counted(ctx).0
}

/// Advances past a balanced `open`…`close` group starting at `pos`
/// (which must point at `open`); returns the position just after the
/// matching close, or the end of the stream.
fn skip_group(ctx: &FileContext, mut pos: usize, open: &str, close: &str) -> usize {
    let mut depth = 0usize;
    while pos < ctx.code.len() {
        let t = ctx.code_text(pos);
        if t == open {
            depth += 1;
        } else if t == close {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return pos + 1;
            }
        }
        pos += 1;
    }
    pos
}

/// unit-safety: `pub fn` in the model crates must not take or return a
/// bare `f64` where a `ramp-units` newtype exists. Only direct
/// `: f64` parameters and `-> f64` returns are flagged — generic
/// containers (`Vec<f64>`, `PerStructure<f64>`) are internal plumbing,
/// and `pub(crate)`/private functions are not API surface.
fn unit_safety(ctx: &FileContext, findings: &mut Vec<Finding>) {
    let mut pos = 0usize;
    while pos < ctx.code.len() {
        if ctx.code_text(pos) != "pub" || ctx.in_test_span(ctx.code[pos]) {
            pos += 1;
            continue;
        }
        let pub_pos = pos;
        let mut cursor = pos + 1;
        // `pub(crate)` / `pub(super)`: restricted visibility, not API.
        if ctx.code_text(cursor) == "(" {
            pos = skip_group(ctx, cursor, "(", ")");
            continue;
        }
        // Qualifiers between `pub` and `fn`.
        while matches!(
            ctx.code_text(cursor),
            "const" | "unsafe" | "async" | "extern"
        ) || ctx
            .code_token(cursor)
            .is_some_and(|t| t.kind == TokenKind::StrLit)
        {
            cursor += 1;
        }
        if ctx.code_text(cursor) != "fn" {
            pos += 1;
            continue;
        }
        let Some(name_tok) = ctx.code_token(cursor + 1) else {
            break;
        };
        let fn_name = name_tok.text.clone();
        cursor += 2;
        // Skip a generic parameter list `<…>`.
        if ctx.code_text(cursor) == "<" {
            cursor = skip_group(ctx, cursor, "<", ">");
        }
        if ctx.code_text(cursor) != "(" {
            pos = cursor.max(pos + 1);
            continue;
        }
        // Scan the parameter list for direct `: f64` annotations.
        let params_end = skip_group(ctx, cursor, "(", ")");
        let mut raw_params = 0usize;
        for p in cursor..params_end {
            if ctx.code_text(p) == ":"
                && ctx.code_text(p + 1) == "f64"
                && matches!(ctx.code_text(p + 2), "," | ")")
            {
                raw_params += 1;
            }
        }
        // A direct `-> f64` return.
        let raw_return = ctx.code_text(params_end) == "-"
            && ctx.code_text(params_end + 1) == ">"
            && ctx.code_text(params_end + 2) == "f64"
            && matches!(ctx.code_text(params_end + 3), "{" | "where" | ";");
        if raw_params > 0 || raw_return {
            let mut what = Vec::new();
            if raw_params > 0 {
                what.push(format!("{raw_params} raw f64 parameter(s)"));
            }
            if raw_return {
                what.push("a raw f64 return".to_string());
            }
            let (line, col) = ctx
                .code_token(pub_pos)
                .map_or((0, 0), |t| (t.line, t.col));
            findings.push(Finding {
                rule: "unit-safety",
                severity: Severity::Error,
                file: ctx.rel_path.clone(),
                line,
                col,
                symbol: fn_name.clone(),
                message: format!(
                    "pub fn `{fn_name}` exposes {}; use a ramp-units newtype (Kelvin, Watts, …) \
                     or allow with a dimensional justification",
                    what.join(" and ")
                ),
            });
        }
        pos = params_end.max(pos + 1);
    }
}

/// determinism: simulation crates must not read wall clocks, OS
/// randomness, or types with nondeterministic iteration order. Findings
/// on `HashMap`/`HashSet` are flagged per *use site*; an inline allow
/// documents why iteration order cannot reach any output.
fn determinism(ctx: &FileContext, findings: &mut Vec<Finding>) {
    for (pos, &raw) in ctx.code.iter().enumerate() {
        if ctx.in_test_span(raw) {
            continue;
        }
        let tok = &ctx.tokens[raw];
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let flagged: Option<String> = match tok.text.as_str() {
            "SystemTime" | "Instant" | "UNIX_EPOCH"
                if ctx.code_text(pos + 1) == ":"
                    && ctx.code_text(pos + 2) == ":"
                    && ctx.code_text(pos + 3) == "now" =>
            {
                Some(format!(
                    "`{}::now()` reads the wall clock; results must be \
                     reproducible — route timing through ramp-obs spans",
                    tok.text
                ))
            }
            "thread_rng" | "from_entropy" | "random" if ctx.code_text(pos + 1) == "(" => {
                Some(format!(
                    "`{}()` draws OS entropy; use a seeded, deterministic \
                     generator",
                    tok.text
                ))
            }
            "HashMap" | "HashSet" => Some(format!(
                "`{}` iterates in nondeterministic order; use BTreeMap/BTreeSet \
                 or Vec, or allow with proof no ordering reaches any output",
                tok.text
            )),
            _ => None,
        };
        if let Some(message) = flagged {
            findings.push(Finding {
                rule: "determinism",
                severity: Severity::Error,
                file: ctx.rel_path.clone(),
                line: tok.line,
                col: tok.col,
                symbol: ctx.enclosing_fn(pos),
                message,
            });
        }
    }
}

/// obs-hygiene: library crates must not write directly to stdout or
/// stderr; all diagnostics go through the `ramp_obs` macros so sinks,
/// levels, and JSONL capture keep working.
fn obs_hygiene(ctx: &FileContext, findings: &mut Vec<Finding>) {
    for (pos, &raw) in ctx.code.iter().enumerate() {
        if ctx.in_test_span(raw) {
            continue;
        }
        let tok = &ctx.tokens[raw];
        if tok.kind != TokenKind::Ident
            || !matches!(
                tok.text.as_str(),
                "println" | "eprintln" | "print" | "eprint" | "dbg"
            )
            || ctx.code_text(pos + 1) != "!"
        {
            continue;
        }
        // `ramp_obs::println` cannot exist, but a macro *definition* of
        // the same name could: skip `macro_rules! println`-style sites.
        if pos > 0 && ctx.code_text(pos - 1) == "macro_rules" {
            continue;
        }
        findings.push(Finding {
            rule: "obs-hygiene",
            severity: Severity::Warning,
            file: ctx.rel_path.clone(),
            line: tok.line,
            col: tok.col,
            symbol: ctx.enclosing_fn(pos),
            message: format!(
                "`{}!` in library code bypasses the observability sinks; use \
                 ramp_obs::info!/warn!/debug! instead",
                tok.text
            ),
        });
    }
}

/// panic-hygiene: library code must not panic on fallible paths —
/// `unwrap()`/`expect()` only with an inline allow stating the invariant
/// that makes them total, and `panic!`-family macros not at all.
fn panic_hygiene(ctx: &FileContext, findings: &mut Vec<Finding>) {
    for (pos, &raw) in ctx.code.iter().enumerate() {
        if ctx.in_test_span(raw) {
            continue;
        }
        let tok = &ctx.tokens[raw];
        if tok.kind != TokenKind::Ident {
            continue;
        }
        let message = match tok.text.as_str() {
            "unwrap" | "expect"
                if pos > 0
                    && ctx.code_text(pos - 1) == "."
                    && ctx.code_text(pos + 1) == "(" =>
            {
                format!(
                    "`.{}()` can panic in library code; return a Result (`?`) \
                     or allow with the invariant that makes this total",
                    tok.text
                )
            }
            "panic" | "unreachable" | "todo" | "unimplemented"
                if ctx.code_text(pos + 1) == "!" =>
            {
                format!(
                    "`{}!` aborts the caller; return a structured error instead",
                    tok.text
                )
            }
            _ => continue,
        };
        findings.push(Finding {
            rule: "panic-hygiene",
            severity: Severity::Warning,
            file: ctx.rel_path.clone(),
            line: tok.line,
            col: tok.col,
            symbol: ctx.enclosing_fn(pos),
            message,
        });
    }
}

/// One lowercase identifier segment: `[a-z][a-z0-9_]*`.
fn lower_ident_segment(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some('a'..='z'))
        && chars.all(|c| matches!(c, 'a'..='z' | '0'..='9' | '_'))
}

/// span-hygiene: span and metric names must be static string literals
/// with a fixed shape, so exported traces stay greppable and the metric
/// registry stays low-cardinality. `ramp_obs::span!` names are single
/// lowercase segments (`[a-z][a-z0-9_]*`); `ramp_obs::counter` /
/// `gauge` / `histogram` names are dot-separated sequences of such
/// segments (`stage.metric`). A name built at runtime (`format!`, a
/// variable) defeats static aggregation and can grow the registry
/// without bound — allow only with a proof the name set is bounded.
fn span_hygiene(ctx: &FileContext, findings: &mut Vec<Finding>) {
    for (pos, &raw) in ctx.code.iter().enumerate() {
        if ctx.in_test_span(raw) {
            continue;
        }
        let tok = &ctx.tokens[raw];
        if tok.kind != TokenKind::Ident {
            continue;
        }
        // Only path-qualified call sites (`ramp_obs::span!(…)`,
        // `ramp_obs::counter(…)`): a `::` must precede the name, which
        // also skips method calls and unrelated local functions.
        let qualified =
            pos >= 2 && ctx.code_text(pos - 1) == ":" && ctx.code_text(pos - 2) == ":";
        if !qualified {
            continue;
        }
        let (dotted, arg_pos) = match tok.text.as_str() {
            "span" if ctx.code_text(pos + 1) == "!" && ctx.code_text(pos + 2) == "(" => {
                (false, pos + 3)
            }
            "counter" | "gauge" | "histogram" if ctx.code_text(pos + 1) == "(" => {
                (true, pos + 2)
            }
            _ => continue,
        };
        // A reference to a literal (`&"x"` never occurs, but `&format!`
        // does) still names the same argument: look through one `&`.
        let arg_pos = if ctx.code_text(arg_pos) == "&" {
            arg_pos + 1
        } else {
            arg_pos
        };
        let what = if dotted { "metric" } else { "span" };
        let message = match ctx.code_token(arg_pos) {
            Some(arg) if arg.kind == TokenKind::StrLit => {
                let name = arg.text.trim_matches('"');
                let ok = if dotted {
                    name.contains('.') && name.split('.').all(lower_ident_segment)
                } else {
                    lower_ident_segment(name)
                };
                if ok {
                    continue;
                }
                if dotted {
                    format!(
                        "{what} name `{name}` must be dot-separated lowercase \
                         segments (`stage.metric`, chars [a-z0-9_])"
                    )
                } else {
                    format!(
                        "{what} name `{name}` must be a single lowercase \
                         segment matching [a-z][a-z0-9_]*"
                    )
                }
            }
            _ => format!(
                "`{}` {what} name is built at runtime; use a static string \
                 literal (dynamic names explode trace/metric cardinality) or \
                 allow with proof the name set is bounded",
                tok.text
            ),
        };
        findings.push(Finding {
            rule: "span-hygiene",
            severity: Severity::Warning,
            file: ctx.rel_path.clone(),
            line: tok.line,
            col: tok.col,
            symbol: ctx.enclosing_fn(pos),
            message,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::FileContext;

    fn lib(crate_name: &str, src: &str) -> Vec<Finding> {
        check_file(&FileContext::new(
            crate_name,
            FileKind::Lib,
            &format!("crates/{crate_name}/src/x.rs"),
            src,
        ))
    }

    #[test]
    fn pub_crate_fns_are_not_api_surface() {
        let f = lib("thermal", "pub(crate) fn internal(x: f64) -> f64 { x }");
        assert!(f.iter().all(|f| f.rule != "unit-safety"), "{f:?}");
    }

    #[test]
    fn bin_files_are_exempt() {
        let ctx = FileContext::new(
            "bench",
            FileKind::Bin,
            "crates/bench/src/bin/study.rs",
            "fn main() { println!(\"{}\", x.unwrap()); }",
        );
        assert!(check_file(&ctx).is_empty());
    }
}
