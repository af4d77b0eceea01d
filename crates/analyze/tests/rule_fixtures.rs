//! Fixture tests: every rule gets a positive case (fires) and negative
//! cases (scoping, newtypes, inline allows, `#[cfg(test)]`, file kind).
//!
//! These drive [`analyze_source`] with in-memory sources exactly the way
//! `analyze_workspace` drives files from disk, so they pin the acceptance
//! contract: "injecting a raw-f64 pub fn into `crates/thermal` fails the
//! lint".

use ramp_analyze::{analyze_source, FileKind, Finding, Severity};

fn lint(crate_name: &str, kind: FileKind, src: &str) -> Vec<Finding> {
    analyze_source(crate_name, kind, "crates/x/src/lib.rs", src)
}

fn rules(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------- unit-safety

#[test]
fn raw_f64_pub_fn_in_thermal_fails() {
    let src = "pub fn conductance(&self, g: f64) -> f64 { g }\n";
    let findings = lint("thermal", FileKind::Lib, src);
    assert_eq!(rules(&findings), ["unit-safety"]);
    assert_eq!(findings[0].severity, Severity::Error);
    assert_eq!(findings[0].symbol, "conductance");
    assert!(findings[0].message.contains("1 raw f64 parameter(s)"));
    assert!(findings[0].message.contains("raw f64 return"));
}

#[test]
fn raw_f64_return_alone_fails() {
    let findings = lint("power", FileKind::Lib, "pub fn load(&self) -> f64 { 0.0 }\n");
    assert_eq!(rules(&findings), ["unit-safety"]);
}

#[test]
fn newtype_signatures_pass() {
    let src = "pub fn temperature(&self, t: Kelvin) -> Watts { self.p }\n";
    assert!(lint("thermal", FileKind::Lib, src).is_empty());
}

#[test]
fn non_model_crates_may_use_raw_f64() {
    let src = "pub fn ratio(&self) -> f64 { 0.5 }\n";
    assert!(lint("obs", FileKind::Lib, src).is_empty());
    assert!(lint("trace", FileKind::Lib, src).is_empty());
}

#[test]
fn pub_crate_fns_are_not_public_api() {
    let src = "pub(crate) fn helper(x: f64) -> f64 { x }\n";
    assert!(lint("thermal", FileKind::Lib, src).is_empty());
}

#[test]
fn generic_f64_like_names_do_not_count() {
    // `f64` inside a generic argument list is not a bare parameter type.
    let src = "pub fn collect(&self) -> Vec<f64> { vec![] }\n";
    assert!(lint("power", FileKind::Lib, src).is_empty());
}

#[test]
fn unit_safety_allow_with_justification_passes() {
    let src = "// ramp-lint:allow(unit-safety) -- dimensionless factor\n\
               pub fn factor(&self) -> f64 { 1.0 }\n";
    assert!(lint("power", FileKind::Lib, src).is_empty());
}

// ---------------------------------------------------------------- determinism

#[test]
fn wall_clock_fails_in_simulation_code() {
    let src = "fn stamp() { let t = std::time::SystemTime::now(); }\n";
    let findings = lint("core", FileKind::Lib, src);
    assert_eq!(rules(&findings), ["determinism"]);
    assert_eq!(findings[0].severity, Severity::Error);
}

#[test]
fn instant_now_fails_too() {
    let src = "fn tick() { let t = Instant::now(); }\n";
    assert_eq!(rules(&lint("core", FileKind::Lib, src)), ["determinism"]);
}

#[test]
fn hashmap_fails_in_simulation_code() {
    let src = "use std::collections::HashMap;\n";
    let findings = lint("core", FileKind::Lib, src);
    assert_eq!(rules(&findings), ["determinism"]);
    assert!(findings[0].message.contains("BTreeMap"));
}

#[test]
fn obs_and_bench_may_read_the_clock() {
    let src = "fn stamp() { let t = Instant::now(); }\n";
    assert!(lint("obs", FileKind::Lib, src).is_empty());
    assert!(lint("bench", FileKind::Lib, src).is_empty());
}

#[test]
fn btreemap_is_fine_everywhere() {
    let src = "use std::collections::BTreeMap;\n";
    assert!(lint("core", FileKind::Lib, src).is_empty());
}

// ---------------------------------------------------------------- obs-hygiene

#[test]
fn println_fails_in_library_code() {
    let src = "fn report() { println!(\"x\"); }\n";
    let findings = lint("core", FileKind::Lib, src);
    assert_eq!(rules(&findings), ["obs-hygiene"]);
    assert_eq!(findings[0].severity, Severity::Warning);
}

#[test]
fn dbg_and_eprintln_fail_in_library_code() {
    assert_eq!(
        rules(&lint("power", FileKind::Lib, "fn f() { dbg!(1); }\n")),
        ["obs-hygiene"]
    );
    assert_eq!(
        rules(&lint("power", FileKind::Lib, "fn f() { eprintln!(\"e\"); }\n")),
        ["obs-hygiene"]
    );
}

#[test]
fn binaries_may_print() {
    let src = "fn main() { println!(\"usage\"); }\n";
    assert!(lint("bench", FileKind::Bin, src).is_empty());
}

#[test]
fn obs_crate_implements_the_sinks() {
    let src = "fn emit() { println!(\"line\"); }\n";
    assert!(lint("obs", FileKind::Lib, src).is_empty());
}

#[test]
fn println_inside_string_literal_is_not_a_finding() {
    let src = "fn f() { let doc = \"call println!(..) here\"; }\n";
    assert!(lint("core", FileKind::Lib, src).is_empty());
}

// -------------------------------------------------------------- panic-hygiene

#[test]
fn unwrap_fails_in_library_code() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    let findings = lint("core", FileKind::Lib, src);
    assert_eq!(rules(&findings), ["panic-hygiene"]);
    assert_eq!(findings[0].severity, Severity::Warning);
    assert_eq!(findings[0].symbol, "f");
}

#[test]
fn expect_and_panic_fail_in_library_code() {
    assert_eq!(
        rules(&lint("core", FileKind::Lib, "fn f() { y.expect(\"m\"); }\n")),
        ["panic-hygiene"]
    );
    assert_eq!(
        rules(&lint("core", FileKind::Lib, "fn f() { panic!(\"bad\"); }\n")),
        ["panic-hygiene"]
    );
}

#[test]
fn unwrap_in_cfg_test_module_passes() {
    let src = "fn live() {}\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   #[test]\n\
                   fn t() { Some(1).unwrap(); }\n\
               }\n";
    assert!(lint("core", FileKind::Lib, src).is_empty());
}

#[test]
fn unwrap_in_bench_crate_passes() {
    let src = "fn f() { x.unwrap(); }\n";
    assert!(lint("bench", FileKind::Lib, src).is_empty());
}

#[test]
fn trailing_allow_with_invariant_passes() {
    let src = "fn f() { lock().expect(\"poisoned\"); \
               // ramp-lint:allow(panic-hygiene) -- poisoning means a panic already happened\n}\n";
    assert!(lint("core", FileKind::Lib, src).is_empty());
}

#[test]
fn allow_for_a_different_rule_does_not_suppress() {
    let src = "// ramp-lint:allow(unit-safety)\nfn f() { x.unwrap(); }\n";
    assert_eq!(rules(&lint("core", FileKind::Lib, src)), ["panic-hygiene"]);
}

// -------------------------------------------------------------- span-hygiene

#[test]
fn runtime_built_metric_name_fails() {
    let src = "fn f() { let c = ramp_obs::counter(&format!(\"x.{i}\")); }\n";
    let findings = lint("core", FileKind::Lib, src);
    assert_eq!(rules(&findings), ["span-hygiene"]);
    assert_eq!(findings[0].severity, Severity::Warning);
    assert!(findings[0].message.contains("built at runtime"));
}

#[test]
fn variable_metric_name_fails() {
    let src = "fn f(name: &str) { ramp_obs::counter(name).incr(); }\n";
    assert_eq!(rules(&lint("serve", FileKind::Lib, src)), ["span-hygiene"]);
}

#[test]
fn undotted_metric_name_fails() {
    let src = "fn f() { ramp_obs::counter(\"requests\").incr(); }\n";
    let findings = lint("core", FileKind::Lib, src);
    assert_eq!(rules(&findings), ["span-hygiene"]);
    assert!(findings[0].message.contains("dot-separated"));
}

#[test]
fn uppercase_span_name_fails() {
    let src = "fn f() { let s = ramp_obs::span!(\"QueryEvaluate\"); s.finish(); }\n";
    assert_eq!(rules(&lint("core", FileKind::Lib, src)), ["span-hygiene"]);
}

#[test]
fn dotted_span_name_fails() {
    // Span names are single segments; dots are for metrics.
    let src = "fn f() { let s = ramp_obs::span!(\"query.evaluate\"); s.finish(); }\n";
    assert_eq!(rules(&lint("core", FileKind::Lib, src)), ["span-hygiene"]);
}

#[test]
fn static_dotted_metric_and_lower_span_names_pass() {
    let src = "fn f() {\n\
                   ramp_obs::counter(\"serve.requests\").incr();\n\
                   ramp_obs::gauge(\"executor.queue_depth\").set(0);\n\
                   let h = ramp_obs::histogram(\"serve.latency_us\", &[1.0]);\n\
                   let s = ramp_obs::span!(\"serve_request\", \"kind={kind}\");\n\
                   s.finish();\n\
               }\n";
    assert!(lint("serve", FileKind::Lib, src).is_empty());
}

#[test]
fn unqualified_and_method_calls_are_not_metric_sites() {
    // Only `::`-qualified call sites are registry lookups; a local fn or
    // method named `counter` is unrelated.
    let src = "fn f(x: &Tally) { x.counter(0); counter(\"y\"); span!(n); }\n";
    assert!(lint("core", FileKind::Lib, src).is_empty());
}

#[test]
fn obs_crate_is_exempt_from_span_hygiene() {
    let src = "fn f(name: &str) { crate::counter(&format!(\"{name}\")); }\n";
    assert!(lint("obs", FileKind::Lib, src).is_empty());
}

#[test]
fn span_hygiene_in_cfg_test_module_passes() {
    let src = "fn live() {}\n\
               #[cfg(test)]\n\
               mod tests {\n\
                   #[test]\n\
                   fn t() { ramp_obs::counter(&format!(\"t.{i}\")); }\n\
               }\n";
    assert!(lint("core", FileKind::Lib, src).is_empty());
}

#[test]
fn span_hygiene_allow_with_bound_proof_passes() {
    let src = "// ramp-lint:allow(span-hygiene) -- one name per fixed benchmark profile\n\
               fn f(p: &str) { ramp_obs::counter(&format!(\"trace.insn.{p}\")); }\n";
    assert!(lint("trace", FileKind::Lib, src).is_empty());
}

// ------------------------------------------------------------- allow-hygiene

#[test]
fn allow_naming_an_unknown_rule_fails() {
    let src = "fn f() {} // ramp-lint:allow(unit-safty) -- typo\n";
    let findings = lint("core", FileKind::Lib, src);
    assert_eq!(rules(&findings), ["allow-hygiene"]);
    assert_eq!(findings[0].line, 1);
    assert_eq!(findings[0].symbol, "allow(unit-safty)");
    assert!(findings[0].message.contains("not a ramp-lint rule"));
}

#[test]
fn allow_for_a_rule_out_of_the_crates_scope_fails() {
    // unit-safety runs on power/thermal/core only.
    let src = "// ramp-lint:allow(unit-safety) -- dimensionless\npub fn f() -> f64 { 0.0 }\n";
    let findings = lint("fleet", FileKind::Lib, src);
    assert_eq!(rules(&findings), ["allow-hygiene"]);
    assert!(findings[0].message.contains("never runs on this file"));
    assert!(lint("thermal", FileKind::Lib, src).is_empty());
}

#[test]
fn any_allow_in_a_binary_fails() {
    let src = "fn main() { x.unwrap(); } // ramp-lint:allow(panic-hygiene) -- CLI\n";
    assert_eq!(rules(&lint("bench", FileKind::Bin, src)), ["allow-hygiene"]);
}

#[test]
fn panic_hygiene_allow_stays_live_where_only_panic_reach_reads_it() {
    // bench is exempt from panic-hygiene, but panic-reach still reads the
    // justification of every library panic site.
    let src = "fn f() { x.unwrap(); } // ramp-lint:allow(panic-hygiene) -- total\n";
    assert!(lint("bench", FileKind::Lib, src).is_empty());
}

#[test]
fn doc_and_block_comments_spelling_out_the_directive_register_nothing() {
    let directive = "ramp-lint:allow(panic-hygiene) -- total";
    let lint_after = |comment: &str| {
        let src = format!("{comment}\nfn f() {{ x.unwrap(); }}\n");
        rules(&lint("core", FileKind::Lib, &src))
    };
    // Documentation may show the directive: it suppresses nothing...
    for doc in [
        format!("/// Justify a site with `// {directive}`."),
        format!("//! {directive}"),
        format!("/* {directive} */"),
    ] {
        assert_eq!(lint_after(&doc), ["panic-hygiene"], "{doc}");
    }
    // ...and is no allow for allow-hygiene to judge.
    let typo = directive.replace("panic-hygiene", "unit-safty");
    let src = format!("/// e.g. `{typo}`\nfn f() {{}}\n");
    assert!(lint("core", FileKind::Lib, &src).is_empty());
    // Plain comments carry it, four slashes included.
    assert!(lint_after(&format!("// {directive}")).is_empty());
    assert!(lint_after(&format!("//// {directive}")).is_empty());
}

// ----------------------------------------------------------------- compounds

#[test]
fn one_file_can_accumulate_multiple_rules() {
    let src = "use std::collections::HashMap;\n\
               pub fn raw(&self) -> f64 { 0.0 }\n\
               fn f() { x.unwrap(); println!(\"x\"); }\n";
    let mut found = rules(&lint("thermal", FileKind::Lib, src));
    found.sort_unstable();
    assert_eq!(
        found,
        ["determinism", "obs-hygiene", "panic-hygiene", "unit-safety"]
    );
}

#[test]
fn findings_carry_file_line_and_symbol() {
    let src = "\n\nfn f() { x.unwrap(); }\n";
    let findings = analyze_source("core", FileKind::Lib, "crates/core/src/a.rs", src);
    assert_eq!(findings.len(), 1);
    assert_eq!(findings[0].file, "crates/core/src/a.rs");
    assert_eq!(findings[0].line, 3);
    assert_eq!(findings[0].symbol, "f");
}
