//! A committed golden for the front end: what `jsparser::parse`,
//! `jsparser::count_nodes` and `jsir::lower` make of the signature
//! golden's 22 inputs, of one malformed input per `ParseErrorKind`, and
//! of inputs that reach the parser's and the lowerer's corner cases
//! (nesting at the limit, keyword member names, every operator, every
//! loop form with labels, `switch` fallthrough, `finally` copies).
//!
//! Per input that parses it pins `count_nodes` and the FNV-1a digests of
//! the `{:?}` text of the AST and of the `Lowered` result; per input that
//! does not, the error's `Display` and span (`tests/support/
//! frontend_text.rs`). The fuzz suite pins one more digest in the same
//! file, over generated programs and token soup.
//!
//! A change to the lexer, the parser or the lowerer that means to keep
//! their output must leave this file passing unchanged. On a mismatch the
//! test names each differing input and writes the `inputs` section this
//! build would commit under the target's temporary directory.

#[path = "support/frontend_text.rs"]
mod frontend_text;
#[path = "support/golden_inputs.rs"]
mod golden_inputs;

use jsparser::MAX_NESTING;
use minijson::Json;
use std::path::{Path, PathBuf};

/// The committed golden, relative to the package root.
const GOLDEN: &str = "tests/golden/frontend.json";

/// `head` followed by `n` copies of `link`, as one statement.
fn chain(head: &str, link: &str, n: usize) -> String {
    format!("{head}{};", link.repeat(n))
}

/// Malformed inputs, at least one per `ParseErrorKind`, and inputs at the
/// front end's corners, each named.
fn edge_inputs() -> Vec<(String, String)> {
    let blocks = |n: usize| format!("{}{}", "{".repeat(n), "}".repeat(n));
    let named = [
        ("unterminated_string", "var s = \"abc".to_owned()),
        ("unterminated_comment", "a; /* never ends".to_owned()),
        ("unterminated_regex", "var r = /ab".to_owned()),
        ("invalid_number", "var n = 0x;".to_owned()),
        ("invalid_escape", "var s = \"\\x4\";".to_owned()),
        ("unexpected_char", "a # b;".to_owned()),
        ("unexpected_token", "var = 3;".to_owned()),
        ("unexpected_token_after_dot", "a.;".to_owned()),
        ("unexpected_token_in_new", "new a[1;".to_owned()),
        ("invalid_assign_target", "1 = 2;".to_owned()),
        ("invalid_statement_with", "with (o) { f(); }".to_owned()),
        ("invalid_statement_throw", "throw\n1;".to_owned()),
        ("too_deep_blocks", blocks(MAX_NESTING + 1)),
        ("deepest_blocks", blocks(MAX_NESTING)),
        // A chain's links nest below the statement and the expression
        // holding it; an index or an argument nests one level more.
        ("too_deep_member_chain", chain("a", ".b", MAX_NESTING - 1)),
        ("deepest_member_chain", chain("a", ".b", MAX_NESTING - 2)),
        ("too_deep_index_chain", chain("a", "[0]", MAX_NESTING - 2)),
        ("deepest_index_chain", chain("a", "[0]", MAX_NESTING - 3)),
        ("too_deep_call_chain", chain("a", "(0)", MAX_NESTING - 2)),
        ("deepest_call_chain", chain("a", "(0)", MAX_NESTING - 3)),
        ("too_deep_new_chain", chain("new a", ".b", MAX_NESTING - 1)),
        ("deepest_new_chain", chain("new a", ".b", MAX_NESTING - 2)),
        (
            "too_deep_new_index_chain",
            chain("new a", "[0]", MAX_NESTING - 2),
        ),
        (
            "deepest_new_index_chain",
            chain("new a", "[0]", MAX_NESTING - 3),
        ),
        ("empty", String::new()),
        (
            "members_and_new",
            "x.delete.new.typeof = o.in; new a.b[c](1).d(e)[f]; new new F()(); \
             var g = new h; new i.j.k; p[q][r] = s.t[u](v)(w);"
                .to_owned(),
        ),
        (
            "every_operator",
            "a = b + c - d * e / f % g; a += 1; a -= 1; a *= 2; a /= 2; a %= 3;\n\
             a <<= 1; a >>= 1; a >>>= 1; a &= 1; a |= 1; a ^= 1;\n\
             b = a << 1 >> 2 >>> 3 & 4 | 5 ^ ~6;\n\
             c = a < b || a > b && a <= b || a >= b;\n\
             d = a == b != c === d !== e; e = !a ? -b : +c;\n\
             f = typeof a; void 0; delete o.p; delete x;\n\
             i++; i--; ++i; --i; o.p++; --o[k]; ++o.q; o[k]--;\n\
             o.s += 1; o[k] -= t; x = /re[/]x/g; y = a in o; z = a instanceof F;\n\
             w = (a, b, c); arr = [1, , 2, ]; obj = { a: 1, \"b\": 2, 3: 3, if: 4, };\n\
             n = 0xff + .5 + 1e3 + 2.5e-2 + 'it\\'s' + \"\\u0041\\n\";"
                .to_owned(),
        ),
        (
            "control",
            "outer: for (var i = 0; i < 3; i++) {\n\
               inner: while (c) { if (d) continue outer; if (e) break inner;\n\
                 do { if (f) continue; g(); } while (h); }\n\
             }\n\
             for (o.p in q) { use(o.p); }\n\
             for (o[k] in q) continue;\n\
             for (k in q) break;\n\
             for (;;) { break; }\n\
             for (j = 0; ; ) { if (j) break; }\n\
             a: b: while (x) { continue a; }\n\
             switch (x) { case 1: a(); case 2: b(); break; default: c(); case 3: d(); }\n\
             switch (y) { }\n\
             switch (z) { case 1: }\n\
             lbl: { if (z) break lbl; h(); }\n\
             try { t(); } catch (err) { u(err); } finally { v(); }\n\
             try { throw 1; } catch (e2) { }\n\
             function r() { try { return 1; } finally { w(); } throw 2; }\n\
             function s() { try { s(); } finally { try { t(); } finally { return; } } }\n\
             var fe = function named(n) { return n ? named(n - 1) : 0; };\n\
             if (a) b(); else if (c) d(); else { e(); }\n\
             return;"
                .to_owned(),
        ),
        (
            "finally_with_function",
            "try { f(); } finally { g(function (x) { return function () { return x; }; }); }\n\
             after();"
                .to_owned(),
        ),
    ];
    named
        .into_iter()
        .map(|(name, source)| (format!("edge/{name}"), source))
        .collect()
}

#[test]
fn front_end_output_matches_the_committed_golden() {
    let inputs = golden_inputs::inputs();
    assert_eq!(inputs.len(), 22);
    let golden_path = Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let golden_text = std::fs::read_to_string(&golden_path).unwrap_or_default();
    let golden = Json::parse(&golden_text).unwrap_or(Json::Null);

    let mut by_input = Json::obj();
    let mut differences = Vec::new();
    for (name, source) in inputs.into_iter().chain(edge_inputs()) {
        let e = frontend_text::entry(&source);
        if golden["inputs"][name.as_str()] != e {
            differences.push(name.clone());
        }
        by_input.set(&name, e);
    }
    if differences.is_empty() && golden.get("inputs") == Some(&by_input) {
        return;
    }
    let mut seen = Json::obj();
    seen.set("inputs", by_input);
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("frontend.inputs.seen.json");
    std::fs::write(&out, seen.to_string_pretty() + "\n")
        .unwrap_or_else(|e| panic!("{}: {e}", out.display()));
    panic!(
        "this build's front end differs from {GOLDEN} on:\n  {}\nthe `inputs` section this build would commit is in {}; it replaces that section alone",
        differences.join("\n  "),
        out.display()
    );
}
