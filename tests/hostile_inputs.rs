//! Hostile nesting: every recursive form of the language, nested past
//! the parser's limit, ends in a typed parse error — through the
//! library, `vet serve --stdio` and TCP — and the daemon keeps serving
//! afterwards. At the limit, every form still analyzes on a thread with
//! the daemon's pipeline stack.

use addon_sig::jsparser::{self, ParseErrorKind, MAX_NESTING};
use addon_sig::sigserve::{Client, ServeConfig, Server, PIPELINE_STACK_BYTES};
use minijson::Json;
use std::io::Write;
use std::process::{Command, Stdio};

/// Every recursive form, by name.
const FORMS: [&str; 9] = [
    "parens",
    "arrays",
    "objects",
    "functions",
    "unary",
    "else_if",
    "members",
    "operators",
    "calls",
];

/// Depths far past the limit: a couple of KB, and ~100 KB of source.
const HOSTILE_DEPTHS: [usize; 2] = [1_000, 50_000];

/// `form` nested `n` deep.
fn nest(form: &str, n: usize) -> String {
    match form {
        "parens" => format!("var x = {}1{};", "(".repeat(n), ")".repeat(n)),
        "arrays" => format!("var x = {}1{};", "[".repeat(n), "]".repeat(n)),
        "objects" => format!("var x = {}1{};", "{a: ".repeat(n), "}".repeat(n)),
        "functions" => format!("{}{}", "function f() {".repeat(n), "}".repeat(n)),
        "unary" => format!("var x = {}y;", "!".repeat(n)),
        "else_if" => format!("if (y) {{}}{}", " else if (y) {}".repeat(n)),
        "members" => format!("var x = a{};", ".b".repeat(n)),
        "operators" => format!("var x = 1{};", " + 1".repeat(n)),
        "calls" => format!("f{};", "()".repeat(n)),
        other => unreachable!("unknown form {other}"),
    }
}

/// The deepest nesting of `form` the parser accepts.
fn deepest_accepted(form: &str) -> String {
    (0..=MAX_NESTING)
        .rev()
        .map(|n| nest(form, n))
        .find(|src| jsparser::parse(src).is_ok())
        .expect("shallow nesting parses")
}

/// `source` inside `levels` nested function declarations: it parses
/// only if `source` itself nests at most `MAX_NESTING - levels` deep.
fn wrapped(source: &str, levels: usize) -> String {
    format!(
        "{}{source}{}",
        "function w() {".repeat(levels),
        "}".repeat(levels)
    )
}

fn hostile_inputs() -> impl Iterator<Item = (String, String)> {
    FORMS.iter().flat_map(|form| {
        HOSTILE_DEPTHS
            .iter()
            .map(move |n| (format!("{form}_{n}"), nest(form, *n)))
    })
}

fn assert_error_verdict(name: &str, resp: &Json) {
    assert_eq!(
        resp["verdict"],
        "error",
        "{name}: {}",
        resp.to_string_compact()
    );
    let message = resp["message"].as_str().unwrap_or("");
    assert!(message.contains("nesting deeper than"), "{name}: {message}");
}

#[test]
fn nesting_past_the_limit_is_a_typed_parse_error() {
    for (name, source) in hostile_inputs() {
        match addon_sig::analyze_addon(&source) {
            Err(addon_sig::Error::Parse(e)) => {
                assert_eq!(e.kind, ParseErrorKind::TooDeep, "{name}: {e}")
            }
            Err(e) => panic!("{name}: expected a parse error, got {e}"),
            Ok(_) => panic!("{name}: nesting past the limit must not parse"),
        }
    }
}

#[test]
fn corpus_gallery_and_benign_shapes_nest_far_below_the_limit() {
    let sources: Vec<String> = corpus::addons()
        .iter()
        .map(|a| a.source.to_owned())
        .chain(
            corpus::attacks::attacks()
                .iter()
                .map(|a| a.source.to_owned()),
        )
        .chain((0..3).map(corpus::benign_addon))
        .chain([corpus::many_fn_addon(96)])
        .collect();
    for source in sources {
        assert!(
            jsparser::parse(&wrapped(&source, MAX_NESTING - 100)).is_ok(),
            "an input nests within 100 levels of the limit:\n{source}"
        );
    }
}

#[test]
fn deepest_accepted_nesting_completes_on_a_pipeline_thread() {
    let worker = std::thread::Builder::new()
        .stack_size(PIPELINE_STACK_BYTES)
        .spawn(|| {
            for form in FORMS {
                let source = deepest_accepted(form);
                if let Err(e) = addon_sig::analyze_addon(&source) {
                    panic!("{form} at the limit must analyze: {e}");
                }
            }
        })
        .expect("spawn");
    worker.join().expect("every form at the limit analyzes");
}

#[test]
fn tcp_daemon_answers_error_verdicts_and_keeps_serving() {
    let server = Server::builder()
        .config(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        })
        .addr("127.0.0.1:0")
        .analyze(addon_sig::service_engine)
        .start()
        .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for (name, source) in hostile_inputs() {
        let resp = client.vet_source(Some(&name), &source).expect("vet");
        assert_error_verdict(&name, &resp);
        let healthy = client
            .vet_source(Some("healthy"), "var ok = 1;")
            .expect("vet");
        assert_eq!(
            healthy["verdict"], "ok",
            "daemon must keep serving after {name}"
        );
    }
    // The deepest accepted input of every form completes on a worker.
    for form in FORMS {
        let resp = client
            .vet_source(Some(form), &deepest_accepted(form))
            .expect("vet");
        assert_eq!(
            resp["verdict"],
            "ok",
            "{form}: {}",
            resp.to_string_compact()
        );
    }
    client.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn stdio_daemon_answers_error_verdicts_and_keeps_serving() {
    let mut script = String::new();
    for (name, source) in hostile_inputs() {
        for request in [
            addon_sig::sigserve::protocol::vet_request(Some(&name), &source),
            addon_sig::sigserve::protocol::vet_request(Some("healthy"), "var ok = 1;"),
        ] {
            script.push_str(&request.to_string_compact());
            script.push('\n');
        }
    }
    script.push_str("{\"kind\":\"shutdown\"}\n");
    let mut child = Command::new(env!("CARGO_BIN_EXE_vet"))
        .args(["serve", "--stdio", "--workers", "1"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn vet serve --stdio");
    let mut stdin = child.stdin.take().expect("stdin");
    let writer = std::thread::spawn(move || stdin.write_all(script.as_bytes()));
    let out = child.wait_with_output().expect("daemon output");
    writer.join().expect("writer").expect("script written");
    assert!(
        out.status.success(),
        "daemon must exit cleanly: {}",
        out.status
    );
    let lines: Vec<Json> = String::from_utf8(out.stdout)
        .expect("utf8")
        .lines()
        .map(|l| Json::parse(l).expect("json line"))
        .collect();
    let names: Vec<String> = hostile_inputs().map(|(name, _)| name).collect();
    assert_eq!(lines.len(), 2 * names.len() + 1, "one response per request");
    for (i, name) in names.iter().enumerate() {
        assert_error_verdict(name, &lines[2 * i]);
        assert_eq!(
            lines[2 * i + 1]["verdict"],
            "ok",
            "daemon must keep serving after {name}"
        );
    }
    assert_eq!(lines.last().unwrap()["kind"], "shutdown_ack");
}
