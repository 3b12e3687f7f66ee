//! The benchmark corpus: ten addons reproducing the paper's Table 1
//! suite.
//!
//! The original Mozilla addons are pre-Jetpack XUL addons that are no
//! longer redistributable, so each benchmark here is a synthetic addon
//! written in the analyzed JavaScript subset that reproduces the
//! *documented behavior and flow structure* of its paper counterpart:
//! the same category (A/B/C), the same kind of information flows, and --
//! crucially -- the same evaluation outcome driver (e.g.
//! VKVideoDownloader's three player domains joining to an unrepresentable
//! prefix).
//!
//! Each [`Addon`] carries its source, paper metadata (size in Rhino AST
//! nodes, download count, paper verdict), the *manual signature* written
//! from its developer summary (Section 6.2), and ground truth for
//! classifying extra inferred flows as real (`leak`) or spurious
//! (`fail`) -- the role manual inspection plays in the paper.

#![warn(missing_docs)]

pub mod attacks;

use jsanalysis::{SinkKind, SourceKind};
use jssig::{FlowEntry, FlowType, ManualEntry, ManualSignature, SigSink, Verdict};

/// The paper's addon categories (Section 6.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Explicitly sends the current URL to a specified domain.
    A,
    /// Implicitly sends information about the URL / key presses.
    B,
    /// Communicates with a domain without sending interesting information.
    C,
}

impl std::fmt::Display for Category {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Category::A => write!(f, "A"),
            Category::B => write!(f, "B"),
            Category::C => write!(f, "C"),
        }
    }
}

/// One benchmark addon.
pub struct Addon {
    /// Addon name as listed in Table 1.
    pub name: &'static str,
    /// The developer-provided summary ("Listed Purpose").
    pub listed_purpose: &'static str,
    /// Category per Section 6.2.
    pub category: Category,
    /// Size of the *original* addon in Rhino AST nodes (Table 1).
    pub paper_ast_nodes: u32,
    /// Download count reported in Table 1.
    pub downloads: u32,
    /// The verdict Table 2 reports for the original addon.
    pub paper_verdict: Verdict,
    /// JavaScript source of the synthetic reproduction.
    pub source: &'static str,
    /// The manual signature written from the developer summary.
    pub manual: ManualSignature,
    /// Ground truth: is this extra inferred flow entry real?
    pub real_extra_flow: fn(&FlowEntry) -> bool,
    /// Ground truth: is this extra inferred sink real communication?
    pub real_extra_sink: fn(&SigSink) -> bool,
}

fn t(n: u8) -> FlowType {
    FlowType(n - 1)
}

fn url_send(domain: &str, flow: FlowType) -> ManualEntry {
    ManualEntry {
        source: SourceKind::Url,
        sink_kind: SinkKind::Send,
        domain: Some(domain.to_owned()),
        flow,
    }
}

fn never_flow(_: &FlowEntry) -> bool {
    false
}

fn never_sink(_: &SigSink) -> bool {
    false
}

/// The full benchmark suite, in Table 1 order.
pub fn addons() -> Vec<Addon> {
    vec![
        Addon {
            name: "LivePagerank",
            listed_purpose: "Display PageRank for active URL",
            category: Category::A,
            paper_ast_nodes: 3900,
            downloads: 515_671,
            paper_verdict: Verdict::Pass,
            source: include_str!("../addons/livepagerank.js"),
            manual: ManualSignature {
                entries: vec![url_send("toolbarqueries.google.com", t(1))],
                plain_sinks: vec![],
            },
            real_extra_flow: never_flow,
            real_extra_sink: never_sink,
        },
        Addon {
            name: "LessSpamPlease",
            listed_purpose: "Generates a reusable anonymous real mail address",
            category: Category::A,
            paper_ast_nodes: 3696,
            downloads: 194_604,
            paper_verdict: Verdict::Fail,
            source: include_str!("../addons/lessspamplease.js"),
            manual: ManualSignature {
                entries: vec![url_send("api.lesspamplease.org", t(1))],
                plain_sinks: vec![],
            },
            real_extra_flow: never_flow,
            real_extra_sink: never_sink,
        },
        Addon {
            name: "YoutubeDownloader",
            listed_purpose: "Youtube video downloader",
            category: Category::B,
            paper_ast_nodes: 3755,
            downloads: 7_600_428,
            paper_verdict: Verdict::Leak,
            source: include_str!("../addons/youtubedownloader.js"),
            manual: ManualSignature {
                entries: vec![url_send("youtube.com", t(3))],
                plain_sinks: vec![],
            },
            // The video id computed from the URL and sent to youtube.com
            // is a real explicit flow the summary never mentions.
            real_extra_flow: |e| {
                e.source == SourceKind::Url
                    && e.sink.kind == SinkKind::Send
                    && e.sink
                        .domain
                        .known_text()
                        .is_some_and(|d| d.contains("youtube.com"))
            },
            real_extra_sink: never_sink,
        },
        Addon {
            name: "VKVideoDownloader",
            listed_purpose: "Downloads videos from sites",
            category: Category::B,
            paper_ast_nodes: 2016,
            downloads: 459_028,
            paper_verdict: Verdict::Fail,
            source: include_str!("../addons/vkvideodownloader.js"),
            manual: ManualSignature {
                entries: vec![
                    url_send("vkontakte.ru", t(3)),
                    url_send("rutube.ru", t(3)),
                    url_send("video.mail.ru", t(3)),
                ],
                plain_sinks: vec![],
            },
            real_extra_flow: never_flow,
            real_extra_sink: never_sink,
        },
        Addon {
            name: "HyperTranslate",
            listed_purpose: "Translates selected text when key shorts are pressed",
            category: Category::B,
            paper_ast_nodes: 3576,
            downloads: 62_633,
            paper_verdict: Verdict::Pass,
            source: include_str!("../addons/hypertranslate.js"),
            manual: ManualSignature {
                entries: vec![ManualEntry {
                    source: SourceKind::Key,
                    sink_kind: SinkKind::Send,
                    domain: Some("translate.google.com".to_owned()),
                    flow: t(3),
                }],
                plain_sinks: vec![],
            },
            real_extra_flow: never_flow,
            real_extra_sink: never_sink,
        },
        Addon {
            name: "Chess.comNotifier",
            listed_purpose: "Notifies your turn on chess.com",
            category: Category::C,
            paper_ast_nodes: 1079,
            downloads: 2_402,
            paper_verdict: Verdict::Pass,
            source: include_str!("../addons/chessnotifier.js"),
            manual: ManualSignature {
                entries: vec![],
                plain_sinks: vec![(SinkKind::Send, "chess.com".to_owned())],
            },
            real_extra_flow: never_flow,
            real_extra_sink: never_sink,
        },
        Addon {
            name: "CoffeePodsDeals",
            listed_purpose: "Indicates coffee pods for sale",
            category: Category::C,
            paper_ast_nodes: 1670,
            downloads: 1_158,
            paper_verdict: Verdict::Pass,
            source: include_str!("../addons/coffeepodsdeals.js"),
            manual: ManualSignature {
                entries: vec![],
                plain_sinks: vec![(SinkKind::Send, "coffeepodsdeals.com".to_owned())],
            },
            real_extra_flow: never_flow,
            real_extra_sink: never_sink,
        },
        Addon {
            name: "oDeskJobWatcher",
            listed_purpose: "Indicates oDesk job opening",
            category: Category::C,
            paper_ast_nodes: 609,
            downloads: 8_279,
            paper_verdict: Verdict::Pass,
            source: include_str!("../addons/odeskjobwatcher.js"),
            manual: ManualSignature {
                entries: vec![],
                plain_sinks: vec![(SinkKind::Send, "odesk.com".to_owned())],
            },
            real_extra_flow: never_flow,
            real_extra_sink: never_sink,
        },
        Addon {
            name: "PinPoints",
            listed_purpose: "Save clips (addresses) from web text",
            category: Category::C,
            paper_ast_nodes: 2146,
            downloads: 7_042,
            paper_verdict: Verdict::Leak,
            source: include_str!("../addons/pinpoints.js"),
            manual: ManualSignature {
                entries: vec![],
                plain_sinks: vec![(SinkKind::Send, "yourpinpoints.com".to_owned())],
            },
            real_extra_flow: never_flow,
            // The maps.google.com geocoding traffic is real communication
            // only documented in the addon's fine print.
            real_extra_sink: |s| {
                s.kind == SinkKind::Send
                    && s.domain
                        .known_text()
                        .is_some_and(|d| d.contains("maps.google.com"))
            },
        },
        Addon {
            name: "GoogleTransliterate",
            listed_purpose: "Allows user to type in Indian languages",
            category: Category::C,
            paper_ast_nodes: 4270,
            downloads: 77_413,
            paper_verdict: Verdict::Leak,
            source: include_str!("../addons/googletransliterate.js"),
            manual: ManualSignature {
                entries: vec![],
                plain_sinks: vec![(SinkKind::Send, "google.com".to_owned())],
            },
            // The about:blank check is a real implicit URL flow.
            real_extra_flow: |e| e.source == SourceKind::Url,
            real_extra_sink: never_sink,
        },
    ]
}

/// Looks up a benchmark by name.
pub fn addon_by_name(name: &str) -> Option<Addon> {
    addons().into_iter().find(|a| a.name == name)
}

/// The running example of the paper's Figure 1, adapted to the analyzed
/// environment (see `figure1_preamble`). Used by the Figure 2 test and
/// the `figure2` bench binary.
pub const FIGURE1: &str = r#"var doc = { loc: content.location.href };
var data = { url: doc.loc };
send(data.url);
send(data[getString()]);
func();
if (doc.loc == "secret.com")
  send(null);
var arr = ["covert.com", "priv.com"];
var i = 0, count = 0;
while (arr[i] && doc.loc != arr[i]) {
  i++;
  count++;
}
send(count);
try {
  if (doc.loc != "hush-hush.com")
    throw "irrelevant";
  send(null);
} catch (x) {};
try {
  if (doc.loc != "mystic.com")
    obj.prop = 1;
  send(null);
} catch (x) {}
"#;

/// Bindings Figure 1 assumes: `send` posts over the network, `func` may
/// be undefined, `obj` may be an object or undefined, `getString` returns
/// an unknown string.
pub const FIGURE1_PREAMBLE: &str = r#"var send = function (payload) {
  var r = XHRWrapper("http://sink.example.com/collect");
  r.send(payload);
};
var getString = function () { return JSON.stringify(Math.random()); };
var func; if (Math.random() < 0.5) { func = function () {}; }
var obj; if (Math.random() < 0.5) { obj = {}; }
"#;

/// The complete Figure 1 example (preamble + program).
pub fn figure1_source() -> String {
    format!("{FIGURE1_PREAMBLE}{FIGURE1}")
}

/// A distinct flow-free synthetic addon: a dozen two-level helper
/// chains doing branching string munging with no security API in
/// sight — the shape of the long benign tail of a vetting queue, on
/// which triage skips phase 2. Each `i` yields different identifiers
/// and literals, so every instance is a distinct cache key.
pub fn benign_addon(i: usize) -> String {
    let mut src = String::new();
    for f in 0..12 {
        src.push_str(&format!(
            "function step{i}_{f}(tag) {{\n  var label = 'item-{i}-{f}:' + tag;\n  \
             return label + '/' + tag;\n}}\n\
             function wrap{i}_{f}(tag, n) {{\n  var body = step{i}_{f}(tag + '-w');\n  \
             var out = body;\n  if (n) {{ out = out + '#hot'; }} \
             else {{ out = out + '#cold'; }}\n  return out + '@{f}';\n}}\n"
        ));
    }
    for f in 0..12 {
        src.push_str(&format!("var r{i}_{f} = wrap{i}_{f}('t{f}', {});\n", f % 2));
    }
    src
}

/// A flow-free addon of `n` functions, each a chain of string
/// concatenations through eight locals and a branch, called once from
/// the top level: the repo benchmark's `synth_manyfn` shape with fixed
/// identifiers and literals. It is the scaling family of the DDG oracle
/// test and of `perf_snapshot`'s `ddg_scaling` section.
pub fn many_fn_addon(n: usize) -> String {
    let mut src = String::new();
    for i in 0..n {
        src.push_str(&format!(
            "function fn{i}(seed) {{\n  var probe = 'lit-probe-{i}';\n  var tag = 'lit-{i}';\n  \
             var v1 = tag + ':' + seed;\n"
        ));
        for (k, suffix) in ["a", "b", "c", "d", "e", "f", "g"].iter().enumerate() {
            src.push_str(&format!(
                "  var v{} = v{} + '/{suffix}{i}';\n",
                k + 2,
                k + 1
            ));
        }
        src.push_str(
            "  var out = '';\n  if (seed) { out = v8 + '/hot'; } else { out = v8 + '/cold'; }\n  \
             var trail = out + '#' + tag;\n  return trail;\n}\n",
        );
    }
    for i in 0..n {
        src.push_str(&format!("fn{i}({});\n", i % 2));
    }
    src
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ten_addons_in_table_order() {
        let all = addons();
        assert_eq!(all.len(), 10);
        assert_eq!(all[0].name, "LivePagerank");
        assert_eq!(all[9].name, "GoogleTransliterate");
    }

    #[test]
    fn category_counts_match_table_1() {
        let all = addons();
        let a = all.iter().filter(|x| x.category == Category::A).count();
        let b = all.iter().filter(|x| x.category == Category::B).count();
        let c = all.iter().filter(|x| x.category == Category::C).count();
        assert_eq!((a, b, c), (2, 3, 5));
    }

    #[test]
    fn paper_verdict_counts_match_table_2() {
        let all = addons();
        let pass = all
            .iter()
            .filter(|x| x.paper_verdict == Verdict::Pass)
            .count();
        let fail = all
            .iter()
            .filter(|x| x.paper_verdict == Verdict::Fail)
            .count();
        let leak = all
            .iter()
            .filter(|x| x.paper_verdict == Verdict::Leak)
            .count();
        assert_eq!((pass, fail, leak), (5, 2, 3));
    }

    #[test]
    fn all_sources_parse() {
        for addon in addons() {
            let parsed = jsparser::parse(addon.source);
            assert!(parsed.is_ok(), "{} fails to parse: {:?}", addon.name, parsed.err());
        }
    }

    #[test]
    fn sizes_are_nontrivial() {
        for addon in addons() {
            let prog = jsparser::parse(addon.source).unwrap();
            let nodes = jsparser::count_nodes(&prog);
            assert!(
                nodes > 100,
                "{} suspiciously small: {} AST nodes",
                addon.name,
                nodes
            );
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(addon_by_name("PinPoints").is_some());
        assert!(addon_by_name("NotAnAddon").is_none());
    }
}
