//! What the front end makes of one source, as the front-end golden
//! (`tests/frontend_golden.rs`) and the fuzz suite pin it.
//!
//! A source that parses is pinned by its `count_nodes` and by digests of
//! the `{:?}` text of its AST and of its `jsir::lower` result (the IR
//! program, the CFG's successor and predecessor lists, and
//! `event_dispatch`). A source that does not is pinned by its parse
//! error's `Display` and span.

use minijson::Json;
use sigserve::cache::{fnv1a, FNV_OFFSET};

/// One source's golden entry.
pub fn entry(source: &str) -> Json {
    let mut out = Json::obj();
    match jsparser::parse(source) {
        Ok(ast) => {
            let nodes = jsparser::count_nodes(&ast) as f64;
            out.set("nodes", Json::from(nodes));
            out.set("ast_fnv1a", Json::from(hex(&format!("{ast:?}"))));
            let lowered = format!("{:?}", jsir::lower(&ast));
            out.set("lowered_fnv1a", Json::from(hex(&lowered)));
        }
        Err(e) => {
            out.set("error", Json::from(e.to_string()));
            out.set("span", Json::from(format!("{:?}", e.span)));
        }
    }
    out
}

fn hex(text: &str) -> String {
    format!("{:016x}", fnv1a(FNV_OFFSET, text.as_bytes()))
}
