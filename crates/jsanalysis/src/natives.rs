//! The browser environment model: native API stubs and initial state.
//!
//! The paper "provide\[s\] manually-written stubs for the native APIs (e.g.
//! DOM and XPCOM APIs) used by our benchmarks" (Section 6.1). This module
//! is our equivalent: it builds the initial abstract heap (global object,
//! `window`/`document`/`content`, the XHR constructor, event-listener
//! registration, a small XPCOM surface) and defines the abstract semantics
//! of each native as a declarative [`NativeBehavior`] interpreted by the
//! abstract machine.

use crate::config::SourceKind;
use crate::store::{SiteKey, SiteTable};
use jsdomains::{AValue, AllocSite, Heap, NativeId, ObjKind, Pre, Sym};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Declarative abstract semantics of a native function.
#[derive(Debug, Clone, PartialEq)]
pub enum NativeBehavior {
    /// Returns a completely unknown value.
    ReturnAny,
    /// Returns the host object with the given site name (e.g. DOM element
    /// lookups return the generic `dom-node`).
    ReturnHost(&'static str),
    /// Returns `undefined`.
    ReturnUndefined,
    /// Returns an unknown string.
    ReturnAnyString,
    /// Returns an unknown number.
    ReturnAnyNum,
    /// Returns an unknown boolean.
    ReturnAnyBool,
    /// Returns its first argument unchanged (e.g. `String(x)` is close
    /// enough to this for analysis purposes after coercion).
    CoerceString,
    /// Allocates and returns a fresh XHR object.
    XhrConstructor,
    /// `xhr.open(method, url, ...)`: records `url` into the receiver's
    /// `@url` internal slot.
    XhrOpen,
    /// `xhr.send(data)`: a network sink; the domain is the receiver's
    /// `@url`.
    XhrSend,
    /// The paper's `XHRWrapper(url)` convenience: allocates an XHR with
    /// `@url` pre-set and returns it.
    XhrWrapper,
    /// `addEventListener(type, handler)`: registers `handler`.
    AddEventListener,
    /// `removeEventListener(type, handler)`: abstractly a no-op (handlers
    /// may still run).
    RemoveEventListener,
    /// `setTimeout(fn, ms)` / `setInterval`: registers `fn` as a handler;
    /// flags dynamic code if called with a string.
    SetTimeout,
    /// `eval(code)`: restricted dynamic-code API (reported, not analyzed).
    Eval,
    /// `Services.scriptloader.loadSubScript(url)`: script injection sink.
    ScriptLoader,
    /// A string method; receiver coerced to an abstract string.
    Str(StrOp),
    /// `arr.push(x)`: weak write of `x` under an unknown index.
    ArrayPush,
    /// `arr.join(sep)` and similar: unknown string derived from contents.
    ArrayJoin,
    /// Invokes its `arg_index`-th argument as a callback with unknown
    /// arguments (e.g. `forEach`, `getCurrentPosition`).
    InvokeCallback {
        /// Which argument is the callback.
        arg_index: usize,
        /// Arguments handed to the callback: host object sites.
        callback_args: Vec<&'static str>,
    },
    /// Reads an interesting source location and returns its value (e.g.
    /// clipboard read helpers).
    ReadSource(&'static str, &'static str),
    /// `Services.prefs.set*Pref`: preference-write sink.
    PrefWrite,
    /// `Services.prefs.get*Pref`: returns an unknown primitive.
    PrefRead,
}

/// String-method operations with prefix-aware semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrOp {
    /// `toLowerCase`
    ToLowerCase,
    /// `toUpperCase` (loses prefix precision conservatively).
    ToUpperCase,
    /// `indexOf` -> any number.
    IndexOf,
    /// `substring`/`slice` with constant bounds keeps leading slices.
    Substring,
    /// `charAt` -> unknown short string.
    CharAt,
    /// `replace` -> unknown string.
    Replace,
    /// `split` -> fresh array of unknown strings.
    Split,
    /// `concat` -> prefix-aware concatenation.
    Concat,
    /// `trim`: exact stays exact.
    Trim,
    /// `match` -> unknown.
    Match,
    /// `toString` on anything.
    ToString,
}

/// One native in the table.
#[derive(Debug, Clone)]
pub struct NativeSpec {
    /// Diagnostic, config-facing name (e.g.
    /// `"Services.scriptloader.loadSubScript"`).
    pub name: &'static str,
    /// Abstract semantics.
    pub behavior: NativeBehavior,
}

/// The environment: initial state, native table, source-location table.
#[derive(Debug)]
pub struct Environment {
    /// Initial abstract machine state (global object + host objects).
    pub initial_state: Heap,
    /// Native function table, indexed by [`NativeId`].
    pub natives: Vec<NativeSpec>,
    /// Interesting source locations: (site, exact property name) -> kind.
    pub source_locs: BTreeMap<(AllocSite, Sym), SourceKind>,
    /// The global object's allocation site.
    pub global: AllocSite,
    /// The event-registry host object's site.
    pub event_registry: AllocSite,
    /// The abstract event object handed to every handler.
    pub event_object: AllocSite,
}

impl Environment {
    /// The spec for a native id.
    pub fn spec(&self, id: NativeId) -> &NativeSpec {
        &self.natives[id.0 as usize]
    }
}

/// Builder used by [`build`].
struct EnvBuilder<'t> {
    sites: &'t mut SiteTable,
    state: Heap,
    natives: Vec<NativeSpec>,
    source_locs: BTreeMap<(AllocSite, Sym), SourceKind>,
}

impl EnvBuilder<'_> {
    fn host(&mut self, name: &'static str, kind: ObjKind) -> AllocSite {
        let site = self.sites.intern(SiteKey::Host(name));
        self.state.alloc(site, kind);
        site
    }

    fn native(&mut self, name: &'static str, behavior: NativeBehavior) -> AllocSite {
        let id = NativeId(self.natives.len() as u32);
        self.natives.push(NativeSpec { name, behavior });
        self.host(name, ObjKind::Native(id))
    }

    fn set_prop(&mut self, obj: AllocSite, name: &str, value: AValue) {
        self.state
            .get_mut(obj)
            .expect("host object allocated")
            .write_prop(&Pre::exact(name), &value, true);
    }

    fn source(&mut self, obj: AllocSite, prop: &str, kind: SourceKind, value: AValue) {
        self.set_prop(obj, prop, value);
        self.source_locs.insert((obj, Sym::intern(prop)), kind);
    }
}

/// The browser environment and the site table that holds its sites, as
/// a run starts from them. Building them is deterministic and reads no
/// configuration, so each thread builds them once, as a template, and
/// every run on the thread starts from a copy: its own clone of the
/// table, which it goes on interning into, and a shared environment
/// that nothing mutates (the run's states copy the initial heap on
/// write). Every run thus sees the same sites under the same numbers.
pub fn setup() -> (SiteTable, Rc<Environment>) {
    thread_local! {
        static TEMPLATE: (SiteTable, Rc<Environment>) = {
            let mut sites = SiteTable::new();
            let env = build(&mut sites);
            (sites, Rc::new(env))
        };
    }
    TEMPLATE.with(|(sites, env)| (sites.clone(), Rc::clone(env)))
}

/// Builds the browser environment: global object, host objects, natives,
/// and the interesting-source table.
fn build(sites: &mut SiteTable) -> Environment {
    let global = sites.intern(SiteKey::Global);
    let mut b = EnvBuilder {
        sites,
        state: Heap::new(),
        natives: Vec::new(),
        source_locs: BTreeMap::new(),
    };
    b.state.alloc(global, ObjKind::Host("global"));

    // --- Event plumbing ---------------------------------------------------
    let registry = b.host("event-registry", ObjKind::Host("event-registry"));
    let event = b.host("event", ObjKind::Host("event"));
    let event_target = b.host("event.target", ObjKind::Host("event.target"));
    b.source(event, "keyCode", SourceKind::Key, AValue::any_num());
    b.source(event, "charCode", SourceKind::Key, AValue::any_num());
    b.source(event, "which", SourceKind::Key, AValue::any_num());
    b.set_prop(event, "type", AValue::any_str());
    b.set_prop(event, "target", AValue::obj(event_target));
    b.set_prop(event_target, "id", AValue::any_str());
    b.set_prop(event_target, "value", AValue::any_str());
    b.source(
        event_target,
        "textContent",
        SourceKind::Selection,
        AValue::any_str(),
    );
    let prevent = b.native("event.preventDefault", NativeBehavior::ReturnUndefined);
    b.set_prop(event, "preventDefault", AValue::obj(prevent));
    b.set_prop(event, "altKey", AValue::any_bool());
    b.set_prop(event, "ctrlKey", AValue::any_bool());
    b.set_prop(event, "shiftKey", AValue::any_bool());

    let add_listener = b.native("addEventListener", NativeBehavior::AddEventListener);
    let remove_listener = b.native("removeEventListener", NativeBehavior::RemoveEventListener);
    let set_timeout = b.native("setTimeout", NativeBehavior::SetTimeout);
    let set_interval = b.native("setInterval", NativeBehavior::SetTimeout);
    let clear_timeout = b.native("clearTimeout", NativeBehavior::ReturnUndefined);

    // --- The current page: content / document / location -------------------
    let location = b.host("location", ObjKind::Host("location"));
    b.source(location, "href", SourceKind::Url, AValue::any_str());
    b.source(location, "host", SourceKind::Url, AValue::any_str());
    b.source(location, "hostname", SourceKind::Url, AValue::any_str());
    b.source(location, "pathname", SourceKind::Url, AValue::any_str());
    b.source(location, "search", SourceKind::Url, AValue::any_str());

    let document = b.host("document", ObjKind::Host("document"));
    b.set_prop(document, "location", AValue::obj(location));
    b.source(document, "cookie", SourceKind::Cookie, AValue::any_str());
    b.source(document, "title", SourceKind::Url, AValue::any_str());
    b.set_prop(document, "addEventListener", AValue::obj(add_listener));
    b.set_prop(
        document,
        "removeEventListener",
        AValue::obj(remove_listener),
    );
    let dom_node = b.host("dom-node", ObjKind::Host("dom-node"));
    let get_by_id = b.native(
        "document.getElementById",
        NativeBehavior::ReturnHost("dom-node"),
    );
    let create_elem = b.native(
        "document.createElement",
        NativeBehavior::ReturnHost("dom-node"),
    );
    b.set_prop(document, "getElementById", AValue::obj(get_by_id));
    b.set_prop(document, "createElement", AValue::obj(create_elem));
    b.set_prop(dom_node, "addEventListener", AValue::obj(add_listener));
    b.source(dom_node, "value", SourceKind::Selection, AValue::any_str());

    let content = b.host("content", ObjKind::Host("content"));
    b.set_prop(content, "location", AValue::obj(location));
    b.set_prop(content, "document", AValue::obj(document));

    let selection_obj = b.host("selection", ObjKind::Host("selection"));
    b.source(
        selection_obj,
        "text",
        SourceKind::Selection,
        AValue::any_str(),
    );
    let get_selection = b.native(
        "window.getSelection",
        NativeBehavior::ReturnHost("selection"),
    );

    // --- gBrowser (Firefox chrome) -----------------------------------------
    let current_uri = b.host("currentURI", ObjKind::Host("currentURI"));
    b.source(current_uri, "spec", SourceKind::Url, AValue::any_str());
    b.source(current_uri, "host", SourceKind::Url, AValue::any_str());
    let gbrowser = b.host("gBrowser", ObjKind::Host("gBrowser"));
    b.set_prop(gbrowser, "currentURI", AValue::obj(current_uri));
    b.set_prop(gbrowser, "contentDocument", AValue::obj(document));
    b.set_prop(gbrowser, "addEventListener", AValue::obj(add_listener));
    b.set_prop(gbrowser, "selectedBrowser", AValue::obj(gbrowser));

    // --- Network: XMLHttpRequest ------------------------------------------
    // The constructor installs `open`/`send` (below) on each request object.
    let xhr_ctor = b.native("XMLHttpRequest", NativeBehavior::XhrConstructor);
    let xhr_wrapper = b.native("XHRWrapper", NativeBehavior::XhrWrapper);
    b.native("xhr.open", NativeBehavior::XhrOpen);
    b.native("xhr.send", NativeBehavior::XhrSend);
    b.native("xhr.setRequestHeader", NativeBehavior::ReturnUndefined);
    b.native("xhr.abort", NativeBehavior::ReturnUndefined);
    b.native("xhr.overrideMimeType", NativeBehavior::ReturnUndefined);

    // --- Geolocation --------------------------------------------------------
    let coords = b.host("coords", ObjKind::Host("coords"));
    b.source(coords, "latitude", SourceKind::Geoloc, AValue::any_num());
    b.source(coords, "longitude", SourceKind::Geoloc, AValue::any_num());
    let position = b.host("position", ObjKind::Host("position"));
    b.set_prop(position, "coords", AValue::obj(coords));
    let get_position = b.native(
        "navigator.geolocation.getCurrentPosition",
        NativeBehavior::InvokeCallback {
            arg_index: 0,
            callback_args: vec!["position"],
        },
    );
    let geolocation = b.host("geolocation", ObjKind::Host("geolocation"));
    b.set_prop(geolocation, "getCurrentPosition", AValue::obj(get_position));
    let navigator = b.host("navigator", ObjKind::Host("navigator"));
    b.set_prop(navigator, "geolocation", AValue::obj(geolocation));
    b.set_prop(navigator, "userAgent", AValue::any_str());

    // --- Clipboard / passwords / history / bookmarks (XPCOM-ish) -----------
    let clipboard = b.host("clipboard", ObjKind::Host("clipboard"));
    b.source(clipboard, "data", SourceKind::Clipboard, AValue::any_str());
    let read_clipboard = b.native(
        "clipboard.read",
        NativeBehavior::ReadSource("clipboard", "data"),
    );
    b.set_prop(clipboard, "read", AValue::obj(read_clipboard));

    let login = b.host("login", ObjKind::Host("login"));
    b.source(login, "username", SourceKind::Password, AValue::any_str());
    b.source(login, "password", SourceKind::Password, AValue::any_str());
    let login_manager = b.host("loginManager", ObjKind::Host("loginManager"));
    let get_logins = b.native(
        "loginManager.getAllLogins",
        NativeBehavior::ReadSource("login", "password"),
    );
    b.set_prop(login_manager, "getAllLogins", AValue::obj(get_logins));

    let history_entry = b.host("history-entry", ObjKind::Host("history-entry"));
    b.source(history_entry, "uri", SourceKind::History, AValue::any_str());
    b.source(
        history_entry,
        "title",
        SourceKind::History,
        AValue::any_str(),
    );
    let history_service = b.host("historyService", ObjKind::Host("historyService"));
    let query_history = b.native(
        "historyService.executeQuery",
        NativeBehavior::ReadSource("history-entry", "uri"),
    );
    b.set_prop(history_service, "executeQuery", AValue::obj(query_history));

    let bookmark = b.host("bookmark", ObjKind::Host("bookmark"));
    b.source(bookmark, "uri", SourceKind::Bookmark, AValue::any_str());

    // --- Services / XPCOM surface -------------------------------------------
    let script_loader_fn = b.native(
        "Services.scriptloader.loadSubScript",
        NativeBehavior::ScriptLoader,
    );
    let script_loader = b.host("scriptloader", ObjKind::Host("scriptloader"));
    b.set_prop(
        script_loader,
        "loadSubScript",
        AValue::obj(script_loader_fn),
    );
    let pref_get = b.native("Services.prefs.getCharPref", NativeBehavior::PrefRead);
    let pref_set = b.native("Services.prefs.setCharPref", NativeBehavior::PrefWrite);
    let prefs = b.host("prefs", ObjKind::Host("prefs"));
    b.set_prop(prefs, "getCharPref", AValue::obj(pref_get));
    b.set_prop(prefs, "setCharPref", AValue::obj(pref_set));
    b.set_prop(prefs, "getBoolPref", AValue::obj(pref_get));
    b.set_prop(prefs, "setBoolPref", AValue::obj(pref_set));
    let services = b.host("Services", ObjKind::Host("Services"));
    b.set_prop(services, "scriptloader", AValue::obj(script_loader));
    b.set_prop(services, "prefs", AValue::obj(prefs));
    b.set_prop(services, "wm", AValue::any());
    let components = b.host("Components", ObjKind::Host("Components"));
    b.set_prop(components, "classes", AValue::any());
    b.set_prop(components, "interfaces", AValue::any());
    let components_utils = b.host("Components.utils", ObjKind::Host("Components.utils"));
    let cu_import = b.native("Components.utils.import", NativeBehavior::ReturnAny);
    b.set_prop(components_utils, "import", AValue::obj(cu_import));
    b.set_prop(components, "utils", AValue::obj(components_utils));

    // --- Dynamic code / deprecated APIs ------------------------------------
    let eval_fn = b.native("eval", NativeBehavior::Eval);
    let function_ctor = b.native("Function", NativeBehavior::Eval);
    let open_dialog = b.native("window.openDialog", NativeBehavior::ReturnAny);
    let escape_fn = b.native("escape", NativeBehavior::ReturnAnyString);
    let unescape_fn = b.native("unescape", NativeBehavior::ReturnAnyString);

    // --- Misc global functions ----------------------------------------------
    let parse_int = b.native("parseInt", NativeBehavior::ReturnAnyNum);
    let parse_float = b.native("parseFloat", NativeBehavior::ReturnAnyNum);
    let is_nan = b.native("isNaN", NativeBehavior::ReturnAnyBool);
    let encode_uri = b.native("encodeURIComponent", NativeBehavior::CoerceString);
    let decode_uri = b.native("decodeURIComponent", NativeBehavior::ReturnAnyString);
    let string_fn = b.native("String", NativeBehavior::CoerceString);
    let number_fn = b.native("Number", NativeBehavior::ReturnAnyNum);
    let boolean_fn = b.native("Boolean", NativeBehavior::ReturnAnyBool);
    let alert = b.native("alert", NativeBehavior::ReturnUndefined);
    let console_log = b.native("console.log", NativeBehavior::ReturnUndefined);
    let console = b.host("console", ObjKind::Host("console"));
    b.set_prop(console, "log", AValue::obj(console_log));
    b.set_prop(console, "error", AValue::obj(console_log));
    b.set_prop(console, "warn", AValue::obj(console_log));
    let math = b.host("Math", ObjKind::Host("Math"));
    let math_random = b.native("Math.random", NativeBehavior::ReturnAnyNum);
    let math_floor = b.native("Math.floor", NativeBehavior::ReturnAnyNum);
    b.set_prop(math, "random", AValue::obj(math_random));
    b.set_prop(math, "floor", AValue::obj(math_floor));
    b.set_prop(math, "ceil", AValue::obj(math_floor));
    b.set_prop(math, "round", AValue::obj(math_floor));
    b.set_prop(math, "max", AValue::obj(math_floor));
    b.set_prop(math, "min", AValue::obj(math_floor));
    b.set_prop(math, "abs", AValue::obj(math_floor));
    b.set_prop(math, "PI", AValue::num(std::f64::consts::PI));
    let json = b.host("JSON", ObjKind::Host("JSON"));
    let json_stringify = b.native("JSON.stringify", NativeBehavior::ReturnAnyString);
    let json_parse = b.native("JSON.parse", NativeBehavior::ReturnAny);
    b.set_prop(json, "stringify", AValue::obj(json_stringify));
    b.set_prop(json, "parse", AValue::obj(json_parse));
    let date_ctor = b.native("Date", NativeBehavior::ReturnAny);
    let object_ctor = b.native("Object", NativeBehavior::ReturnAny);
    let array_ctor = b.native("Array", NativeBehavior::ReturnAny);
    let regexp_ctor = b.native("RegExp", NativeBehavior::ReturnAny);

    for (name, op) in STRING_METHODS {
        b.native(name, NativeBehavior::Str(op));
    }
    let array_push = b.native("Array.prototype.push", NativeBehavior::ArrayPush);
    let array_join = b.native("Array.prototype.join", NativeBehavior::ArrayJoin);
    let array_foreach = b.native(
        "Array.prototype.forEach",
        NativeBehavior::InvokeCallback {
            arg_index: 0,
            callback_args: vec![],
        },
    );
    let _ = (array_push, array_join, array_foreach);

    // --- window: alias for the global scope plus chrome extras -------------
    let window = b.host("window", ObjKind::Host("window"));
    b.set_prop(window, "addEventListener", AValue::obj(add_listener));
    b.set_prop(window, "removeEventListener", AValue::obj(remove_listener));
    b.set_prop(window, "setTimeout", AValue::obj(set_timeout));
    b.set_prop(window, "setInterval", AValue::obj(set_interval));
    b.set_prop(window, "openDialog", AValue::obj(open_dialog));
    b.set_prop(window, "getSelection", AValue::obj(get_selection));
    b.set_prop(window, "content", AValue::obj(content));
    b.set_prop(window, "document", AValue::obj(document));
    b.set_prop(window, "location", AValue::obj(location));
    b.set_prop(window, "navigator", AValue::obj(navigator));
    b.set_prop(window, "gBrowser", AValue::obj(gbrowser));
    b.set_prop(window, "alert", AValue::obj(alert));

    // --- Global bindings -----------------------------------------------------
    let globals: &[(&str, AValue)] = &[
        ("window", AValue::obj(window)),
        ("document", AValue::obj(document)),
        ("content", AValue::obj(content)),
        ("location", AValue::obj(location)),
        ("navigator", AValue::obj(navigator)),
        ("gBrowser", AValue::obj(gbrowser)),
        ("Services", AValue::obj(services)),
        ("Components", AValue::obj(components)),
        ("XMLHttpRequest", AValue::obj(xhr_ctor)),
        ("XHRWrapper", AValue::obj(xhr_wrapper)),
        ("addEventListener", AValue::obj(add_listener)),
        ("removeEventListener", AValue::obj(remove_listener)),
        ("setTimeout", AValue::obj(set_timeout)),
        ("setInterval", AValue::obj(set_interval)),
        ("clearTimeout", AValue::obj(clear_timeout)),
        ("clearInterval", AValue::obj(clear_timeout)),
        ("eval", AValue::obj(eval_fn)),
        ("Function", AValue::obj(function_ctor)),
        ("escape", AValue::obj(escape_fn)),
        ("unescape", AValue::obj(unescape_fn)),
        ("parseInt", AValue::obj(parse_int)),
        ("parseFloat", AValue::obj(parse_float)),
        ("isNaN", AValue::obj(is_nan)),
        ("encodeURIComponent", AValue::obj(encode_uri)),
        ("encodeURI", AValue::obj(encode_uri)),
        ("decodeURIComponent", AValue::obj(decode_uri)),
        ("String", AValue::obj(string_fn)),
        ("Number", AValue::obj(number_fn)),
        ("Boolean", AValue::obj(boolean_fn)),
        ("alert", AValue::obj(alert)),
        ("console", AValue::obj(console)),
        ("Math", AValue::obj(math)),
        ("JSON", AValue::obj(json)),
        ("Date", AValue::obj(date_ctor)),
        ("Object", AValue::obj(object_ctor)),
        ("Array", AValue::obj(array_ctor)),
        ("RegExp", AValue::obj(regexp_ctor)),
        ("clipboard", AValue::obj(clipboard)),
        ("loginManager", AValue::obj(login_manager)),
        ("historyService", AValue::obj(history_service)),
        ("undefined", AValue::undef()),
        ("NaN", AValue::num(f64::NAN)),
        ("Infinity", AValue::num(f64::INFINITY)),
    ];
    for (name, value) in globals {
        b.set_prop(global, name, value.clone());
    }

    Environment {
        initial_state: b.state,
        natives: b.natives,
        source_locs: b.source_locs,
        global,
        event_registry: registry,
        event_object: event,
    }
}

/// The string methods, as natives of these names: [`build`] installs
/// them, and [`string_method`] resolves them on string-typed receivers.
const STRING_METHODS: [(&str, StrOp); 15] = [
    ("String.prototype.toLowerCase", StrOp::ToLowerCase),
    ("String.prototype.toUpperCase", StrOp::ToUpperCase),
    ("String.prototype.indexOf", StrOp::IndexOf),
    ("String.prototype.lastIndexOf", StrOp::IndexOf),
    ("String.prototype.substring", StrOp::Substring),
    ("String.prototype.substr", StrOp::Substring),
    ("String.prototype.slice", StrOp::Substring),
    ("String.prototype.charAt", StrOp::CharAt),
    ("String.prototype.charCodeAt", StrOp::IndexOf),
    ("String.prototype.replace", StrOp::Replace),
    ("String.prototype.split", StrOp::Split),
    ("String.prototype.concat", StrOp::Concat),
    ("String.prototype.trim", StrOp::Trim),
    ("String.prototype.match", StrOp::Match),
    ("String.prototype.toString", StrOp::ToString),
];

/// The native table name of the string method `name` (e.g. `"trim"`).
pub fn string_method(name: &str) -> Option<&'static str> {
    STRING_METHODS
        .iter()
        .map(|&(native, _)| native)
        .find(|native| native.strip_prefix("String.prototype.") == Some(name))
}

/// Array/object method names resolvable on any object receiver when the
/// property is otherwise absent.
pub fn object_method(name: &str) -> Option<&'static str> {
    Some(match name {
        "push" => "Array.prototype.push",
        "join" => "Array.prototype.join",
        "forEach" => "Array.prototype.forEach",
        "toString" => "String.prototype.toString",
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn environment_builds() {
        let (_, env) = setup();
        assert!(env.natives.len() > 20);
        assert!(env.natives.iter().any(|n| n.name == "XMLHttpRequest"));
        assert!(!env.source_locs.is_empty());
    }

    #[test]
    fn url_source_registered_on_location() {
        let (sites, env) = setup();
        let loc = sites.get(&SiteKey::Host("location")).unwrap();
        assert_eq!(
            env.source_locs.get(&(loc, Sym::intern("href"))),
            Some(&SourceKind::Url)
        );
    }

    #[test]
    fn global_bindings_present() {
        let (_, env) = setup();
        let g = env.initial_state.get(env.global).expect("global allocated");
        for name in ["content", "XMLHttpRequest", "Services", "eval", "undefined"] {
            let v = g.read_prop(&Pre::exact(name));
            assert!(
                !jsdomains::Lattice::is_bottom(&v),
                "global `{name}` missing"
            );
        }
    }

    #[test]
    fn string_method_lookup() {
        assert!(string_method("toLowerCase").is_some());
        assert!(string_method("nope").is_none());
        assert!(object_method("push").is_some());
    }
}
