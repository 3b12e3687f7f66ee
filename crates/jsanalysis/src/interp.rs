//! The flow- and context-sensitive abstract interpreter (the paper's
//! "base analysis", standing in for JSAI).
//!
//! A worklist fixpoint over `(statement, context)` pairs computes, for the
//! whole addon:
//!
//! - abstract values (reduced product of pointer, prefix-string, and
//!   constant analyses),
//! - the call graph (control-flow analysis),
//! - per-statement **read/write sets** with strong/weak qualification
//!   (the inputs to annotated-PDG construction, Section 3),
//! - which statements **may implicitly throw**,
//! - network **sink records** with inferred prefix-domain URLs
//!   (Section 5), and interesting-API usage.
//!
//! Activation frames are heap objects, making closures sound by
//! construction; the addon event loop is the non-deterministic dispatch
//! statement appended by `jsir` (Section 6.1).

use crate::config::{
    AnalysisConfig, BudgetExhausted, BudgetKind, SinkKind, SourceKind, StringDomain, WorklistOrder,
    DEADLINE_CHECK_INTERVAL,
};
use crate::context::{CtxId, CtxTable};
use crate::natives::{self, Environment, NativeBehavior, StrOp};
use crate::rwsets::{LocTable, RwSets, StmtMap, StmtSet, Strength};
use crate::store::{read_slot, slots, write_slot, SiteKey, SiteTable};
use jsdomains::{
    AObject, AValue, AllocSite, BoolDom, FuncIndex, Heap, Lattice, NativeId, NumDom, ObjKind, Pre,
    Sym,
};
use jsir::{EdgeKind, IrFuncId, IrStmtKind, Lowered, Operand, Place, StmtId, VarId};
use jsparser::ast::{BinaryOp, UnaryOp};
use sigtrace::{Counter, Counters, Trace, CTX_CLASSES};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::rc::Rc;

/// A recorded reach of an interesting sink.
#[derive(Debug, Clone, PartialEq)]
pub struct SinkRecord {
    /// The call statement acting as the sink.
    pub stmt: StmtId,
    /// What kind of sink.
    pub kind: SinkKind,
    /// For network sends: the inferred domain (prefix domain), joined over
    /// all contexts/visits. `Pre::Bot` if never set.
    pub domain: Pre,
}

/// Everything the base analysis hands to PDG construction and signature
/// inference.
#[derive(Debug)]
pub struct AnalysisResult {
    /// The locations the run recorded; `rw` names them by id.
    pub locs: LocTable,
    /// Read/write sets per statement (merged over contexts).
    pub rw: StmtMap<RwSets>,
    /// Statements that may throw an implicit exception.
    pub may_throw: StmtSet,
    /// Addon functions each call statement may invoke, sorted.
    pub call_targets: StmtMap<Vec<IrFuncId>>,
    /// Interesting sinks reached, with inferred network domains.
    pub sinks: Vec<SinkRecord>,
    /// Uses of interesting APIs: (statement, API name).
    pub api_uses: BTreeSet<(StmtId, String)>,
    /// Interesting source locations (site, property) -> kind.
    pub source_locs: BTreeMap<(AllocSite, Sym), SourceKind>,
    /// The source kinds the configuration marked interesting.
    pub interesting_sources: BTreeSet<SourceKind>,
    /// Recency aliasing: most-recent allocation site -> its aged summary
    /// twin. The DDG treats aliased sites as overlapping (cross-instance
    /// flows are weak).
    pub site_aliases: BTreeMap<AllocSite, AllocSite>,
    /// Statements lying on an execution cycle (loop, recursion, or the
    /// event loop), computed over the *context-qualified* transition graph
    /// so that a function merely called from two sites is not spuriously
    /// cyclic. These are the amplified control-edge sources (Section 3.3
    /// stage 4).
    pub cyclic_stmts: StmtSet,
    /// Statements reached by the analysis.
    pub reachable: StmtSet,
    /// Worklist steps executed (perf metric). Deterministic for a fixed
    /// config, but depends on the worklist order (RPO exists to shrink it).
    pub steps: usize,
    /// Abstract-state joins performed when re-queuing an already-visited
    /// node (perf metric; order-dependent like [`AnalysisResult::steps`]).
    pub joins: usize,
    /// Abstract heap objects copied by copy-on-write during this run
    /// (perf metric; order-dependent like [`AnalysisResult::steps`]).
    pub heap_cow_clones: u64,
    /// True if `max_steps` was hit and results are partial.
    pub hit_step_limit: bool,
    /// Set when the caller-imposed step budget or wall-clock deadline
    /// tripped before the fixpoint was reached; results are partial. The
    /// service layer reports this as a degraded `timeout` verdict.
    pub budget_exhausted: Option<BudgetExhausted>,
}

impl AnalysisResult {
    /// Statements that read an interesting source location, with the
    /// source kinds they read. Each recorded location's source kinds are
    /// found once, among the locations of an interesting property's own
    /// site, so a read is one lookup by location id.
    pub fn source_stmts(&self) -> BTreeMap<StmtId, BTreeSet<SourceKind>> {
        let mut kinds: Vec<Vec<&SourceKind>> = vec![Vec::new(); self.locs.len()];
        for ((site, prop), kind) in &self.source_locs {
            for (name, id) in self.locs.at_site(*site) {
                if name.may_be(prop) {
                    kinds[id.0 as usize].push(kind);
                }
            }
        }
        let mut out: BTreeMap<StmtId, BTreeSet<SourceKind>> = BTreeMap::new();
        for (stmt, rw) in self.rw.iter() {
            for (loc, _) in rw.reads.iter() {
                for kind in &kinds[loc.0 as usize] {
                    out.entry(stmt).or_default().insert((*kind).clone());
                }
            }
        }
        out
    }
}

/// Runs the base analysis on a lowered program.
pub fn analyze(lowered: &Lowered, config: &AnalysisConfig) -> AnalysisResult {
    analyze_traced(lowered, config, &mut Trace::Off)
}

/// Runs the base analysis with an observability hook: `trace` receives
/// the phase counters (worklist steps, state joins, heap CoW clones).
/// The caller times the whole call as the fixpoint layer.
///
/// When the sink asks for cost attribution ([`Trace::attributes_cost`]),
/// every worklist step's owning function and clamped context depth are
/// tallied (steps + wall time) into dense per-machine buckets, flushed
/// once through [`Trace::record_cost`] when the run ends. Counters and
/// tallies live in plain machine fields, so tracing adds nothing to the
/// fixpoint loop itself; with [`Trace::Off`] the whole function is
/// [`analyze`] — the loop pays one branch per step and no clock reads.
pub fn analyze_traced(
    lowered: &Lowered,
    config: &AnalysisConfig,
    trace: &mut Trace<'_>,
) -> AnalysisResult {
    let cow_before = jsdomains::cow_clone_count();
    let (sites, env) = natives::setup();
    let worklist = match config.worklist {
        WorklistOrder::Rpo => Worklist::Rpo(BinaryHeap::new()),
        WorklistOrder::Fifo => Worklist::Fifo(VecDeque::new()),
    };
    let mut m = Machine {
        lowered,
        config,
        env,
        sites,
        ctxs: CtxTable::new(),
        prio: rpo_priorities(lowered),
        var_keys: Vec::new(),
        nodes: Vec::new(),
        slots: vec![Slots::default(); lowered.program.stmt_count()],
        worklist,
        locs: LocTable::default(),
        rw: StmtMap::default(),
        may_throw: StmtSet::new(),
        call_targets: StmtMap::default(),
        native_calls: StmtSet::new(),
        sink_domains: BTreeMap::new(),
        api_uses: BTreeSet::new(),
        reachable: StmtSet::new(),
        steps: 0,
        joins: 0,
        site_aliases: BTreeMap::new(),
        current: None,
        attr: trace
            .attributes_cost()
            .then(|| AttrTally::new(lowered.program.funcs.len())),
    };
    m.seed();
    let status = m.run();
    let cyclic_stmts = cyclic_statements(&m.nodes);
    let heap_cow_clones = jsdomains::cow_clone_count() - cow_before;
    if trace.is_enabled() {
        let mut counters = Counters::new();
        counters.add(Counter::WorklistSteps, m.steps as u64);
        counters.add(Counter::StateJoins, m.joins as u64);
        counters.add(Counter::HeapCowClones, heap_cow_clones);
        trace.add_counters(&counters);
    }
    if let Some(tally) = &m.attr {
        for (fi, func) in m.lowered.program.funcs.iter().enumerate() {
            for class in 0..CTX_CLASSES {
                let [steps, ns] = tally.buckets[fi * CTX_CLASSES + class];
                if steps > 0 {
                    trace.record_cost(&func.name, class as u8, steps, ns / 1_000);
                }
            }
        }
    }
    AnalysisResult {
        locs: m.locs,
        rw: m.rw,
        may_throw: m.may_throw,
        call_targets: m.call_targets,
        sinks: m
            .sink_domains
            .into_iter()
            .map(|((stmt, kind), domain)| SinkRecord { stmt, kind, domain })
            .collect(),
        api_uses: m.api_uses,
        source_locs: m.env.source_locs.clone(),
        interesting_sources: config.security.sources.clone(),
        site_aliases: m.site_aliases,
        cyclic_stmts,
        reachable: m.reachable,
        steps: m.steps,
        joins: m.joins,
        heap_cow_clones,
        hit_step_limit: matches!(status, RunStatus::StepLimit),
        budget_exhausted: match status {
            RunStatus::Budget(b) => Some(b),
            _ => None,
        },
    }
}

/// Dense per-run attribution tally: `[steps, time_ns]` per
/// `(function, clamped context depth)` bucket. Indexed arithmetic — no
/// hashing — so the enabled fixpoint loop pays two clock reads and two
/// adds per step, nothing else. Flushed once when the run ends.
struct AttrTally {
    buckets: Vec<[u64; 2]>,
}

impl AttrTally {
    fn new(funcs: usize) -> AttrTally {
        AttrTally {
            buckets: vec![[0, 0]; funcs * CTX_CLASSES],
        }
    }

    #[inline]
    fn add(&mut self, func: IrFuncId, ctx_class: usize, time_ns: u64) {
        let b = &mut self.buckets[func.0 as usize * CTX_CLASSES + ctx_class];
        b[0] += 1;
        b[1] += time_ns;
    }
}

/// How the fixpoint loop ended.
enum RunStatus {
    /// The worklist drained: the fixpoint was reached.
    Completed,
    /// The `max_steps` safety valve tripped.
    StepLimit,
    /// The caller-imposed step budget or wall-clock deadline tripped.
    Budget(BudgetExhausted),
}

/// Where a finished callee returns to. The caller's frame follows from
/// `call` and `caller_ctx`, so it never decides the order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct RetLink<'a> {
    call: StmtId,
    caller_ctx: CtxId,
    caller_func: IrFuncId,
    caller_frame: AllocSite,
    callee_frame: AllocSite,
    dst: Option<&'a Place>,
    new_site: Option<AllocSite>,
    /// The `CallResult` node the return-value transfer is attributed to.
    result_node: Option<StmtId>,
}

/// Marks the empty inline slot of [`Slots`].
const NO_NODE: u32 = u32::MAX;

/// A statement's nodes as `(context, node)` pairs: the first inline
/// (most statements are reached under one context), the rest sorted by
/// context, so a lookup is one compare or a binary search.
#[derive(Clone)]
struct Slots {
    first: (CtxId, u32),
    rest: Vec<(CtxId, u32)>,
}

impl Default for Slots {
    fn default() -> Slots {
        Slots {
            first: (CtxId::ROOT, NO_NODE),
            rest: Vec::new(),
        }
    }
}

/// One context-qualified program point `(stmt, ctx)` of the transition
/// graph, in the machine's node store.
struct Node<'a> {
    stmt: StmtId,
    ctx: CtxId,
    /// The stored state: `None` only for a callee's exit node that has
    /// return links but no state yet.
    state: Option<Heap>,
    queued: bool,
    /// The frame site of the node's function under its context, interned
    /// at the node's first step.
    frame: Option<AllocSite>,
    /// The nodes this node pushed state to, sorted, each once: the
    /// explored transitions, for cycle (amplification) detection without
    /// the spurious cycles a context-insensitive supergraph has.
    succs: Vec<u32>,
    /// For a callee's exit node: where the callee returns to, sorted.
    ret_links: Vec<RetLink<'a>>,
}

/// The pending-node queue. FIFO is the naive baseline; RPO pops the
/// pending node with the smallest reverse-postorder number, so loop
/// bodies stabilize before their exits are visited and far fewer
/// re-propagations are needed to reach the fixpoint. Entries are node
/// ids; RPO orders them by `(priority, stmt, ctx)`.
enum Worklist {
    Fifo(VecDeque<u32>),
    Rpo(BinaryHeap<Reverse<(u32, StmtId, CtxId, u32)>>),
}

impl Worklist {
    fn push(&mut self, n: u32, node: &Node, prio: &[u32]) {
        match self {
            Worklist::Fifo(q) => q.push_back(n),
            Worklist::Rpo(h) => {
                let p = prio.get(node.stmt.0 as usize).copied().unwrap_or(u32::MAX);
                h.push(Reverse((p, node.stmt, node.ctx, n)));
            }
        }
    }

    fn pop(&mut self) -> Option<u32> {
        match self {
            Worklist::Fifo(q) => q.pop_front(),
            Worklist::Rpo(h) => h.pop().map(|Reverse((.., n))| n),
        }
    }
}

/// Reverse-postorder numbering of every statement, per function (each
/// function's body is a contiguous priority band). Nested functions get
/// the earlier bands and top-level the last one: pending callee and
/// event-handler work then always outranks the top-level driver, so a
/// call (or an event-loop dispatch) drains to its fixpoint before the
/// caller's continuation -- or the dispatch statement itself -- re-runs
/// on a partially-propagated state. The numbering is a scheduling
/// heuristic only -- any order reaches the same fixpoint -- so it's fine
/// that inter-function edges and catch pads reachable only through
/// implicit throws sit outside the DFS; the latter get trailing
/// priorities in statement order.
fn rpo_priorities(lowered: &Lowered) -> Vec<u32> {
    let n = lowered.program.stmt_count();
    let mut prio = vec![u32::MAX; n];
    let mut visited = vec![false; n];
    let mut next: u32 = 0;
    let (top, nested) = lowered
        .program
        .funcs
        .split_first()
        .expect("top-level function always exists");
    for func in nested.iter().chain(std::iter::once(top)) {
        let entry = func.entry;
        if visited[entry.0 as usize] {
            continue;
        }
        // Iterative DFS collecting postorder, then number it in reverse.
        let mut post: Vec<StmtId> = Vec::new();
        let mut stack: Vec<(StmtId, usize)> = vec![(entry, 0)];
        visited[entry.0 as usize] = true;
        while let Some((s, cursor)) = stack.last_mut() {
            let succs = lowered.cfg.succs(*s);
            if *cursor < succs.len() {
                let (t, _) = succs[*cursor];
                *cursor += 1;
                if !visited[t.0 as usize] {
                    visited[t.0 as usize] = true;
                    stack.push((t, 0));
                }
            } else {
                post.push(*s);
                stack.pop();
            }
        }
        for s in post.iter().rev() {
            prio[s.0 as usize] = next;
            next += 1;
        }
    }
    for (p, seen) in prio.iter_mut().zip(&visited) {
        if !seen {
            *p = next;
            next += 1;
        }
    }
    prio
}

/// What an access touches on each of its sites: a property under an
/// abstract name, or one of the analysis's internal slots.
#[derive(Clone, Copy)]
enum Field {
    Prop(Pre),
    Slot(&'static str),
}

impl Field {
    /// The location name the read/write sets record.
    fn name(self) -> Pre {
        match self {
            Field::Prop(p) => p,
            Field::Slot(slot) => Pre::exact(slot),
        }
    }

    /// The field's value on one object.
    fn get(self, o: &AObject) -> AValue {
        match self {
            Field::Prop(p) => o.read_prop(&p),
            Field::Slot(slot) => o.internal_slot(slot),
        }
    }

    /// Writes `value` to the field of one object: a strong update when
    /// `strong`, a join otherwise.
    fn set(self, o: &mut AObject, value: &AValue, strong: bool) {
        match self {
            Field::Prop(p) => o.write_prop(&p, value, strong),
            Field::Slot(slot) => {
                let v = if strong {
                    value.clone()
                } else {
                    o.internal_slot(slot).join(value)
                };
                o.set_internal_slot(slot, v);
            }
        }
    }
}

/// The strength cap that leaves an access to [`access_strength`]; the
/// other cap, [`Strength::Weak`], makes it weak whatever the rule says.
const BY_RULE: Strength = Strength::Strong;

/// The strength rule (Section 3.2) for an access of `name` on `sites`
/// sites, of which `first` is the first: it is strong — a definite access
/// of one concrete location — when it touches exactly one site, that
/// site holds a singleton object, and the name is exact.
fn access_strength(st: &Heap, first: AllocSite, sites: usize, name: &Pre) -> Strength {
    if sites == 1 && name.is_exact() && st.get(first).is_some_and(|o| o.singleton) {
        Strength::Strong
    } else {
        Strength::Weak
    }
}

struct Machine<'a> {
    lowered: &'a Lowered,
    config: &'a AnalysisConfig,
    env: Rc<Environment>,
    sites: SiteTable,
    /// Context interner: every context-qualified key below holds a
    /// [`CtxId`] instead of a call-string vector.
    ctxs: CtxTable,
    /// Reverse-postorder priority per statement (see [`rpo_priorities`]).
    prio: Vec<u32>,
    /// Cache of `v{i}` frame-variable keys, indexed by slot number.
    var_keys: Vec<Pre>,
    /// The node store: every `(stmt, ctx)` reached, by node id.
    nodes: Vec<Node<'a>>,
    /// Each statement's nodes, indexed by `StmtId`.
    slots: Vec<Slots>,
    worklist: Worklist,
    locs: LocTable,
    rw: StmtMap<RwSets>,
    may_throw: StmtSet,
    call_targets: StmtMap<Vec<IrFuncId>>,
    /// Call statements that may invoke a native (the mixed-callee rule in
    /// [`Machine::handle_exit`] reads it).
    native_calls: StmtSet,
    sink_domains: BTreeMap<(StmtId, SinkKind), Pre>,
    api_uses: BTreeSet<(StmtId, String)>,
    reachable: StmtSet,
    steps: usize,
    /// Joins into an existing abstract state (see `push_state`).
    joins: usize,
    site_aliases: BTreeMap<AllocSite, AllocSite>,
    /// The node currently being transferred (source of push_state edges).
    current: Option<u32>,
    /// Cost-attribution tally (`None` unless the caller enabled
    /// attribution; the fixpoint loop then skips the clock reads).
    attr: Option<AttrTally>,
}

impl<'a> Machine<'a> {
    fn seed(&mut self) {
        let top = self.lowered.program.top_level();
        let mut st = self.env.initial_state.clone();
        let frame = self.sites.intern(SiteKey::Frame(top.id, CtxId::ROOT));
        st.alloc(frame, ObjKind::Host("frame"));
        write_slot(&mut st, frame, slots::THIS, AValue::obj(self.env.global));
        write_slot(&mut st, frame, slots::RET, AValue::undef());
        self.push_state(top.entry, CtxId::ROOT, st);
    }

    fn run(&mut self) -> RunStatus {
        // The clock only starts when a budget can trip on it, keeping the
        // unbudgeted hot path free of timing syscalls.
        let needs_clock = self.config.deadline.is_some() || self.config.step_budget.is_some();
        let start = needs_clock.then(std::time::Instant::now);
        while let Some(n) = self.worklist.pop() {
            let node = &mut self.nodes[n as usize];
            node.queued = false;
            let (stmt, ctx) = (node.stmt, node.ctx);
            self.steps += 1;
            if self.steps > self.config.max_steps {
                return RunStatus::StepLimit;
            }
            if let Some(budget) = self.config.step_budget {
                if self.steps > budget {
                    return RunStatus::Budget(BudgetExhausted {
                        kind: BudgetKind::Steps,
                        steps: self.steps,
                        elapsed: start.expect("clock started with a budget").elapsed(),
                    });
                }
            }
            if let Some(deadline) = self.config.deadline {
                if self.steps.is_multiple_of(DEADLINE_CHECK_INTERVAL) {
                    let elapsed = start.expect("clock started with a deadline").elapsed();
                    if elapsed > deadline {
                        return RunStatus::Budget(BudgetExhausted {
                            kind: BudgetKind::Deadline,
                            steps: self.steps,
                            elapsed,
                        });
                    }
                }
            }
            self.current = Some(n);
            if self.attr.is_some() {
                // Attribution enabled: two clock reads bracket the
                // transfer; the tally is indexed arithmetic, no hashing.
                let func = self.lowered.program.stmt(stmt).func;
                let class = self.ctxs.get(ctx).depth().min(CTX_CLASSES - 1);
                let t0 = std::time::Instant::now();
                self.step(n);
                let ns = t0.elapsed().as_nanos() as u64;
                self.attr
                    .as_mut()
                    .expect("checked above")
                    .add(func, class, ns);
            } else {
                self.step(n);
            }
            self.current = None;
        }
        RunStatus::Completed
    }

    /// The node of `(stmt, ctx)`, added to the store (without a state)
    /// on first sight.
    fn node(&mut self, stmt: StmtId, ctx: CtxId) -> u32 {
        let slots = &mut self.slots[stmt.0 as usize];
        if slots.first.0 == ctx && slots.first.1 != NO_NODE {
            return slots.first.1;
        }
        let at = slots.rest.binary_search_by_key(&ctx, |&(c, _)| c);
        if let Ok(i) = at {
            return slots.rest[i].1;
        }
        let n = self.nodes.len() as u32;
        self.nodes.push(Node {
            stmt,
            ctx,
            state: None,
            queued: false,
            frame: None,
            succs: Vec::new(),
            ret_links: Vec::new(),
        });
        match at {
            Err(i) if slots.first.1 != NO_NODE => slots.rest.insert(i, (ctx, n)),
            _ => slots.first = (ctx, n),
        }
        n
    }

    fn push_state(&mut self, stmt: StmtId, ctx: CtxId, state: Heap) {
        let n = self.node(stmt, ctx);
        if let Some(cur) = self.current {
            let succs = &mut self.nodes[cur as usize].succs;
            if let Err(i) = succs.binary_search(&n) {
                succs.insert(i, n);
            }
        }
        let node = &mut self.nodes[n as usize];
        let changed = match &mut node.state {
            Some(existing) => {
                self.joins += 1;
                existing.join_in_place(&state)
            }
            None => {
                node.state = Some(state);
                true
            }
        };
        if changed {
            self.enqueue(n);
        }
    }

    /// Queues node `n` unless it is queued already or has no state.
    fn enqueue(&mut self, n: u32) {
        let node = &mut self.nodes[n as usize];
        if node.state.is_some() && !node.queued {
            node.queued = true;
            self.worklist.push(n, node, &self.prio);
        }
    }

    /// Key under which variable slot `i` is stored in its frame object.
    /// Cached: the same few dozen keys are rebuilt millions of times on
    /// the hot path otherwise.
    fn var_key(&mut self, index: u32) -> Pre {
        let i = index as usize;
        while self.var_keys.len() <= i {
            let j = self.var_keys.len();
            self.var_keys.push(Pre::exact(format!("v{j}")));
        }
        self.var_keys[i]
    }

    /// Recency allocation: if the site already holds an object (the
    /// allocation re-executed -- a loop, recursion, or another event-loop
    /// iteration), age that instance into the site's summary twin and
    /// rewrite every reference to it, then bind a fresh singleton. This is
    /// what keeps locals and fresh objects strongly updatable inside
    /// event handlers, like JSAI's stack frames.
    fn alloc_fresh(&mut self, st: &mut Heap, key: SiteKey, kind: ObjKind) -> AllocSite {
        let mru = self.sites.intern(key);
        if st.get(mru).is_some() {
            let aged = self.sites.intern(SiteKey::Aged(mru.0));
            st.rename_site(mru, aged);
            self.site_aliases.insert(mru, aged);
        }
        st.alloc(mru, kind);
        mru
    }

    /// Marks a statement as possibly throwing an implicit exception and,
    /// when it has an enclosing handler, propagates the current state to
    /// the catch landing pad so code reachable only through implicit
    /// exceptions is still analyzed.
    fn implicit_throw(&mut self, stmt_id: StmtId, ctx: CtxId, st: &Heap) {
        self.may_throw.insert(stmt_id);
        if let Some(handler) = self.lowered.program.stmt(stmt_id).handler {
            self.push_state(handler, ctx, st.clone());
        }
    }

    /// The one read path. Records a read of `field` on every site in
    /// `sites` by `stmt`, all at one strength — [`access_strength`]'s,
    /// capped at `at_most` — then shows `visit` the object at each
    /// allocated site.
    fn read_each(
        &mut self,
        stmt: StmtId,
        st: &Heap,
        sites: impl IntoIterator<Item = AllocSite, IntoIter: ExactSizeIterator>,
        field: Field,
        at_most: Strength,
        mut visit: impl FnMut(&AObject),
    ) {
        let mut sites = sites.into_iter().peekable();
        let Some(&first) = sites.peek() else { return };
        let prop = field.name();
        let strength = access_strength(st, first, sites.len(), &prop).min(at_most);
        let reads = &mut self.rw.entry(stmt).reads;
        for site in sites {
            reads.add(self.locs.intern(site, prop), strength);
            if let Some(o) = st.get(site) {
                visit(o);
            }
        }
    }

    /// The one write path: like [`Machine::read_each`], but records
    /// writes and hands `visit` each allocated object mutably, with
    /// whether the access is strong.
    fn write_each(
        &mut self,
        stmt: StmtId,
        st: &mut Heap,
        sites: impl IntoIterator<Item = AllocSite, IntoIter: ExactSizeIterator>,
        field: Field,
        at_most: Strength,
        mut visit: impl FnMut(&mut AObject, bool),
    ) {
        let mut sites = sites.into_iter().peekable();
        let Some(&first) = sites.peek() else { return };
        let prop = field.name();
        let strength = access_strength(st, first, sites.len(), &prop).min(at_most);
        let writes = &mut self.rw.entry(stmt).writes;
        for site in sites {
            writes.add(self.locs.intern(site, prop), strength);
            if let Some(o) = st.get_mut(site) {
                visit(o, strength == Strength::Strong);
            }
        }
    }

    /// Reads `field` on `sites` through the read path: the values joined.
    fn read(
        &mut self,
        stmt: StmtId,
        st: &Heap,
        sites: impl IntoIterator<Item = AllocSite, IntoIter: ExactSizeIterator>,
        field: Field,
        at_most: Strength,
    ) -> AValue {
        let mut out = AValue::bottom();
        self.read_each(stmt, st, sites, field, at_most, |o| {
            let v = field.get(o);
            out = if out.is_bottom() { v } else { out.join(&v) };
        });
        out
    }

    /// Writes `value` to `field` on `sites` through the write path: a
    /// strong update where the access is strong, a join elsewhere.
    fn write(
        &mut self,
        stmt: StmtId,
        st: &mut Heap,
        sites: impl IntoIterator<Item = AllocSite, IntoIter: ExactSizeIterator>,
        field: Field,
        at_most: Strength,
        value: &AValue,
    ) {
        self.write_each(stmt, st, sites, field, at_most, |o, strong| {
            field.set(o, value, strong);
        });
    }

    /// The frames that may hold variable `v` for the activation of `func`
    /// whose frame is `frame`: that frame when `v` is `func`'s own, else
    /// the frames of `v`'s function on its scope chain.
    fn var_frames(&self, st: &Heap, func: IrFuncId, frame: AllocSite, v: VarId) -> Vec<AllocSite> {
        if v.func == func {
            return vec![frame];
        }
        read_slot(st, frame, slots::CHAIN)
            .objs
            .iter()
            .copied()
            .filter(|s| self.sites.is_frame_of(*s, v.func))
            .collect()
    }

    /// Evaluates an operand, recording reads.
    fn eval(
        &mut self,
        stmt: StmtId,
        func: IrFuncId,
        frame: AllocSite,
        st: &Heap,
        op: &Operand,
    ) -> AValue {
        match op {
            Operand::Num(n) => AValue::num(*n),
            Operand::Str(s) => AValue::str(Pre::exact(s)),
            Operand::Bool(b) => AValue::bool(*b),
            Operand::Null => AValue::null(),
            Operand::Undefined => AValue::undef(),
            Operand::This => self.read(stmt, st, [frame], Field::Slot(slots::THIS), BY_RULE),
            Operand::Place(Place::Global(name)) => {
                let field = Field::Prop(Pre::exact(name));
                self.read(stmt, st, [self.env.global], field, BY_RULE)
            }
            Operand::Place(Place::Var(v)) => {
                let frames = self.var_frames(st, func, frame, *v);
                if frames.is_empty() {
                    return AValue::any();
                }
                let field = Field::Prop(self.var_key(v.index));
                self.read(stmt, st, frames, field, BY_RULE)
            }
        }
    }

    /// Writes a variable/global place, recording the write; `at_most`
    /// caps its strength (see [`Machine::read_each`]).
    #[allow(clippy::too_many_arguments)]
    fn write_place(
        &mut self,
        stmt: StmtId,
        func: IrFuncId,
        frame: AllocSite,
        st: &mut Heap,
        dst: &Place,
        value: &AValue,
        at_most: Strength,
    ) {
        match dst {
            Place::Global(name) => {
                let field = Field::Prop(Pre::exact(name));
                self.write(stmt, st, [self.env.global], field, at_most, value);
            }
            Place::Var(v) => {
                let frames = self.var_frames(st, func, frame, *v);
                let field = Field::Prop(self.var_key(v.index));
                self.write(stmt, st, frames, field, at_most, value);
            }
        }
    }

    /// Flows `state` to the successors of `stmt` whose edges satisfy
    /// `keep`. Takes the state by value: it is cloned for all successors
    /// but the last, which receives it by move (the common single-successor
    /// case costs zero clones).
    fn flow(&mut self, stmt: StmtId, ctx: CtxId, state: Heap, keep: impl Fn(EdgeKind) -> bool) {
        let lowered = self.lowered;
        let mut iter = lowered
            .cfg
            .succs(stmt)
            .iter()
            .filter(|(_, k)| keep(*k))
            .map(|(s, _)| *s)
            .peekable();
        while let Some(succ) = iter.next() {
            if iter.peek().is_some() {
                self.push_state(succ, ctx, state.clone());
            } else {
                self.push_state(succ, ctx, state);
                return;
            }
        }
    }

    #[allow(clippy::too_many_lines)]
    fn step(&mut self, n: u32) {
        let node = &self.nodes[n as usize];
        let (stmt_id, ctx) = (node.stmt, node.ctx);
        self.reachable.insert(stmt_id);
        let mut st = node.state.clone().expect("a queued node has a state");
        // Copy out the `&'a Lowered` so borrowing the statement does not
        // freeze `self` (the old code cloned the whole statement instead).
        let lowered = self.lowered;
        let stmt = lowered.program.stmt(stmt_id);
        let func = stmt.func;
        let frame = match node.frame {
            Some(frame) => frame,
            None => {
                let frame = self.sites.intern(SiteKey::Frame(func, ctx));
                self.nodes[n as usize].frame = Some(frame);
                frame
            }
        };

        match &stmt.kind {
            IrStmtKind::Enter | IrStmtKind::Nop(_) | IrStmtKind::CallResult { .. } => {
                // CallResult's reads/writes are recorded by handle_exit on
                // the caller's behalf; here it just passes state through.
                self.flow(stmt_id, ctx, st, |k| k != EdgeKind::Uncaught);
            }
            IrStmtKind::Exit => {
                self.handle_exit(n, &st);
            }
            IrStmtKind::Copy { dst, src } => {
                let v = self.eval(stmt_id, func, frame, &st, src);
                self.write_place(stmt_id, func, frame, &mut st, dst, &v, BY_RULE);
                self.flow(stmt_id, ctx, st, |k| k != EdgeKind::Uncaught);
            }
            IrStmtKind::UnOp { dst, op, src } => {
                let v = self.eval(stmt_id, func, frame, &st, src);
                let out = abstract_unop(*op, &v);
                self.write_place(stmt_id, func, frame, &mut st, dst, &out, BY_RULE);
                self.flow(stmt_id, ctx, st, |k| k != EdgeKind::Uncaught);
            }
            IrStmtKind::Typeof { dst, src } => {
                let v = self.eval(stmt_id, func, frame, &st, src);
                let out = abstract_typeof(&v, &st);
                self.write_place(stmt_id, func, frame, &mut st, dst, &out, BY_RULE);
                self.flow(stmt_id, ctx, st, |k| k != EdgeKind::Uncaught);
            }
            IrStmtKind::BinOp {
                dst,
                op,
                left,
                right,
            } => {
                let l = self.eval(stmt_id, func, frame, &st, left);
                let r = self.eval(stmt_id, func, frame, &st, right);
                let mut out = abstract_binop(*op, &l, &r);
                out.strs = self.degrade(out.strs);
                self.write_place(stmt_id, func, frame, &mut st, dst, &out, BY_RULE);
                self.flow(stmt_id, ctx, st, |k| k != EdgeKind::Uncaught);
            }
            IrStmtKind::NewObject { dst } | IrStmtKind::NewArray { dst } => {
                let kind = if matches!(stmt.kind, IrStmtKind::NewArray { .. }) {
                    ObjKind::Array
                } else {
                    ObjKind::Plain
                };
                let site = self.alloc_fresh(&mut st, SiteKey::Stmt(stmt_id, ctx), kind);
                let obj = AValue::obj(site);
                self.write_place(stmt_id, func, frame, &mut st, dst, &obj, BY_RULE);
                self.flow(stmt_id, ctx, st, |k| k != EdgeKind::Uncaught);
            }
            IrStmtKind::NewRegex { dst, .. } => {
                let site = self.alloc_fresh(&mut st, SiteKey::Stmt(stmt_id, ctx), ObjKind::Regex);
                let obj = AValue::obj(site);
                self.write_place(stmt_id, func, frame, &mut st, dst, &obj, BY_RULE);
                self.flow(stmt_id, ctx, st, |k| k != EdgeKind::Uncaught);
            }
            IrStmtKind::Lambda { dst, func: lam } => {
                let site = self.alloc_fresh(
                    &mut st,
                    SiteKey::Stmt(stmt_id, ctx),
                    ObjKind::Function(FuncIndex(lam.0)),
                );
                let chain = read_slot(&st, frame, slots::CHAIN).join(&AValue::obj(frame));
                write_slot(&mut st, site, slots::SCOPE, chain);
                let obj = AValue::obj(site);
                self.write_place(stmt_id, func, frame, &mut st, dst, &obj, BY_RULE);
                self.flow(stmt_id, ctx, st, |k| k != EdgeKind::Uncaught);
            }
            IrStmtKind::LoadProp { dst, obj, prop } => {
                let ov = self.eval(stmt_id, func, frame, &st, obj);
                let pv = self
                    .eval(stmt_id, func, frame, &st, prop)
                    .to_abstract_string();
                if ov.may_throw_on_access() {
                    self.implicit_throw(stmt_id, ctx, &st);
                }
                let out = self.load_prop(stmt_id, &st, &ov, &pv);
                self.write_place(stmt_id, func, frame, &mut st, dst, &out, BY_RULE);
                self.flow(stmt_id, ctx, st, |k| k != EdgeKind::Uncaught);
            }
            IrStmtKind::StoreProp { obj, prop, value } => {
                let ov = self.eval(stmt_id, func, frame, &st, obj);
                let pv = self
                    .eval(stmt_id, func, frame, &st, prop)
                    .to_abstract_string();
                let vv = self.eval(stmt_id, func, frame, &st, value);
                if ov.may_throw_on_access() {
                    self.implicit_throw(stmt_id, ctx, &st);
                }
                let sites = ov.objs.iter().copied();
                self.write(stmt_id, &mut st, sites, Field::Prop(pv), BY_RULE, &vv);
                self.flow(stmt_id, ctx, st, |k| k != EdgeKind::Uncaught);
            }
            IrStmtKind::DeleteProp { obj, prop } => {
                let ov = self.eval(stmt_id, func, frame, &st, obj);
                let pv = self
                    .eval(stmt_id, func, frame, &st, prop)
                    .to_abstract_string();
                if ov.may_throw_on_access() {
                    self.implicit_throw(stmt_id, ctx, &st);
                }
                let sites = ov.objs.iter().copied();
                self.write_each(stmt_id, &mut st, sites, Field::Prop(pv), BY_RULE, |o, _| {
                    o.delete_prop(&pv);
                });
                self.flow(stmt_id, ctx, st, |k| k != EdgeKind::Uncaught);
            }
            IrStmtKind::Branch { cond } => {
                let v = self.eval(stmt_id, func, frame, &st, cond);
                let t = v.truthiness();
                let may_true = t.may_be_true() || t == BoolDom::Bot;
                let may_false = t.may_be_false() || t == BoolDom::Bot;
                self.flow(stmt_id, ctx, st, |k| match k {
                    EdgeKind::BranchTrue => may_true,
                    EdgeKind::BranchFalse => may_false,
                    EdgeKind::Uncaught => false,
                    _ => true,
                });
            }
            IrStmtKind::Havoc { dst } => {
                let any = AValue::any_bool();
                self.write_place(stmt_id, func, frame, &mut st, dst, &any, BY_RULE);
                self.flow(stmt_id, ctx, st, |k| k != EdgeKind::Uncaught);
            }
            IrStmtKind::Return { value } => {
                let v = self.eval(stmt_id, func, frame, &st, value);
                // Flow-sensitive strong update: states from different
                // return statements are joined at the function exit anyway.
                let field = Field::Slot(slots::RET);
                self.write(stmt_id, &mut st, [frame], field, BY_RULE, &v);
                self.flow(stmt_id, ctx, st, |k| k == EdgeKind::Return);
            }
            IrStmtKind::Throw { value } => {
                let v = self.eval(stmt_id, func, frame, &st, value);
                let field = Field::Slot(slots::EXC);
                self.write(stmt_id, &mut st, [frame], field, BY_RULE, &v);
                self.flow(stmt_id, ctx, st, |k| k == EdgeKind::ThrowExplicit);
            }
            IrStmtKind::CatchBind { dst } => {
                let field = Field::Slot(slots::EXC);
                let mut v = self.read(stmt_id, &st, [frame], field, BY_RULE);
                if v.is_bottom() {
                    // Implicit exceptions carry no modeled value.
                    v = AValue::any();
                }
                self.write_place(stmt_id, func, frame, &mut st, dst, &v, BY_RULE);
                self.flow(stmt_id, ctx, st, |k| k != EdgeKind::Uncaught);
            }
            IrStmtKind::ForInNext { dst, obj } => {
                let ov = self.eval(stmt_id, func, frame, &st, obj);
                // Enumerating keys observes the object's structure: a
                // read under the unknown name, so a weak one.
                let mut keys = Pre::Bot;
                let sites = ov.objs.iter().copied();
                let field = Field::Prop(Pre::any());
                self.read_each(stmt_id, &st, sites, field, BY_RULE, |o| {
                    for k in o.props.keys() {
                        keys = keys.join(&Pre::Exact(*k));
                    }
                    if !o.unknown_props.is_bottom() {
                        keys = Pre::any();
                    }
                });
                let v = if keys.is_bottom() {
                    AValue::any_str()
                } else {
                    AValue::str(keys)
                };
                self.write_place(stmt_id, func, frame, &mut st, dst, &v, BY_RULE);
                self.flow(stmt_id, ctx, st, |k| k != EdgeKind::Uncaught);
            }
            IrStmtKind::Call {
                dst,
                callee,
                this,
                args,
                is_new,
            } => {
                self.handle_call(
                    stmt_id, ctx, func, frame, &mut st, dst, callee, this, args, *is_new,
                );
            }
            IrStmtKind::EventDispatch => {
                // Weak: the loop runs any one of the registered handlers.
                let registry = [self.env.event_registry];
                let field = Field::Slot(slots::HANDLERS);
                let handlers = self.read(stmt_id, &st, registry, field, Strength::Weak);
                let ev = AValue::obj(self.env.event_object);
                self.dispatch_closures(
                    stmt_id,
                    ctx,
                    func,
                    frame,
                    &mut st,
                    None,
                    &handlers,
                    &None,
                    &[ev],
                    false,
                );
                self.flow(stmt_id, ctx, st, |k| k != EdgeKind::Uncaught);
            }
        }
    }

    /// Property load on an abstract value, including string methods and
    /// host-object fallbacks.
    fn load_prop(&mut self, stmt: StmtId, st: &Heap, ov: &AValue, pv: &Pre) -> AValue {
        // The array/object helper a missing property falls back to.
        let method = match pv {
            Pre::Exact(name) => {
                natives::object_method(name).and_then(|m| self.sites.get(&SiteKey::Host(m)))
            }
            _ => None,
        };
        let mut out = AValue::bottom();
        let sites = ov.objs.iter().copied();
        self.read_each(stmt, st, sites, Field::Prop(*pv), BY_RULE, |o| {
            let mut v = o.read_prop(pv);
            if let Pre::Exact(name) = pv {
                if !o.props.contains_key(name) {
                    if name == "length" && o.kind == ObjKind::Array {
                        v = v.join(&AValue::any_num());
                    } else if let Some(ns) = method {
                        v = v.join(&AValue::obj(ns));
                    }
                }
            }
            out = out.join(&v);
        });
        // Primitive string receivers: length + string methods.
        if ov.may_be_string() {
            match pv {
                Pre::Exact(name) if name == "length" => {
                    out = out.join(&AValue::any_num());
                }
                Pre::Exact(name) => match natives::string_method(name) {
                    Some(m) => {
                        if let Some(ns) = self.sites.get(&SiteKey::Host(m)) {
                            out = out.join(&AValue::obj(ns));
                        }
                    }
                    None => out = out.join(&AValue::undef()),
                },
                _ => out = out.join(&AValue::any()),
            }
        }
        // Number/bool receivers: treat property reads as undefined-ish.
        if ov.nums != NumDom::Bot || ov.bools != BoolDom::Bot {
            out = out.join(&AValue::undef());
        }
        out
    }

    /// A `Call`: evaluates the callee, receiver and arguments, then
    /// dispatches to every closure the callee may be.
    #[allow(clippy::too_many_arguments)]
    fn handle_call(
        &mut self,
        stmt_id: StmtId,
        ctx: CtxId,
        func: IrFuncId,
        frame: AllocSite,
        st: &mut Heap,
        dst: &'a Place,
        callee: &Operand,
        this: &Option<Operand>,
        args: &[Operand],
        is_new: bool,
    ) {
        let cv = self.eval(stmt_id, func, frame, st, callee);
        let this_v = this
            .as_ref()
            .map(|t| self.eval(stmt_id, func, frame, st, t));
        let arg_vs: Vec<AValue> = args
            .iter()
            .map(|a| self.eval(stmt_id, func, frame, st, a))
            .collect();
        if cv.may_be_primitive() {
            self.implicit_throw(stmt_id, ctx, st);
        }
        self.dispatch_closures(
            stmt_id,
            ctx,
            func,
            frame,
            st,
            Some(dst),
            &cv,
            &this_v,
            &arg_vs,
            is_new,
        );
    }

    /// Invokes every callable object in `cv`: natives immediately, addon
    /// functions via worklist + return links. Flows to successors when an
    /// immediate result exists.
    #[allow(clippy::too_many_arguments)]
    fn dispatch_closures(
        &mut self,
        stmt_id: StmtId,
        ctx: CtxId,
        func: IrFuncId,
        frame: AllocSite,
        st: &mut Heap,
        dst: Option<&'a Place>,
        cv: &AValue,
        this_v: &Option<AValue>,
        arg_vs: &[AValue],
        is_new: bool,
    ) {
        let mut native_ids: Vec<NativeId> = Vec::new();
        let mut addon: Vec<(IrFuncId, AllocSite)> = Vec::new();
        let mut has_noncallable_obj = false;
        for site in &cv.objs {
            match st.get(*site).map(|o| o.kind.clone()) {
                Some(ObjKind::Native(id)) => native_ids.push(id),
                Some(ObjKind::Function(fi)) => addon.push((IrFuncId(fi.0), *site)),
                Some(_) => has_noncallable_obj = true,
                None => {}
            }
        }
        if has_noncallable_obj {
            self.implicit_throw(stmt_id, ctx, st);
        }

        let unknown_callee = cv.objs.is_empty();
        let mut immediate: Option<AValue> = None;
        let mut pending_callbacks: Vec<(AValue, Option<AValue>, Vec<AValue>)> = Vec::new();

        for id in native_ids {
            self.native_calls.insert(stmt_id);
            let name = self.env.spec(id).name;
            if self.config.security.interesting_apis.contains(name) {
                self.api_uses.insert((stmt_id, name.to_owned()));
            }
            let r = self.apply_native(id, stmt_id, ctx, st, this_v, arg_vs, &mut pending_callbacks);
            immediate = Some(match immediate {
                Some(v) => v.join(&r),
                None => r,
            });
        }
        if unknown_callee {
            // Robustness for missing stubs: continue with an unknown value.
            immediate = Some(match immediate {
                Some(v) => v.join(&AValue::any()),
                None => AValue::any(),
            });
        }

        // Write the immediate (native / unknown-callee) result BEFORE the
        // addon calls are spawned, so callee states -- and therefore the
        // state flowing back through handle_exit -- already contain it and
        // the later weak join does not seed a spurious `undefined`.
        if let Some(ret) = &immediate {
            if let Some(d) = dst {
                self.write_place(stmt_id, func, frame, st, d, ret, BY_RULE);
            }
        }

        // Addon calls.
        for (fid, closure) in addon {
            let targets = self.call_targets.entry(stmt_id);
            if let Err(i) = targets.binary_search(&fid) {
                targets.insert(i, fid);
            }
            let caller = (func, frame);
            self.do_addon_call(
                stmt_id, ctx, caller, st, fid, closure, this_v, arg_vs, dst, is_new,
            );
        }

        // Callback invocations requested by natives (forEach, geolocation).
        for (cb, cb_this, cb_args) in pending_callbacks {
            self.dispatch_closures(
                stmt_id, ctx, func, frame, st, None, &cb, &cb_this, &cb_args, false,
            );
        }

        if immediate.is_some() {
            self.flow(stmt_id, ctx, st.clone(), |k| k != EdgeKind::Uncaught);
        }
        // Addon-only calls: successors receive state when the callee exits.
    }

    /// Calls addon function `fid` from `call_stmt`, made by the
    /// activation `caller` (its function and frame) under `ctx`.
    #[allow(clippy::too_many_arguments)]
    fn do_addon_call(
        &mut self,
        call_stmt: StmtId,
        ctx: CtxId,
        caller: (IrFuncId, AllocSite),
        st: &Heap,
        fid: IrFuncId,
        closure: AllocSite,
        this_v: &Option<AValue>,
        arg_vs: &[AValue],
        dst: Option<&'a Place>,
        is_new: bool,
    ) {
        let callee = self.lowered.program.func(fid);
        let new_ctx = self.ctxs.push(ctx, call_stmt, self.config.context_depth);
        let mut callee_st = st.clone();
        let fsite = self.alloc_fresh(
            &mut callee_st,
            SiteKey::Frame(fid, new_ctx),
            ObjKind::Host("frame"),
        );

        // Parameters.
        for i in 0..callee.param_count {
            let v = arg_vs
                .get(i as usize)
                .cloned()
                .unwrap_or_else(AValue::undef);
            let field = Field::Prop(self.var_key(i));
            self.write(call_stmt, &mut callee_st, [fsite], field, BY_RULE, &v);
        }
        // Scope chain from the closure.
        let chain = read_slot(&callee_st, closure, slots::SCOPE);
        write_slot(&mut callee_st, fsite, slots::CHAIN, chain);
        // Self-binding for named functions (the frame is fresh, so the
        // update is strong).
        if !callee.name.is_empty() {
            if let Some(idx) = callee.lookup_var(&callee.name) {
                let is_param = callee.vars[idx as usize].is_param;
                if !is_param {
                    let key = self.var_key(idx);
                    if let Some(o) = callee_st.get_mut(fsite) {
                        o.write_prop(&key, &AValue::obj(closure), true);
                    }
                }
            }
        }
        // `this` binding.
        let new_site = if is_new {
            Some(self.alloc_fresh(
                &mut callee_st,
                SiteKey::NativeAlloc(call_stmt, new_ctx, "new"),
                ObjKind::Plain,
            ))
        } else {
            None
        };
        let tv = match (new_site, this_v) {
            (Some(s), _) => AValue::obj(s),
            (None, Some(t)) => t.clone(),
            (None, None) => AValue::obj(self.env.global),
        };
        let field = Field::Slot(slots::THIS);
        self.write(call_stmt, &mut callee_st, [fsite], field, BY_RULE, &tv);
        self.push_state(callee.entry, new_ctx, callee_st);

        // Locate the CallResult node right after the call (absent for
        // EventDispatch).
        let result_node = self
            .lowered
            .cfg
            .succs(call_stmt)
            .iter()
            .map(|(t, _)| *t)
            .find(|t| {
                matches!(
                    self.lowered.program.stmt(*t).kind,
                    IrStmtKind::CallResult { .. }
                )
            });
        let link = RetLink {
            call: call_stmt,
            caller_ctx: ctx,
            caller_func: caller.0,
            caller_frame: caller.1,
            callee_frame: fsite,
            dst,
            new_site,
            result_node,
        };
        let exit = self.node(callee.exit, new_ctx);
        let links = &mut self.nodes[exit as usize].ret_links;
        if let Err(i) = links.binary_search(&link) {
            links.insert(i, link);
            // A new caller: if the callee exit already has state, replay it.
            self.enqueue(exit);
        }
    }

    /// The callee's exit node `n` returns `st` along each of its return
    /// links, in their order.
    fn handle_exit(&mut self, n: u32, st: &Heap) {
        // Nothing adds a link while the exit transfers, so the links are
        // walked in place, lent out of the node for the loop.
        let links = std::mem::take(&mut self.nodes[n as usize].ret_links);
        // If the exit is reachable by falling off the end (any non-Return,
        // non-Uncaught incoming edge), the function may return `undefined`.
        let may_fall_off = self
            .lowered
            .cfg
            .preds(self.nodes[n as usize].stmt)
            .iter()
            .any(|(_, k)| !matches!(k, EdgeKind::Return | EdgeKind::Uncaught));
        for link in &links {
            let mut out = st.clone();
            // The return-value transfer belongs to the CallResult node so
            // that argument flows (into the call) and result flows (out of
            // it) stay separate in the PDG.
            let attr = link.result_node.unwrap_or(link.call);
            let callee_frame = [link.callee_frame];
            let field = Field::Slot(slots::RET);
            let mut retv = self.read(attr, &out, callee_frame, field, BY_RULE);
            if may_fall_off || retv.is_bottom() {
                retv = retv.join(&AValue::undef());
            }
            if let Some(ns) = link.new_site {
                retv = retv
                    .without_objects()
                    .join(&AValue::obj(ns))
                    .join(&AValue::objects(retv.objs.iter().copied()));
            }
            if let Some(d) = link.dst {
                // Mixed native+addon callee sets: the native result was
                // already written at the Call node; the CallResult write
                // must be weak (a join) so the Call's definition stays
                // alive in the DDG and the native value is preserved.
                let at_most = if self.native_calls.contains(&link.call) {
                    Strength::Weak
                } else {
                    BY_RULE
                };
                let (caller, frame) = (link.caller_func, link.caller_frame);
                self.write_place(attr, caller, frame, &mut out, d, &retv, at_most);
            }
            self.flow(link.call, link.caller_ctx, out, |k| k != EdgeKind::Uncaught);
        }
        self.nodes[n as usize].ret_links = links;
    }

    /// Applies a native's declarative semantics.
    #[allow(clippy::too_many_arguments)]
    fn apply_native(
        &mut self,
        id: NativeId,
        stmt: StmtId,
        ctx: CtxId,
        st: &mut Heap,
        this_v: &Option<AValue>,
        args: &[AValue],
        callbacks: &mut Vec<(AValue, Option<AValue>, Vec<AValue>)>,
    ) -> AValue {
        let behavior = self.env.spec(id).behavior.clone();
        let arg = |i: usize| args.get(i).cloned().unwrap_or_else(AValue::undef);
        match behavior {
            NativeBehavior::ReturnAny => AValue::any(),
            NativeBehavior::ReturnHost(name) => match self.sites.get(&SiteKey::Host(name)) {
                Some(site) => AValue::obj(site),
                None => AValue::any(),
            },
            NativeBehavior::ReturnUndefined => AValue::undef(),
            NativeBehavior::ReturnAnyString => AValue::any_str(),
            NativeBehavior::ReturnAnyNum => AValue::any_num(),
            NativeBehavior::ReturnAnyBool => AValue::any_bool(),
            NativeBehavior::CoerceString => AValue::str(self.degrade(arg(0).to_abstract_string())),
            NativeBehavior::XhrConstructor => {
                let site = self.alloc_xhr(stmt, ctx, st);
                AValue::obj(site)
            }
            NativeBehavior::XhrWrapper => {
                let site = self.alloc_xhr(stmt, ctx, st);
                let url = AValue::str(self.degrade(arg(0).to_abstract_string()));
                self.write(stmt, st, [site], Field::Slot(slots::URL), BY_RULE, &url);
                AValue::obj(site)
            }
            NativeBehavior::XhrOpen => {
                let url = AValue::str(self.degrade(arg(1).to_abstract_string()));
                if let Some(t) = this_v {
                    let sites = t.objs.iter().copied();
                    self.write(stmt, st, sites, Field::Slot(slots::URL), BY_RULE, &url);
                }
                AValue::undef()
            }
            NativeBehavior::XhrSend => {
                let mut domain = Pre::Bot;
                let mut handlers = AValue::bottom();
                if let Some(t) = this_v {
                    let sites = t.objs.iter().copied();
                    let field = Field::Slot(slots::URL);
                    self.read_each(stmt, st, sites, field, BY_RULE, |o| {
                        domain = domain.join(&o.internal_slot(slots::URL).strs);
                        // Response callbacks become event-loop handlers.
                        for cb in ["onreadystatechange", "onload", "onerror"] {
                            handlers =
                                handlers.join(&o.read_prop(&Pre::exact(cb)).without_primitives());
                        }
                    });
                }
                if !handlers.objs.is_empty() {
                    let registry = self.env.event_registry;
                    let old = read_slot(st, registry, slots::HANDLERS);
                    write_slot(st, registry, slots::HANDLERS, old.join(&handlers));
                }
                self.record_sink(stmt, SinkKind::Send, domain);
                AValue::undef()
            }
            NativeBehavior::AddEventListener | NativeBehavior::SetTimeout => {
                let handler_idx = if behavior == NativeBehavior::AddEventListener {
                    1
                } else {
                    0
                };
                let h = arg(handler_idx);
                if behavior == NativeBehavior::SetTimeout && h.may_be_string() {
                    // setTimeout with a code string = dynamic code.
                    self.api_uses.insert((stmt, "setTimeout$string".to_owned()));
                    self.record_sink(stmt, SinkKind::Eval, Pre::Bot);
                }
                // Weak: a registration adds to the handlers, never
                // replaces them.
                let registry = [self.env.event_registry];
                let field = Field::Slot(slots::HANDLERS);
                self.write(
                    stmt,
                    st,
                    registry,
                    field,
                    Strength::Weak,
                    &h.without_primitives(),
                );
                AValue::any_num()
            }
            NativeBehavior::RemoveEventListener => AValue::undef(),
            NativeBehavior::Eval => {
                self.record_sink(stmt, SinkKind::Eval, Pre::Bot);
                AValue::any()
            }
            NativeBehavior::ScriptLoader => {
                let domain = arg(0).to_abstract_string();
                self.record_sink(stmt, SinkKind::ScriptLoader, domain);
                AValue::any()
            }
            NativeBehavior::Str(op) => {
                let mut v = self.apply_str_op(op, stmt, ctx, st, this_v, args);
                v.strs = self.degrade(v.strs);
                v
            }
            // Elements live under the unknown name, so these accesses are
            // weak.
            NativeBehavior::ArrayPush => {
                if let Some(t) = this_v {
                    let sites = t.objs.iter().copied();
                    let field = Field::Prop(Pre::any());
                    self.write(stmt, st, sites, field, BY_RULE, &arg(0));
                }
                AValue::any_num()
            }
            NativeBehavior::ArrayJoin => {
                let v = match this_v {
                    Some(t) => {
                        let sites = t.objs.iter().copied();
                        self.read(stmt, st, sites, Field::Prop(Pre::any()), BY_RULE)
                    }
                    None => AValue::bottom(),
                };
                AValue::str(v.to_abstract_string().unknown_derived())
            }
            NativeBehavior::InvokeCallback {
                arg_index,
                callback_args,
            } => {
                let cb = arg(arg_index);
                let cb_args: Vec<AValue> = callback_args
                    .iter()
                    .map(|name| match self.sites.get(&SiteKey::Host(name)) {
                        Some(s) => AValue::obj(s),
                        None => AValue::any(),
                    })
                    .collect();
                callbacks.push((cb.without_primitives(), None, cb_args));
                AValue::undef()
            }
            // Weak: the browser may change a source between reads.
            NativeBehavior::ReadSource(host, prop) => match self.sites.get(&SiteKey::Host(host)) {
                Some(site) => {
                    let field = Field::Prop(Pre::exact(prop));
                    self.read(stmt, st, [site], field, Strength::Weak)
                }
                None => AValue::any(),
            },
            NativeBehavior::PrefWrite => {
                self.record_sink(stmt, SinkKind::PrefWrite, Pre::Bot);
                AValue::undef()
            }
            NativeBehavior::PrefRead => {
                let mut v = AValue::any_str();
                v.nums = NumDom::Top;
                v.bools = BoolDom::Top;
                v
            }
        }
    }

    fn apply_str_op(
        &mut self,
        op: StrOp,
        stmt: StmtId,
        ctx: CtxId,
        st: &mut Heap,
        this_v: &Option<AValue>,
        args: &[AValue],
    ) -> AValue {
        let recv = this_v
            .as_ref()
            .map(AValue::to_abstract_string)
            .unwrap_or(Pre::any());
        let arg = |i: usize| args.get(i).cloned().unwrap_or_else(AValue::undef);
        match op {
            StrOp::ToLowerCase => AValue::str(recv.to_lowercase()),
            StrOp::ToUpperCase => AValue::str(recv.unknown_derived()),
            StrOp::IndexOf => AValue::any_num(),
            StrOp::Substring => {
                let from = arg(0).nums.as_const();
                let to = arg(1).nums.as_const();
                match (from, to) {
                    (Some(f), Some(t)) if f == 0.0 && t >= 0.0 => {
                        AValue::str(recv.leading_slice(t as usize))
                    }
                    (Some(0.0), None) => AValue::str(recv),
                    _ => AValue::str(recv.unknown_derived()),
                }
            }
            StrOp::CharAt => AValue::any_str(),
            StrOp::Replace | StrOp::Match => AValue::str(recv.unknown_derived()),
            StrOp::Split => {
                let site =
                    self.alloc_fresh(st, SiteKey::NativeAlloc(stmt, ctx, "split"), ObjKind::Array);
                if let Some(o) = st.get_mut(site) {
                    o.write_prop(&Pre::any(), &AValue::any_str(), false);
                    o.write_prop(&Pre::exact("length"), &AValue::any_num(), false);
                }
                AValue::obj(site)
            }
            StrOp::Concat => {
                let mut out = recv;
                for a in args {
                    out = out.concat(&a.to_abstract_string());
                }
                AValue::str(out)
            }
            StrOp::Trim => match recv {
                Pre::Exact(s) => AValue::str(Pre::exact(s.trim())),
                other => AValue::str(other.unknown_derived()),
            },
            StrOp::ToString => AValue::str(recv),
        }
    }

    fn alloc_xhr(&mut self, stmt: StmtId, ctx: CtxId, st: &mut Heap) -> AllocSite {
        let site = self.alloc_fresh(
            st,
            SiteKey::NativeAlloc(stmt, ctx, "xhr"),
            ObjKind::Host("xhr"),
        );
        let methods = [
            ("open", "xhr.open"),
            ("send", "xhr.send"),
            ("setRequestHeader", "xhr.setRequestHeader"),
            ("abort", "xhr.abort"),
            ("overrideMimeType", "xhr.overrideMimeType"),
        ];
        for (prop, native) in methods {
            if let Some(ns) = self.sites.get(&SiteKey::Host(native)) {
                if let Some(o) = st.get_mut(site) {
                    o.write_prop(&Pre::exact(prop), &AValue::obj(ns), true);
                }
            }
        }
        if let Some(o) = st.get_mut(site) {
            o.write_prop(&Pre::exact("responseText"), &AValue::any_str(), true);
            o.write_prop(&Pre::exact("responseXML"), &AValue::any(), true);
            o.write_prop(&Pre::exact("status"), &AValue::any_num(), true);
            o.write_prop(&Pre::exact("readyState"), &AValue::any_num(), true);
        }
        site
    }

    /// Degrades a string under the configured domain: with the
    /// constant-only ablation, proper prefixes become unknown.
    fn degrade(&self, p: Pre) -> Pre {
        match (self.config.string_domain, &p) {
            (StringDomain::ConstantOnly, Pre::Prefix(s)) if !s.is_empty() => Pre::any(),
            _ => p,
        }
    }

    fn record_sink(&mut self, stmt: StmtId, kind: SinkKind, domain: Pre) {
        let slot = self.sink_domains.entry((stmt, kind)).or_insert(Pre::Bot);
        *slot = slot.join(&domain);
    }
}

/// Projects the context-qualified transition graph's cycles down to
/// statements: a statement is cyclic if any of its nodes lies in a
/// non-trivial SCC (or has a self loop). Tarjan's algorithm, iterative,
/// over the node store's successor lists.
fn cyclic_statements(nodes: &[Node]) -> StmtSet {
    let n = nodes.len();
    let mut index = vec![u32::MAX; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut next = 0u32;
    let mut out = StmtSet::new();
    // (node, position in its successor list)
    let mut call: Vec<(usize, usize)> = Vec::new();
    for root in 0..n {
        if index[root] != u32::MAX {
            continue;
        }
        call.push((root, 0));
        while let Some(&mut (v, ref mut pos)) = call.last_mut() {
            if *pos == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if let Some(&w) = nodes[v].succs.get(*pos) {
                *pos += 1;
                let w = w as usize;
                if index[w] == u32::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            call.pop();
            if let Some(&(p, _)) = call.last() {
                low[p] = low[p].min(low[v]);
            }
            if low[v] == index[v] {
                let top = stack
                    .iter()
                    .rposition(|&w| w == v)
                    .expect("v is on the stack");
                let cyclic =
                    stack.len() - top > 1 || nodes[v].succs.binary_search(&(v as u32)).is_ok();
                for w in stack.drain(top..) {
                    on_stack[w] = false;
                    if cyclic {
                        out.insert(nodes[w].stmt);
                    }
                }
            }
        }
    }
    out
}

/// Abstract unary operators.
fn abstract_unop(op: UnaryOp, v: &AValue) -> AValue {
    match op {
        UnaryOp::Not => {
            let mut out = AValue::bottom();
            out.bools = v.truthiness().not();
            if out.bools == BoolDom::Bot {
                out.bools = BoolDom::Top;
            }
            out
        }
        UnaryOp::Neg => AValue {
            nums: to_num(v).unop(|n| -n),
            ..AValue::bottom()
        },
        UnaryOp::Pos => AValue {
            nums: to_num(v),
            ..AValue::bottom()
        },
        UnaryOp::BitNot => AValue {
            nums: to_num(v).unop(|n| !(n as i64 as i32) as f64),
            ..AValue::bottom()
        },
        UnaryOp::Void => AValue::undef(),
        UnaryOp::Typeof | UnaryOp::Delete => AValue::any(), // lowered separately
    }
}

/// Coerces to the numeric component (conservative).
fn to_num(v: &AValue) -> NumDom {
    let mut n = v.nums;
    if v.undef || v.null || v.bools != BoolDom::Bot || !v.strs.is_bottom() || !v.objs.is_empty() {
        // Coercions of non-number parts produce some number (or NaN).
        n = n.join(&NumDom::Top);
    }
    if n == NumDom::Bot {
        NumDom::Top
    } else {
        n
    }
}

/// Abstract `typeof`.
fn abstract_typeof(v: &AValue, st: &Heap) -> AValue {
    let mut tags: BTreeSet<&'static str> = BTreeSet::new();
    if v.undef {
        tags.insert("undefined");
    }
    if v.null {
        tags.insert("object");
    }
    if v.bools != BoolDom::Bot {
        tags.insert("boolean");
    }
    if v.nums != NumDom::Bot {
        tags.insert("number");
    }
    if !v.strs.is_bottom() {
        tags.insert("string");
    }
    for site in &v.objs {
        match st.get(*site).map(|o| o.kind.is_callable()) {
            Some(true) => {
                tags.insert("function");
            }
            _ => {
                tags.insert("object");
            }
        }
    }
    match tags.len() {
        0 => AValue::str(Pre::exact("undefined")),
        1 => AValue::str(Pre::exact(*tags.iter().next().expect("one tag"))),
        _ => AValue::any_str(),
    }
}

/// Abstract binary operators.
fn abstract_binop(op: BinaryOp, l: &AValue, r: &AValue) -> AValue {
    use BinaryOp::*;
    match op {
        Add => {
            let mut out = AValue::bottom();
            let l_stringy = l.may_be_string() || !l.objs.is_empty();
            let r_stringy = r.may_be_string() || !r.objs.is_empty();
            if l_stringy || r_stringy {
                out.strs = l.to_abstract_string().concat(&r.to_abstract_string());
            }
            let l_numy = l.undef || l.null || l.bools != BoolDom::Bot || l.nums != NumDom::Bot;
            let r_numy = r.undef || r.null || r.bools != BoolDom::Bot || r.nums != NumDom::Bot;
            if (l_numy || l.nums != NumDom::Bot) && (r_numy || r.nums != NumDom::Bot) {
                out.nums = match (l.nums, r.nums) {
                    (NumDom::Const(a), NumDom::Const(b))
                        if !l_stringy
                            && !r_stringy
                            && l.bools == BoolDom::Bot
                            && r.bools == BoolDom::Bot
                            && !l.undef
                            && !r.undef
                            && !l.null
                            && !r.null =>
                    {
                        NumDom::Const(a + b)
                    }
                    _ => NumDom::Top,
                };
            }
            if out == AValue::bottom() {
                // Everything was objects with unknown coercion.
                out.strs = Pre::any();
                out.nums = NumDom::Top;
            }
            out
        }
        Sub | Mul | Div | Mod | Shl | Shr | UShr | BitAnd | BitOr | BitXor => {
            let f = |a: f64, b: f64| match op {
                Sub => a - b,
                Mul => a * b,
                Div => a / b,
                Mod => a % b,
                Shl => ((a as i64 as i32) << ((b as i64 as u32) & 31)) as f64,
                Shr => ((a as i64 as i32) >> ((b as i64 as u32) & 31)) as f64,
                UShr => ((a as i64 as u32) >> ((b as i64 as u32) & 31)) as f64,
                BitAnd => ((a as i64 as i32) & (b as i64 as i32)) as f64,
                BitOr => ((a as i64 as i32) | (b as i64 as i32)) as f64,
                BitXor => ((a as i64 as i32) ^ (b as i64 as i32)) as f64,
                _ => unreachable!(),
            };
            AValue {
                nums: to_num(l).binop(&to_num(r), f),
                ..AValue::bottom()
            }
        }
        Eq | StrictEq | NotEq | StrictNotEq => {
            let negate = matches!(op, NotEq | StrictNotEq);
            let decided: Option<bool> = if !l.strs.is_bottom()
                && !r.strs.is_bottom()
                && !l.undef
                && !l.null
                && l.bools == BoolDom::Bot
                && l.nums == NumDom::Bot
                && l.objs.is_empty()
                && !r.undef
                && !r.null
                && r.bools == BoolDom::Bot
                && r.nums == NumDom::Bot
                && r.objs.is_empty()
            {
                l.strs.compare_eq(&r.strs)
            } else if let (Some(a), Some(b)) = (l.nums.as_const(), r.nums.as_const()) {
                if l.may_be_string()
                    || r.may_be_string()
                    || !l.objs.is_empty()
                    || !r.objs.is_empty()
                    || l.undef
                    || r.undef
                    || l.null
                    || r.null
                    || l.bools != BoolDom::Bot
                    || r.bools != BoolDom::Bot
                {
                    None
                } else {
                    Some(a == b)
                }
            } else {
                None
            };
            AValue {
                bools: BoolDom::of_option(decided.map(|d| d != negate)),
                ..AValue::bottom()
            }
        }
        Lt | Le | Gt | Ge => {
            let decided = match (l.nums.as_const(), r.nums.as_const()) {
                (Some(a), Some(b))
                    if !l.may_be_string()
                        && !r.may_be_string()
                        && l.objs.is_empty()
                        && r.objs.is_empty() =>
                {
                    Some(match op {
                        Lt => a < b,
                        Le => a <= b,
                        Gt => a > b,
                        Ge => a >= b,
                        _ => unreachable!(),
                    })
                }
                _ => None,
            };
            AValue {
                bools: BoolDom::of_option(decided),
                ..AValue::bottom()
            }
        }
        In | Instanceof => AValue::any_bool(),
    }
}

// A small extension used by the machine.
trait ValueExt {
    fn without_primitives(&self) -> AValue;
}

impl ValueExt for AValue {
    fn without_primitives(&self) -> AValue {
        AValue::objects(self.objs.iter().copied())
    }
}
