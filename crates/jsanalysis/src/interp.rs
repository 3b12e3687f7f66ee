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
use crate::rwsets::{Loc, RwSets, Strength};
use crate::store::{slots, SiteKey, SiteTable, State};
use jsdomains::{
    AValue, AllocSite, BoolDom, FuncIndex, Lattice, NativeId, NumDom, ObjKind, Pre, Sym,
};
use jsir::{
    EdgeKind, IrFuncId, IrStmtKind, Lowered, Operand, Place, StmtId,
};
use jsparser::ast::{BinaryOp, UnaryOp};
use sigtrace::{Counter, Counters, Trace, CTX_CLASSES};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap, HashSet, VecDeque};

/// A context-qualified program point in the transition graph. Both halves
/// are dense interned ids, so nodes are `Copy` and hash in O(1).
type CtxNode = (StmtId, CtxId);

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
    /// Read/write sets per statement (merged over contexts).
    pub rw: BTreeMap<StmtId, RwSets>,
    /// Statements that may throw an implicit exception.
    pub may_throw: BTreeSet<StmtId>,
    /// Addon functions each call statement may invoke.
    pub call_targets: BTreeMap<StmtId, BTreeSet<IrFuncId>>,
    /// Natives each call statement may invoke.
    pub native_targets: BTreeMap<StmtId, BTreeSet<NativeId>>,
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
    pub cyclic_stmts: BTreeSet<StmtId>,
    /// Statements reached by the analysis.
    pub reachable: BTreeSet<StmtId>,
    /// The allocation-site interner (for diagnostics).
    pub sites: SiteTable,
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
    /// Native name table, indexed by `NativeId`.
    pub native_names: Vec<&'static str>,
}

impl AnalysisResult {
    /// Statements that read an interesting source location, with the
    /// source kinds they read. Pre-indexes `source_locs` by site so each
    /// read only probes the handful of interesting properties on its own
    /// site instead of scanning the whole table.
    pub fn source_stmts(&self) -> BTreeMap<StmtId, BTreeSet<SourceKind>> {
        let mut by_site: HashMap<AllocSite, Vec<(Sym, &SourceKind)>> = HashMap::new();
        for ((site, prop), kind) in &self.source_locs {
            by_site.entry(*site).or_default().push((*prop, kind));
        }
        let mut out: BTreeMap<StmtId, BTreeSet<SourceKind>> = BTreeMap::new();
        for (stmt, rw) in &self.rw {
            for (loc, _) in rw.reads.iter() {
                let Some(props) = by_site.get(&loc.site) else {
                    continue;
                };
                for (prop, kind) in props {
                    if loc.prop.may_be(prop) {
                        out.entry(*stmt).or_default().insert((*kind).clone());
                    }
                }
            }
        }
        out
    }

    /// The name of a native.
    pub fn native_name(&self, id: NativeId) -> &'static str {
        self.native_names[id.0 as usize]
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
    let mut sites = SiteTable::new();
    let env = natives::setup(&mut sites);
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
        states: HashMap::new(),
        worklist,
        queued: HashSet::new(),
        rw: BTreeMap::new(),
        may_throw: BTreeSet::new(),
        call_targets: BTreeMap::new(),
        native_targets: BTreeMap::new(),
        sink_domains: BTreeMap::new(),
        api_uses: BTreeSet::new(),
        ret_links: HashMap::new(),
        reachable: BTreeSet::new(),
        steps: 0,
        joins: 0,
        site_aliases: BTreeMap::new(),
        current: None,
        transitions: BTreeSet::new(),
        attr: trace
            .attributes_cost()
            .then(|| AttrTally::new(lowered.program.funcs.len())),
    };
    m.seed();
    let status = m.run();
    let native_names = m.env.natives.iter().map(|n| n.name).collect();
    let cyclic_stmts = cyclic_statements(&m.transitions);
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
        rw: m.rw,
        may_throw: m.may_throw,
        call_targets: m.call_targets,
        native_targets: m.native_targets,
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
        sites: m.sites,
        steps: m.steps,
        joins: m.joins,
        heap_cow_clones,
        hit_step_limit: matches!(status, RunStatus::StepLimit),
        budget_exhausted: match status {
            RunStatus::Budget(b) => Some(b),
            _ => None,
        },
        native_names,
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

/// Where a finished callee returns to.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct RetLink {
    call: StmtId,
    caller_ctx: CtxId,
    caller_func: IrFuncId,
    callee_frame: AllocSite,
    dst: Option<Place>,
    new_site: Option<AllocSite>,
    /// The `CallResult` node the return-value transfer is attributed to.
    result_node: Option<StmtId>,
}

/// The pending-node queue. FIFO is the naive baseline; RPO pops the
/// pending node with the smallest reverse-postorder number, so loop
/// bodies stabilize before their exits are visited and far fewer
/// re-propagations are needed to reach the fixpoint.
enum Worklist {
    Fifo(VecDeque<CtxNode>),
    Rpo(BinaryHeap<Reverse<(u32, StmtId, CtxId)>>),
}

impl Worklist {
    fn push(&mut self, key: CtxNode, prio: &[u32]) {
        match self {
            Worklist::Fifo(q) => q.push_back(key),
            Worklist::Rpo(h) => {
                let p = prio.get(key.0 .0 as usize).copied().unwrap_or(u32::MAX);
                h.push(Reverse((p, key.0, key.1)));
            }
        }
    }

    fn pop(&mut self) -> Option<CtxNode> {
        match self {
            Worklist::Fifo(q) => q.pop_front(),
            Worklist::Rpo(h) => h.pop().map(|Reverse((_, s, c))| (s, c)),
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

struct Machine<'a> {
    lowered: &'a Lowered,
    config: &'a AnalysisConfig,
    env: Environment,
    sites: SiteTable,
    /// Context interner: every context-qualified key below holds a
    /// [`CtxId`] instead of a call-string vector.
    ctxs: CtxTable,
    /// Reverse-postorder priority per statement (see [`rpo_priorities`]).
    prio: Vec<u32>,
    /// Cache of `v{i}` frame-variable keys, indexed by slot number.
    var_keys: Vec<Pre>,
    states: HashMap<CtxNode, State>,
    worklist: Worklist,
    queued: HashSet<CtxNode>,
    rw: BTreeMap<StmtId, RwSets>,
    may_throw: BTreeSet<StmtId>,
    call_targets: BTreeMap<StmtId, BTreeSet<IrFuncId>>,
    native_targets: BTreeMap<StmtId, BTreeSet<NativeId>>,
    sink_domains: BTreeMap<(StmtId, SinkKind), Pre>,
    api_uses: BTreeSet<(StmtId, String)>,
    ret_links: HashMap<(IrFuncId, CtxId), BTreeSet<RetLink>>,
    reachable: BTreeSet<StmtId>,
    steps: usize,
    /// Joins into an existing abstract state (see `push_state`).
    joins: usize,
    site_aliases: BTreeMap<AllocSite, AllocSite>,
    /// The node currently being transferred (source of push_state edges).
    current: Option<CtxNode>,
    /// Context-qualified transition edges actually explored; used for
    /// cycle (amplification) detection without the spurious cycles a
    /// context-insensitive supergraph has.
    transitions: BTreeSet<(CtxNode, CtxNode)>,
    /// Cost-attribution tally (`None` unless the caller enabled
    /// attribution; the fixpoint loop then skips the clock reads).
    attr: Option<AttrTally>,
}

impl<'a> Machine<'a> {
    fn seed(&mut self) {
        let top = self.lowered.program.top_level();
        let mut st = self.env.initial_state.clone();
        let frame = self
            .sites
            .intern(SiteKey::Frame(top.id, CtxId::ROOT));
        st.alloc(frame, ObjKind::Host("frame"));
        st.write_slot(frame, slots::THIS, AValue::obj(self.env.global));
        st.write_slot(frame, slots::RET, AValue::undef());
        self.push_state(top.entry, CtxId::ROOT, st);
    }

    fn run(&mut self) -> RunStatus {
        // The clock only starts when a budget can trip on it, keeping the
        // unbudgeted hot path free of timing syscalls.
        let needs_clock = self.config.deadline.is_some() || self.config.step_budget.is_some();
        let start = needs_clock.then(std::time::Instant::now);
        while let Some((stmt, ctx)) = self.worklist.pop() {
            self.queued.remove(&(stmt, ctx));
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
                if self.steps % DEADLINE_CHECK_INTERVAL == 0 {
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
            self.current = Some((stmt, ctx));
            if self.attr.is_some() {
                // Attribution enabled: two clock reads bracket the
                // transfer; the tally is indexed arithmetic, no hashing.
                let func = self.lowered.program.stmt(stmt).func;
                let class = self.ctxs.get(ctx).depth().min(CTX_CLASSES - 1);
                let t0 = std::time::Instant::now();
                self.step(stmt, ctx);
                let ns = t0.elapsed().as_nanos() as u64;
                self.attr.as_mut().expect("checked above").add(func, class, ns);
            } else {
                self.step(stmt, ctx);
            }
            self.current = None;
        }
        RunStatus::Completed
    }

    fn push_state(&mut self, stmt: StmtId, ctx: CtxId, state: State) {
        let key = (stmt, ctx);
        if let Some(cur) = self.current {
            self.transitions.insert((cur, key));
        }
        let changed = match self.states.get_mut(&key) {
            Some(existing) => {
                self.joins += 1;
                existing.join_in_place(&state)
            }
            None => {
                self.states.insert(key, state);
                true
            }
        };
        if changed && self.queued.insert(key) {
            self.worklist.push(key, &self.prio);
        }
    }

    fn enqueue(&mut self, stmt: StmtId, ctx: CtxId) {
        let key = (stmt, ctx);
        if self.states.contains_key(&key) && self.queued.insert(key) {
            self.worklist.push(key, &self.prio);
        }
    }

    fn frame_site(&mut self, func: IrFuncId, ctx: CtxId) -> AllocSite {
        self.sites.intern(SiteKey::Frame(func, ctx))
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
    fn alloc_fresh(&mut self, st: &mut State, key: SiteKey, kind: ObjKind) -> AllocSite {
        let mru = self.sites.intern(key);
        if st.heap.get(mru).is_some() {
            let aged = self.sites.intern(SiteKey::Aged(mru.0));
            st.heap.rename_site(mru, aged);
            self.site_aliases.insert(mru, aged);
        }
        st.alloc(mru, kind);
        mru
    }

    /// Marks a statement as possibly throwing an implicit exception and,
    /// when it has an enclosing handler, propagates the current state to
    /// the catch landing pad so code reachable only through implicit
    /// exceptions is still analyzed.
    fn implicit_throw(&mut self, stmt_id: StmtId, ctx: CtxId, st: &State) {
        self.may_throw.insert(stmt_id);
        if let Some(handler) = self.lowered.program.stmt(stmt_id).handler {
            self.push_state(handler, ctx, st.clone());
        }
    }

    fn record_read(&mut self, stmt: StmtId, loc: Loc, strength: Strength) {
        self.rw.entry(stmt).or_default().reads.add(loc, strength);
    }

    fn record_write(&mut self, stmt: StmtId, loc: Loc, strength: Strength) {
        self.rw.entry(stmt).or_default().writes.add(loc, strength);
    }

    /// Strength of accessing `prop` on exactly the sites `sites_hit`.
    fn access_strength(&self, st: &State, sites_hit: &[AllocSite], prop: &Pre) -> Strength {
        if sites_hit.len() == 1
            && prop.is_exact()
            && st
                .object(sites_hit[0])
                .is_some_and(|o| o.singleton)
        {
            Strength::Strong
        } else {
            Strength::Weak
        }
    }

    /// Evaluates an operand, recording reads.
    fn eval(
        &mut self,
        stmt: StmtId,
        func: IrFuncId,
        frame: AllocSite,
        st: &State,
        op: &Operand,
    ) -> AValue {
        match op {
            Operand::Num(n) => AValue::num(*n),
            Operand::Str(s) => AValue::str(Pre::exact(s)),
            Operand::Bool(b) => AValue::bool(*b),
            Operand::Null => AValue::null(),
            Operand::Undefined => AValue::undef(),
            Operand::This => {
                self.record_read(
                    stmt,
                    Loc::exact(frame, slots::THIS),
                    self.access_strength(st, &[frame], &Pre::exact(slots::THIS)),
                );
                st.read_slot([frame], slots::THIS)
            }
            Operand::Place(Place::Global(name)) => {
                let g = self.env.global;
                let key = Pre::exact(name);
                self.record_read(
                    stmt,
                    Loc { site: g, prop: key },
                    self.access_strength(st, &[g], &key),
                );
                match st.object(g) {
                    Some(o) => o.read_prop(&key),
                    None => AValue::undef(),
                }
            }
            Operand::Place(Place::Var(v)) => {
                let frames: Vec<AllocSite> = if v.func == func {
                    vec![frame]
                } else {
                    st.read_slot([frame], slots::CHAIN)
                        .objs
                        .iter()
                        .copied()
                        .filter(|s| self.sites.is_frame_of(*s, v.func))
                        .collect()
                };
                if frames.is_empty() {
                    return AValue::any();
                }
                let key = self.var_key(v.index);
                let mut out = AValue::bottom();
                let strength = self.access_strength(st, &frames, &key);
                for f in frames {
                    self.record_read(
                        stmt,
                        Loc {
                            site: f,
                            prop: key,
                        },
                        strength,
                    );
                    if let Some(o) = st.object(f) {
                        out = out.join(&o.read_prop(&key));
                    }
                }
                out
            }
        }
    }

    /// Writes a variable/global place, recording the write.
    fn write_place(
        &mut self,
        stmt: StmtId,
        func: IrFuncId,
        frame: AllocSite,
        st: &mut State,
        dst: &Place,
        value: &AValue,
    ) {
        match dst {
            Place::Global(name) => {
                let g = self.env.global;
                let key = Pre::exact(name);
                self.record_write(stmt, Loc { site: g, prop: key }, Strength::Strong);
                if let Some(o) = st.heap.get_mut(g) {
                    o.write_prop(&key, value, true);
                }
            }
            Place::Var(v) => {
                let frames: Vec<AllocSite> = if v.func == func {
                    vec![frame]
                } else {
                    st.read_slot([frame], slots::CHAIN)
                        .objs
                        .iter()
                        .copied()
                        .filter(|s| self.sites.is_frame_of(*s, v.func))
                        .collect()
                };
                let key = self.var_key(v.index);
                let strength = self.access_strength(st, &frames, &key);
                let strong = strength == Strength::Strong;
                for f in frames {
                    self.record_write(
                        stmt,
                        Loc {
                            site: f,
                            prop: key,
                        },
                        strength,
                    );
                    if let Some(o) = st.heap.get_mut(f) {
                        o.write_prop(&key, value, strong);
                    }
                }
            }
        }
    }

    /// Like [`Machine::write_place`] but always a weak (joining) write,
    /// used when another definition of the same place from a sibling node
    /// must stay visible to the DDG.
    fn write_place_weak(
        &mut self,
        stmt: StmtId,
        func: IrFuncId,
        frame: AllocSite,
        st: &mut State,
        dst: &Place,
        value: &AValue,
    ) {
        match dst {
            Place::Global(name) => {
                let g = self.env.global;
                let key = Pre::exact(name);
                self.record_write(stmt, Loc { site: g, prop: key }, Strength::Weak);
                if let Some(o) = st.heap.get_mut(g) {
                    o.write_prop(&key, value, false);
                }
            }
            Place::Var(v) => {
                let frames: Vec<AllocSite> = if v.func == func {
                    vec![frame]
                } else {
                    st.read_slot([frame], slots::CHAIN)
                        .objs
                        .iter()
                        .copied()
                        .filter(|s| self.sites.is_frame_of(*s, v.func))
                        .collect()
                };
                let key = self.var_key(v.index);
                for f in frames {
                    self.record_write(
                        stmt,
                        Loc {
                            site: f,
                            prop: key,
                        },
                        Strength::Weak,
                    );
                    if let Some(o) = st.heap.get_mut(f) {
                        o.write_prop(&key, value, false);
                    }
                }
            }
        }
    }

    /// Flows `state` to the successors of `stmt` whose edges satisfy
    /// `keep`. Takes the state by value: it is cloned for all successors
    /// but the last, which receives it by move (the common single-successor
    /// case costs zero clones).
    fn flow(
        &mut self,
        stmt: StmtId,
        ctx: CtxId,
        state: State,
        keep: impl Fn(EdgeKind) -> bool,
    ) {
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
    fn step(&mut self, stmt_id: StmtId, ctx: CtxId) {
        self.reachable.insert(stmt_id);
        let st_in = self.states[&(stmt_id, ctx)].clone();
        // Copy out the `&'a Lowered` so borrowing the statement does not
        // freeze `self` (the old code cloned the whole statement instead).
        let lowered = self.lowered;
        let stmt = lowered.program.stmt(stmt_id);
        let func = stmt.func;
        let frame = self.frame_site(func, ctx);
        let mut st = st_in;

        match &stmt.kind {
            IrStmtKind::Enter | IrStmtKind::Nop(_) | IrStmtKind::CallResult { .. } => {
                // CallResult's reads/writes are recorded by handle_exit on
                // the caller's behalf; here it just passes state through.
                self.flow(stmt_id, ctx, st, |k| k != EdgeKind::Uncaught);
            }
            IrStmtKind::Exit => {
                self.handle_exit(stmt_id, ctx, &st, func, frame);
            }
            IrStmtKind::Copy { dst, src } => {
                let v = self.eval(stmt_id, func, frame, &st, src);
                self.write_place(stmt_id, func, frame, &mut st, dst, &v);
                self.flow(stmt_id, ctx, st, |k| k != EdgeKind::Uncaught);
            }
            IrStmtKind::UnOp { dst, op, src } => {
                let v = self.eval(stmt_id, func, frame, &st, src);
                let out = abstract_unop(*op, &v);
                self.write_place(stmt_id, func, frame, &mut st, dst, &out);
                self.flow(stmt_id, ctx, st, |k| k != EdgeKind::Uncaught);
            }
            IrStmtKind::Typeof { dst, src } => {
                let v = self.eval(stmt_id, func, frame, &st, src);
                let out = abstract_typeof(&v, &st);
                self.write_place(stmt_id, func, frame, &mut st, dst, &out);
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
                self.write_place(stmt_id, func, frame, &mut st, dst, &out);
                self.flow(stmt_id, ctx, st, |k| k != EdgeKind::Uncaught);
            }
            IrStmtKind::NewObject { dst } | IrStmtKind::NewArray { dst } => {
                let kind = if matches!(stmt.kind, IrStmtKind::NewArray { .. }) {
                    ObjKind::Array
                } else {
                    ObjKind::Plain
                };
                let site = self.alloc_fresh(&mut st, SiteKey::Stmt(stmt_id, ctx), kind);
                self.write_place(stmt_id, func, frame, &mut st, dst, &AValue::obj(site));
                self.flow(stmt_id, ctx, st, |k| k != EdgeKind::Uncaught);
            }
            IrStmtKind::NewRegex { dst, .. } => {
                let site =
                    self.alloc_fresh(&mut st, SiteKey::Stmt(stmt_id, ctx), ObjKind::Regex);
                self.write_place(stmt_id, func, frame, &mut st, dst, &AValue::obj(site));
                self.flow(stmt_id, ctx, st, |k| k != EdgeKind::Uncaught);
            }
            IrStmtKind::Lambda { dst, func: lam } => {
                let site = self.alloc_fresh(
                    &mut st,
                    SiteKey::Stmt(stmt_id, ctx),
                    ObjKind::Function(FuncIndex(lam.0)),
                );
                let chain = st
                    .read_slot([frame], slots::CHAIN)
                    .join(&AValue::obj(frame));
                st.write_slot(site, slots::SCOPE, chain);
                self.write_place(stmt_id, func, frame, &mut st, dst, &AValue::obj(site));
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
                self.write_place(stmt_id, func, frame, &mut st, dst, &out);
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
                let hit: Vec<AllocSite> = ov.objs.iter().copied().collect();
                let strength = self.access_strength(&st, &hit, &pv);
                for site in hit {
                    self.record_write(
                        stmt_id,
                        Loc {
                            site,
                            prop: pv,
                        },
                        strength,
                    );
                    if let Some(o) = st.heap.get_mut(site) {
                        o.write_prop(&pv, &vv, strength == Strength::Strong);
                    }
                }
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
                let hit: Vec<AllocSite> = ov.objs.iter().copied().collect();
                let strength = self.access_strength(&st, &hit, &pv);
                for site in hit {
                    self.record_write(
                        stmt_id,
                        Loc {
                            site,
                            prop: pv,
                        },
                        strength,
                    );
                    if let Some(o) = st.heap.get_mut(site) {
                        o.delete_prop(&pv);
                    }
                }
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
                self.write_place(stmt_id, func, frame, &mut st, dst, &AValue::any_bool());
                self.flow(stmt_id, ctx, st, |k| k != EdgeKind::Uncaught);
            }
            IrStmtKind::Return { value } => {
                let v = self.eval(stmt_id, func, frame, &st, value);
                // Flow-sensitive strong update: states from different
                // return statements are joined at the function exit anyway.
                let strength = self.access_strength(&st, &[frame], &Pre::exact(slots::RET));
                st.write_slot(frame, slots::RET, v);
                self.record_write(stmt_id, Loc::exact(frame, slots::RET), strength);
                self.flow(stmt_id, ctx, st, |k| k == EdgeKind::Return);
            }
            IrStmtKind::Throw { value } => {
                let v = self.eval(stmt_id, func, frame, &st, value);
                let strength = self.access_strength(&st, &[frame], &Pre::exact(slots::EXC));
                st.write_slot(frame, slots::EXC, v);
                self.record_write(stmt_id, Loc::exact(frame, slots::EXC), strength);
                self.flow(stmt_id, ctx, st, |k| k == EdgeKind::ThrowExplicit);
            }
            IrStmtKind::CatchBind { dst } => {
                let mut v = st.read_slot([frame], slots::EXC);
                let strength = self.access_strength(&st, &[frame], &Pre::exact(slots::EXC));
                self.record_read(stmt_id, Loc::exact(frame, slots::EXC), strength);
                if v.is_bottom() {
                    // Implicit exceptions carry no modeled value.
                    v = AValue::any();
                }
                self.write_place(stmt_id, func, frame, &mut st, dst, &v);
                self.flow(stmt_id, ctx, st, |k| k != EdgeKind::Uncaught);
            }
            IrStmtKind::ForInNext { dst, obj } => {
                let ov = self.eval(stmt_id, func, frame, &st, obj);
                let mut keys = Pre::Bot;
                for site in &ov.objs {
                    // Enumerating keys observes the object's structure.
                    self.record_read(
                        stmt_id,
                        Loc {
                            site: *site,
                            prop: Pre::any(),
                        },
                        Strength::Weak,
                    );
                    if let Some(o) = st.object(*site) {
                        for k in o.props.keys() {
                            keys = keys.join(&Pre::Exact(*k));
                        }
                        if !o.unknown_props.is_bottom() {
                            keys = Pre::any();
                        }
                    }
                }
                let v = if keys.is_bottom() {
                    AValue::any_str()
                } else {
                    AValue::str(keys)
                };
                self.write_place(stmt_id, func, frame, &mut st, dst, &v);
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
                let handlers = st.read_slot([self.env.event_registry], slots::HANDLERS);
                self.record_read(
                    stmt_id,
                    Loc::exact(self.env.event_registry, slots::HANDLERS),
                    Strength::Weak,
                );
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
    fn load_prop(&mut self, stmt: StmtId, st: &State, ov: &AValue, pv: &Pre) -> AValue {
        let mut out = AValue::bottom();
        let hit: Vec<AllocSite> = ov.objs.iter().copied().collect();
        let strength = self.access_strength(st, &hit, pv);
        for site in &hit {
            self.record_read(
                stmt,
                Loc {
                    site: *site,
                    prop: *pv,
                },
                strength,
            );
            if let Some(o) = st.object(*site) {
                let mut v = o.read_prop(pv);
                // Method fallback for array/object helpers.
                if let Pre::Exact(name) = pv {
                    if !o.props.contains_key(name) {
                        if name == "length" && o.kind == ObjKind::Array {
                            v = v.join(&AValue::any_num());
                        } else if let Some(m) = natives::object_method(name) {
                            if let Some(ns) = self.sites.get(&SiteKey::Host(m)) {
                                v = v.join(&AValue::obj(ns));
                            }
                        }
                    }
                }
                out = out.join(&v);
            }
        }
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

    /// Shared implementation for `Call` and `EventDispatch`.
    #[allow(clippy::too_many_arguments)]
    fn handle_call(
        &mut self,
        stmt_id: StmtId,
        ctx: CtxId,
        func: IrFuncId,
        frame: AllocSite,
        st: &mut State,
        dst: &Place,
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
            Some(dst.clone()),
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
        st: &mut State,
        dst: Option<Place>,
        cv: &AValue,
        this_v: &Option<AValue>,
        arg_vs: &[AValue],
        is_new: bool,
    ) {
        let mut native_ids: Vec<NativeId> = Vec::new();
        let mut addon: Vec<(IrFuncId, AllocSite)> = Vec::new();
        let mut has_noncallable_obj = false;
        for site in &cv.objs {
            match st.object(*site).map(|o| o.kind.clone()) {
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
            self.native_targets
                .entry(stmt_id)
                .or_default()
                .insert(id);
            let name = self.env.spec(id).name;
            if self.config.security.interesting_apis.contains(name) {
                self.api_uses.insert((stmt_id, name.to_owned()));
            }
            let r = self.apply_native(
                id,
                stmt_id,
                ctx,
                st,
                this_v,
                arg_vs,
                &mut pending_callbacks,
            );
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
            if let Some(d) = &dst {
                self.write_place(stmt_id, func, frame, st, d, ret);
            }
        }

        // Addon calls.
        for (fid, closure) in addon {
            self.call_targets
                .entry(stmt_id)
                .or_default()
                .insert(fid);
            self.do_addon_call(
                stmt_id, ctx, func, st, fid, closure, this_v, arg_vs, dst.clone(), is_new,
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

    #[allow(clippy::too_many_arguments)]
    fn do_addon_call(
        &mut self,
        call_stmt: StmtId,
        ctx: CtxId,
        caller_func: IrFuncId,
        st: &State,
        fid: IrFuncId,
        closure: AllocSite,
        this_v: &Option<AValue>,
        arg_vs: &[AValue],
        dst: Option<Place>,
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
        let singleton = callee_st
            .object(fsite)
            .is_some_and(|o| o.singleton);
        let strength = if singleton {
            Strength::Strong
        } else {
            Strength::Weak
        };

        // Parameters.
        for i in 0..callee.param_count {
            let v = arg_vs
                .get(i as usize)
                .cloned()
                .unwrap_or_else(AValue::undef);
            let key = self.var_key(i);
            self.record_write(
                call_stmt,
                Loc {
                    site: fsite,
                    prop: key,
                },
                strength,
            );
            if let Some(o) = callee_st.heap.get_mut(fsite) {
                o.write_prop(&key, &v, singleton);
            }
        }
        // Scope chain from the closure.
        let chain = callee_st.read_slot([closure], slots::SCOPE);
        callee_st.write_slot(fsite, slots::CHAIN, chain);
        // Self-binding for named functions.
        if !callee.name.is_empty() {
            if let Some(idx) = callee.lookup_var(&callee.name) {
                let is_param = callee.vars[idx as usize].is_param;
                if !is_param {
                    let key = self.var_key(idx);
                    if let Some(o) = callee_st.heap.get_mut(fsite) {
                        o.write_prop(&key, &AValue::obj(closure), singleton);
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
        callee_st.write_slot(fsite, slots::THIS, tv);
        self.record_write(
            call_stmt,
            Loc::exact(fsite, slots::THIS),
            strength,
        );
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
            caller_func,
            callee_frame: fsite,
            dst,
            new_site,
            result_node,
        };
        let links = self.ret_links.entry((fid, new_ctx)).or_default();
        if links.insert(link) {
            // A new caller: if the callee exit already has state, replay it.
            self.enqueue(callee.exit, new_ctx);
        }
    }

    fn handle_exit(
        &mut self,
        stmt_id: StmtId,
        ctx: CtxId,
        st: &State,
        func: IrFuncId,
        frame: AllocSite,
    ) {
        let _ = stmt_id;
        let links = match self.ret_links.get(&(func, ctx)) {
            Some(l) => l.clone(),
            None => return, // top level: analysis ends here
        };
        // If the exit is reachable by falling off the end (any non-Return,
        // non-Uncaught incoming edge), the function may return `undefined`.
        let may_fall_off = self
            .lowered
            .cfg
            .preds(stmt_id)
            .iter()
            .any(|(_, k)| !matches!(k, EdgeKind::Return | EdgeKind::Uncaught));
        for link in links {
            let mut out = st.clone();
            let mut retv = out.read_slot([link.callee_frame], slots::RET);
            if may_fall_off || retv.is_bottom() {
                retv = retv.join(&AValue::undef());
            }
            // The return-value transfer belongs to the CallResult node so
            // that argument flows (into the call) and result flows (out of
            // it) stay separate in the PDG.
            let attr = link.result_node.unwrap_or(link.call);
            let ret_strength =
                self.access_strength(&out, &[link.callee_frame], &Pre::exact(slots::RET));
            self.record_read(
                attr,
                Loc::exact(link.callee_frame, slots::RET),
                ret_strength,
            );
            if let Some(ns) = link.new_site {
                retv = retv.without_objects().join(&AValue::obj(ns)).join(&AValue::objects(
                    retv.objs.iter().copied(),
                ));
            }
            if let Some(d) = &link.dst {
                let caller_frame = self.frame_site(link.caller_func, link.caller_ctx);
                // Mixed native+addon callee sets: the native result was
                // already written at the Call node; the CallResult write
                // must be weak (a join) so the Call's definition stays
                // alive in the DDG and the native value is preserved.
                let mixed = self
                    .native_targets
                    .get(&link.call)
                    .is_some_and(|n| !n.is_empty());
                if mixed {
                    self.write_place_weak(
                        attr,
                        link.caller_func,
                        caller_frame,
                        &mut out,
                        d,
                        &retv,
                    );
                } else {
                    self.write_place(
                        attr,
                        link.caller_func,
                        caller_frame,
                        &mut out,
                        d,
                        &retv,
                    );
                }
            }
            self.flow(link.call, link.caller_ctx, out, |k| {
                k != EdgeKind::Uncaught
            });
        }
        let _ = frame;
    }

    /// Applies a native's declarative semantics.
    #[allow(clippy::too_many_arguments)]
    fn apply_native(
        &mut self,
        id: NativeId,
        stmt: StmtId,
        ctx: CtxId,
        st: &mut State,
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
            NativeBehavior::CoerceString => {
                AValue::str(self.degrade(arg(0).to_abstract_string()))
            }
            NativeBehavior::XhrConstructor => {
                let site = self.alloc_xhr(stmt, ctx, st);
                AValue::obj(site)
            }
            NativeBehavior::XhrWrapper => {
                let site = self.alloc_xhr(stmt, ctx, st);
                let url = self.degrade(arg(0).to_abstract_string());
                st.write_slot(site, slots::URL, AValue::str(url));
                self.record_write(
                    stmt,
                    Loc::exact(site, slots::URL),
                    Strength::Strong,
                );
                AValue::obj(site)
            }
            NativeBehavior::XhrOpen => {
                let url = self.degrade(arg(1).to_abstract_string());
                if let Some(t) = this_v {
                    for site in &t.objs {
                        let strength = self.access_strength(st, &[*site], &Pre::exact(slots::URL));
                        self.record_write(stmt, Loc::exact(*site, slots::URL), strength);
                        if strength == Strength::Strong {
                            st.write_slot(*site, slots::URL, AValue::str(url.clone()));
                        } else {
                            let old = st.read_slot([*site], slots::URL);
                            st.write_slot(*site, slots::URL, old.join(&AValue::str(url.clone())));
                        }
                    }
                }
                AValue::undef()
            }
            NativeBehavior::XhrSend => {
                let mut domain = Pre::Bot;
                if let Some(t) = this_v {
                    let hit: Vec<AllocSite> = t.objs.iter().copied().collect();
                    for site in &t.objs {
                        let strength =
                            self.access_strength(st, &hit, &Pre::exact(slots::URL));
                        self.record_read(stmt, Loc::exact(*site, slots::URL), strength);
                        let url = st.read_slot([*site], slots::URL);
                        domain = domain.join(&url.strs);
                        // Response callbacks become event-loop handlers.
                        if let Some(o) = st.object(*site) {
                            let mut handlers = AValue::bottom();
                            for cb in ["onreadystatechange", "onload", "onerror"] {
                                handlers = handlers
                                    .join(&o.read_prop(&Pre::exact(cb)).without_primitives());
                            }
                            if !handlers.objs.is_empty() {
                                let old =
                                    st.read_slot([self.env.event_registry], slots::HANDLERS);
                                st.write_slot(
                                    self.env.event_registry,
                                    slots::HANDLERS,
                                    old.join(&handlers),
                                );
                            }
                        }
                    }
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
                    self.api_uses
                        .insert((stmt, "setTimeout$string".to_owned()));
                    self.record_sink(stmt, SinkKind::Eval, Pre::Bot);
                }
                let old = st.read_slot([self.env.event_registry], slots::HANDLERS);
                st.write_slot(
                    self.env.event_registry,
                    slots::HANDLERS,
                    old.join(&h.without_primitives()),
                );
                self.record_write(
                    stmt,
                    Loc::exact(self.env.event_registry, slots::HANDLERS),
                    Strength::Weak,
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
            NativeBehavior::ArrayPush => {
                if let Some(t) = this_v {
                    for site in &t.objs {
                        self.record_write(
                            stmt,
                            Loc {
                                site: *site,
                                prop: Pre::any(),
                            },
                            Strength::Weak,
                        );
                        if let Some(o) = st.heap.get_mut(*site) {
                            o.write_prop(&Pre::any(), &arg(0), false);
                        }
                    }
                }
                AValue::any_num()
            }
            NativeBehavior::ArrayJoin => {
                let mut v = AValue::bottom();
                if let Some(t) = this_v {
                    for site in &t.objs {
                        self.record_read(
                            stmt,
                            Loc {
                                site: *site,
                                prop: Pre::any(),
                            },
                            Strength::Weak,
                        );
                        if let Some(o) = st.object(*site) {
                            v = v.join(&o.read_prop(&Pre::any()));
                        }
                    }
                }
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
            NativeBehavior::ReadSource(host, prop) => {
                match self.sites.get(&SiteKey::Host(host)) {
                    Some(site) => {
                        self.record_read(
                            stmt,
                            Loc::exact(site, prop),
                            Strength::Weak,
                        );
                        match st.object(site) {
                            Some(o) => o.read_prop(&Pre::exact(prop)),
                            None => AValue::any(),
                        }
                    }
                    None => AValue::any(),
                }
            }
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
        st: &mut State,
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
                let site = self.alloc_fresh(
                    st,
                    SiteKey::NativeAlloc(stmt, ctx, "split"),
                    ObjKind::Array,
                );
                if let Some(o) = st.heap.get_mut(site) {
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

    fn alloc_xhr(&mut self, stmt: StmtId, ctx: CtxId, st: &mut State) -> AllocSite {
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
                if let Some(o) = st.heap.get_mut(site) {
                    o.write_prop(&Pre::exact(prop), &AValue::obj(ns), true);
                }
            }
        }
        if let Some(o) = st.heap.get_mut(site) {
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
        let slot = self
            .sink_domains
            .entry((stmt, kind))
            .or_insert(Pre::Bot);
        *slot = slot.join(&domain);
    }
}

/// Projects the context-qualified transition graph's cycles down to
/// statements: a statement is cyclic if any of its context-qualified
/// nodes lies in a non-trivial SCC (or has a self loop).
fn cyclic_statements(transitions: &BTreeSet<(CtxNode, CtxNode)>) -> BTreeSet<StmtId> {
    // Dense node numbering (nodes are Copy ids, so keys are by value).
    let mut index_of: HashMap<CtxNode, usize> = HashMap::new();
    let mut nodes: Vec<CtxNode> = Vec::new();
    for &(a, b) in transitions {
        for n in [a, b] {
            if !index_of.contains_key(&n) {
                index_of.insert(n, nodes.len());
                nodes.push(n);
            }
        }
    }
    let n = nodes.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (a, b) in transitions {
        adj[index_of[a]].push(index_of[b]);
    }
    // Iterative Tarjan SCC.
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack = Vec::new();
    let mut next = 0usize;
    let mut out = BTreeSet::new();
    #[derive(Clone, Copy)]
    struct Frame {
        v: usize,
        pos: usize,
    }
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut call = vec![Frame { v: root, pos: 0 }];
        while let Some(fr) = call.last_mut() {
            let v = fr.v;
            if fr.pos == 0 {
                index[v] = next;
                low[v] = next;
                next += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if fr.pos < adj[v].len() {
                let w = adj[v][fr.pos];
                fr.pos += 1;
                if index[w] == usize::MAX {
                    call.push(Frame { v: w, pos: 0 });
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(p) = call.last() {
                    low[p.v] = low[p.v].min(low[v]);
                }
                if low[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("scc stack");
                        on_stack[w] = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    if comp.len() > 1 || adj[v].contains(&v) {
                        out.extend(comp.into_iter().map(|i| nodes[i].0));
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
    if v.undef || v.null || v.bools != BoolDom::Bot || !v.strs.is_bottom() || !v.objs.is_empty()
    {
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
fn abstract_typeof(v: &AValue, st: &State) -> AValue {
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
        match st.object(*site).map(|o| o.kind.is_callable()) {
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
                        if !l_stringy && !r_stringy && l.bools == BoolDom::Bot
                            && r.bools == BoolDom::Bot
                            && !l.undef && !r.undef && !l.null && !r.null =>
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
                && !l.undef && !l.null && l.bools == BoolDom::Bot && l.nums == NumDom::Bot
                && l.objs.is_empty()
                && !r.undef && !r.null && r.bools == BoolDom::Bot && r.nums == NumDom::Bot
                && r.objs.is_empty()
            {
                l.strs.compare_eq(&r.strs)
            } else if let (Some(a), Some(b)) = (l.nums.as_const(), r.nums.as_const()) {
                if l.may_be_string() || r.may_be_string() || !l.objs.is_empty()
                    || !r.objs.is_empty() || l.undef || r.undef || l.null || r.null
                    || l.bools != BoolDom::Bot || r.bools != BoolDom::Bot
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
