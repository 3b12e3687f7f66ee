//! The fixed set of pipeline counters.
//!
//! A closed enum instead of string keys: the hot phases index a plain
//! array, misspellings are compile errors, and the golden tests can
//! enumerate every counter when checking determinism.

/// One pipeline counter. See [`Counter::order_independent`] for the
/// determinism classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Counter {
    /// Phase 1: fixpoint iterations of the abstract interpreter.
    WorklistSteps,
    /// Phase 1: abstract-state joins performed when re-queuing a node.
    StateJoins,
    /// Phase 1: abstract heap objects copied by copy-on-write before a
    /// mutation (shared `Arc` forced to clone).
    HeapCowClones,
    /// Phase 2: strong (must) data-dependence edges in the PDG.
    PdgDataStrongEdges,
    /// Phase 2: weak (may) data-dependence edges in the PDG.
    PdgDataWeakEdges,
    /// Phase 2: local control-dependence edges in the PDG.
    PdgCtrlLocalEdges,
    /// Phase 2: non-local explicit control edges (exceptional flow).
    PdgCtrlNonLocExpEdges,
    /// Phase 2: non-local implicit control edges.
    PdgCtrlNonLocImpEdges,
    /// Phase 2: control edges carrying the amplification mark.
    PdgCtrlAmplifiedEdges,
    /// Phase 3: propagation worklist iterations over the PDG.
    FlowPropSteps,
    /// Phase 3: flow-lattice raises — distinct `(statement, flow type)`
    /// facts established during propagation.
    FlowTypeRaises,
    /// Phase 3: flow entries reported in the final signature.
    SignatureFlows,
}

/// Number of counters (the backing array length of [`Counters`]).
pub const COUNTER_COUNT: usize = 12;

impl Counter {
    /// Every counter, in declaration order.
    pub const ALL: [Counter; COUNTER_COUNT] = [
        Counter::WorklistSteps,
        Counter::StateJoins,
        Counter::HeapCowClones,
        Counter::PdgDataStrongEdges,
        Counter::PdgDataWeakEdges,
        Counter::PdgCtrlLocalEdges,
        Counter::PdgCtrlNonLocExpEdges,
        Counter::PdgCtrlNonLocImpEdges,
        Counter::PdgCtrlAmplifiedEdges,
        Counter::FlowPropSteps,
        Counter::FlowTypeRaises,
        Counter::SignatureFlows,
    ];

    /// Stable snake_case name, used for metrics registry keys and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Counter::WorklistSteps => "worklist_steps",
            Counter::StateJoins => "state_joins",
            Counter::HeapCowClones => "heap_cow_clones",
            Counter::PdgDataStrongEdges => "pdg_data_strong_edges",
            Counter::PdgDataWeakEdges => "pdg_data_weak_edges",
            Counter::PdgCtrlLocalEdges => "pdg_ctrl_local_edges",
            Counter::PdgCtrlNonLocExpEdges => "pdg_ctrl_nonlocexp_edges",
            Counter::PdgCtrlNonLocImpEdges => "pdg_ctrl_nonlocimp_edges",
            Counter::PdgCtrlAmplifiedEdges => "pdg_ctrl_amplified_edges",
            Counter::FlowPropSteps => "flow_prop_steps",
            Counter::FlowTypeRaises => "flow_type_raises",
            Counter::SignatureFlows => "signature_flows",
        }
    }

    /// Whether this counter is identical across worklist orders.
    ///
    /// Phase-1 route counters (steps, joins, CoW clones) measure how the
    /// fixpoint was *reached* and legitimately differ between FIFO and
    /// RPO scheduling (RPO exists to shrink them). Less obviously, the
    /// fixpoint itself is mildly order-sensitive: strong updates under
    /// the recency abstraction are non-monotone, so FIFO and RPO can
    /// settle on slightly different — equally sound — abstract states
    /// (on the corpus, a data edge flipping strength or one extra weak
    /// edge). Data-dependence edge tallies and the flow-propagation
    /// counters computed over them inherit that sensitivity.
    ///
    /// What survives a worklist-order change bit for bit: the
    /// control-dependence tallies (structural — computed from the CFG
    /// and postdominators, with reachability a monotone may-property)
    /// and the reported signature itself (locked separately by the
    /// worklist golden tests).
    pub fn order_independent(self) -> bool {
        matches!(
            self,
            Counter::PdgCtrlLocalEdges
                | Counter::PdgCtrlNonLocExpEdges
                | Counter::PdgCtrlNonLocImpEdges
                | Counter::PdgCtrlAmplifiedEdges
                | Counter::SignatureFlows
        )
    }
}

/// A dense map from [`Counter`] to `u64`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters([u64; COUNTER_COUNT]);

impl Counters {
    /// All-zero counters.
    pub fn new() -> Counters {
        Counters::default()
    }

    /// Current value of one counter.
    pub fn get(&self, c: Counter) -> u64 {
        self.0[c as usize]
    }

    /// Adds `delta` to one counter.
    pub fn add(&mut self, c: Counter, delta: u64) {
        self.0[c as usize] += delta;
    }

    /// Adds every counter of `other` into `self`.
    pub fn merge(&mut self, other: &Counters) {
        for c in Counter::ALL {
            self.0[c as usize] += other.0[c as usize];
        }
    }

    /// `(counter, value)` pairs in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        Counter::ALL.into_iter().map(move |c| (c, self.get(c)))
    }

    /// The subset identical across worklist orders (see
    /// [`Counter::order_independent`]), for cross-order golden tests.
    pub fn order_independent(&self) -> Vec<(Counter, u64)> {
        self.iter().filter(|(c, _)| c.order_independent()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_every_counter_once() {
        let mut seen = std::collections::BTreeSet::new();
        for c in Counter::ALL {
            assert!(seen.insert(c.name()), "duplicate counter {}", c.name());
        }
        assert_eq!(seen.len(), COUNTER_COUNT);
    }

    #[test]
    fn merge_is_pointwise_addition() {
        let mut a = Counters::new();
        a.add(Counter::WorklistSteps, 3);
        a.add(Counter::SignatureFlows, 1);
        let mut b = Counters::new();
        b.add(Counter::WorklistSteps, 4);
        b.merge(&a);
        assert_eq!(b.get(Counter::WorklistSteps), 7);
        assert_eq!(b.get(Counter::SignatureFlows), 1);
        assert_eq!(b.get(Counter::StateJoins), 0);
    }

    #[test]
    fn classification_covers_route_and_state_sensitive_counters() {
        // Route counters: order-dependent by design.
        assert!(!Counter::WorklistSteps.order_independent());
        assert!(!Counter::StateJoins.order_independent());
        assert!(!Counter::HeapCowClones.order_independent());
        // State-derived counters: order-sensitive because strong updates
        // are non-monotone (see the method docs).
        assert!(!Counter::PdgDataStrongEdges.order_independent());
        assert!(!Counter::PdgDataWeakEdges.order_independent());
        assert!(!Counter::FlowPropSteps.order_independent());
        assert!(!Counter::FlowTypeRaises.order_independent());
        // Structural and signature-level counters: invariant.
        for c in [
            Counter::PdgCtrlLocalEdges,
            Counter::PdgCtrlNonLocExpEdges,
            Counter::PdgCtrlNonLocImpEdges,
            Counter::PdgCtrlAmplifiedEdges,
            Counter::SignatureFlows,
        ] {
            assert!(
                c.order_independent(),
                "{} should be order independent",
                c.name()
            );
        }
    }
}
