//! The pipeline's layers: the one vocabulary every span, timing,
//! histogram and bench key is named in.

use std::time::Duration;

/// One layer of the signature-inference pipeline. The pipeline runs
/// them in declaration order, each at most once and none inside
/// another, so a run's layer times add up to nearly all of its wall
/// time (`perf_snapshot` fails when more than 5% falls outside).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `jsparser::parse`: source text to AST.
    Parse,
    /// `jsir::lower`: AST to IR and control-flow graphs.
    Lower,
    /// The base analysis's abstract-interpretation fixpoint.
    Fixpoint,
    /// `jspdg::SuperGraph::build`: the interprocedural supergraph.
    Supergraph,
    /// `jspdg::build_ddg`: the data-dependence edges.
    Ddg,
    /// `jspdg::build_cdg`: the staged control-dependence edges.
    Cdg,
    /// Both edge sets added into the `Pdg`, and the edge-kind tally.
    Assemble,
    /// Flow-type propagation and signature inference.
    Infer,
}

impl Layer {
    /// Every layer, in pipeline order.
    pub const ALL: [Layer; 8] = [
        Layer::Parse,
        Layer::Lower,
        Layer::Fixpoint,
        Layer::Supergraph,
        Layer::Ddg,
        Layer::Cdg,
        Layer::Assemble,
        Layer::Infer,
    ];

    /// The stable `<crate>.<stage>` name of the layer: the span name,
    /// the bench key, and (dots as underscores) the histogram name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Parse => "jsparser.parse",
            Layer::Lower => "jsir.lower",
            Layer::Fixpoint => "jsanalysis.fixpoint",
            Layer::Supergraph => "jspdg.supergraph",
            Layer::Ddg => "jspdg.ddg",
            Layer::Cdg => "jspdg.cdg",
            Layer::Assemble => "jspdg.assemble",
            Layer::Infer => "jssig.infer",
        }
    }

    /// The paper phase (Table 2's P1–P3) the layer belongs to: 1 is the
    /// base analysis, 2 the annotated PDG, 3 signature inference. The
    /// front end (parse, lower) belongs to none.
    pub fn phase(self) -> Option<u8> {
        match self {
            Layer::Parse | Layer::Lower => None,
            Layer::Fixpoint => Some(1),
            Layer::Supergraph | Layer::Ddg | Layer::Cdg | Layer::Assemble => Some(2),
            Layer::Infer => Some(3),
        }
    }
}

/// The wall time of each layer of one run. A layer that did not run —
/// the PDG layers under triage, everything after a budget abort — is
/// absent, not zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTimes([Option<Duration>; Layer::ALL.len()]);

impl LayerTimes {
    /// The wall time of `layer`, if it ran.
    pub fn get(&self, layer: Layer) -> Option<Duration> {
        self.0[layer as usize]
    }

    /// Adds `elapsed` to `layer`'s time, marking it as run.
    pub fn add(&mut self, layer: Layer, elapsed: Duration) {
        let slot = &mut self.0[layer as usize];
        *slot = Some(slot.unwrap_or_default() + elapsed);
    }

    /// The layers that ran with their times, in pipeline order.
    pub fn iter(&self) -> impl Iterator<Item = (Layer, Duration)> + '_ {
        Layer::ALL
            .into_iter()
            .filter_map(|layer| Some((layer, self.get(layer)?)))
    }

    /// Paper phase `phase`'s time: the sum of its layers that ran (see
    /// [`Layer::phase`]).
    pub fn phase(&self, phase: u8) -> Duration {
        self.iter()
            .filter(|(layer, _)| layer.phase() == Some(phase))
            .map(|(_, d)| d)
            .sum()
    }

    /// The sum of every layer that ran.
    pub fn total(&self) -> Duration {
        self.iter().map(|(_, d)| d).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_sum_their_layers_and_absent_layers_read_zero() {
        let us = Duration::from_micros;
        let mut t = LayerTimes::default();
        for (layer, d) in [
            (Layer::Parse, 1),
            (Layer::Fixpoint, 10),
            (Layer::Ddg, 20),
            (Layer::Assemble, 5),
            (Layer::Infer, 30),
        ] {
            t.add(layer, us(d));
        }
        assert_eq!(t.phase(1), us(10));
        assert_eq!(t.phase(2), us(25));
        assert_eq!(t.phase(3), us(30));
        assert_eq!(t.total(), us(66));
        assert_eq!(t.get(Layer::Cdg), None);
        let ran: Vec<Layer> = t.iter().map(|(l, _)| l).collect();
        assert_eq!(
            ran,
            [
                Layer::Parse,
                Layer::Fixpoint,
                Layer::Ddg,
                Layer::Assemble,
                Layer::Infer
            ]
        );
        assert_eq!(LayerTimes::default().total(), Duration::ZERO);
        t.add(Layer::Lower, Duration::ZERO);
        assert_eq!(
            t.get(Layer::Lower),
            Some(Duration::ZERO),
            "ran, if instantly"
        );
    }
}
