//! The reference oracle: checks an inferred signature against the
//! hand-written expectation of its input, never against the program's
//! own earlier output.

use crate::inputs::Expect;
use corpus::attacks::{Attack, Evidence};
use corpus::Addon;
use jsanalysis::{SinkKind, SourceKind};
use jsdomains::Pre;
use jssig::{FlowLattice, FlowType, Signature};

pub struct Oracle {
    addons: Vec<Addon>,
    attacks: Vec<Attack>,
    lattice: FlowLattice,
}

impl Oracle {
    pub fn new() -> Oracle {
        Oracle {
            addons: corpus::addons(),
            attacks: corpus::attacks::attacks(),
            lattice: FlowLattice::paper(),
        }
    }

    /// `Err` names the first way `sig` departs from `expect`.
    pub fn check(&self, sig: &Signature, expect: &Expect) -> Result<(), String> {
        match expect {
            Expect::Paper(i) => {
                let addon = &self.addons[*i];
                let verdict = jssig::compare(
                    sig,
                    &addon.manual,
                    addon.real_extra_flow,
                    addon.real_extra_sink,
                )
                .verdict;
                if verdict == addon.paper_verdict {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: verdict {verdict}, paper says {}",
                        addon.name, addon.paper_verdict
                    ))
                }
            }
            Expect::Evidence(i) => {
                let attack = &self.attacks[*i];
                attack
                    .evidence
                    .iter()
                    .find(|ev| !self.shows(sig, ev))
                    .map_or(Ok(()), |ev| Err(format!("{}: missing {ev:?}", attack.name)))
            }
            Expect::Planted(None) if sig.flows.is_empty() => Ok(()),
            Expect::Planted(None) => {
                Err(format!("{} flow(s) in a flow-free input", sig.flows.len()))
            }
            Expect::Planted(Some(host)) => {
                let planted = |e: &jssig::FlowEntry| {
                    e.source == SourceKind::Url
                        && e.sink.kind == SinkKind::Send
                        && e.flow == FlowType(0)
                        && e.sink
                            .domain
                            .known_text()
                            .is_some_and(|d| d.contains(host.as_str()))
                };
                if sig.flows.len() == 1 && sig.flows.iter().all(planted) {
                    Ok(())
                } else {
                    Err(format!(
                        "want exactly url --type1--> send({host}), got {} flow(s)",
                        sig.flows.len()
                    ))
                }
            }
        }
    }

    fn shows(&self, sig: &Signature, ev: &Evidence) -> bool {
        let domain_has = |d: &Pre, host: &str| d.known_text().is_some_and(|t| t.contains(host));
        match ev {
            Evidence::Flow {
                source,
                domain,
                at_least,
            } => sig.flows.iter().any(|e| {
                e.source == *source
                    && domain_has(&e.sink.domain, domain)
                    && self
                        .lattice
                        .stronger_or_equal(e.flow, FlowType(at_least - 1))
            }),
            Evidence::Api(name) => sig.apis.contains(*name),
            Evidence::Sink { kind, domain } => sig
                .sinks
                .iter()
                .any(|s| s.kind == *kind && domain_has(&s.domain, domain)),
        }
    }
}
