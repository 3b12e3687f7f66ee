//! The attack gallery: for each proof-of-concept malicious addon (modeled
//! on the published exploits the paper's motivation cites), the inferred
//! signature must surface the documented evidence -- the exfiltration
//! flow, the covert channel, or the restricted dynamic-code APIs.

use addon_sig::analyze_addon;
use corpus::attacks::{attacks, Evidence};
use jssig::{FlowLattice, FlowType};

#[test]
fn every_attack_is_exposed_by_its_signature() {
    let lattice = FlowLattice::paper();
    for attack in attacks() {
        let report =
            analyze_addon(attack.source).unwrap_or_else(|e| panic!("{}: {e}", attack.name));
        let sig = &report.signature;
        for ev in &attack.evidence {
            match ev {
                Evidence::Flow {
                    source,
                    domain,
                    at_least,
                } => {
                    let hit = sig.flows.iter().find(|e| {
                        e.source == *source
                            && e.sink
                                .domain
                                .known_text()
                                .is_some_and(|d| d.contains(domain))
                    });
                    let entry = hit.unwrap_or_else(|| {
                        panic!(
                            "{}: no {source} flow to {domain} in signature:\n{sig}",
                            attack.name
                        )
                    });
                    assert!(
                        lattice.stronger_or_equal(entry.flow, FlowType(at_least - 1)),
                        "{}: flow {} weaker than required type{at_least}",
                        attack.name,
                        entry.flow
                    );
                }
                Evidence::Api(name) => {
                    assert!(
                        sig.apis.contains(*name),
                        "{}: missing api-use {name} in:\n{sig}",
                        attack.name
                    );
                }
                Evidence::Sink { kind, domain } => {
                    assert!(
                        sig.sinks.iter().any(|s| s.kind == *kind
                            && s.domain.known_text().is_some_and(|d| d.contains(domain))),
                        "{}: missing {kind} sink to {domain} in:\n{sig}",
                        attack.name
                    );
                }
            }
        }
    }
}

#[test]
fn covert_beacon_has_no_explicit_flow() {
    // The beacon attack's whole point: the URL never flows as data.
    let attack = attacks()
        .into_iter()
        .find(|a| a.name == "covert-url-beacon")
        .unwrap();
    let report = analyze_addon(attack.source).unwrap();
    for entry in &report.signature.flows {
        assert!(
            entry.flow != FlowType(0) && entry.flow != FlowType(1),
            "covert channel must not be classified as explicit data flow: {entry}"
        );
    }
    // It IS classified as an amplified implicit flow (type3): one beacon
    // per page load.
    assert!(
        report.signature.flows.iter().any(|e| e.flow == FlowType(2)),
        "expected type3 amplified implicit flow:\n{}",
        report.signature
    );
}

#[test]
fn keylogger_flow_is_amplified_data() {
    // The keylogger accumulates key codes in a buffer across events and
    // ships them as data: the strongest achievable type is a data flow
    // (the buffer concatenation makes it weak, not strong).
    let attack = attacks()
        .into_iter()
        .find(|a| a.name == "keylogger")
        .unwrap();
    let report = analyze_addon(attack.source).unwrap();
    let key_flows: Vec<_> = report
        .signature
        .flows
        .iter()
        .filter(|e| e.source == jsanalysis::SourceKind::Key)
        .collect();
    assert!(!key_flows.is_empty());
    assert!(
        key_flows
            .iter()
            .any(|e| e.flow == FlowType(0) || e.flow == FlowType(1)),
        "keylogger is a data exfiltration, got:\n{}",
        report.signature
    );
}

#[test]
fn dynamic_loader_would_be_rejected_outright() {
    // Section 2: "we can safely disallow addons from using dynamic code.
    // Our analysis reports any potential use of these restricted APIs."
    let attack = attacks()
        .into_iter()
        .find(|a| a.name == "dynamic-loader")
        .unwrap();
    let report = analyze_addon(attack.source).unwrap();
    let restricted: Vec<&String> = report
        .signature
        .apis
        .iter()
        .filter(|a| {
            a.as_str() == "eval"
                || a.as_str() == "Function"
                || a.as_str() == "setTimeout$string"
                || a.as_str() == "Services.scriptloader.loadSubScript"
        })
        .collect();
    assert!(
        restricted.len() >= 3,
        "expected multiple restricted APIs, got {restricted:?}"
    );
}
