//! The paper emphasizes that both the interesting-source set and the
//! flow-type lattice are configurable ("the lattice is independently
//! configurable to accommodate changes in perceived strength"). This
//! example vets one addon under two policies:
//!
//! 1. the default (paper) configuration, and
//! 2. a stricter two-point lattice ("explicit" vs "any") with a reduced
//!    source set, the kind of quick triage policy a repository might run
//!    on every submission before queueing for human review.
//!
//! Run with: `cargo run --example custom_policy`

use addon_sig::Pipeline;
use jsanalysis::{AnalysisConfig, SourceKind};
use jspdg::Annotation;
use jssig::{FlowLattice, FlowTypeSpec};

const ADDON: &str = r#"
window.addEventListener("load", function (e) {
  var here = content.location.href;
  if (here != "about:blank") {
    var req = new XMLHttpRequest();
    req.open("GET", "http://stats.example.net/hit?page=" + encodeURIComponent(here), true);
    req.send(null);
  }
}, false);
"#;

fn main() -> Result<(), addon_sig::Error> {
    // Policy 1: the paper's defaults.
    let report = Pipeline::new().run(ADDON)?;
    println!("paper lattice:\n{}", report.signature);

    // Policy 2: a two-point triage lattice -- every flow is either
    // "explicit" (pure data dependence) or "covert" (anything else) --
    // and only the URL is interesting.
    let config = AnalysisConfig::default().with_sources([SourceKind::Url]);
    let triage = FlowLattice::from_specs(vec![
        FlowTypeSpec {
            name: "explicit".into(),
            allowed: [Annotation::DataStrong, Annotation::DataWeak]
                .into_iter()
                .collect(),
        },
        FlowTypeSpec {
            name: "covert".into(),
            allowed: Annotation::ALL.into_iter().collect(),
        },
    ]);
    let report = Pipeline::new().config(config).lattice(triage).run(ADDON)?;
    println!(
        "triage lattice (type1=explicit, type2=covert):\n{}",
        report.signature
    );
    Ok(())
}
