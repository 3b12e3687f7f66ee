//! Prints the flow-type lattice of the paper's Figure 4: each type's
//! allowed edge annotations, the Hasse ordering, and the paper's
//! `extend` / `max` examples.

use jssig::{FlowLattice, FlowType};

fn main() {
    let l = FlowLattice::paper();
    println!("Flow-type lattice (paper Figure 4)\n");
    for i in 0..l.len() as u8 {
        let t = FlowType(i);
        let spec = l.spec(t);
        let anns: Vec<String> = spec.allowed.iter().map(|a| a.to_string()).collect();
        println!("  {:<6} allows: {}", t.to_string(), anns.join(", "));
    }
    println!("\nHasse ordering (a > b = a strictly stronger):");
    for a in 0..l.len() as u8 {
        for b in 0..l.len() as u8 {
            if a == b {
                continue;
            }
            let (ta, tb) = (FlowType(a), FlowType(b));
            if l.stronger_or_equal(ta, tb) {
                // Only immediate (covering) relations for readability.
                let covering = !(0..l.len() as u8).any(|c| {
                    c != a
                        && c != b
                        && l.stronger_or_equal(ta, FlowType(c))
                        && l.stronger_or_equal(FlowType(c), tb)
                });
                if covering {
                    println!("  {ta} > {tb}");
                }
            }
        }
    }
    println!("\nPaper examples:");
    let nle_amp = jspdg::Annotation::Ctrl {
        kind: jspdg::CtrlKind::NonLocExp,
        amp: true,
    };
    println!(
        "  extend(type4, nonlocexp^amp) = {}",
        l.extend(FlowType(3), nle_amp)
    );
    println!(
        "  extend(type3, nonlocexp^amp) = {}",
        l.extend(FlowType(2), nle_amp)
    );
    let set = [FlowType(3), FlowType(4), FlowType(5)]
        .into_iter()
        .collect();
    let m: Vec<String> = l.max(&set).iter().map(|t| t.to_string()).collect();
    println!("  max({{type4, type5, type6}}) = {{{}}}", m.join(", "));
}
