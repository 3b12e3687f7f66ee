//! Integration tests for PDG slicing on real corpus addons: the vetter's
//! "show me the code behind this signature entry" workflow.

use addon_sig::analyze_addon;
use jspdg::{backward_slice, chop, witness_path, SliceFilter};
use std::collections::BTreeSet;

/// Source lines touched by a statement set.
fn lines(report: &addon_sig::Report, stmts: &BTreeSet<jsir::StmtId>) -> BTreeSet<u32> {
    stmts
        .iter()
        .map(|s| report.lowered.program.stmt(*s).span.line)
        .collect()
}

#[test]
fn pinpoints_geocode_slice_reaches_the_clip_handler() {
    let addon = corpus::addon_by_name("PinPoints").unwrap();
    let report = analyze_addon(addon.source).unwrap();
    // The maps.google.com sink.
    let sink = report
        .analysis
        .sinks
        .iter()
        .find(|s| {
            s.domain
                .known_text()
                .is_some_and(|d| d.contains("maps.google.com"))
        })
        .expect("geocode sink");
    let slice = backward_slice(&report.pdg, sink.stmt, SliceFilter::All);
    let ls = lines(&report, &slice);
    // The slice must include the geocode request construction and the
    // context-menu handler that triggers it.
    let src_lines: Vec<(usize, &str)> = addon.source.lines().enumerate().collect();
    let geocode_line = src_lines
        .iter()
        .find(|(_, l)| l.contains("geocodeEndpoint + encodeURIComponent"))
        .map(|(i, _)| *i as u32 + 1)
        .expect("geocode line exists");
    let handler_line = src_lines
        .iter()
        .find(|(_, l)| l.contains("ppt_geocodeAndSave(text)"))
        .map(|(i, _)| *i as u32 + 1)
        .expect("handler call line exists");
    assert!(ls.contains(&geocode_line), "geocode construction in slice");
    assert!(ls.contains(&handler_line), "clip handler in slice");
}

#[test]
fn youtubedownloader_video_id_witness_is_explicit() {
    let addon = corpus::addon_by_name("YoutubeDownloader").unwrap();
    let report = analyze_addon(addon.source).unwrap();
    // Source: the URL read; sink: the get_video_info request.
    let source = *report
        .analysis
        .source_stmts()
        .iter()
        .find(|(_, k)| k.contains(&jsanalysis::SourceKind::Url))
        .map(|(s, _)| s)
        .unwrap();
    let sink = report
        .analysis
        .sinks
        .iter()
        .find(|s| {
            s.domain
                .known_text()
                .is_some_and(|d| d.contains("get_video_info"))
        })
        .expect("video info sink");
    // A data-only witness must exist: the flow is explicit.
    let path = witness_path(&report.pdg, source, sink.stmt, SliceFilter::DataOnly);
    assert!(
        path.is_some(),
        "explicit video-id flow has a pure data path"
    );
    // And it passes through the extractor function.
    let p = path.unwrap();
    let ls: BTreeSet<u32> = p
        .iter()
        .map(|(s, _)| report.lowered.program.stmt(*s).span.line)
        .collect();
    let extract_line = addon
        .source
        .lines()
        .position(|l| l.contains("url.substring(marker + 2)"))
        .map(|i| i as u32 + 1)
        .expect("extractor line");
    assert!(
        ls.contains(&extract_line),
        "witness path {ls:?} misses the extractor at line {extract_line}"
    );
}

#[test]
fn vk_flow_has_no_data_only_witness() {
    // VKVideoDownloader's flow is purely implicit: a data-only filter must
    // find NO path from the URL read to the send.
    let addon = corpus::addon_by_name("VKVideoDownloader").unwrap();
    let report = analyze_addon(addon.source).unwrap();
    let source = *report
        .analysis
        .source_stmts()
        .iter()
        .find(|(_, k)| k.contains(&jsanalysis::SourceKind::Url))
        .map(|(s, _)| s)
        .unwrap();
    let sink = report
        .analysis
        .sinks
        .iter()
        .find(|s| s.kind == jsanalysis::SinkKind::Send)
        .unwrap();
    assert!(
        witness_path(&report.pdg, source, sink.stmt, SliceFilter::DataOnly).is_none(),
        "url data must not reach the send"
    );
    assert!(
        witness_path(&report.pdg, source, sink.stmt, SliceFilter::All).is_some(),
        "but a control-carrying path exists"
    );
}

#[test]
fn chop_is_smaller_than_whole_addon() {
    let addon = corpus::addon_by_name("LivePagerank").unwrap();
    let report = analyze_addon(addon.source).unwrap();
    let source = *report
        .analysis
        .source_stmts()
        .iter()
        .find(|(_, k)| k.contains(&jsanalysis::SourceKind::Url))
        .map(|(s, _)| s)
        .unwrap();
    let sink = report
        .analysis
        .sinks
        .iter()
        .find(|s| s.kind == jsanalysis::SinkKind::Send)
        .unwrap();
    let c = chop(&report.pdg, source, sink.stmt, SliceFilter::All);
    assert!(!c.is_empty());
    // The chop focuses the vetter: far fewer statements than the addon.
    assert!(
        c.len() * 3 < report.lowered.program.stmt_count(),
        "chop of {} statements vs {} total is not focusing anything",
        c.len(),
        report.lowered.program.stmt_count()
    );
}
