//! Golden file: the `PerfPlay` facade's report on every Table 1 application
//! model and every case-study program, each at 4 threads and recorded with
//! `SimConfig::default()`.
//!
//! `tests/fixtures/facade-reports.txt` holds one line per input: its name and
//! the FNV-1a digest of `report.to_json()`. The lines were recorded while the
//! facade still assembled its report from a materialized pair list, so the
//! plan-routed facade, which re-ranks by an aggregating exact-gain pass, must
//! reproduce each one: same breakdown, impact, ranking, transform statistics
//! and JSON form. It must do so with batch detection (the default) and with
//! detection streamed in 64-event chunks, which the facade runs when its
//! pipeline configuration sets `chunk_events`.

use std::path::PathBuf;

use perfplay::prelude::{PipelineConfig, Program};
use perfplay::workloads::{cases, App, InputSize, WorkloadConfig};
use perfplay::{PerfPlay, PerfPlayConfig};

/// 64-bit FNV-1a over bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Every golden input, named: `App::ALL`, then the five case programs.
fn inputs() -> Vec<(String, Program)> {
    let config = WorkloadConfig::new(4, InputSize::SimSmall);
    let mut inputs: Vec<(String, Program)> = App::ALL
        .iter()
        .map(|app| (app.name().to_string(), app.build(&config)))
        .collect();
    let case_programs = [
        (
            "bug1_openldap_spinwait",
            cases::bug1_openldap_spinwait(&config),
        ),
        ("bug1_fixed_barrier", cases::bug1_fixed_barrier(&config)),
        ("bug2_pbzip2_join", cases::bug2_pbzip2_join(&config)),
        ("bug2_fixed_signal", cases::bug2_fixed_signal(&config)),
        (
            "mysql_68573_query_cache",
            cases::mysql_68573_query_cache(&config),
        ),
    ];
    inputs.extend(
        case_programs
            .into_iter()
            .map(|(name, program)| (name.to_string(), program)),
    );
    inputs
}

/// One `<name>\t<digest>` line per input, in `inputs` order, from
/// `perfplay`'s reports.
fn facade_lines(perfplay: &PerfPlay) -> Vec<String> {
    inputs()
        .into_iter()
        .map(|(name, program)| {
            let report = perfplay
                .analyze_program(&program)
                .unwrap_or_else(|e| panic!("{name}: {e}"))
                .report;
            format!("{name}\t{:016x}", fnv1a(report.to_json().as_bytes()))
        })
        .collect()
}

#[test]
fn facade_reproduces_the_golden_reports() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/facade-reports.txt");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let golden: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
    assert_eq!(golden.len(), App::ALL.len() + 5);
    let streamed = PerfPlay::with_config(PerfPlayConfig {
        pipeline: PipelineConfig {
            chunk_events: Some(64),
            ..PipelineConfig::default()
        },
        ..PerfPlayConfig::default()
    });
    for (detection, perfplay) in [("batch", PerfPlay::new()), ("streamed", streamed)] {
        let actual = facade_lines(&perfplay);
        assert_eq!(actual.len(), golden.len());
        for (line, expected) in actual.iter().zip(&golden) {
            assert_eq!(line, expected, "{detection} detection");
        }
    }
}
