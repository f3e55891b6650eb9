//! Property oracle: simulated ground truth must land inside the
//! statically provable miss bounds — for every registry workload, under
//! several cache geometries, with and without instrumentation traffic,
//! on adversarial churn/aliasing workloads, and on hostile extent layouts
//! every technique must agree with ground truth about.
//!
//! The bounds are sound by construction (min = certain misses under any
//! interleaved traffic, max = accesses), so any escape here is an
//! engine or analyzer bug — the class differential testing cannot see
//! because it fools every technique column by the same amount.

use cachescope_analyze::{analyze_program, AnalysisLimit, AnalyzeConfig, BoundsReport};
use cachescope_campaign::registry;
use cachescope_check::bounds::check_report_bounds;
use cachescope_core::export::report_to_json;
use cachescope_core::{Experiment, ExperimentReport, FaultConfig, SamplerConfig, TechniqueConfig};
use cachescope_sim::address_space::HEAP_BASE;
use cachescope_sim::{CacheConfig, Event, MemRef, ObjectDecl, Program, RunLimit, TraceProgram};
use cachescope_workloads::fuzz::{
    AccessMode, ChurnDef, FuzzWorkload, Pattern, PhaseDef, Scenario, TargetDef, TargetKind,
};
use cachescope_workloads::spec::Scale;

/// Accesses per cell: enough to cross phase boundaries in every SPEC95
/// analogue at test scale, small enough for debug-mode CI.
const REFS: u64 = 10_000;

/// The monitored-cache geometries the oracle is checked under: the
/// default 2 MiB / 4-way, a small 256 KiB / 8-way and a tiny
/// 64 KiB / 2-way (per-set pressure without set pressure and vice
/// versa).
fn cache_configs() -> [(&'static str, CacheConfig); 3] {
    let default = CacheConfig::default();
    [
        ("2m4w", default.clone()),
        (
            "256k8w",
            CacheConfig {
                size_bytes: 256 * 1024,
                assoc: 8,
                ..default.clone()
            },
        ),
        (
            "64k2w",
            CacheConfig {
                size_bytes: 64 * 1024,
                assoc: 2,
                ..default
            },
        ),
    ]
}

/// Analyze `program` under `cache` for the exact `REFS`-access prefix a
/// cell simulates.
fn bounds_under(program: &mut dyn Program, cache: CacheConfig, refs: u64) -> BoundsReport {
    let cfg = AnalyzeConfig {
        cache,
        limit: AnalysisLimit::Accesses(refs),
        ..AnalyzeConfig::default()
    };
    analyze_program(program, &cfg)
}

/// Run one cell and assert its ground truth is consistent with the
/// oracle computed from a fresh instance of the same program.
fn assert_cell_in_bounds<P: Program>(
    program: P,
    bounds: &BoundsReport,
    cache: CacheConfig,
    technique: TechniqueConfig,
    faults: FaultConfig,
    source: &str,
) -> ExperimentReport {
    let report = Experiment::new(program)
        .cache(cache)
        .technique(technique)
        .counters(10)
        .limit(RunLimit::AppAccesses(REFS))
        .faults(faults)
        .run();
    let diags = check_report_bounds(&report_to_json(&report), bounds, source);
    assert!(diags.is_empty(), "{source}: {diags:?}");
    report
}

#[test]
fn spec95_ground_truth_within_bounds_across_cache_configs() {
    for name in registry::SPEC95 {
        for (label, cache) in cache_configs() {
            let mut program = registry::instantiate(name, Scale::Test).expect("registry workload");
            let bounds = bounds_under(&mut *program, cache.clone(), REFS);
            assert_eq!(bounds.total_accesses, REFS, "{name}/{label}");
            let program = registry::instantiate(name, Scale::Test).expect("registry workload");
            assert_cell_in_bounds(
                program,
                &bounds,
                cache,
                TechniqueConfig::None,
                FaultConfig::default(),
                &format!("{name}/{label}"),
            );
        }
    }
}

#[test]
fn instrumentation_traffic_cannot_escape_the_bounds() {
    // Sampling handlers inject their own cache traffic and faulty PMUs
    // skid attribution — neither may push ground truth outside bounds
    // proved from the app stream alone.
    let faults = FaultConfig {
        skid_rate: 0.3,
        ..FaultConfig::default()
    };
    for name in registry::SPEC95 {
        let cache = CacheConfig::default();
        let mut program = registry::instantiate(name, Scale::Test).expect("registry workload");
        let bounds = bounds_under(&mut *program, cache.clone(), REFS);
        let program = registry::instantiate(name, Scale::Test).expect("registry workload");
        assert_cell_in_bounds(
            program,
            &bounds,
            cache,
            TechniqueConfig::Sampling(SamplerConfig::fixed(128)),
            faults.clone(),
            &format!("{name}/sampled"),
        );
    }
}

/// Heap churn: a streamed heap block freed and re-allocated every 64
/// slots, mixed with a random-line global. Extents move mid-run, which
/// is exactly what the analyzer's epoch tracking must follow.
fn churn_scenario() -> Scenario {
    Scenario {
        name: "oracle-churn".into(),
        seed: 7,
        budget_refs: REFS,
        targets: vec![
            TargetDef {
                name: "churned".into(),
                size: 32 * 1024,
                kind: TargetKind::Heap,
                mode: AccessMode::Stream,
            },
            TargetDef {
                name: "stable".into(),
                size: 16 * 1024,
                kind: TargetKind::Global,
                mode: AccessMode::RandomLine,
            },
        ],
        phases: vec![PhaseDef {
            refs: REFS,
            compute: 0,
            pattern: Pattern::Mix {
                weights: vec![3, 1],
            },
            churn: Some(ChurnDef {
                target: 0,
                period: 64,
            }),
        }],
    }
}

/// Way-aliasing: two fixed-address heap blocks whose strided walks pile
/// into the same cache sets (stride = one way of the default cache),
/// plus an undeclared region so unmapped bounds are exercised too.
fn alias_scenario() -> Scenario {
    let way_bytes = 8192 * 64; // default geometry: 8192 sets of 64 B
    Scenario {
        name: "oracle-alias".into(),
        seed: 11,
        budget_refs: REFS,
        targets: vec![
            TargetDef {
                name: "pile_a".into(),
                size: 3 * way_bytes,
                kind: TargetKind::HeapAt(HEAP_BASE + 64 * 1024 * 1024),
                mode: AccessMode::Stride { lines: 8192 },
            },
            TargetDef {
                name: "pile_b".into(),
                size: 3 * way_bytes,
                kind: TargetKind::HeapAt(HEAP_BASE + 68 * 1024 * 1024),
                mode: AccessMode::Stride { lines: 8192 },
            },
            TargetDef {
                name: "ghost".into(),
                size: 4 * 1024,
                kind: TargetKind::Anon,
                mode: AccessMode::Stream,
            },
        ],
        phases: vec![PhaseDef {
            refs: REFS,
            compute: 0,
            pattern: Pattern::Mix {
                weights: vec![2, 2, 1],
            },
            churn: None,
        }],
    }
}

#[test]
fn adversarial_workloads_stay_within_bounds() {
    for scenario in [churn_scenario(), alias_scenario()] {
        scenario.validate().expect("adversarial scenario is valid");
        for (tech_label, technique) in [
            ("none", TechniqueConfig::None),
            (
                "sample",
                TechniqueConfig::Sampling(SamplerConfig::fixed(128)),
            ),
        ] {
            let cache = CacheConfig::default();
            let mut fresh = FuzzWorkload::new(scenario.clone()).expect("instantiates");
            let bounds = bounds_under(&mut fresh, cache.clone(), REFS);
            assert!(bounds.total_accesses > 0);
            let program = FuzzWorkload::new(scenario.clone()).expect("instantiates");
            assert_cell_in_bounds(
                program,
                &bounds,
                cache,
                technique,
                FaultConfig::default(),
                &format!("{}/{tech_label}", scenario.name),
            );
        }
    }
}

/// A hostile extent layout: statics plus a prefix of allocator events,
/// then `REFS` line-strided reads sweeping `[lo, hi)` over and over.
fn extent_case(
    name: &str,
    statics: Vec<ObjectDecl>,
    allocs: &[(u64, u64, &str)],
    (lo, hi): (u64, u64),
) -> (String, TraceProgram) {
    let mut events: Vec<Event> = allocs
        .iter()
        .map(|&(base, size, n)| Event::Alloc {
            base,
            size,
            name: Some(n.to_string()),
        })
        .collect();
    let lines = (hi - lo) / 64;
    events.extend((0..REFS).map(|i| Event::Access(MemRef::read(lo + (i % lines) * 64, 8))));
    (name.to_string(), TraceProgram::new(name, statics, events))
}

/// Layouts the engine's admission rule (first declaration wins, a
/// zero-size extent claims its base but never resolves) decides, and
/// which the techniques' object map and the analyzer once decided
/// differently.
fn extent_cases() -> Vec<(String, TraceProgram)> {
    let s = 0x1000_0000u64;
    let h = HEAP_BASE;
    let kib = 1024u64;
    let global = |n: &str, base, size| ObjectDecl::global(n, base, size);
    vec![
        extent_case(
            "zero-size-alloc-at-live-base",
            vec![global("g", s, 64 * kib)],
            &[(h, 64 * kib, "buf"), (h, 0, "ghost")],
            (h, h + 64 * kib),
        ),
        extent_case(
            "zero-size-then-real-alloc",
            vec![global("g", s, 64 * kib)],
            &[(h, 0, "empty"), (h, 64 * kib, "late")],
            (h, h + 64 * kib),
        ),
        extent_case(
            "overlapping-statics",
            vec![
                global("a", s, 64 * kib),
                global("b", s + 32 * kib, 64 * kib),
            ],
            &[],
            (s, s + 96 * kib),
        ),
        extent_case(
            "zero-size-static",
            vec![global("z", s, 0), global("a", s + 32 * kib, 64 * kib)],
            &[],
            (s, s + 96 * kib),
        ),
        extent_case(
            "alloc-over-static",
            vec![global("g", s, 64 * kib)],
            &[(s + 32 * kib, 64 * kib, "h")],
            (s, s + 96 * kib),
        ),
    ]
}

#[test]
fn hostile_extents_agree_across_techniques_and_the_analyzer() {
    for (name, program) in extent_cases() {
        let cache = CacheConfig::default();
        let bounds = bounds_under(&mut program.clone(), cache.clone(), REFS);
        let mut row_sets = Vec::new();
        for (label, technique) in [
            ("none", TechniqueConfig::None),
            ("sample", TechniqueConfig::sampling(50)),
            ("search", TechniqueConfig::search()),
        ] {
            let report = assert_cell_in_bounds(
                program.clone(),
                &bounds,
                cache.clone(),
                technique,
                FaultConfig::default(),
                &format!("{name}/{label}"),
            );
            assert!(report.stats.app.misses > 0, "{name}/{label}");
            let rows: Vec<String> = report.rows().iter().map(|r| r.name.clone()).collect();
            row_sets.push((label, rows));
        }
        let (_, want) = &row_sets[0];
        for (label, rows) in &row_sets {
            assert_eq!(rows, want, "{name}/{label}: rows differ from ground truth");
        }
    }
}
