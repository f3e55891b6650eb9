//! Byte pins for the observability event model: one instance of every
//! `ObsEvent` variant (plus the branches of its derived metrics) renders
//! to exact JSONL, and folds into an exact metrics snapshot.

use std::collections::BTreeSet;

use cachescope_obs::{IterationRecord, MeasuredRegion, Obs, ObsEvent, RegionFate};

fn sample() -> Vec<ObsEvent> {
    let h = || String::from("deadbeefdeadbeef");
    vec![
        ObsEvent::RunStart {
            app: "tomcatv".into(),
            limit: "AppMisses(100)".into(),
        },
        ObsEvent::RunEnd {
            now: 9,
            app_accesses: 8,
            app_misses: 7,
            unmapped_misses: 0,
            instr_cycles: 6,
            interrupts: 5,
        },
        ObsEvent::Interrupt {
            now: 1,
            kind: "miss_overflow",
        },
        ObsEvent::CounterProgram {
            now: 2,
            slot: 0,
            lo: 16,
            hi: 32,
        },
        ObsEvent::CounterDisable { now: 3, slot: 1 },
        ObsEvent::ArmMissOverflow {
            now: 4,
            period: 1000,
        },
        ObsEvent::ArmTimer {
            now: 5,
            deadline: 99,
        },
        ObsEvent::SamplerPeriod {
            now: 6,
            period: 500,
            reason: "adapt",
        },
        ObsEvent::SampleRejected {
            now: 6,
            reason: "spurious",
        },
        ObsEvent::FaultSummary {
            skidded: 1,
            dropped: 2,
            spurious: 3,
            wrapped: 4,
            delayed: 5,
            jittered: 6,
        },
        ObsEvent::SearchIntervalRetry {
            now: 7,
            attempt: 1,
            reason: "inconsistent",
        },
        ObsEvent::ReportDegraded { count: 2 },
        ObsEvent::CellCacheCorrupt {
            index: 3,
            hash: h(),
        },
        ObsEvent::SearchIteration(IterationRecord {
            now: 7,
            interval: 100,
            total: 50,
            regions: vec![MeasuredRegion {
                lo: 0,
                hi: 64,
                count: 50,
                atomic: true,
                object: Some("A".into()),
                fate: RegionFate::Requeued,
            }],
            terminated: true,
        }),
        ObsEvent::RegionSplit {
            now: 8,
            lo: 0,
            hi: 128,
            children: vec![(0, 64), (64, 128)],
            became_atomic: false,
        },
        ObsEvent::SearchFinal { now: 9, regions: 3 },
        ObsEvent::Alloc {
            now: 10,
            base: 4096,
            size: 64,
            name: None,
        },
        ObsEvent::Free {
            now: 11,
            base: 4096,
        },
        ObsEvent::PhaseMarker { now: 12, id: 2 },
        ObsEvent::TraceRecord {
            path: "t.trace".into(),
            events: 42,
        },
        ObsEvent::TraceReplay {
            path: "t.trace".into(),
            objects: 3,
        },
        ObsEvent::CampaignStart {
            name: "table1".into(),
            cells: 14,
        },
        ObsEvent::CellCacheHit {
            index: 0,
            hash: h(),
        },
        ObsEvent::CellStart {
            index: 1,
            hash: h(),
            workload: "tomcatv".into(),
            label: "sample".into(),
        },
        ObsEvent::CellFinish {
            index: 1,
            hash: h(),
        },
        ObsEvent::CellRetry {
            index: 2,
            hash: h(),
            attempt: 1,
            error: "boom".into(),
        },
        ObsEvent::CellPanic {
            index: 2,
            hash: h(),
            error: "boom".into(),
        },
        ObsEvent::CampaignEnd {
            name: "table1".into(),
            completed: 13,
            cache_hits: 5,
            failed: 1,
        },
        ObsEvent::CheckDiagnostic {
            code: "CS-W001".into(),
            severity: "error",
            file: "t.trace".into(),
            line: 12,
            message: "double alloc".into(),
        },
        ObsEvent::SessionStart {
            id: 1,
            peer: "unix".into(),
        },
        ObsEvent::SessionReject {
            id: 2,
            code: "busy".into(),
            reason: "8 sessions active".into(),
        },
        ObsEvent::SessionSimStart { id: 1, hash: h() },
        ObsEvent::SessionDedup {
            id: 3,
            hash: h(),
            source: "inflight",
        },
        ObsEvent::SessionEnd {
            id: 1,
            bytes: 4096,
            events: 100,
            ms: 12,
        },
        ObsEvent::ServeDrain { active: 2 },
        ObsEvent::ServeStop {
            served: 10,
            rejected: 1,
        },
        ObsEvent::FuzzScenario {
            name: "stride_mix".into(),
            seed: 77,
            budget_refs: 20_000,
        },
        ObsEvent::FuzzSilentInversion {
            scenario: "stride_mix".into(),
            technique: "search".into(),
            level: "heavy".into(),
            inversions: 2,
        },
        ObsEvent::FuzzMinimizeStep {
            scenario: "stride_mix".into(),
            action: "drop_object".into(),
            refs: 5_000,
        },
        // The other branch of every event whose rendering or metrics
        // depend on its values.
        ObsEvent::RunEnd {
            now: 0,
            app_accesses: 0,
            app_misses: 0,
            unmapped_misses: 0,
            instr_cycles: 0,
            interrupts: 0,
        },
        ObsEvent::RunEnd {
            now: 1000,
            app_accesses: 500,
            app_misses: 100,
            unmapped_misses: 25,
            instr_cycles: 250,
            interrupts: 3,
        },
        ObsEvent::Interrupt {
            now: 301,
            kind: "timer",
        },
        ObsEvent::Interrupt {
            now: 5000,
            kind: "miss_overflow",
        },
        ObsEvent::SamplerPeriod {
            now: 20,
            period: 1234,
            reason: "initial",
        },
        ObsEvent::SearchIteration(IterationRecord {
            now: 2000,
            interval: 500,
            total: 0,
            regions: vec![
                MeasuredRegion {
                    lo: 0x1000,
                    hi: 0x2000,
                    count: 0,
                    atomic: false,
                    object: None,
                    fate: RegionFate::RetainedZero,
                },
                MeasuredRegion {
                    lo: 0x2000,
                    hi: 0x3000,
                    count: 0,
                    atomic: true,
                    object: Some("RX".into()),
                    fate: RegionFate::Dropped,
                },
            ],
            terminated: false,
        }),
        ObsEvent::SearchIteration(IterationRecord {
            now: 2500,
            interval: 500,
            total: 0,
            regions: Vec::new(),
            terminated: false,
        }),
        ObsEvent::RegionSplit {
            now: 30,
            lo: 64,
            hi: 128,
            children: Vec::new(),
            became_atomic: true,
        },
        ObsEvent::Alloc {
            now: 40,
            base: 8192,
            size: 256,
            name: Some("grid \"A\"\\\n\té\u{1}".into()),
        },
        ObsEvent::CheckDiagnostic {
            code: "CS-T002".into(),
            severity: "warning",
            file: "app.c".into(),
            line: 0,
            message: "unmatched free".into(),
        },
        ObsEvent::SessionDedup {
            id: 4,
            hash: h(),
            source: "disk",
        },
        ObsEvent::SessionEnd {
            id: 4,
            bytes: 1,
            events: 0,
            ms: 70_000,
        },
    ]
}

const JSONL: &str = r#"{"type":"run_start","app":"tomcatv","limit":"AppMisses(100)"}
{"type":"run_end","now":9,"app_accesses":8,"app_misses":7,"unmapped_misses":0,"instr_cycles":6,"interrupts":5}
{"type":"interrupt","now":1,"kind":"miss_overflow"}
{"type":"counter_program","now":2,"slot":0,"lo":16,"hi":32}
{"type":"counter_disable","now":3,"slot":1}
{"type":"arm_miss_overflow","now":4,"period":1000}
{"type":"arm_timer","now":5,"deadline":99}
{"type":"sampler_period","now":6,"period":500,"reason":"adapt"}
{"type":"sample_rejected","now":6,"reason":"spurious"}
{"type":"fault_summary","skidded":1,"dropped":2,"spurious":3,"wrapped":4,"delayed":5,"jittered":6}
{"type":"search_interval_retry","now":7,"attempt":1,"reason":"inconsistent"}
{"type":"report_degraded","count":2}
{"type":"cell_cache_corrupt","index":3,"hash":"deadbeefdeadbeef"}
{"type":"search_iteration","now":7,"interval":100,"total":50,"terminated":true,"regions":[{"lo":0,"hi":64,"count":50,"atomic":true,"fate":"requeued","object":"A"}]}
{"type":"region_split","now":8,"lo":0,"hi":128,"children":[[0,64],[64,128]],"became_atomic":false}
{"type":"search_final","now":9,"regions":3}
{"type":"alloc","now":10,"base":4096,"size":64}
{"type":"free","now":11,"base":4096}
{"type":"phase","now":12,"id":2}
{"type":"trace_record","path":"t.trace","events":42}
{"type":"trace_replay","path":"t.trace","objects":3}
{"type":"campaign_start","name":"table1","cells":14}
{"type":"cell_cache_hit","index":0,"hash":"deadbeefdeadbeef"}
{"type":"cell_start","index":1,"hash":"deadbeefdeadbeef","workload":"tomcatv","label":"sample"}
{"type":"cell_finish","index":1,"hash":"deadbeefdeadbeef"}
{"type":"cell_retry","index":2,"hash":"deadbeefdeadbeef","attempt":1,"error":"boom"}
{"type":"cell_panic","index":2,"hash":"deadbeefdeadbeef","error":"boom"}
{"type":"campaign_end","name":"table1","completed":13,"cache_hits":5,"failed":1}
{"type":"check_diagnostic","code":"CS-W001","severity":"error","file":"t.trace","line":12,"message":"double alloc"}
{"type":"session_start","id":1,"peer":"unix"}
{"type":"session_reject","id":2,"code":"busy","reason":"8 sessions active"}
{"type":"session_sim_start","id":1,"hash":"deadbeefdeadbeef"}
{"type":"session_dedup","id":3,"hash":"deadbeefdeadbeef","source":"inflight"}
{"type":"session_end","id":1,"bytes":4096,"events":100,"ms":12}
{"type":"serve_drain","active":2}
{"type":"serve_stop","served":10,"rejected":1}
{"type":"fuzz_scenario","name":"stride_mix","seed":77,"budget_refs":20000}
{"type":"fuzz_silent_inversion","scenario":"stride_mix","technique":"search","level":"heavy","inversions":2}
{"type":"fuzz_minimize_step","scenario":"stride_mix","action":"drop_object","refs":5000}
{"type":"run_end","now":0,"app_accesses":0,"app_misses":0,"unmapped_misses":0,"instr_cycles":0,"interrupts":0}
{"type":"run_end","now":1000,"app_accesses":500,"app_misses":100,"unmapped_misses":25,"instr_cycles":250,"interrupts":3}
{"type":"interrupt","now":301,"kind":"timer"}
{"type":"interrupt","now":5000,"kind":"miss_overflow"}
{"type":"sampler_period","now":20,"period":1234,"reason":"initial"}
{"type":"search_iteration","now":2000,"interval":500,"total":0,"terminated":false,"regions":[{"lo":4096,"hi":8192,"count":0,"atomic":false,"fate":"retained_zero"},{"lo":8192,"hi":12288,"count":0,"atomic":true,"fate":"dropped","object":"RX"}]}
{"type":"search_iteration","now":2500,"interval":500,"total":0,"terminated":false,"regions":[]}
{"type":"region_split","now":30,"lo":64,"hi":128,"children":[],"became_atomic":true}
{"type":"alloc","now":40,"base":8192,"size":256,"name":"grid \"A\"\\\n\té\u0001"}
{"type":"check_diagnostic","code":"CS-T002","severity":"warning","file":"app.c","line":0,"message":"unmatched free"}
{"type":"session_dedup","id":4,"hash":"deadbeefdeadbeef","source":"disk"}
{"type":"session_end","id":4,"bytes":1,"events":0,"ms":70000}
"#;

const METRICS: &str = concat!(
    r#"{"counters":{"campaign.cache_corrupt":1,"campaign.cache_hits":1"#,
    r#","campaign.cell_starts":1,"campaign.cells_completed":1,"campaign.panics":1"#,
    r#","campaign.retries":1,"check.diagnostics":2,"check.errors":1"#,
    r#","engine.interrupts.miss_overflow":2,"engine.interrupts.timer":1"#,
    r#","fuzz.minimize_steps":1,"fuzz.scenarios":1,"fuzz.silent_inversions":1"#,
    r#","hwpm.faults_injected":21,"obs.events":51,"pmu.arm_miss_overflow":1"#,
    r#","pmu.arm_timer":1,"pmu.counter_disables":1,"pmu.counter_programs":1"#,
    r#","program.allocs":2,"program.frees":1,"program.phase_markers":1,"report.degraded":2"#,
    r#","sampler.period_changes":2,"sampler.samples_rejected":1,"search.final_phases":1"#,
    r#","search.intervals_retried":1,"search.iterations":3,"search.regions_became_atomic":1"#,
    r#","search.regions_dropped":1,"search.regions_requeued":1"#,
    r#","search.regions_retained_zero":1,"search.splits":1,"serve.bytes_in":4097"#,
    r#","serve.dedup_hits":2,"serve.rejects":1,"serve.sessions":1,"serve.sessions_served":2"#,
    r#","serve.sim_starts":1,"serve.stops":1},"gauges":{"campaign.cells":14"#,
    r#","engine.instr_cycle_share":0.25,"engine.unmapped_miss_rate":0.25"#,
    r#","sampler.period":1234,"serve.drain_active":2}"#,
    r#","histograms":{"engine.interrupt_interarrival_cycles":{"count":2,"sum":4999"#,
    r#","min":300,"max":4699,"mean":2499.5,"p50":1024,"p95":4699,"p99":4699"#,
    r#","buckets":[{"le":1,"count":0},{"le":4,"count":0},{"le":16,"count":0},{"le":64"#,
    r#","count":0},{"le":256,"count":0},{"le":1024,"count":1},{"le":4096,"count":0}"#,
    r#",{"le":16384,"count":1},{"le":65536,"count":0},{"le":262144,"count":0},{"le":1048576"#,
    r#","count":0},{"le":4194304,"count":0},{"le":16777216,"count":0},{"le":67108864"#,
    r#","count":0},{"le":268435456,"count":0},{"le":1073741824,"count":0},{"le":null"#,
    r#","count":0}]},"search.split_region_bytes":{"count":1,"sum":128,"min":128,"max":128"#,
    r#","mean":128,"p50":128,"p95":128,"p99":128,"buckets":[{"le":1,"count":0},{"le":4"#,
    r#","count":0},{"le":16,"count":0},{"le":64,"count":0},{"le":256,"count":1},{"le":1024"#,
    r#","count":0},{"le":4096,"count":0},{"le":16384,"count":0},{"le":65536,"count":0}"#,
    r#",{"le":262144,"count":0},{"le":1048576,"count":0},{"le":4194304,"count":0}"#,
    r#",{"le":16777216,"count":0},{"le":67108864,"count":0},{"le":268435456,"count":0}"#,
    r#",{"le":1073741824,"count":0},{"le":null,"count":0}]},"serve.session_ms":{"count":2"#,
    r#","sum":70012,"min":12,"max":70000,"mean":35006,"p50":16,"p95":70000,"p99":70000"#,
    r#","buckets":[{"le":1,"count":0},{"le":4,"count":0},{"le":16,"count":1},{"le":64"#,
    r#","count":0},{"le":256,"count":0},{"le":1024,"count":0},{"le":4096,"count":0}"#,
    r#",{"le":16384,"count":0},{"le":65536,"count":0},{"le":262144,"count":1},{"le":1048576"#,
    r#","count":0},{"le":4194304,"count":0},{"le":16777216,"count":0},{"le":67108864"#,
    r#","count":0},{"le":268435456,"count":0},{"le":1073741824,"count":0},{"le":null"#,
    r#","count":0}]}}}"#,
);

#[test]
fn every_variant_renders_to_its_exact_jsonl_line() {
    let events = sample();
    let want: Vec<&str> = JSONL.lines().collect();
    assert_eq!(events.len(), want.len());
    for (ev, want) in events.iter().zip(want) {
        assert_eq!(ev.to_json().render(), want);
    }
    assert_eq!(cachescope_obs::events_to_jsonl(&events), JSONL);
}

#[test]
fn the_sample_derives_an_exact_metrics_snapshot() {
    let mut obs = Obs::new();
    for ev in sample() {
        obs.emit(ev);
    }
    assert_eq!(obs.metrics.to_json().render(), METRICS);
}

#[test]
fn kinds_are_39_distinct_tags_and_the_sample_covers_each() {
    let kinds: BTreeSet<&str> = ObsEvent::KINDS.iter().copied().collect();
    assert_eq!(ObsEvent::KINDS.len(), 39);
    assert_eq!(kinds.len(), 39, "duplicate tags in {:?}", ObsEvent::KINDS);
    let sampled: BTreeSet<&str> = sample().iter().map(ObsEvent::kind).collect();
    assert_eq!(sampled, kinds);
}
