//! The typed observability event stream.
//!
//! Every layer of the pipeline reports what it did — run phases, interrupt
//! deliveries, PMU reprogramming, sampler period adaptations, searcher
//! split/requeue/terminate decisions, trace record/replay — as a typed
//! [`ObsEvent`]. Events are tool-side state: recording one never charges
//! simulated cycles or touches the simulated cache, so an instrumented
//! run's `instr_cycles` is bit-identical with and without tracing.
//!
//! Each event serializes to one JSON object (`{"type": ..., ...}`); a
//! trace file is JSONL — one event per line.
//!
//! The event model is one table, the `event_table!` invocation below.
//! Each row declares a variant, its `type` tag, its fields in rendering
//! order and the metrics [`Obs::emit`] derives from it; the enum,
//! [`ObsEvent::kind`], [`ObsEvent::to_json`], [`ObsEvent::KINDS`] and the
//! metric derivation are generated from the rows.

use crate::json::Json;
use crate::Obs;

/// A value that renders as one field of a JSON object.
trait Field {
    fn json(&self) -> Json;

    /// Append `name: value` to an object's fields.
    fn put(&self, name: &'static str, fields: &mut Vec<(&'static str, Json)>) {
        fields.push((name, self.json()));
    }
}

/// An object's fields, each rendered under its own name, in the order
/// given.
macro_rules! fields {
    ($value:ident: $($field:ident),*) => {{
        let mut fields = Vec::new();
        $( $value.$field.put(stringify!($field), &mut fields); )*
        fields
    }};
}

impl Field for u64 {
    fn json(&self) -> Json {
        Json::Uint(*self)
    }
}

impl Field for usize {
    fn json(&self) -> Json {
        Json::Uint(*self as u64)
    }
}

impl Field for u32 {
    fn json(&self) -> Json {
        Json::Uint(u64::from(*self))
    }
}

impl Field for bool {
    fn json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl Field for String {
    fn json(&self) -> Json {
        Json::str(self.clone())
    }
}

impl Field for &'static str {
    fn json(&self) -> Json {
        Json::str(*self)
    }
}

/// `None` omits the field rather than rendering `null`.
impl<T: Field> Field for Option<T> {
    fn json(&self) -> Json {
        self.as_ref().map_or(Json::Null, Field::json)
    }

    fn put(&self, name: &'static str, fields: &mut Vec<(&'static str, Json)>) {
        if let Some(value) = self {
            value.put(name, fields);
        }
    }
}

/// An address range renders as `[lo, hi]`.
impl Field for (u64, u64) {
    fn json(&self) -> Json {
        Json::Arr(vec![self.0.json(), self.1.json()])
    }
}

impl<T: Field> Field for Vec<T> {
    fn json(&self) -> Json {
        Json::Arr(self.iter().map(Field::json).collect())
    }
}

/// What happened to one measured region in one search iteration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionFate {
    /// Nonzero count: re-queued (and later possibly split).
    Requeued,
    /// Zero count but retained by the phase heuristic.
    RetainedZero,
    /// Zero count, discarded.
    Dropped,
}

impl Field for RegionFate {
    fn json(&self) -> Json {
        Json::str(match self {
            RegionFate::Requeued => "requeued",
            RegionFate::RetainedZero => "retained_zero",
            RegionFate::Dropped => "dropped",
        })
    }
}

/// One region's measurement within a search iteration.
#[derive(Debug, Clone)]
pub struct MeasuredRegion {
    pub lo: u64,
    pub hi: u64,
    /// Scaled miss count for the interval.
    pub count: u64,
    pub atomic: bool,
    /// Object name, if the region has been narrowed to one.
    pub object: Option<String>,
    pub fate: RegionFate,
}

impl Field for MeasuredRegion {
    fn json(&self) -> Json {
        Json::obj(fields!(self: lo, hi, count, atomic, fate, object))
    }
}

/// One search iteration's record: what was measured and decided.
#[derive(Debug, Clone)]
pub struct IterationRecord {
    /// Virtual time at which the iteration's interrupt was handled.
    pub now: u64,
    /// Interval length that produced these measurements.
    pub interval: u64,
    /// Global misses over the interval.
    pub total: u64,
    pub regions: Vec<MeasuredRegion>,
    /// The iteration ended the search (termination rules met).
    pub terminated: bool,
}

impl IterationRecord {
    /// The record's fields in rendering order; the search-iteration
    /// event renders them flat after its `type` tag.
    fn json_fields(&self) -> Vec<(&'static str, Json)> {
        fields!(self: now, interval, total, terminated, regions)
    }

    /// Serialize to one JSON object (no `type` tag; the event wrapper
    /// adds one).
    pub fn to_json(&self) -> Json {
        Json::obj(self.json_fields())
    }
}

/// One row's derived metrics: `none`, a counter to increment, or a block.
macro_rules! row_metrics {
    ($obs:ident, none) => {{}};
    ($obs:ident, $counter:literal) => {
        $obs.metrics.inc($counter)
    };
    ($obs:ident, $block:block) => {
        $block
    };
}

/// Generates [`ObsEvent`] and every match over it from the event table.
/// After the identifier that names the sink in metric blocks, each row
/// reads
///
/// ```text
/// /// doc comment
/// Variant "type_tag" { field: Type, ... } => metrics;
/// Variant "type_tag" (binding: Payload) => metrics;
/// ```
///
/// where `metrics` is `none`, a counter name, or a block over the fields
/// (bound by reference). A row without it does not compile. Fields render
/// in the order declared; a tuple row's payload renders its own fields
/// flat after the tag.
macro_rules! event_table {
    ($obs:ident; $(
        $(#[$doc:meta])*
        $variant:ident $tag:literal
        $(($payload:ident: $pty:ty))?
        $({ $($field:ident: $fty:ty),* $(,)? })?
        => $metrics:tt;
    )*) => {
        /// A typed observability event. `now` is virtual cycles.
        #[derive(Debug, Clone)]
        pub enum ObsEvent {
            $( $(#[$doc])* $variant $(($pty))? $({ $($field: $fty),* })?, )*
        }

        impl ObsEvent {
            /// Every event's `type` tag, in table order.
            pub const KINDS: &'static [&'static str] = &[$($tag),*];

            /// The event's `type` tag as it appears in JSONL.
            pub fn kind(&self) -> &'static str {
                match self {
                    $( ObsEvent::$variant { .. } => $tag, )*
                }
            }

            /// Serialize to one JSON object.
            pub fn to_json(&self) -> Json {
                let mut fields = vec![("type", Json::str(self.kind()))];
                match self {
                    $( ObsEvent::$variant $({ 0: $payload })? $({ $($field),* })? => {
                        $( fields.extend($payload.json_fields()); )?
                        $( $( $field.put(stringify!($field), &mut fields); )* )?
                    } )*
                }
                Json::obj(fields)
            }

            /// Fold the event into the sink's derived metrics.
            #[inline]
            #[allow(unused_variables)]
            pub(crate) fn derive_metrics(&self, $obs: &mut Obs) {
                match self {
                    $( ObsEvent::$variant $({ 0: $payload })? $({ $($field),* })? => {
                        row_metrics!($obs, $metrics)
                    } )*
                }
            }
        }
    };
}

event_table! {
    obs;

    /// An engine run began.
    RunStart "run_start" { app: String, limit: String } => none;

    /// An engine run ended (limit reached or program exhausted).
    RunEnd "run_end" {
        now: u64,
        app_accesses: u64,
        app_misses: u64,
        unmapped_misses: u64,
        instr_cycles: u64,
        interrupts: u64,
    } => {
        if *app_misses > 0 {
            let rate = *unmapped_misses as f64 / *app_misses as f64;
            obs.metrics.set_gauge("engine.unmapped_miss_rate", rate);
        }
        if *now > 0 {
            let share = *instr_cycles as f64 / *now as f64;
            obs.metrics.set_gauge("engine.instr_cycle_share", share);
        }
    };

    /// A PMU interrupt was delivered to the handler.
    Interrupt "interrupt" { now: u64, kind: &'static str } => {
        obs.metrics.inc(if *kind == "timer" {
            "engine.interrupts.timer"
        } else {
            "engine.interrupts.miss_overflow"
        });
        if let Some(prev) = obs.last_interrupt_at {
            obs.metrics.observe("engine.interrupt_interarrival_cycles", now - prev);
        }
        obs.last_interrupt_at = Some(*now);
    };

    /// A region counter was programmed with base/bound qualification.
    CounterProgram "counter_program" { now: u64, slot: usize, lo: u64, hi: u64 }
        => "pmu.counter_programs";

    /// A region counter was disabled.
    CounterDisable "counter_disable" { now: u64, slot: usize } => "pmu.counter_disables";

    /// The miss-overflow interrupt was armed `period` misses ahead.
    ArmMissOverflow "arm_miss_overflow" { now: u64, period: u64 } => "pmu.arm_miss_overflow";

    /// The cycle timer was armed for `deadline`.
    ArmTimer "arm_timer" { now: u64, deadline: u64 } => "pmu.arm_timer";

    /// The sampler chose a new sampling period (`reason`:
    /// `"initial"` or `"adapt"`).
    SamplerPeriod "sampler_period" { now: u64, period: u64, reason: &'static str } => {
        obs.metrics.inc("sampler.period_changes");
        obs.metrics.set_gauge("sampler.period", *period as f64);
    };

    /// The hardened sampler rejected an interrupt's sample (`reason`:
    /// `"spurious"` or `"repeat"`).
    SampleRejected "sample_rejected" { now: u64, reason: &'static str }
        => "sampler.samples_rejected";

    /// End-of-run summary of PMU faults injected by an active fault
    /// model (fault-free runs never emit this).
    FaultSummary "fault_summary" {
        skidded: u64,
        dropped: u64,
        spurious: u64,
        wrapped: u64,
        delayed: u64,
        jittered: u64,
    } => {
        let injected = skidded + dropped + spurious + wrapped + delayed + jittered;
        obs.metrics.add("hwpm.faults_injected", injected);
    };

    /// The hardened search re-measured an interval whose counts failed
    /// the consistency/outlier checks (`attempt` is 1-based).
    SearchIntervalRetry "search_interval_retry" {
        now: u64,
        attempt: u64,
        reason: &'static str,
    } => "search.intervals_retried";

    /// A technique's report flagged `count` estimates as degraded
    /// (measured under contaminated intervals) instead of silently
    /// mis-ranking them.
    ReportDegraded "report_degraded" { count: u64 } => {
        obs.metrics.add("report.degraded", *count);
    };

    /// A campaign cell's cache entry existed but was corrupt or stale;
    /// it was treated as a miss and re-simulated.
    CellCacheCorrupt "cell_cache_corrupt" { index: u64, hash: String }
        => "campaign.cache_corrupt";

    /// One full measure → rank → split iteration of the n-way search.
    SearchIteration "search_iteration" (it: IterationRecord) => {
        obs.metrics.inc("search.iterations");
        for r in &it.regions {
            obs.metrics.inc(match r.fate {
                RegionFate::Requeued => "search.regions_requeued",
                RegionFate::RetainedZero => "search.regions_retained_zero",
                RegionFate::Dropped => "search.regions_dropped",
            });
        }
    };

    /// A region was split into children (snapped to object extents), or
    /// found to be atomic.
    RegionSplit "region_split" {
        now: u64,
        lo: u64,
        hi: u64,
        children: Vec<(u64, u64)>,
        became_atomic: bool,
    } => {
        if *became_atomic {
            obs.metrics.inc("search.regions_became_atomic");
        } else {
            obs.metrics.inc("search.splits");
            obs.metrics.observe("search.split_region_bytes", hi - lo);
        }
    };

    /// The search entered its final re-measurement phase over `regions`
    /// found objects.
    SearchFinal "search_final" { now: u64, regions: usize } => "search.final_phases";

    /// The program allocated a heap block (instrumented `malloc`).
    Alloc "alloc" { now: u64, base: u64, size: u64, name: Option<String> } => "program.allocs";

    /// The program freed a heap block.
    Free "free" { now: u64, base: u64 } => "program.frees";

    /// The program entered a new phase.
    PhaseMarker "phase" { now: u64, id: u32 } => "program.phase_markers";

    /// A run's event stream was recorded to a trace file.
    TraceRecord "trace_record" { path: String, events: u64 } => none;

    /// A program was replayed from a trace file.
    TraceReplay "trace_replay" { path: String, objects: u64 } => none;

    /// A campaign began: `cells` is the expanded matrix size.
    CampaignStart "campaign_start" { name: String, cells: u64 } => {
        obs.metrics.set_gauge("campaign.cells", *cells as f64);
    };

    /// A cell's cached result was reused; no simulation executed.
    CellCacheHit "cell_cache_hit" { index: u64, hash: String } => "campaign.cache_hits";

    /// A cell's simulation started (cache miss).
    CellStart "cell_start" { index: u64, hash: String, workload: String, label: String }
        => "campaign.cell_starts";

    /// A cell's simulation finished and its result was cached.
    CellFinish "cell_finish" { index: u64, hash: String } => "campaign.cells_completed";

    /// A cell's simulation panicked and will be retried.
    CellRetry "cell_retry" { index: u64, hash: String, attempt: u64, error: String }
        => "campaign.retries";

    /// A cell's simulation panicked with no retries left; the campaign
    /// continues without it.
    CellPanic "cell_panic" { index: u64, hash: String, error: String } => "campaign.panics";

    /// A campaign finished (all cells resolved or failed).
    CampaignEnd "campaign_end" { name: String, completed: u64, cache_hits: u64, failed: u64 }
        => none;

    /// The static checker (`cachescope check`) reported a diagnostic.
    /// `file` names the checked input (a path, workload, or source file);
    /// `line` is 0 when the input has no line structure.
    CheckDiagnostic "check_diagnostic" {
        code: String,
        severity: &'static str,
        file: String,
        line: u64,
        message: String,
    } => {
        obs.metrics.inc("check.diagnostics");
        if *severity == "error" {
            obs.metrics.inc("check.errors");
        }
    };

    /// The serve daemon admitted a client session.
    SessionStart "session_start" { id: u64, peer: String } => "serve.sessions";

    /// The serve daemon rejected a session (admission, validation, or
    /// budget). `code` is a stable reason ("busy", "draining",
    /// "byte_budget", or a CS-V*/CS-T*/CS-C* diagnostic code).
    SessionReject "session_reject" { id: u64, code: String, reason: String } => "serve.rejects";

    /// A session's attribution simulation started (dedup miss). `hash`
    /// is the content hash over the trace bytes plus configuration.
    SessionSimStart "session_sim_start" { id: u64, hash: String } => "serve.sim_starts";

    /// A session's report was served without simulating: `source` is
    /// `"inflight"` (piggybacked on a running identical session) or
    /// `"disk"` (content-addressed cache hit).
    SessionDedup "session_dedup" { id: u64, hash: String, source: &'static str }
        => "serve.dedup_hits";

    /// A session completed and its report was sent. `ms` is wall-clock
    /// from admission to report write.
    SessionEnd "session_end" { id: u64, bytes: u64, events: u64, ms: u64 } => {
        obs.metrics.inc("serve.sessions_served");
        obs.metrics.add("serve.bytes_in", *bytes);
        obs.metrics.observe("serve.session_ms", *ms);
    };

    /// The daemon began draining: finishing `active` in-flight sessions,
    /// refusing new ones.
    ServeDrain "serve_drain" { active: u64 } => {
        obs.metrics.set_gauge("serve.drain_active", *active as f64);
    };

    /// The daemon stopped after serving `served` and rejecting
    /// `rejected` sessions.
    ServeStop "serve_stop" { served: u64, rejected: u64 } => "serve.stops";

    /// A fuzz scenario entered the differential harness.
    FuzzScenario "fuzz_scenario" { name: String, seed: u64, budget_refs: u64 }
        => "fuzz.scenarios";

    /// A hardened technique's top-k ranking inverted versus ground truth
    /// without the degraded flag — a silent-degradation bug.
    FuzzSilentInversion "fuzz_silent_inversion" {
        scenario: String,
        technique: String,
        level: String,
        inversions: u64,
    } => "fuzz.silent_inversions";

    /// One accepted shrink step of the delta-debugging minimizer.
    FuzzMinimizeStep "fuzz_minimize_step" { scenario: String, action: String, refs: u64 }
        => "fuzz.minimize_steps";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_iteration_carries_region_decisions() {
        let ev = ObsEvent::SearchIteration(IterationRecord {
            now: 1000,
            interval: 500,
            total: 100,
            regions: vec![
                MeasuredRegion {
                    lo: 0x1000,
                    hi: 0x2000,
                    count: 60,
                    atomic: false,
                    object: None,
                    fate: RegionFate::Requeued,
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
        });
        let line = ev.to_json().render();
        assert!(line.contains("\"fate\":\"requeued\""));
        assert!(line.contains("\"fate\":\"dropped\""));
        assert!(line.contains("\"object\":\"RX\""));
        assert!(!line.contains('\n'), "one event, one line");
    }
}
