//! # cachescope
//!
//! Data-centric cache-miss attribution via simulated hardware performance
//! monitors — a reproduction of *"Using Hardware Performance Monitors to
//! Isolate Memory Bottlenecks"* (Bryan R. Buck and Jeffrey K.
//! Hollingsworth, SC 2000).
//!
//! This façade crate re-exports the whole workspace under one name:
//!
//! * [`sim`] — the cache simulator substrate (set-associative LRU cache,
//!   virtual cycle accounting, simulation engine, run statistics),
//! * [`hwpm`] — the simulated performance-monitor unit (region-qualified
//!   miss counters, overflow/timer interrupts, last-miss-address register),
//! * [`objmap`] — address → program-object resolution (symbol table for
//!   globals, red-black interval tree for heap blocks),
//! * [`workloads`] — SPEC95-analogue synthetic workloads (tomcatv, swim,
//!   su2cor, mgrid, applu, compress, ijpeg) and a configurable builder,
//! * [`core`] — the paper's two techniques: cache-miss address **sampling**
//!   and the **n-way search**, plus the experiment runner that compares
//!   their estimates against ground truth,
//! * [`obs`] — zero-simulated-cost observability: the typed event stream
//!   behind `--trace-out`, the metrics registry behind `--metrics`, and
//!   the hand-rolled JSON behind `--json`,
//! * [`campaign`] — declarative experiment sweeps: a JSON-loadable spec
//!   expands into a workload × technique matrix that runs on a bounded
//!   worker pool with content-addressed result caching, per-cell panic
//!   isolation and a resume manifest (the `campaign` binary drives it),
//! * [`serve`] — the streaming attribution daemon: framed trace
//!   sessions over unix/TCP sockets with admission control, in-flight
//!   and on-disk dedup, and graceful drain (`cachescope serve` /
//!   `cachescope submit` drive it),
//! * [`check`] — static verification without simulation: allocation
//!   lifecycle, chunk encoding, PMU-config legality, trace framing and
//!   campaign-spec validation for inputs, plus a repo self-lint
//!   (`cachescope check` drives it),
//! * [`analyze`] — the static attribution oracle: simulation-free
//!   abstract interpretation of workload IR into provable per-object
//!   miss bounds, cross-checked against every simulated ground truth
//!   (`cachescope analyze` drives it),
//! * [`fuzzgen`] — adversarial workload fuzzing: a seeded generative
//!   scenario fuzzer, the differential technique-verification harness
//!   that hunts silent hardened-technique degradations, a delta-debug
//!   minimizer, and committed golden reproducers (`cachescope fuzz`
//!   drives it).
//!
//! ## Quickstart
//!
//! ```
//! use cachescope::core::{Experiment, TechniqueConfig};
//! use cachescope::workloads::spec;
//! use cachescope::sim::RunLimit;
//!
//! // Sample one in every 1,000 misses of a (scaled-down) tomcatv run.
//! let report = Experiment::new(spec::tomcatv(spec::Scale::Test))
//!     .technique(TechniqueConfig::sampling(1_000))
//!     .limit(RunLimit::AppMisses(200_000))
//!     .run();
//!
//! // The top-ranked object by estimated misses should also be a top
//! // object by ground truth.
//! let top = &report.rows()[0];
//! assert!(top.actual_pct > 10.0);
//! println!("{}", report);
//! ```

pub mod cli;

pub use cachescope_analyze as analyze;
pub use cachescope_campaign as campaign;
pub use cachescope_check as check;
pub use cachescope_core as core;
pub use cachescope_fuzzgen as fuzzgen;
pub use cachescope_hwpm as hwpm;
pub use cachescope_objmap as objmap;
pub use cachescope_obs as obs;
pub use cachescope_serve as serve;
pub use cachescope_sim as sim;
pub use cachescope_workloads as workloads;
