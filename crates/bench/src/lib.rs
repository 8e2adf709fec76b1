//! # aqua-bench — the figure/table regeneration harness
//!
//! One module per experiment in the paper's evaluation (§6–§8, §A). Each
//! module exposes a `run(...)` function returning structured results plus a
//! `table(...)` rendering of the same rows/series the paper reports.
//! [`runner`] decomposes every experiment into sweep points, and the
//! `aqua-repro` binary runs any of them by name (`aqua-repro all`
//! regenerates every figure and table); the workspace integration tests call
//! the same functions with scaled-down parameters to assert the paper's
//! headline shapes (6× long-prompt throughput, 4× TTFT, ~1.8× LoRA RCT,
//! < 5% producer impact). The `hot_path` test binary holds the
//! allocation and backlog-independence gates; timing lives in the separate
//! `benchmark/` crate.
//!
//! See `DESIGN.md` for the experiment ↔ module index and `EXPERIMENTS.md`
//! for paper-vs-measured numbers.

pub mod ablations;
pub mod chaos_degradation;
pub mod coord_chaos;
pub mod counters;
pub mod e2e_cluster;
pub mod fig01_motivation;
pub mod fig02_contention;
pub mod fig03_links;
pub mod fig04_colocation;
pub mod fig07_long_prompt;
pub mod fig08_lora;
pub mod fig09_cfs;
pub mod fig10_elasticity;
pub mod fig11_producer_overhead;
pub mod fig12_tensor_size;
pub mod fig13_chatbot;
pub mod fig14_placer;
pub mod fig18_nvswitch;
pub mod fuzz;
pub mod lanes;
pub mod runner;
pub mod scale_cluster;
pub mod serve_chaos;
pub mod serve_schedulers;
pub mod setup;
pub mod sweep;
pub mod tables_registry;
pub mod trace;

pub use setup::{OffloadKind, ServerCtx};
