//! Names kept only because `benchmark/` calls them, re-exported at their old
//! paths in [`crate::backend`]. Each forwards to [`Backend`] and behaves
//! exactly as the name always did; new code selects a backend with
//! `Backend::{baseline, pgas, gateway}` and `.with_policy`.

#![allow(deprecated, clippy::new_ret_no_self)]

use gpusim::Machine;
use pgas_rt::AggregatorConfig;

use crate::backend::{Backend, BackendResult, ExecMode, ResiliencePolicy};
use crate::EmbLayerConfig;

/// The closed loop as a trait object; [`Backend`] is its one implementor.
#[deprecated(note = "pinned by benchmark/; use Backend")]
pub trait RetrievalBackend {
    /// [`Backend::name`].
    fn name(&self) -> &'static str;
    /// [`Backend::run`].
    fn run(&self, machine: &mut Machine, cfg: &EmbLayerConfig, mode: ExecMode) -> BackendResult;
}

impl RetrievalBackend for Backend {
    fn name(&self) -> &'static str {
        Backend::name(self)
    }

    fn run(&self, machine: &mut Machine, cfg: &EmbLayerConfig, mode: ExecMode) -> BackendResult {
        Backend::run(self, machine, cfg, mode)
    }
}

/// The baseline backend by name.
#[deprecated(note = "pinned by benchmark/; use Backend::baseline")]
pub struct BaselineBackend;

impl BaselineBackend {
    /// [`Backend::baseline`].
    pub fn new() -> Backend {
        Backend::baseline()
    }
}

/// The PGAS fused backend by name.
#[deprecated(note = "pinned by benchmark/; use Backend::pgas or Backend::gateway")]
pub struct PgasFusedBackend;

impl PgasFusedBackend {
    /// [`Backend::pgas`].
    pub fn new() -> Backend {
        Backend::pgas()
    }

    /// [`Backend::gateway`].
    pub fn with_gateway(flush: AggregatorConfig) -> Backend {
        Backend::gateway(flush)
    }
}

/// The resilient backend by name.
#[deprecated(note = "pinned by benchmark/; use Backend::pgas().with_policy")]
pub struct ResilientBackend;

impl ResilientBackend {
    /// [`Backend::pgas`] under the default [`ResiliencePolicy`].
    pub fn new() -> Backend {
        Backend::pgas().with_policy(ResiliencePolicy::default())
    }
}
