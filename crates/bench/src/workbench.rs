//! Characterization workbench shared by every experiment.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use bsc_mac::ppa::{CharacterizeConfig, DesignCharacterization, PpaError};
use bsc_mac::MacKind;

/// All three designs characterized once, ready for the figure drivers.
/// Designs are held behind [`Arc`] so batch engines and per-worker
/// accelerators can share them without re-characterizing.
#[derive(Debug)]
pub struct Workbench {
    designs: BTreeMap<MacKind, Arc<DesignCharacterization>>,
    config: CharacterizeConfig,
    characterize_wall_ns: u64,
}

impl Workbench {
    /// Characterizes BSC, LPC and HPS at the paper's vector length (32).
    ///
    /// # Errors
    ///
    /// Propagates gate-level simulation failures.
    pub fn paper() -> Result<Self, PpaError> {
        Self::with_config(CharacterizeConfig::default())
    }

    /// A reduced workbench (vector length 8, short activity runs) for
    /// quick smoke runs; ratios are noisier but the orderings hold.
    ///
    /// # Errors
    ///
    /// Propagates gate-level simulation failures.
    pub fn quick() -> Result<Self, PpaError> {
        Self::with_config(CharacterizeConfig::quick(8))
    }

    /// Characterizes all designs with an explicit configuration.  The
    /// designs run one after another; parallelism comes from each
    /// characterization sharding its stimulus batches across the worker
    /// pool, which keeps the cores busy without oversubscribing them.
    ///
    /// # Errors
    ///
    /// Propagates gate-level simulation failures.
    pub fn with_config(config: CharacterizeConfig) -> Result<Self, PpaError> {
        let started = Instant::now();
        let results: Vec<_> = MacKind::ALL
            .into_iter()
            .map(|kind| (kind, DesignCharacterization::new(kind, &config)))
            .collect();
        let characterize_wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut designs = BTreeMap::new();
        for (kind, result) in results {
            designs.insert(kind, Arc::new(result?));
        }
        Ok(Workbench { designs, config, characterize_wall_ns })
    }

    /// Wall-clock nanoseconds the gate-level characterization took (all
    /// three designs) — the quantity the compiled-tape /
    /// incremental-eval rewrite is measured by.
    pub fn characterize_wall_ns(&self) -> u64 {
        self.characterize_wall_ns
    }

    /// The characterization of one design.
    pub fn design(&self, kind: MacKind) -> &DesignCharacterization {
        &self.designs[&kind]
    }

    /// A shared handle to one design's characterization, for engines and
    /// accelerators that outlive this borrow.
    pub fn design_shared(&self, kind: MacKind) -> Arc<DesignCharacterization> {
        Arc::clone(&self.designs[&kind])
    }

    /// The characterization configuration in use.
    pub fn config(&self) -> &CharacterizeConfig {
        &self.config
    }

    /// Vector length of the characterized designs.
    pub fn vector_length(&self) -> usize {
        self.config.length
    }
}
