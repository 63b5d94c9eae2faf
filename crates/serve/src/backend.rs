//! The serving layer as an autotuner scoring backend.
//!
//! [`RemoteCostModel`] wraps a [`ServeClient`] in the [`CostModel`] trait,
//! so `tune_network` can score through the shared server — coalescing its
//! batches with other concurrent tuners — instead of owning a private
//! engine. A request the server does not answer (any [`ServeError`](crate::ServeError))
//! degrades to an all-invalid batch the tuner's rank-last handling absorbs
//! without aborting the search.

use crate::server::ServeClient;
use std::cell::Cell;
use tlp::search::TLP_PIPELINE_COST;
use tlp_autotuner::{CostModel, PipelineCost, ScoreBatch, ScoreRequest};

/// A [`CostModel`] scoring through a [`ServeClient`], degrading to masked
/// batches when the server returns an error.
pub struct RemoteCostModel {
    client: ServeClient,
    model: String,
    label: String,
    errors: Cell<u64>,
}

impl RemoteCostModel {
    /// A backend scoring against the model named `model` through `client`.
    pub fn new(client: ServeClient, model: impl Into<String>) -> Self {
        let model = model.into();
        RemoteCostModel {
            label: format!("serve:{model}"),
            client,
            model,
            errors: Cell::new(0),
        }
    }

    /// Number of requests the server answered with an error, each degraded
    /// to a masked batch.
    pub fn errors(&self) -> u64 {
        self.errors.get()
    }
}

impl CostModel for RemoteCostModel {
    fn predict(&self, request: ScoreRequest<'_>) -> ScoreBatch {
        match self
            .client
            .score(&self.model, request.task, request.candidates)
        {
            Ok(reply) => {
                let mut batch = ScoreBatch::masked(reply.scores, TLP_PIPELINE_COST);
                batch.stats = reply.stats;
                batch
            }
            Err(_) => {
                self.errors.set(self.errors.get() + 1);
                ScoreBatch::masked(vec![None; request.len()], TLP_PIPELINE_COST)
            }
        }
    }

    fn name(&self) -> &str {
        &self.label
    }

    fn pipeline_cost(&self) -> PipelineCost {
        TLP_PIPELINE_COST
    }
}
