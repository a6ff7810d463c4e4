//! `Probe<M>`: a [`ServeModel`] adapter that timestamps each model call.
//!
//! The scheduler's `step()` is one opaque call from outside; wrapping the
//! model it drives splits that call into the model's share (a
//! `generate.forward` / `remote.forward` child span) and the scheduler's
//! own (admit + preempt + sample + retire = the step span's self time),
//! without touching the program. Everything else is forwarded unchanged,
//! so a scheduler over `Probe<M>` serves exactly what one over `M` serves.

use crate::trace::Recorder;
use fineq::core::{KernelScratch, MetricsRegistry, ThreadPool};
use fineq::lm::{BatchKvCache, ModelConfig, ServeModel, StepError, TransportHealth};
use fineq::tensor::Matrix;
use std::rc::Rc;
use std::sync::Arc;

pub struct Probe<M> {
    inner: M,
    recorder: Rc<Recorder>,
    span_name: &'static str,
}

impl<M> Probe<M> {
    pub fn new(inner: M, recorder: Rc<Recorder>, span_name: &'static str) -> Self {
        Self { inner, recorder, span_name }
    }

    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: ServeModel> ServeModel for Probe<M> {
    fn config(&self) -> &ModelConfig {
        self.inner.config()
    }

    fn forward_step_batch_with(
        &self,
        tokens: &[usize],
        slots: &[usize],
        cache: &mut BatchKvCache,
        scratch: &mut KernelScratch,
    ) -> Matrix {
        self.inner.forward_step_batch_with(tokens, slots, cache, scratch)
    }

    fn try_forward_step_batch_with(
        &self,
        tokens: &[usize],
        slots: &[usize],
        cache: &mut BatchKvCache,
        scratch: &mut KernelScratch,
    ) -> Result<Matrix, StepError> {
        if self.recorder.enabled() {
            let ctx: usize = slots.iter().map(|&s| cache.slot_len(s)).sum();
            self.recorder.add_context(ctx as u64, slots.len() as u64);
        }
        let span = self.recorder.open(self.span_name, None);
        let out = self.inner.try_forward_step_batch_with(tokens, slots, cache, scratch);
        self.recorder.close(span);
        out
    }

    fn transport_health(&self) -> Option<TransportHealth> {
        self.inner.transport_health()
    }

    fn install_telemetry(&self, registry: &Arc<MetricsRegistry>) {
        self.inner.install_telemetry(registry);
    }

    fn thread_pool(&self) -> Option<&Arc<ThreadPool>> {
        self.inner.thread_pool()
    }
}
