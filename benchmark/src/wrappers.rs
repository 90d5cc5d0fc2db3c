//! Timing wrappers the traced run puts around each layer's public surface.
//!
//! Every wrapper forwards to the wrapped value and records one span per
//! call, so tracing needs no change inside the library crates. They consume
//! no randomness, so a traced experiment makes the same decisions — and must
//! produce the same output digest — as an untraced one.

use std::sync::Arc;

use asha::core::telemetry::EventKind;
use asha::core::{ConfigSampler, Decision, Fidelity, Observation, Recorder, Scheduler};
use asha::space::{Config, SearchSpace};
use asha::surrogate::{BenchmarkModel, ConfigProfile, TrainingState};

use crate::trace::Tracer;

/// Times `suggest` and `observe` of any scheduler, naming each `suggest`
/// span after what it decided so decisions are counted where they are made.
pub struct TimedScheduler<S> {
    inner: S,
    tracer: Arc<Tracer>,
}

impl<S: Scheduler> TimedScheduler<S> {
    pub fn new(inner: S, tracer: &Arc<Tracer>) -> Self {
        TimedScheduler {
            inner,
            tracer: Arc::clone(tracer),
        }
    }
}

impl<S: Scheduler> Scheduler for TimedScheduler<S> {
    fn suggest(&mut self, rng: &mut dyn rand::RngCore) -> Decision {
        let span = self.tracer.span("core.suggest");
        let decision = self.inner.suggest(rng);
        span.rename(match &decision {
            Decision::Run(job) if job.rung > 0 => "core.suggest.promote",
            Decision::Run(_) => "core.suggest.grow",
            Decision::Wait => "core.suggest.wait",
            Decision::Finished => "core.suggest.finished",
        });
        decision
    }

    fn observe(&mut self, obs: Observation) {
        let _span = self.tracer.span("core.observe");
        self.inner.observe(obs);
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn wait_is_stable(&self) -> bool {
        self.inner.wait_is_stable()
    }
}

/// Times a sampler's proposals and reports under the given span names.
pub struct TimedSampler<P> {
    inner: P,
    tracer: Arc<Tracer>,
    propose: &'static str,
    record: &'static str,
}

impl<P: ConfigSampler> TimedSampler<P> {
    pub fn new(
        inner: P,
        tracer: &Arc<Tracer>,
        propose: &'static str,
        record: &'static str,
    ) -> Self {
        TimedSampler {
            inner,
            tracer: Arc::clone(tracer),
            propose,
            record,
        }
    }
}

impl<P: ConfigSampler> ConfigSampler for TimedSampler<P> {
    fn propose(&mut self, space: &SearchSpace, rng: &mut dyn rand::RngCore) -> Config {
        let _span = self.tracer.span(self.propose);
        self.inner.propose(space, rng)
    }

    fn propose_at(
        &mut self,
        space: &SearchSpace,
        fidelity: Fidelity,
        rng: &mut dyn rand::RngCore,
    ) -> Config {
        let _span = self.tracer.span(self.propose);
        self.inner.propose_at(space, fidelity, rng)
    }

    fn record(&mut self, config: &Config, rung: usize, resource: f64, loss: f64) {
        let _span = self.tracer.span(self.record);
        self.inner.record(config, rung, resource, loss);
    }

    fn wants_reports(&self) -> bool {
        self.inner.wants_reports()
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn export_cursor(&self) -> Option<String> {
        self.inner.export_cursor()
    }

    fn restore_cursor(&mut self, cursor: &str) {
        self.inner.restore_cursor(cursor);
    }
}

/// Times every evaluating call into a surrogate model (`surrogate.eval`).
pub struct TimedModel<'a> {
    inner: &'a dyn BenchmarkModel,
    tracer: Arc<Tracer>,
}

impl<'a> TimedModel<'a> {
    pub fn new(inner: &'a dyn BenchmarkModel, tracer: &Arc<Tracer>) -> Self {
        TimedModel {
            inner,
            tracer: Arc::clone(tracer),
        }
    }
}

const EVAL: &str = "surrogate.eval";

impl BenchmarkModel for TimedModel<'_> {
    fn space(&self) -> &SearchSpace {
        self.inner.space()
    }

    fn max_resource(&self) -> f64 {
        self.inner.max_resource()
    }

    fn init_state(&self, config: &Config, rng: &mut dyn rand::RngCore) -> TrainingState {
        let _span = self.tracer.span(EVAL);
        self.inner.init_state(config, rng)
    }

    fn advance(
        &self,
        config: &Config,
        state: &mut TrainingState,
        target_resource: f64,
        rng: &mut dyn rand::RngCore,
    ) {
        let _span = self.tracer.span(EVAL);
        self.inner.advance(config, state, target_resource, rng);
    }

    fn validation_loss(
        &self,
        config: &Config,
        state: &TrainingState,
        rng: &mut dyn rand::RngCore,
    ) -> f64 {
        let _span = self.tracer.span(EVAL);
        self.inner.validation_loss(config, state, rng)
    }

    fn test_loss(&self, config: &Config, state: &TrainingState) -> f64 {
        let _span = self.tracer.span(EVAL);
        self.inner.test_loss(config, state)
    }

    fn time_per_unit(&self, config: &Config) -> f64 {
        let _span = self.tracer.span(EVAL);
        self.inner.time_per_unit(config)
    }

    fn profile(&self, config: &Config) -> Option<ConfigProfile> {
        let _span = self.tracer.span(EVAL);
        self.inner.profile(config)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

/// Times every event a recorder takes (`obs.record`).
pub struct TimedRecorder<R> {
    inner: R,
    tracer: Arc<Tracer>,
}

impl<R: Recorder> TimedRecorder<R> {
    pub fn new(inner: R, tracer: &Arc<Tracer>) -> Self {
        TimedRecorder {
            inner,
            tracer: Arc::clone(tracer),
        }
    }
}

impl<R: Recorder> Recorder for TimedRecorder<R> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&mut self, now: f64, kind: EventKind) {
        let _span = self.tracer.span("obs.record");
        self.inner.record(now, kind);
    }
}
