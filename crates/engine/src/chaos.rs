//! The chaos engine: applies a [`ChaosPlan`] to a running query.
//!
//! Every task commit polls [`ChaosEngine::poll`] (through
//! [`Services::inject_chaos`]) right after it lands, and so does every
//! coordinator tick. Each pending injection's trigger is evaluated against
//! the engine's monotone counters (input progress, committed tasks,
//! recovery tasks), which only move on commits, so a plan fires at the
//! commit that reaches its trigger regardless of thread scheduling — even
//! when a small query runs to completion faster than the coordinator is
//! scheduled. Side-effect events (suspicion, lost backups, dropped or
//! delayed pushes, stragglers) are applied directly to the shared
//! [`Services`]; kill events are returned to the caller, which kills the
//! worker and queues it for the coordinator's recovery protocol.

use crate::worker::Services;
use quokka_common::chaos::{ChaosEvent, ChaosInjection, ChaosPlan, ChaosTrigger};
use quokka_common::config::EngineConfig;
use quokka_common::ids::WorkerId;
use std::time::Duration;

/// Injects the faults of a chaos plan at their trigger points.
#[derive(Default)]
pub struct ChaosEngine {
    pending: Vec<ChaosInjection>,
}

impl ChaosEngine {
    /// Build the engine from a query's configuration: the legacy
    /// `FailureSpec` list is folded into chaos injections so the engine has
    /// exactly one injection path, then the configured [`ChaosPlan`] is
    /// appended.
    pub fn new(config: &EngineConfig) -> Self {
        let mut plan = ChaosPlan::from_failures(&config.failures);
        plan.injections.extend(config.chaos.injections.iter().copied());
        ChaosEngine { pending: plan.injections }
    }

    /// Whether every injection has fired.
    pub fn is_drained(&self) -> bool {
        self.pending.is_empty()
    }

    /// Evaluate every pending trigger against the current counters. Events
    /// that only degrade the run are applied immediately; the workers whose
    /// kill events fired are returned for the coordinator to kill and
    /// recover (in plan order).
    pub fn poll(&mut self, services: &Services, progress: f64) -> Vec<WorkerId> {
        if self.pending.is_empty() {
            return Vec::new();
        }
        let snap = services.metrics.snapshot(Duration::ZERO);
        let mut kills = Vec::new();
        let mut remaining = Vec::with_capacity(self.pending.len());
        for injection in self.pending.drain(..) {
            let fired = match injection.at {
                ChaosTrigger::Progress(fraction) => progress >= fraction,
                ChaosTrigger::TaskCommits(n) => snap.tasks_executed >= n,
                ChaosTrigger::RecoveryTasks(n) => snap.recovery_tasks >= n,
            };
            if !fired {
                remaining.push(injection);
                continue;
            }
            services.metrics.add_chaos_event();
            match injection.event {
                ChaosEvent::KillWorker { worker } => {
                    if worker < services.layout.workers() && !services.is_killed(worker) {
                        kills.push(worker);
                    }
                }
                ChaosEvent::SuspectWorker { worker } => {
                    if worker < services.layout.workers() && !services.is_killed(worker) {
                        services.suppress_heartbeats(worker, true);
                    }
                }
                ChaosEvent::LoseBackups { worker } => {
                    if worker < services.layout.workers() && !services.is_killed(worker) {
                        services.backups[worker as usize].lose_contents();
                    }
                }
                ChaosEvent::DropPushes { destination, count } => {
                    services.plane.inject_drop_pushes(destination, count);
                }
                ChaosEvent::DelayPushes { destination, count, delay } => {
                    services.plane.inject_delay_pushes(destination, count, delay);
                }
                ChaosEvent::Straggler { worker, count, delay } => {
                    if worker < services.layout.workers() && !services.is_killed(worker) {
                        services.set_straggler(worker, count, delay);
                    }
                }
            }
        }
        self.pending = remaining;
        kills
    }
}
