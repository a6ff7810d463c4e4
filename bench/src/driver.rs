//! The load generator: one thread that owns the scheduler's
//! `submit` / `step` / `take_finished` loop.
//!
//! The scheduler is synchronous, so the generator adds no threads of its
//! own. A closed loop keeps a fixed number of clients, each submitting its
//! next request when the previous one finishes; an open loop submits on a
//! schedule fixed before the run and times every request from when it was
//! **due**, so a stall is charged to the requests it delays. Each leg runs
//! warm-up → window → drain; only requests whose clock starts inside the
//! window are measured.
//!
//! [`Observer`] is the bookkeeping half — what was submitted when, what
//! each step returned — kept apart from the pacing in [`run_leg`] so a test
//! can drive it on a fake clock against the scheduler's own histograms.

use crate::recon::Eviction;
use crate::trace::Recorder;
use crate::workload::{ClosedStream, Kind, Planned};
use fineq::lm::{Scheduler, ServeModel, ServeRequest};

/// How requests are offered.
pub enum Load {
    /// `clients` callers, each waiting for its reply before sending again.
    Closed { stream: ClosedStream, clients: usize },
    /// Independent users: `schedule[i].due_us` after the leg starts.
    Open { schedule: Vec<Planned> },
}

#[derive(Debug, Clone, Copy)]
pub struct LegTimes {
    pub warmup_s: f64,
    pub window_s: f64,
    /// Upper bound on the drain; requests unfinished after it count as
    /// attempted and as missing every limit.
    pub drain_s: f64,
}

/// Everything the driver observed about one request.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    pub id: u64,
    pub kind: Kind,
    pub request: ServeRequest,
    /// When the request's clock starts: its due time on an open loop, the
    /// submit call on a closed one.
    pub anchor_us: u64,
    pub submit_us: u64,
    /// Position in the scheduler's FIFO (refused requests have none).
    pub fifo_index: Option<usize>,
    pub refused: bool,
    pub failed: bool,
    pub finish_step: Option<u64>,
    pub generated: Vec<usize>,
    pub evictions: Vec<Eviction>,
}

/// Per-step observations; index `k` is the step after which
/// `Scheduler::steps()` read `first_step + k + 1`.
#[derive(Debug, Clone, Default)]
pub struct StepLog {
    pub start_us: Vec<u64>,
    pub end_us: Vec<u64>,
    pub stepped: Vec<usize>,
    pub accepted_before: Vec<usize>,
    pub queued_after: Vec<usize>,
    pub allocated_pages: Vec<usize>,
    pub free_pages: Vec<Option<usize>>,
    pub shared_pages: Vec<usize>,
}

/// Records what goes into and comes out of a scheduler, from outside.
#[derive(Debug, Clone)]
pub struct Observer {
    pub requests: Vec<RequestRecord>,
    pub steps: StepLog,
    /// `Scheduler::steps()` before the first observed step.
    pub first_step: u64,
    accepted: usize,
}

impl Observer {
    /// Starts observing `sched`, which must be idle.
    pub fn new<M: ServeModel>(sched: &Scheduler<M>) -> Self {
        assert!(sched.is_idle(), "observation starts on an idle scheduler");
        Self {
            requests: Vec::new(),
            steps: StepLog::default(),
            first_step: sched.steps(),
            accepted: 0,
        }
    }

    /// Submits `planned` under the next request id. `anchor_us` is the due
    /// time of an open-loop request; a closed-loop request's clock starts
    /// at the submit call.
    pub fn submit<M: ServeModel>(
        &mut self,
        sched: &mut Scheduler<M>,
        planned: &Planned,
        anchor_us: Option<u64>,
        rec: &Recorder,
        now: &dyn Fn() -> u64,
    ) {
        let id = self.requests.len() as u64;
        let request = planned.to_request(id);
        let span = rec.open("serving.submit", Some(id));
        let submit_us = now();
        let outcome = sched.submit(request.clone());
        rec.close(span);
        let fifo_index = outcome.is_ok().then(|| {
            self.accepted += 1;
            self.accepted - 1
        });
        self.requests.push(RequestRecord {
            id,
            kind: planned.kind,
            request,
            anchor_us: anchor_us.unwrap_or(submit_us),
            submit_us,
            fifo_index,
            refused: outcome.is_err(),
            failed: false,
            finish_step: None,
            generated: Vec::new(),
            evictions: Vec::new(),
        });
    }

    /// Runs one step and records everything it made observable. Returns
    /// how many closed-loop requests left the scheduler (finished or
    /// failed), i.e. how many clients are free to send again.
    pub fn step<M: ServeModel>(
        &mut self,
        sched: &mut Scheduler<M>,
        rec: &Recorder,
        now: &dyn Fn() -> u64,
    ) -> usize {
        let step_span = rec.open("serving.step", None);
        let start_us = now();
        let stepped = sched.step();
        let end_us = now();
        rec.close(step_span);
        let step_no = sched.steps();
        assert_eq!(
            step_no,
            self.first_step + self.steps.end_us.len() as u64 + 1,
            "every observed step must advance Scheduler::steps() by one"
        );

        let stats = sched.stats();
        self.steps.start_us.push(start_us);
        self.steps.end_us.push(end_us);
        self.steps.stepped.push(stepped);
        self.steps.accepted_before.push(self.accepted);
        self.steps.queued_after.push(stats.queued);
        self.steps.allocated_pages.push(stats.allocated_pages);
        self.steps.free_pages.push(stats.free_pages);
        self.steps.shared_pages.push(stats.shared_pages);

        let take = rec.open("serving.take_finished", None);
        let finished = sched.take_finished();
        let evicted = sched.take_preemption_events();
        let failed = sched.take_failed();
        rec.close(take);
        let mut freed_clients = 0;
        for f in finished {
            let r = &mut self.requests[f.id as usize];
            r.finish_step = Some(step_no);
            r.generated = f.generated;
            freed_clients += usize::from(r.kind == Kind::Closed);
        }
        for ev in evicted {
            self.requests[ev.id as usize]
                .evictions
                .push(Eviction { step: ev.step, dropped_cached_tokens: ev.dropped_cached_tokens });
        }
        for f in failed {
            let r = &mut self.requests[f.id as usize];
            r.failed = true;
            freed_clients += usize::from(r.kind == Kind::Closed);
        }
        freed_clients
    }
}

#[derive(Debug, Clone)]
pub struct LegLog {
    pub requests: Vec<RequestRecord>,
    pub steps: StepLog,
    pub first_step: u64,
    /// When the leg (its warm-up) started.
    pub start_us: u64,
    pub window_us: (u64, u64),
    /// `(start µs, wall µs)` of each loop iteration that stepped. The
    /// warm-up's are untraced even in a traced run: the reference the
    /// traced window's are compared against.
    pub ticks: Vec<(u64, u64)>,
    /// Due requests the generator had not yet submitted when the window
    /// closed.
    pub backlog_end: usize,
    pub stepped_tokens: u64,
    pub preemptions: u64,
    pub cow_copies: u64,
    pub shared_prefix_tokens: u64,
}

impl LegLog {
    /// Whether `us` falls inside the measured window.
    pub fn in_window(&self, us: u64) -> bool {
        us >= self.window_us.0 && us < self.window_us.1
    }
}

/// Waits until `due_us` without stepping: sleeps the bulk, spins the rest
/// (a sleep alone overshoots by the timer slack and shows up as lag).
fn wait_until(rec: &Recorder, due_us: u64) {
    loop {
        let now = rec.now_us();
        if now >= due_us {
            return;
        }
        let left = due_us - now;
        if left > 300 {
            std::thread::sleep(std::time::Duration::from_micros(left - 200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Runs one leg on `sched` (which must be idle). In a traced run `rec` is
/// switched on when the window opens; spans are recorded around every call
/// into the scheduler.
pub fn run_leg<M: ServeModel>(
    sched: &mut Scheduler<M>,
    mut load: Load,
    times: LegTimes,
    rec: &Recorder,
    traced: bool,
) -> LegLog {
    let now_us = || rec.now_us();
    let t0 = rec.now_us();
    let win_start = t0 + (times.warmup_s * 1e6) as u64;
    let win_end = win_start + (times.window_s * 1e6) as u64;
    let drain_deadline = win_end + (times.drain_s * 1e6) as u64;

    let mut obs = Observer::new(sched);
    let stepped_tokens_before = sched.stepped_tokens();
    let stats_before = sched.stats();
    let mut next_due = 0usize;
    let mut idle_clients = match &load {
        Load::Closed { clients, .. } => *clients,
        Load::Open { .. } => 0,
    };
    let mut ticks = Vec::new();
    let mut backlog_end = 0usize;
    let mut window_closed = false;

    loop {
        let now = rec.now_us();
        if traced && !rec.enabled() && now >= win_start && now < win_end {
            rec.set_enabled(true);
        }
        if !window_closed && now >= win_end {
            window_closed = true;
            if let Load::Open { schedule } = &load {
                backlog_end =
                    schedule[next_due..].iter().take_while(|p| t0 + p.due_us < win_end).count();
            }
        }
        let tick = rec.open("loadgen.tick", None);

        // Offer load. After the window closes a closed loop sends nothing
        // more; an open loop still sends what fell due inside the window
        // (late, and timed from its due time).
        match &mut load {
            Load::Closed { stream, .. } => {
                if !window_closed {
                    for _ in 0..std::mem::take(&mut idle_clients) {
                        obs.submit(sched, &stream.next_request(), None, rec, &now_us);
                    }
                }
            }
            Load::Open { schedule } => {
                while let Some(p) = schedule.get(next_due) {
                    let due = t0 + p.due_us;
                    if due > now || due >= win_end {
                        break;
                    }
                    obs.submit(sched, p, Some(due), rec, &now_us);
                    next_due += 1;
                }
            }
        }

        if sched.is_idle() {
            rec.close(tick);
            if window_closed {
                break;
            }
            // Nothing in flight: wait for the next arrival (or the end of
            // the window) instead of spinning through empty steps.
            let next = match &load {
                Load::Open { schedule } => schedule.get(next_due).map(|p| t0 + p.due_us),
                Load::Closed { .. } => None,
            };
            let idle = rec.open("loadgen.idle", None);
            wait_until(rec, next.unwrap_or(win_end).min(win_end));
            rec.close(idle);
            continue;
        }

        idle_clients += obs.step(sched, rec, &now_us);
        rec.close(tick);

        ticks.push((now, rec.now_us() - now));
        if window_closed && rec.now_us() >= drain_deadline {
            break;
        }
    }
    if traced {
        rec.set_enabled(false);
    }

    let stats = sched.stats();
    LegLog {
        requests: obs.requests,
        steps: obs.steps,
        first_step: obs.first_step,
        start_us: t0,
        window_us: (win_start, win_end),
        ticks,
        backlog_end,
        stepped_tokens: sched.stepped_tokens() - stepped_tokens_before,
        preemptions: stats.preemptions - stats_before.preemptions,
        cow_copies: stats.cow_copies - stats_before.cow_copies,
        shared_prefix_tokens: stats.shared_prefix_tokens - stats_before.shared_prefix_tokens,
    }
}
