//! The Mayfly baseline: a task-graph intermittent runtime with
//! *hard-coded* timeliness and collection checks.
//!
//! Mayfly (Hester, Storer, Sorber — SenSys '17) is the state-of-the-art
//! system the ARTEMIS paper evaluates against. Its design is exactly
//! the coupling the paper criticises (Figure 2(b)): the property checks
//! live inside the scheduler loop, support only data *expiration*
//! (inter-task delay) and *collection* counts, and the only reaction to
//! a violation is restarting the task graph — there is no `maxTries`
//! or `maxAttempt` escape hatch. Under charging delays longer than the
//! expiration bound this produces the unbounded restart loop of the
//! paper's Figures 12 and 16.
//!
//! The execution substrate is the ARTEMIS runtime's own, so overhead
//! comparisons isolate the property-checking architecture, not
//! unrelated engineering differences: a [`MayflyRuntimeBuilder`] starts
//! from an [`ArtemisRuntimeBuilder`] (the app, its task bodies and
//! channels), installs through the same step, and runs the same bodies
//! in the same sandbox ([`TaskCtx`](artemis_runtime::TaskCtx); a
//! body's monitored value is discarded, as Mayfly has no monitors).
//! This crate keeps only Mayfly's rules, its freshness table and its
//! main loop. Checking costs are billed to [`CostCategory::Runtime`]:
//! in Mayfly they are inseparable from the runtime, which is also why
//! its runtime FRAM footprint exceeds the ARTEMIS runtime's in Table 2.
//!
//! # The Mayfly header
//!
//! The cursor and the freshness table are one packed 521-byte FRAM
//! region, `mayfly.header`:
//!
//! ```text
//! [cur_path u32][cur_idx u32][status u8]
//! [end_time u64 × 32][completions u32 × 32][rule_count u32 × 32]
//! ```
//!
//! behind the same write-through SRAM mirror and journal the ARTEMIS
//! runtime keeps ([`PersistentHeader`]), so Fig. 15 compares equal
//! journal discipline: the first use in a power cycle replays the
//! journal and reads the whole header in one op, validating the cursor
//! once (a cursor past its path or app, or an unknown status, faults
//! with [`Fault::CorruptState`](intermittent_sim::device::Fault)); the
//! loop and the inline checks then read the mirror only. Each commit
//! stages only the bytes that changed, and a task commits with the
//! advance past it ([`artemis_runtime::next_cursor`]) as one record —
//! the coalescing the ARTEMIS runtime gets by committing a task with
//! its `EndTask` delivery and outcome.

use std::ops::Range;

use artemis_core::app::{AppGraph, PathId, TaskId};
use artemis_core::time::{SimDuration, SimInstant};
use artemis_core::trace::TraceEvent;
use artemis_runtime::channel::Channel;
use artemis_runtime::header::STATUS_READY;
use artemis_runtime::{next_cursor, ArtemisRuntimeBuilder, PersistentHeader, TaskHeader, Tasks};
use intermittent_sim::device::{CostCategory, Device, Interrupt};
use intermittent_sim::fram::NvData;
use intermittent_sim::simulator::{IntermittentSystem, RunLimit, SimOutcome, Simulator};

/// Maximum number of freshness/collect rules.
pub const MAX_RULES: usize = 32;
/// Maximum number of tasks.
pub const MAX_TASKS: usize = 32;

/// Modelled cost of Mayfly's inline property check, in cycles. Lower
/// than the ARTEMIS engine's per-machine cost: no event marshalling,
/// no separate monitor module (paper Figure 15's gap).
const CHECK_CYCLES: u64 = 55;
/// Modelled cost of the scheduler dispatch, in cycles.
const DISPATCH_CYCLES: u64 = 80;
/// Modelled cost of `taskFinish` bookkeeping, in cycles.
const TASK_FINISH_CYCLES: u64 = 70;

/// One hard-coded rule in the Mayfly scheduler.
#[derive(Clone, Copy, Debug)]
enum Rule {
    /// `consumer` must start within `limit` of `producer`'s completion.
    Expiration {
        consumer: TaskId,
        producer: TaskId,
        limit: SimDuration,
    },
    /// `consumer` needs `count` completions of `producer` since its own
    /// last successful start.
    Collect {
        consumer: TaskId,
        producer: TaskId,
        count: u32,
    },
}

impl Rule {
    /// Returns `true` when this rule concerns `task` on path `cur_path`
    /// of `app`.
    ///
    /// Mayfly ties properties to data flowing along task-graph edges,
    /// so a rule is only active on paths that actually contain its
    /// producer (the benchmark's `send` is merged across three paths
    /// and must not check `accel` freshness while on the temperature
    /// path).
    fn active(&self, app: &AppGraph, task: TaskId, cur_path: PathId) -> bool {
        let (consumer, producer) = match self {
            Rule::Expiration {
                consumer, producer, ..
            }
            | Rule::Collect {
                consumer, producer, ..
            } => (*consumer, *producer),
        };
        consumer == task && app.path(cur_path).tasks.contains(&producer)
    }
}

/// Builder for [`MayflyRuntime`].
pub struct MayflyRuntimeBuilder {
    tasks: ArtemisRuntimeBuilder,
    rules: Vec<Rule>,
}

impl MayflyRuntimeBuilder {
    /// Starts a builder over the app, task bodies and channels declared
    /// on `tasks`.
    pub fn new(tasks: ArtemisRuntimeBuilder) -> Self {
        MayflyRuntimeBuilder {
            tasks,
            rules: Vec::new(),
        }
    }

    /// Adds an expiration (freshness) rule: `consumer` must start
    /// within `limit` of `producer` finishing.
    pub fn expiration(&mut self, consumer: &str, producer: &str, limit: SimDuration) -> &mut Self {
        let rule = Rule::Expiration {
            consumer: self.task(consumer),
            producer: self.task(producer),
            limit,
        };
        self.rules.push(rule);
        self
    }

    /// Adds a collect rule: `consumer` needs `count` completions of
    /// `producer`.
    pub fn collect(&mut self, consumer: &str, producer: &str, count: u32) -> &mut Self {
        let rule = Rule::Collect {
            consumer: self.task(consumer),
            producer: self.task(producer),
            count,
        };
        self.rules.push(rule);
        self
    }

    fn task(&self, name: &str) -> TaskId {
        self.tasks
            .app()
            .task_by_name(name)
            .unwrap_or_else(|| panic!("unknown task `{name}`"))
    }

    /// Installs the runtime on a device, through the install step the
    /// ARTEMIS runtime uses ([`ArtemisRuntimeBuilder::install_tasks`]).
    pub fn install(self, dev: &mut Device) -> Result<MayflyRuntime, Interrupt> {
        assert!(self.rules.len() <= MAX_RULES, "too many rules");
        assert!(self.tasks.app().task_count() <= MAX_TASKS, "too many tasks");
        // The freshness table: Mayfly keeps per-task timestamps and
        // per-rule counters inside the runtime header — the FRAM bulk
        // that Table 2 attributes to its runtime.
        let (app, tasks, header) =
            self.tasks
                .install_tasks(dev, Header::INITIAL, "mayfly.header")?;
        Ok(MayflyRuntime {
            app,
            tasks,
            rules: self.rules,
            header,
        })
    }
}

/// Byte ranges of the header's cursor fields and start offsets of its
/// tables (see the module docs).
const CUR_PATH: Range<usize> = 0..4;
const CUR_IDX: Range<usize> = 4..8;
const STATUS: usize = 8;
const END_TIMES: usize = 9;
const COMPLETIONS: usize = END_TIMES + 8 * MAX_TASKS;
const RULE_COUNTS: usize = COMPLETIONS + 4 * MAX_TASKS;

/// The runtime's persistent state, decoded: the cursor and the
/// freshness table.
#[derive(Clone, Debug, PartialEq)]
struct Header {
    cur_path: u32,
    cur_idx: u32,
    status: u8,
    /// Per task: the last completion's time, in µs.
    end_times: [u64; MAX_TASKS],
    /// Per task: completions so far.
    completions: [u32; MAX_TASKS],
    /// Per collect rule: producer completions since the consumer last
    /// committed.
    rule_counts: [u32; MAX_RULES],
}

impl Header {
    const INITIAL: Header = Header {
        cur_path: 0,
        cur_idx: 0,
        status: STATUS_READY,
        end_times: [0; MAX_TASKS],
        completions: [0; MAX_TASKS],
        rule_counts: [0; MAX_RULES],
    };
}

/// Every table value is reachable, so only the cursor is validated.
impl TaskHeader for Header {
    fn cursor(&self) -> (u32, u32, u8) {
        (self.cur_path, self.cur_idx, self.status)
    }

    /// The task commit carries the advance, so no commit of this
    /// runtime leaves a finished task behind.
    fn valid(&self) -> bool {
        self.status == STATUS_READY
    }
}

impl NvData for Header {
    const SIZE: usize = RULE_COUNTS + 4 * MAX_RULES;

    fn store(&self, dst: &mut [u8]) {
        self.cur_path.store(&mut dst[CUR_PATH]);
        self.cur_idx.store(&mut dst[CUR_IDX]);
        dst[STATUS] = self.status;
        self.end_times.store(&mut dst[END_TIMES..COMPLETIONS]);
        self.completions.store(&mut dst[COMPLETIONS..RULE_COUNTS]);
        self.rule_counts.store(&mut dst[RULE_COUNTS..]);
    }

    fn load(src: &[u8]) -> Self {
        Header {
            cur_path: NvData::load(&src[CUR_PATH]),
            cur_idx: NvData::load(&src[CUR_IDX]),
            status: src[STATUS],
            end_times: NvData::load(&src[END_TIMES..COMPLETIONS]),
            completions: NvData::load(&src[COMPLETIONS..RULE_COUNTS]),
            rule_counts: NvData::load(&src[RULE_COUNTS..Self::SIZE]),
        }
    }
}

/// The Mayfly runtime; drive it with
/// [`Simulator::run`](intermittent_sim::simulator::Simulator).
pub struct MayflyRuntime {
    app: AppGraph,
    tasks: Tasks,
    rules: Vec<Rule>,
    header: PersistentHeader<Header>,
}

/// What one completed Mayfly run reports.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct MayflyOutcome {
    /// All paths ran to completion (Mayfly has no skip mechanism, so
    /// this is always true for a completed run).
    pub paths: usize,
}

impl MayflyRuntime {
    /// The application graph.
    pub fn app(&self) -> &AppGraph {
        &self.app
    }

    /// Looks up a declared channel (for post-run inspection).
    pub fn channel(&self, name: &str) -> Option<Channel> {
        self.tasks.channel(name)
    }

    /// Runs the application once.
    pub fn run_once(&mut self, dev: &mut Device, limit: RunLimit) -> SimOutcome<MayflyOutcome> {
        Simulator::new(limit).run(dev, self)
    }

    /// Re-arms for another run (cursor only; freshness state persists).
    pub fn rearm(&self, dev: &mut Device) -> Result<(), Interrupt> {
        dev.billed(CostCategory::Runtime, |dev| {
            let next = Header {
                cur_path: 0,
                cur_idx: 0,
                status: STATUS_READY,
                ..self.header.read(dev, &self.app)?
            };
            self.header.commit(dev, next)
        })
    }

    /// `props_satisfied(t, p)` from the paper's Figure 2(b): the inline
    /// check, with a path restart as the only possible reaction.
    fn props_satisfied(
        &self,
        dev: &mut Device,
        task: TaskId,
        cur_path: PathId,
    ) -> Result<bool, Interrupt> {
        let now = dev.now();
        let h = self.header.read(dev, &self.app)?;
        for (ri, rule) in self.rules.iter().enumerate() {
            dev.compute(CHECK_CYCLES)?;
            if !rule.active(&self.app, task, cur_path) {
                continue;
            }
            match rule {
                Rule::Expiration {
                    producer, limit, ..
                } => {
                    if h.completions[producer.index()] == 0 {
                        // No data at all: treat as expired.
                        return Ok(false);
                    }
                    let end = SimInstant::from_micros(h.end_times[producer.index()]);
                    if now.duration_since(end) > *limit {
                        return Ok(false);
                    }
                }
                Rule::Collect { count, .. } => {
                    if h.rule_counts[ri] < *count {
                        return Ok(false);
                    }
                }
            }
        }
        Ok(true)
    }

    /// Runs `task`'s body and commits its effects with its freshness
    /// rows and the advance past it as one record, tracing the task's
    /// end once it lands, then the path's completion if the task ended
    /// it.
    fn run_task(
        &mut self,
        dev: &mut Device,
        task: TaskId,
        cur_path: PathId,
    ) -> Result<(), Interrupt> {
        dev.trace_push(TraceEvent::TaskStart { task, attempt: 1 });
        let MayflyRuntime {
            app,
            tasks,
            rules,
            header,
        } = self;
        header.with_write_set(|tx| {
            tasks.run_body(dev, task, tx)?;

            dev.compute(TASK_FINISH_CYCLES)?;
            // Update the task's freshness rows atomically with its
            // effects.
            let mut h = header.read(dev, app)?;
            let t = task.index();
            h.end_times[t] = dev.now().as_micros();
            h.completions[t] = h.completions[t].saturating_add(1);
            for (ri, rule) in rules.iter().enumerate() {
                if let Rule::Collect { producer, .. } = rule {
                    if *producer == task {
                        h.rule_counts[ri] = h.rule_counts[ri].saturating_add(1);
                    }
                }
                // Collected data is consumed when the consumer
                // *commits* (mirrors the channel semantics: a power
                // failure before commit re-runs the task with its
                // inputs intact).
                if matches!(rule, Rule::Collect { .. }) && rule.active(app, task, cur_path) {
                    h.rule_counts[ri] = 0;
                }
            }
            // ... and the advance past it, in the same record.
            let path = PathId(h.cur_path);
            let (next_path, next_idx, path_done) = next_cursor(app, h.cur_path, h.cur_idx);
            let next = Header {
                cur_path: next_path,
                cur_idx: next_idx,
                status: STATUS_READY,
                ..h
            };
            header.commit_traced(dev, tx, next, Some(TraceEvent::TaskEnd { task }))?;
            if path_done {
                dev.trace_push(TraceEvent::PathComplete { path });
            }
            Ok(())
        })
    }

    fn main_loop(&mut self, dev: &mut Device) -> Result<MayflyOutcome, Interrupt> {
        loop {
            dev.compute(DISPATCH_CYCLES)?;
            let h = self.header.read(dev, &self.app)?;
            if h.cur_path as usize >= self.app.paths().len() {
                dev.trace_push(TraceEvent::RunComplete);
                return Ok(MayflyOutcome {
                    paths: self.app.paths().len(),
                });
            }
            let task = h.task(&self.app);
            let cur_path = PathId(h.cur_path);

            if self.props_satisfied(dev, task, cur_path)? {
                self.run_task(dev, task, cur_path)?;
            } else {
                // The only reaction Mayfly has: restart the graph (the
                // whole current path), unconditionally.
                dev.trace_push(TraceEvent::ActionTaken {
                    action: artemis_core::action::Action::RestartPath(cur_path),
                });
                self.header.commit(dev, Header { cur_idx: 0, ..h })?;
                dev.trace_push(TraceEvent::PathStart { path: cur_path });
            }
        }
    }
}

impl IntermittentSystem for MayflyRuntime {
    type Output = MayflyOutcome;

    fn on_boot(&mut self, dev: &mut Device) -> Result<MayflyOutcome, Interrupt> {
        dev.billed(CostCategory::Runtime, |dev| self.main_loop(dev))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use artemis_core::app::AppGraphBuilder;
    use intermittent_sim::capacitor::Capacitor;
    use intermittent_sim::device::{DeviceBuilder, MemOwner};
    use intermittent_sim::energy::Energy;
    use intermittent_sim::harvester::Harvester;
    use intermittent_sim::simulator::NonTermination;

    fn app() -> AppGraph {
        let mut b = AppGraphBuilder::new();
        let sense = b.task("sense");
        let send = b.task("send");
        b.path(&[sense, send]);
        b.build().unwrap()
    }

    fn simple_bodies(rb: &mut ArtemisRuntimeBuilder) {
        rb.channel("samples");
        rb.body("sense", |ctx| {
            ctx.compute(2_000)?;
            ctx.push("samples", 36.6)
        });
        rb.body("send", |ctx| {
            ctx.compute(2_000)?;
            ctx.consume("samples")
        });
    }

    #[test]
    fn mayfly_runtime_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<MayflyRuntime>();
    }

    #[test]
    fn completes_on_continuous_power() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let mut rb = ArtemisRuntimeBuilder::new(app());
        simple_bodies(&mut rb);
        let rb = MayflyRuntimeBuilder::new(rb);
        let mut rt = rb.install(&mut dev).unwrap();
        let out = rt.run_once(&mut dev, RunLimit::unbounded());
        assert_eq!(out, SimOutcome::Completed(MayflyOutcome { paths: 1 }));
    }

    #[test]
    fn collect_rule_restarts_until_satisfied() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let mut rb = ArtemisRuntimeBuilder::new(app());
        simple_bodies(&mut rb);
        let mut rb = MayflyRuntimeBuilder::new(rb);
        rb.collect("send", "sense", 3);
        let mut rt = rb.install(&mut dev).unwrap();
        let out = rt.run_once(&mut dev, RunLimit::unbounded());
        assert!(out.is_completed());
        let sense = rt.app().task_by_name("sense").unwrap();
        assert_eq!(dev.trace().completions_of(sense), 3);
    }

    #[test]
    fn fresh_data_satisfies_expiration() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let mut rb = ArtemisRuntimeBuilder::new(app());
        simple_bodies(&mut rb);
        let mut rb = MayflyRuntimeBuilder::new(rb);
        rb.expiration("send", "sense", SimDuration::from_secs(5));
        let mut rt = rb.install(&mut dev).unwrap();
        let out = rt.run_once(&mut dev, RunLimit::sim_time(SimDuration::from_mins(5)));
        assert!(out.is_completed());
    }

    /// The paper's headline failure: a charging delay longer than the
    /// expiration bound makes Mayfly restart forever.
    #[test]
    fn stale_data_causes_non_termination() {
        let mut b = AppGraphBuilder::new();
        let sense = b.task("sense");
        let wait = b.task("wait");
        let send = b.task("send");
        b.path(&[sense, wait, send]);
        let app = b.build().unwrap();

        let mut dev = DeviceBuilder::msp430fr5994().build();
        let mut rb = ArtemisRuntimeBuilder::new(app);
        rb.channel("samples");
        rb.body("sense", |ctx| ctx.push("samples", 1.0));
        // `wait` models a long charging delay deterministically.
        rb.body("wait", |ctx| ctx.idle(SimDuration::from_secs(10)));
        rb.body("send", |ctx| ctx.consume("samples"));
        let mut rb = MayflyRuntimeBuilder::new(rb);
        rb.expiration("send", "sense", SimDuration::from_secs(5));
        let mut rt = rb.install(&mut dev).unwrap();

        let out = rt.run_once(&mut dev, RunLimit::sim_time(SimDuration::from_mins(10)));
        assert!(matches!(
            out,
            SimOutcome::NonTermination(NonTermination::TimeLimit { .. })
        ));
        // It kept restarting the path the whole time.
        let restarts = dev
            .trace()
            .count(|e| matches!(e, TraceEvent::ActionTaken { .. }));
        assert!(restarts > 10, "expected many restarts, got {restarts}");
    }

    #[test]
    fn survives_power_failures() {
        let mut dev = DeviceBuilder::msp430fr5994()
            .capacitor(Capacitor::with_budget(Energy::from_nano_joules(2_000)))
            .harvester(Harvester::FixedDelay(SimDuration::from_secs(1)))
            .build();
        let mut rb = ArtemisRuntimeBuilder::new(app());
        simple_bodies(&mut rb);
        let rb = MayflyRuntimeBuilder::new(rb);
        let mut rt = rb.install(&mut dev).unwrap();
        let out = rt.run_once(&mut dev, RunLimit::reboots(100_000));
        assert!(out.is_completed());
        assert!(dev.reboots() > 0, "test needs power failures");
    }

    /// A power failure after the task commit's flag write leaves the
    /// task committed by recovery's replay: its completion must still
    /// be traced, at every capacitor budget.
    #[test]
    fn task_end_is_traced_when_recovery_completes_the_commit() {
        let mut interrupted = 0;
        for budget_nj in (1_500u64..=90_000).step_by(100) {
            let mut dev = DeviceBuilder::msp430fr5994()
                .capacitor(Capacitor::with_budget(Energy::from_nano_joules(budget_nj)))
                .harvester(Harvester::FixedDelay(SimDuration::from_secs(1)))
                .build();
            let mut rb = ArtemisRuntimeBuilder::new(app());
            simple_bodies(&mut rb);
            let mut rb = MayflyRuntimeBuilder::new(rb);
            rb.collect("send", "sense", 3);
            let mut rt = rb.install(&mut dev).unwrap();
            let out = rt.run_once(&mut dev, RunLimit::reboots(1_000_000));
            assert!(out.is_completed(), "budget {budget_nj} nJ did not complete");
            let sense = rt.app().task_by_name("sense").unwrap();
            let send = rt.app().task_by_name("send").unwrap();
            let trace = dev.trace();
            assert_eq!(trace.completions_of(sense), 3, "budget {budget_nj} nJ");
            assert_eq!(trace.completions_of(send), 1, "budget {budget_nj} nJ");
            interrupted += usize::from(dev.reboots() > 0);
        }
        assert!(interrupted > 0, "the sweep must see power failures");
    }

    #[test]
    fn rearm_supports_repeated_runs() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let mut rb = ArtemisRuntimeBuilder::new(app());
        simple_bodies(&mut rb);
        let mut rb = MayflyRuntimeBuilder::new(rb);
        rb.collect("send", "sense", 1);
        let mut rt = rb.install(&mut dev).unwrap();
        for _ in 0..3 {
            assert!(rt.run_once(&mut dev, RunLimit::unbounded()).is_completed());
            rt.rearm(&mut dev).unwrap();
        }
    }

    #[test]
    fn freshness_table_lives_in_runtime_fram() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let before = dev.fram().used_by(MemOwner::Runtime);
        let mut rb = ArtemisRuntimeBuilder::new(app());
        simple_bodies(&mut rb);
        let rb = MayflyRuntimeBuilder::new(rb);
        let _rt = rb.install(&mut dev).unwrap();
        let used = dev.fram().used_by(MemOwner::Runtime) - before;
        // end_times + completions + rule_counts dominate: the coupling
        // cost Table 2 shows.
        assert!(used > 400, "expected a sizeable runtime table, got {used}");
        assert_eq!(dev.fram().used_by(MemOwner::Monitor), 0);
    }
}
