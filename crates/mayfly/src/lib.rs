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
//! The execution substrate (paths, atomic task commit, persistent
//! cursor, channels) matches the ARTEMIS runtime so that overhead
//! comparisons isolate the property-checking architecture, not
//! unrelated engineering differences. Checking costs are billed to
//! [`CostCategory::Runtime`]: in Mayfly they are inseparable from the
//! runtime, which is also why its runtime FRAM footprint exceeds the
//! ARTEMIS runtime's in Table 2.

use std::collections::HashMap;

use artemis_core::app::{AppGraph, PathId, TaskId};
use artemis_core::time::{SimDuration, SimInstant};
use artemis_core::trace::TraceEvent;
use artemis_runtime::channel::Channel;
use intermittent_sim::device::{CostCategory, Device, Interrupt, MemOwner};
use intermittent_sim::fram::NvCell;
use intermittent_sim::journal::{Journal, TxWriter};
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

const STATUS_READY: u8 = 0;
const STATUS_FINISHED: u8 = 1;

/// A task body (same signature as the ARTEMIS runtime's).
pub type TaskBody = Box<dyn FnMut(&mut MayflyCtx<'_>) -> Result<(), Interrupt>>;

/// The sandbox Mayfly task bodies execute in (a trimmed-down
/// [`TaskCtx`](artemis_runtime::TaskCtx)).
pub struct MayflyCtx<'a> {
    dev: &'a mut Device,
    tx: &'a mut TxWriter,
    channels: &'a HashMap<String, Channel>,
}

impl MayflyCtx<'_> {
    /// Executes application compute cycles.
    pub fn compute(&mut self, cycles: u64) -> Result<(), Interrupt> {
        self.dev.compute(cycles)
    }

    /// Idles in low-power mode.
    pub fn idle(&mut self, dt: SimDuration) -> Result<(), Interrupt> {
        self.dev.idle(dt)
    }

    /// Samples a sensor.
    pub fn sample(
        &mut self,
        p: intermittent_sim::peripherals::Peripheral,
    ) -> Result<f64, Interrupt> {
        self.dev.sample(p)
    }

    /// Transmits over the radio.
    pub fn transmit(&mut self, payload_bytes: usize) -> Result<(), Interrupt> {
        self.dev.transmit(payload_bytes)
    }

    /// Current time.
    pub fn now(&self) -> SimInstant {
        self.dev.now()
    }

    /// Appends a sample to a channel (staged until commit).
    pub fn push(&mut self, name: &str, value: f64) -> Result<(), Interrupt> {
        let ch = self.channel(name);
        ch.push(self.dev, self.tx, value)
    }

    /// Reads all samples of a channel.
    pub fn read_all(&mut self, name: &str) -> Result<Vec<f64>, Interrupt> {
        let ch = self.channel(name);
        ch.read_all(self.dev, self.tx)
    }

    /// Number of samples in a channel.
    pub fn channel_len(&mut self, name: &str) -> Result<usize, Interrupt> {
        let ch = self.channel(name);
        ch.len(self.dev, self.tx)
    }

    /// Stages consumption of a channel.
    pub fn consume(&mut self, name: &str) -> Result<(), Interrupt> {
        let ch = self.channel(name);
        ch.clear(self.tx);
        Ok(())
    }

    fn channel(&self, name: &str) -> Channel {
        *self
            .channels
            .get(name)
            .unwrap_or_else(|| panic!("channel `{name}` was not declared"))
    }
}

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

/// Builder for [`MayflyRuntime`].
pub struct MayflyRuntimeBuilder {
    app: AppGraph,
    bodies: Vec<Option<TaskBody>>,
    channels: Vec<String>,
    rules: Vec<Rule>,
}

impl MayflyRuntimeBuilder {
    /// Starts a builder for `app`.
    pub fn new(app: AppGraph) -> Self {
        let n = app.task_count();
        MayflyRuntimeBuilder {
            app,
            bodies: (0..n).map(|_| None).collect(),
            channels: Vec::new(),
            rules: Vec::new(),
        }
    }

    /// Registers a task body.
    ///
    /// # Panics
    ///
    /// Panics on unknown task names — a programming error.
    pub fn body(
        &mut self,
        task: &str,
        body: impl FnMut(&mut MayflyCtx<'_>) -> Result<(), Interrupt> + 'static,
    ) -> &mut Self {
        let id = self
            .app
            .task_by_name(task)
            .unwrap_or_else(|| panic!("unknown task `{task}`"));
        self.bodies[id.index()] = Some(Box::new(body));
        self
    }

    /// Declares a channel.
    pub fn channel(&mut self, name: &str) -> &mut Self {
        self.channels.push(name.to_string());
        self
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
        self.app
            .task_by_name(name)
            .unwrap_or_else(|| panic!("unknown task `{name}`"))
    }

    /// Installs the runtime on a device.
    pub fn install(self, dev: &mut Device) -> Result<MayflyRuntime, Interrupt> {
        assert!(self.rules.len() <= MAX_RULES, "too many rules");
        assert!(self.app.task_count() <= MAX_TASKS, "too many tasks");
        for (i, b) in self.bodies.iter().enumerate() {
            assert!(
                b.is_some(),
                "task `{}` has no body",
                self.app.task_name(TaskId(i as u32))
            );
        }

        dev.set_category(CostCategory::Runtime);
        let owner = MemOwner::Runtime;
        let journal = dev.make_journal(1024, owner)?;
        // The freshness table: Mayfly keeps per-task timestamps and
        // per-rule counters inside the runtime — the FRAM bulk that
        // Table 2 attributes to its runtime. One cell per entry so a
        // task commit only touches its own rows.
        let mut end_times = Vec::with_capacity(MAX_TASKS);
        let mut completions = Vec::with_capacity(MAX_TASKS);
        for t in 0..MAX_TASKS {
            end_times.push(dev.nv_alloc(0u64, owner, &format!("mayfly.end_time[{t}]"))?);
            completions.push(dev.nv_alloc(0u32, owner, &format!("mayfly.completions[{t}]"))?);
        }
        let mut rule_counts = Vec::with_capacity(MAX_RULES);
        for rix in 0..MAX_RULES {
            rule_counts.push(dev.nv_alloc(0u32, owner, &format!("mayfly.rule_count[{rix}]"))?);
        }
        let cells = Cells {
            cur_path: dev.nv_alloc(0u32, owner, "mayfly.cur_path")?,
            cur_idx: dev.nv_alloc(0u32, owner, "mayfly.cur_idx")?,
            status: dev.nv_alloc(STATUS_READY, owner, "mayfly.status")?,
            end_times,
            completions,
            rule_counts,
            done: dev.nv_alloc(0u8, owner, "mayfly.done")?,
        };

        let mut channels = HashMap::new();
        dev.set_category(CostCategory::App);
        for name in &self.channels {
            channels.insert(name.clone(), Channel::new(dev, MemOwner::App, name)?);
        }
        dev.set_category(CostCategory::Runtime);
        dev.sram_mut().register(owner, "mayfly loop state", 2);

        Ok(MayflyRuntime {
            app: self.app,
            bodies: self.bodies,
            rules: self.rules,
            journal,
            cells,
            channels,
        })
    }
}

struct Cells {
    cur_path: NvCell<u32>,
    cur_idx: NvCell<u32>,
    status: NvCell<u8>,
    end_times: Vec<NvCell<u64>>,
    completions: Vec<NvCell<u32>>,
    rule_counts: Vec<NvCell<u32>>,
    done: NvCell<u8>,
}

/// The Mayfly runtime; drive it with
/// [`Simulator::run`](intermittent_sim::simulator::Simulator).
pub struct MayflyRuntime {
    app: AppGraph,
    bodies: Vec<Option<TaskBody>>,
    rules: Vec<Rule>,
    journal: Journal,
    cells: Cells,
    channels: HashMap<String, Channel>,
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

    /// Runs the application once.
    pub fn run_once(&mut self, dev: &mut Device, limit: RunLimit) -> SimOutcome<MayflyOutcome> {
        Simulator::new(limit).run(dev, self)
    }

    /// Re-arms for another run (cursor only; freshness state persists).
    pub fn rearm(&self, dev: &mut Device) -> Result<(), Interrupt> {
        dev.billed(CostCategory::Runtime, |dev| {
            let mut tx = TxWriter::new();
            tx.write(&self.cells.cur_path, 0u32);
            tx.write(&self.cells.cur_idx, 0u32);
            tx.write(&self.cells.status, STATUS_READY);
            tx.write(&self.cells.done, 0u8);
            dev.commit(&self.journal, &tx)
        })
    }

    /// Returns `true` when `rule` concerns `task` on the current path.
    ///
    /// Mayfly ties properties to data flowing along task-graph edges,
    /// so a rule is only active on paths that actually contain its
    /// producer (the benchmark's `send` is merged across three paths
    /// and must not check `accel` freshness while on the temperature
    /// path).
    fn rule_active(&self, rule: &Rule, task: TaskId, cur_path: PathId) -> bool {
        let (consumer, producer) = match rule {
            Rule::Expiration {
                consumer, producer, ..
            }
            | Rule::Collect {
                consumer, producer, ..
            } => (*consumer, *producer),
        };
        consumer == task && self.app.path(cur_path).tasks.contains(&producer)
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
        for (ri, rule) in self.rules.iter().enumerate() {
            dev.compute(CHECK_CYCLES)?;
            if !self.rule_active(rule, task, cur_path) {
                continue;
            }
            match rule {
                Rule::Expiration {
                    producer, limit, ..
                } => {
                    if dev.nv_read(&self.cells.completions[producer.index()])? == 0 {
                        // No data at all: treat as expired.
                        return Ok(false);
                    }
                    let end = SimInstant::from_micros(
                        dev.nv_read(&self.cells.end_times[producer.index()])?,
                    );
                    if now.duration_since(end) > *limit {
                        return Ok(false);
                    }
                }
                Rule::Collect { count, .. } => {
                    if dev.nv_read(&self.cells.rule_counts[ri])? < *count {
                        return Ok(false);
                    }
                }
            }
        }
        Ok(true)
    }

    fn run_task(
        &mut self,
        dev: &mut Device,
        task: TaskId,
        cur_path: PathId,
    ) -> Result<(), Interrupt> {
        dev.trace_push(TraceEvent::TaskStart { task, attempt: 1 });
        let mut tx = TxWriter::new();
        {
            let body = self.bodies[task.index()]
                .as_mut()
                .expect("bodies checked at install");
            let mut ctx = MayflyCtx {
                dev,
                tx: &mut tx,
                channels: &self.channels,
            };
            let prev = ctx.dev.category();
            ctx.dev.set_category(CostCategory::App);
            let result = body(&mut ctx);
            ctx.dev.set_category(prev);
            result?;
        }

        dev.compute(TASK_FINISH_CYCLES)?;
        // Update the task's freshness rows atomically with its effects.
        let completions = dev.nv_read(&self.cells.completions[task.index()])?;
        tx.write(&self.cells.end_times[task.index()], dev.now().as_micros());
        tx.write(
            &self.cells.completions[task.index()],
            completions.saturating_add(1),
        );
        for (ri, rule) in self.rules.iter().enumerate() {
            if let Rule::Collect { producer, .. } = rule {
                if *producer == task {
                    let c = dev.nv_read(&self.cells.rule_counts[ri])?;
                    tx.write(&self.cells.rule_counts[ri], c.saturating_add(1));
                }
            }
            // Collected data is consumed when the consumer *commits*
            // (mirrors the channel semantics: a power failure before
            // commit re-runs the task with its inputs intact).
            if matches!(rule, Rule::Collect { .. }) && self.rule_active(rule, task, cur_path) {
                tx.write(&self.cells.rule_counts[ri], 0u32);
            }
        }
        tx.write(&self.cells.status, STATUS_FINISHED);
        dev.commit(&self.journal, &tx)?;
        dev.trace_push(TraceEvent::TaskEnd { task });
        Ok(())
    }

    fn main_loop(&mut self, dev: &mut Device) -> Result<MayflyOutcome, Interrupt> {
        dev.set_category(CostCategory::Runtime);
        // A replayed record that leaves the task finished is its task
        // commit (every other record writes `STATUS_READY`): the task
        // completed, but the power failure came before its `TaskEnd`
        // was traced. The trace is bookkeeping, so read without cost.
        if dev.recover(&self.journal)? && dev.peek(&self.cells.status) == STATUS_FINISHED {
            let path = self.app.path(PathId(dev.peek(&self.cells.cur_path)));
            let task = path.tasks[dev.peek(&self.cells.cur_idx) as usize];
            dev.trace_push(TraceEvent::TaskEnd { task });
        }

        loop {
            dev.compute(DISPATCH_CYCLES)?;
            let cur_path = dev.nv_read(&self.cells.cur_path)?;
            if cur_path >= self.app.paths().len() as u32 {
                dev.trace_push(TraceEvent::RunComplete);
                return Ok(MayflyOutcome {
                    paths: self.app.paths().len(),
                });
            }
            let cur_idx = dev.nv_read(&self.cells.cur_idx)?;
            let task = self.app.path(PathId(cur_path)).tasks[cur_idx as usize];
            let status = dev.nv_read(&self.cells.status)?;

            if status == STATUS_READY {
                if self.props_satisfied(dev, task, PathId(cur_path))? {
                    self.run_task(dev, task, PathId(cur_path))?;
                } else {
                    // The only reaction Mayfly has: restart the graph
                    // (the whole current path), unconditionally.
                    dev.trace_push(TraceEvent::ActionTaken {
                        action: artemis_core::action::Action::RestartPath(PathId(cur_path)),
                    });
                    let mut tx = TxWriter::new();
                    tx.write(&self.cells.cur_idx, 0u32);
                    tx.write(&self.cells.status, STATUS_READY);
                    dev.commit(&self.journal, &tx)?;
                    dev.trace_push(TraceEvent::PathStart {
                        path: PathId(cur_path),
                    });
                }
            } else {
                // Advance past the finished task.
                let path_len = self.app.path(PathId(cur_path)).tasks.len() as u32;
                let mut tx = TxWriter::new();
                tx.write(&self.cells.status, STATUS_READY);
                if cur_idx + 1 < path_len {
                    tx.write(&self.cells.cur_idx, cur_idx + 1);
                } else {
                    dev.trace_push(TraceEvent::PathComplete {
                        path: PathId(cur_path),
                    });
                    tx.write(&self.cells.cur_path, cur_path + 1);
                    tx.write(&self.cells.cur_idx, 0u32);
                }
                dev.commit(&self.journal, &tx)?;
            }
        }
    }
}

impl IntermittentSystem for MayflyRuntime {
    type Output = MayflyOutcome;

    fn on_boot(&mut self, dev: &mut Device) -> Result<MayflyOutcome, Interrupt> {
        self.main_loop(dev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use artemis_core::app::AppGraphBuilder;
    use intermittent_sim::capacitor::Capacitor;
    use intermittent_sim::device::DeviceBuilder;
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

    fn simple_bodies(rb: &mut MayflyRuntimeBuilder) {
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
    fn completes_on_continuous_power() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let mut rb = MayflyRuntimeBuilder::new(app());
        simple_bodies(&mut rb);
        let mut rt = rb.install(&mut dev).unwrap();
        let out = rt.run_once(&mut dev, RunLimit::unbounded());
        assert_eq!(out, SimOutcome::Completed(MayflyOutcome { paths: 1 }));
    }

    #[test]
    fn collect_rule_restarts_until_satisfied() {
        let mut dev = DeviceBuilder::msp430fr5994().build();
        let mut rb = MayflyRuntimeBuilder::new(app());
        simple_bodies(&mut rb);
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
        let mut rb = MayflyRuntimeBuilder::new(app());
        simple_bodies(&mut rb);
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
        let mut rb = MayflyRuntimeBuilder::new(app);
        rb.channel("samples");
        rb.body("sense", |ctx| ctx.push("samples", 1.0));
        // `wait` models a long charging delay deterministically.
        rb.body("wait", |ctx| ctx.idle(SimDuration::from_secs(10)));
        rb.body("send", |ctx| ctx.consume("samples"));
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
        let mut rb = MayflyRuntimeBuilder::new(app());
        simple_bodies(&mut rb);
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
        for budget_nj in (8_000u64..=90_000).step_by(100) {
            let mut dev = DeviceBuilder::msp430fr5994()
                .capacitor(Capacitor::with_budget(Energy::from_nano_joules(budget_nj)))
                .harvester(Harvester::FixedDelay(SimDuration::from_secs(1)))
                .build();
            let mut rb = MayflyRuntimeBuilder::new(app());
            simple_bodies(&mut rb);
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
        let mut rb = MayflyRuntimeBuilder::new(app());
        simple_bodies(&mut rb);
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
        let mut rb = MayflyRuntimeBuilder::new(app());
        simple_bodies(&mut rb);
        let _rt = rb.install(&mut dev).unwrap();
        let used = dev.fram().used_by(MemOwner::Runtime) - before;
        // end_times + completions + rule_counts dominate: the coupling
        // cost Table 2 shows.
        assert!(used > 400, "expected a sizeable runtime table, got {used}");
        assert_eq!(dev.fram().used_by(MemOwner::Monitor), 0);
    }
}
