//! Outside-in tracing: spans recorded by the benchmark around its calls
//! into the system's public functions, never inside the system.
//!
//! Every span is folded into a per-layer aggregate (count, total and
//! self nanoseconds), so the numbers are lossless. Full spans — name,
//! start, end, parent and request id — are kept only for every
//! [`KEEP_EVERY`]th request, up to [`MAX_SPANS`], so memory stays
//! bounded however long the run is. [`Recorder::chrome_json`] renders the kept spans as Chrome
//! trace-event JSON (viewable in Perfetto or `chrome://tracing`).

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

use artemis_core::app::{PathId, TaskId};
use artemis_core::event::MonitorEvent;
use artemis_monitor::{MonitorEngine, MonitorVerdict, Monitoring};
use intermittent_sim::device::{Device, Interrupt};

/// Full spans are kept for request ids divisible by this.
pub const KEEP_EVERY: u64 = 64;
/// At most this many full spans are kept (about 16 MB of trace JSON);
/// the aggregates keep counting past it.
const MAX_SPANS: usize = 100_000;

/// A layer boundary the benchmark times. The names are the metric
/// prefixes documented in the README.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// The benchmark's own loop around the calls below.
    Bench,
    /// Output checks run outside the measured rounds.
    Check,
    /// Building the simulated device (its FRAM image included).
    SimBuild,
    /// `artemis_spec::parse`.
    SpecParse,
    /// `artemis_spec::resolve`.
    SpecResolve,
    /// `artemis_ir::lower_set` plus `validate_strict` per machine.
    IrLower,
    /// `CompiledSuite::compile_with(.., OptLevel::None)`.
    IrCodegen,
    /// `optimize_machine` per machine and assembly of the optimized suite.
    IrOpt,
    /// `artemis_ir::analyze_suite`.
    IrAnalysis,
    /// `MonitorEngine::install_precompiled_shared` (runs its own
    /// analysis gate and allocates FRAM).
    MonitorInstall,
    /// `ArtemisRuntimeBuilder::install_with` (runtime FRAM + reset).
    RuntimeInstall,
    /// `Monitoring::call_monitor`.
    MonitorCall,
    /// `Monitoring::monitor_finalize`.
    MonitorFinalize,
    /// Every other `Monitoring` entry point (reset, batch delivery,
    /// path restart, verdict read-back).
    MonitorOther,
    /// `ArtemisRuntime::run_once`.
    RuntimeRun,
    /// `ArtemisRuntime::rearm`.
    RuntimeRearm,
    /// `artemis_fleet::run_shards`, seen from the calling thread.
    FleetPool,
    /// One call of the fleet's device factory on a worker.
    FleetFactory,
    /// One device run on a worker, between two factory calls.
    FleetDevice,
    /// `FleetStats::merge` over the returned shards.
    FleetMerge,
}

impl Layer {
    /// Every layer, in aggregate-index order.
    pub const ALL: [Layer; 20] = [
        Layer::Bench,
        Layer::Check,
        Layer::SimBuild,
        Layer::SpecParse,
        Layer::SpecResolve,
        Layer::IrLower,
        Layer::IrCodegen,
        Layer::IrOpt,
        Layer::IrAnalysis,
        Layer::MonitorInstall,
        Layer::RuntimeInstall,
        Layer::MonitorCall,
        Layer::MonitorFinalize,
        Layer::MonitorOther,
        Layer::RuntimeRun,
        Layer::RuntimeRearm,
        Layer::FleetPool,
        Layer::FleetFactory,
        Layer::FleetDevice,
        Layer::FleetMerge,
    ];

    /// Span name in the Chrome trace.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Check => "bench.check",
            Layer::SimBuild => "sim.build",
            Layer::SpecParse => "spec.parse",
            Layer::SpecResolve => "spec.resolve",
            Layer::IrLower => "ir.lower",
            Layer::IrCodegen => "ir.codegen",
            Layer::IrOpt => "ir.opt",
            Layer::IrAnalysis => "ir.analysis",
            Layer::MonitorInstall => "monitor.install",
            Layer::RuntimeInstall => "runtime.install",
            Layer::MonitorCall => "monitor.call",
            Layer::MonitorFinalize => "monitor.finalize",
            Layer::MonitorOther => "monitor.other",
            Layer::RuntimeRun => "runtime.run",
            Layer::RuntimeRearm => "runtime.rearm",
            Layer::FleetPool => "fleet.pool",
            Layer::FleetFactory => "fleet.factory",
            Layer::FleetDevice => "fleet.device",
            Layer::FleetMerge => "fleet.merge",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Event counts the benchmark gathers at the same boundaries as spans.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Counter {
    /// Verdicts returned by timed engines.
    Verdicts,
    /// Suites compiled through the traced pipeline.
    Compiles,
    /// Bytecode ops before optimization, over those suites.
    OpsPreOpt,
    /// Bytecode ops after optimization, over those suites.
    OpsPostOpt,
    /// Error-severity diagnostics from the standalone analysis calls.
    AnalysisErrors,
}

const COUNTERS: usize = 5;

/// Lossless per-layer totals.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Summed span durations.
    pub total_ns: u64,
    /// Summed durations minus the time covered by child spans.
    pub self_ns: u64,
}

/// One kept span.
#[derive(Clone, Copy, Debug)]
struct Span {
    layer: Layer,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing kept span, if any.
    parent: Option<usize>,
    request: u64,
    tid: u32,
}

struct Open {
    layer: Layer,
    start_ns: u64,
    child_ns: u64,
    kept: Option<usize>,
}

/// The in-memory span recorder of one thread.
pub struct Recorder {
    t0: Instant,
    agg: [Agg; Layer::ALL.len()],
    counts: [u64; COUNTERS],
    stack: Vec<Open>,
    spans: Vec<Span>,
    request: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            t0: Instant::now(),
            agg: [Agg::default(); Layer::ALL.len()],
            counts: [0; COUNTERS],
            stack: Vec::new(),
            spans: Vec::new(),
            request: 0,
        }
    }

    /// Adds `n` to a counter.
    pub fn count(&mut self, c: Counter, n: u64) {
        self.counts[c as usize] += n;
    }

    /// A counter's value.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counts[c as usize]
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Converts an instant taken elsewhere to this recorder's clock.
    pub fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Sets the request id that spans opened from now on belong to.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    fn enter(&mut self, layer: Layer) {
        let start_ns = self.now_ns();
        let keep = self.request.is_multiple_of(KEEP_EVERY) && self.spans.len() < MAX_SPANS;
        let kept = keep.then(|| {
            self.spans.push(Span {
                layer,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().and_then(|o| o.kept),
                request: self.request,
                tid: 1,
            });
            self.spans.len() - 1
        });
        self.stack.push(Open {
            layer,
            start_ns,
            child_ns: 0,
            kept,
        });
    }

    fn exit(&mut self) {
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("span exit without enter");
        let dur = end_ns - open.start_ns;
        self.fold(open.layer, dur, dur.saturating_sub(open.child_ns));
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        if let Some(i) = open.kept {
            self.spans[i].end_ns = end_ns;
        }
    }

    fn fold(&mut self, layer: Layer, total_ns: u64, self_ns: u64) {
        let a = &mut self.agg[layer.index()];
        a.count += 1;
        a.total_ns += total_ns;
        a.self_ns += self_ns;
    }

    /// Records a span measured outside this recorder (a fleet worker's
    /// factory call or device run) as a root span on thread `tid`.
    pub fn record(&mut self, layer: Layer, start_ns: u64, end_ns: u64, request: u64, tid: u32) {
        let dur = end_ns.saturating_sub(start_ns);
        self.fold(layer, dur, dur);
        if request.is_multiple_of(KEEP_EVERY) && self.spans.len() < MAX_SPANS {
            self.spans.push(Span {
                layer,
                start_ns,
                end_ns,
                parent: None,
                request,
                tid,
            });
        }
    }

    /// The aggregate of one layer.
    pub fn agg(&self, layer: Layer) -> Agg {
        self.agg[layer.index()]
    }

    /// The kept spans as Chrome trace-event JSON (`ph: "X"` complete
    /// events, microsecond timestamps).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\
                 \"request\":{}}}}}",
                s.layer.name(),
                s.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.request
            );
        }
        out.push_str("]}");
        out
    }
}

/// Runs `f` inside a span of `layer` when tracing, or just runs it.
pub fn span<T>(rec: Option<&RefCell<Recorder>>, layer: Layer, f: impl FnOnce() -> T) -> T {
    match rec {
        None => f(),
        Some(r) => {
            r.borrow_mut().enter(layer);
            let out = f();
            r.borrow_mut().exit();
            out
        }
    }
}

/// Sets the current request id when tracing.
pub fn set_request(rec: Option<&RefCell<Recorder>>, request: u64) {
    if let Some(r) = rec {
        r.borrow_mut().set_request(request);
    }
}

/// A forwarding [`Monitoring`] wrapper that times every entry point of
/// the deployment it wraps and counts delivered verdicts. It changes
/// nothing the device sees: every call goes to `inner` unchanged.
pub struct Timed<'r, M> {
    inner: M,
    rec: &'r RefCell<Recorder>,
}

impl<'r, M: Monitoring> Timed<'r, M> {
    /// Wraps `inner`, recording into `rec`.
    pub fn new(inner: M, rec: &'r RefCell<Recorder>) -> Self {
        Timed { inner, rec }
    }

    fn timed<T>(&self, layer: Layer, f: impl FnOnce() -> T) -> T {
        span(Some(self.rec), layer, f)
    }

    fn verdicts(&self, n: usize) {
        self.rec.borrow_mut().count(Counter::Verdicts, n as u64);
    }
}

/// The engine a workload drives: the plain [`MonitorEngine`] in
/// measured rounds, [`Timed`] around it in traced rounds. Workloads are
/// generic over it, so measured rounds run exactly the program's types.
pub trait Probe: Monitoring {
    /// The engine inside.
    fn engine(&self) -> &MonitorEngine;
}

impl Probe for MonitorEngine {
    fn engine(&self) -> &MonitorEngine {
        self
    }
}

impl Probe for Timed<'_, MonitorEngine> {
    fn engine(&self) -> &MonitorEngine {
        &self.inner
    }
}

impl<M: Monitoring> Monitoring for Timed<'_, M> {
    fn reset_monitor(&self, dev: &mut Device) -> Result<(), Interrupt> {
        self.timed(Layer::MonitorOther, || self.inner.reset_monitor(dev))
    }

    fn monitor_finalize(&self, dev: &mut Device) -> Result<bool, Interrupt> {
        self.timed(Layer::MonitorFinalize, || self.inner.monitor_finalize(dev))
    }

    fn call_monitor(
        &self,
        dev: &mut Device,
        seq: u64,
        event: &MonitorEvent,
    ) -> Result<Vec<MonitorVerdict>, Interrupt> {
        let out = self.timed(Layer::MonitorCall, || {
            self.inner.call_monitor(dev, seq, event)
        })?;
        self.verdicts(out.len());
        Ok(out)
    }

    fn deliver_batch(
        &self,
        dev: &mut Device,
        first_seq: u64,
        events: &[MonitorEvent],
    ) -> Result<Vec<Vec<MonitorVerdict>>, Interrupt> {
        let out = self.timed(Layer::MonitorOther, || {
            self.inner.deliver_batch(dev, first_seq, events)
        })?;
        self.verdicts(out.iter().map(Vec::len).sum());
        Ok(out)
    }

    fn batch_capacity(&self) -> usize {
        self.inner.batch_capacity()
    }

    fn end_event_is_silent(&self, task: TaskId) -> bool {
        self.inner.end_event_is_silent(task)
    }

    fn last_verdicts(&self, dev: &mut Device) -> Result<Vec<MonitorVerdict>, Interrupt> {
        self.timed(Layer::MonitorOther, || self.inner.last_verdicts(dev))
    }

    fn on_path_restart(&self, dev: &mut Device, path: PathId) -> Result<(), Interrupt> {
        self.timed(Layer::MonitorOther, || {
            self.inner.on_path_restart(dev, path)
        })
    }

    fn machine_count(&self) -> usize {
        self.inner.machine_count()
    }

    fn machine_names(&self) -> Vec<String> {
        self.inner.machine_names()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use artemis_bench::health;
    use intermittent_sim::capacitor::Capacitor;
    use intermittent_sim::device::DeviceBuilder;
    use intermittent_sim::energy::Energy;
    use intermittent_sim::harvester::Harvester;

    /// Delivers `events` exactly once each under power failures: an
    /// interrupted delivery reboots the device, finalizes, and
    /// redelivers the same sequence number. Returns the verdict stream
    /// and the device's FRAM counters.
    fn drive<M: Monitoring>(engine: &M, dev: &mut Device, events: &[MonitorEvent]) -> Vec<String> {
        let mut out = Vec::new();
        for (i, e) in events.iter().enumerate() {
            let seq = i as u64 + 1;
            loop {
                match engine.call_monitor(dev, seq, e) {
                    Ok(vs) => {
                        out.extend(
                            vs.iter()
                                .map(|v| format!("{seq}:{}:{:?}", v.machine_index, v.action)),
                        );
                        break;
                    }
                    Err(Interrupt::PowerFailure) => {
                        dev.power_cycle();
                        while engine.monitor_finalize(dev).is_err() {
                            dev.power_cycle();
                        }
                    }
                    Err(other) => panic!("unexpected interrupt {other:?}"),
                }
            }
        }
        out
    }

    fn small_device() -> Device {
        DeviceBuilder::msp430fr5994()
            .trace_disabled()
            .capacitor(Capacitor::with_budget(Energy::from_micro_joules(4)))
            .harvester(Harvester::FixedDelay(artemis_core::SimDuration::from_secs(
                1,
            )))
            .build()
    }

    #[test]
    fn timed_wrapper_is_transparent_under_power_cycles() {
        let app = health::health_app();
        let suite = artemis_ir::compile(health::HEALTH_SPEC, &app).unwrap();
        let events = crate::stream::walk(&app, 0x5eed, 3_000);
        let events: Vec<MonitorEvent> = events.iter().map(|e| e.event(0)).collect();

        let mut plain_dev = small_device();
        let plain = MonitorEngine::install(&mut plain_dev, suite.clone(), &app).unwrap();
        plain.reset_monitor(&mut plain_dev).unwrap();
        let plain_out = drive(&plain, &mut plain_dev, &events);

        let rec = RefCell::new(Recorder::new());
        let mut timed_dev = small_device();
        let timed = Timed::new(
            MonitorEngine::install(&mut timed_dev, suite, &app).unwrap(),
            &rec,
        );
        timed.reset_monitor(&mut timed_dev).unwrap();
        let timed_out = drive(&timed, &mut timed_dev, &events);

        assert!(
            plain_dev.reboots() > 10,
            "the stream must cross power failures"
        );
        assert!(!plain_out.is_empty(), "the stream must produce verdicts");
        assert_eq!(plain_out, timed_out);
        assert_eq!(
            rec.borrow().counter(Counter::Verdicts),
            timed_out.len() as u64
        );
        assert_eq!(plain_dev.reboots(), timed_dev.reboots());
        let fram = |d: &Device| {
            let f = d.fram();
            (f.read_ops(), f.write_ops(), f.read_bytes(), f.write_bytes())
        };
        assert_eq!(fram(&plain_dev), fram(&timed_dev));
        let calls = rec.borrow().agg(Layer::MonitorCall).count;
        assert!(calls >= events.len() as u64, "every delivery is timed");
    }

    #[test]
    fn self_time_excludes_children_and_spans_are_sampled() {
        let rec = RefCell::new(Recorder::new());
        for request in 0..(2 * KEEP_EVERY) {
            set_request(Some(&rec), request);
            span(Some(&rec), Layer::Bench, || {
                span(Some(&rec), Layer::MonitorCall, || {
                    std::hint::black_box(request)
                });
            });
        }
        let r = rec.borrow();
        let outer = r.agg(Layer::Bench);
        let inner = r.agg(Layer::MonitorCall);
        assert_eq!(outer.count, 2 * KEEP_EVERY);
        assert_eq!(outer.self_ns + inner.total_ns, outer.total_ns);
        let json = r.chrome_json();
        assert_eq!(
            json.matches("\"ph\":\"X\"").count(),
            4,
            "two requests kept, two spans each"
        );
        assert!(json.contains("\"name\":\"monitor.call\""));
        assert!(json.contains("\"parent\":0"));
    }
}
