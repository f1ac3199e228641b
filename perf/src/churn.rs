//! `install_churn`: spec text to an installed runtime on a fresh device,
//! over and over, with no events delivered. Stresses the spec front end,
//! lowering, codegen, the optimizer and the analysis gate, plus the
//! engine's FRAM allocation.

use artemis_bench::health;
use artemis_bench::workload::{self, Workload as GenApp};
use artemis_core::app::AppGraph;
use intermittent_sim::device::DeviceBuilder;

use crate::common::{self, fnv, fnv_str, Plane, Rec, Round};
use crate::runner::{Checks, Workload};
use crate::trace::{set_request, span, Layer};

/// Installs per round.
pub const INSTALLS: usize = 6_000;
/// Installs per timed segment.
const SEGMENT: usize = 1_500;
/// Every this-many-th install is the Fig. 5 suite; the rest are generated.
const FIG5_EVERY: usize = 4;

/// The install_churn workload.
pub struct Churn {
    health: AppGraph,
    /// `None`: the Fig. 5 suite on the wearable app.
    specs: Vec<Option<GenApp>>,
}

impl Churn {
    /// One install: returns (machines, bytecode ops, FRAM bytes
    /// allocated) and folds the device into `plane`.
    fn install(
        &self,
        spec: &Option<GenApp>,
        rec: Rec,
        plane: &mut Plane,
    ) -> Result<[u64; 3], String> {
        let (app, text, rb) = match spec {
            None => (
                &self.health,
                health::HEALTH_SPEC,
                health::artemis_builder(self.health.clone()),
            ),
            Some(w) => (&w.app, w.spec.as_str(), common::gen_runtime(w)),
        };
        let mut dev = span(rec, Layer::SimBuild, || {
            DeviceBuilder::msp430fr5994().trace_disabled().build()
        });
        let c = common::compile(text, app, rec)?;
        let engine = common::install_engine(&mut dev, &c, app, rec)?;
        let rt = common::install_runtime(&mut dev, rb, engine, rec)?;
        let ops: u64 = c
            .compiled
            .machines()
            .iter()
            .map(|m| m.op_count() as u64)
            .sum();
        plane.dev.add(&dev);
        plane.eng.add(rt.engine());
        Ok([
            rt.engine().machine_count() as u64,
            ops,
            dev.fram().used() as u64,
        ])
    }
}

impl Workload for Churn {
    const SIZE: usize = INSTALLS;

    fn generate(seed: u64, size: usize) -> Self {
        let specs = (0..size)
            .map(|i| {
                (i % FIG5_EVERY != 0).then(|| workload::generate(rand::seed_stream(seed, i as u64)))
            })
            .collect();
        Churn {
            health: health::health_app(),
            specs,
        }
    }

    fn input_digest(&self) -> u64 {
        fnv(self
            .specs
            .iter()
            .map(|s| s.as_ref().map_or(0, |w| fnv_str(&w.spec))))
    }

    fn setup(&mut self) {
        crate::runner::reference_install();
    }

    fn round(&self, rec: Rec) -> Round {
        let mut plane = Plane::default();
        let mut failed = 0;
        let mut digest = 0u64;
        let mut sw = common::stopwatch(rec, 1);
        for (i, spec) in self.specs.iter().enumerate() {
            if i > 0 && i.is_multiple_of(SEGMENT) {
                sw.lap();
            }
            set_request(rec, i as u64);
            match span(rec, Layer::Bench, || self.install(spec, rec, &mut plane)) {
                Ok(d) => {
                    plane.items += 1;
                    digest = fnv([digest, d[0], d[1], d[2]]);
                }
                Err(_) => failed += 1,
            }
        }
        let (secs, ref_secs) = sw.finish();
        Round {
            items: plane.items,
            secs,
            ref_secs,
            failed,
            digest: vec![digest, fnv(plane.words())],
            plane: Some(plane),
            profile: rec.map(|_| plane),
            ..Round::default()
        }
    }

    fn check(&self, _checks: &mut Checks) -> Option<Plane> {
        // Every install passing the analysis gate (no error-severity
        // diagnostic) shows as zero failed installs; the per-round
        // digest of (machines, bytecode ops, FRAM bytes) must repeat.
        None
    }
}
