//! The fabric phase: bit-true passes through `FunctionalFabric::conv2d_batch`,
//! the designs' scalar engines (`omac::engine_for`) and `pixel-dnn`'s pool
//! and requantization, every output checked against the `DirectMac`
//! reference computed at set-up.

use crate::stats::{sum_of_fastest, Digest, Tally};
use crate::trace::Tracer;
use pixel_core::config::{AcceleratorConfig, Design};
use pixel_core::functional_fabric::FunctionalFabric;
use pixel_core::model::EvalContext;
use pixel_core::omac::{engine_for, PLANE_WINDOWS};
use pixel_dnn::inference::{
    conv2d, fully_connected, pool, DirectMac, LayerWeights, MacEngine, ShapeError,
};
use pixel_dnn::layer::{Layer, LayerKind, Shape};
use pixel_dnn::network::Network;
use pixel_dnn::quant::Precision;
use pixel_dnn::tensor::Tensor;
use pixel_dnn::zoo;
use pixel_units::rng::SplitMix64;
use std::time::Instant;

/// The three designs, with the labels metric names use.
pub const DESIGNS: [(Design, &str); 3] =
    [(Design::Ee, "ee"), (Design::Oe, "oe"), (Design::Oo, "oo")];

/// Every conv layer any workload times, as metric stems.
pub const CONV_STEMS: [&str; 4] = ["lenet_conv1", "lenet_conv2", "lenet_conv3", "serve_conv"];

/// Images per LeNet batch: one full 64-wide bit-plane group per window
/// position, so no conv of the batch leaves a ragged tail.
const LENET_BATCH: usize = 64;
/// Requests per pass of the serving conv.
const SERVE_REQUESTS: usize = 8;
/// OMAC lanes and bits per lane of every fabric pass: the 4-bit
/// operands fit one lane word.
const LANES: usize = 4;
const BITS: u32 = 4;

/// One layer call of a pass.
#[derive(Debug, Clone)]
pub struct Step {
    /// Metric stem, e.g. `lenet_conv1`.
    pub stem: String,
    /// The layer at its declared shape.
    pub layer: Layer,
    /// Its weights.
    pub weights: LayerWeights,
    /// Own input batch, or `None` to consume the previous step's output.
    pub input: Option<Vec<Tensor>>,
}

/// A workload's fabric input: the steps of one pass, the fabric
/// configuration, and the reference outputs of every step.
#[derive(Debug, Clone)]
pub struct Case {
    /// Steps in execution order.
    pub steps: Vec<Step>,
    /// Activation precision (requantization after conv and FC).
    pub precision: Precision,
    /// `DirectMac` output of each step, per image, before requantization.
    pub reference: Vec<Vec<Tensor>>,
}

/// What executes a pass.
pub enum Engine {
    /// A design: convs on the fabric, FC on its scalar bit-true engine.
    Design {
        /// The fabric.
        fabric: FunctionalFabric,
        /// The design's scalar engine.
        scalar: Box<dyn MacEngine>,
    },
    /// The integer reference.
    Direct,
}

/// A labelled engine.
pub struct Unit {
    /// `ee`, `oe`, `oo` or `direct`.
    pub label: &'static str,
    /// The engine.
    pub engine: Engine,
}

impl Case {
    /// Builds the workload's case and its reference outputs.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown workload or a shape error.
    pub fn build(workload: &str, seed: u64) -> Result<Self, String> {
        let mut rng = SplitMix64::seed_from_u64(seed ^ 0xFAB0_0000_0000_0000);
        let precision = Precision::new(4);
        let limit = precision.max_value();
        let mut operand = move || rng.range_u64(0, limit);
        let steps = match workload {
            "lenet_b64" => {
                let net = zoo::lenet();
                let mut steps = Vec::new();
                for (i, layer) in net.layers().iter().enumerate() {
                    let input = (i == 0).then(|| {
                        (0..LENET_BATCH)
                            .map(|_| Tensor::from_fn(layer.input, |_, _, _| operand()))
                            .collect()
                    });
                    steps.push(Step {
                        stem: format!("lenet_{}", layer.name.to_lowercase()),
                        weights: LayerWeights::generate(layer, &mut operand),
                        layer: layer.clone(),
                        input,
                    });
                }
                steps
            }
            "serve_paper_mix" => {
                // The conv `pixel-served` runs per request in functional
                // mode (8×8×4 input, four 3×3 filters: 36 windows), one
                // request per call as the daemon issues it.
                let layer = Layer::conv("ServeConv", Shape::square(8, 4), 4, 3, 1);
                let weights = LayerWeights::generate(&layer, &mut operand);
                (0..SERVE_REQUESTS)
                    .map(|_| Step {
                        stem: "serve_conv".to_owned(),
                        layer: layer.clone(),
                        weights: weights.clone(),
                        input: Some(vec![Tensor::from_fn(layer.input, |_, _, _| operand())]),
                    })
                    .collect()
            }
            other => return Err(format!("unknown workload {other:?}")),
        };
        let mut case = Self {
            steps,
            precision,
            reference: Vec::new(),
        };
        case.reference = case.direct_outputs().map_err(|e| e.to_string())?;
        Ok(case)
    }

    /// Every step's raw `DirectMac` output.
    fn direct_outputs(&self) -> Result<Vec<Vec<Tensor>>, ShapeError> {
        let mut all: Vec<Vec<Tensor>> = Vec::new();
        let mut current: Vec<Tensor> = Vec::new();
        for step in &self.steps {
            let out = apply(
                step,
                &Engine::Direct,
                step.input.as_deref().unwrap_or(&current),
            )?;
            current = out.clone();
            self.requantize(step, &mut current);
            all.push(out);
        }
        Ok(all)
    }

    fn requantize(&self, step: &Step, tensors: &mut [Tensor]) -> bool {
        if matches!(step.layer.kind, LayerKind::Pool { .. }) {
            return false;
        }
        for t in tensors {
            self.precision.requantize(t);
        }
        true
    }

    /// The configuration a design runs this case on.
    pub fn config(&self, design: Design) -> AcceleratorConfig {
        AcceleratorConfig::new(design, LANES, BITS)
    }

    /// The three design units (plus the `DirectMac` unit when `direct`).
    pub fn units(&self, direct: bool) -> Vec<Unit> {
        let mut units: Vec<Unit> = DESIGNS
            .iter()
            .map(|&(design, label)| {
                let config = self.config(design);
                Unit {
                    label,
                    engine: Engine::Design {
                        fabric: FunctionalFabric::new(config),
                        scalar: engine_for(&config),
                    },
                }
            })
            .collect();
        if direct {
            units.push(Unit {
                label: "direct",
                engine: Engine::Direct,
            });
        }
        units
    }

    /// Bit-true MACs in one pass (conv and FC layers).
    pub fn macs(&self) -> u64 {
        let mut images = 0;
        let mut total = 0;
        for step in &self.steps {
            if let Some(input) = &step.input {
                images = input.len();
            }
            let l = &step.layer;
            let per_image = match l.kind {
                LayerKind::Conv {
                    filters, kernel, ..
                } => {
                    let e = l.output_feature_size();
                    e * e * filters * kernel * kernel * l.input.c
                }
                LayerKind::Fc { outputs } => outputs * l.input.elements(),
                LayerKind::Pool { .. } => 0,
            };
            total += (images * per_image) as u64;
        }
        total
    }

    /// Share of conv windows that fall in ragged tails (groups of fewer
    /// than [`PLANE_WINDOWS`] windows, run on the scalar path).
    pub fn tail_window_share(&self) -> f64 {
        let (mut windows, mut tail) = (0u64, 0u64);
        let mut images = 0;
        for step in &self.steps {
            if let Some(input) = &step.input {
                images = input.len();
            }
            if matches!(step.layer.kind, LayerKind::Conv { .. }) {
                let e = step.layer.output_feature_size();
                let w = (images * e * e) as u64;
                windows += w;
                tail += w % PLANE_WINDOWS as u64;
            }
        }
        #[allow(clippy::cast_precision_loss)]
        let share = tail as f64 / windows.max(1) as f64;
        share
    }

    /// The distinct compute layers of one pass, as a network the model
    /// can evaluate.
    pub fn timed_network(&self) -> Network {
        let mut layers: Vec<Layer> = Vec::new();
        for step in &self.steps {
            if step.layer.is_compute() && !layers.iter().any(|l| l.name == step.layer.name) {
                layers.push(step.layer.clone());
            }
        }
        Network::new("timed", layers)
    }

    /// Modeled PIXEL latency (µs) and energy (µJ) of one image through
    /// the timed layers on each design.
    pub fn model(&self, ctx: &EvalContext) -> Vec<(&'static str, f64, f64)> {
        let net = self.timed_network();
        DESIGNS
            .iter()
            .map(|&(design, label)| {
                let report = ctx.evaluate(&self.config(design), &net);
                (
                    label,
                    report.total_latency().value() * 1e6,
                    report.total_energy().value() * 1e6,
                )
            })
            .collect()
    }

    /// Folds the reference outputs into `digest`.
    pub fn digest_reference(&self, digest: &mut Digest) {
        for out in self.reference.iter().flatten() {
            for v in out.data() {
                digest.update(&v.to_le_bytes());
            }
        }
    }
}

/// Runs one step on `input` (untimed core shared by passes and the
/// reference).
fn apply(step: &Step, engine: &Engine, input: &[Tensor]) -> Result<Vec<Tensor>, ShapeError> {
    let l = &step.layer;
    let w = &step.weights;
    match (l.kind, engine) {
        (LayerKind::Conv { .. }, Engine::Design { fabric, .. }) => {
            fabric.conv2d_batch(l, input, w, 1)
        }
        (LayerKind::Conv { .. }, Engine::Direct) => {
            input.iter().map(|t| conv2d(l, t, w, &DirectMac)).collect()
        }
        (LayerKind::Fc { .. }, Engine::Design { scalar, .. }) => input
            .iter()
            .map(|t| fully_connected(l, t, w, scalar.as_ref()))
            .collect(),
        (LayerKind::Fc { .. }, Engine::Direct) => input
            .iter()
            .map(|t| fully_connected(l, t, w, &DirectMac))
            .collect(),
        (LayerKind::Pool { .. }, _) => input.iter().map(|t| pool(l, t)).collect(),
    }
}

/// The span name of one step on one unit.
fn span_name(step: &Step, unit: &Unit) -> String {
    match (step.layer.kind, unit.label) {
        (LayerKind::Pool { .. }, _) => "dnn.pool".to_owned(),
        (_, "direct") => format!("direct.{}", step.stem),
        (LayerKind::Conv { .. }, d) => format!("fabric.{d}.{}", step.stem),
        (LayerKind::Fc { .. }, d) => format!("omac.{d}.{}", step.stem),
    }
}

/// Counts mismatches of `got` against `want`, one check per image.
pub fn check_outputs(got: &[Tensor], want: &[Tensor], tally: &mut Tally) {
    tally.check(got.len() == want.len());
    for (g, w) in got.iter().zip(want) {
        tally.check(g == w);
    }
}

/// Runs one pass of `case` on `unit`, timing each layer call; returns
/// each step's host time (the layer call plus its requantization;
/// checks are not timed) and the checks.
///
/// # Errors
///
/// Propagates a shape error from any layer.
pub fn run_pass(
    case: &Case,
    unit: &Unit,
    tracer: &mut Tracer,
    id: u64,
) -> Result<(Vec<f64>, Tally), ShapeError> {
    let pass = tracer.begin(&format!("pass.{}", unit.label), id, None);
    let mut step_seconds = Vec::with_capacity(case.steps.len());
    let mut tally = Tally::default();
    let mut current: Vec<Tensor> = Vec::new();
    for (step, want) in case.steps.iter().zip(&case.reference) {
        let input = step.input.as_deref().unwrap_or(&current);
        let words_before = match &unit.engine {
            Engine::Design { fabric, .. } => fabric.detected_words(),
            Engine::Direct => 0,
        };
        let t0 = Instant::now();
        let mut out = apply(step, &unit.engine, input)?;
        let t1 = Instant::now();
        let mut busy = t1 - t0;
        tracer.record(&span_name(step, unit), id, pass, t0, t1);

        if let Engine::Design { fabric, .. } = &unit.engine {
            check_outputs(&out, want, &mut tally);
            if let LayerKind::Conv { kernel, .. } = step.layer.kind {
                let e = step.layer.output_feature_size();
                let words = (input.len() * e * e * kernel * kernel * step.layer.input.c) as u64;
                tally.check(fabric.detected_words() - words_before == words);
            }
        }

        let t0 = Instant::now();
        if case.requantize(step, &mut out) {
            let t1 = Instant::now();
            busy += t1 - t0;
            tracer.record("dnn.requant", id, pass, t0, t1);
        }
        step_seconds.push(busy.as_secs_f64());
        current = out;
    }
    tracer.end(pass);
    Ok((step_seconds, tally))
}

/// Step times of one fabric phase's timed passes.
#[derive(Debug, Default)]
pub struct PhaseTimes {
    /// `(label, traced, seconds per step)` per pass, in execution order.
    pub passes: Vec<(&'static str, bool, Vec<f64>)>,
}

impl PhaseTimes {
    /// Best-case pass time of `label` over passes with `traced`: the
    /// [`sum_of_fastest`] step times; `NaN` if no such pass ran.
    pub fn best_pass(&self, label: &str, traced: bool) -> f64 {
        let passes: Vec<&[f64]> = self
            .passes
            .iter()
            .filter(|(l, t, _)| *l == label && *t == traced)
            .map(|(_, _, steps)| steps.as_slice())
            .collect();
        sum_of_fastest(&passes)
    }
}
