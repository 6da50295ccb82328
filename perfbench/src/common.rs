//! Inputs, output digests, quality scores and the pass loop shared by
//! the workloads.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use reds_data::Dataset;
use reds_metamodel::{GbdtParams, Metamodel, RandomForestParams, SvmParams, Trainer};
use reds_subgroup::SdResult;

use crate::calib::Calibration;
use crate::report::{median, Fnv, Report};
use crate::trace::{Layers, Passes};
use crate::Ctx;

/// Derives an independent seed from a run seed and a stream index
/// (splitmix64 finalizer).
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Milliseconds since `t`.
pub fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Seed of the simulated data `D` and of every metamodel fit. It is
/// fixed, so a run's amount of work depends on `--seed` only through the
/// sampled points, the discovery RNG, the test sample and the request
/// payloads. With `D` drawn from `--seed`, the paged BI case alone ranged
/// over 5.5–10 s across five seeds, wider than any useful regression
/// bound.
pub const DATA_SEED: u64 = 0x5eed_da7a;

/// A benchmark function's simulated data `D` (Latin hypercube design,
/// labeled by the function, drawn from [`DATA_SEED`]) and an independent
/// uniform test sample, drawn from `test_seed`, for scoring the
/// discovered boxes.
pub struct Problem {
    pub function: &'static str,
    pub train: Dataset,
    pub test: Dataset,
}

impl Problem {
    pub fn new(function: &'static str, n_train: usize, n_test: usize, test_seed: u64) -> Self {
        let f = reds_functions::by_name(function).expect("benchmark function is registered");
        let mut rng = StdRng::seed_from_u64(mix(DATA_SEED, f.m() as u64));
        let design = reds_sampling::latin_hypercube(n_train, f.m(), &mut rng);
        let train = f
            .label_dataset(design, &mut rng)
            .expect("design shape matches the function");
        let mut rng = StdRng::seed_from_u64(test_seed);
        let test_points = reds_sampling::uniform(n_test, f.m(), &mut rng);
        let test = f
            .label_dataset(test_points, &mut rng)
            .expect("test shape matches the function");
        Self {
            function,
            train,
            test,
        }
    }
}

/// The metamodel family with the library's default (Table 2)
/// hyperparameters: `f` random forest, `x` boosted trees, `s` RBF SVM.
/// It trains with its own RNG seeded from [`DATA_SEED`], so `f^am` is a
/// fixture of the workload like `D`. The run's RNG then draws only the
/// new points and the discovery's randomness; with the model drawn from
/// it too, one paged PRIM case ranged over 5.6–8.9 s across five seeds.
pub fn trainer(family: char) -> Box<dyn Trainer> {
    let inner: Box<dyn Trainer> = match family {
        'f' => Box::new(RandomForestParams::default()),
        'x' => Box::new(GbdtParams::default()),
        's' => Box::new(SvmParams::default()),
        _ => unreachable!("families are f, x and s"),
    };
    Box::new(FixtureTrainer(inner))
}

struct FixtureTrainer(Box<dyn Trainer>);

impl Trainer for FixtureTrainer {
    fn train(&self, data: &Dataset, _rng: &mut StdRng) -> Box<dyn Metamodel> {
        self.0.train(data, &mut StdRng::seed_from_u64(DATA_SEED))
    }

    fn tag(&self) -> &'static str {
        self.0.tag()
    }
}

/// FNV-1a over the bound bits of every box, coarsest first.
pub fn digest(result: &SdResult) -> u64 {
    let mut h = Fnv::new();
    for b in &result.boxes {
        for &(lo, hi) in b.bounds() {
            h.u64(lo.to_bits());
            h.u64(hi.to_bits());
        }
    }
    h.finish()
}

/// Test-set PR AUC of the box sequence and precision of its last box.
pub fn score(result: &SdResult, test: &Dataset) -> (f64, f64) {
    let auc = reds_metrics::pr_auc(&result.boxes, test);
    let precision = result
        .last_box()
        .map_or(0.0, |b| reds_metrics::precision(b, test));
    (auc, precision)
}

/// Running means of the quality scores over a workload's discoveries.
#[derive(Default)]
pub struct Quality {
    auc: f64,
    precision: f64,
    n: usize,
}

impl Quality {
    pub fn add(&mut self, (auc, precision): (f64, f64)) {
        self.auc += auc;
        self.precision += precision;
        self.n += 1;
    }

    pub fn report(&self, report: &mut Report) {
        let n = self.n.max(1) as f64;
        report.set("pr_auc", self.auc / n);
        report.set("precision", self.precision / n);
    }
}

/// Runs `setup` `n` times (at least once), dropping each result before
/// the next starts, and sets `setup_s` to the median time, at the
/// reference host speed of calibrations before and after each set-up.
/// Returns the last result.
pub fn repeat_setup<T>(
    n: usize,
    report: &mut Report,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut times = Vec::with_capacity(n);
    let mut calibration = Calibration::default();
    let mut last = None;
    for _ in 0..n.max(1) {
        drop(last.take());
        calibration.sample();
        let t = Instant::now();
        last = Some(setup()?);
        times.push(t.elapsed().as_secs_f64());
    }
    calibration.sample();
    report.set_time("setup_s", median(&times), &calibration);
    Ok(last.expect("at least one set-up ran"))
}

/// A discovery workload's list of cases: `run(i, layers)` runs case `i`
/// through the user-facing entry point (`layers` is `None`) or through
/// the traced rebuild of the same run.
pub type RunCase<'a> = dyn FnMut(usize, Option<&Layers>) -> Result<SdResult, String> + 'a;

/// Timings of repeated passes over a fixed list of discoveries.
#[derive(Default)]
pub struct Timings {
    /// Wall time of each untraced pass.
    pub list_ms: Vec<f64>,
    /// Latencies of the untraced discoveries, per case.
    pub lat_ms: Vec<Vec<f64>>,
    /// Layer totals and wall time of each traced pass.
    pub traced: Passes,
    /// Results of the first untraced pass, for quality scoring.
    pub first: Vec<Result<SdResult, String>>,
    /// Host speed, sampled before the first pass and after each pass.
    pub calibration: Calibration,
}

/// Runs passes over the `labels.len()` cases for `ctx.seconds` of pass
/// time: at least two, so that a pass time is never one sample, and
/// another only while a typical pass still fits in the time left, so a
/// run never overshoots by most of a long pass. The host speed is
/// calibrated before the first pass and after every untraced one, and
/// `after_pass` runs after every untraced pass, outside the pass time,
/// with that pass's time in ms.
/// Every digest is checked against `reference`. A traced run alternates
/// untraced and traced passes, so the tracing overhead is measured under
/// the same conditions; `end_traced_pass` derives per-pass ratios before
/// the totals are taken.
pub fn run_passes(
    ctx: &Ctx,
    labels: &[String],
    reference: &[u64],
    report: &mut Report,
    run: &mut RunCase<'_>,
    end_traced_pass: &dyn Fn(&Layers),
    after_pass: &dyn Fn(f64),
) -> Timings {
    let layers = Layers::default();
    let mut out = Timings {
        lat_ms: vec![Vec::new(); labels.len()],
        ..Timings::default()
    };
    let modes: &[bool] = if ctx.trace { &[false, true] } else { &[false] };
    out.calibration.sample();
    let mut pass_ms = 0.0;
    let mut rounds = 0;
    while rounds < 2 || (pass_ms / 1e3 * (rounds + 1) as f64 / rounds as f64) <= ctx.seconds {
        rounds += 1;
        for &traced in modes {
            let t = Instant::now();
            for (i, (label, want)) in labels.iter().zip(reference).enumerate() {
                let tc = Instant::now();
                let result = run(i, traced.then_some(&layers));
                if !traced {
                    out.lat_ms[i].push(ms(tc));
                }
                let got = result.as_ref().map(digest);
                report.op(got.as_ref() == Ok(want), || {
                    format!("{label}: digest {got:x?} != reference {want:x}")
                });
                if out.list_ms.is_empty() && !traced {
                    out.first.push(result);
                }
            }
            let took = ms(t);
            pass_ms += took;
            if traced {
                end_traced_pass(&layers);
                out.traced.push(layers.take(), took);
            } else {
                out.list_ms.push(took);
                out.calibration.sample();
                after_pass(took);
            }
        }
    }
    out
}
