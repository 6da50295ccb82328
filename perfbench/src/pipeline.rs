//! `pipeline`: in-memory `Reds::run` at the Table 2 defaults — every
//! metamodel family × {PRIM at `L = 10⁵`, BI at `L = 10⁴`} on borehole
//! (`M = 8`) and morris (`M = 20`), `N = 400` training points.
//!
//! Labeling, presort and peel are most of the PRIM cases; training is a
//! large share of the BI cases. The stream, out-of-core and serving
//! layers do no work in the timed passes.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reds_core::{Reds, RedsConfig};
use reds_data::{Dataset, SortedView};
use reds_stream::Labeling;
use reds_subgroup::{BestInterval, Prim, SdResult, SubgroupDiscovery};

use crate::common::{digest, mix, ms, repeat_setup, run_passes, score, trainer, Problem, Quality};
use crate::report::{mean_of_medians, median, peak_rss_mib, Report};
use crate::serve::Probe;
use crate::trace::Layers;
use crate::{Ctx, Inject};

const FUNCTIONS: [&str; 2] = ["borehole", "morris"];
const FAMILIES: [char; 3] = ['f', 'x', 's'];

struct Sizes {
    l_prim: usize,
    l_bi: usize,
    n_train: usize,
    n_test: usize,
    setups: usize,
}

impl Sizes {
    fn new(ctx: &Ctx) -> Self {
        if ctx.tiny() {
            Self {
                l_prim: 3_000,
                l_bi: 1_000,
                n_train: 120,
                n_test: 2_000,
                setups: 1,
            }
        } else {
            Self {
                l_prim: 100_000,
                l_bi: 10_000,
                n_train: 400,
                n_test: 20_000,
                setups: 3,
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Algo {
    Prim,
    Bi,
}

struct Case {
    problem: usize,
    family: char,
    algo: Algo,
    l: usize,
    rng_seed: u64,
}

impl Case {
    fn sd(&self) -> Box<dyn SubgroupDiscovery> {
        match self.algo {
            Algo::Prim => Box::new(Prim::default()),
            Algo::Bi => Box::new(BestInterval::default()),
        }
    }

    fn label(&self, problems: &[Problem]) -> String {
        let sd = if self.algo == Algo::Prim {
            "prim"
        } else {
            "bi"
        };
        format!(
            "{}/{}/{sd}/L={}",
            problems[self.problem].function, self.family, self.l
        )
    }

    /// `Reds::run`, the path users call.
    fn run(&self, problems: &[Problem]) -> Result<SdResult, String> {
        let reds = Reds::new(trainer(self.family), RedsConfig::default().with_l(self.l));
        let mut rng = StdRng::seed_from_u64(self.rng_seed);
        reds.run(&problems[self.problem].train, self.sd().as_ref(), &mut rng)
            .map_err(|e| e.to_string())
    }

    /// The same run rebuilt from the public layer calls with the RNG
    /// protocol of `Reds::run`, each layer timed.
    fn run_traced(&self, problems: &[Problem], layers: &Layers) -> Result<SdResult, String> {
        let d = &problems[self.problem].train;
        let m = d.m();
        let t = Instant::now();
        let mut rng = StdRng::seed_from_u64(self.rng_seed);
        let model = layers.time("metamodel.train_ms", || {
            trainer(self.family).train(d, &mut rng)
        });
        let (train_key, total_key) = match self.algo {
            Algo::Prim => ("prim_cases.train_ms", "prim_cases.total_ms"),
            Algo::Bi => ("bi_cases.train_ms", "bi_cases.total_ms"),
        };
        layers.add(train_key, ms(t));
        let points = layers.time("sampling.sample_ms", || {
            reds_sampling::uniform(self.l, m, &mut rng)
        });
        let preds = layers.time("metamodel.predict_ms", || model.predict_batch(&points, m));
        layers.add("metamodel.predict_rows", self.l as f64);
        let labeling = Labeling::Hard {
            bnd: RedsConfig::default().bnd,
        };
        let labels = preds.into_iter().map(|p| labeling.apply(p)).collect();
        let d_new = Dataset::new(points, labels, m).map_err(|e| e.to_string())?;
        let mut sd_rng = StdRng::seed_from_u64(rng.gen());
        let view = layers.time("data.presort_ms", || SortedView::new(&d_new));
        let layer = match self.algo {
            Algo::Prim => "subgroup.prim_ms",
            Algo::Bi => "subgroup.bi_ms",
        };
        let sd = self.sd();
        let result = layers.time(layer, || {
            sd.discover_presorted(&d_new, view, d, &mut sd_rng)
        });
        layers.add("subgroup.boxes", result.boxes.len() as f64);
        layers.add(total_key, ms(t));
        Ok(result)
    }
}

struct Setup {
    problems: Vec<Problem>,
    cases: Vec<Case>,
    probe: Probe,
    first: Vec<Result<SdResult, String>>,
}

fn setup(ctx: &Ctx, sizes: &Sizes) -> Result<Setup, String> {
    let problems: Vec<Problem> = FUNCTIONS
        .into_iter()
        .enumerate()
        .map(|(fi, function)| {
            Problem::new(
                function,
                sizes.n_train,
                sizes.n_test,
                mix(ctx.seed, 100 + fi as u64),
            )
        })
        .collect();
    let mut cases = Vec::new();
    for problem in 0..problems.len() {
        for family in FAMILIES {
            for (algo, l) in [(Algo::Prim, sizes.l_prim), (Algo::Bi, sizes.l_bi)] {
                cases.push(Case {
                    problem,
                    family,
                    algo,
                    l,
                    rng_seed: mix(ctx.seed, 10_000 + cases.len() as u64),
                });
            }
        }
    }
    // The prediction probe serves the three families fitted on the
    // first problem (borehole).
    let probe = Probe::new(ctx, &problems[0])?;
    // The reference outputs: one pass of `Reds::run`, which also warms
    // the process up for the timed passes.
    let first = cases.iter().map(|c| c.run(&problems)).collect();
    Ok(Setup {
        problems,
        cases,
        probe,
        first,
    })
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let sizes = Sizes::new(ctx);
    let mut report = Report::default();
    let s = repeat_setup(sizes.setups, &mut report, || setup(ctx, &sizes))?;
    let labels: Vec<String> = s.cases.iter().map(|c| c.label(&s.problems)).collect();

    let mut quality = Quality::default();
    let mut reference = Vec::with_capacity(s.cases.len());
    for ((case, label), result) in s.cases.iter().zip(&labels).zip(&s.first) {
        match result {
            Ok(r) => {
                report.op(!r.boxes.is_empty(), || format!("{label} found no box"));
                quality.add(score(r, &s.problems[case.problem].test));
                reference.push(digest(r));
            }
            Err(e) => {
                report.op(false, || format!("{label}: {e}"));
                reference.push(0);
            }
        }
    }
    if ctx.inject == Some(Inject::Reference) {
        reference[0] ^= 1;
    }

    let timings = run_passes(
        ctx,
        &labels,
        &reference,
        &mut report,
        &mut |i, layers| match layers {
            Some(layers) => s.cases[i].run_traced(&s.problems, layers),
            None => s.cases[i].run(&s.problems),
        },
        &|_| {},
        &|pass_ms| {
            if !ctx.trace {
                s.probe.slice(pass_ms);
            }
        },
    );
    if ctx.trace {
        let partition = [
            "metamodel.train_ms",
            "sampling.sample_ms",
            "metamodel.predict_ms",
            "data.presort_ms",
            "subgroup.prim_ms",
            "subgroup.bi_ms",
        ];
        timings
            .traced
            .report(&partition, median(&timings.list_ms), &mut report);
        report.note("gap: label mapping, Dataset::new validation and RNG seeding");
        let traced = &timings.traced;
        let train_share = |cases: &str| {
            let total = traced.median(&format!("{cases}.total_ms"));
            100.0 * traced.median(&format!("{cases}.train_ms")) / total.max(1e-9)
        };
        report.note(format!(
            "training is {:.0}% of the PRIM cases (labeling, presort and peel the rest) and \
             {:.0}% of the BI cases",
            train_share("prim_cases"),
            train_share("bi_cases")
        ));
        return Ok(report);
    }

    let rows: usize = s.cases.iter().map(|c| c.l).sum();
    let run_s = median(&timings.list_ms) / 1e3;
    let cal = &timings.calibration;
    report.set_time("run_s", run_s, cal);
    report.set_rate("rows_per_s", rows as f64 / run_s, cal);
    report.set_time("discover_p50_ms", mean_of_medians(&timings.lat_ms), cal);
    quality.report(&mut report);
    report.set("peak_rss_mib", peak_rss_mib());
    s.probe.report(&mut report);
    report.note(format!(
        "{} cases x {} timed passes (after the set-up's reference pass); {} discoveries timed",
        s.cases.len(),
        timings.list_ms.len(),
        timings.lat_ms.iter().map(Vec::len).sum::<usize>()
    ));
    Ok(report)
}
