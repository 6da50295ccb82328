//! `serve`: an in-process `reds_serve` server with the three metamodel
//! families loaded from `.redsart`, driven by closed-loop client
//! connections (one per core, at most 2). Each connection repeats a
//! fixed round of 20 requests: 13 `predict_batch` of 64 rows (codec and
//! socket dominate), 6 of 4096 rows (the kernel dominates), and one PRIM
//! `discover` at `L = 2·10⁴`, which competes with the predictions for
//! the cores. It is the only workload that exercises decode, queueing,
//! encode and the socket.
//!
//! Served predictions must equal in-process `predict_batch` bit for bit,
//! and served boxes must equal `reds_serve::run_discover`.

use std::cell::{Cell, RefCell};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use reds_data::Dataset;
use reds_json::Json;
use reds_metamodel::{
    Gbdt, GbdtParams, Metamodel, RandomForest, RandomForestParams, SavedModel, Svm, SvmParams,
};
use reds_serve::registry::ModelVersion;
use reds_serve::{
    run_discover, serve_handler, Algorithm, Client, ClientError, DiscoverParams, FrameHandler,
    ModelArtifact, ModelRegistry, Request, ServeLimits, ServerHandle, Service,
};

use crate::calib::Calibration;
use crate::common::{digest, mix, ms, repeat_setup, score, Problem, Quality, DATA_SEED};
use crate::report::{mean_of_medians, median, peak_rss_mib, quantile, Report};
use crate::trace::Layers;
use crate::{Ctx, Inject};

const FUNCTION: &str = "borehole";
const MODELS: [(&str, char); 3] = [("forest", 'f'), ("gbdt", 'x'), ("svm", 's')];
/// Rows of one small and one large prediction request.
const SMALL_ROWS: usize = 64;
const LARGE_ROWS: usize = 4096;
/// Per-model keys of the prediction requests' kernel, decode, encode and
/// `handle_frame` times, for each family's codec share.
const FAMILY_KEYS: [[&str; 4]; 3] = [
    [
        "forest.kernel_ms",
        "forest.decode_ms",
        "forest.encode_ms",
        "forest.handle_ms",
    ],
    [
        "gbdt.kernel_ms",
        "gbdt.decode_ms",
        "gbdt.encode_ms",
        "gbdt.handle_ms",
    ],
    [
        "svm.kernel_ms",
        "svm.decode_ms",
        "svm.encode_ms",
        "svm.handle_ms",
    ],
];
/// Per-layer metric names of each family's codec share.
const CODEC_SHARE_KEYS: [&str; 3] = [
    "serve.codec_share.forest",
    "serve.codec_share.gbdt",
    "serve.codec_share.svm",
];
/// Requests per connection round: `s` small, `L` large, `d` discover.
/// Each connection shuffles the order every round, so that the closed
/// loops cannot lock into one phase, and one pattern of overlapping
/// requests, for a whole run.
const ROUND: &str = "sLssLssLsdsLssLssLss";
/// The round of the prediction probe the other workloads run.
const PROBE_ROUND: &str = "sssLsssss";
/// Probe time per unit of pass time: 8 s in a 20 s run.
const PROBE_SHARE: f64 = 0.4;

struct Sizes {
    n_train: usize,
    n_test: usize,
    discover_l: usize,
    /// Distinct payloads per model and request size.
    variants: usize,
    /// Distinct discover seeds per model.
    discover_variants: usize,
    setups: usize,
}

impl Sizes {
    fn new(ctx: &Ctx) -> Self {
        if ctx.tiny() {
            Self {
                n_train: 120,
                n_test: 2_000,
                discover_l: 2_000,
                variants: 2,
                discover_variants: 1,
                setups: 1,
            }
        } else {
            Self {
                n_train: 400,
                n_test: 20_000,
                discover_l: 20_000,
                variants: 4,
                discover_variants: 2,
                setups: 5,
            }
        }
    }
}

/// Served `predict_batch` latency of the three families fitted on
/// borehole: how the `pipeline` and `ooc` workloads report the
/// `predict_*` metrics. A server over the models packed to `.redsart`
/// takes rounds of nine requests (eight of 64 rows, one of 4096) from
/// the same closed-loop connections as `serve`, without `discover`
/// requests, in a slice after every timed pass, [`PROBE_SHARE`] as long
/// as the pass. Spread over the run like this, a passing slowdown of the
/// host weighs on the probe no more than on the passes; one 8 s probe
/// after the passes spread by up to 0.15 across runs. In-process 64-row `predict_batch` calls were no
/// use here: on a shared 2-core Xeon host one thread's speed switched
/// between levels about 1.5x apart for seconds at a time, and their
/// medians spread by 18–42% across runs.
pub struct Probe {
    setup: Setup,
    seen: RefCell<Seen>,
}

impl Probe {
    pub fn new(ctx: &Ctx, problem: &Problem) -> Result<Self, String> {
        let sizes = Sizes {
            discover_variants: 0,
            ..Sizes::new(ctx)
        };
        Ok(Self {
            setup: setup(ctx, &sizes, problem, PROBE_ROUND)?,
            seen: RefCell::default(),
        })
    }

    /// Drives the server for one slice of [`PROBE_SHARE`] of `pass_ms`,
    /// the time of the pass before it (at least 0.1 s).
    pub fn slice(&self, pass_ms: f64) {
        let seconds = (PROBE_SHARE * pass_ms / 1e3).max(0.1);
        let mut seen = self.seen.borrow_mut();
        let first_segment = seen.round_ms.len();
        let (slice, _) = drive(
            &self.setup,
            &self.setup.server,
            connections(),
            seconds,
            first_segment,
        );
        seen.merge(slice);
    }

    /// Counts the slices' requests and sets the three `predict_*`
    /// metrics, reduced as in the `serve` workload.
    pub fn report(&self, report: &mut Report) {
        let seen = self.seen.borrow();
        account(report, &seen);
        seen.report_predict(report);
        report.note(format!(
            "served prediction probe: {} small and {} large samples",
            seen.small_ms.len(),
            seen.large_ms.len()
        ));
    }
}

/// Closed-loop client connections: one per core, at most 2.
fn connections() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// One prediction request body and the in-process answer it must get.
struct Payload {
    points: Vec<f64>,
    want: Vec<u64>,
}

struct Discover {
    params: DiscoverParams,
    want: u64,
    quality: (f64, f64),
}

/// Everything a round of requests needs, per model.
struct ModelSet {
    name: &'static str,
    small: Vec<Payload>,
    large: Vec<Payload>,
    discovers: Vec<Discover>,
    path: PathBuf,
}

struct Setup {
    seed: u64,
    m: usize,
    models: Vec<ModelSet>,
    round: &'static str,
    server: Server,
}

/// A running server plus, for a traced one, its layer accumulator. It
/// shuts the server down when dropped.
struct Server {
    handle: Option<ServerHandle>,
    service: Arc<Service>,
    layers: Option<Arc<Layers>>,
}

impl Server {
    fn addr(&self) -> std::net::SocketAddr {
        self.handle.as_ref().expect("server is running").addr()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.shutdown();
        }
    }
}

/// Bit patterns of a prediction vector, for exact comparison.
fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Fits one metamodel family with the library's default (Table 2)
/// hyperparameters, as the serving tools do.
fn fit_saved(family: char, train: &Dataset, seed: u64) -> SavedModel {
    let mut rng = StdRng::seed_from_u64(seed);
    match family {
        'f' => SavedModel::Forest(RandomForest::fit(
            train,
            &RandomForestParams::default(),
            &mut rng,
        )),
        'x' => SavedModel::Gbdt(Gbdt::fit(train, &GbdtParams::default(), &mut rng)),
        _ => SavedModel::Svm(Svm::fit(train, &SvmParams::default(), &mut rng)),
    }
}

/// Fits, packs and references one model family.
fn model_set(
    ctx: &Ctx,
    sizes: &Sizes,
    problem: &Problem,
    (name, family): (&'static str, char),
    k: usize,
) -> Result<ModelSet, String> {
    let train = &problem.train;
    let m = train.m();
    let saved = fit_saved(family, train, mix(DATA_SEED, 40 + k as u64));
    let payloads = |rows: usize, rng: &mut StdRng| -> Vec<Payload> {
        (0..sizes.variants)
            .map(|_| {
                let points = reds_sampling::uniform(rows, m, rng);
                let want = bits(&saved.predict_batch(&points, m));
                Payload { points, want }
            })
            .collect()
    };
    let mut rng = StdRng::seed_from_u64(mix(ctx.seed, 40 + k as u64));
    let small = payloads(SMALL_ROWS, &mut rng);
    let large = payloads(LARGE_ROWS, &mut rng);
    let mut discovers = Vec::new();
    for v in 0..sizes.discover_variants {
        let params = DiscoverParams {
            l: sizes.discover_l,
            seed: mix(ctx.seed, 50 + (k * 10 + v) as u64),
            algorithm: Algorithm::Prim,
            bnd: 0.5,
        };
        let result = run_discover(|p| Ok(saved.predict_batch(&p, m)), m, train, &params)
            .map_err(|e| format!("reference discover: {e}"))?;
        discovers.push(Discover {
            params,
            want: digest(&result),
            quality: score(&result, &problem.test),
        });
    }
    let artifact = ModelArtifact {
        function: FUNCTION.to_string(),
        seed: ctx.seed,
        pool_seed: mix(ctx.seed, 60 + k as u64),
        pool_design: reds_serve::POOL_DESIGN_UNIFORM.to_string(),
        model: saved.into(),
        train: train.clone(),
    };
    let path = ctx.scratch.join(format!("{name}.redsart"));
    artifact
        .save_art(&path)
        .map_err(|e| format!("cannot pack {name}: {e}"))?;
    Ok(ModelSet {
        name,
        small,
        large,
        discovers,
        path,
    })
}

fn load(path: &Path) -> Result<ModelArtifact, String> {
    ModelArtifact::load_art(path).map_err(|e| format!("cannot load {}: {e}", path.display()))
}

/// Starts a server over the packed models. A traced server gets a
/// timing front end and a kernel-timing version of every model.
fn start(models: &[ModelSet], traced: bool) -> Result<Server, String> {
    let limits = ServeLimits::default();
    let registry = ModelRegistry::with_default(models[0].name, load(&models[0].path)?, &limits);
    for set in &models[1..] {
        registry
            .install(set.name, load(&set.path)?)
            .map_err(|e| e.to_string())?;
    }
    let layers = traced.then(|| Arc::new(Layers::default()));
    if let Some(layers) = &layers {
        for (k, set) in models.iter().enumerate() {
            let entry = registry.get(Some(set.name)).map_err(|e| e.to_string())?;
            let kernel = load(&set.path)?;
            let layers = Arc::clone(layers);
            let shim = Box::new(move |points: &[f64], m: usize| {
                let t = Instant::now();
                let preds = kernel.model.predict_batch(points, m);
                let took = ms(t);
                layers.add("metamodel.predict_ms", took);
                layers.add("metamodel.predict_rows", (points.len() / m) as f64);
                if !IN_DISCOVER.with(Cell::get) {
                    layers.add("serve.kernel_ms", took);
                    layers.add(FAMILY_KEYS[k][0], took);
                }
                Some(preds)
            });
            entry.install_version(
                Arc::new(ModelVersion::with_shim(2, load(&set.path)?, shim)),
                Duration::ZERO,
            );
        }
    }
    let service = Arc::new(Service::with_registry(Arc::new(registry), limits.clone()));
    let gauges = Arc::clone(service.gauges());
    let handler: Arc<dyn FrameHandler> = match &layers {
        Some(layers) => Arc::new(TracedFrontEnd {
            service: Arc::clone(&service),
            layers: Arc::clone(layers),
        }),
        None => Arc::clone(&service) as Arc<dyn FrameHandler>,
    };
    let handle = serve_handler(handler, "127.0.0.1:0", limits, gauges)
        .map_err(|e| format!("cannot start the server: {e}"))?;
    Ok(Server {
        handle: Some(handle),
        service,
        layers,
    })
}

thread_local! {
    /// Set while this executor thread serves a `discover`, so the kernel
    /// shim can tell its labeling apart from `predict_batch` kernels.
    static IN_DISCOVER: Cell<bool> = const { Cell::new(false) };
}

/// A timing wrapper around the program's own `Service::handle_frame`.
/// It decodes each frame once more with the public `reds_json::from_str`
/// and `Request::from_json`, to time decode and learn the request's kind
/// and model; times the whole `handle_frame` call; and serializes the
/// reply once more with `to_string_compact`, the reactor's own encode
/// step, to time encode. The extra decode and encode are tracing
/// overhead; the reactor still serializes the reply it is handed.
struct TracedFrontEnd {
    service: Arc<Service>,
    layers: Arc<Layers>,
}

impl FrameHandler for TracedFrontEnd {
    fn handle_frame(&self, line: &str) -> (Json, bool) {
        let t0 = Instant::now();
        let request = reds_json::from_str(line)
            .ok()
            .and_then(|doc| Request::from_json(&doc).ok());
        let decode = ms(t0);
        let discover = matches!(request, Some(Request::Discover { .. }));
        let family = request
            .as_ref()
            .and_then(|r| MODELS.iter().position(|(n, _)| r.model() == Some(*n)));
        IN_DISCOVER.with(|f| f.set(discover));
        let t1 = Instant::now();
        let reply = self.service.handle_frame(line);
        let handle = ms(t1);
        IN_DISCOVER.with(|f| f.set(false));
        let t2 = Instant::now();
        std::hint::black_box(reply.0.to_string_compact());
        let encode = ms(t2);
        self.layers.add("serve.decode_ms", decode);
        self.layers.add("serve.encode_ms", encode);
        self.layers.add("serve.front_ms", ms(t0));
        // `handle_frame` decodes the frame again itself: the rest of it
        // is the search of a `discover`, or the kernel plus the wait for
        // a batch worker of a prediction.
        let rest = handle - decode;
        if discover {
            self.layers.add("serve.search_ms", rest);
        } else {
            self.layers.add("serve.predict_rest_ms", rest);
        }
        if let Some(k) = family.filter(|_| !discover) {
            let [_, decode_key, encode_key, handle_key] = FAMILY_KEYS[k];
            self.layers.add(decode_key, decode);
            self.layers.add(encode_key, encode);
            self.layers.add(handle_key, handle);
        }
        reply
    }
}

/// Fits, packs and references the three families on `problem` and starts a
/// server over them whose clients will repeat `round`.
fn setup(
    ctx: &Ctx,
    sizes: &Sizes,
    problem: &Problem,
    round: &'static str,
) -> Result<Setup, String> {
    let mut models = MODELS
        .iter()
        .enumerate()
        .map(|(k, &spec)| model_set(ctx, sizes, problem, spec, k))
        .collect::<Result<Vec<_>, _>>()?;
    match ctx.inject {
        Some(Inject::Reference) => {
            if let Some(d) = models[0].discovers.first_mut() {
                d.want ^= 1;
            }
        }
        Some(Inject::Prediction) => models[0].small[0].want[0] ^= 1,
        None => {}
    }
    let server = start(&models, false)?;
    Ok(Setup {
        seed: ctx.seed,
        m: problem.train.m(),
        models,
        round,
        server,
    })
}

/// What one connection saw.
#[derive(Default)]
struct Seen {
    small_ms: Vec<f64>,
    large_ms: Vec<f64>,
    discover_ms: Vec<f64>,
    round_ms: Vec<f64>,
    /// Small and large prediction round trips per model, by position in
    /// the set-up's model list.
    small_by: [Vec<f64>; 3],
    large_by: [Vec<f64>; 3],
    discover_by: [Vec<f64>; 3],
    rows: usize,
    ok: usize,
    failures: Vec<String>,
    too_busy: usize,
    /// Host speed, sampled by `drive` between its segments.
    calibration: Calibration,
}

impl Seen {
    /// Sets the `predict_*` metrics. A p50 is the mean of the models'
    /// own medians (pooled large p50s spread by 22% across runs); the
    /// p99 is pooled.
    fn report_predict(&self, report: &mut Report) {
        let cal = &self.calibration;
        report.set_time("predict_small_p50_ms", mean_of_medians(&self.small_by), cal);
        report.set_time("predict_small_p99_ms", quantile(&self.small_ms, 0.99), cal);
        report.set_time("predict_large_p50_ms", mean_of_medians(&self.large_by), cal);
    }

    fn merge(&mut self, other: Seen) {
        self.small_ms.extend(other.small_ms);
        self.large_ms.extend(other.large_ms);
        self.discover_ms.extend(other.discover_ms);
        self.round_ms.extend(other.round_ms);
        for (mine, theirs) in self.small_by.iter_mut().zip(other.small_by) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.large_by.iter_mut().zip(other.large_by) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.discover_by.iter_mut().zip(other.discover_by) {
            mine.extend(theirs);
        }
        self.rows += other.rows;
        self.ok += other.ok;
        self.failures.extend(other.failures);
        self.too_busy += other.too_busy;
        self.calibration.extend(other.calibration);
    }
}

/// One closed-loop connection of one segment of a drive: rounds until
/// `seconds` have elapsed.
fn connection(s: &Setup, server: &Server, c: usize, segment: usize, seconds: f64) -> Seen {
    let mut seen = Seen::default();
    let mut client = match Client::connect(server.addr()) {
        Ok(client) => client,
        Err(e) => {
            seen.failures.push(format!("connection {c}: {e}"));
            return seen;
        }
    };
    let failed = |seen: &mut Seen, e: ClientError, what: &str| {
        if matches!(&e, ClientError::Server { code, .. } if code == "too_busy") {
            seen.too_busy += 1;
        }
        seen.failures.push(format!("connection {c}: {what}: {e}"));
    };
    let kinds: Vec<char> = s.round.chars().collect();
    let mut order: Vec<usize> = (0..kinds.len()).collect();
    let mut rng = StdRng::seed_from_u64(mix(s.seed, 70 + (c + 16 * segment) as u64));
    let start = Instant::now();
    let mut round = 0;
    while round == 0 || start.elapsed().as_secs_f64() < seconds {
        order.shuffle(&mut rng);
        let tr = Instant::now();
        for &j in &order {
            let kind = kinds[j];
            let k = (j + round + c) % s.models.len();
            let set = &s.models[k];
            if kind == 'd' {
                let d = &set.discovers[(round + c) % set.discovers.len()];
                let t = Instant::now();
                let out = client.discover_on(Some(set.name), &d.params);
                let took = ms(t);
                seen.discover_ms.push(took);
                seen.discover_by[k].push(took);
                match out {
                    Ok(r) if digest(&r) == d.want => seen.ok += 1,
                    Ok(r) => seen.failures.push(format!(
                        "{}: served discover digest {:x} != run_discover {:x}",
                        set.name,
                        digest(&r),
                        d.want
                    )),
                    Err(e) => failed(&mut seen, e, "discover"),
                }
                continue;
            }
            let (payloads, out_ms, by_model) = if kind == 's' {
                (&set.small, &mut seen.small_ms, &mut seen.small_by[k])
            } else {
                (&set.large, &mut seen.large_ms, &mut seen.large_by[k])
            };
            let p = &payloads[(round + c + j) % payloads.len()];
            let t = Instant::now();
            let out = client.predict_batch_on(Some(set.name), &p.points, s.m);
            let took = ms(t);
            out_ms.push(took);
            by_model.push(took);
            match out {
                Ok((_, preds)) if bits(&preds) == p.want => {
                    seen.ok += 1;
                    seen.rows += preds.len();
                }
                Ok(_) => seen.failures.push(format!(
                    "{}: served predictions differ from in-process predict_batch",
                    set.name
                )),
                Err(e) => failed(&mut seen, e, "predict_batch"),
            }
        }
        seen.round_ms.push(ms(tr));
        round += 1;
    }
    seen
}

/// Drives `server` with every connection for `seconds`, in segments of
/// about 2 s (numbered from `first_segment`, which seeds each
/// connection's request order) with a host-speed calibration before each
/// segment and after the last; returns what the connections saw and the
/// wall time of the segments.
fn drive(
    s: &Setup,
    server: &Server,
    connections: usize,
    seconds: f64,
    first_segment: usize,
) -> (Seen, f64) {
    let segments = (seconds / 2.0).ceil().max(1.0) as usize;
    let mut all = Seen::default();
    let mut wall = 0.0;
    for segment in first_segment..first_segment + segments {
        all.calibration.sample();
        let t = Instant::now();
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..connections)
                .map(|c| {
                    let seconds = seconds / segments as f64;
                    scope.spawn(move || connection(s, server, c, segment, seconds))
                })
                .collect();
            for w in workers {
                match w.join() {
                    Ok(seen) => all.merge(seen),
                    Err(_) => all.failures.push("client thread panicked".into()),
                }
            }
        });
        wall += ms(t);
    }
    all.calibration.sample();
    (all, wall)
}

/// Requests and kernel calls served so far, summed over the models of
/// the `info` counters.
fn batch_counters(server: &Server) -> (f64, f64) {
    let mut requests = 0.0;
    let mut batches = 0.0;
    let info = server.service.info();
    for model in info
        .get("models")
        .and_then(Json::as_array)
        .unwrap_or_default()
    {
        let field = |k: &str| model.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        requests += field("requests");
        batches += field("batches");
    }
    (requests, batches)
}

fn account(report: &mut Report, seen: &Seen) {
    for _ in 0..seen.ok {
        report.op(true, String::new);
    }
    for failure in &seen.failures {
        report.op(false, || failure.clone());
    }
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let sizes = Sizes::new(ctx);
    let connections = connections();
    let mut report = Report::default();
    // A set-up repeats every step, the server start included.
    let s = repeat_setup(sizes.setups, &mut report, || {
        let problem = Problem::new(FUNCTION, sizes.n_train, sizes.n_test, mix(ctx.seed, 400));
        setup(ctx, &sizes, &problem, ROUND)
    })?;

    if ctx.trace {
        let traced = start(&s.models, true)?;
        let (plain, _) = drive(&s, &s.server, connections, ctx.seconds / 2.0, 0);
        account(&mut report, &plain);
        let before = batch_counters(&traced);
        let (seen, _) = drive(&s, &traced, connections, ctx.seconds / 2.0, 0);
        let after = batch_counters(&traced);
        account(&mut report, &seen);
        let layers = traced.layers.as_ref().expect("traced server has layers");
        let rounds = seen.round_ms.len().max(1) as f64;
        let per_round = |name: &str| layers.get(name) / rounds;
        let rt: f64 = seen
            .small_ms
            .iter()
            .chain(&seen.large_ms)
            .chain(&seen.discover_ms)
            .sum();
        let kernel = per_round("serve.kernel_ms");
        let decode = per_round("serve.decode_ms");
        let encode = per_round("serve.encode_ms");
        let search = per_round("serve.search_ms");
        let queue = per_round("serve.predict_rest_ms") - kernel;
        // The reactor serializes each reply after the front end returns,
        // at the cost the front end timed as encode.
        let socket = rt / rounds - per_round("serve.front_ms") - encode;
        for (name, v) in [
            ("serve.decode_ms", decode),
            ("serve.encode_ms", encode),
            ("serve.kernel_ms", kernel),
            ("serve.search_ms", search),
            ("serve.queue_wait_ms", queue),
            ("serve.socket_ms", socket),
            ("metamodel.predict_ms", per_round("metamodel.predict_ms")),
            (
                "metamodel.predict_rows",
                per_round("metamodel.predict_rows"),
            ),
        ] {
            report.set(name, v);
        }
        let requests = after.0 - before.0;
        let batches = after.1 - before.1;
        report.set("serve.requests_per_batch", requests / batches.max(1.0));
        report.set("serve.too_busy", (seen.too_busy + plain.too_busy) as f64);
        let layers_ms = decode + encode + kernel + search + queue + socket;
        let wall = seen.round_ms.iter().sum::<f64>() / rounds;
        let untraced = plain.round_ms.iter().sum::<f64>() / plain.round_ms.len().max(1) as f64;
        report.set("trace.layers_ms", layers_ms);
        report.set("trace.end_to_end_ms", wall);
        report.set("trace.coverage", layers_ms / wall.max(1e-9));
        report.set("trace.overhead_ms", wall - untraced);
        report.note(format!(
            "per connection round ({} traced rounds): decode {decode:.2} + encode {encode:.2} \
             + kernel {kernel:.2} + search {search:.2} + queue_wait {queue:.2} + socket \
             {socket:.2} = {layers_ms:.2} ms of {wall:.2} ms ({:.1}%); the gap is the front \
             end's second decode and encode ({:.2} ms) and the clients' checks between \
             requests ({:.2} ms); untraced round {untraced:.2} ms",
            seen.round_ms.len(),
            100.0 * layers_ms / wall.max(1e-9),
            decode + encode,
            wall - rt / rounds
        ));
        report.note(
            "decode and encode are timed directly; queue_wait (a prediction's handle_frame \
             minus decode and kernel, which holds building the reply tree) and socket (the \
             client round trip minus the front end and the reactor's encode: transport and \
             the client's own codec) are residuals, so the layers sum to the round trips by \
             definition and coverage only tests the round trips against the round's wall time",
        );
        // Codec share of each family's prediction requests: decode,
        // encode and socket over the round trip, both without the front
        // end's second decode and encode.
        for (k, (name, _)) in MODELS.iter().enumerate() {
            let [kernel_key, decode_key, encode_key, handle_key] = FAMILY_KEYS[k];
            let rt: f64 = seen.small_by[k].iter().chain(&seen.large_by[k]).sum();
            let untraced_rt = rt - layers.get(decode_key) - layers.get(encode_key);
            let codec = rt - layers.get(handle_key) - layers.get(encode_key);
            let share = codec / untraced_rt.max(1e-9);
            report.set(CODEC_SHARE_KEYS[k], share);
            report.note(format!(
                "{name}: prediction round trips {untraced_rt:.0} ms, kernel {:.0} ms, decode \
                 {:.0} ms, encode {:.0} ms, codec and socket {codec:.0} ms ({:.0}%)",
                layers.get(kernel_key),
                layers.get(decode_key),
                layers.get(encode_key),
                100.0 * share
            ));
        }
        return Ok(report);
    }

    let (seen, wall_ms) = drive(&s, &s.server, connections, ctx.seconds, 0);
    account(&mut report, &seen);
    let cal = &seen.calibration;
    report.set_time("run_s", median(&seen.round_ms) / 1e3, cal);
    report.set_rate("rows_per_s", seen.rows as f64 / (wall_ms / 1e3), cal);
    seen.report_predict(&mut report);
    report.set_time("discover_p50_ms", mean_of_medians(&seen.discover_by), cal);
    let mut quality = Quality::default();
    for set in &s.models {
        for d in &set.discovers {
            quality.add(d.quality);
        }
    }
    quality.report(&mut report);
    report.set("peak_rss_mib", peak_rss_mib());
    report.note(format!(
        "{connections} closed-loop connections, {} rounds; samples: {} small, {} large, {} \
         discover; {} too_busy",
        seen.round_ms.len(),
        seen.small_ms.len(),
        seen.large_ms.len(),
        seen.discover_ms.len(),
        seen.too_busy
    ));
    Ok(report)
}
