//! The REDS benchmark: one command runs one workload and prints every
//! end-to-end metric by name with its unit (`--trace 0`), or rebuilds
//! the workload from the public layer calls and prints the per-layer
//! metrics (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload pipeline|ooc|serve --seed N --seconds S --trace 0|1 \
//!     [--scale full|tiny] [--inject reference|prediction] [--ooc-cache-mib N]
//! ```
//!
//! The human-readable report goes to stderr. Stdout carries one
//! `stamp {...}` line (commit and machine) and, as its last line, the
//! result object `{"correct", "attempted", "failed", "metrics"}`. Any
//! failed operation or correctness mismatch makes the run exit 1.
//! `WORKLOADS.md` beside this package says what each workload and
//! metric means.

mod calib;
mod common;
mod ooc;
mod pipeline;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use report::Stamp;

const USAGE: &str = "usage: reds-perfbench --workload pipeline|ooc|serve --seed N --seconds S \
--trace 0|1 [--scale full|tiny] [--inject reference|prediction] [--ooc-cache-mib N]";

/// End-to-end metrics: every workload reports each of them in an
/// untraced run (`WORKLOADS.md` gives each workload's reading).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("pr_auc", "ratio"),
    ("precision", "ratio"),
    ("rows_per_s", "rows/s"),
    ("discover_p50_ms", "ms"),
    ("predict_small_p50_ms", "ms"),
    ("predict_small_p99_ms", "ms"),
    ("predict_large_p50_ms", "ms"),
];

/// Per-layer metrics of a traced run. A layer that does no work in a
/// workload reports 0. Times are self times per pass of the workload's
/// fixed list (median over the traced passes).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("metamodel.train_ms", "ms"),
    ("sampling.sample_ms", "ms"),
    ("metamodel.predict_ms", "ms"),
    ("metamodel.predict_rows", "rows"),
    ("data.presort_ms", "ms"),
    ("subgroup.prim_ms", "ms"),
    ("subgroup.bi_ms", "ms"),
    ("subgroup.boxes", "count"),
    ("stream.sample_ms", "ms"),
    ("stream.label_ms", "ms"),
    ("stream.build_ms", "ms"),
    ("stream.chunks", "count"),
    ("stream.artifact_bytes", "bytes"),
    ("ooc.open_ms", "ms"),
    ("ooc.access_ms", "ms"),
    ("ooc.access_calls", "count"),
    ("ooc.search_self_ms", "ms"),
    ("ooc.page_hits", "count"),
    ("ooc.page_misses", "count"),
    ("ooc.hit_ratio", "ratio"),
    ("ooc.bytes_fetched", "bytes_calc"),
    ("serve.decode_ms", "ms"),
    ("serve.encode_ms", "ms"),
    ("serve.socket_ms", "ms"),
    ("serve.kernel_ms", "ms"),
    ("serve.search_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.requests_per_batch", "ratio"),
    ("serve.too_busy", "count"),
    ("serve.codec_share.forest", "ratio"),
    ("serve.codec_share.gbdt", "ratio"),
    ("serve.codec_share.svm", "ratio"),
    ("trace.layers_ms", "ms"),
    ("trace.end_to_end_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ms", "ms"),
];

/// Input sizes: `Full` is the benchmark proper, `Tiny` a seconds-long
/// smoke configuration for the package's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// A deliberate fault, for proving the correctness checks can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inject {
    /// Perturb the reference digests the outputs are checked against.
    Reference,
    /// Perturb the reference predictions served rows are checked against.
    Prediction,
}

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    pub inject: Option<Inject>,
    /// Page-cache budget override for the `ooc` workload.
    pub ooc_cache_mib: Option<usize>,
    /// Per-run scratch directory inside the working directory.
    pub scratch: PathBuf,
}

impl Ctx {
    pub fn tiny(&self) -> bool {
        self.scale == Scale::Tiny
    }
}

struct Cli {
    workload: String,
    ctx: Ctx,
    /// Hidden: compute the out-of-core reference digests in this
    /// (child) process and print them.
    ooc_reference: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut inject = None;
    let mut ooc_cache_mib = None;
    let mut ooc_reference = false;
    while let Some(flag) = args.next() {
        if flag == "--ooc-reference" {
            ooc_reference = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("a number of seconds in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad("full or tiny")),
                }
            }
            "--inject" => {
                inject = Some(match value.as_str() {
                    "reference" => Inject::Reference,
                    "prediction" => Inject::Prediction,
                    _ => return Err(bad("reference or prediction")),
                })
            }
            "--ooc-cache-mib" => {
                let mib = value.parse::<usize>().map_err(|_| bad("an integer"))?;
                if mib == 0 || mib > 1 << 16 {
                    return Err(bad("MiB in 1..=65536"));
                }
                ooc_cache_mib = Some(mib);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["pipeline", "ooc", "serve"].contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let seed = seed.ok_or("--seed is required")?;
    let scratch = std::env::current_dir()
        .map_err(|e| format!("no working directory: {e}"))?
        .join(".perfbench_tmp")
        .join(format!("{}-{}", std::process::id(), workload));
    Ok(Cli {
        workload,
        ctx: Ctx {
            seed,
            seconds: seconds.unwrap_or(10.0),
            trace: trace.unwrap_or(false),
            scale,
            inject,
            ooc_cache_mib,
            scratch,
        },
        ooc_reference,
    })
}

/// Removes the run's scratch directory however the run ends.
struct ScratchGuard(PathBuf);

impl Drop for ScratchGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run is using the directory.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cli.ctx.scratch) {
        eprintln!("error: cannot create {}: {e}", cli.ctx.scratch.display());
        return ExitCode::from(2);
    }
    let _guard = ScratchGuard(cli.ctx.scratch.clone());
    if cli.ooc_reference {
        return ooc::reference_child(&cli.ctx);
    }

    let stamp = Stamp::collect();
    eprintln!("{}", stamp.human());
    let report = match cli.workload.as_str() {
        "pipeline" => pipeline::run(&cli.ctx),
        "ooc" => ooc::run(&cli.ctx),
        _ => serve::run(&cli.ctx),
    };
    let mut report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {} workload failed: {e}", cli.workload);
            return ExitCode::FAILURE;
        }
    };
    let declared = if cli.ctx.trace {
        // A layer the workload never calls did no work.
        for (name, _) in PER_LAYER {
            report.set_if_missing(name, 0.0);
        }
        PER_LAYER
    } else {
        END_TO_END
    };
    report.print_human(&cli.workload, declared);
    println!(
        "stamp {}",
        stamp.json(&cli.workload, cli.ctx.seed, cli.ctx.trace)
    );
    match report.result_line(declared) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
