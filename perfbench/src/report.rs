//! Result bookkeeping: operation counts, metrics, order statistics, and
//! the commit/machine stamp every result carries.

use std::collections::BTreeMap;
use std::path::Path;

use reds_json::Json;

use crate::calib::Calibration;

/// What one run measured and checked.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    /// Raw value and calibration factor of every timing set at the
    /// reference host speed.
    raw: BTreeMap<String, (f64, f64)>,
    notes: Vec<String>,
}

impl Report {
    /// Counts one operation; a failed one is logged with `why`.
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("FAILED: {}", why());
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Sets a time measured in a phase calibrated by `cal`, at the
    /// reference host speed.
    pub fn set_time(&mut self, name: &str, raw: f64, cal: &Calibration) {
        self.raw.insert(name.to_string(), (raw, cal.factor()));
        self.set(name, raw * cal.factor());
    }

    /// Sets a rate measured in a phase calibrated by `cal`, at the
    /// reference host speed.
    pub fn set_rate(&mut self, name: &str, raw: f64, cal: &Calibration) {
        self.raw.insert(name.to_string(), (raw, cal.factor()));
        self.set(name, raw / cal.factor());
    }

    pub fn set_if_missing(&mut self, name: &str, value: f64) {
        self.metrics.entry(name.to_string()).or_insert(value);
    }

    /// A line for the human-readable report (sample counts, coverage,
    /// findings).
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    pub fn print_human(&self, workload: &str, declared: &[(&str, &str)]) {
        eprintln!(
            "== {workload}: {} operations, {} failed",
            self.attempted, self.failed
        );
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        eprintln!("  {:<28} {:>14.6} share", "failed_share", share);
        for (name, unit) in declared {
            match (self.metrics.get(*name), self.raw.get(*name)) {
                (Some(v), Some((raw, factor))) => eprintln!(
                    "  {name:<28} {v:>14.6} {unit:<7} (measured {raw:.6}, host factor {factor:.4})"
                ),
                (Some(v), None) => eprintln!("  {name:<28} {v:>14.6} {unit}"),
                (None, _) => eprintln!("  {name:<28} {:>14} {unit}", "missing"),
            }
        }
        for line in &self.notes {
            eprintln!("  {line}");
        }
    }

    /// The final stdout line: every declared metric with its unit.
    pub fn result_line(&self, declared: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(declared.len());
        for (name, unit) in declared {
            let value = *self
                .metrics
                .get(*name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            metrics.push((
                *name,
                Json::obj([("value", Json::num(value)), ("unit", Json::str(*unit))]),
            ));
        }
        Ok(Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::num(self.attempted as f64)),
            ("failed", Json::num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
        .to_string_compact())
    }
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean of the medians of groups of samples, empty groups skipped (0 for
/// none). Every `*_p50_ms` metric is reduced this way: where the groups
/// (model families, discovery cases) have latency levels of their own,
/// the median of the pooled samples jumps between levels from run to
/// run.
pub fn mean_of_medians<'a>(groups: impl IntoIterator<Item = &'a Vec<f64>>) -> f64 {
    let medians: Vec<f64> = groups
        .into_iter()
        .filter(|g| !g.is_empty())
        .map(|g| median(g))
        .collect();
    medians.iter().sum::<f64>() / medians.len().max(1) as f64
}

/// Linear-interpolation quantile `q ∈ [0, 1]` of `values` (0 for none).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Which commit and machine produced a result, so that runs on
/// different kernels, exp backends or thread counts are never compared
/// silently.
pub struct Stamp {
    commit: String,
    source_fnv: String,
    cpu: String,
    nproc: usize,
    kernel: &'static str,
    exp: &'static str,
    fma: bool,
    threads: usize,
    env: Vec<(&'static str, String)>,
}

impl Stamp {
    pub fn collect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|rest| rest.trim_start_matches([' ', '\t', ':']).to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            commit: git_commit().unwrap_or_else(|| "unknown".into()),
            source_fnv: format!("{:016x}", source_digest()),
            cpu,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kernel: reds_metamodel::kernels::active().name(),
            exp: reds_metamodel::kernels::vexp::backend().name(),
            fma: reds_metamodel::kernels::vexp::fma_supported(),
            threads: reds_par::max_threads(),
            env: ["REDS_THREADS", "REDS_KERNEL", "REDS_EXP"]
                .into_iter()
                .map(|k| (k, std::env::var(k).unwrap_or_default()))
                .collect(),
        }
    }

    pub fn human(&self) -> String {
        let env: Vec<String> = self.env.iter().map(|(k, v)| format!("{k}={v}")).collect();
        format!(
            "commit {} (source fnv {}) on {} | nproc {} | kernel {} | exp {} | fma {} | \
             reds_par threads {} | {}",
            self.commit,
            self.source_fnv,
            self.cpu,
            self.nproc,
            self.kernel,
            self.exp,
            self.fma,
            self.threads,
            env.join(" ")
        )
    }

    pub fn json(&self, workload: &str, seed: u64, trace: bool) -> String {
        Json::obj([
            ("workload", Json::str(workload)),
            ("seed", Json::str(seed.to_string())),
            ("trace", Json::Bool(trace)),
            ("commit", Json::str(&self.commit)),
            ("source_fnv", Json::str(&self.source_fnv)),
            ("cpu", Json::str(&self.cpu)),
            ("nproc", Json::num(self.nproc as f64)),
            ("kernel", Json::str(self.kernel)),
            ("exp", Json::str(self.exp)),
            ("fma", Json::Bool(self.fma)),
            ("reds_par_threads", Json::num(self.threads as f64)),
            (
                "env",
                Json::obj(self.env.iter().map(|(k, v)| (*k, Json::str(v)))),
            ),
        ])
        .to_string_compact()
    }
}

/// `git rev-parse HEAD` of the working directory, when it is itself a
/// git checkout (never a parent directory's) with git installed.
fn git_commit() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    let commit = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (out.status.success() && !commit.is_empty()).then_some(commit)
}

/// FNV-1a over the paths and contents of the sources the benchmark
/// builds (the library crates, the vendored stand-ins, the root
/// manifest and this package): identifies the code even in a checkout
/// without git metadata.
fn source_digest() -> u64 {
    let mut files = Vec::new();
    for root in [
        "Cargo.toml",
        "Cargo.lock",
        "crates",
        "vendor",
        "perfbench/src",
    ] {
        collect_files(Path::new(root), &mut files);
    }
    files.sort();
    let mut h = Fnv::new();
    for path in files {
        h.bytes(path.to_string_lossy().as_bytes());
        h.bytes(&std::fs::read(&path).unwrap_or_default());
    }
    h.finish()
}

fn collect_files(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_file() {
        out.push(path.to_path_buf());
    } else if let Ok(entries) = std::fs::read_dir(path) {
        for entry in entries.flatten() {
            collect_files(&entry.path(), out);
        }
    }
}

/// 64-bit FNV-1a, used for output digests and the source stamp.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}
