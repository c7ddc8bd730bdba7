//! End-to-end pipeline differential harness under deterministic fault
//! injection.
//!
//! One fixed, small measurement scenario is driven through the whole
//! pipeline — build dataset → engine replay → fit → sample → binary
//! export → re-import → JSON round-trip → re-fit — with a canonical
//! [`digest`](crate::digest) captured after every stage. The contract
//! the harness enforces, for *any* [`mtd_fault::FaultPlan`]:
//!
//! 1. the run produces **byte-identical** stage digests to the
//!    fault-free golden run, or
//! 2. it fails with a **structured error** attributed to a stage —
//!    never a panic, never a torn output file (no destination written
//!    by a failed export, no leaked `*.tmp-partial`), and never a
//!    silently different result.
//!
//! [`selftest`] runs a roster of seeded plans and produces a
//! deterministic report; `mtd-traffic selftest` is its CLI face. Every
//! failing plan prints a repro line (`mtd-traffic selftest --seed …
//! --faults '…'`) so CI failures replay locally.
//!
//! Everything here is seed-deterministic: two invocations with the same
//! master seed, plan count, thread count and work directory produce
//! byte-identical reports (CI runs the selftest twice and `cmp`s them).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use mtd_core::pipeline::fit_registry_pooled;
use mtd_core::volume::VolumeFitConfig;
use mtd_core::ServingPlan;
use mtd_dataset::{store, Dataset};
use mtd_fault::FaultPlan;
use mtd_netsim::engine::Engine;
use mtd_netsim::geo::Topology;
use mtd_netsim::services::ServiceCatalog;
use mtd_netsim::ScenarioConfig;
use mtd_telemetry::json::quote;
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::digest::{digest_bytes, digest_dataset, digest_registry, digest_sessions, DigestSink};

/// RNG seed for the sampling stage — fixed so only the fault plan (never
/// the sampled stream) varies between runs.
const SAMPLE_SEED: u64 = 0x5EED_5A3D;

/// Decile whose arrival model drives the sampling stage.
const SAMPLE_DECILE: u8 = 9;

/// The fixed chaos scenario: small enough that a full pipeline pass
/// takes well under a second, large enough that every subsystem
/// (mobility, multi-peak volume fits, the store writer) does real work.
#[must_use]
pub fn scenario() -> ScenarioConfig {
    ScenarioConfig {
        n_bs: 6,
        days: 1,
        arrival_scale: 0.08,
        ..ScenarioConfig::small_test()
    }
}

/// The stress-scenario twin: every stress family armed at once (bursts,
/// drift and control-plane together), so the chaos harness also drives
/// the extra RNG draws, the window-indexed shifts and the v2 store path
/// with its Signaling frames under fault injection.
#[must_use]
pub fn stress_scenario() -> ScenarioConfig {
    ScenarioConfig {
        stress: mtd_netsim::StressConfig {
            burst_prob: 0.1,
            burst_tail_index: 1.3,
            burst_coupling: 0.5,
            drift_mu_per_window: 0.2,
            drift_sigma_per_window: 0.1,
            drift_window_days: 1,
            control_plane: true,
        },
        ..scenario()
    }
}

/// Canonical digest of every pipeline stage from one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageDigests {
    /// Built measurement dataset (canonical binary encoding).
    pub dataset: u64,
    /// Engine observation stream + run stats.
    pub engine: u64,
    /// Fitted model registry.
    pub registry: u64,
    /// One sampled synthetic day.
    pub sessions: u64,
    /// Exported binary image.
    pub export: u64,
    /// Dataset re-imported from the binary file.
    pub reimport: u64,
    /// Dataset after a JSON save/load round-trip.
    pub json_roundtrip: u64,
    /// Registry re-fitted from the re-imported dataset.
    pub refit: u64,
    /// Stress-scenario dataset (all families armed) after a v2 binary
    /// export → re-import round-trip, digested via its canonical
    /// re-encoding so the Signaling plane is covered byte-for-byte.
    pub stress: u64,
}

impl StageDigests {
    /// Names of the stages whose digests differ from `other`.
    #[must_use]
    pub fn diff(&self, other: &StageDigests) -> Vec<&'static str> {
        let pairs = [
            ("dataset", self.dataset, other.dataset),
            ("engine", self.engine, other.engine),
            ("registry", self.registry, other.registry),
            ("sessions", self.sessions, other.sessions),
            ("export", self.export, other.export),
            ("reimport", self.reimport, other.reimport),
            ("json_roundtrip", self.json_roundtrip, other.json_roundtrip),
            ("refit", self.refit, other.refit),
            ("stress", self.stress, other.stress),
        ];
        pairs
            .iter()
            .filter(|(_, a, b)| a != b)
            .map(|(name, _, _)| *name)
            .collect()
    }
}

/// How one pipeline run under a fault plan ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every stage completed; digests attached.
    Clean(StageDigests),
    /// A stage failed with a structured error (the acceptable way to
    /// fail under injected faults).
    Detected {
        /// Pipeline stage that reported the error.
        stage: &'static str,
        /// The error's display form.
        error: String,
    },
    /// A stage panicked — always a harness failure.
    Panicked {
        /// Panic payload, when it was a string.
        message: String,
    },
}

/// Runs the full pipeline once in `dir`, mapping every stage error to
/// [`RunOutcome::Detected`] and any panic to [`RunOutcome::Panicked`].
/// Faults (if any) must already be installed by the caller.
#[must_use]
pub fn run_pipeline(threads: usize, dir: &Path) -> RunOutcome {
    let result = catch_unwind(AssertUnwindSafe(|| run_pipeline_inner(threads, dir)));
    match result {
        Ok(outcome) => outcome,
        Err(payload) => {
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "non-string panic payload".to_string());
            RunOutcome::Panicked { message }
        }
    }
}

fn run_pipeline_inner(threads: usize, dir: &Path) -> RunOutcome {
    let config = scenario();
    let topology = Topology::generate(config.n_bs, config.seed);
    let catalog = ServiceCatalog::paper();

    let dataset = Dataset::build(&config, &topology, &catalog);
    let d_dataset = digest_dataset(&dataset);

    let engine = Engine::new(&config, &topology, &catalog);
    let mut sink = DigestSink::new();
    let stats = engine.run_parallel(&mut sink, threads);
    let d_engine = sink.finish_with_stats(&stats);

    let pool = mtd_par::Pool::new(threads);
    let volume_config = VolumeFitConfig::default();
    let registry = match fit_registry_pooled(&dataset, &volume_config, &pool) {
        Ok(r) => r,
        Err(e) => {
            return RunOutcome::Detected {
                stage: "fit",
                error: e.to_string(),
            }
        }
    };
    let d_registry = digest_registry(&registry);

    let plan = match ServingPlan::compile(registry) {
        Ok(p) => p,
        Err(e) => {
            return RunOutcome::Detected {
                stage: "sample",
                error: e.to_string(),
            }
        }
    };
    let mut rng = SmallRng::seed_from_u64(SAMPLE_SEED);
    let day = plan.generate_day(SAMPLE_DECILE, &mut rng);
    let d_sessions = digest_sessions(&day);

    let bin_path = binary_path(dir);
    let d_export = digest_bytes(&store::encode_binary(&dataset, threads));
    if let Err(e) = store::save_binary(&dataset, &bin_path) {
        return RunOutcome::Detected {
            stage: "export",
            error: e.to_string(),
        };
    }

    let imported = match store::load_binary(&bin_path) {
        Ok(ds) => ds,
        Err(e) => {
            return RunOutcome::Detected {
                stage: "import",
                error: e.to_string(),
            }
        }
    };
    let d_reimport = digest_dataset(&imported);

    let json_path = json_path(dir);
    if let Err(e) = store::save_json(&dataset, &json_path) {
        return RunOutcome::Detected {
            stage: "json-export",
            error: e.to_string(),
        };
    }
    let json_loaded = match store::load_json(&json_path) {
        Ok(ds) => ds,
        Err(e) => {
            return RunOutcome::Detected {
                stage: "json-import",
                error: e.to_string(),
            }
        }
    };
    let d_json = digest_dataset(&json_loaded);

    let refit = match fit_registry_pooled(&imported, &volume_config, &pool) {
        Ok(r) => r,
        Err(e) => {
            return RunOutcome::Detected {
                stage: "refit",
                error: e.to_string(),
            }
        }
    };
    let d_refit = digest_registry(&refit);

    // Stress-scenario stage: the all-families-armed twin through the
    // v2 binary store (Signaling frames included) and back.
    let stress_config = stress_scenario();
    let stressed = Dataset::build(&stress_config, &topology, &catalog);
    let stress_path = stress_path(dir);
    if let Err(e) = store::save_binary(&stressed, &stress_path) {
        return RunOutcome::Detected {
            stage: "stress-export",
            error: e.to_string(),
        };
    }
    let stress_back = match store::load_binary(&stress_path) {
        Ok(ds) => ds,
        Err(e) => {
            return RunOutcome::Detected {
                stage: "stress-import",
                error: e.to_string(),
            }
        }
    };
    let d_stress = digest_bytes(&store::encode_binary(&stress_back, threads));

    RunOutcome::Clean(StageDigests {
        dataset: d_dataset,
        engine: d_engine,
        registry: d_registry,
        sessions: d_sessions,
        export: d_export,
        reimport: d_reimport,
        json_roundtrip: d_json,
        refit: d_refit,
        stress: d_stress,
    })
}

fn binary_path(dir: &Path) -> PathBuf {
    dir.join("chaos-dataset.mtd")
}

fn json_path(dir: &Path) -> PathBuf {
    dir.join("chaos-dataset.json")
}

fn stress_path(dir: &Path) -> PathBuf {
    dir.join("chaos-stress.mtd")
}

/// Verdict for one fault plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Pipeline completed bit-identical to the golden run.
    Pass,
    /// A fault was detected and reported as a structured error, with all
    /// file invariants intact.
    DetectedOk {
        /// Stage that detected the fault.
        stage: String,
    },
    /// The harness caught a contract violation: a panic, a torn file, a
    /// leaked temp file, or silent divergence from the golden digests.
    Fail {
        /// Diagnosis.
        reason: String,
    },
}

/// One plan's outcome, fired-site accounting, and repro line.
#[derive(Debug, Clone)]
pub struct PlanRun {
    /// Fault plan spec (as given to `--faults`).
    pub spec: String,
    /// Plan seed.
    pub seed: u64,
    /// Verdict.
    pub verdict: Verdict,
    /// `(site, rolls, fired)` for every sequential site in the plan.
    pub fired: Vec<(String, u64, u64)>,
    /// Bounded injection trace (`site#roll` events, oldest first).
    pub trace: Vec<String>,
    /// Command line that replays exactly this plan.
    pub repro: String,
}

/// Runs one fault plan in its own directory and classifies the outcome
/// against `golden`.
pub fn run_plan(plan: FaultPlan, golden: &StageDigests, threads: usize, dir: &Path) -> PlanRun {
    let spec = plan.spec.clone();
    let seed = plan.seed;
    let repro = plan.repro_line();

    mtd_fault::clear();
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).expect("create plan work directory");

    mtd_fault::install(plan);
    let outcome = run_pipeline(threads, dir);
    let fired = mtd_fault::fired_counts();
    let trace = mtd_fault::trace();
    mtd_fault::clear();

    // File-system invariants are checked with faults cleared so the
    // harness's own directory scan cannot itself be perturbed.
    let verdict = classify(&outcome, golden, dir);
    PlanRun {
        spec,
        seed,
        verdict,
        fired,
        trace,
        repro,
    }
}

fn classify(outcome: &RunOutcome, golden: &StageDigests, dir: &Path) -> Verdict {
    if let Some(leak) = find_temp_leak(dir) {
        return Verdict::Fail {
            reason: format!("leaked temp file: {}", leak.display()),
        };
    }
    match outcome {
        RunOutcome::Panicked { message } => Verdict::Fail {
            reason: format!("panicked: {message}"),
        },
        RunOutcome::Clean(digests) => {
            let diff = digests.diff(golden);
            if diff.is_empty() {
                Verdict::Pass
            } else {
                Verdict::Fail {
                    reason: format!(
                        "silent divergence: stage digests differ from golden at [{}]",
                        diff.join(", ")
                    ),
                }
            }
        }
        RunOutcome::Detected { stage, error } => {
            // A failed export must leave no destination behind — the
            // store's atomic temp-file + rename protocol guarantees it.
            // (This is exactly the invariant the `store.write.skip_atomic`
            // mutation site breaks, and the harness must notice.)
            let torn = match *stage {
                "export" => binary_path(dir).exists().then(|| binary_path(dir)),
                "json-export" => json_path(dir).exists().then(|| json_path(dir)),
                "stress-export" => stress_path(dir).exists().then(|| stress_path(dir)),
                _ => None,
            };
            if let Some(path) = torn {
                return Verdict::Fail {
                    reason: format!(
                        "torn file: {stage} failed ({error}) but destination {} exists",
                        path.display()
                    ),
                };
            }
            Verdict::DetectedOk {
                stage: (*stage).to_string(),
            }
        }
    }
}

/// First leaked `*.tmp-partial` file under `dir`, if any.
fn find_temp_leak(dir: &Path) -> Option<PathBuf> {
    let entries = std::fs::read_dir(dir).ok()?;
    let mut leaks: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.extension()
                .map(|ext| ext.to_string_lossy().starts_with("tmp-"))
                .unwrap_or(false)
        })
        .collect();
    leaks.sort();
    leaks.into_iter().next()
}

/// Full selftest result: golden digests plus one [`PlanRun`] per plan.
#[derive(Debug, Clone)]
pub struct SelftestReport {
    /// Master seed plan seeds were derived from.
    pub master_seed: u64,
    /// Thread count used for every run (golden verified at 1 and at
    /// this count).
    pub threads: u64,
    /// Fault-free stage digests.
    pub golden: StageDigests,
    /// Per-plan outcomes, in roster order.
    pub runs: Vec<PlanRun>,
    /// True iff no plan produced a [`Verdict::Fail`].
    pub passed: bool,
}

impl SelftestReport {
    /// Plans that violated the chaos contract.
    #[must_use]
    pub fn failures(&self) -> Vec<&PlanRun> {
        self.runs
            .iter()
            .filter(|r| matches!(r.verdict, Verdict::Fail { .. }))
            .collect()
    }

    /// Deterministic JSON rendering (hand-rolled: the report must be
    /// byte-identical across repeated runs so CI can `cmp` two files).
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!("  \"master_seed\": {},\n", self.master_seed));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"passed\": {},\n", self.passed));
        out.push_str(&format!(
            "  \"golden\": {{\"dataset\": \"{:016x}\", \"engine\": \"{:016x}\", \
             \"registry\": \"{:016x}\", \"sessions\": \"{:016x}\", \"export\": \"{:016x}\", \
             \"reimport\": \"{:016x}\", \"json_roundtrip\": \"{:016x}\", \"refit\": \"{:016x}\", \
             \"stress\": \"{:016x}\"}},\n",
            self.golden.dataset,
            self.golden.engine,
            self.golden.registry,
            self.golden.sessions,
            self.golden.export,
            self.golden.reimport,
            self.golden.json_roundtrip,
            self.golden.refit,
            self.golden.stress,
        ));
        out.push_str("  \"runs\": [\n");
        for (i, run) in self.runs.iter().enumerate() {
            let verdict = match &run.verdict {
                Verdict::Pass => "pass".to_string(),
                Verdict::DetectedOk { stage } => format!("detected:{stage}"),
                Verdict::Fail { reason } => format!("FAIL:{reason}"),
            };
            out.push_str("    {");
            out.push_str(&format!("\"spec\": {}, ", quote(&run.spec)));
            out.push_str(&format!("\"seed\": {}, ", run.seed));
            out.push_str(&format!("\"verdict\": {}, ", quote(&verdict)));
            out.push_str(&format!("\"repro\": {}, ", quote(&run.repro)));
            out.push_str("\"fired\": [");
            for (j, (site, rolls, fired)) in run.fired.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&format!("[{}, {rolls}, {fired}]", quote(site)));
            }
            out.push_str("], \"trace\": [");
            for (j, event) in run.trace.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                out.push_str(&quote(event));
            }
            out.push_str("]}");
            out.push_str(if i + 1 < self.runs.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Runs `plans` explicitly-parsed fault plans against a fault-free
/// golden run (verified thread-invariant at 1 vs `threads` workers).
///
/// Plan `i` uses roster spec `i % roster.len()` and seed
/// `derive_seed(master_seed, i)`, so `--plans 32` covers the whole
/// roster twice with independent seeds. Errors are setup problems
/// (fault runtime not compiled in, unwritable workdir, a golden run
/// that is not clean); injected-fault contract violations are reported
/// per-plan via [`Verdict::Fail`] and `passed: false`, not `Err`.
pub fn selftest(
    master_seed: u64,
    plans: &[FaultPlan],
    threads: usize,
    workdir: &Path,
) -> Result<SelftestReport, String> {
    if !mtd_fault::compiled_in() {
        return Err(
            "fault injection not compiled in: rebuild with --features mtd-fault/fault-inject"
                .to_string(),
        );
    }
    mtd_fault::clear();
    std::fs::create_dir_all(workdir).map_err(|e| format!("workdir: {e}"))?;

    let golden_dir = workdir.join("golden");
    std::fs::remove_dir_all(&golden_dir).ok();
    std::fs::create_dir_all(&golden_dir).map_err(|e| format!("workdir: {e}"))?;
    let golden = match run_pipeline(1, &golden_dir) {
        RunOutcome::Clean(d) => d,
        other => return Err(format!("golden run (1 thread) was not clean: {other:?}")),
    };
    let golden_n = match run_pipeline(threads, &golden_dir) {
        RunOutcome::Clean(d) => d,
        other => {
            return Err(format!(
                "golden run ({threads} threads) was not clean: {other:?}"
            ))
        }
    };
    if golden_n != golden {
        return Err(format!(
            "golden run diverges between 1 and {threads} threads at [{}]",
            golden_n.diff(&golden).join(", ")
        ));
    }

    let mut runs = Vec::with_capacity(plans.len());
    for (i, plan) in plans.iter().enumerate() {
        let dir = workdir.join(format!("plan-{i:03}"));
        runs.push(run_plan(plan.clone(), &golden, threads, &dir));
    }
    let passed = runs
        .iter()
        .all(|r| !matches!(r.verdict, Verdict::Fail { .. }));
    Ok(SelftestReport {
        master_seed,
        threads: threads as u64,
        golden,
        runs,
        passed,
    })
}

/// The default selftest plan list: `n` seeded plans cycling through
/// [`mtd_fault::roster`], with per-plan seeds derived from
/// `master_seed`.
#[must_use]
pub fn roster_plans(master_seed: u64, n: usize) -> Vec<FaultPlan> {
    let roster = mtd_fault::roster();
    (0..n)
        .map(|i| {
            let spec = roster[i % roster.len()];
            let seed = mtd_telemetry::derive_seed(master_seed, i as u64);
            FaultPlan::parse(spec, seed).expect("roster specs always parse")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_plans_cycle_and_derive_distinct_seeds() {
        let plans = roster_plans(42, 20);
        assert_eq!(plans.len(), 20);
        let roster = mtd_fault::roster();
        assert_eq!(plans[0].spec, roster[0]);
        assert_eq!(plans[roster.len()].spec, roster[0], "cycles after roster");
        assert_ne!(
            plans[0].seed,
            plans[roster.len()].seed,
            "same spec, independent seed"
        );
    }

    #[test]
    fn stage_digest_diff_names_the_divergent_stage() {
        let a = StageDigests {
            dataset: 1,
            engine: 2,
            registry: 3,
            sessions: 4,
            export: 5,
            reimport: 6,
            json_roundtrip: 7,
            refit: 8,
            stress: 9,
        };
        let mut b = a;
        assert!(a.diff(&b).is_empty());
        b.registry = 99;
        b.refit = 99;
        assert_eq!(a.diff(&b), vec!["registry", "refit"]);
    }

    #[test]
    fn report_json_is_deterministic_and_escapes() {
        let report = SelftestReport {
            master_seed: 7,
            threads: 4,
            golden: StageDigests {
                dataset: 1,
                engine: 2,
                registry: 3,
                sessions: 4,
                export: 5,
                reimport: 6,
                json_roundtrip: 7,
                refit: 8,
                stress: 9,
            },
            runs: vec![PlanRun {
                spec: "store=0.5".to_string(),
                seed: 9,
                verdict: Verdict::Fail {
                    reason: "torn \"file\"\nsecond line".to_string(),
                },
                fired: vec![("store.write.short".to_string(), 3, 1)],
                trace: vec!["store.write.short#2".to_string()],
                repro: "mtd-traffic selftest --seed 9 --faults 'store=0.5'".to_string(),
            }],
            passed: false,
        };
        let a = report.to_json();
        let b = report.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\\\"file\\\"\\nsecond line"));
        assert!(a.contains("\"passed\": false"));
    }
}
