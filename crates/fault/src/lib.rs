//! # mtd-fault — seed-deterministic fault injection
//!
//! A chaos/DST runtime in the spirit of FoundationDB's simulation tests:
//! every fault decision is a pure function of a master seed and a named
//! *injection site*, so a failing run is replayed exactly by its seed and
//! plan spec — no timing dependence, no flaky repros.
//!
//! ## Design
//!
//! - A [`FaultPlan`] maps injection sites to firing probabilities, parsed
//!   from a compact spec string (`store.write.short=0.3,par.stall=0.05`).
//! - Each *sequential* site (store I/O, JSON parsing — only ever rolled
//!   from the coordinating thread) owns a SplitMix64 stream derived from
//!   `(seed, site)`, exactly like the GoF battery's per-check streams, and
//!   records how often it rolled and fired plus a bounded trace for the
//!   repro line.
//! - *Parallel* sites (`par.steal.shuffle`, `par.stall`) are rolled from
//!   inside pool workers, where shared state would make the fired counts
//!   depend on scheduling. Their decisions are instead pure hashes of
//!   `(seed, site, worker, epoch)` — deterministic per worker, lock-free,
//!   and deliberately excluded from the fired/trace report.
//! - Every hook compiles to an inlined no-op unless the `fault-inject`
//!   feature is on, so production binaries pay nothing (guarded by the
//!   BENCH_fit/BENCH_store overhead gate in CI).
//!
//! The pipeline differential harness on top of these hooks lives in the
//! root crate (`mobile_traffic_dists::chaos`); the CLI surface is
//! `mtd-traffic selftest`.

// ---------------------------------------------------------------------------
// Seeding primitives: site labels and seeds come from the telemetry
// crate's FNV-1a and SplitMix64 mixer, as `mtd_math::rng`'s streams do.
// ---------------------------------------------------------------------------

use mtd_telemetry::derive_seed;

/// FNV-1a 64-bit hash of a site name.
#[must_use]
pub fn site_id(name: &str) -> u64 {
    mtd_telemetry::fnv64(name.as_bytes())
}

/// One SplitMix64 step: advances `state` and returns the next raw u64.
#[cfg_attr(not(feature = "fault-inject"), allow(dead_code))]
fn splitmix_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    // SplitMix64's output function is the seed mixer at stream 0.
    derive_seed(*state, 0)
}

/// Maps a raw u64 to a uniform f64 in `[0, 1)` (53-bit mantissa).
#[cfg_attr(not(feature = "fault-inject"), allow(dead_code))]
fn u01(raw: u64) -> f64 {
    (raw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

// ---------------------------------------------------------------------------
// Sites and plans (always compiled; parsing has no feature gate).
// ---------------------------------------------------------------------------

/// Every injection site threaded through the workspace. Grouped specs
/// (`store`, `par`, `json`, `all`) expand to subsets of this roster.
pub const SITES: &[&str] = &[
    "store.write.short",
    "store.write.bitflip",
    "store.write.enospc",
    "store.write.rename",
    "store.write.skip_atomic",
    "store.read.truncate",
    "store.read.bitflip",
    "json.parse.corrupt",
    "par.steal.shuffle",
    "par.stall",
    "campaign.shard.kill",
];

/// Sites included by the `store` group spec. `store.write.skip_atomic` is
/// deliberately *excluded* from every group: it disables the writer's
/// atomic temp-file rename, i.e. it breaks an invariant the store
/// guarantees, and exists only as the mutation check proving the chaos
/// harness detects torn files. It must be named explicitly.
const STORE_GROUP: &[&str] = &[
    "store.write.short",
    "store.write.bitflip",
    "store.write.enospc",
    "store.write.rename",
    "store.read.truncate",
    "store.read.bitflip",
];
const PAR_GROUP: &[&str] = &["par.steal.shuffle", "par.stall"];
const JSON_GROUP: &[&str] = &["json.parse.corrupt"];

/// A parsed fault plan: a master seed plus per-site firing probabilities.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Master seed; every site stream derives from it.
    pub seed: u64,
    /// Canonical spec string (site=prob entries, as parsed) — together
    /// with `seed` this is the complete repro recipe.
    pub spec: String,
    sites: Vec<(&'static str, f64)>,
}

impl FaultPlan {
    /// The empty plan: installed, nothing ever fires. Useful as the
    /// control arm of a differential run.
    #[must_use]
    pub fn none(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            spec: "none".to_string(),
            sites: Vec::new(),
        }
    }

    /// Parses a spec string: comma-separated `name[=prob]` entries where
    /// `name` is an exact site, a group (`store`, `par`, `json`), or
    /// `all`; `prob` defaults to 1 and is clamped to `[0, 1]`. Later
    /// entries override earlier ones per site. `none` (alone) is the
    /// empty plan.
    ///
    /// # Errors
    /// Returns a message naming the offending entry and the valid sites.
    pub fn parse(spec: &str, seed: u64) -> Result<FaultPlan, String> {
        let spec = spec.trim();
        if spec.is_empty() || spec == "none" {
            return Ok(FaultPlan::none(seed));
        }
        let mut sites: Vec<(&'static str, f64)> = Vec::new();
        let mut set = |site: &'static str, prob: f64| {
            if let Some(e) = sites.iter_mut().find(|(s, _)| *s == site) {
                e.1 = prob;
            } else {
                sites.push((site, prob));
            }
        };
        for entry in spec.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (name, prob) = match entry.split_once('=') {
                Some((n, p)) => {
                    let prob: f64 = p.trim().parse().map_err(|_| {
                        format!("fault spec: bad probability in {entry:?} (want a number)")
                    })?;
                    if !prob.is_finite() {
                        return Err(format!("fault spec: non-finite probability in {entry:?}"));
                    }
                    (n.trim(), prob.clamp(0.0, 1.0))
                }
                None => (entry, 1.0),
            };
            let group: &[&str] = match name {
                "store" => STORE_GROUP,
                "par" => PAR_GROUP,
                "json" => JSON_GROUP,
                "all" => &[],
                _ => {
                    let Some(site) = SITES.iter().find(|s| **s == name) else {
                        return Err(format!(
                            "fault spec: unknown site {name:?}; sites: {} (groups: store, par, json, all)",
                            SITES.join(", ")
                        ));
                    };
                    set(site, prob);
                    continue;
                }
            };
            if name == "all" {
                for site in STORE_GROUP.iter().chain(PAR_GROUP).chain(JSON_GROUP) {
                    set(site, prob);
                }
            } else {
                for site in group {
                    set(site, prob);
                }
            }
        }
        let canon = sites
            .iter()
            .map(|(s, p)| format!("{s}={p}"))
            .collect::<Vec<_>>()
            .join(",");
        Ok(FaultPlan {
            seed,
            spec: if canon.is_empty() {
                "none".to_string()
            } else {
                canon
            },
            sites,
        })
    }

    /// The resolved `(site, probability)` pairs, in spec order.
    #[must_use]
    pub fn sites(&self) -> &[(&'static str, f64)] {
        &self.sites
    }

    /// Probability configured for `site` (0 when absent).
    #[must_use]
    pub fn prob(&self, site: &str) -> f64 {
        self.sites
            .iter()
            .find(|(s, _)| *s == site)
            .map_or(0.0, |(_, p)| *p)
    }

    /// The `mtd-traffic selftest` repro invocation for this plan.
    #[must_use]
    pub fn repro_line(&self) -> String {
        format!(
            "mtd-traffic selftest --seed {} --faults '{}'",
            self.seed, self.spec
        )
    }
}

/// The built-in plan roster cycled by `mtd-traffic selftest --plans N`:
/// plan `i` uses spec `roster()[i % len]` under seed
/// `derive_seed(master, i)`. Covers every site alone plus mixed storms;
/// excludes the `store.write.skip_atomic` mutation site, which breaks the
/// store's atomic-rename guarantee and is never part of a group.
#[must_use]
pub fn roster() -> &'static [&'static str] {
    &[
        "none",
        "store.write.short=1",
        "store.write.bitflip=1",
        "store.write.enospc=1",
        "store.write.rename=1",
        "store.read.truncate=1",
        "store.read.bitflip=1",
        "json.parse.corrupt=1",
        "par.steal.shuffle=1",
        "par.stall=0.05",
        "par.steal.shuffle=1,par.stall=0.02",
        "store=0.5",
        "store.write.bitflip=0.5,store.read.bitflip=0.5",
        "store.write.short=0.3,store.write.rename=0.3,store.read.truncate=0.3",
        "json.parse.corrupt=0.5,store.read.truncate=0.5",
        "all=0.25",
        // Stress-scenario plan: a mid-probability store storm whose
        // surviving rolls land in the pipeline's later writes — the
        // stress-stage v2 export with its Signaling frames — so the
        // chaos contract is exercised on the new chunk kind too.
        "store.write.bitflip=0.35,store.read.bitflip=0.35,store.read.truncate=0.2",
    ]
}

/// A write-operation fault bundle: which injected failures apply to one
/// atomic store write. Decisions for all write sites are rolled together
/// so a single plan can compose them (e.g. `skip_atomic` + `short` is the
/// torn-file mutation).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WriteFaults {
    /// Flip bit `.1` of byte `.0` in the encoded image before writing
    /// (models silent media corruption; must be caught by read-side CRCs).
    pub flip: Option<(usize, u8)>,
    /// Write only the first `n` bytes, then fail with an I/O error
    /// (models a crash / full disk mid-write).
    pub short: Option<usize>,
    /// Fail the write with an injected `ENOSPC`-style error.
    pub enospc: bool,
    /// Let the temp-file write succeed, then fail the final rename.
    pub rename_fail: bool,
    /// MUTATION SITE: bypass the temp-file + rename protocol and write
    /// straight to the destination, so a composed `short` tears the real
    /// file. Exists to prove the chaos harness detects torn outputs.
    pub skip_atomic: bool,
}

impl WriteFaults {
    /// Whether any write-side fault fired.
    #[must_use]
    pub fn any(&self) -> bool {
        self.flip.is_some()
            || self.short.is_some()
            || self.enospc
            || self.rename_fail
            || self.skip_atomic
    }
}

// ---------------------------------------------------------------------------
// Runtime (fault-inject feature on).
// ---------------------------------------------------------------------------

#[cfg(feature = "fault-inject")]
mod runtime {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Mutex;

    /// Cap on the per-run site trace kept for the repro line.
    const TRACE_CAP: usize = 64;

    struct SiteState {
        site: &'static str,
        prob: f64,
        rng: u64,
        rolls: u64,
        fired: u64,
    }

    struct Runtime {
        plan: FaultPlan,
        sites: Vec<SiteState>,
        trace: Vec<String>,
    }

    static ACTIVE: AtomicBool = AtomicBool::new(false);
    static RUNTIME: Mutex<Option<Runtime>> = Mutex::new(None);
    // Parallel-site parameters are snapshotted into atomics at install so
    // pool workers never take the runtime lock.
    static PAR_SEED: AtomicU64 = AtomicU64::new(0);
    static PAR_SHUFFLE_PROB: AtomicU64 = AtomicU64::new(0);
    static PAR_STALL_PROB: AtomicU64 = AtomicU64::new(0);
    static CAMPAIGN_KILL_PROB: AtomicU64 = AtomicU64::new(0);

    /// Installs `plan` as the process-wide active plan, resetting all site
    /// streams, counters and the trace. Replaces any previous plan.
    pub fn install(plan: FaultPlan) {
        let sites = plan
            .sites()
            .iter()
            .map(|(site, prob)| SiteState {
                site,
                prob: *prob,
                rng: derive_seed(plan.seed, site_id(site)),
                rolls: 0,
                fired: 0,
            })
            .collect();
        PAR_SEED.store(plan.seed, Ordering::Relaxed);
        PAR_SHUFFLE_PROB.store(plan.prob("par.steal.shuffle").to_bits(), Ordering::Relaxed);
        PAR_STALL_PROB.store(plan.prob("par.stall").to_bits(), Ordering::Relaxed);
        CAMPAIGN_KILL_PROB.store(
            plan.prob("campaign.shard.kill").to_bits(),
            Ordering::Relaxed,
        );
        let mut guard = RUNTIME.lock().expect("fault runtime poisoned");
        *guard = Some(Runtime {
            plan,
            sites,
            trace: Vec::new(),
        });
        ACTIVE.store(true, Ordering::Release);
    }

    /// Deactivates fault injection and drops the plan.
    pub fn clear() {
        ACTIVE.store(false, Ordering::Release);
        PAR_SHUFFLE_PROB.store(0, Ordering::Relaxed);
        PAR_STALL_PROB.store(0, Ordering::Relaxed);
        CAMPAIGN_KILL_PROB.store(0, Ordering::Relaxed);
        *RUNTIME.lock().expect("fault runtime poisoned") = None;
    }

    /// Whether a plan is installed (any site, even all-zero).
    pub fn active() -> bool {
        ACTIVE.load(Ordering::Acquire)
    }

    /// The installed plan, if any.
    pub fn installed() -> Option<FaultPlan> {
        RUNTIME
            .lock()
            .expect("fault runtime poisoned")
            .as_ref()
            .map(|r| r.plan.clone())
    }

    /// Per-site `(site, rolls, fired)` counts for sequential sites.
    pub fn fired_counts() -> Vec<(String, u64, u64)> {
        RUNTIME
            .lock()
            .expect("fault runtime poisoned")
            .as_ref()
            .map(|r| {
                r.sites
                    .iter()
                    .map(|s| (s.site.to_string(), s.rolls, s.fired))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The bounded injection trace (`site#roll` events, oldest first).
    pub fn trace() -> Vec<String> {
        RUNTIME
            .lock()
            .expect("fault runtime poisoned")
            .as_ref()
            .map(|r| r.trace.clone())
            .unwrap_or_default()
    }

    /// Rolls a sequential site: advances its stream, decides whether it
    /// fires, and on fire returns a raw u64 parameterizing the fault.
    fn roll(site: &str) -> Option<u64> {
        if !active() {
            return None;
        }
        let mut guard = RUNTIME.lock().expect("fault runtime poisoned");
        let rt = guard.as_mut()?;
        let state = rt.sites.iter_mut().find(|s| s.site == site)?;
        state.rolls += 1;
        let raw = splitmix_next(&mut state.rng);
        if u01(raw) >= state.prob {
            return None;
        }
        state.fired += 1;
        if rt.trace.len() < TRACE_CAP {
            let event = format!("{site}#{}", state.rolls);
            rt.trace.push(event);
        }
        mtd_telemetry::count_labeled("fault.injected", site, 1);
        // An independent detail draw so the firing decision and the fault
        // parameters don't share bits.
        Some(splitmix_next(&mut state.rng))
    }

    /// Rolls every write site for one atomic store write of `len` bytes.
    pub fn store_write_faults(len: usize) -> WriteFaults {
        if !active() {
            return WriteFaults::default();
        }
        let mut f = WriteFaults::default();
        if len > 0 {
            if let Some(raw) = roll("store.write.bitflip") {
                f.flip = Some((raw as usize % len, (raw >> 32) as u8 % 8));
            }
            if let Some(raw) = roll("store.write.short") {
                f.short = Some(raw as usize % len);
            }
        }
        f.enospc = roll("store.write.enospc").is_some();
        f.rename_fail = roll("store.write.rename").is_some();
        f.skip_atomic = roll("store.write.skip_atomic").is_some();
        f
    }

    /// Mutates a freshly read store image in place (truncation between
    /// frames / bit rot). Returns whether anything was changed.
    pub fn store_read_mutate(bytes: &mut Vec<u8>) -> bool {
        if !active() || bytes.is_empty() {
            return false;
        }
        let mut mutated = false;
        if let Some(raw) = roll("store.read.truncate") {
            bytes.truncate(raw as usize % bytes.len());
            mutated = true;
        }
        if !bytes.is_empty() {
            if let Some(raw) = roll("store.read.bitflip") {
                let off = raw as usize % bytes.len();
                bytes[off] ^= 1u8 << ((raw >> 32) as u8 % 8);
                mutated = true;
            }
        }
        mutated
    }

    /// Corrupts JSON text about to be parsed (truncation, trailing
    /// garbage, or structural byte swap). Returns whether it fired.
    pub fn json_parse_corrupt(text: &mut String) -> bool {
        if !active() || text.is_empty() {
            return false;
        }
        let Some(raw) = roll("json.parse.corrupt") else {
            return false;
        };
        let mut bytes = std::mem::take(text).into_bytes();
        let off = raw as usize % bytes.len();
        match (raw >> 32) % 3 {
            0 => bytes.truncate(off),
            1 => bytes.extend_from_slice(b"#trailing-garbage"),
            _ => {
                // Break structure: overwrite an ASCII structural byte near
                // `off` with one that cannot continue a JSON document.
                let pos = bytes[off..]
                    .iter()
                    .position(|b| matches!(b, b':' | b',' | b'{' | b'[' | b'"'))
                    .map_or(off, |p| off + p);
                bytes[pos] = b'#';
            }
        }
        *text = String::from_utf8_lossy(&bytes).into_owned();
        true
    }

    /// Whether pool workers should take the (allocating) perturbed steal
    /// path at all. One relaxed load; false whenever no plan is active.
    pub fn par_perturb_enabled() -> bool {
        if !active() {
            return false;
        }
        f64::from_bits(PAR_SHUFFLE_PROB.load(Ordering::Relaxed)) > 0.0
            || f64::from_bits(PAR_STALL_PROB.load(Ordering::Relaxed)) > 0.0
    }

    /// Pure-hash decision stream for parallel sites: independent of any
    /// shared state so worker interleaving cannot perturb it.
    fn par_stream(site: &str, worker: usize, epoch: u64) -> u64 {
        let seed = PAR_SEED.load(Ordering::Relaxed);
        derive_seed(
            derive_seed(seed, site_id(site)),
            ((worker as u64) << 48) ^ epoch,
        )
    }

    /// Seeded Fisher–Yates shuffle of a worker's victim scan order.
    /// Returns whether the order was perturbed.
    pub fn steal_order_perturb(worker: usize, epoch: u64, order: &mut [usize]) -> bool {
        let prob = f64::from_bits(PAR_SHUFFLE_PROB.load(Ordering::Relaxed));
        if !active() || prob <= 0.0 || order.len() < 2 {
            return false;
        }
        let mut s = par_stream("par.steal.shuffle", worker, epoch);
        if u01(splitmix_next(&mut s)) >= prob {
            return false;
        }
        for i in (1..order.len()).rev() {
            let j = splitmix_next(&mut s) as usize % (i + 1);
            order.swap(i, j);
        }
        true
    }

    /// Injected worker stall (20–200 µs busy sleep). Returns whether it
    /// fired.
    pub fn steal_stall(worker: usize, epoch: u64) -> bool {
        let prob = f64::from_bits(PAR_STALL_PROB.load(Ordering::Relaxed));
        if !active() || prob <= 0.0 {
            return false;
        }
        let mut s = par_stream("par.stall", worker, epoch);
        if u01(splitmix_next(&mut s)) >= prob {
            return false;
        }
        let micros = 20 + splitmix_next(&mut s) % 180;
        std::thread::sleep(std::time::Duration::from_micros(micros));
        true
    }

    /// Whether the campaign runner should die right after committing
    /// checkpoint `checkpoint`. A pure hash of `(seed, site, checkpoint)`
    /// — independent of any stream state — so the decision for a given
    /// checkpoint is identical across resumed processes: at `prob=1` every
    /// checkpoint kills, and a resume loop deterministically walks the run
    /// forward one shard at a time (the resume-equivalence battery).
    pub fn campaign_kill_checkpoint(checkpoint: u64) -> bool {
        let prob = f64::from_bits(CAMPAIGN_KILL_PROB.load(Ordering::Relaxed));
        if !active() || prob <= 0.0 {
            return false;
        }
        let mut s = derive_seed(
            derive_seed(
                PAR_SEED.load(Ordering::Relaxed),
                site_id("campaign.shard.kill"),
            ),
            checkpoint,
        );
        if u01(splitmix_next(&mut s)) >= prob {
            return false;
        }
        mtd_telemetry::count_labeled("fault.injected", "campaign.shard.kill", 1);
        true
    }
}

// ---------------------------------------------------------------------------
// No-op stubs (fault-inject feature off): everything inlines away.
// ---------------------------------------------------------------------------

#[cfg(not(feature = "fault-inject"))]
mod runtime {
    use super::*;

    /// No-op: fault hooks are compiled out (see [`compiled_in`]).
    pub fn install(_plan: FaultPlan) {}
    /// No-op: fault hooks are compiled out.
    pub fn clear() {}
    /// Always false without the `fault-inject` feature.
    #[inline(always)]
    pub fn active() -> bool {
        false
    }
    /// Always `None` without the `fault-inject` feature.
    pub fn installed() -> Option<FaultPlan> {
        None
    }
    /// Always empty without the `fault-inject` feature.
    pub fn fired_counts() -> Vec<(String, u64, u64)> {
        Vec::new()
    }
    /// Always empty without the `fault-inject` feature.
    pub fn trace() -> Vec<String> {
        Vec::new()
    }
    /// Never faults without the `fault-inject` feature.
    #[inline(always)]
    pub fn store_write_faults(_len: usize) -> WriteFaults {
        WriteFaults::default()
    }
    /// Never mutates without the `fault-inject` feature.
    #[inline(always)]
    pub fn store_read_mutate(_bytes: &mut Vec<u8>) -> bool {
        false
    }
    /// Never corrupts without the `fault-inject` feature.
    #[inline(always)]
    pub fn json_parse_corrupt(_text: &mut String) -> bool {
        false
    }
    /// Always false without the `fault-inject` feature.
    #[inline(always)]
    pub fn par_perturb_enabled() -> bool {
        false
    }
    /// Never perturbs without the `fault-inject` feature.
    #[inline(always)]
    pub fn steal_order_perturb(_worker: usize, _epoch: u64, _order: &mut [usize]) -> bool {
        false
    }
    /// Never stalls without the `fault-inject` feature.
    #[inline(always)]
    pub fn steal_stall(_worker: usize, _epoch: u64) -> bool {
        false
    }
    /// Never kills without the `fault-inject` feature.
    #[inline(always)]
    pub fn campaign_kill_checkpoint(_checkpoint: u64) -> bool {
        false
    }
}

pub use runtime::{
    active, campaign_kill_checkpoint, clear, fired_counts, install, installed, json_parse_corrupt,
    par_perturb_enabled, steal_order_perturb, steal_stall, store_read_mutate, store_write_faults,
    trace,
};

/// Whether the `fault-inject` feature was compiled in. The selftest CLI
/// refuses to run (rather than silently passing) when it wasn't.
#[must_use]
pub const fn compiled_in() -> bool {
    cfg!(feature = "fault-inject")
}

/// Default master seed when `MTD_FAULT_SEED` is unset.
pub const DEFAULT_SEED: u64 = 0xC4A0_5EED;

/// Installs a plan from `MTD_FAULTS` (spec) + `MTD_FAULT_SEED` (decimal
/// u64), for the experiment binaries; mirrors
/// `mtd_telemetry::enable_from_env`. Returns a description of what was
/// installed, `None` when `MTD_FAULTS` is unset/empty, and an error for a
/// bad spec or a binary built without `fault-inject`.
pub fn install_from_env() -> Result<Option<String>, String> {
    let Ok(spec) = std::env::var("MTD_FAULTS") else {
        return Ok(None);
    };
    if spec.trim().is_empty() {
        return Ok(None);
    }
    if !compiled_in() {
        return Err(format!(
            "MTD_FAULTS={spec:?} set but this binary was built without the \
             mtd-fault `fault-inject` feature"
        ));
    }
    let seed = match std::env::var("MTD_FAULT_SEED") {
        Ok(s) => s
            .trim()
            .parse::<u64>()
            .map_err(|_| format!("MTD_FAULT_SEED={s:?} is not a u64"))?,
        Err(_) => DEFAULT_SEED,
    };
    let plan = FaultPlan::parse(&spec, seed)?;
    let line = format!("fault plan installed: seed={seed} spec={}", plan.spec);
    install(plan);
    Ok(Some(line))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_rejects_unknown_sites_and_bad_probs() {
        assert!(FaultPlan::parse("store.write.warp=1", 1).is_err());
        assert!(FaultPlan::parse("store.write.short=fast", 1).is_err());
        assert!(FaultPlan::parse("store.write.short=NaN", 1).is_err());
    }

    #[test]
    fn parse_expands_groups_and_overrides() {
        let plan = FaultPlan::parse("store=0.5,store.write.short=0.9", 7).unwrap();
        assert_eq!(plan.prob("store.write.short"), 0.9);
        assert_eq!(plan.prob("store.write.bitflip"), 0.5);
        assert_eq!(plan.prob("store.read.truncate"), 0.5);
        // skip_atomic is never part of a group.
        assert_eq!(plan.prob("store.write.skip_atomic"), 0.0);
        assert_eq!(plan.prob("par.stall"), 0.0);

        let all = FaultPlan::parse("all=0.25", 7).unwrap();
        assert_eq!(all.prob("par.steal.shuffle"), 0.25);
        assert_eq!(all.prob("json.parse.corrupt"), 0.25);
        assert_eq!(all.prob("store.write.skip_atomic"), 0.0);
        // The campaign kill switch is likewise group-excluded: it models a
        // process death, not a maskable fault, and must be named explicitly.
        assert_eq!(all.prob("campaign.shard.kill"), 0.0);
        assert_eq!(
            FaultPlan::parse("campaign.shard.kill=0.5", 7)
                .unwrap()
                .prob("campaign.shard.kill"),
            0.5
        );

        let none = FaultPlan::parse("none", 3).unwrap();
        assert!(none.sites().is_empty());
        assert_eq!(none.spec, "none");
    }

    #[test]
    fn parse_defaults_prob_to_one_and_clamps() {
        let plan = FaultPlan::parse("store.write.enospc, par.stall=7.5", 1).unwrap();
        assert_eq!(plan.prob("store.write.enospc"), 1.0);
        assert_eq!(plan.prob("par.stall"), 1.0);
        let plan = FaultPlan::parse("par.stall=-2", 1).unwrap();
        assert_eq!(plan.prob("par.stall"), 0.0);
    }

    #[test]
    fn roster_specs_all_parse_and_avoid_the_mutation_site() {
        for spec in roster() {
            let plan = FaultPlan::parse(spec, 42).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(plan.prob("store.write.skip_atomic"), 0.0, "{spec}");
        }
    }

    #[test]
    fn repro_line_quotes_the_spec() {
        let plan = FaultPlan::parse("store.write.short=0.3", 99).unwrap();
        assert_eq!(
            plan.repro_line(),
            "mtd-traffic selftest --seed 99 --faults 'store.write.short=0.3'"
        );
    }

    #[test]
    fn site_ids_are_fnv1a() {
        assert_eq!(site_id(""), 0xcbf2_9ce4_8422_2325);
    }

    #[cfg(feature = "fault-inject")]
    mod injected {
        use super::super::*;
        use std::sync::{Mutex, OnceLock};

        /// The runtime is process-global; tests touching it serialize.
        fn lock() -> std::sync::MutexGuard<'static, ()> {
            static GATE: OnceLock<Mutex<()>> = OnceLock::new();
            GATE.get_or_init(|| Mutex::new(()))
                .lock()
                .unwrap_or_else(|e| e.into_inner())
        }

        #[test]
        fn install_clear_toggles_active() {
            let _g = lock();
            assert!(compiled_in());
            install(FaultPlan::parse("store.write.enospc=1", 1).unwrap());
            assert!(active());
            assert!(installed().is_some());
            clear();
            assert!(!active());
            assert!(!store_write_faults(100).any());
        }

        #[test]
        fn sequential_sites_are_seed_deterministic() {
            let _g = lock();
            let run = |seed: u64| {
                install(FaultPlan::parse("store=0.4,json=0.6", seed).unwrap());
                let mut out = Vec::new();
                for len in [10usize, 1000, 64, 3] {
                    out.push(store_write_faults(len));
                }
                let mut bytes = vec![0xABu8; 256];
                store_read_mutate(&mut bytes);
                let mut text = String::from("{\"k\": [1, 2, 3]}");
                json_parse_corrupt(&mut text);
                let result = (out, bytes, text, fired_counts(), trace());
                clear();
                result
            };
            let a = run(1234);
            let b = run(1234);
            assert_eq!(a, b, "same seed, same faults");
            let c = run(1235);
            assert_ne!(a, c, "different seed should differ somewhere");
        }

        #[test]
        fn zero_prob_plan_never_fires_but_counts_rolls() {
            let _g = lock();
            install(FaultPlan::parse("store.write.short=0", 5).unwrap());
            for _ in 0..50 {
                assert!(!store_write_faults(1000).any());
            }
            let counts = fired_counts();
            assert_eq!(counts, vec![("store.write.short".to_string(), 50, 0)]);
            assert!(trace().is_empty());
            clear();
        }

        #[test]
        fn par_decisions_are_pure_functions_of_worker_and_epoch() {
            let _g = lock();
            install(FaultPlan::parse("par.steal.shuffle=0.7", 77).unwrap());
            assert!(par_perturb_enabled());
            let perturb = |worker, epoch| {
                let mut order: Vec<usize> = (0..6).collect();
                let fired = steal_order_perturb(worker, epoch, &mut order);
                (fired, order)
            };
            let a = perturb(1, 3);
            let b = perturb(1, 3);
            assert_eq!(a, b, "pure in (worker, epoch)");
            let fired_any = (0..40).any(|e| perturb(2, e).0);
            assert!(fired_any, "p=0.7 over 40 epochs must fire");
            // Shuffles permute, never drop or duplicate.
            let (_, order) = perturb(3, 11);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..6).collect::<Vec<_>>());
            clear();
            assert!(!par_perturb_enabled());
        }

        #[test]
        fn campaign_kill_is_pure_in_checkpoint_index() {
            let _g = lock();
            install(FaultPlan::parse("campaign.shard.kill=1", 11).unwrap());
            // prob=1 fires at every checkpoint, and re-querying the same
            // checkpoint (as a resumed process would) repeats the decision.
            for idx in 0..16u64 {
                assert!(campaign_kill_checkpoint(idx));
                assert!(campaign_kill_checkpoint(idx));
            }
            clear();
            assert!(!campaign_kill_checkpoint(0));
            // Fractional prob: decision per checkpoint is seed-stable.
            install(FaultPlan::parse("campaign.shard.kill=0.5", 11).unwrap());
            let a: Vec<bool> = (0..64).map(campaign_kill_checkpoint).collect();
            let b: Vec<bool> = (0..64).map(campaign_kill_checkpoint).collect();
            assert_eq!(a, b);
            assert!(a.iter().any(|f| *f) && a.iter().any(|f| !*f));
            clear();
        }

        #[test]
        fn json_corruption_changes_text() {
            let _g = lock();
            install(FaultPlan::parse("json.parse.corrupt=1", 21).unwrap());
            let original = "{\"services\": [1, 2, 3], \"n\": 4}";
            let mut fired_and_changed = 0;
            for i in 0..12u64 {
                let mut text = format!("{original} // pad{i}");
                let before = text.clone();
                if json_parse_corrupt(&mut text) && text != before {
                    fired_and_changed += 1;
                }
            }
            assert!(fired_and_changed >= 10, "p=1 should almost always mutate");
            clear();
        }

        #[test]
        fn env_install_roundtrip() {
            let _g = lock();
            std::env::set_var("MTD_FAULTS", "par.stall=0.5");
            std::env::set_var("MTD_FAULT_SEED", "321");
            let line = install_from_env().unwrap().unwrap();
            assert!(line.contains("seed=321"), "{line}");
            assert!(line.contains("par.stall=0.5"), "{line}");
            let plan = installed().unwrap();
            assert_eq!(plan.seed, 321);
            std::env::remove_var("MTD_FAULTS");
            std::env::remove_var("MTD_FAULT_SEED");
            assert!(install_from_env().unwrap().is_none());
            clear();
        }
    }
}
