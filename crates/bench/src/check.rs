//! Perf-regression gate backing the `bench_check` binary (CI).
//!
//! [`BENCHES`] is the whole gate, as a table. Each bench record under
//! `results/` is compared against the committed baseline of the same file
//! name under `crates/bench/baselines/`, through the record's top-level
//! gates and its row sections. [`check`] walks the table. [`self_test`]
//! doctors each gate on each row of a baseline in turn and requires that
//! gate to fail, so a gate that can no longer fail cannot go unnoticed.
//!
//! CI runners do not run at the speed of the machine that produced the
//! committed baselines, so absolute wall times are not comparable across
//! machines. Every gated timing metric is therefore a *within-run ratio*
//! (the optimized path's wall time against its reference path, both measured
//! in the same process): the machine constant cancels, and a >20 % drop in
//! the ratio is exactly a >20 % wall-time regression of the optimized path
//! at fixed reference speed. Correctness flags, absolute floors and ceilings
//! ignore the baseline.

use serde::Value;

/// Allowed relative wall-time regression of a [`Kind::Ratio`] gate (20 %).
pub const TOLERANCE: f64 = 0.20;

/// Minimum acceptable prepacked-vs-per-call aggregate speedup over the dense
/// stack's XAI-sweep GEMMs, gated absolutely: the dense products are where
/// the weight pack is a large fraction of the work, so a frozen weight that
/// stops paying it must show a real aggregate win there.
pub const PREPACK_MIN_DENSE_AGGREGATE_SPEEDUP: f64 = 1.1;

/// Minimum fraction of per-sweep GEMM pack traffic the frozen model must
/// eliminate, gated absolutely. The counter is deterministic (same shapes →
/// same byte counts on any machine), so unlike the wall-time ratios this
/// gate carries no measurement noise.
pub const PREPACK_MIN_PACK_ELIMINATION: f64 = 0.15;

/// Minimum acceptable speedup of the image-panel conv lowering (panels
/// packed straight from the lane-major batch, `Wᵀ · G` folded onto it) over the
/// unfolded one (`im2row` rows, `gᵀ · W` folded by `row2im`), aggregated
/// over every conv shape of the GTSRB serving members — frozen forward plus
/// input gradient at SmoothGrad batch 16 — and gated absolutely. Measured
/// 2.8–3.0× on a 2-vCPU AVX-512 host; the floor keeps the unfold-free path
/// from silently falling back to the unfolded cost.
pub const CONV_LOWERING_MIN_AGGREGATE_SPEEDUP: f64 = 1.8;

/// Minimum acceptable speedup of one lane-major 16-image input-gradient
/// sweep over 16 per-sample `input_gradient` calls, aggregated over the
/// frozen GTSRB serving members (ConvNet, MobileNet, ResNet18 at 3×16×16)
/// and gated absolutely. Measured 1.32–1.55× over 16 runs on a 2-vCPU
/// AVX-512 host; the floor keeps the lane-major layers from silently
/// falling back to per-sample cost (≈ 1.0×).
pub const LANE_SWEEP_MIN_AGGREGATE_SPEEDUP: f64 = 1.1;

/// Minimum acceptable micro-batched-vs-serial serving speedup, gated
/// absolutely (independent of the committed baseline): the serving layer
/// must keep delivering the throughput gain it was built for.
pub const SERVE_MIN_SPEEDUP: f64 = 1.3;

/// Minimum acceptable 1-shard→N-shard serving speedup, gated absolutely —
/// but only when the fresh record was measured on a multi-core host
/// (`host_cores >= 2`). A single-core machine cannot run engine shards in
/// parallel, so its honest ratio is ~1.0 and the floor would only punish the
/// hardware; the relative gate against the baseline still applies there.
pub const SHARD_MIN_SCALING: f64 = 1.25;

/// Minimum acceptable adaptive-vs-all-Full p99 latency speedup, gated
/// absolutely: the scheduler exists to cut the tail, and a within-run ratio
/// below this means it stopped paying for itself.
pub const XAI_SCHED_MIN_P99_SPEEDUP: f64 = 2.0;

/// Maximum balanced-accuracy cost (percentage points, adaptive vs all-Full)
/// the scheduler may pay for its tail-latency win, gated absolutely.
pub const XAI_SCHED_MAX_BA_COST_PTS: f64 = 0.5;

/// Maximum acceptable p99 pointer-flip stall for a hot swap, in
/// microseconds, gated absolutely: the flip is a per-shard deposit plus an
/// atomic store, so a stall past this ceiling means the swap path started
/// blocking the serving path.
pub const SWAP_MAX_FLIP_P99_US: f64 = 100_000.0;

/// Minimum fraction of steady-state throughput the server must retain while
/// hot swaps are interleaved with the load, gated absolutely: "zero
/// downtime" is hollow if churn halves the service rate.
pub const SWAP_MIN_CHURN_THROUGHPUT: f64 = 0.5;

/// Maximum verdicts the drift detector may take to trip after a mid-stream
/// fault injection, gated absolutely: the detector exists to catch the
/// paper's faulty-data shift while it is still cheap to act on, and a
/// latency past this budget means it stopped doing its job.
pub const DRIFT_MAX_DETECTION_VERDICTS: f64 = 512.0;

/// Minimum detection headroom (budget / detection latency), gated absolutely
/// alongside the relative gate: 1.0 is detection exactly at the budget.
pub const DRIFT_MIN_DETECTION_HEADROOM: f64 = 1.0;

/// How a gate judges the value under its key in the fresh record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Must be `true`: a bitwise contract.
    Flag,
    /// A within-run ratio: fresh ≥ baseline / (1 + [`TOLERANCE`]).
    Ratio,
    /// Fresh ≥ the bound, whatever the baseline.
    Floor(f64),
    /// Fresh ≤ the bound, whatever the baseline; `Ceiling(0.0)` gates a
    /// counter that must stay zero.
    Ceiling(f64),
    /// [`Kind::Floor`] when the same object's `host_cores` is at least 2,
    /// skipped on one core, which cannot run engine shards in parallel.
    MultiCoreFloor(f64),
}

use Kind::{Ceiling, Flag, Floor, MultiCoreFloor, Ratio};

/// A top-level gate: its check label, the key it reads (`a.b` is key `b`
/// of object `a`), and its kind.
pub type Gate = (&'static str, &'static str, Kind);

/// The rows of one array, each gated under `{prefix}/{row id}`; a row's id
/// is its `keys` values joined by `@`, and the fresh row with the same key
/// values is the one compared.
pub struct Section {
    /// Array name in the record.
    pub array: &'static str,
    /// Label prefix.
    pub prefix: &'static str,
    /// Key fields identifying a row.
    pub keys: &'static [&'static str],
    /// `(key, kind)` applied to every row.
    pub gates: &'static [(&'static str, Kind)],
}

/// One bench record and everything gated in it.
pub struct Bench {
    /// File name, under both the fresh and the baseline directory.
    pub file: &'static str,
    /// Gates on the record's top level.
    pub gates: &'static [Gate],
    /// Row sections; a baseline lacking one fails the gate.
    pub sections: &'static [Section],
}

/// Every gate `bench_check` runs.
#[rustfmt::skip]
pub const BENCHES: &[Bench] = &[
    Bench {
        file: "bench_gemm.json",
        gates: &[
            ("prepack/sweep_aggregate", "prepack_sweep_aggregate_speedup", Ratio),
            ("prepack/dense_aggregate", "prepack_dense_aggregate_speedup", Ratio),
            ("prepack/dense_min_speedup", "prepack_dense_aggregate_speedup",
                Floor(PREPACK_MIN_DENSE_AGGREGATE_SPEEDUP)),
            ("prepack/xai_sweep", "xai_sweep.prepack_identical", Flag),
            // The frozen sweep must hit at least one prepacked operand.
            ("prepack/xai_sweep", "xai_sweep.prepack_hits_per_sweep", Floor(1.0)),
            ("prepack/pack_bytes_eliminated", "xai_sweep.pack_bytes_eliminated_fraction", Ratio),
            ("prepack/min_pack_elimination", "xai_sweep.pack_bytes_eliminated_fraction",
                Floor(PREPACK_MIN_PACK_ELIMINATION)),
            ("conv_lowering/all_shapes", "conv_lowering_identical", Flag),
            ("conv_lowering/aggregate", "conv_lowering_aggregate_speedup", Ratio),
            ("conv_lowering/min_speedup", "conv_lowering_aggregate_speedup",
                Floor(CONV_LOWERING_MIN_AGGREGATE_SPEEDUP)),
            ("lane_sweep/all_models", "lane_sweep_identical", Flag),
            ("lane_sweep/aggregate", "lane_sweep_aggregate_speedup", Ratio),
            ("lane_sweep/min_speedup", "lane_sweep_aggregate_speedup",
                Floor(LANE_SWEEP_MIN_AGGREGATE_SPEEDUP)),
        ],
        sections: &[
            Section { array: "gemm", prefix: "gemm", keys: &["shape"],
                gates: &[("bit_identical", Flag), ("speedup", Ratio)] },
            // Row wall times are recorded but not gated: at XAI-sweep scale
            // the conv rows are near 1.0× and their noise exceeds the band.
            Section { array: "prepack_sweep", prefix: "prepack", keys: &["shape"],
                gates: &[("prepack_identical", Flag)] },
            Section { array: "conv_lowering", prefix: "conv_lowering", keys: &["shape"],
                gates: &[("lowering_identical", Flag)] },
            Section { array: "lane_sweep", prefix: "lane_sweep", keys: &["model"],
                gates: &[("lanes_identical", Flag)] },
            Section { array: "training", prefix: "training", keys: &["model", "input_size"],
                gates: &[("weights_bit_identical", Flag), ("speedup", Ratio)] },
        ],
    },
    Bench {
        file: "bench_inference.json",
        gates: &[
            ("inference/verdicts", "verdicts_identical", Flag),
            ("inference/batched_engine", "speedup_batched_vs_per_sample", Ratio),
        ],
        sections: &[],
    },
    Bench {
        file: "bench_serve.json",
        gates: &[
            ("serve/verdicts", "verdicts_identical", Flag),
            ("serve/cache", "cache_identical", Flag),
            ("serve/degraded", "degraded_deterministic", Flag),
            ("serve/shard_verdicts", "shard_verdicts_identical", Flag),
            ("serve/micro_batching", "speedup_batched_vs_serial", Ratio),
            ("serve/min_speedup", "speedup_batched_vs_serial", Floor(SERVE_MIN_SPEEDUP)),
            ("serve/shard_scaling", "speedup_shards_vs_one", Ratio),
            ("serve/shard_min_scaling", "speedup_shards_vs_one", MultiCoreFloor(SHARD_MIN_SCALING)),
        ],
        sections: &[],
    },
    Bench {
        file: "bench_xai_sched.json",
        gates: &[
            ("xai_sched/full_pinned", "full_pinned_identical", Flag),
            ("xai_sched/p99_tail", "speedup_p99_adaptive_vs_full", Ratio),
            ("xai_sched/min_p99_speedup", "speedup_p99_adaptive_vs_full",
                Floor(XAI_SCHED_MIN_P99_SPEEDUP)),
            ("xai_sched/ba_cost", "ba_cost_pts", Ceiling(XAI_SCHED_MAX_BA_COST_PTS)),
        ],
        sections: &[],
    },
    Bench {
        file: "bench_swap.json",
        gates: &[
            ("swap/noop_identity", "noop_identical", Flag),
            ("swap/v1_identity", "v1_identical", Flag),
            ("swap/v2_identity", "v2_identical", Flag),
            ("swap/churn_identity", "churn_identical", Flag),
            ("swap/cache_generations", "cache_generation_isolated", Flag),
            // A request lost under churn is an outage, not a regression.
            ("swap/dropped_requests", "dropped_requests", Ceiling(0.0)),
            ("swap/errored_requests", "errored_requests", Ceiling(0.0)),
            ("swap/flip_p99", "swap_flip_p99_us", Ceiling(SWAP_MAX_FLIP_P99_US)),
            ("swap/churn_throughput", "speedup_churn_vs_steady", Ratio),
            ("swap/min_churn_throughput", "speedup_churn_vs_steady",
                Floor(SWAP_MIN_CHURN_THROUGHPUT)),
        ],
        sections: &[],
    },
    Bench {
        file: "bench_drift.json",
        gates: &[
            ("drift/bit_identity", "detector_verdicts_identical", Flag),
            ("drift/detected_within_budget", "detected_within_budget", Flag),
            ("drift/swap_promoted", "swap_promoted", Flag),
            ("drift/detector_reset", "detector_reset_after_swap", Flag),
            ("drift/post_swap_identity", "post_swap_identical", Flag),
            // A false trip triggers a pointless swap.
            ("drift/clean_false_trips", "clean_false_trips", Ceiling(0.0)),
            ("drift/post_swap_false_trips", "post_swap_false_trips", Ceiling(0.0)),
            ("drift/dropped_requests", "dropped_requests", Ceiling(0.0)),
            ("drift/errored_requests", "errored_requests", Ceiling(0.0)),
            ("drift/detection_latency", "detection_verdicts",
                Ceiling(DRIFT_MAX_DETECTION_VERDICTS)),
            ("drift/detection_headroom", "detection_headroom", Ratio),
            ("drift/min_headroom", "detection_headroom", Floor(DRIFT_MIN_DETECTION_HEADROOM)),
        ],
        sections: &[],
    },
];

/// One gate at one place: the record's top level, or one baseline row.
struct Site {
    label: String,
    /// The row's section and its index in the baseline; `None` for a
    /// top-level gate.
    row: Option<(&'static Section, usize)>,
    key: &'static str,
    kind: Kind,
}

/// Every gate of `bench` at every place `baseline` offers it; a section the
/// baseline lacks (or leaves empty) is an `Err` line instead.
fn sites(bench: &'static Bench, baseline: &Value) -> Vec<Result<Site, String>> {
    let top = bench.gates.iter().map(|&(label, key, kind)| {
        Ok(Site {
            label: label.to_string(),
            row: None,
            key,
            kind,
        })
    });
    let rows = bench.sections.iter().flat_map(|section| {
        match baseline.get(section.array).and_then(Value::as_array) {
            Some(rows) if !rows.is_empty() => rows
                .iter()
                .enumerate()
                .flat_map(|(index, row)| {
                    let id: Vec<String> = section
                        .keys
                        .iter()
                        .map(|k| match row.get(k) {
                            Some(Value::Str(s)) => s.clone(),
                            v => serde_json::to_string(&v).unwrap_or_default(),
                        })
                        .collect();
                    let label = format!("{}/{}", section.prefix, id.join("@"));
                    section.gates.iter().map(move |&(key, kind)| {
                        Ok(Site {
                            label: label.clone(),
                            row: Some((section, index)),
                            key,
                            kind,
                        })
                    })
                })
                .collect(),
            _ => vec![Err(format!(
                "FAIL {}: baseline has no `{}` rows",
                section.prefix, section.array
            ))],
        }
    });
    top.chain(rows).collect()
}

/// The value under a dotted `key` of `scope`.
fn lookup<'v>(scope: &'v Value, key: &str) -> Option<&'v Value> {
    key.split('.').try_fold(scope, |v, k| v.get(k))
}

/// Judges one site: `Ok` with an `ok` line, or `Err` with a `FAIL` line.
fn judge(site: &Site, baseline: &Value, fresh: &Value) -> Result<String, String> {
    let (label, key) = (&site.label, site.key);
    let (base, fresh) = match site.row {
        None => (baseline, fresh),
        Some((section, index)) => {
            let base = &baseline
                .get(section.array)
                .and_then(Value::as_array)
                .expect("sites come from this baseline")[index];
            let same = |row: &&Value| section.keys.iter().all(|k| row.get(k) == base.get(k));
            let row = fresh
                .get(section.array)
                .and_then(Value::as_array)
                .and_then(|rows| rows.iter().find(same));
            (
                base,
                row.ok_or_else(|| format!("FAIL {label}: missing from fresh record"))?,
            )
        }
    };
    let number = |scope, what: &str| {
        lookup(scope, key)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("FAIL {label}: {what}`{key}` missing"))
    };
    let (pass, detail) = match site.kind {
        Flag => {
            let flag = lookup(fresh, key)
                .and_then(Value::as_bool)
                .ok_or_else(|| format!("FAIL {label}: correctness flag `{key}` missing"))?;
            let detail = if flag {
                "bitwise identical"
            } else {
                "bitwise divergence"
            };
            (flag, detail.to_string())
        }
        Ratio => {
            let (b, f) = (number(base, "baseline ")?, number(fresh, "")?);
            let floor = b / (1.0 + TOLERANCE);
            let detail = format!("{key} {f:.3} (baseline {b:.3}, floor {floor:.3})");
            (f >= floor, detail)
        }
        Floor(bound) => {
            let f = number(fresh, "")?;
            (f >= bound, format!("{key} {f:.3} vs floor {bound}"))
        }
        Ceiling(bound) => {
            let f = number(fresh, "")?;
            (f <= bound, format!("{key} {f:.3} vs ceiling {bound}"))
        }
        MultiCoreFloor(bound) => {
            let f = number(fresh, "")?;
            let cores = lookup(fresh, "host_cores")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("FAIL {label}: `host_cores` missing"))?;
            if cores < 2.0 {
                return Ok(format!(
                    "ok   {label}: skipped ({cores:.0}-core host cannot scale)"
                ));
            }
            let detail = format!("{key} {f:.3} vs floor {bound} ({cores:.0} cores)");
            (f >= bound, detail)
        }
    };
    if pass {
        Ok(format!("ok   {label}: {detail}"))
    } else {
        Err(format!("FAIL {label}: {detail}"))
    }
}

/// Every check of `bench`, in table order: `Ok` lines passed, `Err` lines
/// failed.
pub fn check(
    bench: &'static Bench,
    baseline: &Value,
    fresh: &Value,
) -> Vec<Result<String, String>> {
    sites(bench, baseline)
        .into_iter()
        .map(|site| site.and_then(|site| judge(&site, baseline, fresh)))
        .collect()
}

/// Moves one site's value so that its gate must fail, as [`self_test`]
/// describes; floors and ceilings move on both sides, so only the absolute
/// bound can catch them. `None` when the value is not there to move.
fn doctor(site: &Site, baseline: &mut Value, fresh: &mut Value) -> Option<()> {
    let past = |bound: f64| match site.kind {
        Ceiling(_) => Value::Float(bound * 2.0 + 1.0),
        _ => Value::Float(0.0),
    };
    let fresh = scope_mut(fresh, site)?;
    match site.kind {
        Flag => set(fresh, site.key, Value::Bool(false)),
        Ratio => {
            let value = lookup(fresh, site.key)?.as_f64()?;
            set(fresh, site.key, Value::Float(value / 1.5))
        }
        Floor(bound) | Ceiling(bound) | MultiCoreFloor(bound) => {
            if let MultiCoreFloor(_) = site.kind {
                set(fresh, "host_cores", Value::UInt(2))?;
            }
            set(fresh, site.key, past(bound))?;
            set(scope_mut(baseline, site)?, site.key, past(bound))
        }
    }
}

/// The object a site's key lives in: the record, or the site's row.
fn scope_mut<'v>(record: &'v mut Value, site: &Site) -> Option<&'v mut Value> {
    match site.row {
        None => Some(record),
        Some((section, index)) => match record.get_mut(section.array)? {
            Value::Array(rows) => rows.get_mut(index),
            _ => None,
        },
    }
}

/// Overwrites the value under a dotted `key` of `scope`.
fn set(scope: &mut Value, key: &str, value: Value) -> Option<()> {
    *key.split('.').try_fold(scope, |v, k| v.get_mut(k))? = value;
    Some(())
}

/// Self-test of `bench` on `baseline`: the baseline must pass against
/// itself, and for every gate at every place, the record doctored at that
/// one value must fail that gate — a flag turned `false`, a ratio's fresh
/// side scaled by 1/1.5, a floor's value set to 0 and a ceiling's to twice
/// its bound plus one on both sides, a guarded floor the same on a 2-core
/// host. Returns the number of gates doctored, or every problem found.
pub fn self_test(bench: &'static Bench, baseline: &Value) -> Result<usize, Vec<String>> {
    let mut problems: Vec<String> = check(bench, baseline, baseline)
        .into_iter()
        .filter_map(|outcome| outcome.err())
        .map(|line| format!("clean baseline: {line}"))
        .collect();
    let sites: Vec<Site> = sites(bench, baseline).into_iter().flatten().collect();
    for site in &sites {
        let (mut doctored_base, mut doctored) = (baseline.clone(), baseline.clone());
        if doctor(site, &mut doctored_base, &mut doctored).is_none() {
            problems.push(format!("{}: cannot doctor `{}`", site.label, site.key));
        } else if let Ok(line) = judge(site, &doctored_base, &doctored) {
            problems.push(format!(
                "{:?} gate on `{}` passed its doctored value: {line}",
                site.kind, site.key
            ));
        }
    }
    if problems.is_empty() {
        Ok(sites.len())
    } else {
        Err(problems)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline(bench: &Bench) -> Value {
        let path = format!("{}/baselines/{}", env!("CARGO_MANIFEST_DIR"), bench.file);
        let text = std::fs::read_to_string(&path).expect("committed baseline readable");
        serde_json::from_str(&text).expect("baseline parses")
    }

    fn bench(file: &str) -> &'static Bench {
        BENCHES
            .iter()
            .find(|b| b.file == file)
            .expect("bench in table")
    }

    fn failures(outcomes: &[Result<String, String>]) -> Vec<&String> {
        outcomes.iter().filter_map(|o| o.as_ref().err()).collect()
    }

    /// Pins the gate set — dropping a gate from the table fails here — and
    /// runs the per-gate self-test over every committed baseline.
    #[test]
    fn committed_baselines_pass_and_every_gate_fails_when_doctored() {
        let mut total = 0;
        for (file, gates) in [
            ("bench_gemm.json", 56),
            ("bench_inference.json", 2),
            ("bench_serve.json", 8),
            ("bench_xai_sched.json", 4),
            ("bench_swap.json", 10),
            ("bench_drift.json", 12),
        ] {
            let bench = bench(file);
            let record = baseline(bench);
            let outcomes = check(bench, &record, &record);
            assert!(failures(&outcomes).is_empty(), "{file}: {outcomes:?}");
            assert_eq!(outcomes.len(), gates, "{file}");
            assert_eq!(self_test(bench, &record), Ok(gates), "{file}");
            total += gates;
        }
        assert_eq!(total, 92);
    }

    #[test]
    fn a_run_15_percent_slower_passes() {
        for bench in BENCHES {
            let record = baseline(bench);
            let mut slower = record.clone();
            for site in sites(bench, &record).into_iter().flatten() {
                if site.kind == Ratio {
                    let scope = scope_mut(&mut slower, &site).expect("row present");
                    let value = lookup(scope, site.key).and_then(Value::as_f64);
                    set(scope, site.key, Value::Float(value.expect("ratio") / 1.15));
                }
            }
            let outcomes = check(bench, &record, &slower);
            assert!(
                failures(&outcomes).is_empty(),
                "{}: {outcomes:?}",
                bench.file
            );
        }
    }

    #[test]
    fn a_missing_fresh_row_fails() {
        let bench = bench("bench_gemm.json");
        let record = baseline(bench);
        let mut fresh = record.clone();
        if let Some(Value::Array(rows)) = fresh.get_mut("training") {
            rows.remove(0);
        }
        let outcomes = check(bench, &record, &fresh);
        assert_eq!(
            failures(&outcomes),
            vec!["FAIL training/ConvNet@16: missing from fresh record"; 2]
        );
    }

    #[test]
    fn host_core_guard_skips_on_one_core_trips_on_four_and_must_be_present() {
        let bench = bench("bench_serve.json");
        let record = baseline(bench);
        let shard_floor = |host_cores: Option<u64>| {
            let mut fresh = record.clone();
            let Value::Object(pairs) = &mut fresh else {
                panic!("record is an object")
            };
            pairs.retain(|(k, _)| k != "host_cores");
            if let Some(cores) = host_cores {
                pairs.push(("host_cores".into(), Value::UInt(cores)));
            }
            check(bench, &record, &fresh)
                .into_iter()
                .find(|o| {
                    o.as_ref()
                        .unwrap_or_else(|e| e)
                        .contains("serve/shard_min_scaling")
                })
                .expect("gate ran")
        };
        // The committed baseline scaled 0.807× on one core: honest there.
        assert!(shard_floor(Some(1)).is_ok_and(|line| line.contains("skipped")));
        assert!(shard_floor(Some(4)).is_err());
        assert!(shard_floor(None).is_err_and(|line| line.contains("host_cores")));
    }
}
