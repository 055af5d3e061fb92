//! The traced run: a per-layer ledger.
//!
//! The simulator's internals are not visible from outside, so each
//! layer is decomposed by calling its entry points directly, one span
//! per call: per design point a `TokenPlan`, per distinct GeMV shape
//! `tiling::plan_gemv`, per distinct channel workload
//! `ChannelEngine::run`, then `System::op_cost` over the plan cold and
//! warm; each figure generator; each device and fleet run; the ECC
//! codec and the accuracy surrogate. Every traced run covers every
//! layer, whatever its workload; the workload chooses which pass the
//! tracing overhead is measured on.

use crate::measure::{calib_kernel, fastest, median, time};
use crate::serving::{self, FleetInputs, FLEET_POLICIES};
use crate::tracer::Tracer;
use crate::{paper, same_as_first, Args, Outcome};
use accuracy_lab::surrogate;
use cambricon_llm::fleet::FleetReport;
use cambricon_llm::serve::{SchedulePolicy, ServeReport, SpanMode};
use cambricon_llm::{System, SystemConfig};
use flash_sim::{ChannelEngine, EngineConfig, FlashDevice};
use llm_workload::{zoo, DecodeOp, TokenPlan};
use npu_sim::NpuModel;
use outlier_ecc::{BitFlipModel, PageCodec};
use std::hint::black_box;
use tiling::{fit_tile, plan_gemv, AlphaInputs, GemvPlan, Strategy};

/// Context length the design points are priced at.
const SEQ: usize = 1000;
/// Warm re-pricings of each plan (warm lookups take nanoseconds).
const WARM_REPS: usize = 20;
/// Pages pushed through the ECC codec.
const ECC_PAGES: usize = 32;
/// Bit error rate the ECC pages are corrupted at.
const ECC_BER: f64 = 1e-3;
/// Passes of each workload timed with spans, each followed by one
/// without.
const OVERHEAD_PASSES: usize = 3;
/// Passes over the figure generators.
const FIGURE_PASSES: usize = 2;
/// Alternations of a cold fleet run with its replicas run one by one,
/// per policy.
const FLEET_SPLIT_REPS: usize = 8;
/// Sweeps over the design points.
const SWEEPS: u64 = 2;

/// Runs the ledger and returns every per-layer metric.
pub fn run(args: &Args) -> Outcome {
    let mut t = Tracer::new();
    let mut out = Outcome::default();
    let mut dp = DesignCounts::default();
    for _ in 0..SWEEPS {
        design_points(&mut t, &mut out, &mut dp);
    }
    figures(&mut t);
    codec_and_surrogate(&mut t, &mut out, args.seed);
    let overload = overload(&mut t, &mut out);
    let fleet = fleet(&mut t, &mut out, args.seed);

    let (traced, untraced) = match args.workload.as_str() {
        "device_overload" => (t.fastest_s("serve.overload_pass"), overload.untraced_s),
        _ => (t.fastest_s("fleet.pass"), fleet.untraced_s),
    };
    let calib_ms = median(
        &(0..9)
            .map(|_| time(calib_kernel).0 * 1e3)
            .collect::<Vec<_>>(),
    );
    write_chrome_trace(&t, args, &mut out);

    let self_s = t.self_times();
    let self_of = |name: &str| self_s.get(name).copied().unwrap_or(0.0);
    let count = |name: &str| t.count(name) as f64;

    out.metric(
        "flash_sim.des_ns_per_event",
        self_of("flash_sim.channel_run") * 1e9 / dp.events as f64,
        "ns",
    );
    out.metric("flash_sim.des_events", (dp.events / SWEEPS) as f64, "count");
    out.metric("flash_sim.des_runs", (dp.runs / SWEEPS) as f64, "count");
    out.metric(
        "tiling.plan_gemv_us",
        self_of("tiling.plan_gemv") * 1e6 / count("tiling.plan_gemv"),
        "us",
    );
    out.metric(
        "system.op_cost_cold_us",
        self_of("system.op_cost_cold") * 1e6 / dp.cold_ops as f64,
        "us",
    );
    out.metric(
        "system.op_cost_warm_ns",
        self_of("system.op_cost_warm") * 1e9 / dp.warm_ops as f64,
        "ns",
    );
    out.metric("system.gemv_hit_ratio", overload.gemv_hit_ratio, "ratio");
    out.metric(
        "system.op_cost_hit_ratio",
        overload.op_cost_hit_ratio,
        "ratio",
    );
    out.metric(
        "llm_workload.token_plan_us",
        self_of("llm_workload.token_plan") * 1e6 / count("llm_workload.token_plan"),
        "us",
    );
    for (id, _) in paper::CATALOG {
        let name = format!("figures.{id}");
        out.metric(format!("{name}_ms"), t.median_s(&name) * 1e3, "ms");
    }
    out.metric(
        "serve.overload_fcfs_ns_per_token",
        t.median_s("serve.overload_fcfs") * 1e9 / overload.tokens as f64,
        "ns/tok",
    );
    out.metric(
        "serve.overload_rr_ns_per_token",
        t.median_s("serve.overload_rr") * 1e9 / overload.tokens as f64,
        "ns/tok",
    );
    for ((name, _, _), report) in FLEET_POLICIES.iter().zip(&fleet.reports) {
        out.metric(
            format!("serve.open_{name}_ns_per_token"),
            t.fastest_s(&format!("serve.open_{name}")) * 1e9 / report.tokens_served as f64,
            "ns/tok",
        );
    }
    out.metric(
        "serve.per_op_ns_per_token",
        t.total_s("serve.per_op_fcfs") * 1e9 / overload.tokens as f64,
        "ns/tok",
    );
    let batch = &fleet.reports[2];
    let fleet_over_replicas: f64 = FLEET_POLICIES
        .iter()
        .map(|(n, _, _)| {
            t.fastest_s(&format!("fleet.cold_{n}")) - t.fastest_s(&format!("serve.open_{n}"))
        })
        .sum();
    out.metric("fleet.overhead_ms", fleet_over_replicas * 1e3, "ms");
    out.metric("fleet.load_imbalance", batch.load_imbalance, "ratio");
    out.metric("fleet.slo_rate_rps", fleet.slo_rate, "req/sim-s");
    let faulted: f64 = FLEET_POLICIES
        .iter()
        .map(|(n, _, _)| t.total_s(&format!("reliability.aged_{n}")))
        .sum();
    let fault_free: f64 = FLEET_POLICIES
        .iter()
        .map(|(n, _, _)| t.total_s(&format!("reliability.clean_{n}")))
        .sum();
    out.metric(
        "reliability.fault_overhead_pct",
        (faulted - fault_free) / fault_free * 100.0,
        "%",
    );
    let replicas = &batch.per_replica;
    let rel_sum = |f: fn(&ServeReport) -> u64| replicas.iter().map(f).sum::<u64>() as f64;
    out.metric(
        "reliability.page_rereads",
        rel_sum(|r| r.reliability.page_rereads),
        "count",
    );
    out.metric(
        "reliability.uncorrectable_events",
        rel_sum(|r| r.reliability.uncorrectable_events),
        "count",
    );
    out.metric(
        "reliability.rber_ppm",
        replicas[0].reliability.rber * 1e6,
        "ppm",
    );
    out.metric(
        "ecc.encode_us_per_page",
        self_of("ecc.encode") * 1e6 / ECC_PAGES as f64,
        "us/page",
    );
    out.metric(
        "ecc.decode_us_per_page",
        self_of("ecc.decode") * 1e6 / ECC_PAGES as f64,
        "us/page",
    );
    out.metric(
        "ecc.inject_us_per_page",
        self_of("ecc.inject") * 1e6 / ECC_PAGES as f64,
        "us/page",
    );
    out.metric(
        "accuracy_lab.severity_ms",
        self_of("accuracy_lab.severity") * 1e3 / count("accuracy_lab.severity"),
        "ms",
    );
    let n = replicas.len() as f64;
    let mean = |f: fn(&ServeReport) -> f64| replicas.iter().map(f).sum::<f64>() / n;
    out.metric(
        "model.flash_utilization",
        mean(|r| r.flash_utilization),
        "ratio",
    );
    out.metric(
        "model.npu_utilization",
        mean(|r| r.npu_utilization),
        "ratio",
    );
    out.metric(
        "model.mean_batch_occupancy",
        mean(|r| r.mean_batch_occupancy),
        "requests",
    );
    let (delay_sum, delays) = replicas.iter().fold((0.0, 0u64), |(s, c), r| {
        let q = &r.queueing_delay_s;
        (
            s + q.mean().unwrap_or(0.0) * q.count() as f64,
            c + q.count(),
        )
    });
    out.metric(
        "model.queueing_delay_mean_s",
        delay_sum / delays.max(1) as f64,
        "sim-s",
    );
    out.metric("model.kv_rejections", rel_sum(|r| r.kv_rejections), "count");
    out.metric("host.calib_ms", calib_ms, "ms");
    out.metric(
        "trace.overhead_pct",
        (traced - untraced) / untraced * 100.0,
        "%",
    );
    out
}

/// Work counted over the design-point sweeps.
#[derive(Debug, Default)]
struct DesignCounts {
    events: u64,
    runs: u64,
    cold_ops: u64,
    warm_ops: u64,
}

/// What the overload section hands to the metrics.
struct OverloadCounts {
    tokens: u64,
    /// Fastest pass without spans.
    untraced_s: f64,
    gemv_hit_ratio: f64,
    op_cost_hit_ratio: f64,
}

/// The tiling plan `System` builds for a `rows x cols` GeMV: with many
/// compute cores the active die count halves until one tile fits.
///
/// `System` keeps this choice private, so this is a mirror of it;
/// [`design_points`] checks every shape's mirrored plan against the GeMV
/// latency `System` charges, so the `tiling.*` and `flash_sim.*` figures
/// stay the program's.
fn gemv_plan(
    cfg: &SystemConfig,
    rows: usize,
    cols: usize,
) -> (GemvPlan, EngineConfig, AlphaInputs) {
    let mut engine = cfg.engine;
    let mut inp = cfg.alpha_inputs();
    if cfg.tile_override.is_none() && cfg.strategy != Strategy::NpuOnly {
        while fit_tile(&inp.topology, inp.weight_bits, rows, cols).is_none()
            && (engine.topology.chips_per_channel > 1 || engine.topology.dies_per_chip > 1)
        {
            if engine.topology.chips_per_channel > 1 {
                engine.topology.chips_per_channel = (engine.topology.chips_per_channel / 2).max(1);
            } else {
                engine.topology.dies_per_chip = (engine.topology.dies_per_chip / 2).max(1);
            }
            inp.topology = engine.topology;
        }
    }
    let plan = plan_gemv(&inp, rows, cols, cfg.strategy, cfg.tile_override);
    (plan, engine, inp)
}

/// Design points: the three paper configurations x the seven models.
fn design_points(t: &mut Tracer, out: &mut Outcome, c: &mut DesignCounts) {
    let models = zoo::all();
    for cfg in SystemConfig::paper_variants() {
        for model in &models {
            let item = t.item();
            t.span("design_point", item, |t| {
                let plan = t.span("llm_workload.token_plan", item, |_| {
                    TokenPlan::new(model, cfg.quant)
                });
                let mut shapes: Vec<(usize, usize)> = Vec::new();
                for op in plan.stream(SEQ) {
                    if let DecodeOp::WeightGemv { rows, cols, .. } = op {
                        if !shapes.contains(&(rows, cols)) {
                            shapes.push((rows, cols));
                        }
                    }
                }
                let npu = NpuModel::new(cfg.npu);
                let mut mirrored = Vec::new();
                for &(rows, cols) in &shapes {
                    let (gemv, engine, inp) =
                        t.span("tiling.plan_gemv", item, |_| gemv_plan(&cfg, rows, cols));
                    let device =
                        FlashDevice::new(engine).run_per_channel(&gemv.channel_workloads(&inp));
                    let latency = device.finish.max(npu.compute_time(2 * gemv.npu_params));
                    mirrored.push(((rows, cols), latency));
                    let mut seen = Vec::new();
                    for wl in gemv.channel_workloads(&inp) {
                        if wl.is_empty() || seen.contains(&wl) {
                            continue;
                        }
                        seen.push(wl);
                        let rep = t.span("flash_sim.channel_run", item, |_| {
                            ChannelEngine::new(engine, wl).run()
                        });
                        c.events += rep.events;
                        c.runs += 1;
                    }
                }
                let mut system = System::new(cfg);
                let priced = t.span("system.op_cost_cold", item, |_| {
                    plan.stream(SEQ)
                        .map(|op| black_box(system.op_cost(&op)).latency)
                        .fold(sim_core::SimTime::ZERO, |a, b| a + b)
                });
                c.cold_ops += plan.stream(SEQ).len() as u64;
                let simulated = system.gemv_cache().len();
                let charged = |system: &mut System, rows: usize, cols: usize| {
                    plan.stream(SEQ)
                        .find(|op| {
                            matches!(op, DecodeOp::WeightGemv { rows: r, cols: c, .. }
                                if (*r, *c) == (rows, cols))
                        })
                        .map(|op| system.op_cost(&op).latency)
                };
                out.check(
                    "the ledger's GeMV plans are the ones System prices",
                    simulated == mirrored.len()
                        && mirrored.iter().all(|&((rows, cols), latency)| {
                            charged(&mut system, rows, cols) == Some(latency)
                        }),
                );
                t.span("system.op_cost_warm", item, |_| {
                    for _ in 0..WARM_REPS {
                        for op in plan.stream(SEQ) {
                            black_box(system.op_cost(&op));
                        }
                    }
                });
                c.warm_ops += (WARM_REPS * plan.stream(SEQ).len()) as u64;
                out.check(
                    "op_cost over the plan sums to System::decode_token",
                    priced == System::new(cfg).decode_token(model, SEQ).total,
                );
            });
        }
    }
}

/// The `repro all` generators, one span each, over two passes.
fn figures(t: &mut Tracer) {
    for _ in 0..FIGURE_PASSES {
        let item = t.item();
        t.span("figures.pass", item, |t| {
            for (id, gen) in paper::CATALOG {
                t.span(&format!("figures.{id}"), item, |_| {
                    black_box(gen().render())
                });
            }
        });
    }
}

/// The ECC codec over synthetic LLM-like pages, and the accuracy
/// surrogate at the quick Fig. 10 error rates.
fn codec_and_surrogate(t: &mut Tracer, out: &mut Outcome, seed: u64) {
    let codec = PageCodec::paper();
    let item = t.item();
    let pages: Vec<Vec<i8>> = (0..ECC_PAGES as u64)
        .map(|i| surrogate::llm_like_page(codec.elems, seed.wrapping_mul(1000).wrapping_add(i)))
        .collect();
    let encoded: Vec<_> = t.span("ecc.encode", item, |_| {
        pages.iter().map(|p| codec.encode(p)).collect()
    });
    let mut corrupted = encoded.clone();
    let mut flips = BitFlipModel::new(ECC_BER, seed);
    t.span("ecc.inject", item, |_| {
        for p in &mut corrupted {
            black_box(flips.corrupt_page(p));
        }
    });
    t.span("ecc.decode", item, |_| {
        for p in &corrupted {
            black_box(codec.decode(p));
        }
    });
    out.check(
        "ECC round-trips clean pages",
        encoded
            .iter()
            .zip(&pages)
            .all(|(e, p)| codec.decode(e) == *p),
    );
    for ber in [1e-5, 2e-4, 1e-3] {
        for with_ecc in [false, true] {
            let s = t.span("accuracy_lab.severity", item, |_| {
                surrogate::severity_at(&codec, ber, with_ecc, 42)
            });
            out.check("surrogate severity finite", s.is_finite());
        }
    }
}

/// The overloaded device: coalesced passes, then the per-op reference.
fn overload(t: &mut Tracer, out: &mut Outcome) -> OverloadCounts {
    let engine = serving::overload_engine(SpanMode::default());
    let trace = serving::overload_trace();
    let mut reference = None;
    let mut untraced = Vec::new();
    for _ in 0..OVERHEAD_PASSES {
        let item = t.item();
        let pair = t.span("serve.overload_pass", item, |t| {
            serving::overload_pass(&engine, &trace, |name, run| {
                t.span(&format!("serve.overload_{name}"), item, |_| run())
            })
        });
        let same = same_as_first(&mut reference, pair, |_| true);
        out.check("repeated overload pass identical", same);
        untraced.push(time(|| serving::overload_pass(&engine, &trace, |_, run| run())).0);
    }
    let (fcfs, _) = reference.expect("at least one pass");
    let per_op = serving::overload_engine(SpanMode::PerOp);
    let item = t.item();
    let p = t.span("serve.per_op_fcfs", item, |_| {
        per_op.run(&trace, SchedulePolicy::Fcfs)
    });
    out.check("PerOp report equals the coalesced report", p == fcfs);
    let ratio = |hits: u64, misses: u64| hits as f64 / (hits + misses).max(1) as f64;
    OverloadCounts {
        tokens: fcfs.tokens_served,
        untraced_s: fastest(&untraced),
        gemv_hit_ratio: ratio(fcfs.gemv_cache_hits, fcfs.gemv_cache_misses),
        op_cost_hit_ratio: ratio(fcfs.op_cost_cache_hits, fcfs.op_cost_cache_misses),
    }
}

/// What the fleet section hands to the metrics: the faulted fleet's
/// reports in [`FLEET_POLICIES`] order and the SLO capacity.
struct FleetCounts {
    reports: Vec<FleetReport>,
    slo_rate: f64,
    /// Fastest pass without spans.
    untraced_s: f64,
}

/// The fleet pass, its replicas run one by one, every policy on both the
/// fault-free and the aged fleet, and the SLO-capacity ladder.
fn fleet(t: &mut Tracer, out: &mut Outcome, seed: u64) -> FleetCounts {
    let inputs = FleetInputs::generate(seed);
    let trace = inputs.trace(serving::FLEET_RATE);
    let fleets = serving::Fleets::new(&inputs, 1);
    let mut reports: Option<Vec<FleetReport>> = None;
    let mut untraced = Vec::new();
    for _ in 0..OVERHEAD_PASSES {
        let item = t.item();
        let pass = t.span("fleet.pass", item, |t| {
            serving::fleet_pass(&fleets, &trace, |name, run| {
                t.span(&format!("fleet.pass_{name}"), item, |_| run())
            })
        });
        let same = same_as_first(&mut reports, pass, |_| true);
        out.check("repeated fleet pass identical", same);
        untraced.push(time(|| serving::fleet_pass(&fleets, &trace, |_, run| run())).0);
    }
    let reports = reports.expect("at least one pass");
    // The fleet's own cost (routing and merge) is a cold-pricing fleet
    // run minus its replicas run one by one, which price cold too. The
    // two are timed alternately, each going first in turn, and each
    // side's fastest run counts.
    let cold = serving::Fleets::new(&inputs, 1).with_cold_systems();
    let subtraces = serving::replica_traces(&trace);
    for (r, warm) in FLEET_POLICIES.iter().zip(&reports) {
        let devices = serving::replica_devices(cold.of(r));
        for rep in 0..FLEET_SPLIT_REPS {
            let item = t.item();
            let run_whole = |t: &mut Tracer| {
                t.span(&format!("fleet.cold_{}", r.0), item, |_| {
                    cold.run(&trace, r)
                })
            };
            let run_apart = |t: &mut Tracer| {
                t.span(&format!("serve.open_{}", r.0), item, |t| {
                    devices
                        .iter()
                        .zip(&subtraces)
                        .map(|(d, sub)| t.span("serve.replica_run", item, |_| d.run(sub, r.1)))
                        .collect::<Vec<_>>()
                })
            };
            let (whole, standalone) = if rep % 2 == 0 {
                let whole = run_whole(t);
                (whole, run_apart(t))
            } else {
                let standalone = run_apart(t);
                (run_whole(t), standalone)
            };
            out.check(
                "standalone replica runs equal the cold fleet's",
                standalone == whole.per_replica,
            );
            out.check(
                "cold fleet equals the timed fleet but for cache counters",
                whole.per_replica.len() == warm.per_replica.len()
                    && whole
                        .per_replica
                        .iter()
                        .zip(&warm.per_replica)
                        .all(|(c, w)| serving::same_but_caches(c, w)),
            );
        }
    }
    let item = t.item();
    for (name, policy, _) in FLEET_POLICIES {
        t.span(&format!("reliability.clean_{name}"), item, |_| {
            black_box(fleets.clean.run(&trace, policy))
        });
        t.span(&format!("reliability.aged_{name}"), item, |_| {
            black_box(fleets.aged.run(&trace, policy))
        });
    }
    let item = t.item();
    let (slo_rate, shares) = t.span("fleet.slo_ladder", item, |_| {
        serving::slo_capacity(&inputs, &fleets.aged)
    });
    eprintln!("SLO ladder (rate req/s, share meeting TTFT and gap limits): {shares:?}");
    FleetCounts {
        reports,
        slo_rate,
        untraced_s: fastest(&untraced),
    }
}

/// Writes the spans under `.bench_out/` in the working directory.
fn write_chrome_trace(t: &Tracer, args: &Args, out: &mut Outcome) {
    let dir = std::path::Path::new(".bench_out");
    let path = dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, t.chrome_json()));
    match &written {
        Ok(()) => eprintln!("chrome trace written to {}", path.display()),
        Err(e) => eprintln!("chrome trace not written: {e}"),
    }
    out.check("chrome trace written", written.is_ok());
}
