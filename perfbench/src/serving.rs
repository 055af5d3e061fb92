//! The serving workloads' scenarios: `device_overload` (one saturated
//! Llama2-70B device, closed loop) and `fleet_open` (a seeded open-loop
//! trace over four Llama2-7B replicas, fault-free and with aged flash).

use cambricon_llm::fleet::{FleetEngine, FleetReport, Interconnect, RouterPolicy};
use cambricon_llm::reliability::{FaultConfig, FaultMode};
use cambricon_llm::serve::{DeviceEngine, PrefillMode, SchedulePolicy, ServeReport, SpanMode};
use cambricon_llm::{System, SystemConfig};
use flash_sim::FlashAge;
use llm_workload::{zoo, ArrivalTrace, RequestArrival, RequestShape};
use sim_core::{SimTime, SplitMix64};

/// `device_overload`: clients, prompt and decode length.
pub const OVERLOAD_CLIENTS: usize = 16;
/// Prompt tokens per overload request.
pub const OVERLOAD_PROMPT: usize = 1000;
/// Decoded tokens per overload request.
pub const OVERLOAD_DECODE: usize = 512;

/// The overloaded device: Llama2-70B on Cambricon-LLM-L, prefill off.
pub fn overload_engine(span: SpanMode) -> DeviceEngine {
    DeviceEngine::new(SystemConfig::cambricon_l(), zoo::llama2_70b()).with_span_mode(span)
}

/// Sixteen closed-loop clients, one long request each.
pub fn overload_trace() -> ArrivalTrace {
    ArrivalTrace::closed_loop(
        OVERLOAD_CLIENTS,
        1,
        RequestShape::new(OVERLOAD_PROMPT, OVERLOAD_DECODE),
    )
}

/// One `device_overload` pass: an FCFS run, then a round-robin run.
/// `each` wraps every run (to time or trace it) and gets its name; the
/// timed, traced and untraced passes all come through here, so they
/// always do the same work.
pub fn overload_pass(
    engine: &DeviceEngine,
    trace: &ArrivalTrace,
    mut each: impl FnMut(&'static str, &mut dyn FnMut() -> ServeReport) -> ServeReport,
) -> (ServeReport, ServeReport) {
    let fcfs = each("fcfs", &mut || engine.run(trace, SchedulePolicy::Fcfs));
    let rr = each("rr", &mut || engine.run(trace, SchedulePolicy::RoundRobin));
    (fcfs, rr)
}

/// Prices the first decode token of `engine`'s plan on a cold system:
/// every distinct GeMV shape goes through tiling and the flash DES.
pub fn cold_first_token(engine: &DeviceEngine, seq_len: usize) -> SimTime {
    System::new(engine.config())
        .decode_token_planned(engine.plan(), seq_len)
        .total
}

/// `fleet_open`: requests per trace. The seed decides how arrivals
/// overlap, and so how much work a pass is; at 1000 requests the
/// fastest pass moved 12-14% (IQR/median) across seeds, at 4000 about
/// 8%.
pub const FLEET_REQUESTS: usize = 4000;
/// Mean arrival rate of the timed trace, requests per simulated second.
pub const FLEET_RATE: f64 = 0.1;
/// Replicas behind the router.
pub const FLEET_REPLICAS: usize = 4;
/// Router-to-replica hop each way.
pub const FLEET_HOP_US: u64 = 50;
/// Continuous-batching width.
pub const FLEET_BATCH: usize = 8;
/// Device age the faults are drawn at: day 40 of the `serve_throughput`
/// wear model (100 + 8 P/E cycles a day, 0.5 + 1 day of retention a day).
pub const FLEET_AGE: FlashAge = FlashAge {
    pe_cycles: 420,
    retention_days: 40.5,
};

/// One fleet run of a pass: name, device policy, and whether it runs on
/// the aged (fault-injected) replicas.
pub type FleetRun = (&'static str, SchedulePolicy, bool);

/// The three fleet runs of a pass, in order. FCFS and round-robin run on
/// fault-free replicas, where thin arrivals coalesce into solo spans
/// (fault injection would force both onto the per-op loop); continuous
/// batching runs on the day-40 replicas, whose batched spans survive
/// fault injection.
pub const FLEET_POLICIES: [FleetRun; 3] = [
    ("fcfs", SchedulePolicy::Fcfs, false),
    ("rr", SchedulePolicy::RoundRobin, false),
    (
        "batch",
        SchedulePolicy::ContinuousBatch {
            max_batch: FLEET_BATCH,
        },
        true,
    ),
];

/// Rates of the SLO-capacity ladder, requests per simulated second.
pub const SLO_LADDER: [f64; 8] = [0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.6, 0.8];
/// Time-to-first-token limit of the SLO, simulated seconds.
pub const SLO_TTFT_S: f64 = 30.0;
/// Limit on a request's mean gap between decoded tokens, simulated
/// seconds.
pub const SLO_GAP_S: f64 = 0.5;
/// Share of requests that must meet both limits.
pub const SLO_SHARE: f64 = 0.99;

/// The seeded inputs of one `fleet_open` run.
#[derive(Debug)]
pub struct FleetInputs {
    /// Request shapes, in arrival order.
    pub shapes: Vec<RequestShape>,
    /// Unit-rate exponential inter-arrival gaps; a trace at rate `r`
    /// spaces arrivals by `gap / r`.
    pub unit_gaps: Vec<f64>,
    /// Root seed of the replicas' fault streams.
    pub fault_seed: u64,
}

impl FleetInputs {
    /// Draws arrivals, shapes and the fault seed from `seed`.
    ///
    /// Prompts are log-uniform over 32..=2000 tokens (skewed short);
    /// 80% of replies are 16..=128 tokens, 20% are 256..=1024. Each
    /// quantity is sampled stratified: one value from each of
    /// `FLEET_REQUESTS` equal-probability strata, shuffled by the seed.
    /// Every seed therefore offers the same total load, and the seed
    /// decides the order of gaps and the pairing of prompts, replies and
    /// arrival times, which is what queueing depends on.
    pub fn generate(seed: u64) -> Self {
        let streams = SplitMix64::split_seeds(seed, 4);
        let n = FLEET_REQUESTS;
        let stratum = |i: usize, of: usize| (i as f64 + 0.5) / of as f64;
        let unit_gaps = shuffled(
            (0..n).map(|i| -(1.0 - stratum(i, n)).ln()).collect(),
            streams[0],
        );
        let (lo, hi) = (32f64.ln(), 2000f64.ln());
        let prompts = shuffled(
            (0..n)
                .map(|i| ((lo + (hi - lo) * stratum(i, n)).exp().round() as usize).clamp(32, 2000))
                .collect(),
            streams[1],
        );
        let short = n * 4 / 5;
        let replies = shuffled(
            (0..n)
                .map(|i| {
                    if i < short {
                        16 + (stratum(i, short) * 113.0) as usize
                    } else {
                        256 + (stratum(i - short, n - short) * 769.0) as usize
                    }
                })
                .collect(),
            streams[2],
        );
        let shapes = prompts
            .into_iter()
            .zip(replies)
            .map(|(p, r)| RequestShape::new(p, r))
            .collect();
        FleetInputs {
            shapes,
            unit_gaps,
            fault_seed: streams[3],
        }
    }

    /// The open-loop trace at `rate` requests per simulated second.
    pub fn trace(&self, rate: f64) -> ArrivalTrace {
        let mut at = 0.0;
        let arrivals = self
            .unit_gaps
            .iter()
            .zip(&self.shapes)
            .map(|(gap, &shape)| {
                at += gap / rate;
                RequestArrival {
                    at: SimTime::from_secs_f64(at),
                    shape,
                }
            })
            .collect();
        ArrivalTrace::Open(arrivals)
    }

    /// The fault configuration at the fleet's age.
    pub fn faults(&self) -> FaultConfig {
        FaultConfig {
            seed: self.fault_seed,
            ..FaultConfig::aged(FLEET_AGE)
        }
    }
}

/// One Llama2-7B / Cambricon-LLM-L replica with prefill modelled.
pub fn fleet_device(faults: FaultMode) -> DeviceEngine {
    DeviceEngine::new(SystemConfig::cambricon_l(), zoo::llama2_7b())
        .with_prefill(PrefillMode::Modeled)
        .with_faults(faults)
}

/// The fleet: least-loaded router, 50 us hops, `threads` workers.
pub fn fleet(faults: FaultMode, threads: usize) -> FleetEngine {
    FleetEngine::new(fleet_device(faults), FLEET_REPLICAS)
        .with_router(RouterPolicy::LeastLoaded)
        .with_interconnect(Interconnect::symmetric(SimTime::from_micros(FLEET_HOP_US)))
        .with_threads(threads)
}

/// The fault-free and the aged fleet a pass runs on.
#[derive(Debug)]
pub struct Fleets {
    /// Fault-free replicas.
    pub clean: FleetEngine,
    /// Replicas with faults drawn at [`FLEET_AGE`].
    pub aged: FleetEngine,
}

impl Fleets {
    /// Both fleets for `inputs`, with `threads` workers each.
    pub fn new(inputs: &FleetInputs, threads: usize) -> Self {
        Fleets {
            clean: fleet(FaultMode::Off, threads),
            aged: fleet(FaultMode::Injected(inputs.faults()), threads),
        }
    }

    /// Both fleets pricing every replica from a cold system, the way a
    /// standalone [`DeviceEngine::run`] prices.
    pub fn with_cold_systems(self) -> Self {
        Fleets {
            clean: self.clean.with_cold_systems(),
            aged: self.aged.with_cold_systems(),
        }
    }

    /// The fleet a run of a pass goes to.
    pub fn of(&self, (_, _, aged): &FleetRun) -> &FleetEngine {
        if *aged {
            &self.aged
        } else {
            &self.clean
        }
    }

    /// Runs one fleet run of a pass.
    pub fn run(&self, trace: &ArrivalTrace, run: &FleetRun) -> FleetReport {
        self.of(run).run(trace, run.1)
    }
}

/// One `fleet_open` pass: the [`FLEET_POLICIES`] runs in order. `each`
/// wraps every run (to time or trace it) and gets its name; the timed,
/// traced and untraced passes all come through here.
pub fn fleet_pass(
    fleets: &Fleets,
    trace: &ArrivalTrace,
    mut each: impl FnMut(&'static str, &mut dyn FnMut() -> FleetReport) -> FleetReport,
) -> Vec<FleetReport> {
    FLEET_POLICIES
        .iter()
        .map(|r| each(r.0, &mut || fleets.run(trace, r)))
        .collect()
}

/// The sub-trace each replica receives: the least-loaded router's
/// choice (fewest booked prompt + reply tokens, lowest index on ties)
/// for every arrival in order, delayed by the dispatch hop.
pub fn replica_traces(trace: &ArrivalTrace) -> Vec<ArrivalTrace> {
    let ArrivalTrace::Open(arrivals) = trace else {
        panic!("fleet traces are open-loop");
    };
    let hop = SimTime::from_micros(FLEET_HOP_US);
    let mut booked = [0u64; FLEET_REPLICAS];
    let mut inboxes: Vec<Vec<RequestArrival>> = vec![Vec::new(); FLEET_REPLICAS];
    for a in arrivals {
        let r = (0..FLEET_REPLICAS)
            .min_by_key(|&r| (booked[r], r))
            .expect("replicas");
        booked[r] += (a.shape.prompt_len + a.shape.new_tokens) as u64;
        inboxes[r].push(RequestArrival {
            at: a.at + hop,
            shape: a.shape,
        });
    }
    inboxes.into_iter().map(ArrivalTrace::Open).collect()
}

/// The replica engines `fleet` runs: one fault stream each when faults
/// are injected, split from the root seed the way the fleet splits it.
pub fn replica_devices(fleet: &FleetEngine) -> Vec<DeviceEngine> {
    match fleet.device().fault_mode() {
        FaultMode::Off => (0..FLEET_REPLICAS)
            .map(|_| fleet_device(FaultMode::Off))
            .collect(),
        FaultMode::Injected(base) => SplitMix64::split_seeds(base.seed, FLEET_REPLICAS)
            .into_iter()
            .map(|seed| fleet_device(FaultMode::Injected(FaultConfig { seed, ..base })))
            .collect(),
    }
}

/// Whether a replica's report from a cold-pricing fleet equals its
/// report from the warm-sharing fleet: only the cache counters may
/// differ.
pub fn same_but_caches(cold: &ServeReport, warm: &ServeReport) -> bool {
    let strip = |r: &ServeReport| ServeReport {
        gemv_cache_hits: 0,
        gemv_cache_misses: 0,
        op_cost_cache_hits: 0,
        op_cost_cache_misses: 0,
        ..r.clone()
    };
    strip(cold) == strip(warm)
}

/// Mean gap between a request's decoded tokens after its first.
fn token_gap_s(r: &cambricon_llm::RequestReport) -> f64 {
    if r.tokens <= 1 {
        return 0.0;
    }
    (r.finished - r.first_token_at).as_secs_f64() / (r.tokens - 1) as f64
}

/// Share of the trace's requests that met both SLO limits, time to first
/// token counted at the router (both hops). Requests the fleet shed or
/// rejected are missing from the report and count as misses.
fn slo_share(report: &FleetReport) -> f64 {
    let round_trip = 2.0 * SimTime::from_micros(FLEET_HOP_US).as_secs_f64();
    let met = report
        .per_replica
        .iter()
        .flat_map(|r| &r.requests)
        .filter(|r| {
            r.ttft().as_secs_f64() + round_trip <= SLO_TTFT_S && token_gap_s(r) <= SLO_GAP_S
        })
        .count();
    met as f64 / FLEET_REQUESTS as f64
}

/// The highest ladder rate at which the continuous-batching fleet keeps
/// [`SLO_SHARE`] of requests within both limits (0 when none does),
/// with the share met at each rate.
pub fn slo_capacity(inputs: &FleetInputs, fleet: &FleetEngine) -> (f64, Vec<(f64, f64)>) {
    let mut best = 0.0;
    let mut shares = Vec::new();
    for rate in SLO_LADDER {
        let report = fleet.run(&inputs.trace(rate), FLEET_POLICIES[2].1);
        let share = slo_share(&report);
        shares.push((rate, share));
        if share >= SLO_SHARE {
            best = rate;
        }
    }
    (best, shares)
}

/// `v` in a seeded Fisher-Yates order.
fn shuffled<T>(mut v: Vec<T>, seed: u64) -> Vec<T> {
    let mut rng = SplitMix64::new(seed);
    for i in (1..v.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
    v
}
