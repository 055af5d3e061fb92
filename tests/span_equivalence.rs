//! Span fast-forwarding ≡ per-token stepping, bit for bit.
//!
//! The coalesced span path ([`SpanMode::Coalesced`], the default) is a
//! pure wall-clock optimization: every simulated quantity — virtual
//! timestamps, per-token latency samples, busy time, traffic bytes,
//! cache accounting — is integer arithmetic regrouped, so whole
//! [`ServeReport`]s must compare equal to the per-op reference
//! ([`SpanMode::PerOp`]) under every policy, both prefill modes, and
//! arbitrary traces. Forced-tiny spans (`max_span` 1 and 2) exercise
//! the boundary edge cases: single-token spans, spans cut short by
//! arrivals (the `k = 0` per-op fallback), and closed-loop respawns
//! that make an arrival and a completion simultaneous.
//!
//! The same contract covers the **interleaved replay loop** — active
//! whenever coalescing is on and several decodes overlap (the
//! overloaded regime, where solo spans never fire): the overload
//! matrix below pins FCFS and round-robin at 2–16 clients, both
//! prefill modes, and fault injection on and off to whole-report
//! equality, plus an arrival landing exactly on a mid-run token
//! boundary while decodes overlap.

use cambricon_llm_repro::prelude::*;
use flash_sim::FlashAge;
use llm_workload::RequestArrival;
use proptest::prelude::*;
use sim_core::SimTime;

fn arb_model() -> impl proptest::Strategy<Value = llm_workload::ModelSpec> {
    prop_oneof![
        Just(zoo::opt_6_7b()),
        Just(zoo::opt_13b()),
        Just(zoo::llama2_7b()),
    ]
}

/// The span caps under test: unbounded (the default), plus tiny forced
/// spans that stress the boundary logic.
const SPAN_MODES: [SpanMode; 3] = [
    SpanMode::Coalesced {
        max_span: usize::MAX,
    },
    SpanMode::Coalesced { max_span: 1 },
    SpanMode::Coalesced { max_span: 2 },
];

fn engines(
    model: &llm_workload::ModelSpec,
    prefill: PrefillMode,
    mode: SpanMode,
) -> (ServeEngine, ServeEngine) {
    let cfg = SystemConfig::cambricon_s();
    let reference = ServeEngine::new(cfg, model.clone())
        .with_prefill(prefill)
        .with_span_mode(SpanMode::PerOp);
    let coalesced = ServeEngine::new(cfg, model.clone())
        .with_prefill(prefill)
        .with_span_mode(mode);
    (reference, coalesced)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole invariant: for arbitrary traces, every policy and
    /// both prefill modes, the coalesced report equals the per-op
    /// report field for field (`ServeReport: PartialEq` covers every
    /// field, per-request timestamps included).
    #[test]
    fn coalesced_reports_equal_per_op_reports(
        model in arb_model(),
        trace_ix in 0usize..3,
        clients in 1usize..4,
        per_client in 1usize..3,
        prompt in 0usize..1200,
        tokens in 1usize..6,
        rate_tenths in 1u64..80,
        seed in 0u64..1000,
        max_batch in 1usize..4,
        span_ix in 0usize..3,
    ) {
        let shape = RequestShape::new(prompt, tokens);
        let trace = match trace_ix {
            // Closed loop: respawns make arrivals and completions
            // simultaneous at token boundaries.
            0 => ArrivalTrace::closed_loop(clients, per_client, shape),
            // Burst: simultaneous arrivals contend immediately.
            1 => ArrivalTrace::burst(clients * per_client, shape),
            // Poisson: arrivals land at arbitrary mid-token instants.
            _ => ArrivalTrace::poisson(
                rate_tenths as f64 / 10.0,
                clients * per_client,
                shape,
                seed,
            ),
        };
        let mode = SPAN_MODES[span_ix];
        for policy in [
            SchedulePolicy::Fcfs,
            SchedulePolicy::RoundRobin,
            SchedulePolicy::ContinuousBatch { max_batch },
        ] {
            for prefill in [PrefillMode::Off, PrefillMode::Modeled] {
                let (reference, coalesced) = engines(&model, prefill, mode);
                let a = reference.run(&trace, policy);
                let b = coalesced.run(&trace, policy);
                prop_assert_eq!(
                    a,
                    b,
                    "span mode {:?} diverged from per-op under {:?}/{:?}",
                    mode,
                    policy,
                    prefill
                );
            }
        }
    }
}

#[test]
fn arrival_exactly_on_a_token_boundary_is_bit_exact() {
    // The sharpest span edge: an arrival landing exactly on a token
    // boundary (not just near it). Probe a per-op run for a true
    // boundary timestamp, then replay a trace with an arrival pinned
    // to that instant under every policy and span mode.
    let shape = RequestShape::new(300, 4);
    let probe = ServeEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b())
        .with_span_mode(SpanMode::PerOp)
        .run(&ArrivalTrace::burst(1, shape), SchedulePolicy::Fcfs);
    let boundary = probe.requests[0].first_token_at;
    assert!(boundary > SimTime::ZERO);
    let trace = ArrivalTrace::Open(vec![
        RequestArrival {
            at: SimTime::ZERO,
            shape,
        },
        RequestArrival {
            at: boundary,
            shape: RequestShape::new(200, 2),
        },
    ]);
    for policy in [
        SchedulePolicy::Fcfs,
        SchedulePolicy::RoundRobin,
        SchedulePolicy::ContinuousBatch { max_batch: 2 },
    ] {
        let reference = ServeEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b())
            .with_span_mode(SpanMode::PerOp)
            .run(&trace, policy);
        for mode in SPAN_MODES {
            let coalesced = ServeEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b())
                .with_span_mode(mode)
                .run(&trace, policy);
            assert_eq!(reference, coalesced, "{policy:?} {mode:?}");
        }
    }
}

#[test]
fn long_decode_spans_compress_events_not_results() {
    // The regime the optimization exists for: few scheduling
    // boundaries, many tokens between them. A 2-client closed loop at
    // 96 tokens coalesces nearly everything; results stay identical.
    let trace = ArrivalTrace::closed_loop(2, 1, RequestShape::new(500, 96));
    for policy in [
        SchedulePolicy::Fcfs,
        SchedulePolicy::ContinuousBatch { max_batch: 2 },
    ] {
        let reference = ServeEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b())
            .with_span_mode(SpanMode::PerOp)
            .run(&trace, policy);
        let coalesced =
            ServeEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b()).run(&trace, policy);
        assert_eq!(reference, coalesced, "{policy:?}");
        assert_eq!(coalesced.tokens_served, 192);
    }
}

#[test]
fn kv_blocked_pending_requests_stay_bit_exact_over_long_spans() {
    // Requests reserving ~3000 KV tokens of the ~7.6k allocation run
    // two at a time while the rest sit pending, blocked on capacity —
    // the regime where spans must keep coalescing (a blocked head can
    // only be admitted at a completion, which is always a span end)
    // yet still retire the waves in the per-op order.
    let shape = RequestShape::new(2990, 40);
    let trace = ArrivalTrace::burst(4, shape);
    let policy = SchedulePolicy::ContinuousBatch { max_batch: 4 };
    let reference = ServeEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b())
        .with_span_mode(SpanMode::PerOp)
        .run(&trace, policy);
    assert_eq!(reference.peak_batch_occupancy, 2);
    for mode in SPAN_MODES {
        let coalesced = ServeEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b())
            .with_span_mode(mode)
            .run(&trace, policy);
        assert_eq!(reference, coalesced, "{mode:?}");
    }
}

#[test]
fn interleaved_replay_is_bit_exact_across_the_overload_matrix() {
    // The multi-request steady state the interleaved replay loop
    // serves: 2–16 overlapping decodes, where solo spans never fire
    // and every op completion is a scheduling event. Whole-report
    // equality against the per-op reference across FCFS and
    // round-robin, both prefill modes, fault injection on and off,
    // and every span cap (tiny caps stress replay entry/exit, since
    // the replay loop runs whenever coalescing is on at all). The odd
    // client count exercises rotation order that never realigns with
    // the plan's class runs.
    let model = zoo::opt_6_7b();
    let cfg = SystemConfig::cambricon_s();
    for clients in [2usize, 9, 16] {
        let trace = ArrivalTrace::closed_loop(clients, 1, RequestShape::new(200, 8));
        for policy in [SchedulePolicy::Fcfs, SchedulePolicy::RoundRobin] {
            for prefill in [PrefillMode::Off, PrefillMode::Modeled] {
                for faulty in [false, true] {
                    let mk = |mode| {
                        let engine = ServeEngine::new(cfg, model.clone())
                            .with_prefill(prefill)
                            .with_span_mode(mode);
                        if faulty {
                            engine.with_faults(FaultMode::Injected(FaultConfig::aged(
                                FlashAge::worn_out(),
                            )))
                        } else {
                            engine
                        }
                    };
                    let reference = mk(SpanMode::PerOp).run(&trace, policy);
                    for mode in SPAN_MODES {
                        let replayed = mk(mode).run(&trace, policy);
                        assert_eq!(
                            reference, replayed,
                            "{clients} clients {policy:?} {prefill:?} faults={faulty} {mode:?}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn admission_boundary_exactly_under_overlapping_decodes_is_bit_exact() {
    // The interleaved-regime sibling of the boundary pin above: with
    // several decodes in flight, probe a real token boundary from a
    // per-op run, then pin an extra arrival to exactly that instant.
    // The replay loop must hand control back at (not after) the tied
    // boundary so the admission pass sees the newcomer in the same
    // order the per-op loop would.
    let shape = RequestShape::new(250, 6);
    let probe_trace = ArrivalTrace::burst(3, shape);
    for policy in [SchedulePolicy::Fcfs, SchedulePolicy::RoundRobin] {
        let probe = ServeEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b())
            .with_span_mode(SpanMode::PerOp)
            .run(&probe_trace, policy);
        // A mid-run boundary: the last client's first token lands while
        // the other decodes are still in flight.
        let boundary = probe
            .requests
            .iter()
            .map(|r| r.first_token_at)
            .max()
            .expect("probe served requests");
        assert!(boundary > SimTime::ZERO);
        let mut arrivals: Vec<RequestArrival> = (0..3)
            .map(|_| RequestArrival {
                at: SimTime::ZERO,
                shape,
            })
            .collect();
        arrivals.push(RequestArrival {
            at: boundary,
            shape: RequestShape::new(100, 3),
        });
        let trace = ArrivalTrace::Open(arrivals);
        let reference = ServeEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b())
            .with_span_mode(SpanMode::PerOp)
            .run(&trace, policy);
        for mode in SPAN_MODES {
            let replayed = ServeEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b())
                .with_span_mode(mode)
                .run(&trace, policy);
            assert_eq!(reference, replayed, "{policy:?} {mode:?}");
        }
    }
}

/// Runs `trace` under FCFS and round-robin on the per-op reference and
/// on every span mode (each one replays, and so cycle-skips, whenever
/// decodes overlap), asserting whole-report equality.
fn assert_replay_exact(
    cfg: SystemConfig,
    model: &llm_workload::ModelSpec,
    trace: &ArrivalTrace,
    faulty: bool,
    label: &str,
) {
    let mk = |mode| {
        let engine = ServeEngine::new(cfg, model.clone()).with_span_mode(mode);
        if faulty {
            engine.with_faults(FaultMode::Injected(FaultConfig::aged(FlashAge::worn_out())))
        } else {
            engine
        }
    };
    for policy in [SchedulePolicy::Fcfs, SchedulePolicy::RoundRobin] {
        let reference = mk(SpanMode::PerOp).run(trace, policy);
        for mode in SPAN_MODES {
            let replayed = mk(mode).run(trace, policy);
            assert_eq!(reference, replayed, "{label}: {policy:?} {mode:?}");
        }
    }
}

/// Simultaneous arrivals at four different sequence positions: every
/// member prices attention differently, so the layer cycle's per-member
/// op latencies differ.
fn staggered_prompts(tokens: usize) -> ArrivalTrace {
    ArrivalTrace::Open(
        [120usize, 480, 900, 1500]
            .iter()
            .map(|&prompt| RequestArrival {
                at: SimTime::ZERO,
                shape: RequestShape::new(prompt, tokens),
            })
            .collect(),
    )
}

#[test]
fn cycle_skipping_is_bit_exact_with_staggered_sequence_positions() {
    let cfg = SystemConfig::cambricon_s();
    for model in [zoo::opt_6_7b(), zoo::llama2_7b()] {
        assert_replay_exact(cfg, &model, &staggered_prompts(5), false, model.name);
    }
}

#[test]
fn cycle_skipping_is_bit_exact_with_arrivals_inside_steady_stretches() {
    // Probe a per-op run for the first token boundary, then drop extra
    // arrivals at interior instants of the steady stretches before and
    // after it: each one cuts a skip short at a different phase of the
    // layer cycle (the arrival bound), and the newcomer reshapes the
    // cycle the next stretch detects.
    let cfg = SystemConfig::cambricon_s();
    let model = zoo::opt_6_7b();
    let base = staggered_prompts(4);
    let probe = ServeEngine::new(cfg, model.clone())
        .with_span_mode(SpanMode::PerOp)
        .run(&base, SchedulePolicy::RoundRobin);
    let first = probe
        .requests
        .iter()
        .map(|r| r.first_token_at)
        .min()
        .expect("probe served requests")
        .as_picos();
    let ArrivalTrace::Open(arrivals) = &base else {
        unreachable!("staggered prompts are an open trace")
    };
    for (num, den) in [(1u64, 3u64), (1, 2), (5, 7), (4, 3), (9, 5)] {
        let mut trace = arrivals.clone();
        trace.push(RequestArrival {
            at: SimTime::from_picos(first * num / den + 1),
            shape: RequestShape::new(250, 3),
        });
        assert_replay_exact(
            cfg,
            &model,
            &ArrivalTrace::Open(trace),
            false,
            &format!("arrival at {num}/{den} of the first token"),
        );
    }
}

#[test]
fn cycle_skipping_is_bit_exact_under_interleaved_fault_injection() {
    // Worn-out flash: every token draws reread time onto its first
    // flash op, so members sit in the ready set with a fault pending
    // while the others cycle.
    let cfg = SystemConfig::cambricon_s();
    let model = zoo::opt_6_7b();
    assert_replay_exact(cfg, &model, &staggered_prompts(4), true, "staggered");
    let trace = ArrivalTrace::closed_loop(3, 2, RequestShape::new(300, 4));
    assert_replay_exact(cfg, &model, &trace, true, "closed loop");
}

#[test]
fn cycle_skipping_is_bit_exact_across_the_70b_token_tail() {
    // Llama2-70B: 80 layers per token, so skips run deep into the body
    // and every token crosses the final norm, the lm_head tail and the
    // next token's head with members at different layers.
    let cfg = SystemConfig::cambricon_l();
    let model = zoo::llama2_70b();
    for clients in [2usize, 3] {
        let trace = ArrivalTrace::closed_loop(clients, 1, RequestShape::new(1000, 3));
        assert_replay_exact(cfg, &model, &trace, false, &format!("{clients} clients"));
    }
}

#[test]
fn tiny_models_without_a_skippable_body_stay_bit_exact() {
    // One- and two-layer plans: the body holds at most two periods, so
    // no skip can keep an advancing member inside it and the replay
    // runs op by op.
    for layers in [1usize, 2] {
        let model = llm_workload::ModelSpec {
            name: "tiny",
            layers,
            ..zoo::opt_6_7b()
        };
        let trace = ArrivalTrace::closed_loop(3, 2, RequestShape::new(64, 4));
        assert_replay_exact(
            SystemConfig::cambricon_s(),
            &model,
            &trace,
            false,
            &format!("{layers} layers"),
        );
    }
}

#[test]
fn span_cap_of_zero_tokens_panics_at_configuration() {
    let result = std::panic::catch_unwind(|| {
        ServeEngine::new(SystemConfig::cambricon_s(), zoo::opt_6_7b())
            .with_span_mode(SpanMode::Coalesced { max_span: 0 })
    });
    assert!(result.is_err(), "max_span: 0 must be rejected");
}
