# Developer entry points; `just --list` shows this menu.

# Build everything in release mode.
build:
    cargo build --release

# The tier-1 verify: release build plus the full test suite.
test: build
    cargo test -q

# Criterion smoke benches (vendored harness: fixed-iteration timings).
bench:
    cargo bench -p bench

# Serving hot-path benchmark: measures simulated-tokens-per-wall-second
# on the 70B serving scenario — round-robin, batched, prefill-enabled,
# the long-decode coalesced variant (span fast-forwarding vs the
# per-op reference loop), the Monte Carlo batch (32 seeded traces
# on one pre-warmed pricing system, aggregate tokens/wall-sec), the
# overloaded-device ladder (2/8/16 clients x FCFS/round-robin, per-op
# reference vs interleaved replay, asserted report-equal), a
# per-stage profile of the 16-client rung, the fault-injected
# reliability variant (goodput-vs-wear ladder plus the wear-trajectory
# days-until-SLO figure at a 1-year age anchor), and the fleet replica
# ladder (one heavy Poisson trace routed across 1..4 device replicas,
# aggregate tokens/wall-sec per rung plus a router-policy
# comparison) — and records the perf trajectory in BENCH_serving.json
# (compare against the committed numbers before and after touching the
# serve/system hot path).
perf:
    cargo run --release -p bench --bin serve_throughput -- --profile --faults 365 --fleet 4

# The repository benchmark (BENCHMARK.json): one timed run of a named
# workload (`device_overload` or `fleet_open`), or the traced per-layer
# ledger with `trace=1`. The last stdout line is the JSON result; its
# `"failed"` count must be 0.
perfbench workload="device_overload" seconds="10" trace="0" seed="1":
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- --workload {{workload}} --seed {{seed}} --seconds {{seconds}} --trace {{trace}}

# Regenerate every paper table/figure ("full" for full-resolution sweeps).
repro target="all":
    cargo run --release -p bench --bin repro -- {{target}}

# Format + lint exactly as CI runs them.
lint:
    cargo fmt --check
    cargo clippy --workspace --all-targets -- -D warnings
    just simlint

# The determinism lint: self-test the rule corpus, then lint the tree
# (see README "Determinism lint" for the D1–D5 rule catalog).
simlint:
    cargo run --release -p simlint -- --fixtures
    cargo run --release -p simlint

# Auto-format the workspace.
fmt:
    cargo fmt
