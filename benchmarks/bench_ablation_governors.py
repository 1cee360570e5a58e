"""Ablation — governor tunable sensitivity.

Sweeps the tunables that drive the paper's qualitative findings:
conservative's sampling rate (its slowness is what irritates) and
interactive's hispeed_freq (its boost target is what burns energy).
Each point is a config string (``conservative:sampling=…``), the one
way a governor is parameterised, so it has its own RNG stream and cache
cell like any other configuration.
"""

from repro.harness.experiment import replay_run


def test_conservative_sampling_rate(benchmark, artifacts_ds02):
    def run(rate_us):
        return replay_run(artifacts_ds02, f"conservative:sampling={rate_us}")

    benchmark.pedantic(lambda: run(200_000), rounds=1, iterations=1)

    rows = {}
    for rate_ms in (50, 100, 200, 400):
        result = run(rate_ms * 1000)
        rows[rate_ms] = (
            result.irritation_seconds(),
            result.dynamic_energy_j,
        )

    print("\nAblation: conservative sampling rate (Dataset 02)")
    for rate_ms, (irritation, energy) in rows.items():
        print(f"  {rate_ms:4d} ms: irritation {irritation:6.2f} s  "
              f"energy {energy:6.2f} J")

    # Slower sampling → slower ramp → more irritation.
    irritations = [rows[r][0] for r in sorted(rows)]
    assert irritations[0] < irritations[-1]


def test_interactive_hispeed_freq(benchmark, artifacts_ds02):
    def run(hispeed):
        return replay_run(artifacts_ds02, f"interactive:hispeed={hispeed}")

    benchmark.pedantic(lambda: run(1_190_400), rounds=1, iterations=1)

    rows = {}
    for hispeed in (652_800, 1_190_400, 1_728_000, 2_150_400):
        result = run(hispeed)
        rows[hispeed] = (
            result.irritation_seconds(),
            result.dynamic_energy_j,
        )

    print("\nAblation: interactive hispeed_freq (Dataset 02)")
    for hispeed, (irritation, energy) in rows.items():
        print(f"  {hispeed / 1e6:4.2f} GHz: irritation {irritation:6.2f} s  "
              f"energy {energy:6.2f} J")

    # Higher boost target → more energy, never more irritation.
    energies = [rows[h][1] for h in sorted(rows)]
    assert energies[0] < energies[-1]
    irritations = [rows[h][0] for h in sorted(rows)]
    assert irritations[-1] <= irritations[0] + 0.5


def test_ondemand_up_threshold(benchmark, artifacts_ds02):
    def run(threshold):
        return replay_run(
            artifacts_ds02, f"ondemand:up_threshold={threshold}"
        )

    benchmark.pedantic(lambda: run(95), rounds=1, iterations=1)

    rows = {}
    for threshold in (60, 80, 95):
        result = run(threshold)
        rows[threshold] = result.dynamic_energy_j

    print("\nAblation: ondemand up_threshold (Dataset 02)")
    for threshold, energy in rows.items():
        print(f"  up={threshold}: energy {energy:6.2f} J")

    # A lower threshold races to max more eagerly → more energy.
    assert rows[60] > rows[95]
