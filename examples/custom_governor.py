"""Prototyping a new governor against the paper's methodology.

The paper's conclusion proposes feeding interaction-lag awareness into the
governor ("integrate our proposed user irritation metric into the ANDROID
display stack").  ``repro.governors.qoe_aware`` implements that idea:
boost on input, hold while the run queue drains, settle at the most
energy-efficient OPP instead of the minimum.

This example also shows how to register a brand-new governor and evaluate
it with the exact harness the paper evaluates stock governors with.

Run:  python examples/custom_governor.py [--reps N]
"""

import argparse

from repro.device.cpufreq import RELATION_HIGH
from repro.governors.base import Governor, register_governor
from repro.harness import record_workload, replay_run
from repro.harness.sweep import compose_oracle_from_runs, run_sweep
from repro.workloads import dataset


class NaiveBoostGovernor(Governor):
    """A deliberately crude baseline: max on input, never comes down."""

    name = "naive_boost"

    def _on_start(self) -> None:
        if self.context.input_subsystem is not None:
            for node in self.context.input_subsystem.nodes():
                node.add_observer(self._on_input)

    def _on_input(self, _event) -> None:
        self.policy.set_target(self.policy.max_khz, RELATION_HIGH)


register_governor("naive_boost", NaiveBoostGovernor)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--reps", type=int, default=2)
    parser.add_argument("--dataset", default="03")
    args = parser.parse_args()

    artifacts = record_workload(dataset(args.dataset))
    print(f"dataset {args.dataset}: {artifacts.database.lag_count} lags")

    # Full sweep gives us the fixed-frequency runs the oracle needs.
    sweep = run_sweep(artifacts, reps=args.reps)
    oracle = sweep.oracle

    print(f"\n{'governor':>14s} {'energy J':>9s} {'vs oracle':>9s} "
          f"{'irritation s':>12s}")
    print(f"{'oracle':>14s} {oracle.energy_j:9.2f} {'1.00':>9s} "
          f"{oracle.irritation().total_seconds:12.2f}")
    for name in ("conservative", "interactive", "ondemand"):
        energy = sweep.mean_energy_j(name)
        irritation = sweep.mean_irritation_s(name)
        print(f"{name:>14s} {energy:9.2f} {energy / oracle.energy_j:9.2f} "
              f"{irritation:12.2f}")
    for name in ("qoe_aware", "naive_boost"):
        result = replay_run(artifacts, name)
        energy = result.dynamic_energy_j
        print(f"{name:>14s} {energy:9.2f} {energy / oracle.energy_j:9.2f} "
              f"{result.irritation_seconds():12.2f}")


if __name__ == "__main__":
    main()
