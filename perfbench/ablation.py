"""Leave-one-out layer ablation: what each layer buys on each workload.

For ``loops``, ``straightline-64`` and ``adaptive``, a leg times
``analyze_program`` over the workload's programs (compiled and sampled
once, outside the timing) with the full compiled stack minus one layer.
The table reports ``ablation.<layer>`` as the median over rounds of
(pass time without the layer) / (pass time with every layer on), where
each round times both back to back, so that the machine's slow spells
hit both sides of a ratio alike.  Above 1 means the layer pays for
itself on that workload; about 1 means it is within noise there.

Layers: every :class:`~repro.core.analysis.EngineFeatures` flag through
the public ``analyze_program(features=…)`` and the adaptive policy's
hardware tier (``AnalysisConfig.hw_tier=False``, ``adaptive`` only), all
switched per pass inside one process; and the NumPy lanes, which
``REPRO_NUMPY=0`` disables when the lanes module loads, so their rounds
pair two fresh processes.

This is a separate mode (``run.py --ablation``), not part of the timed
runs.
"""

from __future__ import annotations

import dataclasses
import json
import os
import statistics
import subprocess
import sys
import time

from workloads import CORPUS_SEED, WORKLOADS, provenance

FLAGS = ("threaded_interpreter", "trace_pool", "fast_antiunify",
         "kernel_cache", "fused_pipeline", "batched")
ABLATED_WORKLOADS = ("loops", "straightline-64", "adaptive")
#: Paired rounds behind each ratio.
ROUNDS = 5


def in_process_variants(workload_name: str):
    names = ["all_on", *FLAGS]
    if WORKLOADS[workload_name].policy == "adaptive":
        names.append("hw_tier")
    return names


def run_leg(workload_name: str, variants: str, rounds: int) -> int:
    """Child mode: ``rounds`` rounds of one pass per variant (variants
    comma-separated); prints ``{variant: [seconds per round]}`` last."""
    from repro.api.sampling import sample_inputs
    from repro.core.analysis import EngineFeatures, analyze_program
    from repro.fpcore import load_corpus
    from repro.machine.compiler import compile_fpcore

    workload = WORKLOADS[workload_name]
    programs = [
        (compile_fpcore(core),
         sample_inputs(core, workload.points, seed=CORPUS_SEED))
        for core in workload.select(load_corpus())
    ]
    base = workload.config()
    stacks = {}
    for variant in variants.split(","):
        config = base.with_(hw_tier=False) if variant == "hw_tier" else base
        features = EngineFeatures.for_engine(config.engine)
        if variant in FLAGS:
            features = dataclasses.replace(features, **{variant: False})
        stacks[variant] = (config, features)

    def one_pass(config, features) -> float:
        start = time.perf_counter()
        for program, points in programs:
            analyze_program(program, points, config=config,
                            features=features)
        return time.perf_counter() - start

    for stack in stacks.values():
        one_pass(*stack)
    times = {variant: [] for variant in stacks}
    for _ in range(rounds):
        for variant, stack in stacks.items():
            times[variant].append(one_pass(*stack))
    print(json.dumps(times))
    return 0


def _leg(workload_name: str, variants, rounds: int, numpy: bool = True):
    env = dict(os.environ)
    if not numpy:
        env["REPRO_NUMPY"] = "0"
    here = os.path.dirname(os.path.abspath(__file__))
    done = subprocess.run(
        [sys.executable, os.path.join(here, "run.py"), "--ablation-leg",
         workload_name, ",".join(variants), str(rounds)],
        cwd=os.path.dirname(here), env=env, capture_output=True, text=True,
        timeout=900,
    )
    if done.returncode != 0:
        raise RuntimeError(f"ablation leg {workload_name} failed:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_table(workdir: str) -> int:
    """Every ablated workload's ratios; prints and writes the table."""
    table = {}
    for workload_name in ABLATED_WORKLOADS:
        rounds = _leg(workload_name, in_process_variants(workload_name),
                      ROUNDS)
        base = rounds["all_on"]
        ratios = {
            f"ablation.{variant}": statistics.median(
                off / on for off, on in zip(times, base))
            for variant, times in rounds.items() if variant != "all_on"
        }
        lanes_on, lanes_off = [], []
        for _ in range(ROUNDS):
            lanes_on.extend(_leg(workload_name, ["all_on"], 1)["all_on"])
            lanes_off.extend(_leg(workload_name, ["all_on"], 1,
                                  numpy=False)["all_on"])
        ratios["ablation.numpy_lanes"] = statistics.median(
            off / on for off, on in zip(lanes_off, lanes_on))
        table[workload_name] = {"all_on_s": statistics.median(base),
                                "rounds": rounds, "ratios": ratios}
        print(f"{workload_name}: all layers on "
              f"{statistics.median(base):.4f} s")
        for name, ratio in ratios.items():
            print(f"  {name} {ratio:.4f} ratio")
    path = os.path.join(workdir, "ablation.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"rounds": ROUNDS, "provenance": provenance("adaptive"),
                   "workloads": table}, handle, indent=2, sort_keys=True)
    print(f"ablation table written to {os.path.relpath(path)}")
    return 0
