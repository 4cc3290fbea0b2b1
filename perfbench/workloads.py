"""Workload definitions, seeded request generation and golden bytes.

Every workload runs the paper's 1000-bit shadows on the default
substrate.  A request is a corpus program plus a sampling seed; the
golden file holds the SHA-256 of each request's ``to_json()`` bytes as
the unfused reference engine produced them (``run.py --make-golden``),
keyed by point count, program name and sampling seed.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden.json")

#: Shadow precision of every workload (the paper's MPFR precision).
SHADOW_PRECISION = 1000

#: Sampling seed of the in-process workloads: the one ``repro corpus``
#: uses, so a pass is exactly one corpus run's request list.
CORPUS_SEED = 0

#: Sampling seeds the serve workload draws its requests from.  Cold
#: requests must be new to the server, so one run needs many distinct
#: (program, seed) pairs: 160 seeds give 217 replays of 60 cold
#: requests, enough for a 40 s run at 5.4 replays a second, 1.6 times
#: the fastest run measured on 2 cores (134 replays, 0.29-0.40 s each).
#: ``run.py`` warns when they run out first.  The golden file covers
#: all of them.
SERVE_SEEDS = tuple(range(1, 161))


@dataclass(frozen=True)
class Workload:
    name: str
    #: "loops" = the loop family only, "straightline" = everything else,
    #: "all" = the whole corpus.
    programs: str
    points: int
    policy: str
    served: bool = False

    def config(self):
        from repro.core import AnalysisConfig

        return AnalysisConfig(shadow_precision=SHADOW_PRECISION,
                              precision_policy=self.policy)

    def select(self, corpus) -> List:
        def is_loop(core) -> bool:
            return core.properties.get("herbgrind-family") == "loops"

        if self.programs == "loops":
            return [core for core in corpus if is_loop(core)]
        if self.programs == "straightline":
            return [core for core in corpus if not is_loop(core)]
        return list(corpus)


#: Why each workload was chosen is recorded in BENCHMARK.json.
#: ``loops`` and ``straightline-64`` are not among its timed workloads:
#: their run-to-run spread on a shared 2-core machine reached the
#: bounds, and ``adaptive`` runs all their programs and layers.  They
#: stay for the ablation table and for runs by hand.
WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("loops", "loops", 8, "fixed"),
        Workload("straightline-64", "straightline", 64, "fixed"),
        Workload("adaptive", "all", 8, "adaptive"),
        Workload("serve-mixed", "straightline", 8, "fixed", served=True),
    )
}


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def canonical_text(text: str) -> str:
    """The result bytes with the profile-only counters removed.

    Traced requests set ``profile=True``, which adds
    ``extra["pipeline_profile"]`` to the serialized result and nothing
    else; dropping it restores the unprofiled bytes exactly (keys are
    sorted, and floats round-trip through ``json``).
    """
    data = json.loads(text)
    extra = data.get("extra")
    if isinstance(extra, dict) and "pipeline_profile" in extra:
        del extra["pipeline_profile"]
        return json.dumps(data, indent=2, sort_keys=True)
    return text


class Golden:
    """Expected SHA-256 per (points, program, sampling seed)."""

    def __init__(self, table: Dict[str, Dict[str, Dict[str, str]]]) -> None:
        self.table = table

    @classmethod
    def load(cls, path: str = GOLDEN_PATH) -> "Golden":
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        if data.get("shadow_precision") != SHADOW_PRECISION:
            raise ValueError(f"{path}: golden bytes for another precision")
        return cls(data["results"])

    def expected(self, points: int, name: str, seed: int) -> Optional[str]:
        return self.table.get(str(points), {}).get(name, {}).get(str(seed))

    def matches(self, points: int, name: str, seed: int, text: str) -> bool:
        expected = self.expected(points, name, seed)
        return expected is not None and \
            digest_text(canonical_text(text)) == expected


def golden_requests(corpus) -> List[Tuple[int, object, int]]:
    """Every (points, core, seed) any workload can send, deduplicated."""
    wanted = []
    seen = set()
    for workload in WORKLOADS.values():
        seeds = SERVE_SEEDS if workload.served else (CORPUS_SEED,)
        for core in workload.select(corpus):
            for seed in seeds:
                key = (workload.points, core.name, seed)
                if key not in seen:
                    seen.add(key)
                    wanted.append((workload.points, core, seed))
    return wanted


def make_golden(workers: int = 2) -> Dict[str, object]:
    """Analyze every golden request with the reference engine."""
    from repro.api import AnalysisSession
    from repro.core import AnalysisConfig
    from repro.fpcore import load_corpus

    config = AnalysisConfig(shadow_precision=SHADOW_PRECISION,
                            engine="reference")
    session = AnalysisSession(config=config, result_cache_size=0)
    wanted = golden_requests(load_corpus())
    requests = [session.request(core, num_points=points, seed=seed)
                for points, core, seed in wanted]
    results = session.analyze_batch(requests, workers=workers)
    table: Dict[str, Dict[str, Dict[str, str]]] = {}
    for (points, core, seed), result in zip(wanted, results):
        table.setdefault(str(points), {}).setdefault(core.name, {})[
            str(seed)] = digest_text(result.to_json())
    return {"shadow_precision": SHADOW_PRECISION, "engine": "reference",
            "results": table}


def provenance(workload_name: str) -> dict:
    """What the figures depend on beyond the code: machine and stack."""
    import importlib.util
    import platform

    from repro.bigfloat.backend import substrate_provider
    from repro.core.config import resolve_hw_tier
    from repro.machine import lanes

    config = WORKLOADS[workload_name].config()
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "mpmath": importlib.util.find_spec("mpmath") is not None,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "substrate": config.substrate,
        "substrate_provider": substrate_provider(config.substrate),
        "precision_policy": config.precision_policy,
        "hw_tier": resolve_hw_tier(config),
        "numpy_lanes": lanes.HAVE_NUMPY,
    }
