"""The in-process workloads: corpus sweeps through ``AnalysisSession``.

A pass goes once over the workload's request list.  For each program:

1. **cold** — a fresh ``AnalysisSession(result_cache_size=0)``, one per
   pass, calls ``analyze(core).to_json()``, so compile and sample are
   paid per pass, as in one ``repro corpus`` run.  The call is one cold
   latency sample; ``sweep_s`` is the pass's cold calls' wall clock,
   summed.
2. **persist** — the cold bytes go into the pass's sharded result store
   under their request digest.
3. **warm** — a second session over that store (``cache_dir``, no
   memory layer) requests the program again, enough times for
   ``WARM_SAMPLES`` samples a pass: each call is a store read, as in a
   ``repro corpus --cache-dir`` rerun, and one warm sample.

Warm reads follow each cold request rather than the whole sweep, so a
pass's warm samples span the pass as its cold ones do: a sub-millisecond
store read taken in one burst would see a single fast or slow spell of
a shared machine.  After each cold request, untimed, the host-speed
kernel runs once (``hostspeed.py``); the pass's kernel times scale its
figures.

The request list is the workload's programs at the corpus sampling
seed, so every seed does the same work; the seed orders each pass.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import time
from typing import Dict, List, Optional

import hostspeed
from workloads import CORPUS_SEED

#: Warm samples per pass at least: small workloads rerun the store
#: several times so their warm percentiles rest on enough samples.
WARM_SAMPLES = 200


class PassResult:
    __slots__ = ("cold_wall", "cold", "warm", "speed", "failures",
                 "mismatches", "checked", "extras")

    def __init__(self) -> None:
        self.cold_wall = 0.0
        #: Latency in seconds per cold and per warm request.
        self.cold: List[float] = []
        self.warm: List[float] = []
        #: Host-speed kernel seconds, one sample per cold request.
        self.speed: List[float] = []
        self.failures: List[str] = []
        self.mismatches = 0
        self.checked = 0
        #: ``extra`` of each cold result (tier residency, profile...).
        self.extras: List[Dict] = []


class InProcess:
    def __init__(self, workload, cores, seed: int, workdir: str,
                 recorder) -> None:
        from repro.api import AnalysisSession

        self.workload = workload
        self.cores = list(cores)
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.recorder = recorder
        self.config = workload.config()
        # The first session, created as part of set-up; later passes
        # each create their own.
        self._session: Optional[AnalysisSession] = self._new_session()
        self._passes = 0

    def _new_session(self, cache_dir: Optional[str] = None):
        from repro.api import AnalysisSession

        return AnalysisSession(config=self.config,
                               num_points=self.workload.points,
                               seed=CORPUS_SEED, result_cache_size=0,
                               cache_dir=cache_dir)

    def run_pass(self, golden, profile: bool = False) -> PassResult:
        from repro.api import request_digest
        from repro.api.store import ShardedResultStore

        recorder = self.recorder
        result = PassResult()
        order = list(self.cores)
        self.rng.shuffle(order)
        session = self._session or self._new_session()
        self._session = None
        store_dir = os.path.join(self.workdir, f"pass-{self._passes}")
        self._passes += 1
        store = ShardedResultStore(store_dir)
        rerun = self._new_session(cache_dir=store_dir)
        reads = -(-WARM_SAMPLES // len(order))
        texts: List[Optional[str]] = []
        warm_texts: List[Optional[str]] = []
        # The pass starts from a collected heap, so the garbage a previous
        # pass left behind is not billed to whichever request happens to
        # trigger the next full collection.
        gc.collect()
        for core in order:
            recorder.phase = "cold"
            with recorder.span("request.cold", core.name):
                start = time.perf_counter()
                try:
                    analysed = session.analyze(core, profile=profile)
                    text = analysed.to_json()
                except Exception as exc:  # noqa: BLE001 — counted, reported
                    result.failures.append(
                        f"{core.name}: {type(exc).__name__}: {exc}")
                    analysed, text = None, None
                result.cold.append(time.perf_counter() - start)
            recorder.phase = "calibrate"
            result.speed.append(hostspeed.measure())
            texts.append(text)
            warm_texts.append(None)
            if analysed is None:
                continue
            result.extras.append(analysed.extra)

            recorder.phase = "persist"
            store.put_text(request_digest(
                session.request(core, profile=profile)), text)

            recorder.phase = "warm"
            for _ in range(reads):
                start = time.perf_counter()
                try:
                    warm_texts[-1] = rerun.analyze(
                        core, profile=profile).to_json()
                except Exception as exc:  # noqa: BLE001 — counted, reported
                    result.failures.append(
                        f"{core.name} (warm): {type(exc).__name__}: {exc}")
                    warm_texts[-1] = None
                result.warm.append(time.perf_counter() - start)
        result.cold_wall = sum(result.cold)
        if rerun.result_misses:
            result.failures.append(
                f"{rerun.result_misses} warm request(s) missed the store")
        shutil.rmtree(store_dir, ignore_errors=True)
        recorder.phase = "check"

        points = self.workload.points
        for core, cold, warm in zip(order, texts, warm_texts):
            for text in (cold, warm):
                if text is None:
                    continue
                result.checked += 1
                if not golden.matches(points, core.name, CORPUS_SEED, text):
                    result.mismatches += 1
        return result
