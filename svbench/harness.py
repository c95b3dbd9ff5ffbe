"""Run context shared by the workloads: timed operations, CLI children,
whole rounds, traced passes, failure counting and the machine-speed gauge.

The machine this benchmark was built on changes speed by itself, by up to
a third for seconds to minutes at a time (see README). Each timed
operation is therefore bracketed by a short fixed probe that runs no
svfield code, and ``Ctx.speed`` is ``PROBE_REF_S`` over the median probe
time of the pass. ``run.py`` reports times multiplied by it, that is in
seconds at the speed the machine had when ``PROBE_REF_S`` was measured;
``python3 svbench/harness.py`` measures the probe again.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time

import numpy as np

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
CLI_TIMEOUT_S = 170
PROBE_REF_S = 0.063  # median probe seconds on the reference machine (README)
PROBE_REUSE_S = 0.5  # a probe that ended this recently also opens the next operation


class SpeedGauge:
    """Seconds of a fixed NumPy + Python workload, the machine-speed gauge."""

    def __init__(self):
        self._a = np.random.default_rng(0).standard_normal((600, 600))
        self._last_end = -math.inf
        self.samples: list = []

    def probe(self) -> float:
        start = time.perf_counter()
        for _ in range(4):
            np.linalg.cholesky(self._a @ self._a.T + 600.0 * np.eye(600))
        sum(i * i for i in range(400_000))
        self._last_end = time.perf_counter()
        self.samples.append(self._last_end - start)
        return self.samples[-1]

    def bracket(self) -> None:
        """Probe unless the latest probe ended just now."""
        if time.perf_counter() - self._last_end >= PROBE_REUSE_S:
            self.probe()


class OpFailed(RuntimeError):
    """An operation of the program raised or exited non-zero."""


class Ctx:
    """One pass of a workload: ``n_setups`` set-ups, then whole rounds.

    With ``max_rounds`` unset, another round starts while less than
    ``seconds`` have passed since the first began, so at least one round
    runs and the last one may end after ``seconds``. A traced pass records
    spans of every timed operation, in-process and in CLI children, into
    ``processes``.
    """

    def __init__(self, work, seed, seconds, n_setups, max_rounds=None, traced=False, checking=True):
        self.work, self.seed, self.seconds = work, seed, seconds
        self.n_setups, self.max_rounds = n_setups, max_rounds
        self.traced, self.checking = traced, checking
        self.attempted = 0
        self.failed = 0
        self.fails: list = []
        self.busy_s = 0.0
        self.gauge = SpeedGauge()
        self.processes: list = []
        self._children = 0
        os.makedirs(work, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def write_json(self, name: str, doc) -> str:
        path = self.path(name)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def op(self, fn, *args, **kwargs):
        """Untimed program operation, counted in attempted/failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed += 1
            raise OpFailed(f"{getattr(fn, '__name__', fn)}: {exc!r}") from exc

    def timed(self, fn, *args, **kwargs):
        """(seconds, result) of one program operation, traced in a traced pass.

        Tracing patches module attributes, so ``fn`` should look up the
        program's functions when called (a lambda), not be one of them.
        """
        tracer = spans.Tracer() if self.traced else None
        self.gauge.bracket()
        if tracer:
            tracer.install()
        try:
            start = time.perf_counter()
            result = self.op(fn, *args, **kwargs)
            elapsed = time.perf_counter() - start
        finally:
            if tracer:
                tracer.uninstall()
                self.processes.append(tracer.record(label=getattr(fn, "__name__", "op")))
        self._done(elapsed)
        return elapsed, result

    def _done(self, elapsed: float) -> None:
        self.busy_s += elapsed
        self.gauge.probe()

    @property
    def speed(self) -> float:
        """Reference probe time over this pass's median probe time."""
        return PROBE_REF_S / median(self.gauge.samples)

    def cli(self, *argv) -> float:
        """Wall seconds of one ``svfield`` CLI process, interpreter start included."""
        if self.traced:
            self._children += 1
            out = self.path(f"spans-{self._children}.json")
            cmd = [sys.executable, os.path.join(HERE, "clitrace.py"), out, "--", *argv]
        else:
            cmd = [sys.executable, "-m", "svfield.cli", *argv]
        self.gauge.bracket()
        env = dict(os.environ, SVBENCH_SPAWN_T=repr(time.time()))
        self.attempted += 1
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            self.failed += 1
            raise OpFailed(f"svfield {argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
        if self.traced:
            with open(out) as fh:
                self.processes.append(json.load(fh))
        self._done(elapsed)
        return elapsed

    def cli_in_process(self, *argv) -> float:
        """Seconds of ``svfield.cli.main`` run inside this process."""
        from svfield import cli

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(list(argv))
            if code != 0:
                raise RuntimeError(f"svfield {argv[0]} returned {code}")

        return self.timed(run)[0]

    def setups(self, fn) -> list:
        return [fn() for _ in range(self.n_setups)]

    def rounds(self, body) -> list:
        out = []
        begin = time.perf_counter()
        while True:
            out.append(body())
            if self.max_rounds is not None:
                if len(out) >= self.max_rounds:
                    return out
            elif time.perf_counter() - begin >= self.seconds:
                return out

    def check(self, fails: list) -> None:
        self.fails.extend(fails)


def median(values) -> float:
    return float(statistics.median(values))


if __name__ == "__main__":
    gauge = SpeedGauge()
    print(f"median probe seconds: {median(gauge.probe() for _ in range(200)):.4f}")
