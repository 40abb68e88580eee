"""The traced pass: spans around calls into each layer, plus layer counters.

Everything is installed from outside the program, by replacing public
names for the duration of one round and restoring them afterwards:

* spans (name, start, end, parent, job) around ``build_benchmark`` and
  ``synthetic_trace`` as the sweep runner calls them, ``GPUSystem.__init__``,
  ``GPUSystem.run`` and the sweep's ``run_one_job``;
* ``repro.telemetry.profiler.EngineProfiler`` on every engine, through
  the public ``Engine.profiler`` hook, for per-component callback time;
* a call counter on ``WarpSorter.score`` (``mc/wg.py`` looks it up on the
  class at each pick, so a class-attribute shim sees every call).

Untraced rounds install nothing.  Spans stay in memory until the run
writes them out.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the root
    job: str


class Tracer:
    def __init__(self) -> None:
        from repro.telemetry.profiler import EngineProfiler

        self.spans: list[Span] = []
        self._open: list[int] = []
        self.profiler = EngineProfiler()
        self.score_calls = 0
        self.unretired: list[str] = []  # jobs whose warps did not all retire

    @contextmanager
    def span(self, name: str, job: str = ""):
        parent = self._open[-1] if self._open else -1
        job = job or self.current_job()
        index = len(self.spans)
        self.spans.append(Span(name, perf_counter(), 0.0, parent, job))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = perf_counter()

    def current_job(self) -> str:
        return self.spans[self._open[-1]].job if self._open else ""

    def total(self, name: str) -> tuple[int, float]:
        """(count, summed duration) of the spans called ``name``."""
        durations = [s.end - s.start for s in self.spans if s.name == name]
        return len(durations), sum(durations)

    def self_time(self, name: str) -> float:
        """Summed duration of ``name`` spans minus their direct children."""
        own = {i: s.end - s.start for i, s in enumerate(self.spans) if s.name == name}
        for s in self.spans:
            if s.parent in own:
                own[s.parent] -= s.end - s.start
        return sum(own.values())

    def components(self, prefix: str) -> tuple[int, float]:
        """(callbacks, seconds) the engine profiler charged to ``prefix*``."""
        calls = secs = 0
        for name, (n, sec) in self.profiler.by_component.items():
            if name.startswith(prefix):
                calls += n
                secs += sec
        return calls, secs

    def to_json(self) -> dict:
        return {
            "spans": [asdict(s) for s in self.spans],
            "components": [
                {"component": name, "calls": calls, "seconds": secs}
                for name, calls, secs in self.profiler.rows()
            ],
            "score_calls": self.score_calls,
        }


@contextmanager
def installed(tracer: Tracer):
    """Install the shims for the duration of the ``with`` block."""
    from repro.analysis import runner, sweep
    from repro.gpu.system import GPUSystem
    from repro.mc.warp_sorter import WarpSorter

    def timed(name, fn, job_of=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name, job_of(args) if job_of else ""):
                return fn(*args, **kwargs)

        return wrapper

    construct = timed("gpu.construct", GPUSystem.__init__)
    run = timed("gpu.run", GPUSystem.run)
    score = WarpSorter.score

    def init_shim(self, *args, **kwargs):
        construct(self, *args, **kwargs)
        self.engine.profiler = tracer.profiler

    def run_shim(self, *args, **kwargs):
        stats = run(self, *args, **kwargs)
        if self.warps_done != len(self.kernel.warps):
            tracer.unretired.append(tracer.current_job())
        return stats

    def score_shim(entry, cq):
        tracer.score_calls += 1
        return score(entry, cq)

    patches = [
        (runner, "build_benchmark", timed("workloads.build", runner.build_benchmark)),
        (runner, "synthetic_trace", timed("workloads.build", runner.synthetic_trace)),
        (
            sweep,
            "run_one_job",
            timed("analysis.job", sweep.run_one_job, lambda a: f"{a[0][3]}/{a[0][4]}"),
        ),
        (GPUSystem, "__init__", functools.wraps(GPUSystem.__init__)(init_shim)),
        (GPUSystem, "run", functools.wraps(GPUSystem.run)(run_shim)),
        (WarpSorter, "score", staticmethod(score_shim)),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, shim in patches:
            setattr(owner, attr, shim)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
