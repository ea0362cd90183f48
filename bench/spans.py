"""In-memory span recorder for the traced benchmark run.

Spans are recorded only from the benchmark's own code: around calls into
the library's public functions and around the callables the benchmark hands
to the library (the operator, metric and order given to ``engine.solve``,
the operator and contraction triple given to the oracle).  Nothing is
patched inside ``mixedfp``.  A span's layer is its name up to the first dot,
which is the ``mixedfp`` module it times.
"""

from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """Records nested spans as ``[name, parent_index, start, end]``.

    The benchmark is single threaded, so the open spans form one stack and
    every span lies inside its parent's interval.
    """

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, parent, perf_counter(), 0.0])

    def _close(self):
        self.spans[self._stack.pop()][3] = perf_counter()

    def wrap(self, name, fn):
        """``fn`` with a span around every call."""

        def traced(*args, **kwargs):
            self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()

        return traced

    def counted(self, name, fn):
        """``fn`` with a call counter; for callables too cheap to span."""

        def counting(*args):
            self.counts[name] += 1
            return fn(*args)

        return counting

    def mark(self):
        """Index of the next span, to select the spans of one round."""
        return len(self.spans)

    def durations(self, name):
        return [s[3] - s[2] for s in self.spans if s[0] == name]

    def self_times(self, since=0, until=None):
        """Per span name: total duration minus the time its children cover."""
        spans = self.spans[since:until]
        child = [0.0] * len(spans)
        for s in spans:
            parent = s[1] - since
            if parent >= 0:
                child[parent] += s[3] - s[2]
        out = defaultdict(float)
        for s, c in zip(spans, child):
            out[s[0]] += s[3] - s[2] - c
        return dict(out)

    def root_time(self, since=0, until=None):
        """Time covered by top-level spans of the selection."""
        return sum(s[3] - s[2] for s in self.spans[since:until] if s[1] < since)


def by_layer(self_times):
    out = defaultdict(float)
    for name, t in self_times.items():
        out[name.split(".", 1)[0]] += t
    return dict(out)
