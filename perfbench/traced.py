"""The traced run: ``biquandles.cli.main`` itself, with a span around every
call into a layer.

cli.main reaches each layer through a name looked up at call time: the names
cli imports, the module globals that ``alexander.gap`` and
``quaternion.module_is_trivial`` call, and the ``BQPresentation.render``
method. For one traced item, ``Recorder.tracing`` replaces each name in
TRACED with a wrapper that times the call, and restores the original
afterwards. The traced item therefore runs the CLI's own code, and its
stdout matches the untraced run's by construction (the worker still compares
the two on every item).

Spans nest (``module_is_trivial`` calls ``q_relations_from_presentation``),
so each function's ``busy_s`` is its self time: its span minus the spans of
the traced calls inside it. ``cli.main``'s self time is its span minus its
child spans: argument parsing, file reading, printing and whatever glue the
commands add between layer calls.
"""

from __future__ import annotations

import contextlib
import io
import time
from collections import Counter, defaultdict

from biquandles import alexander, cli, quaternion, terms


def _braid(rec, args, word) -> None:
    rec.count("braids.letters", len(word.letters))
    rec.count("braids.strands", word.strands)
    rec.tag(n=word.strands, L=len(word.letters))


def _matrix(rec, args, matrix) -> None:
    rec.count("alexander.matrix_cells", matrix.rows * matrix.cols)
    rec.tag(matrix=matrix.rows)


def _determinant(rec, args, det) -> None:
    rec.count("laurent.det_dim", args[0].rows)
    rec.count("laurent.det_terms", len(det.terms))
    rec.count("laurent.det_coeff_bits", max((abs(c).bit_length() for c in det.terms.values()), default=0))


def _render(rec, args, text) -> None:
    rec.count("terms.rendered_bytes", len(text.encode()))
    rec.tag(rendered_bytes=len(text.encode()))


def _q_relations(rec, args, rset) -> None:
    rec.count("quaternion.rank_rows", 4 * len(rset.rows))


def _check_axioms(rec, args, report) -> None:
    size = args[0].size
    rec.count("finite.cells", size ** 3)
    rec.count("finite.axioms_failed", sum(not check.passed for check in report.checks))
    rec.tag(carrier=size)


# (owner, attribute, span name, hook): the names cli.main reaches each layer
# through. The hook records work counts and size tags from the call's
# arguments and result.
TRACED = (
    (cli, "parse_braid_word", "braids.parse_braid_word", _braid),
    (cli, "presentation_from_braid", "terms.presentation_from_braid", None),
    (terms.BQPresentation, "render", "terms.BQPresentation.render", _render),
    (cli, "parse_presentation", "terms.parse_presentation", None),
    (alexander, "relation_matrix_from_braid", "alexander.relation_matrix_from_braid", _matrix),
    (alexander, "relation_matrix_from_presentation", "alexander.relation_matrix_from_presentation", _matrix),
    (alexander, "determinant", "laurent.determinant", _determinant),
    (alexander, "normalize_gap", "alexander.normalize_gap", None),
    (cli, "format_poly", "laurent.format_poly", None),
    (cli, "module_is_trivial", "quaternion.module_is_trivial", None),
    (quaternion, "q_relations_from_presentation", "quaternion.q_relations_from_presentation", _q_relations),
    (cli, "parse_table_file", "finite.parse_table_file", None),
    (cli, "finite_quaternionic_biquandle", "finite.finite_quaternionic_biquandle", None),
    (cli, "check_axioms", "finite.check_axioms", _check_axioms),
)


class Recorder:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self):
        self.busy = defaultdict(float)
        self.calls = Counter()
        self.errors = Counter()
        self.counts = Counter()
        self.cli_self = 0.0
        self.items = []  # per traced item: tags and spans
        self._spans = None
        self._tags = None
        self._origin = 0.0
        self._children = [0.0]  # time spent in child spans, per open span
        self._originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in TRACED]
        self._wrappers = [self._wrap(name, fn, hook)
                          for (_, _, name, hook), (_, _, fn) in zip(TRACED, self._originals)]

    def begin_item(self, item_id: int) -> None:
        self._spans, self._tags = [], {"item": item_id}
        self._origin = time.perf_counter()

    def end_item(self, total: float) -> None:
        self.items.append(dict(self._tags, total_s=total, spans=self._spans))
        self._spans = self._tags = None

    def tag(self, **tags) -> None:
        self._tags.update(tags)

    def count(self, name: str, value: int) -> None:
        self.counts[name] += value

    def _span(self, name: str, start: float, end: float) -> float:
        """Close a span; returns its self time."""
        children = self._children.pop()
        self._children[-1] += end - start
        self._spans.append((name, start - self._origin, end - self._origin))
        return end - start - children

    def _wrap(self, name: str, fn, hook):
        layer = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[layer] += 1
                raise
            finally:
                self.busy[name] += self._span(name, start, time.perf_counter())
                self.calls[name] += 1
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    @contextlib.contextmanager
    def tracing(self):
        """Route cli.main's layer calls through the wrappers, then restore them."""
        try:
            for (owner, attr, _), wrapper in zip(self._originals, self._wrappers):
                setattr(owner, attr, wrapper)
            yield
        finally:
            for owner, attr, fn in self._originals:
                setattr(owner, attr, fn)

    def main(self, argv: list[str]) -> tuple[int, str]:
        """Run one command line through cli.main, traced; return (exit code, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        with self.tracing(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            finally:
                self.cli_self += self._span("cli.main", start, time.perf_counter())
                self.calls["cli.main"] += 1
        if code != 0:
            self.errors["cli"] += 1
        return code, out.getvalue()
