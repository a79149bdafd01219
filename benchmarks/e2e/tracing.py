"""In-memory span tracer installed from outside the traced program.

The benchmark records spans around the public entry points of each
``repro.*`` layer without touching ``src/``: :class:`Tracer` replaces a
function in every loaded module namespace that binds it (callers that did
``from ..mpm.advection import advect_points`` hold their own reference, so
patching only the defining module would miss them) and replaces methods on
the class, then puts everything back on :meth:`Tracer.restore`.

A span is the list ``[name, t0, t1, span_id, parent_id, op_id, attr]``;
``parent_id`` is the span that was open when this one started (``-1`` at
the top), ``op_id`` the solve / step / job index the benchmark set with
:meth:`Tracer.set_op`, and ``attr`` an optional small value the wrapper
computed from the call (bytes written, flops of the apply).  The layer of a
span is the part of its name before the first dot.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from contextlib import contextmanager

NAME, T0, T1, SPAN_ID, PARENT_ID, OP_ID, ATTR = range(7)

_MISSING = object()


class Tracer:
    """Records nested spans of the installing thread; see the module doc."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.enabled = True
        self._stack: list[int] = []
        self._op_id = -1
        self._thread = threading.get_ident()
        #: (owner, attribute, original or _MISSING), in install order
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------ #
    def set_op(self, op_id: int) -> None:
        """Tag every span opened from now on with this operation index."""
        self._op_id = int(op_id)

    @contextmanager
    def paused(self):
        """Record nothing inside the block (wrappers stay installed)."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def wrap(self, fn, name: str, attr=None):
        """``fn`` with a span named ``name`` around every call.

        The return value and any exception pass through unchanged.  A call
        made while a span of the *same name* is the innermost open one is
        not recorded again (``smooth`` delegating to
        ``smooth_with_residual``, the recursive V-cycle), so call counts
        are counts of outermost entries.  ``attr(result, args)`` runs after
        a successful call and its value is stored on the span.
        """
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled or threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else -1
            if parent >= 0 and spans[parent][NAME] == name:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, len(spans), parent, self._op_id, None]
            spans.append(span)
            stack.append(span[SPAN_ID])
            span[T0] = clock()
            try:
                result = fn(*args, **kwargs)
                span[T1] = clock()
                if attr is not None:
                    span[ATTR] = attr(result, args)
                return result
            except BaseException:
                span[T1] = clock()
                raise
            finally:
                stack.pop()

        return traced

    # -- installation --------------------------------------------------- #
    def _patch(self, owner, attribute: str, value) -> None:
        original = vars(owner).get(attribute, _MISSING)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, value)

    def install_function(self, fn, name: str, attr=None,
                         prefix: str = "repro") -> int:
        """Replace ``fn`` by identity in every loaded ``prefix`` module.

        Returns the number of bindings replaced.
        """
        traced = self.wrap(fn, name, attr)
        count = 0
        for modname, module in list(sys.modules.items()):
            if module is None or not (
                    modname == prefix or modname.startswith(prefix + ".")):
                continue
            for key, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, key, traced)
                    count += 1
        return count

    def install_method(self, cls, method: str, name: str, attr=None) -> int:
        """Wrap ``cls.method`` at class level.

        A method ``cls`` only inherits is wrapped *on* ``cls`` (other
        subclasses of the defining base stay untraced).  Every loaded
        subclass that overrides the method is wrapped too, so
        ``AssembledOperator.apply`` is traced along with
        ``ViscousOperatorBase.apply``.  Returns the number of classes
        patched.
        """
        self._patch(cls, method, self.wrap(getattr(cls, method), name, attr))
        count = 1
        pending = list(cls.__subclasses__())
        while pending:
            sub = pending.pop()
            pending.extend(sub.__subclasses__())
            if method in vars(sub):
                self._patch(sub, method,
                            self.wrap(vars(sub)[method], name, attr))
                count += 1
        return count

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def disable_in_forked_children(self) -> None:
        """Rank processes forked from the traced driver inherit the
        wrappers; their spans could never be read back, so stop recording
        there."""
        def off():
            self.enabled = False
        os.register_at_fork(after_in_child=off)


# ---------------------------------------------------------------------- #
# span arithmetic
# ---------------------------------------------------------------------- #
def self_times(spans) -> list[float]:
    """Self time per span: its duration minus its direct children's.

    Children of one span run one after another on the traced thread, so
    the part of the parent's interval they cover is the sum of their
    durations.
    """
    out = [span[T1] - span[T0] for span in spans]
    for span in spans:
        parent = span[PARENT_ID]
        if parent >= 0:
            out[parent] -= span[T1] - span[T0]
    return out


def span_table(spans) -> dict[str, dict]:
    """Per span name: ``calls``, inclusive ``total_s``, ``self_s`` and the
    sum of numeric ``attr`` values (``attr_sum``)."""
    table: dict[str, dict] = {}
    for span, self_s in zip(spans, self_times(spans)):
        row = table.setdefault(span[NAME], {
            "calls": 0, "total_s": 0.0, "self_s": 0.0, "attr_sum": 0.0})
        row["calls"] += 1
        row["total_s"] += span[T1] - span[T0]
        row["self_s"] += self_s
        if isinstance(span[ATTR], (int, float)):
            row["attr_sum"] += span[ATTR]
    return table
