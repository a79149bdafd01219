"""ASCII ``-log_view`` style report for the ``repro.obs`` registry.

The table mirrors what PETSc prints at the end of a run and what the
paper's Table I/II measurements were read off of: events grouped by
stage, sorted by inclusive time, with count, time, self time, percent of
the profiled total, flops, achieved GF/s and GB/s, and -- when the event
carried both flops and bytes -- the fraction of the machine-model
roofline actually achieved (see :mod:`repro.perf.machine`).
"""

from __future__ import annotations

import io
import sys

from ..perf.machine import MachineModel, resolve_machine
from . import metrics as _metrics
from . import timeline as _timeline
from .registry import REGISTRY


def _fmt_si(n: float) -> str:
    """Compact flop/byte counts: 1.53e9 -> '1.53G'."""
    for cut, suffix in ((1e12, "T"), (1e9, "G"), (1e6, "M"), (1e3, "K")):
        if abs(n) >= cut:
            return f"{n / cut:.2f}{suffix}"
    return f"{n:.0f}"


def roofline_fraction(
    flops: int, nbytes: int, seconds: float, machine: MachineModel
) -> float | None:
    """Achieved fraction of the roofline-limited rate for one event.

    The ceiling at the event's arithmetic intensity ``I = flops/bytes`` is
    ``min(peak_flops, I * bandwidth)`` per node; the achieved fraction is
    ``(flops/seconds) / ceiling``.  Returns ``None`` when flops or bytes
    were not logged (no intensity to place the event at).
    """
    if flops <= 0 or nbytes <= 0 or seconds <= 0:
        return None
    intensity = flops / nbytes
    peak = machine.peak_gflops_per_node * 1e9
    bw = machine.stream_gbytes_per_node * 1e9
    ceiling = min(peak, intensity * bw)
    return (flops / seconds) / ceiling


def log_view(
    stream=None,
    machine: MachineModel | str | None = None,
    min_seconds: float = 0.0,
) -> str:
    """Print (and return) the stage/event summary table.

    Parameters
    ----------
    stream:
        Where to print; ``None`` prints to stdout, ``False`` only returns
        the string.
    machine:
        Machine model for the roofline column: a :class:`MachineModel`, a
        registered name (``"laptop"``, ``"edison"``), or ``None`` for
        ``laptop``.  The model actually used is recorded in the run
        manifest of every subsequent JSON export.
    min_seconds:
        Hide events below this inclusive time (declutter long runs).
    """
    machine = resolve_machine(machine)
    _metrics.set_manifest(machine_model=machine.name)
    out = io.StringIO()
    events = [e for e in REGISTRY.events.values() if e.seconds >= min_seconds]
    total = sum(e.self_seconds for e in events)
    w = 78
    out.write("-" * w + "\n")
    out.write(f"repro.obs -log_view   (machine model: {machine.name})\n")
    out.write(
        f"{len(events)} events in {len(REGISTRY.stages) or 1} stage(s), "
        f"{total:.4f} s profiled (self time)\n"
    )

    header = (
        f"{'Event':<26}{'Count':>7}{'Time(s)':>10}{'Self(s)':>10}"
        f"{'%T':>5}{'Flops':>9}{'GF/s':>7}{'GB/s':>7}{'%roof':>7}\n"
    )

    by_stage: dict[str, list] = {}
    for ev in events:
        by_stage.setdefault(ev.stage, []).append(ev)

    # stages in first-seen order, "" (no stage) first; events by time
    for stage_name in sorted(by_stage, key=lambda s: (s != "", s)):
        rows = sorted(by_stage[stage_name], key=lambda e: -e.seconds)
        srec = REGISTRY.stages.get(stage_name)
        out.write("-" * w + "\n")
        label = stage_name or "(no stage)"
        if srec is not None:
            extra = f"  {srec.count} calls, {srec.seconds:.4f} s"
            if srec.mem_peak_bytes:
                extra += f", peak mem {srec.mem_peak_bytes / 1e6:.1f} MB"
        else:
            extra = ""
        out.write(f"Stage: {label}{extra}\n")
        out.write(header)
        for ev in rows:
            pct = 100.0 * ev.self_seconds / total if total > 0 else 0.0
            frac = roofline_fraction(ev.flops, ev.bytes, ev.seconds, machine)
            out.write(
                f"{ev.name:<26}{ev.count:>7}{ev.seconds:>10.4f}"
                f"{ev.self_seconds:>10.4f}{pct:>4.0f}%"
                f"{_fmt_si(ev.flops):>9}"
                f"{ev.gflops_per_s:>7.2f}{ev.gbytes_per_s:>7.2f}"
                f"{'' if frac is None else f'{100 * frac:.1f}':>7}\n"
            )
    # stages that never saw an event still deserve a line (pure phases)
    silent = [s for s in REGISTRY.stages.values() if s.name not in by_stage]
    if silent:
        out.write("-" * w + "\n")
        for srec in sorted(silent, key=lambda s: -s.seconds):
            mem = (
                f", peak mem {srec.mem_peak_bytes / 1e6:.1f} MB"
                if srec.mem_peak_bytes else ""
            )
            out.write(
                f"Stage: {srec.name}  {srec.count} calls, "
                f"{srec.seconds:.4f} s{mem}\n"
            )
    out.write("-" * w + "\n")
    # timeline tail: the analysis of the armed timeline's spans
    tail = _timeline.summary()
    if tail is not None:
        out.write(tail + "\n" + "-" * w + "\n")
    text = out.getvalue()
    if stream is None:
        sys.stdout.write(text)
    elif stream is not False:
        stream.write(text)
    return text
