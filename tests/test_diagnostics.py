"""Diagnostics: monitors, streamlines, VTK writer."""

import os

import numpy as np
import pytest

from repro.diagnostics import (
    FieldSplitMonitor,
    trace_streamlines,
    write_vts,
)
from repro.fem import StructuredMesh


class TestFieldSplitMonitor:
    def test_records_component_norms(self):
        mesh = StructuredMesh((2, 2, 2), order=2)
        mon = FieldSplitMonitor(mesh)
        r = np.zeros(3 * mesh.nnodes + 4 * mesh.nel)
        r[2] = 3.0
        r[3 * mesh.nnodes] = 4.0
        mon(0, r, 5.0)
        assert mon.vertical_momentum[0] == pytest.approx(3.0)
        assert mon.pressure[0] == pytest.approx(4.0)
        assert mon.total[0] == 5.0

    def test_handles_recurrence_only_methods(self):
        mesh = StructuredMesh((2, 2, 2), order=2)
        mon = FieldSplitMonitor(mesh)
        mon(0, None, 1.0)
        assert np.isnan(mon.pressure[0])

    def test_as_dict(self):
        mesh = StructuredMesh((2, 2, 2), order=2)
        mon = FieldSplitMonitor(mesh)
        mon(0, None, 1.0)
        d = mon.as_dict()
        assert set(d) == {"iterations", "total", "momentum",
                          "vertical_momentum", "pressure"}


class TestStreamlines:
    def test_solid_body_rotation_closes(self):
        """Streamlines of solid-body rotation are circles: start and radius
        are preserved to integration accuracy."""
        mesh = StructuredMesh((8, 8, 2), order=2)
        c = mesh.coords
        u = np.zeros(3 * mesh.nnodes)
        u[0::3] = -(c[:, 1] - 0.5)
        u[1::3] = c[:, 0] - 0.5
        seed = np.array([[0.75, 0.5, 0.5]])
        lines = trace_streamlines(mesh, u, seed, step=0.02, max_steps=400)
        line = lines[0]
        r = np.hypot(line[:, 0] - 0.5, line[:, 1] - 0.5)
        assert np.abs(r - 0.25).max() < 5e-3
        assert line.shape[0] > 100

    def test_terminates_on_outflow(self):
        mesh = StructuredMesh((4, 4, 4), order=2)
        u = np.zeros(3 * mesh.nnodes)
        u[0::3] = 1.0
        lines = trace_streamlines(mesh, u, np.array([[0.5, 0.5, 0.5]]),
                                  step=0.05, max_steps=1000)
        line = lines[0]
        assert line.shape[0] < 30  # exits quickly
        assert line[-1, 0] <= 1.0 + 0.05

    def test_stagnant_seed_short_line(self):
        mesh = StructuredMesh((4, 4, 4), order=2)
        u = np.zeros(3 * mesh.nnodes)
        lines = trace_streamlines(mesh, u, np.array([[0.5, 0.5, 0.5]]))
        assert lines[0].shape[0] == 1


class TestVTK:
    def test_writes_valid_structure(self, tmp_path):
        mesh = StructuredMesh((2, 2, 2), order=2)
        path = tmp_path / "out.vts"
        write_vts(str(path), mesh, {
            "temperature": np.arange(float(mesh.nnodes)),
            "velocity": np.zeros(3 * mesh.nnodes),
        })
        text = path.read_text()
        assert text.startswith("<?xml")
        assert 'Name="temperature"' in text
        assert 'NumberOfComponents="3"' in text
        assert "</VTKFile>" in text
        nnx, nny, nnz = mesh.nodes_per_dim
        assert f"0 {nnx - 1} 0 {nny - 1} 0 {nnz - 1}" in text

    def test_rejects_bad_field_size(self, tmp_path):
        mesh = StructuredMesh((2, 2, 2), order=2)
        with pytest.raises(ValueError):
            write_vts(str(tmp_path / "bad.vts"), mesh, {"f": np.zeros(7)})
