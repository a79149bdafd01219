"""Machine models for the roofline timing estimates.

``EDISON`` mirrors the Cray XC-30 the paper benchmarks on: 24 Ivy Bridge
cores per node at 2.4 GHz x 8 flops/cycle (the paper's "8 nodes of Edison
(3686 GF/s peak)" works out to 460.8 GF/node = 19.2 GF/core), ~89 GB/s
STREAM triad per node, with the paper's observed efficiency factors: SpMV
sustains 85% of STREAM, the vectorized tensor kernels sustain >=30% of
floating-point peak.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class MachineModel:
    """Per-node machine parameters plus sustained-efficiency factors."""

    name: str
    cores_per_node: int
    peak_gflops_per_core: float
    stream_gbytes_per_node: float
    #: fraction of STREAM bandwidth sustained by CSR SpMV (paper: 0.85)
    spmv_stream_fraction: float = 0.85
    #: fraction of flop peak sustained by the vectorized MF kernels
    #: (paper: >30% on AVX/AVX+FMA)
    mf_flop_fraction: float = 0.30
    #: network parameters for the latency terms of the coarse-solve model
    network_latency_us: float = 1.5
    network_gbytes_per_link: float = 8.0

    @property
    def peak_gflops_per_node(self) -> float:
        return self.cores_per_node * self.peak_gflops_per_core

    def peak_gflops(self, nodes: int) -> float:
        return nodes * self.peak_gflops_per_node

    @property
    def stream_gbytes_per_core(self) -> float:
        """Bandwidth share per core when all cores stream (the contended
        figure that makes SpMV scale poorly within a node, SS III-D)."""
        return self.stream_gbytes_per_node / self.cores_per_node

    def as_dict(self) -> dict:
        """Plain JSON-serializable form (rides in the run manifest)."""
        return asdict(self)


EDISON = MachineModel(
    name="edison",
    cores_per_node=24,
    peak_gflops_per_core=19.2,
    stream_gbytes_per_node=89.0,
)

#: a generic 8-core laptop/workstation, for sanity-checking measured
#: NumPy rates against the model
LAPTOP = MachineModel(
    name="laptop",
    cores_per_node=8,
    peak_gflops_per_core=16.0,
    stream_gbytes_per_node=40.0,
)

#: machine models selectable by name (``machine=``)
MACHINES: dict[str, MachineModel] = {m.name: m for m in (EDISON, LAPTOP)}


def resolve_machine(spec: MachineModel | str | None = None) -> MachineModel:
    """Resolve a machine model from a model or a name.

    ``None`` means ``laptop`` -- the roofline default every report and
    export goes through, so which model a run was judged against is
    always recorded, never hardcoded.
    """
    if isinstance(spec, MachineModel):
        return spec
    key = str("laptop" if spec is None else spec).strip().lower()
    if key not in MACHINES:
        raise ValueError(
            f"unknown machine model {spec!r}; known: {sorted(MACHINES)}"
        )
    return MACHINES[key]
