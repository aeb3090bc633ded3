"""Gauge maps linking the three family members.

G1 shifts out the mean transport: G1(u)(t, x) = u(t, x - sign * mu * t)
with mu the (conserved) mass, turning mkdv solutions into mkdv1
solutions.  G2 removes the momentum phase: G2(v)(t) = e^{-i sign P t} v(t)
with P the momentum, turning mkdv1 solutions into mkdv2 solutions.  Both
scalars are frozen from the initial slice.  GAUGES states this ladder once.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .dynamics import EquationSpec, Trajectory
from .norms import mass, momentum

#: Per gauge: the member it maps from, the member it maps onto, and the
#: invariant it freezes at t = 0.
GAUGES = {"G1": ("mkdv", "mkdv1", mass), "G2": ("mkdv1", "mkdv2", momentum)}


@dataclasses.dataclass(frozen=True)
class GaugeSpec:
    """Which gauge, the equation sign it was applied for, and the frozen scalar."""

    which: str
    sign: int
    scalar: float

    def __post_init__(self):
        if self.which not in GAUGES:
            raise ValueError(f"gauge must be G1 or G2, got {self.which!r}")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        object.__setattr__(self, "sign", int(self.sign))
        object.__setattr__(self, "scalar", float(self.scalar))


def _resolve_sign(trajectory: Trajectory, sign: int | None) -> int:
    if sign is None:
        if trajectory.equation is None:
            raise ValueError(
                "trajectory carries no equation; pass the gauge sign explicitly"
            )
        return trajectory.equation.sign
    if trajectory.equation is not None and trajectory.equation.sign != sign:
        raise ValueError(
            f"explicit sign {sign:+} contradicts the trajectory equation "
            f"sign {trajectory.equation.sign:+d}"
        )
    return sign


def _apply(trajectory: Trajectory, spec: GaugeSpec, inverse: bool) -> Trajectory:
    # Phase angles: G2 turns slice t by -sign P t, G1 its mode n by -n sign mu t.
    phases = -1j * spec.sign * spec.scalar * trajectory.times[:, None]
    if spec.which == "G1":
        phases = phases * trajectory.initial.modes
    np.exp(phases, out=phases)
    if inverse:
        np.conj(phases, out=phases)
    slices = [st.with_(coeffs=row * st.coeffs)
              for st, row in zip(trajectory.states, phases, strict=True)]

    records = list(trajectory.metadata.get("gauges", ()))
    domain, codomain, _ = GAUGES[spec.which]
    if inverse:
        del records[-1:]
        domain, codomain = codomain, domain
    else:
        records.append(dataclasses.asdict(spec))
    equation = trajectory.equation
    if equation is not None and equation.variant == domain:
        equation = EquationSpec(codomain, equation.sign)
    metadata = {**trajectory.metadata, "gauges": records}
    return Trajectory(slices, trajectory.dt, equation, metadata)


def apply_gauge(trajectory: Trajectory, which: str, sign: int | None = None) -> Trajectory:
    """Apply gauge ``which`` of GAUGES, at its invariant of the initial slice."""
    spec = GaugeSpec(which, _resolve_sign(trajectory, sign), 0.0)  # refuses unknown gauges
    spec = dataclasses.replace(spec, scalar=GAUGES[which][2](trajectory.initial))
    return _apply(trajectory, spec, inverse=False)


def invert_gauge(
    trajectory: Trajectory, spec: GaugeSpec | None = None
) -> Trajectory:
    """Undo the trajectory's last recorded gauge; exact up to rounding.

    ``spec`` is for a trajectory that records no gauge, and is undone as
    given: a G2 inverse rebuilds mkdv1 candidates from mkdv2 solutions.
    """
    records = trajectory.metadata.get("gauges") or ()
    if records and spec is not None:
        raise ValueError("trajectory records its gauge; invert it without a spec")
    if records:
        last = records[-1]
        spec = GaugeSpec(last["which"], last["sign"], last["scalar"])
    elif spec is None:
        raise ValueError("trajectory has no recorded gauge to invert")
    return _apply(trajectory, spec, inverse=True)
