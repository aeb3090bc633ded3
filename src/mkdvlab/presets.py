"""Initial-condition preset vocabulary shared by experiments and the CLI."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .norms import japanese_bracket
from .spectral import FourierState, state_from_modes, zero_state

#: Frequencies populated by the random_smooth preset.
RANDOM_SMOOTH_BAND = 8

PRESET_NAMES = ("zero", "plane_wave", "gaussian_bump", "random_smooth", "one_sided")


def parse_preset(text: str) -> tuple[str, tuple[float, ...]]:
    """Split 'name:a,b,c' into (name, numeric args)."""
    name, _, argtext = text.partition(":")
    name = name.strip()
    if name not in PRESET_NAMES:
        raise ConfigError(
            f"unknown ic preset {name!r}; choose from {', '.join(PRESET_NAMES)}"
        )
    args: tuple[float, ...] = ()
    if argtext.strip():
        try:
            args = tuple(float(piece) for piece in argtext.split(","))
        except ValueError as exc:
            raise ConfigError(f"bad ic preset arguments in {text!r}: {exc}") from None
        if not np.isfinite(args).all():
            raise ConfigError(f"non-finite ic preset argument in {text!r}")
    return name, args


def _expect_args(name: str, args, low: int, high: int) -> None:
    if not low <= len(args) <= high:
        wanted = str(low) if low == high else f"{low}..{high}"
        raise ConfigError(
            f"ic preset {name} takes {wanted} arguments, got {len(args)}"
        )


def preset_state(mode_cap: int, preset: str) -> FourierState:
    """Build the initial state described by 'name:args' at the given cap,
    refusing one with a coefficient that overflows float64."""
    name, args = parse_preset(preset)
    with np.errstate(over="ignore", invalid="ignore"):
        state = _build(mode_cap, name, args)
    if not np.isfinite(state.coeffs).all():
        raise ConfigError(f"ic preset {preset!r} overflows float64 "
                          f"at mode_cap {mode_cap}")
    return state


def _build(mode_cap: int, name: str, args) -> FourierState:
    if name == "zero":
        _expect_args(name, args, 0, 0)
        return zero_state(mode_cap)

    if name == "plane_wave":
        # plane_wave:N,a,s -> amplitude a N^{-s} on mode N.
        _expect_args(name, args, 3, 3)
        wave_mode = int(args[0])
        if wave_mode != args[0] or wave_mode < 1:
            raise ConfigError("plane_wave mode N must be a positive integer")
        if wave_mode > mode_cap:
            raise ConfigError(
                f"plane_wave mode {wave_mode} exceeds mode_cap {mode_cap}"
            )
        amplitude = args[1] * np.float64(wave_mode) ** (-args[2])
        return state_from_modes(mode_cap, {wave_mode: amplitude})

    if name == "gaussian_bump":
        # gaussian_bump:width,amp[,center] -> amp e^{-((n-center)/width)^2}.
        _expect_args(name, args, 2, 3)
        width, amp = args[0], args[1]
        center = args[2] if len(args) == 3 else 0.0
        if width <= 0:
            raise ConfigError("gaussian_bump width must be positive")
        modes = np.arange(-mode_cap, mode_cap + 1)
        coeffs = amp * np.exp(-(((modes - center) / width) ** 2))
        return FourierState(coeffs.astype(np.complex128), mode_cap)

    if name == "random_smooth":
        # random_smooth:decay,seed -> 8 active frequencies, moduli <= 0.3.
        _expect_args(name, args, 2, 2)
        decay = args[0]
        seed = int(args[1])
        if seed != args[1] or seed < 0:
            raise ConfigError("random_smooth seed must be a nonnegative integer")
        rng = np.random.default_rng(seed)
        amplitudes: dict[int, complex] = {}
        for n in range(1, min(RANDOM_SMOOTH_BAND, mode_cap) + 1):
            for mode in (n, -n):
                radius = 0.3 * rng.uniform(0.5, 1.0) * japanese_bracket(n) ** (-decay)
                phase = rng.uniform(0.0, 2.0 * np.pi)
                amplitudes[mode] = radius * np.exp(1j * phase)
        return state_from_modes(mode_cap, amplitudes)

    # one_sided:alpha -> n^{-alpha} on 1 <= n <= mode_cap.
    _expect_args(name, args, 1, 1)
    alpha = args[0]
    modes = np.arange(-mode_cap, mode_cap + 1)
    coeffs = np.zeros(modes.size, dtype=np.complex128)
    positive = modes > 0
    coeffs[positive] = modes[positive].astype(np.float64) ** (-alpha)
    return FourierState(coeffs, mode_cap)
