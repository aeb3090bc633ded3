"""Invariants checked over generated inputs."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import is_conjugate_symmetric
from mkdvlab.dynamics import (
    EquationSpec,
    j1_multiplier_sum,
    nonlinearity,
    phase_schedule,
    phi_resonance,
    solve,
    solve_many,
)
from mkdvlab.errors import SolverAbort
from mkdvlab.io import _state_from_csv_lines, state_from_csv_text, state_to_csv_text
from mkdvlab.norms import NormSpec, fl_norm, mass, momentum
from mkdvlab.spectral import (
    FourierState,
    conjugate_state,
    project_high,
    project_low,
)

frequencies = st.integers(min_value=-2000, max_value=2000)


@given(frequencies, frequencies, frequencies)
def test_phi_equals_cube_difference(n1, n2, n3):
    total = n1 + n2 + n3
    assert phi_resonance(n1, n2, n3) == total**3 - (n1**3 + n2**3 + n3**3)


@given(frequencies, frequencies, frequencies)
def test_phi_zero_iff_pairwise_cancellation(n1, n2, n3):
    vanishes = phi_resonance(n1, n2, n3) == 0
    assert vanishes == ((n1 + n2 == 0) or (n1 + n3 == 0) or (n2 + n3 == 0))


def states(max_cap=10, max_mag=2.0):
    def build(draw):
        cap = draw(st.integers(min_value=0, max_value=max_cap))
        size = 2 * cap + 1
        parts = draw(
            st.lists(
                st.floats(-max_mag, max_mag, allow_nan=False, width=32),
                min_size=2 * size,
                max_size=2 * size,
            )
        )
        arr = np.array(parts[:size]) + 1j * np.array(parts[size:])
        return FourierState(arr, cap)

    return st.composite(lambda draw: build(draw))()


@given(states(), st.integers(min_value=0, max_value=12))
def test_projections_partition_exactly(state, cutoff):
    low = project_low(state, cutoff)
    high = project_high(state, cutoff)
    assert np.array_equal(low.coeffs + high.coeffs, state.coeffs)
    assert np.all(low.coeffs * high.coeffs == 0)


@given(states(), st.floats(-np.pi, np.pi, allow_nan=False))
def test_norms_ignore_modewise_phases(state, theta):
    # fl norms and mass see only moduli, so unimodular factors are invisible
    phases = np.exp(1j * theta * np.arange(state.coeffs.size))
    rotated = state.with_(coeffs=state.coeffs * phases)
    for spec in (NormSpec(0.0, 2.0), NormSpec(0.5, 3.0), NormSpec(-1.0, np.inf)):
        assert np.isclose(
            fl_norm(rotated, spec), fl_norm(state, spec), rtol=1e-12, atol=1e-12
        )
    assert np.isclose(mass(rotated), mass(state), rtol=1e-12, atol=1e-12)
    assert np.isclose(momentum(rotated), momentum(state), rtol=1e-10, atol=1e-12)


@given(states(max_cap=6))
def test_conjugation_is_an_involution(state):
    twice = conjugate_state(conjugate_state(state))
    assert np.array_equal(twice.coeffs, state.coeffs)


@given(states(max_cap=6))
@settings(max_examples=40)
def test_conjugate_symmetry_survives_the_flow(state):
    # real-valued data stays real-valued: one step of each variant
    symmetric = state.with_(
        coeffs=0.5 * (state.coeffs + np.conj(state.coeffs[::-1]))
    )
    if not is_conjugate_symmetric(symmetric.coeffs):
        return
    for variant in ("mkdv", "mkdv1", "mkdv2"):
        moved = solve(symmetric, EquationSpec(variant, 1), 1e-4, 1e-4).final
        assert is_conjugate_symmetric(moved.coeffs, tol=1e-10)


@given(
    states(max_cap=6),
    st.floats(min_value=0.25, max_value=2.0, allow_nan=False),
    st.floats(-np.pi, np.pi, allow_nan=False),
)
@settings(max_examples=40)
def test_cubic_homogeneity(state, magnitude, angle):
    # |lam u|^2 d_x(lam u) = |lam|^2 lam |u|^2 u_x
    lam = magnitude * np.exp(1j * angle)
    eq = EquationSpec("mkdv", 1)
    scaled = nonlinearity(state.with_(coeffs=lam * state.coeffs), eq)
    expected = abs(lam) ** 2 * lam * nonlinearity(state, eq).coeffs
    assert np.allclose(scaled.coeffs, expected, rtol=1e-10, atol=1e-12)


EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
               math.inf, -math.inf, math.nan)
edge_floats = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(width=64))


@st.composite
def edge_states(draw, max_cap=40):
    """States whose parts mix edge values in, with their exact bits kept."""
    cap = draw(st.integers(min_value=0, max_value=max_cap))
    size = 2 * cap + 1
    parts = draw(st.lists(edge_floats, min_size=2 * size, max_size=2 * size))
    return FourierState(np.array(parts).view(np.complex128), cap)


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.complex128).tobytes()


@given(edge_states())
def test_state_csv_round_trip(state):
    text = state_to_csv_text(state)
    cells = [line.split(",") for line in text.splitlines()[1:]]
    # every written number reads back to its own bits, sign included
    for (_, real, imag), value in zip(cells, state.coeffs):
        for cell, part in ((real, value.real), (imag, value.imag)):
            if math.isnan(part):
                assert math.isnan(float(cell))
            else:
                assert np.float64(float(cell)).tobytes() == np.float64(part).tobytes()
    # and the state read back is the state written, bit for bit, sign bits
    # included; every NaN is written as "nan", which reads as float("nan")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = state_from_csv_text(text, 0.5)
    parts = state.coeffs.view(np.float64)
    expected = np.where(np.isnan(parts), math.nan, parts).view(np.complex128)
    assert back.mode_cap == state.mode_cap and back.time == 0.5
    assert bits(back.coeffs) == bits(expected)


JUNK_CELLS = ("", "abc", "1e", "--1", "0x1p3", "1_0", " 2", "+3", "-0", "nan", "-nan",
              "inf", "1\x0c2", "7\r", "\u0662", "1;2", "4 5")
# every character at which str.splitlines breaks a line
LINE_BREAKS = ("\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
               "\u2029")


def mutate(text: str, draw) -> str:
    """One of the layouts the line reader accepts or names, applied to ``text``."""
    header, *rows = text.splitlines() or [""]
    kind = draw(st.sampled_from(("crlf", "blank", "plus", "space", "swap", "repeat",
                                 "junk", "break", "drop", "no_newline", "header")))
    if kind == "crlf":
        return text.replace("\n", "\r\n")
    if kind == "no_newline":
        return text[:-1]
    if kind == "header" or not rows:
        header = draw(st.sampled_from(("N, Re, Im", "n,re", "x,y,z", " n,re,im")))
        return "\n".join([header, *rows]) + "\n"
    k = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, len(rows) - 1))
    if kind == "blank":
        rows.insert(k, draw(st.sampled_from(("", "  ", "\t"))))
    elif kind in ("plus", "space"):
        rows[k] = ("+" if kind == "plus" else " ") + rows[k]
    elif kind == "swap":
        rows[k], rows[j] = rows[j], rows[k]
    elif kind == "repeat":
        rows.insert(j, rows[k])
    elif kind in ("junk", "break"):
        cells = rows[k].split(",")
        i = draw(st.integers(0, len(cells) - 1))
        if kind == "junk":
            cells[i] = draw(st.sampled_from(JUNK_CELLS))
        else:
            cells[i] = draw(st.sampled_from((cells[i] + "{}", "{}" + cells[i]))).format(
                draw(st.sampled_from(LINE_BREAKS)))
        rows[k] = ",".join(cells)
    else:
        del rows[k]
    return "\n".join([header, *rows]) + "\n"


def read_outcome(reader, text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            state = reader(text, 0.25, "s.csv")
        except ValueError as exc:
            return type(exc), str(exc)
    return state.mode_cap, state.time, bits(state.coeffs)


@given(states(max_cap=6), st.data())
@settings(max_examples=200)
def test_state_csv_reader_matches_line_reader_on_mutated_text(state, data):
    text = state_to_csv_text(state)
    for _ in range(data.draw(st.integers(1, 3))):
        text = mutate(text, data.draw)
    assert read_outcome(state_from_csv_text, text) == read_outcome(_state_from_csv_lines, text)


def test_state_csv_reader_matches_line_reader_at_every_line_break():
    text = state_to_csv_text(FourierState(np.arange(5) + 0.5j, 2))
    start = text.index("\n-1,") + 1
    end = text.index("\n", start)
    for ch in LINE_BREAKS:
        # inserted before, or put in place of, each character of row -1 and
        # of its line break
        for at in range(start, end + 1):
            for edited in (text[:at] + ch + text[at:], text[:at] + ch + text[at + 1:]):
                assert (read_outcome(state_from_csv_text, edited)
                        == read_outcome(_state_from_csv_lines, edited)), repr(edited)


@given(
    st.floats(min_value=1e-3, max_value=10.0, allow_nan=False),
    st.floats(min_value=1e-5, max_value=1.0, allow_nan=False),
    st.integers(min_value=1, max_value=200),
)
def test_phase_schedule_invariants(total, dt_cap, save_points):
    dt, save_every = phase_schedule(total, dt_cap, save_points)
    assert dt <= dt_cap * (1 + 1e-9)
    assert save_every >= 1
    assert np.isclose(dt * save_every * save_points, total, rtol=1e-9)


@given(
    st.integers(min_value=-300, max_value=300),
    st.floats(min_value=-0.5, max_value=1.5, allow_nan=False),
    st.one_of(
        st.sampled_from([1.0, 2.0, 8.0, math.inf]),
        st.floats(min_value=1.05, max_value=20.0, allow_nan=False),
    ),
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=1, max_value=200),
)
@settings(max_examples=60, deadline=None)
def test_j1_even_in_n_and_nondecreasing_in_radius(n, s, p, r1, r2):
    # the triple set at -n is the mirror image of the one at n, and a
    # larger radius only adds nonnegative terms
    small, large = sorted((r1, r2))
    value = j1_multiplier_sum(n, s, p, small)
    assert j1_multiplier_sum(-n, s, p, small) == pytest.approx(value, rel=1e-12)
    assert j1_multiplier_sum(n, s, p, large) >= value * (1.0 - 1e-12)


@st.composite
def batches(draw):
    """1..4 members on one mode cap, each with its own variant and sign."""
    cap = draw(st.integers(min_value=0, max_value=6))
    rows = draw(st.integers(min_value=1, max_value=4))
    members = []
    for _ in range(rows):
        parts = draw(st.lists(
            st.floats(-2.0, 2.0, allow_nan=False, width=32),
            min_size=2 * (2 * cap + 1), max_size=2 * (2 * cap + 1),
        ))
        coeffs = np.array(parts[: 2 * cap + 1]) + 1j * np.array(parts[2 * cap + 1 :])
        equation = EquationSpec(
            draw(st.sampled_from(["mkdv", "mkdv1", "mkdv2"])), draw(st.sampled_from([1, -1]))
        )
        members.append((FourierState(coeffs, cap), equation))
    return members


@given(batches(), st.sampled_from([1e-3, 1e-2]))
@settings(max_examples=40, deadline=None)
def test_batch_rows_match_solo_solves_bitwise(members, dt):
    # the rows of one stack never mix: each member's outcome, trajectory or
    # abort, is bitwise the one solve gives it alone
    states, equations = zip(*members)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        batch = solve_many(states, equations, dt, 4 * dt, 2)
        for got, state, equation in zip(batch, states, equations):
            try:
                want = solve(state, equation, dt, 4 * dt, 2)
            except SolverAbort as abort:
                assert isinstance(got, SolverAbort) and str(got) == str(abort)
                want = abort.partial
                got = got.partial
            assert len(got) == len(want)
            for a, b in zip(got.states, want.states):
                assert a.coeffs.tobytes() == b.coeffs.tobytes()
