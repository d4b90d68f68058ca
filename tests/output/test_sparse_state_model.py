"""The columnar SparseState against a dict reference model.

``_DictState`` below is the mapping-backed implementation SparseState had
before it stored sorted int64 indices + complex128 amplitudes: plain Python
loops over a ``{index: complex}`` dict.  Every public read must agree with it
on input that is unsorted, repeats indices, carries exact zeros and reaches
indices of ``2**62 - 1`` — exactly where it is only rearranged data, to 1e-12
where a sum changed its order of accumulation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import AnalysisError
from repro.output.result import SimulationResult, SparseState

_QUBITS = 62
_TOP = 2**_QUBITS - 1


class _DictState:
    """Reference model: ``{basis index: complex amplitude}``, zeros dropped."""

    def __init__(self, num_qubits, amplitudes):
        self.num_qubits = num_qubits
        self.amplitudes = {}
        for index, amplitude in amplitudes.items():
            if not 0 <= int(index) < (1 << num_qubits):
                raise AnalysisError("out of range")
            if complex(amplitude) != 0:
                self.amplitudes[int(index)] = complex(amplitude)

    @classmethod
    def from_rows(cls, num_qubits, rows):
        return cls(num_qubits, {int(s): complex(r, i) for s, r, i in rows})

    def items(self):
        return sorted(self.amplitudes.items())

    def to_rows(self):
        return [(index, value.real, value.imag) for index, value in self.items()]

    def amplitude(self, index):
        return self.amplitudes.get(int(index), 0j)

    def norm(self):
        return math.sqrt(sum(abs(value) ** 2 for value in self.amplitudes.values()))

    def pruned(self, atol):
        return _DictState(
            self.num_qubits, {k: v for k, v in self.amplitudes.items() if abs(v) > atol}
        )

    def inner(self, other):
        return sum(
            (value.conjugate() * other.amplitudes[index]
             for index, value in self.amplitudes.items() if index in other.amplitudes),
            0j,
        )

    def equiv(self, other, atol, up_to_global_phase):
        if up_to_global_phase:
            return abs(abs(self.inner(other)) - self.norm() * other.norm()) <= atol
        keys = set(self.amplitudes) | set(other.amplitudes)
        return all(abs(self.amplitude(k) - other.amplitude(k)) <= atol for k in keys)

    def marginal_probability(self, qubit, value):
        return sum(
            abs(amplitude) ** 2
            for index, amplitude in self.amplitudes.items()
            if (index >> qubit) & 1 == value
        )


# Indices cluster at both ends of the int64-safe range and in a small pool,
# so duplicates, neighbours and 2**62 - 1 itself all turn up.
_indices = st.one_of(
    st.integers(0, 12),
    st.integers(_TOP - 12, _TOP),
    st.integers(0, _TOP),
    st.sampled_from([0, 1, 2**53, 2**53 + 1, _TOP]),
)
_parts = st.one_of(
    st.just(0.0),
    st.sampled_from([1.0, -1.0, 0.5, 2**-0.5, 1e-13, -1e-13, 1e-7]),
    st.floats(-2.0, 2.0, allow_nan=False),
)
_rows = st.lists(st.tuples(_indices, _parts, _parts), max_size=24)


def _assert_same(state: SparseState, model: _DictState) -> None:
    rows = model.to_rows()
    assert state.to_rows() == rows
    assert [type(s) for s, _, _ in state.to_rows()] == [int] * len(rows)
    assert list(state.items()) == model.items()
    assert list(state) == [index for index, _ in model.items()]
    assert len(state) == state.num_nonzero == len(rows)
    # Below 1e-150 the squared magnitudes are subnormal and neither side is
    # accurate (hypothesis found 1.8e-159: the two differ in the 7th digit).
    assert state.norm() == pytest.approx(model.norm(), rel=1e-12, abs=1e-150)
    for index, _ in model.items():
        assert index in state
        assert state.amplitude(index) == model.amplitude(index)
    for absent in (_TOP - 13, 13, 2**40):
        if absent not in model.amplitudes:
            assert absent not in state
            assert state.amplitude(absent) == 0


@settings(max_examples=200, deadline=None)
@given(rows=_rows)
def test_from_rows_matches_dict_model(rows):
    _assert_same(SparseState.from_rows(_QUBITS, rows), _DictState.from_rows(_QUBITS, rows))


@settings(max_examples=100, deadline=None)
@given(rows=_rows)
def test_mapping_and_columns_constructors_match_dict_model(rows):
    mapping = {s: complex(r, i) for s, r, i in rows}
    model = _DictState(_QUBITS, mapping)
    _assert_same(SparseState(_QUBITS, mapping), model)
    s, r, i = (list(column) for column in zip(*rows)) if rows else ([], [], [])
    _assert_same(
        SparseState.from_columns(
            _QUBITS, np.array(s, dtype=np.int64), np.array(r), np.array(i)
        ),
        _DictState.from_rows(_QUBITS, rows),
    )


@settings(max_examples=100, deadline=None)
@given(rows=_rows, atol=st.sampled_from([0.0, 1e-12, 1e-7, 0.5]))
def test_pruned_matches_dict_model(rows, atol):
    _assert_same(
        SparseState.from_rows(_QUBITS, rows).pruned(atol),
        _DictState.from_rows(_QUBITS, rows).pruned(atol),
    )


@settings(max_examples=150, deadline=None)
@given(left=_rows, right=_rows, atol=st.sampled_from([1e-9, 1e-6, 0.3]))
def test_inner_and_equiv_match_dict_model(left, right, atol):
    a, b = SparseState.from_rows(_QUBITS, left), SparseState.from_rows(_QUBITS, right)
    ma, mb = _DictState.from_rows(_QUBITS, left), _DictState.from_rows(_QUBITS, right)
    assert a.inner(b) == pytest.approx(ma.inner(mb), rel=1e-12, abs=1e-12)
    assert a.inner(b) == pytest.approx(b.inner(a).conjugate(), rel=1e-12, abs=1e-12)
    assert a.equiv(b, atol=atol, up_to_global_phase=False) == mb.equiv(ma, atol, False)
    assert a.equiv(a, atol=atol, up_to_global_phase=False)
    # The phase-insensitive verdict is a threshold on accumulated sums; only
    # compare it where the model is not within rounding of the threshold.
    margin = abs(abs(ma.inner(mb)) - ma.norm() * mb.norm()) - atol
    if abs(margin) > 1e-9:
        assert a.equiv(b, atol=atol, up_to_global_phase=True) == (margin < 0)


@settings(max_examples=100, deadline=None)
@given(rows=_rows, qubit=st.sampled_from([0, 1, 3, 52, 53, 61]), value=st.sampled_from([0, 1]))
def test_marginal_probability_matches_dict_model(rows, qubit, value):
    state = SparseState.from_rows(_QUBITS, rows)
    model = _DictState.from_rows(_QUBITS, rows)
    assert state.marginal_probability(qubit, value) == pytest.approx(
        model.marginal_probability(qubit, value), rel=1e-12, abs=1e-300
    )


@settings(max_examples=100, deadline=None)
@given(
    rows=st.lists(st.tuples(st.integers(0, 63), _parts, _parts), max_size=24),
    atol=st.sampled_from([0.0, 1e-12]),
)
def test_dense_round_trip_matches_dict_model(rows, atol):
    state = SparseState.from_rows(6, rows)
    model = _DictState.from_rows(6, rows)
    dense = np.zeros(64, dtype=np.complex128)
    for index, amplitude in model.items():
        dense[index] = amplitude
    np.testing.assert_array_equal(state.to_dense(), dense)
    _assert_same(
        SparseState.from_dense(dense, atol=atol),
        _DictState(6, {k: v for k, v in model.amplitudes.items() if abs(v) > atol}),
    )


class TestInt64Rule:
    def test_top_index_of_62_qubits_is_exact(self):
        rows = [(_TOP, 0.6, 0.0), (_TOP - 1, 0.0, 0.8), (2**53 + 1, 1e-3, 0.0)]
        state = SparseState.from_rows(_QUBITS, rows)
        assert [s for s, _, _ in state.to_rows()] == [2**53 + 1, _TOP - 1, _TOP]
        assert state.amplitude(_TOP) == 0.6
        assert state.amplitude(_TOP - 1) == 0.8j
        assert state.pruned(1e-2).to_rows() == [(_TOP - 1, 0.0, 0.8), (_TOP, 0.6, 0.0)]
        document = SimulationResult(state, "memdb").to_dict()
        assert document["rows"][-1] == [_TOP, 0.6, 0.0]

    def test_columns_are_copied(self):
        s = np.array([3, 1], dtype=np.int64)
        r = np.array([0.6, 0.8])
        i = np.zeros(2)
        state = SparseState.from_columns(2, s, r, i)
        s[:] = 0
        r[:] = 9.0
        assert state.to_rows() == [(1, 0.8, 0.0), (3, 0.6, 0.0)]

    @pytest.mark.parametrize(
        "num_qubits, index", [(2, 4), (2, -1), (62, 2**62), (3, 2**63), (3, 2**70)]
    )
    def test_out_of_range_indices_raise_analysis_error(self, num_qubits, index):
        with pytest.raises(AnalysisError):
            SparseState(num_qubits, {index: 1.0})
        with pytest.raises(AnalysisError):
            SparseState.from_rows(num_qubits, [(0, 1.0, 0.0), (index, 1.0, 0.0)])

    def test_lookups_beyond_int64_are_absent_not_errors(self):
        state = SparseState(3, {5: 1.0})
        assert 2**70 not in state and -1 not in state
        assert state.amplitude(2**70) == 0 and state.probability_of(-3) == 0.0

    @pytest.mark.parametrize(
        "r, i",
        [([1.0, 0.0], [0.0, 0.0, 0.0]), ([1.0], [0.0]), ([1.0, 0.0, 0.0], 0.0)],
        ids=["short", "length-1-would-broadcast", "scalar"],
    )
    def test_ragged_columns_raise_analysis_error(self, r, i):
        with pytest.raises(AnalysisError, match="differ in length"):
            SparseState.from_columns(2, [0, 1, 2], r, i)
