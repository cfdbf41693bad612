"""The result records are immutable named tuples.

Importing the package generates no code: no record is a dataclass, so
neither dataclasses nor inspect is loaded.  Every record refuses a field
assignment, IndexedGrid still checks a caller's grid, the package's
unchecked grid equals the checked one, a feasible region keeps identity
equality and a record keeps the field-by-name repr."""

import subprocess
import sys
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest

import epsap
from epsap.colorings import build_blowup_1d
from epsap.density import find_dense_translate
from epsap.geometry import IndexedGrid, _trusted_grid, recognize_ap, region_add_point, region_new
from epsap.search import SearchOutcome


def test_import_loads_no_code_generators():
    # -S: only the package's own imports count, not a site hook's
    code = "import sys, epsap.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         check=True, cwd=Path(epsap.__file__).parents[1])
    assert out.stdout == "[]\n"


@pytest.mark.parametrize("record, field", [
    (build_blowup_1d(3, 2, F(1, 10)), "elements"),
    (find_dense_translate([(1,)], [(1,), (2,)], 2, 1), "count"),
    (recognize_ap((1, 2, 3), F(1, 10)), "d"),
    (SearchOutcome("value", 2, (1, 2), 5), "nodes"),
])
def test_records_refuse_field_assignment(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)


_SQUARE = dict(zip(product(range(2), repeat=2), [(0, 0), (0, 10), (10, 0), (10, 10)]))


_BAD_GRIDS = [
    (2, 2, {(0, 0): (0, 0), (0, 1): (0, 10), (1, 0): (10, 0)},
     "assignment keys must be exactly {0..k-1}^m"),
    (2, 2, {**_SQUARE, (1, 1): (0, 0)}, "assignment must be injective (duplicate points)"),
    (2, 1, {(0, 0): (0, 0)}, "need m >= 1 and k >= 2, got m=2, k=1"),
]


@pytest.mark.parametrize("m, k, assignment, message", _BAD_GRIDS)
def test_indexed_grid_refuses_bad_grids(m, k, assignment, message):
    with pytest.raises(ValueError) as err:
        IndexedGrid(m, k, assignment)
    assert str(err.value) == message


@pytest.mark.parametrize("m, k, assignment, message", _BAD_GRIDS)
def test_indexed_grid_make_and_replace_check_the_grid(m, k, assignment, message):
    # _make and _replace go through the same checks as the constructor
    grid = IndexedGrid(2, 2, _SQUARE)
    for build in (lambda: IndexedGrid._make((m, k, assignment)),
                  lambda: grid._replace(m=m, k=k, assignment=assignment)):
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message
    assert grid._replace() == grid and type(grid._replace()) is IndexedGrid


def test_trusted_grid_equals_checked_grid():
    grid = IndexedGrid(m=2, k=2, assignment=_SQUARE)
    trusted = _trusted_grid(2, 2, _SQUARE)
    assert type(trusted) is IndexedGrid
    assert trusted == grid and repr(trusted) == repr(grid)
    assert (trusted.m, trusted.k, trusted.assignment) == (2, 2, _SQUARE)


def test_feasible_regions_compare_by_identity():
    # their interval pairs are not reduced, so equal fields prove nothing
    first = region_add_point(region_new(3, F(1, 10)), 0, 1)
    second = region_add_point(region_new(3, F(1, 10)), 0, 1)
    assert first == first and first != second and not first == second
    assert len({first, second}) == 2


def test_record_repr_names_its_fields():
    assert (repr(SearchOutcome("value", 2, (1, 2), 5))
            == "SearchOutcome(kind='value', value=2, witness=(1, 2), nodes=5)")
