import copy
import inspect
import os
import pickle
import subprocess
import sys
import textwrap
import types
import typing

import numpy as np
import pytest

import su3poly
from su3poly import classifier, cones, eigen_bounds, moment_map, oracle, polytope, su3


def test_all_names_are_public_objects_not_modules():
    assert su3poly.__all__
    for name in su3poly.__all__:
        assert not name.startswith("_")
        assert not isinstance(getattr(su3poly, name), types.ModuleType), name


def test_all_covers_the_error_types():
    errors = {"InvalidWeight", "LengthMismatch", "NotSorted", "PredictionUnavailable", "SumNotZero", "InvalidHullPoints", "InvalidHalfPlane", "InvalidPolytopeDocument", "InvalidIndex", "InvalidGeneratorKind"}
    assert errors <= set(su3poly.__all__)
    assert issubclass(su3poly.InvalidHullPoints, ValueError)
    assert issubclass(su3poly.InvalidHalfPlane, ValueError)
    assert issubclass(su3poly.InvalidPolytopeDocument, ValueError)
    assert issubclass(su3poly.InvalidIndex, ValueError)
    assert issubclass(su3poly.InvalidGeneratorKind, ValueError)
    assert issubclass(su3poly.NotSorted, ValueError)


@pytest.mark.parametrize(
    "obj",
    [eigen_bounds.RealizeResult, eigen_bounds.DoubleEigMatrixSpec.realize, oracle.SampleBatch, oracle.spectra_of_configurations, oracle.sample_cp2],
)
def test_annotations_resolve_where_a_type_checker_reads_them(obj, monkeypatch):
    # numpy is bound for type checkers only, so the module is run again
    # with TYPE_CHECKING true and the annotations resolved in that namespace
    module = sys.modules[obj.__module__]
    monkeypatch.setattr(typing, "TYPE_CHECKING", True)
    namespace = {"__name__": module.__name__, "__package__": module.__package__}
    exec(compile(inspect.getsource(module), module.__file__, "exec"), namespace)
    hints = typing.get_type_hints(obj, namespace)
    assert "numpy" in str(hints)


_S = su3.Spectrum(2, -1, -1)
_T = su3.Spectrum(1, 0, -1)
_RAY = cones.Generator(su3.Root.ALPHA1, cones.RAY_POS)
_LINES = (np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.6, 0.8]), np.array([0.0, 0.0, 1.0]))

#: Every immutable value class of the package: (class, its fields in
#: constructor order, the values of one instance, the values of another that
#: differs in one field).
VALUE_CLASSES = [
    (su3.Spectrum, "l1 l2 l3", (2, -1, -1), (2, -0.5, -1.5)),
    (su3.ChamberPoint, "p q", (1.0, 2.0), (1.0, 2.5)),
    (su3.Hermitian3, "d1 d2 off12 off13 off23", (1, 2, 0, 1j, 0), (1, 2, 0, 1j, 2j)),
    (su3.SkewHermitian3, "t1 t2 off12 off13 off23", (0, 1, 0, 0, 0), (-1, 1, 0, 0, 0)),
    (su3.SignedRoot, "sign root", (1, su3.Root.ALPHA2), (-1, su3.Root.ALPHA2)),
    (moment_map.CPPoint, "z1 z2 z3", (1 + 0j, 0j, 0j), (1 + 0j, 0j, 1j)),
    (moment_map.Weights, "gammas allow_zero", ((4, 2, -1), False), ((4, 2, -1), True)),
    (classifier.Canonicalization, "sorted_gammas permutation starred", ((4, 2, -1), (0, 1, 2), False), ((4, 2, -1), (0, 1, 2), True)),
    (cones.QuadraticForm2, "A B C", (1, 2, 3), (1, 2, 4)),
    (cones.Generator, "root kind", (su3.Root.ALPHA1, cones.RAY_POS), (su3.Root.ALPHA1, cones.LINE)),
    (cones.ConeSpec, "apex generators weyl_folded side_normal", (_S, (_RAY,), False, None), (_S, (_RAY,), True, None)),
    (polytope.ChamberPolytope, "lines corners den kind label starred", ((), ((2, -1, -1),), 1, "Point", None, False), ((), ((2, -1, -1),), 1, "Point", None, True)),
    (eigen_bounds.DoubleEigMatrixSpec, "lam", (1,), (2,)),
    (eigen_bounds.RealizeResult, "found distance matrices lines restarts_used reason", (True, 0.0, None, None, 0, ""), (False, 0.0, None, None, 0, "")),
    (eigen_bounds.RealizeResult, "found distance matrices lines restarts_used reason", (True, 0.0, None, _LINES, 0, ""), (True, 0.0, None, _LINES[::-1], 0, "")),
    (oracle.SampleBatch, "seed count spectra chamber_points", (1, 1, ((2.0, -1.0, -1.0),), ((2.0, 1.0),)), (2, 1, ((2.0, -1.0, -1.0),), ((2.0, 1.0),))),
    (oracle.VerificationReport, "label seed n_samples n_violations max_violation hausdorff_inner vertex_coverage diameter tolerance", ("C", 1, 10, 0, 0.0, 0.5, (0.1,), 3.0, 1e-9), ("C", 1, 10, 1, 0.0, 0.5, (0.1,), 3.0, 1e-9)),
]


def _case_id(case):
    cls, _, values, _ = case
    return cls.__name__ + ("-lines" if cls is eigen_bounds.RealizeResult and values[3] is not None else "")


@pytest.mark.parametrize("cls, names, values, other", VALUE_CLASSES, ids=[_case_id(case) for case in VALUE_CLASSES])
def test_value_classes_compare_hash_show_and_refuse_assignment_by_field(cls, names, values, other):
    names = names.split()
    a, b, c = cls(*values), cls(*values), cls(*other)
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != c and not a == c
    assert a != values and a != object()
    assert repr(a) == f"{cls.__qualname__}({', '.join(f'{n}={v!r}' for n, v in zip(names, values, strict=True))})"
    assert tuple(getattr(a, n) for n in names) == values
    with pytest.raises(AttributeError):
        setattr(a, names[0], values[0])
    with pytest.raises(AttributeError):
        delattr(a, names[-1])
    assert tuple(getattr(a, n) for n in names) == values
    assert copy.copy(a) == a and copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a


#: Runs with numpy blocked: any ``import numpy`` raises ImportError.  The
#: package and the commands load no ``dataclasses`` either.
WITHOUT_NUMPY = textwrap.dedent(
    """
    import contextlib, io, sys
    sys.modules["numpy"] = None

    import su3poly as sp
    from su3poly import cli, polytope, render
    assert "dataclasses" not in sys.modules
    assert polytope._CELLS == {}

    for argv in (
        ["classify", "--gamma", "4,2,-1"],
        ["classify", "--gamma", "2.5,1"],
        ["polytope", "--gamma", "4/3,2,-1"],
        ["polytope", "--gamma", "4,2,-1", "--emit-cones"],
        ["polytope", "--gamma", "1.5,2,-1", "--format", "svg"],
        ["bounds", "--lambdas", "1,1,-1", "--target", "2,0,-2"],
        ["sweep", "--start", "7/2,2,1", "--end", "5/2,2,1", "--steps", "10"],
    ):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0, argv
        assert out.getvalue(), argv

    label, _ = sp.classify_n3((4, 2, -1))
    P, Q = sp.build_polytope((4, 2, -1)), sp.build_polytope((3.5, 2.0, 1.0))
    segment = sp.build_polytope((2, 1))
    assert (str(label.value), P.kind, segment.kind) == ("C", "Polygon", "Segment")
    assert set(polytope.polytope_cones((4, 2, -1))) == {"a", "b", "c1", "c2", "c3"}
    assert sp.sum_bounds_three(1, 1, -1).kind == "Polygon"
    assert sp.check_spectrum(1, 1, 1, (3, 0, -3))
    assert sp.hausdorff(P, Q) > 0 and sp.hausdorff(P, P) == 0.0
    assert polytope.distance_to_polytope_pq((0.0, 0.0), P) > 0
    assert render.render_svg(P, weights=(4, 2, -1)).startswith("<svg")
    assert "numpy" not in {name.split(".")[0] for name, module in sys.modules.items() if module is not None}
    assert "dataclasses" not in sys.modules
    print("ok")
    """
)


def test_exact_pipeline_and_five_commands_run_without_numpy():
    done = subprocess.run(
        [sys.executable, "-c", WITHOUT_NUMPY],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"
