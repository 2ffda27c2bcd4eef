import os
import subprocess
import sys
import textwrap
import types

import su3poly


def test_all_names_are_public_objects_not_modules():
    assert su3poly.__all__
    for name in su3poly.__all__:
        assert not name.startswith("_")
        assert not isinstance(getattr(su3poly, name), types.ModuleType), name


def test_all_covers_the_error_types():
    errors = {"InvalidWeight", "LengthMismatch", "NotSorted", "PredictionUnavailable", "SumNotZero", "InvalidHullPoints", "InvalidHalfPlane", "InvalidIndex"}
    assert errors <= set(su3poly.__all__)
    assert issubclass(su3poly.InvalidHullPoints, ValueError)
    assert issubclass(su3poly.InvalidHalfPlane, ValueError)
    assert issubclass(su3poly.InvalidIndex, ValueError)
    assert issubclass(su3poly.NotSorted, ValueError)


#: Runs with numpy blocked: any ``import numpy`` raises ImportError.
WITHOUT_NUMPY = textwrap.dedent(
    """
    import contextlib, io, sys
    sys.modules["numpy"] = None

    import su3poly as sp
    from su3poly import cli, polytope, render

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
