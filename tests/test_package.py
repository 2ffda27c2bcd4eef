import types

import su3poly


def test_all_names_are_public_objects_not_modules():
    assert su3poly.__all__
    for name in su3poly.__all__:
        assert not name.startswith("_")
        assert not isinstance(getattr(su3poly, name), types.ModuleType), name


def test_all_covers_the_error_types():
    assert {"InvalidWeight", "LengthMismatch", "PredictionUnavailable", "SumNotZero"} <= set(su3poly.__all__)
