"""The package's public surface."""

import types

import polycf


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(polycf.__all__)) == len(polycf.__all__)
    for name in polycf.__all__:
        assert not isinstance(getattr(polycf, name), types.ModuleType), name
    # every public name the package imports is listed
    public = {
        name
        for name, value in vars(polycf).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(polycf.__all__)
