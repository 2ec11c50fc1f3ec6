"""The package's public surface: each module's __all__, re-exported once."""

import stacktol
from stacktol import bounds, chain, io, montecarlo, numerics, study

MODULES = (chain, bounds, montecarlo, study, io, numerics)


def test_all_is_version_plus_every_module_all():
    names = stacktol.__all__
    assert len(names) == len(set(names))
    expected = {"__version__"}.union(*(m.__all__ for m in MODULES))
    assert set(names) == expected
    for m in MODULES:
        for name in m.__all__:
            assert getattr(stacktol, name) is getattr(m, name), name
    assert isinstance(stacktol.__version__, str)
