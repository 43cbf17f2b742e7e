import importlib
import pkgutil

import pytest

import gafzeros

MODULES = [importlib.import_module(f"gafzeros.{m.name}")
           for m in pkgutil.iter_modules(gafzeros.__path__)]


def test_closed_form_route_is_exported():
    from gafzeros import rho1_closed_form
    from gafzeros.intensity import ROUTES
    assert ROUTES["closed_form"] is rho1_closed_form


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_star_import_finds_every_listed_name(module):
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    assert [n for n in module.__all__ if n not in namespace] == []
