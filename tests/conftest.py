import pytest

from param_workbench import finmodel as fm
from param_workbench import rgalg


@pytest.fixture(scope="session")
def rey_instance():
    """The bound-2 structure with the mixed iso policy, shared by every
    suite so that its tables' cached lookups (composites, inverses) are
    filled once."""
    return fm.build_instance(fm.IsoPolicy.REY, 2)


@pytest.fixture(scope="session")
def rey_probes(rey_instance):
    rg, _ = rey_instance
    return rgalg.Probes(rg)
