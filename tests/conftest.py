"""Shared fixtures: molecular integrals, qubit operators, exact references.

Heavy objects are session-scoped so each is built once for the whole run.
Property tests run under one derandomized hypothesis profile: a fixed
example sequence, no example database and no deadline, so the suite is
deterministic; each test sets only its number of examples.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from corrvec.molham import build_cas, hubbard_dimer, read_fcidump
from corrvec.oracle import GreensOracle, exact_ground

FIXTURES = Path(__file__).parent / "fixtures"

settings.register_profile("derandomized", derandomize=True, database=None,
                          deadline=None,
                          suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("derandomized")


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


@pytest.fixture(scope="session")
def h2_integrals():
    return read_fcidump(fixture_path("h2_2.0.fcidump"))


@pytest.fixture(scope="session")
def h2_hamiltonian(h2_integrals):
    return h2_integrals.to_qubits()


@pytest.fixture(scope="session")
def h2_ground(h2_hamiltonian):
    return exact_ground(h2_hamiltonian, 2)


@pytest.fixture(scope="session")
def h2_oracle(h2_hamiltonian, h2_ground):
    e0, psi0 = h2_ground
    return GreensOracle(h2_hamiltonian, e0, psi0, n_particles=2)


@pytest.fixture(scope="session")
def lih_integrals():
    return read_fcidump(fixture_path("lih_2.0.fcidump"))


@pytest.fixture(scope="session")
def lih_cas(lih_integrals):
    return build_cas(lih_integrals, (1, 2))


@pytest.fixture(scope="session")
def lih_cas_hamiltonian(lih_cas):
    return lih_cas.to_qubits()


@pytest.fixture(scope="session")
def lih_cas_ground(lih_cas_hamiltonian):
    return exact_ground(lih_cas_hamiltonian, 2)


@pytest.fixture(scope="session")
def dimer_integrals():
    return hubbard_dimer(1.0, 4.0)


@pytest.fixture(scope="session")
def dimer_hamiltonian(dimer_integrals):
    return dimer_integrals.to_qubits()


@pytest.fixture(scope="session")
def dimer_ground(dimer_hamiltonian):
    return exact_ground(dimer_hamiltonian, 2)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
