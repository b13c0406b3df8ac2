import os

import pytest

import psiforge
from psiforge import make_algebra
from psiforge.contact_relation import rel_to_op
from psiforge.enumeration import enumerate_ecas, enumerate_psi_operators

# the CLI tests run `python -m psiforge.cli` in a child process, which must
# import the package under test also when only pytest's pythonpath setting
# put it on sys.path
_SRC = os.path.dirname(os.path.dirname(psiforge.__file__))
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture(scope="session")
def alg1():
    return make_algebra(1)


@pytest.fixture(scope="session")
def alg2():
    return make_algebra(2)


@pytest.fixture(scope="session")
def alg3():
    return make_algebra(3)


@pytest.fixture(scope="session")
def ecas_k1(alg1):
    return enumerate_ecas(alg1)


@pytest.fixture(scope="session")
def ecas_k2(alg2):
    return enumerate_ecas(alg2)


@pytest.fixture(scope="session")
def rel_ops_k2(ecas_k2):
    return [rel_to_op(r) for r in ecas_k2]


@pytest.fixture(scope="session")
def psi_ops_k2(alg2):
    return enumerate_psi_operators(alg2)
