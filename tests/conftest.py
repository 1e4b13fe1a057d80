import pytest

from cubiclifford.fields import make_field
from cubiclifford.freealg import clifford_relations
from cubiclifford.rewrite import complete


@pytest.fixture(scope="session")
def f11():
    return make_field("prime", 11)


@pytest.fixture(scope="session")
def f13():
    return make_field("prime", 13)


@pytest.fixture(scope="session")
def f31():
    return make_field("prime", 31)


@pytest.fixture(scope="session")
def f7():
    return make_field("prime", 7)


@pytest.fixture(scope="session")
def rationals():
    return make_field("rational")


@pytest.fixture(scope="session")
def system13(f13):
    return complete(clifford_relations(f13), degree_bound=13)


@pytest.fixture(scope="session")
def system31(f31):
    return complete(clifford_relations(f31), degree_bound=13)


@pytest.fixture(scope="session")
def system11(f11):
    return complete(clifford_relations(f11), degree_bound=13)


@pytest.fixture(scope="session")
def system_rational(rationals):
    return complete(clifford_relations(rationals), degree_bound=13)
