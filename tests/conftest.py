from __future__ import annotations

import inspect
import textwrap

import pytest
from hypothesis import settings

from zipcalc import (
    Homomorphism,
    MatrixGroup,
    PermutationGroup,
    WittZipConfig,
    build_small_zoo,
    build_witt_zip,
    zip_classes,
)

settings.register_profile("ci", max_examples=25, deadline=None, derandomize=True)
settings.load_profile("ci")


def forged_hom(source, target, table):
    """A Homomorphism whose table skipped the homomorphism certificate, for
    tests that need a map which is not one."""
    h = object.__new__(Homomorphism)
    h.source, h.target, h.table = source, target, dict(table)
    return h


def same_carriers_and_tables(a, b):
    """Two zip data with equal carriers of E and G and equal pairs
    (tau(e), sigma(e)) at every e of a's root E, None outside a datum's E."""
    return (
        a.E.element_set == b.E.element_set
        and a.G.element_set == b.G.element_set
        and all(a.pair_of(e) == b.pair_of(e) for e in a._root.E.elements)
    )


@pytest.fixture
def twist_by_inverse(monkeypatch):
    """A mutant: where the checks call it, twist(z, x) twists by x^-1."""
    from zipcalc import equivalence, zipdata

    twist = zipdata.twist
    for module in (equivalence, zipdata):
        monkeypatch.setattr(module, "twist", lambda z, x: twist(z, z.G.inv(x)))


@pytest.fixture
def transport_reversed(monkeypatch):
    """A mutant: ZipDatum.transport returns tau(e) * tau(et), the product of
    its witnesses' images in the wrong order; the rest of its source is
    unchanged."""
    from zipcalc import zipdata

    source = textwrap.dedent(inspect.getsource(zipdata.ZipDatum.transport.func))
    mutant = source.replace("mul(tau_et, tau_e) for y", "mul(tau_e, tau_et) for y")
    assert mutant != source
    namespace = {}
    exec(mutant, vars(zipdata), namespace)
    prop = namespace["transport"]
    prop.__set_name__(zipdata.ZipDatum, "transport")
    monkeypatch.setattr(zipdata.ZipDatum, "transport", prop)


@pytest.fixture
def trace_cut_early(monkeypatch):
    """A mutant: where the equivalence checks call it, refine_to_stationary
    drops the last stage of its trace, when it has more than one."""
    from zipcalc import equivalence, zipdata

    refine_to_stationary = zipdata.refine_to_stationary

    def cut(z):
        data = refine_to_stationary(z).data
        return zipdata.RefinementTrace(data[:-1] or data)

    monkeypatch.setattr(equivalence, "refine_to_stationary", cut)


# one line per acceptance criterion, printed at the end of the run
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def s3():
    return PermutationGroup.symmetric(3)


@pytest.fixture(scope="session")
def s4():
    return PermutationGroup.symmetric(4)


@pytest.fixture(scope="session")
def gl2f2():
    return MatrixGroup.general_linear(2, 2)


@pytest.fixture(scope="session")
def zoo():
    return build_small_zoo()


@pytest.fixture(scope="session")
def witt22():
    return build_witt_zip(WittZipConfig(2, 2))


@pytest.fixture(scope="session")
def witt23():
    return build_witt_zip(WittZipConfig(2, 3))


@pytest.fixture(scope="session")
def witt32():
    return build_witt_zip(WittZipConfig(3, 2))


@pytest.fixture(scope="session")
def witt33():
    return build_witt_zip(WittZipConfig(3, 3))


@pytest.fixture(scope="session")
def acceptance_data(zoo, witt22, witt23, witt33):
    """Every datum the acceptance criteria quantify over."""
    data = [(f"zoo:{name}", datum) for name, datum in zoo.items()]
    data.append(("witt-p2-n2", witt22[0]))
    data.append(("witt-p2-n3", witt23[0]))
    data.append(("witt-p3-n3", witt33[0]))
    return data


@pytest.fixture(scope="session")
def acceptance_classes(acceptance_data):
    return {name: zip_classes(datum) for name, datum in acceptance_data}
