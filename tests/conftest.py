import functools
import random
from fractions import Fraction

import pytest

from jshm.designs import as_design, search_design
from jshm.johnson import BMVector, SchemeParams, w_to_a
from jshm.oracles import eberlein_table
from jshm.subsets import Family, colex_tuples, make_family, star_family

FANO_BLOCKS = [
    [1, 2, 3], [1, 4, 5], [1, 6, 7], [2, 4, 6], [2, 5, 7], [3, 4, 7], [3, 5, 6],
]

# rows, columns and broken diagonals of the 3x3 grid: an STS(9)
STS9_BLOCKS = [
    [1, 2, 3], [4, 5, 6], [7, 8, 9],
    [1, 4, 7], [2, 5, 8], [3, 6, 9],
    [1, 5, 9], [2, 6, 7], [3, 4, 8],
    [1, 6, 8], [2, 4, 9], [3, 5, 7],
]


@pytest.fixture(scope="session")
def fano() -> Family:
    return make_family(7, 3, FANO_BLOCKS)


@pytest.fixture(scope="session")
def sts9() -> Family:
    return make_family(9, 3, STS9_BLOCKS)


@pytest.fixture(scope="session")
def fano_design(fano):
    return as_design(fano, 2)


@pytest.fixture(scope="session")
def sts9_design(sts9):
    return as_design(sts9, 2)


@pytest.fixture(scope="session")
def sqs8_design():
    outcome = search_design(8, 4, 3)
    assert outcome.status == "found"
    return outcome.design


def random_vector(params: SchemeParams, rng: random.Random) -> BMVector:
    """Deterministic random algebra element with small rational coefficients."""
    return BMVector(
        params,
        tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 4))
              for _ in range(params.num_classes)),
    )


def w_basis(a: int, params: SchemeParams) -> BMVector:
    """W_a on the main route: ``w_to_a`` of the unit W vector e_a."""
    return BMVector(params, tuple(w_to_a([int(i == a) for i in range(params.num_classes)])))


_table = functools.cache(eberlein_table)


def eberlein_spectrum(v: BMVector) -> tuple:
    """theta_0..theta_k of v from the oracle's Eberlein table,
    sum_i c_i P[j][i]: the reference for the spectra of Wilson's lemma."""
    return tuple(sum(c * row[i] for i, c in enumerate(v.coeffs))
                 for row in _table(v.params.n, v.params.k))


def random_families(n: int, k: int, count: int, seed: int) -> list[Family]:
    """Deterministic random families for oracle-equivalence corpora."""
    rng = random.Random(seed)
    pool = colex_tuples(n, k)
    fams = []
    for i in range(count):
        size = rng.randint(2, min(8, len(pool)))
        fams.append(make_family(n, k, rng.sample(pool, size)))
    return fams


def projection_corpus(fano, sqs8) -> list[Family]:
    """Families across J(6,3), J(7,3) and J(8,4): stars, single sets,
    designs and seeded random families."""
    fams = [
        make_family(6, 3, [[1, 2, 3]]),
        star_family(6, 3, (1,)),
        star_family(6, 3, (1, 2)),
        make_family(6, 3, [[1, 2, 3], [4, 5, 6]]),
        *random_families(6, 3, 4, seed=6003),
        make_family(7, 3, [[2, 4, 6]]),
        star_family(7, 3, (1,)),
        star_family(7, 3, (1, 2)),
        fano,
        *random_families(7, 3, 4, seed=7003),
        make_family(8, 4, [[1, 3, 5, 7]]),
        star_family(8, 4, (1,)),
        star_family(8, 4, (1, 2)),
        star_family(8, 4, (1, 2, 3)),
        sqs8.family,
        *random_families(8, 4, 3, seed=8004),
    ]
    assert len(fams) >= 20
    return fams
