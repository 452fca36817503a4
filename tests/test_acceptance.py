"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line (visible with ``pytest -s``) and
enforces its runtime budget.  Randomized suites are seeded via the
TATEKIT_SEED environment variable (fixed default), so runs are
reproducible.
"""

import io
import itertools
import random
import time
from fractions import Fraction

from conftest import SEED
from frobenius_oracle import reconstruct_from_components
from test_weierstrass import random_series, schoolbook_division

from tatekit.cli import main as cli_main
from tatekit.exponents import (
    ExponentVector,
    bounded_coset_representatives,
    certify_in_open_interval,
    compare,
)
from tatekit.field import HahnSum, LaurentSeries, NormValue
from tatekit.frobenius import (
    ConvergenceCertificate,
    NormTable,
    lift_splitting_convergent,
    lift_splitting_tate,
    phi_standard,
    select_diagonal_indices,
)
from tatekit.gabber import GabberContext, distance_lower_bound_check
from tatekit.selftest import (
    _tate_frobenius,
    sample_exponent_vector,
    sample_laurent,
    sample_tate,
)
from tatekit.tate import (
    TateElem,
    apply_automorphism,
    distinguished_order,
    euclid_degree,
    find_distinguishing_automorphism,
    gauss_norm,
)
from tatekit.weierstrass import divide


def _report(number, name, detail, started):
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE {number} [{name}]: PASS ({detail}, {elapsed:.1f}s)")
    return elapsed


def _one_variable_grid(p):
    """All series with <=2 terms, exponents <=3, monomial coefficients of
    valuation in {-1, 0, 1}."""
    elements = [TateElem.zero(1, p)]
    for k in range(4):
        for v in (-1, 0, 1):
            elements.append(TateElem.monomial(1, (k,), LaurentSeries.t_power(p, v)))
    for k1, k2 in itertools.combinations(range(4), 2):
        for v1 in (-1, 0, 1):
            for v2 in (-1, 0, 1):
                elements.append(
                    TateElem.make(
                        1,
                        p,
                        {
                            (k1,): LaurentSeries.t_power(p, v1),
                            (k2,): LaurentSeries.t_power(p, v2),
                        },
                    )
                )
    return elements


def test_acceptance_01_gauss_norm_multiplicativity():
    started = time.perf_counter()
    pairs = 0
    for p in (2, 3):
        grid = _one_variable_grid(p)
        for f in grid:
            for g in grid:
                assert gauss_norm(f * g).compare(gauss_norm(f) * gauss_norm(g)) == 0
                pairs += 1
    rng = random.Random(SEED)
    for _ in range(10_000):
        p = rng.choice([2, 3])
        f = sample_tate(rng, 2, p)
        g = sample_tate(rng, 2, p)
        assert gauss_norm(f * g).compare(gauss_norm(f) * gauss_norm(g)) == 0
        pairs += 1
    elapsed = _report(
        1, "gauss-norm multiplicativity", f"{pairs} pairs exact", started
    )
    assert elapsed < 30


def test_acceptance_02_strong_triangle_equality():
    started = time.perf_counter()
    rng = random.Random(SEED + 2)
    for backend in ("laurent", "hahn"):
        kept = 0
        while kept < 10_000:
            p = rng.choice([2, 3, 5])
            if backend == "laurent":
                x, y = sample_laurent(rng, p), sample_laurent(rng, p)
            else:
                x, y = sample_hahn_pair(rng, p)
            nx, ny = x.norm(), y.norm()
            if nx.compare(ny) == 0:
                continue
            bigger = nx if nx.compare(ny) > 0 else ny
            total = (x + y).norm()
            assert total.compare(bigger) == 0
            if not total.is_zero:
                assert total.exponent == bigger.exponent
            kept += 1
    elapsed = _report(
        2, "strong triangle equality", "2 x 10^4 distinct-norm pairs exact", started
    )
    assert elapsed < 10


def sample_hahn_pair(rng, p):
    from tatekit.selftest import sample_hahn

    return sample_hahn(rng, p), sample_hahn(rng, p)


def test_acceptance_03_euclidean_division():
    started = time.perf_counter()
    rng = random.Random(SEED + 3)
    target = NormValue.finite(Fraction(8))
    oracle_hits = 0
    for _ in range(1000):
        p = rng.choice([2, 3, 5])
        f = random_series(rng, p)
        g = random_series(rng, p)
        q, r = divide(f, g, target)
        residual = f - (q * g + r)
        residual_explicit = TateElem.make(1, p, dict(residual.terms))
        res_norm = gauss_norm(residual_explicit)
        assert res_norm.is_zero or res_norm.compare(target) <= 0
        if r.terms:
            assert max(idx[0] for idx, _ in r.terms) < euclid_degree(g)
        oracle = schoolbook_division(f, g)
        if oracle is not None:
            oq, orr = oracle
            assert q == oq
            assert TateElem.make(1, p, dict(r.terms)) == orr
            oracle_hits += 1
    assert oracle_hits > 100
    elapsed = _report(
        3,
        "euclidean division",
        f"1000 divisions at slack e^-8, {oracle_hits} oracle-exact matches",
        started,
    )
    assert elapsed < 60


def test_acceptance_04_distinguishing_automorphisms():
    started = time.perf_counter()
    rng = random.Random(SEED + 4)
    found = []
    for _ in range(500):
        p = rng.choice([2, 3])
        n = rng.choice([2, 3])
        g = sample_tate(rng, n, p)
        while not g.terms:
            g = sample_tate(rng, n, p)
        spec = find_distinguishing_automorphism([g])
        report = distinguished_order(apply_automorphism(spec, g), n)
        assert report.is_distinguished
        found.append((spec, n, p))
    for _ in range(100):
        spec, n, p = rng.choice(found)
        f = sample_tate(rng, n, p)
        g = sample_tate(rng, n, p)
        assert apply_automorphism(spec, f + g) == apply_automorphism(
            spec, f
        ) + apply_automorphism(spec, g)
        assert apply_automorphism(spec, f * g) == apply_automorphism(
            spec, f
        ) * apply_automorphism(spec, g)
    elapsed = _report(
        4,
        "distinguishing automorphisms",
        "500 searches verified distinguished, 100 morphism pairs",
        started,
    )
    assert elapsed < 60


_SPLITTING_SAMPLES = []


def _splitting_samples():
    if not _SPLITTING_SAMPLES:
        rng = random.Random(SEED + 5)
        for _ in range(1000):
            p = rng.choice([2, 3, 5])
            n = rng.choice([1, 2])
            _SPLITTING_SAMPLES.append(
                (p, n, sample_tate(rng, n, p), sample_tate(rng, n, p))
            )
    return _SPLITTING_SAMPLES


def test_acceptance_05_splitting_correctness():
    started = time.perf_counter()
    for p in (2, 3, 5):
        for n in (1, 2):
            phi = phi_standard(p)
            one = TateElem.constant(n, LaurentSeries.one(p))
            assert lift_splitting_tate(phi, one) == one
    samples = _splitting_samples()
    for p, n, h, f in samples:
        phi = phi_standard(p)
        assert lift_splitting_tate(phi, _tate_frobenius(h) * f) == h * lift_splitting_tate(phi, f)
        assert lift_splitting_tate(phi, _tate_frobenius(f)) == f
    for p, n, h, f in samples[:200]:
        phi = phi_standard(p)
        assert reconstruct_from_components(phi, f) == f
    elapsed = _report(
        5,
        "splitting correctness",
        "identity at 1, 1000 linearity/section pairs, 200 reconstructions",
        started,
    )
    assert elapsed < 60


def test_acceptance_06_continuity_bound():
    started = time.perf_counter()
    checked = 0
    for p, n, h, f in _splitting_samples():
        phi = phi_standard(p)
        for elem in (h, f):
            image = lift_splitting_tate(phi, elem)
            ni, nf = gauss_norm(image), gauss_norm(elem)
            if ni.is_zero or nf.is_zero:
                continue  # |image| = 0 satisfies the bound vacuously
            assert ni.exponent >= nf.exponent / p
            checked += 1
    assert checked > 200  # the non-vacuous regime is actually exercised
    elapsed = _report(
        6,
        "continuity bound",
        f"{checked} exact exponent comparisons",
        started,
    )
    assert elapsed < 60


def test_acceptance_07_certificate_transform():
    started = time.perf_counter()
    rng = random.Random(SEED + 7)
    for _ in range(500):
        p = rng.choice([2, 3, 5])
        n = rng.choice([1, 2])
        phi = phi_standard(p)
        f = sample_tate(rng, n, p)
        radii = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
        needed = [
            -c.norm().exponent + sum(k * r for k, r in zip(idx, radii))
            for idx, c in f.terms
        ]
        bound = max(needed, default=Fraction(0)) + rng.randint(0, 3)
        image, cert_out = lift_splitting_convergent(
            phi, f, ConvergenceCertificate(radii, Fraction(bound))
        )
        assert cert_out.covers(image)
        assert cert_out.log_bound == Fraction(bound) / p
    elapsed = _report(
        7, "convergence certificate transform", "500 certified lifts re-verified", started
    )
    assert elapsed < 10


def test_acceptance_08_diagonal_selection():
    started = time.perf_counter()
    rng = random.Random(SEED + 8)
    for _ in range(100):
        rows = rng.randint(12, 20)
        cols = rng.randint(5, 7)
        floors = []
        acc = Fraction(0)
        for i in range(rows):
            acc += i + 1  # factorial-style superlinear exponent growth
            floors.append(acc)
        entries = {}
        for i in range(rows):
            entries[(i, 0)] = -floors[i] - rng.randint(0, 2)
            for j in range(1, cols):
                entries[(i, j)] = Fraction(rng.randint(-6, 6))
        table = NormTable.from_entries(entries, floors)
        count = rng.randint(3, 5)
        steps = select_diagonal_indices(table, count)
        assert len(steps) == count
        for pos, step in enumerate(steps):
            assert table.entries[(step.index, 0)] == step.coeff_exponent
            assert step.coeff_exponent <= -step.floor
            if pos == 0:
                assert step.index == 0
                continue
            competitors = [
                table.entries[(steps[r].index, pos - r)] for r in range(pos)
            ]
            assert step.coeff_exponent < min(competitors)
            for m in range(steps[pos - 1].index + 1, step.index):
                assert table.entries[(m, 0)] >= min(competitors)
    elapsed = _report(
        8,
        "diagonal index selection",
        "100 admissible tables, choice rule recomputed exhaustively",
        started,
    )
    assert elapsed < 10


def test_acceptance_09_gabber_non_density_witness():
    started = time.perf_counter()
    reps = bounded_coset_representatives(2, 8)
    signatures = set()
    for i, rep in enumerate(reps, start=1):
        assert certify_in_open_interval(rep, Fraction(-1), Fraction(1))
        assert rep.signature(2) == ExponentVector.unit(i).signature(2)
        signatures.add(rep.signature(2))
    assert len(signatures) == 8
    ctx = GabberContext(2, tuple(reps))
    rng = random.Random(SEED + 9)
    for _ in range(1000):
        used = rng.sample(range(1, 9), k=rng.randint(0, 7))
        terms = {}
        while len(terms) < min(12, max(1, 2 * len(used))) and used:
            i = rng.choice(used)
            shift = sample_exponent_vector(rng, max_index=6, max_coeff=3).scale(2)
            terms[-ctx.rep(i) + shift] = 1
        g = HahnSum.make(2, terms)
        report = distance_lower_bound_check(ctx, g, 8)
        assert report.passed
        assert compare(report.actual_exponent, report.bound_exponent) <= 0
        assert compare(report.actual_exponent, ExponentVector.zero()) < 0
    elapsed = _report(
        9,
        "non-density distance witness",
        "8 certified reps, 1000 elements kept at distance > 1",
        started,
    )
    assert elapsed < 120


GOLDEN_CLI = [
    (
        ["divide", "--f", "X^2", "--g", "X + [-1]*[t]", "--slack", "e^-6"],
        "q = X + [t]\nr = [t^2]\n",
    ),
    (
        ["divide", "--f", "X^2", "--g", "X + [-1]*[t]", "--slack", "e^-6",
         "--format", "records"],
        "q=X + [t]\nr=[t^2]\n",
    ),
    (
        ["divide", "--f", "1", "--g", "1 + [-1]*[t]X", "--slack", "e^-3",
         "--p", "5", "--format", "records"],
        "q=[t^2]X^2 + [t]X + [1]\nr=O(e^-3)\n",
    ),
    (["norm", "--f", "X^2 + [t]X", "--format", "records"], "norm=e^0\n"),
    (["norm", "--f", "[t]X + [t^3]", "--format", "records"], "norm=e^-1\n"),
    (["norm", "--f", "0", "--format", "records"], "norm=0\n"),
    (["unit", "--f", "[1] + [t]X", "--format", "records"], "unit=true\n"),
    (["unit", "--f", "[t] + X", "--format", "records"], "unit=false\n"),
    (["degree", "--f", "X^2 + [t]X", "--format", "records"], "degree=2\n"),
    (["degree", "--f", "[t]X", "--format", "records"], "degree=1\n"),
    (["degree", "--f", "[5]", "--p", "7", "--format", "records"], "degree=0\n"),
    (
        ["distinguish", "--f", "[t] + X", "--format", "records"],
        "order=1\ndominant=e^0\ndistinguished=true\n",
    ),
    (
        ["distinguish", "--f", "[1] + X", "--format", "records"],
        "order=1\ndominant=e^0\ndistinguished=true\n",
    ),
    (
        ["distinguish", "--f", "X1", "--n", "2", "--axis", "2",
         "--format", "records"],
        "order=0\ndominant=e^0\ndistinguished=false\n",
    ),
    (
        ["automorph", "--f", "X1", "--n", "2", "--format", "records"],
        "alphas=1\n",
    ),
    (["automorph", "--f", "X1*X2", "--format", "records"], "alphas=1\n"),
    (
        ["automorph", "--f", "[t]", "--n", "2", "--format", "records"],
        "alphas=0\n",
    ),
    (
        ["split", "--f", "X^2 + [t]X + [t^2]", "--p", "2", "--format", "records"],
        "result=X + [t]\n",
    ),
    (["split", "--f", "[t]X^4", "--p", "2", "--format", "records"], "result=0\n"),
    (
        ["certify", "--f", "[t^2]X^2", "--p", "2", "--log-radii", "1",
         "--log-bound", "1", "--format", "records"],
        "result=[t]X\nlog_radii=1\nlog_bound=1/2\nverified=true\n",
    ),
    (
        ["gabber", "reps", "--p", "2", "--count", "3", "--format", "records"],
        "rep_1=[1:1]\nrep_2=[2:1]\nrep_3=[3:1]\n",
    ),
    (
        ["gabber", "witness", "--p", "2", "--N", "3", "--format", "records"],
        "witness=t^[1:-1] + t^[2:-1] + t^[3:-1]\n",
    ),
    (
        ["gabber", "distance", "--p", "2", "--N", "3", "--g", "0",
         "--format", "records"],
        "i_g=1\nbound_exp=[1:-1]\nactual_exp=[1:-1]\npass=true\n",
    ),
    (
        ["gabber", "distance", "--p", "2", "--N", "3", "--g", "t^[1:-1]",
         "--format", "records"],
        "i_g=2\nbound_exp=[2:-1]\nactual_exp=[2:-1]\npass=true\n",
    ),
    (
        ["selftest", "--trials", "20", "--seed", "7", "--format", "records"],
        "suite_exponent-order=20/20\nsuite_strong-triangle=20/20\n"
        "suite_gauss-multiplicativity=20/20\nsuite_splitting-identities=20/20\n"
        "suite_gabber-distance=20/20\nresult=pass\n",
    ),
]


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli_main(argv, out, err)
    return code, out.getvalue()


def test_acceptance_10_cli_golden():
    started = time.perf_counter()
    assert len(GOLDEN_CLI) == 25
    for argv, expected in GOLDEN_CLI:
        code, out = _run_cli(argv)
        assert code == 0, argv
        assert out == expected, argv
        # Byte stability: repeat invocations are identical.
        assert _run_cli(argv) == (code, out)
    elapsed = _report(
        10, "cli golden outputs", "25 invocations byte-stable", started
    )
    assert elapsed < 10
