"""Tests of the benchmark itself: oracles, seeding and the tracer.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import importlib
import json
import os
import sys
from dataclasses import replace
from random import Random
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    # The modules already imported; import_library would re-import them
    # and leave other tests holding the old classes.
    return SimpleNamespace(**{m: importlib.import_module(f"tatekit.{m}")
                              for m in workloads.LIBRARY_MODULES})


def make(lib, name):
    return workloads.WORKLOADS[name](lib, os.path.dirname(HERE))


def first_op(wl, kind, seed=5):
    rng = Random(seed)
    while True:
        for op in wl.make_pass(rng):
            if op.kind == kind:
                return op


def answer(wl, op):
    args = wl.prepare(op)
    result = wl.run(op, args)
    assert wl.check(op, args, result) is None
    return args, result


def bump(lib, elem):
    """Add 1 mod p to the coefficient of elem's lowest-valuation term."""
    terms = dict(elem.terms)
    idx = min(terms, key=lambda i: terms[i].terms[0][0])
    coeff = oracles.laurent_dict(terms[idx])
    e = min(coeff)
    coeff[e] = (coeff[e] + 1) % elem.char
    terms[idx] = lib.field.LaurentSeries.make(elem.char, coeff)
    kept = ((i, c) for i, c in sorted(terms.items()) if not c.is_zero)
    return replace(elem, terms=tuple(kept))


def division_op(lib, shape, tau):
    wl = make(lib, "division")
    rng = Random(3)
    data = workloads.draw_division(rng, 3, tau, shape, 4)
    return wl, workloads.Op("divide", data)


@pytest.mark.parametrize("shape,tau", [("exact", 4), ("tail", 4), ("pivot2", 8)])
@pytest.mark.parametrize("part", [0, 1])
def test_division_oracle_flags_one_corrupted_coefficient(lib, shape, tau, part):
    wl, op = division_op(lib, shape, tau)
    args, (q, r) = answer(wl, op)
    if part == 1 and not r.terms:
        pytest.skip("remainder is zero")
    # The lowest-valuation term matters at every precision.
    bad = bump(lib, (q, r)[part])
    result = (bad, r) if part == 0 else (q, bad)
    assert wl.check(op, args, result) is not None


def test_hahn_product_oracle_flags_one_corrupted_coefficient(lib):
    wl = make(lib, "hahn")
    wl.warm_up()
    op = first_op(wl, "product")
    args, product = answer(wl, op)
    (e, c), rest = product.terms[0], product.terms[1:]
    c = (c + 1) % op.data["p"]
    bad = replace(product, terms=((e, c),) + rest if c else rest)
    assert wl.check(op, args, bad) is not None


def test_hahn_sum_oracle_flags_misordered_terms(lib):
    wl = make(lib, "hahn")
    wl.warm_up()
    op = first_op(wl, "product")
    _, product = answer(wl, op)
    expected = oracles.hahn_dict(product)
    terms = [(e.coords, c) for e, c in product.terms]
    assert oracles.check_hahn_sum(expected, terms) is None
    assert oracles.check_hahn_sum(expected, terms[::-1]) is not None


def test_compare_oracle_flags_a_wrong_sign(lib):
    wl = make(lib, "hahn")
    for kind in ("compare_cached", "compare_refined"):
        op = first_op(wl, kind)
        args, verdict = answer(wl, op)
        assert wl.check(op, args, -verdict) is not None


def test_isqrt_sign_matches_exact_integer_test():
    # a/sqrt(2) - b/sqrt(3) has the sign of 3a^2 - 2b^2 for a, b > 0.
    for a, b in workloads._CONVERGENTS:
        assert oracles.sign({1: a, 2: -b}) == (1 if 3 * a * a > 2 * b * b else -1)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(lib, name):
    wl = make(lib, name)

    def digest(seed):
        rng = Random(seed)
        return workloads.inputs_digest([wl.make_pass(rng) for _ in range(2)])

    assert digest(7) == digest(7)
    assert digest(7) != digest(8)


def traced(lib, wl, op):
    spans = tracer.Tracer()
    spans.install()
    try:
        _, _, result, error = run.timed_call(wl, op, spans, 0)
    finally:
        spans.uninstall()
    assert error is None
    return spans, result


def test_self_times_of_an_op_sum_to_its_duration(lib):
    wl, op = division_op(lib, "tail", 8)
    spans, _ = traced(lib, wl, op)
    own = spans.self_times()
    root = spans.names.index(tracer.OP)
    (i,) = [k for k, n in enumerate(spans.name) if n == root]
    assert len(spans.name) > 10
    assert sum(own) == pytest.approx(spans.end[i] - spans.start[i], rel=1e-9, abs=1e-12)


def test_install_patches_every_binding_and_uninstall_restores_them(lib):
    import tatekit.cli  # noqa: F401  (cli re-imports divide)

    bindings = [
        (lib.weierstrass, "divide"), (lib.frobenius, "divide"),
        (sys.modules["tatekit.cli"], "divide"), (lib.gabber, "compare"),
        (lib.exponents, "compare"), (lib.field.LaurentSeries, "__mul__"),
        (lib.tate.TateElem, "__mul__"),
    ]
    before = [owner.__dict__[key] for owner, key in bindings]
    spans = tracer.Tracer()
    spans.install()
    try:
        during = [owner.__dict__[key] for owner, key in bindings]
    finally:
        spans.uninstall()
    after = [owner.__dict__[key] for owner, key in bindings]
    assert all(d is not b for d, b in zip(during, before))
    assert during[0] is during[1] is during[2]
    assert after == before


def test_traced_divides_include_those_of_the_normalized_splitting(lib):
    wl = make(lib, "series")
    op = first_op(wl, "normalize")
    spans, _ = traced(lib, wl, op)
    metrics = tracer.layer_metrics(spans)
    assert metrics["weierstrass.divide.calls"] == wl.divides(op) == 1
    assert metrics["frobenius.normalize.calls"] == 1


def test_speed_clock_scales_by_the_yardstick_around_each_segment():
    yardstick = iter([2.0, 4.0, 1.0])
    clock = run.SpeedClock(lambda: next(yardstick), reference=1.5, every=3600)
    first, second = [], []
    clock.add(first, 0.3)
    clock.add(second, 0.6)
    assert first == second == []  # scaled only once re-timed after them
    clock.flush()
    assert first == [0.3 * 1.5 / 3.0] and second == [0.6 * 1.5 / 3.0]
    clock.add(first, 0.3)
    clock.flush()
    assert first[1] == 0.3 * 1.5 / 2.5
    assert clock.speeds == [0.5, 0.6]


def test_benchmark_json_lists_the_printed_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.UNITS
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_cli_output_reader_round_trips_the_printer(lib):
    rng = Random(2)
    for _ in range(20):
        p = rng.choice((2, 3, 5))
        data = workloads.draw_tate(rng, 2, p, 3)
        elem = workloads.Builder(lib).tate(2, p, data)
        text = lib.parsing.format_tate(elem)
        assert oracles.read_tate(text, p, 2) == (oracles.tate_dict(elem), None)


def test_division_oracle_accepts_exact_schoolbook_answer(lib):
    wl, op = division_op(lib, "exact", 12)
    _, (q, r) = answer(wl, op)
    f, g = (workloads.as_exact(op.data[k]) for k in ("f", "g"))
    assert oracles.schoolbook_division(f, g, 3) == (oracles.tate_dict(q), oracles.tate_dict(r))


def normalize_op(lib, wl):
    """The first normalize op, over seeds, whose quotient is nonzero."""
    for seed in range(100):
        op = first_op(wl, "normalize", seed)
        args, result = answer(wl, op)
        if result[1].terms:
            return op, args, result
    raise AssertionError("every quotient is zero")


@pytest.mark.parametrize("part", ["unit_value", "monomial", "quotient"])
def test_normalize_oracle_flags_one_corrupted_coefficient(lib, part):
    wl = make(lib, "series")
    op, args, (unital, quotient) = normalize_op(lib, wl)
    if part == "quotient":
        result = (unital, bump(lib, quotient))
    else:
        result = (replace(unital, **{part: bump(lib, getattr(unital, part))}), quotient)
    assert wl.check(op, args, result) is not None


def test_reduced_map_oracle_matches_the_library_on_many_inputs(lib):
    wl = make(lib, "series")
    rng = Random(11)
    for _ in range(40):
        d = wl._draw_normalize(rng)
        psi, f, _ = wl.prepare(workloads.Op("normalize", d))
        expected = oracles.reduced_map(workloads.as_exact(d["f"]), d["p"], (d["shear"],),
                                       workloads.as_exact(d["twist"]))
        assert oracles.tate_dict(psi.apply(f)) == expected
