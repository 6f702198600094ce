"""Plumbing tests for the verification suites.

The suites themselves run (at their full ranges) in test_acceptance.py;
here we exercise the runner surface, a representative small suite, the
failure text of injected disagreements and the pinned random samples.
"""

import hashlib
import itertools
import types

import pytest

from votelace import verify
from votelace.verify import DEFAULT_SEED, SUITES, run_suite


def test_registry_is_complete():
    assert sorted(SUITES) == [
        "bh-equivalence",
        "bound3",
        "closed-forms",
        "cor43",
        "gamma-link",
        "prop33",
        "recurrence",
        "thm32",
        "thm41",
        "weak-bruhat",
    ]


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_small_suite_reports_checks():
    result = run_suite("closed-forms")
    assert result.passed
    assert result.checked == 88 + 30 + 13


@pytest.mark.parametrize(
    "suite, checked", [("bound3", 2), ("recurrence", 14), ("gamma-link", 6)], ids=["bound3", "recurrence", "gamma-link"]
)
def test_suite_runs_in_process(monkeypatch, suite, checked):
    # their cells are too small to pay for a pool, so jobs is ignored
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError(f"{suite} opened a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    result = run_suite(suite, jobs=2)
    assert result.passed and result.checked == checked
    if suite == "bound3":
        assert result.info == ["(3,3): count=204 bound=216", "(4,3): count=9168 bound=13680"]


def _flipped(route, picks, calls=None):
    # ``route`` with the result of the calls numbered in ``picks`` (from 0,
    # on ``calls`` when several routes share one numbering) negated
    calls = itertools.count() if calls is None else calls

    def flipped(*args):
        out = route(*args)
        return not out if next(calls) in picks else out

    return flipped


def _stand_in(recognizer, wrap):
    # ``recognizer`` as the suites read it, its signature, table(m) and
    # rule(m), with every rule passed through ``wrap`` (which sees one call
    # per election, in the order the suite checks them, under
    # _per_election_verdicts)
    return types.SimpleNamespace(
        signature=recognizer.signature, table=recognizer.table, rule=lambda m: wrap(recognizer.rule(m))
    )


def _per_election_verdicts(table, n, test):
    # the verdict stream in the order verify.verdicts yields it, with the
    # test called once per election: a stand-in rule is a plain function,
    # which the walks over fold and multiset rules do not take
    return map(test, itertools.product(table, repeat=n))


def test_failures_carry_counterexamples(monkeypatch):
    # one injected disagreement per suite; the text is pinned character for
    # character.  A recognizer's rules share one call numbering across cells
    monkeypatch.setattr(verify, "verdicts", _per_election_verdicts)
    calls = itertools.count()
    bh = _stand_in(verify.domains.is_group_separable_bh, lambda rule: _flipped(rule, {100, 24698}, calls))
    monkeypatch.setattr(verify.domains, "is_group_separable_bh", bh)
    assert run_suite("bh-equivalence").failures == [
        "(m,n)=(3,3) election '1 3 2\\n1 2 3\\n3 2 1': direct=True bh=False",
        "sampled (5,4) election '2 5 1 3 4\\n2 5 3 1 4\\n1 3 5 2 4\\n1 5 2 3 4': direct=False bh=True",
    ]
    calls = itertools.count()
    recursive = _stand_in(verify.domains.is_enriched_recursive, lambda rule: _flipped(rule, {7, 20000}, calls))
    monkeypatch.setattr(verify.domains, "is_enriched_recursive", recursive)
    assert run_suite("thm32").failures == [
        "(m,n)=(2,2) election '2 1\\n1 2': configuration=True recursive=False",
        "(m,n)=(5,2) election '2 5 3 1 4\\n1 5 3 4 2': configuration=True recursive=False",
    ]
    monkeypatch.setattr(verify, "contains_3voter", _flipped(verify.contains_3voter, {5000, 24183}))
    assert run_suite("thm41").failures == [
        "tau=1 2 3 sigma=3 1 2 pi=2 4 1 3 rho=2 3 1 4: strong-order=True generic=False",
        "sampled tau=3 1 2 sigma=2 3 1 pi=5 1 3 4 2 rho=5 1 3 4 2: strong-order=True generic=False",
    ]
    monkeypatch.setattr(verify, "weak_bruhat_le", _flipped(verify.weak_bruhat_le, {777}))
    result = run_suite("weak-bruhat")
    assert result.checked == 15017
    assert result.failures == ["pi=1 2 3 5 4 rho=2 4 5 1 3: avoids-[12|21]=False inversion-subset=True"]


def _sampled_digest(monkeypatch, suite, seed):
    # sha256 of the inputs of the suite's seeded samples, which are its last route calls
    seen = []
    if suite == "bh-equivalence":
        # a stand-in for the direct recognizer whose signature is the ranking
        # itself, so its rule sees the drawn rankings; it records them and
        # applies the real signature and rule
        real = verify.domains.is_group_separable_direct

        def rule(m):
            def recorded(orders):
                orders = tuple(orders)
                seen.append(orders)
                return real.rule(m)(map(real.signature, orders))

            return recorded

        rankings = lambda m: list(itertools.permutations(range(1, m + 1)))
        direct = types.SimpleNamespace(signature=tuple, table=rankings, rule=rule)
        monkeypatch.setattr(verify.domains, "is_group_separable_direct", direct)
        monkeypatch.setattr(verify, "verdicts", _per_election_verdicts)
        samples = 10_000
    else:
        route = verify.contains_3voter

        def record(pi, rho, tau, sigma):
            seen.append(tuple(p.values for p in (tau, sigma, pi, rho)))
            return route(pi, rho, tau, sigma)

        monkeypatch.setattr(verify, "contains_3voter", record)
        samples = 1000
    assert run_suite(suite, seed=seed).passed
    return hashlib.sha256(repr(seen[-samples:]).encode()).hexdigest()


@pytest.mark.parametrize(
    "suite, seed, digest",
    [
        ("bh-equivalence", DEFAULT_SEED, "bfabe4e2b9f8dbcff057493adb70d2ea5772b6a9a1354db73a4beebc81e9717a"),
        ("bh-equivalence", 7, "ac22e3eb60c39110a2ff7a64170673a4238c50016463e6de6b24ddb506c8941b"),
        ("thm41", DEFAULT_SEED, "ed76a55f86907db9f2dfa68b8a134cc7927b766896ee3a86eb87a158822c4ac7"),
        ("thm41", 7, "d13edbd18a8e569b15c0de84b5054d23d6c0f3ab7c4cef167f22dd83d5b2ad05"),
    ],
    ids=["bh-equivalence-default-seed", "bh-equivalence-seed-7", "thm41-default-seed", "thm41-seed-7"],
)
def test_sampled_inputs_are_pinned(monkeypatch, suite, seed, digest):
    # the 10,000 sampled (5,4) elections and the 1,000 sampled (tau, sigma, pi, rho),
    # in draw order: a faster sampler must keep the random stream
    assert _sampled_digest(monkeypatch, suite, seed) == digest


def test_two_voter_enriched_counts_factor_through_avoiders():
    # m! * |Av_m| equals the brute-force enriched count for m <= 6
    result = run_suite("gamma-link")
    assert result.passed
    assert result.checked == 6
