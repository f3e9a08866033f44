"""Acceptance gate: the nine top-level criteria, one pass/fail line each.

Each criterion prints exactly one line of the form

    criterion N (name): PASS|FAIL

and asserts the same condition, so the suite fails iff a criterion fails.
Run with `pytest -rA` (or `-s`) to see the lines.
"""

import json
import random
import time

from parstack import (QQ, InadmissibleProfile, TrialConfig, from_parabolic, make_profile,
                      to_parabolic)
from parstack.cli import main as cli_main
from parstack.harness import (SUITES, gen_parabolic_point, gen_profile,
                              verify_direct_image, verify_pullback)

from conftest import (GF101, MUTATIONS, degree_scenario_trial, gen_graded_module,
                      run_mutation)


def _report(num, name, ok):
    print("criterion %d (%s): %s" % (num, name, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d (%s) failed" % (num, name)


def test_criterion_1_round_trip():
    t0 = time.monotonic()
    rng = random.Random(1001)
    ok = True
    for i in range(500):
        field = QQ if i % 2 == 0 else GF101
        n, r = rng.randint(1, 4), rng.randint(1, 8)
        pt = gen_parabolic_point(rng, n, r, field)
        ok = ok and to_parabolic(from_parabolic(pt)) == pt
        mod = gen_graded_module(rng, n, r, field)
        ok = ok and from_parabolic(to_parabolic(mod)) == mod
        if not ok:
            break
    elapsed = time.monotonic() - t0
    _report(1, "correspondence round trip", ok and elapsed < 30)


def test_criterion_2_direct_image():
    t0 = time.monotonic()
    cfg = TrialConfig(seed=2002, trials=200, max_rank=3, max_order=12,
                      max_branches=3)
    rep = verify_direct_image(cfg)
    elapsed = time.monotonic() - t0
    _report(2, "direct image differential check", rep.passed
            and len(rep.verdicts) == 200 and elapsed < 120)


def test_criterion_3_pullback():
    t0 = time.monotonic()
    cfg = TrialConfig(seed=3003, trials=200, max_rank=3, max_order=12)
    rep = verify_pullback(cfg)
    elapsed = time.monotonic() - t0
    _report(3, "pullback differential check", rep.passed
            and len(rep.verdicts) == 200 and elapsed < 120)


def test_criterion_4_weight_laws():
    # the weight-law identities are re-derived here independently of the
    # suite bookkeeping: push alpha -> {(alpha+l)/e}, pull alpha -> {alpha*e}
    from parstack import (pullback_parabolic, pushforward_parabolic)

    rng = random.Random(4004)
    ok = True
    for _ in range(50):
        s = rng.randint(1, 10)
        profile, ranks = gen_profile(rng, s, 3, QQ, rank_bound=8, max_rank=2)
        pts = [gen_parabolic_point(rng, n, br.r)
               for br, n in zip(profile.branches, ranks)]
        pushed = pushforward_parabolic(profile, pts)
        expected = {}
        for br, pt in zip(profile.branches, pts):
            for w, m in pt.weights():
                for l in range(br.e):
                    key = (w + l) / br.e
                    expected[key] = expected.get(key, 0) + m
        ok = ok and expected == dict(pushed.weights())

        e = rng.choice([d for d in range(1, s + 1) if s % d == 0])
        single = make_profile(s, [("x", e, s // e, QQ.one)])
        point = gen_parabolic_point(rng, rng.randint(1, 3), s)
        pulled = pullback_parabolic(single, point, "x")
        exp2 = {}
        twist_total = 0
        for w, m in point.weights():
            scaled = w * e
            twist = scaled.numerator // scaled.denominator
            exp2[scaled - twist] = exp2.get(scaled - twist, 0) + m
            twist_total += twist * m
        ok = ok and exp2 == dict(pulled.weights())
        ok = ok and pulled.chain[0].det_valuation() == \
            e * point.chain[0].det_valuation() - twist_total
        if not ok:
            break
    _report(4, "weight image laws", ok)


def test_criterion_5_admissibility():
    rng = random.Random(5005)
    ok = True
    for _ in range(100):
        s = rng.randint(1, 12)
        profile, _ = gen_profile(rng, s, 3, QQ)
        ok = ok and all(br.r * br.e == s for br in profile.branches)
    negatives = [
        (2, [("x", 2, 2, QQ.one)]),
        (3, [("x", 2, 2, QQ.one)]),
        (4, [("x", 3, 1, QQ.one)]),
        (4, [("x", 1, 3, QQ.one)]),
        (5, [("x", 2, 2, QQ.one)]),
        (6, [("x", 4, 1, QQ.one)]),
        (6, [("x", 6, 2, QQ.one)]),
        (7, [("x", 7, 7, QQ.one)]),
        (8, [("x0", 2, 4, QQ.one), ("x1", 3, 2, QQ.one)]),
        (9, [("x0", 9, 1, QQ.one), ("x1", 2, 2, QQ.one)]),
        (10, [("x", 10, 10, QQ.one)]),
        (12, [("x", 5, 2, QQ.one)]),
    ]
    detected = 0
    for s, specs in negatives:
        try:
            make_profile(s, specs)
        except InadmissibleProfile:
            detected += 1
    _report(5, "profile admissibility", ok and detected == len(negatives)
            and detected >= 10)


def test_criterion_6_degree_multiplicativity():
    rng = random.Random(6006)
    ok = True
    for _ in range(50):
        pulled, oracle = degree_scenario_trial(rng)
        ok = ok and pulled == oracle
    _report(6, "degree multiplicativity", ok)


def test_criterion_7_pairing_transport():
    t0 = time.monotonic()
    cfg = TrialConfig(seed=7007, trials=1, max_order=8)
    master = random.Random(7007)
    counts = {"symmetric": 0, "antisymmetric": 0}
    ok = True
    while ok and min(counts.values()) < 100:
        passed, note, instance = SUITES["corollaries"].trial(
            master.getrandbits(64), cfg, None)
        ok = ok and passed
        if instance is not None and not note.startswith("no "):
            kind = instance["kind"]
            if counts[kind] < 100:
                counts[kind] += 1
        if time.monotonic() - t0 > 120:
            ok = False
            break
    elapsed = time.monotonic() - t0
    _report(7, "pairing transport corollaries", ok and elapsed < 120
            and counts == {"symmetric": 100, "antisymmetric": 100})


def test_criterion_8_mutation_sensitivity():
    ok = len(MUTATIONS) == 20
    for suite, mutation, seed in MUTATIONS:
        rep = run_mutation(suite, mutation, seed)
        detected = (not rep.passed) and bool(rep.failures)
        replayable = detected and bool(rep.failures[0].get("instance")) \
            and rep.failures[0]["note"] == rep.verdicts[0][2]
        ok = ok and detected and replayable
    _report(8, "mutation sensitivity", ok)


def test_criterion_9_determinism_and_replay(tmp_path, capsys):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    ok = cli_main(["verify", "--trials", "8", "--seed", "99", "--out", a]) == 0
    ok = ok and cli_main(["verify", "--trials", "8", "--seed", "99",
                          "--out", b]) == 0
    da, db = json.loads(open(a).read()), json.loads(open(b).read())
    da.pop("timing"), db.pop("timing")
    ok = ok and da == db
    # every captured counterexample replays to its recorded verdict
    for suite, mutation, seed in MUTATIONS[:4]:
        rep = run_mutation(suite, mutation, seed)
        path = tmp_path / ("cex_%s_%d.json" % (mutation, seed))
        path.write_text(json.dumps(rep.failures[0]))
        ok = ok and cli_main(["replay", str(path)]) == 0
    capsys.readouterr()
    _report(9, "determinism and replay", ok)
