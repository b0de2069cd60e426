"""End-to-end acceptance checks, one test per headline property.

Each test prints a single [PASS]/[FAIL] line (run with -s to see them all)
and then asserts.  Sizes and budgets are stated inline; every numeric
expectation is either exact or a measured bound with stated slack.
"""

import math
import random
import time
from fractions import Fraction

from dynca import (DYNAMIC_PARAMS, STATIC_PARAMS, AdaptiveLinkForest, Arena,
                   Forest, IncrementalTree, LinkForest, Microset, StaticCa,
                   Stats, alpha, linear_tree)
from dynca.linkforest import _acap
from dynca.traces import as_links, compatible_engines, generate, run

from _checks import (AckermannTable, a_inv, check_compression_exact,
                     check_fat_order, check_link_invariants, tree_stage)

PROFILES = ("leaf-heavy", "query-heavy", "root-heavy",
            "link-balanced", "link-skewed")


def _line(num, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _ramp(n_hi=2000, m_cap=20000, seeds=50):
    r = (8 / n_hi) ** (1 / (seeds - 1))
    for s in range(1, seeds + 1):
        n = max(8, round(n_hi * r ** (seeds - s)))
        yield s, n, min(m_cap, 10 * n)


def test_criterion_1_all_engines_match_oracle():
    """50 traces per profile, seeds 1..50, n to 2000, m to 20000, < 60 s."""
    t0 = time.perf_counter()
    traces = 0
    queries = 0
    bad = []
    for profile in PROFILES:
        for seed, n, m in _ramp():
            tr = generate(seed, profile, n, m)
            rep = run(tr, compatible_engines(tr))
            traces += 1
            queries += rep.reports[0].m
            if not rep.ok:
                bad.append((profile, seed, rep.mismatch))
                continue
            if not profile.startswith("link"):
                rep2 = run(as_links(tr), ["oracle", "link"])
                if not rep2.ok:
                    bad.append((profile, seed, "link-reduction", rep2.mismatch))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 60.0
    _line(1, ok,
          f"{traces} traces, {queries} queries, all engines == oracle, "
          f"{elapsed:.1f} s (< 60 s)" if ok else f"failures {bad[:3]}, "
          f"{elapsed:.1f} s")


def test_criterion_2_fat_preorder_validity():
    """Numbering sweeps after every mutation, n <= 500, both param sets;
    parameter inequalities exact, with the coarsened displays recovered."""
    problems = []

    sp = STATIC_PARAMS.validate()
    dy = DYNAMIC_PARAMS.validate()
    if not (sp["eq_pack_lo"] <= sp["c_minus_2"] <= sp["eq_pack_hi"]):
        problems.append("static packing inequality")
    if not (dy["eq_pack_lo"] <= dy["c_minus_2"] <= dy["eq_pack_hi"]):
        problems.append("dynamic packing inequality")
    if not dy["eq_growth_lhs"] <= dy["c_minus_2"]:
        problems.append("dynamic growth inequality")
    # one-decimal outward roundings of the exact bounds
    lo_d = Fraction(math.ceil(dy["eq_pack_lo"] * 10), 10)
    hi_d = Fraction(math.floor(dy["eq_pack_hi"] * 10), 10)
    gl_d = Fraction(math.ceil(dy["eq_growth_lhs"] * 100), 100)
    if (lo_d, dy["c_minus_2"], hi_d) != (Fraction(11, 10), 3, Fraction(41, 10)):
        problems.append(f"display {lo_d} <= 3 <= {hi_d}")
    if gl_d != Fraction(293, 100):
        problems.append(f"display {gl_d} <= 3")

    rng = random.Random(0xACC2)
    try:
        f = Forest()
        f.make_node()
        for i in range(499):
            y = f.make_node()
            f.add_leaf(rng.randrange(y), y)
            sca = StaticCa(f)
            check_fat_order(sca, range(y + 1), 0, STATIC_PARAMS)
            if i % 25 == 0:
                check_compression_exact(sca, f, range(y + 1), 0)
    except AssertionError as e:
        problems.append(f"static sweep: {e}")
    try:
        t = IncrementalTree(520)
        for _ in range(499):
            if rng.random() < 0.25:
                t.add_root()
            else:
                t.add_leaf(rng.randrange(t.n))
            check_fat_order(t, range(t.n), 0, DYNAMIC_PARAMS, incremental=True)
    except AssertionError as e:
        problems.append(f"dynamic sweep: {e}")

    _line(2, not problems,
          "properties (i)-(iii), packing equation, laminarity after every "
          "mutation to n=500, both parameter sets; exact bounds give "
          "1.1 <= 3 <= 4.1 and 2.93 <= 3" if not problems else str(problems))


def test_criterion_3_constant_query_steps():
    """Static and microset step counters stay within 12 across sizes."""
    maxima = []
    for k in (8, 10, 12, 14):
        n = 1 << k
        rng = random.Random(k)
        f = Forest()
        f.make_node()
        for _ in range(n - 1):
            y = f.make_node()
            f.add_leaf(rng.randrange(y), y)
        sca = StaticCa(f)
        for _ in range(4000):
            sca.ca(rng.randrange(n), rng.randrange(n))
        maxima.append(sca.stats.max_query_steps)

    rng = random.Random(5)
    st = Stats()
    ms = Microset(0, 63, [0] * 64, Arena(), st)
    mem = [0]
    for v in range(1, 63):
        ms.add(rng.choice(mem), v)
        mem.append(v)
    for _ in range(4000):
        ms.ca(rng.choice(mem), rng.choice(mem))
    micro = st.max_query_steps

    ok = all(v <= 12 for v in maxima) and micro <= 12 \
        and maxima[-1] <= maxima[0]
    _line(3, ok, f"static max steps {maxima} across n=2^8..2^14, "
                 f"microset max {micro}; all <= 12, zero growth")


def test_criterion_4_incremental_amortization():
    """Per-node renumber bound and n*log^2 n total-work scaling."""
    problems = []
    xs = []
    ys = []
    ratios = []
    for k in range(8, 14):
        n = 1 << k
        rng = random.Random(k)
        t = IncrementalTree(n)
        for _ in range(n - 1):
            t.add_leaf(rng.randrange(t.n))
        bound = t._flb(t.params.c * n ** t.params.e) + 1
        if max(t.renum) > bound:
            problems.append(f"renum {max(t.renum)} > {bound} at n={n}")
        work = t.stats.recompression_nodes + t.stats.table_entries
        xs.append(math.log(n * math.log2(n) ** 2))
        ys.append(math.log(work))
        ratios.append(work / (n * math.log2(n) ** 2))

    # adversarial shapes at one size: a path and a star
    n = 1 << 10
    for shape in ("path", "star"):
        t = IncrementalTree(n)
        for _ in range(n - 1):
            t.add_leaf(t.n - 1 if shape == "path" else 0)
        bound = t._flb(t.params.c * n ** t.params.e) + 1
        if max(t.renum) > bound:
            problems.append(f"{shape} renum {max(t.renum)} > {bound}")

    mx = sum(xs) / len(xs)
    my = sum(ys) / len(ys)
    slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / \
        sum((x - mx) ** 2 for x in xs)
    if slope > 1.1:
        problems.append(f"log-log slope {slope:.3f} > 1.1")

    _line(4, not problems,
          f"per-node renumberings within floor(log_beta c*n^e)+1 for every "
          f"node (random, path, star); work/(n log^2 n) in "
          f"[{min(ratios):.1f}, {max(ratios):.1f}], log-log slope "
          f"{slope:.3f} <= 1.1" if not problems else str(problems))


def test_criterion_5_linear_three_level():
    """Total work linear in m+n; arena never past 4x live cells."""
    problems = []
    ratios = []
    for k in (10, 11, 12, 13, 14):
        n = 1 << k
        m = 2 * n
        rng = random.Random(k)
        t = linear_tree(n)
        fine_grained = k == 10
        for _ in range(n - 1):
            t.add_leaf(rng.randrange(t.n))
            if fine_grained and t.arena.used > 4 * t.arena.total_live:
                problems.append(f"arena {t.arena.used} > 4x live at n={t.n}")
        for _ in range(m):
            t.ca(rng.randrange(n), rng.randrange(n))
        if t.arena.used > 4 * t.arena.total_live:
            problems.append(f"arena end state over 4x live at n={n}")
        ratios.append(t.stats.work / (m + n))
    if max(ratios) > 16.0:
        problems.append(f"work ratio {max(ratios):.2f} > 16")
    if ratios[-1] > 1.25 * ratios[0]:
        problems.append(f"work ratio drifts {ratios[0]:.2f} -> {ratios[-1]:.2f}")
    _line(5, not problems,
          f"work/(m+n) in [{min(ratios):.1f}, {max(ratios):.1f}] across "
          f"n=2^10..2^14 (flat within 25%); arena cells <= 4x live, exact, "
          f"at every step" if not problems else str(problems))


def test_criterion_6_link_engine_bounds():
    """Eta bound each step, stage/subtree-count sweeps, Ackermann laws."""
    problems = []

    # tabulated identities at the stated size
    try:
        AckermannTable(1 << 20).check_identities()
    except AssertionError as e:
        problems.append(f"tabulated identities: {e}")

    # exact shadow for the doubling and level-shift laws, i, j <= 20
    CAP = 1 << 100
    for i in range(1, 21):
        for j in range(1, 21):
            a = _acap(i, j, CAP)
            b = _acap(i, j + 1, CAP)
            if a < CAP // 2 and b < 2 * a:
                problems.append(f"A({i},{j+1}) < 2A({i},{j})")
            if j >= 4 and i < 20 and 2 * j <= 20:
                lo = _acap(i, 2 * j, CAP)
                hi = _acap(i + 1, j, CAP)
                if lo < CAP and hi < lo:
                    problems.append(f"A({i+1},{j}) < A({i},{2*j})")
    # shift robustness of alpha at the stated size
    n20 = 1 << 20
    for m in (1, n20 // 2, n20, 4 * n20):
        base = alpha(m, n20)
        for m2, n2 in ((2 * m, n20), (m, 2 * n20), (2 * m, 2 * n20)):
            if alpha(m2, n2) < base - 1:
                problems.append(f"alpha({m2},{n2}) < alpha({m},{n20})-1")

    # five nodes merged into one tree sit in stage 1
    lf = LinkForest(1, 16)
    v = [lf.make_node() for _ in range(5)]
    for i in range(4):
        lf.link(v[0], v[i + 1])
    st = tree_stage(lf, 1, v[0])
    if st != 1:
        problems.append(f"5-node tree in stage {st}")

    # per-link sweeps: stage rule, subtree-count bound, eta bound
    rng = random.Random(0xACC6)
    for level in (1, 2):
        n = 500
        lf = LinkForest(level, n)
        for _ in range(n):
            lf.make_node()
        roots = list(range(n))
        linked = set()
        try:
            while len(roots) > 1:
                i, j = rng.sample(range(len(roots)), 2)
                x, y = roots[i], roots[j]
                roots.remove(y)
                lf.link(x, y)
                linked.update((x, y))
                check_link_invariants(lf)
                ln = max(2, len(linked))
                if lf.stats.eta > 2 * ln * a_inv(level, ln):
                    problems.append(f"eta {lf.stats.eta} over bound at "
                                    f"level {level}, n={ln}")
                    break
        except AssertionError as e:
            problems.append(f"level-{level} sweep: {e}")

    _line(6, not problems,
          "eta <= 2n*a_l(n) after every link (levels 1 and 2, n=500); "
          "stage and subtree-count sweeps clean; Ackermann doubling, "
          "level-shift (j>=4), and alpha-shift laws hold to n=2^20; "
          "5-node merge lands in stage 1" if not problems else str(problems))


def _adversarial(m_queries, n=10 ** 4):
    """Alternating link bursts and query floods; returns the forest and
    the externally predicted reorganization log."""
    rng = random.Random(99)
    af = AdaptiveLinkForest(n)
    for _ in range(n):
        af.make_node()
    roots = list(range(n))
    hot = list(range(64))
    predicted = []
    m1 = n1 = ops = 0
    level = 0
    counted = set()

    def advance(nodes):
        nonlocal m1, n1, ops, level
        ops += 1
        m1 += 1
        for u in nodes:
            if u not in counted:
                counted.add(u)
                n1 += 1
        lv = alpha(m1, n1)
        if level == 0:
            level = lv
        elif lv != level and lv != level - 1:
            predicted.append((ops, level, lv))
            level = lv

    links = q = 0
    while links < n - 1 or q < m_queries:
        for _ in range(min(200, n - 1 - links)):
            i = rng.randrange(len(roots) - 1) + 1
            y = roots.pop(i)
            advance((roots[0], y))
            af.link(roots[0], y)
            links += 1
        for _ in range(min(m_queries - q, 20000)):
            a, b = rng.choice(hot), rng.choice(hot)
            if links:
                advance(())
            af.nca(a, b)
            q += 1
    return af, predicted


def test_criterion_7_adaptive_wrapper():
    """n=10^4, m=10^6 adversarial mix: reorganizations exactly at the
    alpha crossings, work/(m*alpha+n) bounded as m doubles."""
    problems = []
    ratios = []
    logs = []
    n = 10 ** 4
    for m in (250000, 500000, 1000000):
        af, predicted = _adversarial(m, n)
        if list(af.reorg_log) != predicted:
            problems.append(f"m={m}: reorgs {af.reorg_log} != {predicted}")
        logs.append(list(af.reorg_log))
        work = af.stats.work + af.stats.eta
        ratios.append(work / (m * alpha(af.m1, af.n1) + n))
    if max(ratios) > 30.0:
        problems.append(f"work ratio {max(ratios):.1f} > 30")
    if any(b > a for a, b in zip(ratios, ratios[1:])):
        problems.append(f"work ratio grows with m: {ratios}")
    _line(7, not problems,
          f"reorganizations exactly at predicted crossings {logs[-1]} for "
          f"m=250k/500k/1M; work/(m*alpha(m,n)+n) = "
          f"{[round(r, 1) for r in ratios]}, nonincreasing"
          if not problems else str(problems))
