"""Exact finite-horizon laws of the urn mechanisms, computed apart from urnfield.

Nothing here imports urnfield: the weights are plain Python functions and the
laws are enumerated state by state, so the checks built on them keep holding
after a change that legitimately alters how urnfield computes a result.

* Interacting urns: ``d`` urns hold black and red balls; every step each urn
  adds one ball, black with probability ``p * Wb/(Wb + Wr)`` on the pooled
  counts plus ``(1 - p) * W(b_i)/(W(b_i) + W(r_i))`` on its own counts, the
  urns deciding independently given the counts at the start of the step.
* Multicolor urn: ``d`` categorical draws per step, with probabilities
  ``W(c_j) / sum W`` frozen at the start of the step (a multinomial increment).

Laws are dicts from the final state (a tuple of counts) to its probability.
"""

from __future__ import annotations

import math

from scipy import stats

# Weight functions by name; each maps a ball count to W(count) exactly.
WEIGHTS = {
    "n": lambda n: float(n),
    "n^2": lambda n: float(n) ** 2,
    "n^3": lambda n: float(n) ** 3,
    "(n+1)^3": lambda n: float(n + 1) ** 3,
    "exp1.5": lambda n: 1.5 ** n,
    "exp4": lambda n: 4.0 ** n,
    # the paper's example I: W(2k) = k^4, W(2k+1) = k^4 - k^3 + 1
    "example-I": lambda n: float((n // 2) ** 4 if n % 2 == 0 else (n // 2) ** 4 - (n // 2) ** 3 + 1),
}


def _share(w_a: float, w_b: float) -> float:
    if w_a + w_b <= 0.0:
        raise ValueError("both weights are zero")
    return w_a / (w_a + w_b)


def ium_law(weight, p: float, black0, red0, k: int) -> dict:
    """Law of the black counts per urn after ``k`` interacting-urn steps."""
    d = len(black0)
    added0 = tuple(b + r for b, r in zip(black0, red0))
    law = {tuple(black0): 1.0}
    for n in range(k):
        nxt: dict = {}
        for black, prob in law.items():
            red = [added0[i] + n - black[i] for i in range(d)]
            q_pool = _share(weight(sum(black)), weight(sum(red)))
            q = [p * q_pool + (1.0 - p) * _share(weight(black[i]), weight(red[i])) for i in range(d)]
            for pattern in range(1 << d):
                pr = prob
                for i in range(d):
                    pr *= q[i] if (pattern >> i) & 1 else 1.0 - q[i]
                if pr > 0.0:
                    key = tuple(black[i] + ((pattern >> i) & 1) for i in range(d))
                    nxt[key] = nxt.get(key, 0.0) + pr
        law = nxt
    return law


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def multicolor_law(weight, a, d: int, k: int) -> dict:
    """Law of the color counts after ``k`` steps of ``d`` draws each."""
    nc = len(a)
    increments = [
        (inc, math.factorial(d) / math.prod(math.factorial(v) for v in inc))
        for inc in _compositions(d, nc)
    ]
    law = {tuple(a): 1.0}
    for _ in range(k):
        nxt: dict = {}
        for counts, prob in law.items():
            w = [weight(c) for c in counts]
            total = sum(w)
            if total <= 0.0:
                raise ValueError("every color has zero weight")
            pi = [v / total for v in w]
            for inc, coef in increments:
                pr = prob * coef * math.prod(pi[j] ** inc[j] for j in range(nc))
                if pr > 0.0:
                    key = tuple(c + v for c, v in zip(counts, inc))
                    nxt[key] = nxt.get(key, 0.0) + pr
        law = nxt
    return law


def self_test() -> list[str]:
    """Pólya's urn (W = n, one black and one red ball, one draw per step)
    puts the number of black draws after k steps uniformly on 0..k, for the
    multicolor mechanism and for a single interacting urn alike."""
    problems = []
    for k in (1, 4, 9):
        laws = {
            "multicolor": {c[0] - 1: pr for c, pr in multicolor_law(WEIGHTS["n"], (1, 1), 1, k).items()},
            "ium": {b[0] - 1: pr for b, pr in ium_law(WEIGHTS["n"], 0.37, (1,), (1,), k).items()},
        }
        for name, law in laws.items():
            if sorted(law) != list(range(k + 1)):
                problems.append(f"oracle {name}: support {sorted(law)} at k={k}")
            worst = max(abs(pr - 1.0 / (k + 1)) for pr in law.values())
            if worst > 1e-12:
                problems.append(f"oracle {name}: Pólya law off uniform by {worst:.3g} at k={k}")
    for name, law in (
        ("ium", ium_law(WEIGHTS["n^3"], 0.3, (1, 2), (2, 1), 6)),
        ("multicolor", multicolor_law(WEIGHTS["example-I"], (1, 1, 1), 2, 4)),
    ):
        if abs(sum(law.values()) - 1.0) > 1e-12:
            problems.append(f"oracle {name}: probabilities sum to {sum(law.values())!r}")
    return problems


def goodness_of_fit(samples, law: dict, min_expected: float = 5.0) -> tuple[float, int]:
    """Chi-square goodness of fit of sample rows against an exact law.

    Categories whose expected count is below ``min_expected`` are pooled,
    smallest first, until every bin is adequate.  An observed outcome the law
    gives probability 0 rejects outright.  Returns ``(p_value, n_bins)``.
    """
    observed: dict = {}
    for row in samples:
        key = tuple(int(v) for v in row)
        observed[key] = observed.get(key, 0) + 1
    if any(key not in law for key in observed):
        return 0.0, 0
    n = sum(observed.values())
    cells = sorted(((n * pr, observed.get(key, 0)) for key, pr in law.items()), reverse=True)
    bins: list[list[float]] = []
    for expected, count in cells:
        if bins and bins[-1][0] < min_expected:
            bins[-1][0] += expected
            bins[-1][1] += count
        else:
            bins.append([expected, count])
    while len(bins) > 1 and bins[-1][0] < min_expected:
        expected, count = bins.pop()
        bins[-1][0] += expected
        bins[-1][1] += count
    if len(bins) < 2:
        return 1.0, len(bins)
    statistic = sum((o - e) ** 2 / e for e, o in bins)
    return float(stats.chi2.sf(statistic, len(bins) - 1)), len(bins)
