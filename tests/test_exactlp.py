"""The exact phase-1 simplex against two references: brute force over every
basis, and Bland's rule on the dense tableau, whose solutions it must return
unchanged; on random small systems and on the LPs of a real validation."""

import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest

from conelab import exactlp, linalg
from conelab.configurations import disjoint_minus_one_configuration, validate_configuration


def basic_solutions(columns, target):
    """(support, values) for every set of at most m linearly independent
    columns whose span holds the target, solved by Gauss-Jordan."""
    m = len(target)
    for size in range(m + 1):
        for support in combinations(range(len(columns)), size):
            aug = [[columns[j][i] for j in support] + [target[i]] for i in range(m)]
            reduced, pivots = linalg.rref(aug)
            if pivots == list(range(size)):  # independent, target in the span
                yield support, [Fraction(row[-1], row[i]) for i, row in enumerate(reduced[:size])]


def brute_force_feasible(columns, target):
    # Caratheodory: a feasible system has a non-negative basic solution
    return any(all(v >= 0 for v in values) for _, values in basic_solutions(columns, target))


def gauss_jordan_step(tab, r, c):
    """Fraction pivot of the reference, apart from the integer pivot of the
    simplex under test: scale row r to a 1 in column c, clear column c."""
    pv = tab[r][c]
    tab[r] = [x / pv for x in tab[r]]
    for i in range(len(tab)):
        if i != r and tab[i][c] != 0:
            f = tab[i][c]
            tab[i] = [x - f * y for x, y in zip(tab[i], tab[r])]


def dense_tableau(columns, target):
    """Bland's rule on the full (m+1) x (n+m+1) phase-1 tableau, run until no
    column has positive reduced cost."""
    m, n = len(target), len(columns)
    a = [[Fraction(columns[j][i]) for j in range(n)] for i in range(m)]
    b = [Fraction(t) for t in target]
    for i in range(m):
        if b[i] < 0:
            a[i], b[i] = [-x for x in a[i]], -b[i]
    tab = [a[i] + [Fraction(int(i == j)) for j in range(m)] + [b[i]] for i in range(m)]
    cost = [sum(col) for col in zip(*tab)]
    tab.append([c - (n <= j < n + m) for j, c in enumerate(cost)])
    basis = list(range(n, n + m))
    while (enter := next((j for j in range(n + m) if tab[m][j] > 0), None)) is not None:
        ratios = [(tab[i][-1] / tab[i][enter], basis[i], i) for i in range(m) if tab[i][enter] > 0]
        leave = min(ratios)[2]
        gauss_jordan_step(tab, leave, enter)
        basis[leave] = enter
    if tab[m][-1] != 0:
        return None
    solution = [Fraction(0)] * n
    for i, var in enumerate(basis):
        if var < n:
            solution[var] = tab[i][-1]
    return solution


def exact_value(v):
    """The solution's contract: an int when the value is integral, and
    otherwise a Fraction with a denominator greater than 1."""
    return type(v) is int or (type(v) is Fraction and v.denominator > 1)


def random_system(rng):
    m = rng.randint(2, 5)
    columns = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(rng.randint(1, 7))]
    if rng.random() < 0.3:
        columns.insert(rng.randrange(len(columns) + 1), [0] * m)
    if rng.random() < 0.3:
        columns.append(list(rng.choice(columns)))
    kind = rng.choice(["random", "combination", "face", "zero"])
    if kind == "random":
        target = [rng.randint(-3, 3) for _ in range(m)]
    elif kind == "zero":
        target = [0] * m
    else:
        # a non-negative combination, of few columns for a target on a face
        size = min(2, len(columns)) if kind == "face" else len(columns)
        used = rng.sample(columns, rng.randint(1, size))
        weights = [rng.randint(0, 2) for _ in used]
        target = [sum(w * c[i] for w, c in zip(weights, used)) for i in range(m)]
    return columns, target


def test_matches_brute_force_and_the_dense_tableau():
    rng = random.Random(11)
    seen = {"feasible": 0, "infeasible": 0, "negative target": 0, "zero target": 0}
    for _ in range(300):
        columns, target = random_system(rng)
        m = len(target)
        x = exactlp.nonnegative_combination(columns, target)
        assert (x is not None) == brute_force_feasible(columns, target), (columns, target)
        assert x == dense_tableau(columns, target), (columns, target)
        seen["feasible" if x is not None else "infeasible"] += 1
        seen["negative target"] += any(t < 0 for t in target)
        seen["zero target"] += all(t == 0 for t in target)
        if x is None:
            continue
        assert len(x) == len(columns) and all(exact_value(v) and v >= 0 for v in x)
        assert [sum(v * c[i] for v, c in zip(x, columns)) for i in range(m)] == target
        assert sum(1 for v in x if v) <= m
    assert min(seen.values()) >= 20, seen


@pytest.mark.parametrize(
    "columns,target,expected",
    [
        # no columns: only the zero target
        ([], [0, 0], []),
        ([], [1, 0], None),
        # a zero column never enters; a duplicate column gives the lower index
        ([[0, 0], [1, 1], [1, 1]], [2, 2], [0, 2, 0]),
        # a target on a face of the cone: the degenerate basis keeps zeros
        ([[1, 0], [0, 1], [1, 1]], [0, 3], [0, 3, 0]),
        # a tie in the ratio test goes to the lower basic index
        ([[-1, -2, 2], [1, 1, 1], [1, 2, 0], [-1, 1, -2]], [-1, -1, 1],
         [Fraction(5, 6), 0, Fraction(1, 6), Fraction(1, 3)]),
        # negative target entries are flipped into the right-hand side
        ([[-1, 0], [0, -2]], [-2, -1], [2, Fraction(1, 2)]),
        ([[1, 0], [0, 1]], [-1, 1], None),
    ],
)
def test_small_systems(columns, target, expected):
    x = exactlp.nonnegative_combination(columns, target)
    # the types too: an int beside a Fraction where a denominator occurs
    assert x == expected and [type(v) for v in x or ()] == [type(v) for v in expected or ()]


def validation_lps(monkeypatch, cfg):
    """The report of validate_configuration(cfg) and its LP calls, as
    (columns, target, solution)."""
    solve, calls = exactlp.nonnegative_combination, []

    def capture(columns, target):
        calls.append((columns, target, solve(columns, target)))
        return calls[-1][2]

    monkeypatch.setattr(exactlp, "nonnegative_combination", capture)
    return validate_configuration(cfg), calls


def test_matches_the_dense_tableau_at_validation_size(monkeypatch):
    # the LPs of a seven-blowup validation: 8 rows and about 190 columns
    _, calls = validation_lps(monkeypatch, disjoint_minus_one_configuration(7, 3))
    sample = calls[::6]
    assert len(sample) >= 9 and min(len(columns) for columns, _, _ in sample) > 100
    for columns, target, solution in sample:
        assert solution is not None and solution == dense_tableau(columns, target), target


def test_eight_blowup_decompositions_sum_to_their_targets(monkeypatch):
    report, calls = validation_lps(monkeypatch, disjoint_minus_one_configuration(8, 8))
    assert report.passed and len(report.decompositions) == len(calls) == 240
    for (target, used), (columns, lp_target, x) in zip(report.decompositions, calls):
        assert lp_target == target.coeffs and tuple(x[: len(used)]) == used
        assert all(exact_value(v) and v >= 0 for v in x)
        terms = [(v, c) for v, c in zip(x, columns) if v]
        total = tuple(sum(v * c[i] for v, c in terms) for i in range(len(target.coeffs)))
        assert total == target.coeffs, target


def test_eight_blowup_solutions_are_pinned(monkeypatch):
    # every value of the 240 LP solutions, as the dense-tableau pivots gave
    # them; a change to the simplex must keep each pivot and each value
    _, calls = validation_lps(monkeypatch, disjoint_minus_one_configuration(8, 8))
    text = "\n".join(" ".join(map(str, x)) for _, _, x in calls)
    assert len(calls) == 240
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1faa283a68f8b8c2dcd621588d576d57ade09563ed0ebab35de3b44d4ec31837"
    )


def test_eight_blowup_validation_pivot_count_is_pinned(monkeypatch):
    # with the pinned solutions, a structural guard on "the same pivots": the
    # 240 simplexes and the row reductions of the validation, counted as calls
    pivot, calls = linalg.pivot, []

    def counted(*args):
        calls.append(1)
        return pivot(*args)

    monkeypatch.setattr(linalg, "pivot", counted)
    assert validate_configuration(disjoint_minus_one_configuration(8, 8)).passed
    assert len(calls) == 2086


def test_a_basic_solution_that_misses_the_target_raises(monkeypatch):
    # the integer check of the certificate, not an assert: a pivot that
    # leaves each entering value one unit off is caught before returning
    pivot = linalg.pivot

    def off_by_one(mat, r, c, d):
        p = pivot(mat, r, c, d)
        mat[r][-1] += 1
        return p

    monkeypatch.setattr(linalg, "pivot", off_by_one)
    with pytest.raises(ArithmeticError, match="does not reproduce the target"):
        exactlp.nonnegative_combination([[1, 0], [0, 1]], [2, 3])
