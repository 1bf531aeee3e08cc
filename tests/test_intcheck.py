import ast
import random
import sys
from itertools import combinations, permutations
from math import prod
from pathlib import Path
from types import ModuleType

from schurpaths import intcheck
from schurpaths.combinat import partitions_in_box


def test_intcheck_imports_only_the_standard_library():
    # the anchors are worth something only while no ring code reaches them
    tree = ast.parse(Path(intcheck.__file__).read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"relative import at line {node.lineno}"
            imported.append(node.module)
        elif isinstance(node, ast.Name):
            assert node.id != "__import__", f"dynamic import at line {node.lineno}"
    assert imported, "the walk found no imports at all"
    for name in imported:
        root = name.split(".")[0]
        assert root == "__future__" or root in sys.stdlib_module_names, name
        assert root != "importlib", name
    modules = [value for value in vars(intcheck).values() if isinstance(value, ModuleType)]
    assert not [m for m in modules if m.__name__.startswith("schurpaths")]


def test_the_point_has_distinct_coordinates_in_each_family():
    for family in (intcheck.x, intcheck.y, intcheck.a):
        values = [family(i) for i in range(1, 40)]
        assert len(set(values)) == len(values) and 0 not in values
    assert intcheck.xs(3) == [-3, 7, -13] and intcheck.ys(2) == [-4, 10]


def _leibniz(rows):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(n))
    return total


def test_det_matches_the_leibniz_expansion():
    rng = random.Random(8)
    assert intcheck.det([]) == 1
    assert intcheck.det([[0, 1], [1, 0]]) == -1  # needs a row swap
    assert intcheck.det([[1, 2], [2, 4]]) == 0
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        assert intcheck.det(rows) == _leibniz(rows), rows


def test_vandermonde_is_the_product_of_differences():
    assert intcheck.vandermonde([]) == 1 and intcheck.vandermonde([5]) == 1
    assert intcheck.vandermonde([2, 7, -1]) == (2 - 7) * (2 + 1) * (7 + 1)


def test_schur_values_agree_with_h_and_e():
    # the bialternant quotient against the one-variable-at-a-time h_k
    # recursion and against e_k summed over subsets
    for n in range(1, 6):
        values = intcheck.xs(n)
        for k in range(0, 6):
            assert intcheck.schur((k,) if k else (), n) == intcheck.complete_homogeneous(k, n)
            e_k = sum(prod(c) for c in combinations(values, k))
            assert intcheck.schur((1,) * k, n) == (e_k if k <= n else 0)
    assert intcheck.complete_homogeneous(-1, 3) == 0
    assert intcheck.schur((1, 1, 1), 2) == 0


def test_alternant_is_schur_times_vandermonde():
    for n in range(1, 5):
        vandermonde = intcheck.vandermonde(intcheck.xs(n))
        for shape in partitions_in_box(n, 3):
            assert intcheck.alternant(shape, n) == intcheck.schur(shape, n) * vandermonde


def test_factorial_schur_small_cases():
    x1, x2, a1, a2 = intcheck.x(1), intcheck.x(2), intcheck.a(1), intcheck.a(2)
    assert intcheck.factorial_schur((), 3) == 1
    assert intcheck.factorial_schur((1,), 1) == x1 - a1
    # s_(1)(x1, x2 | a) = x1 + x2 - a1 - a2
    assert intcheck.factorial_schur((1,), 2) == x1 + x2 - a1 - a2
    assert intcheck.factorial_schur((2,), 1) == (x1 - a1) * (x1 - a2)


def test_closed_forms():
    x, y = intcheck.x, intcheck.y
    assert intcheck.lemma_product(1, 4) == 1
    assert intcheck.lemma_product(3, 2) == (x(1) - x(3)) * (x(1) - x(4))
    assert intcheck.geometric(1, 2, 0) == 1
    assert intcheck.geometric(1, 2, 2) == 1 + x(1) * y(2) + (x(1) * y(2)) ** 2
    assert intcheck.dual_product(1, 1) == 1 + x(1) * y(1)
    assert intcheck.dual_determinant(1, 1) == -(1 + x(1) * y(1))
    assert intcheck.dual_determinant(2, 1) == (x(1) - x(2)) * intcheck.dual_product(2, 1)


def test_schur_is_the_bialternant_quotient():
    # the r x r Jacobi-Trudi determinant against alternant / Vandermonde, its oracle
    for n in range(1, 7):
        vandermonde = intcheck.vandermonde(intcheck.xs(n))
        for shape in partitions_in_box(n, 8):
            if sum(shape) > 8:
                continue
            quotient, remainder = divmod(intcheck.alternant(shape, n), vandermonde)
            assert remainder == 0 and intcheck.schur(shape, n) == quotient, (shape, n)
