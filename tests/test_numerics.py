"""Tensor kernel and autodiff tests against independent hand-rolled oracles."""

import ast
import hashlib
import math
import random
import re
import struct
from array import array
from collections import Counter
from operator import mul
from pathlib import Path

import pytest

import evlm
from evlm.errors import ContractViolationError, DimensionError, NonFiniteError
from evlm.numerics import Graph, Tensor, derive_seed
from evlm.numerics.graph import _DOT_CAP, mm_abt_data, mm_data


# -- oracles ----------------------------------------------------------------


def dot(g, a, b):
    """Sum of a * b over every entry as a (1,1) node: a flattened to one row
    times b flattened to one column."""
    return g.matmul(g.reshape(a, (1, a.t.size)), g.reshape(b, (b.t.size, 1)))


def matmul_oracle(a, b):
    """Element-by-element triple loop over nested lists."""
    m, k, n = len(a), len(a[0]), len(b[0])
    out = [[0.0] * n for _ in range(m)]
    for i in range(m):
        for j in range(n):
            s = 0.0
            for p in range(k):
                s += a[i][p] * b[p][j]
            out[i][j] = s
    return out


def softmax_oracle(row, mask_row):
    """Direct exp-normalize arithmetic over the allowed entries."""
    exps = [math.exp(v) if ok else 0.0 for v, ok in zip(row, mask_row)]
    z = sum(exps)
    return [e / z for e in exps]


def cross_entropy_oracle(logits, targets, mask):
    """Per-position log-softmax, averaged over unmasked positions."""
    total, count = 0.0, 0
    for row, tgt, ok in zip(logits, targets, mask):
        if not ok:
            continue
        z = sum(math.exp(v) for v in row)
        total += math.log(z) - row[tgt]
        count += 1
    return total / count


def rand_matrix(rng, m, n, scale=1.0):
    return [[rng.uniform(-scale, scale) for _ in range(n)] for _ in range(m)]


# -- central-difference gradient check -----------------------------------------

H = 1e-5  # central-difference step
FLOOR = 1e-6  # smallest denominator of the relative error


def _eval_loss(build_loss, params):
    g = Graph()
    nodes = [g.param(p) for p in params]
    value = build_loss(g, nodes).t.item()
    if value != value:
        raise NonFiniteError("loss is NaN")
    return value


def grad_check(build_loss, params, sample=None, seed=0):
    """Worst relative error between reverse-mode and central differences.

    build_loss takes a fresh graph plus the parameter nodes and returns a
    scalar node; it must be deterministic in the parameter values. Every
    coordinate of every parameter is perturbed by +-H unless `sample` caps
    the per-tensor coordinate count (sampled deterministically). The
    denominator is floored so coordinates whose true gradient sits below the
    finite-difference noise floor compare absolutely instead of exploding.
    """
    g = Graph()
    nodes = [g.param(p) for p in params]
    g.backward(build_loss(g, nodes))
    analytic = [g.grad(n).data for n in nodes]

    rng = random.Random(seed)
    worst = 0.0
    for t, adg in zip(params, analytic):
        coords = range(t.size)
        if sample is not None and sample < t.size:
            coords = sorted(rng.sample(range(t.size), sample))
        for i in coords:
            orig = t.data[i]
            t.data[i] = orig + H
            fp = _eval_loss(build_loss, params)
            t.data[i] = orig - H
            fm = _eval_loss(build_loss, params)
            t.data[i] = orig
            fd = (fp - fm) / (2.0 * H)
            ad = adg[i]
            err = abs(ad - fd) / max(abs(ad), abs(fd), FLOOR)
            if err > worst:
                worst = err
    return worst


# -- matmul -----------------------------------------------------------------


def test_matmul_identity_3x3():
    rng = random.Random(1)
    x = Tensor((3, 3), sum(rand_matrix(rng, 3, 3), []))
    eye = Tensor((3, 3), [1.0 if i == j else 0.0 for i in range(3) for j in range(3)])
    g = Graph()
    out = g.matmul(g.param(eye), g.param(x))
    assert out.t.data == x.data


def test_matmul_2x2_example():
    g = Graph()
    a = g.param(Tensor((2, 2), [1.0, 2.0, 3.0, 4.0]))
    i2 = g.param(Tensor((2, 2), [1.0, 0.0, 0.0, 1.0]))
    out = g.matmul(a, i2).t
    assert (out.shape, out.data) == ((2, 2), [1, 2, 3, 4])


def test_matmul_against_triple_loop_oracle():
    rng = random.Random(7)
    a = rand_matrix(rng, 4, 5)
    b = rand_matrix(rng, 5, 3)
    g = Graph()
    got = g.matmul(g.param(Tensor((4, 5), sum(a, []))), g.param(Tensor((5, 3), sum(b, [])))).t
    want = sum(matmul_oracle(a, b), [])
    assert got.shape == (4, 3)
    assert max(abs(x - y) for x, y in zip(got.data, want)) < 1e-12


def test_matmul_randomized_shapes_vs_oracle():
    rng = random.Random(123)
    for _ in range(100):
        m, k, n = rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 8)
        a = rand_matrix(rng, m, k, 2.0)
        b = rand_matrix(rng, k, n, 2.0)
        g = Graph()
        got = g.matmul(g.param(Tensor((m, k), sum(a, []))), g.param(Tensor((k, n), sum(b, [])))).t
        want = sum(matmul_oracle(a, b), [])
        assert got.shape == (m, n)
        assert max(abs(x - y) for x, y in zip(got.data, want)) < 1e-12


def general_mm_data(a, m, k, b, n):
    """mm_data with one sum() per entry: the reference for its dot products."""
    bt = [b[j::n] for j in range(n)]
    out = []
    for i in range(m):
        row = a[i * k : (i + 1) * k]
        out.extend([sum(map(mul, row, col)) for col in bt])
    return out


def general_mm_abt_data(a, m, n, b, p):
    """mm_abt_data with one sum() per entry: the reference for its dot products."""
    brows = [b[q * n : (q + 1) * n] for q in range(p)]
    out = []
    for i in range(m):
        row = a[i * n : (i + 1) * n]
        out.extend([sum(map(mul, row, br)) for br in brows])
    return out


# past _DOT_CAP dots() calls sum(); a 5,000-term chain would not even compile (RecursionError)
@pytest.mark.parametrize("k", [1, 2, 3, 16, 64, _DOT_CAP, _DOT_CAP + 1, 5000])
@pytest.mark.parametrize(
    "kernel,reference",
    [(mm_data, general_mm_data), (mm_abt_data, general_mm_abt_data)],
    ids=["mm_data", "mm_abt_data"],
)
def test_matmul_kernels_are_bit_identical_to_one_sum_per_entry(kernel, reference, k):
    rng = random.Random(k)
    pool = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e150, -1e-300]

    def draw(count):
        return [rng.choice(pool) if rng.random() < 0.4 else rng.uniform(-3, 3) for _ in range(count)]

    for _ in range(max(4, min(200, 20_000 // k))):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        a, b = draw(m * k), draw(k * n)
        got, want = kernel(a, m, k, b, n), reference(a, m, k, b, n)
        assert [struct.pack("<d", v) for v in got] == [struct.pack("<d", v) for v in want]


# 1e155 * 1e155 overflows, so some sums are inf and, with -1e155, nan: a skipped ±0.0 term leaves both
_ZERO_ROW_POOL = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e150, -1e-300, 1e155, -1e155]


def rows_with_zeros(rng, rows, width, live):
    """rows x width values where all but `live` random rows hold only 0.0 and -0.0, mixed."""
    keep = set(rng.sample(range(rows), live))
    return [
        (rng.choice(_ZERO_ROW_POOL) if rng.random() < 0.4 else rng.uniform(-3, 3)) if r in keep
        else rng.choice((0.0, -0.0))
        for r in range(rows)
        for _ in range(width)
    ]


def assert_same_bytes(got, want):
    assert [struct.pack("<d", v) for v in got] == [struct.pack("<d", v) for v in want]


# mm_data drops the all-zero rows of b, so the live count sets the dot length: on each side of _DOT_CAP
@pytest.mark.parametrize(
    "k,live",
    [(1, 0), (1, 1), (6, 0), (6, 1), (6, 4), (_DOT_CAP + 3, _DOT_CAP), (_DOT_CAP + 3, _DOT_CAP + 1)],
)
def test_mm_data_skips_all_zero_rows_of_b_bit_identically(k, live):
    rng = random.Random(1000 * k + live)
    for _ in range(max(4, 2000 // k)):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        a, b = rows_with_zeros(rng, m, k, m), rows_with_zeros(rng, k, n, live)
        assert_same_bytes(mm_data(a, m, k, b, n), general_mm_data(a, m, k, b, n))


# mm_abt_data keeps the dot length n and skips the all-zero rows of a
@pytest.mark.parametrize("n", [1, 6, _DOT_CAP, _DOT_CAP + 1])
@pytest.mark.parametrize("live", [0, 1, 3])
def test_mm_abt_data_skips_all_zero_rows_of_a_bit_identically(n, live):
    rng = random.Random(1000 * n + live)
    for _ in range(max(4, 2000 // n)):
        m, p = rng.randint(max(1, live), 6), rng.randint(1, 6)
        a, b = rows_with_zeros(rng, m, n, live), rows_with_zeros(rng, p, n, p)
        assert_same_bytes(mm_abt_data(a, m, n, b, p), general_mm_abt_data(a, m, n, b, p))


def test_a_skipped_zero_row_leaves_inf_and_nan_sums_as_they_are():
    # finite operands whose products overflow: the sums reach inf, and inf - inf = nan
    big = 1e155
    cases = [
        (mm_data, general_mm_data, ([big, -0.0, big, big, 0.0, -big], 2, 3, [big, 1.0, -0.0, 0.0, big, big], 2)),
        (mm_abt_data, general_mm_abt_data, ([0.0, -0.0, big, big], 2, 2, [big, -big, big, big], 2)),
    ]
    for kernel, reference, args in cases:
        got = kernel(*args)
        assert any(map(math.isinf, got)) and any(map(math.isnan, got))
        assert_same_bytes(got, reference(*args))


@pytest.mark.parametrize(
    "kernel,a,m,k,b,n",
    [
        (mm_data, [1.0] * 3, 2, 2, [1.0] * 4, 2),
        (mm_data, [1.0] * 4, 2, 2, [1.0] * 3, 2),
        (mm_data, [1.0], 2, 1, [1.0] * 2, 2),
        (mm_abt_data, [1.0] * 3, 2, 2, [1.0] * 4, 2),
        (mm_abt_data, [1.0] * 4, 2, 2, [1.0] * 4, 3),
    ],
    ids=["mm_data_short_a", "mm_data_short_b", "mm_data_outer_product_short_a", "mm_abt_data_short_a",
         "mm_abt_data_short_b"],
)
def test_matmul_kernels_reject_an_operand_shorter_than_its_shape(kernel, a, m, k, b, n):
    with pytest.raises(DimensionError):
        kernel(a, m, k, b, n)


def test_matmul_rows_matches_one_matmul_per_row_bit_for_bit():
    rng = random.Random(6)
    a = Tensor((5, 3), sum(rand_matrix(rng, 5, 3), []))
    w = Tensor((3, 4), sum(rand_matrix(rng, 3, 4), []))
    up = Tensor((5, 4), sum(rand_matrix(rng, 5, 4), []))

    def grads(grouped):
        g = Graph()
        na, nw = g.param(a), g.param(w)
        pre = g.matmul(g.constant(up), g.transpose(nw))  # w also has a consumer outside the rows
        if grouped:
            out = g.matmul_rows(na, nw)
        else:
            out = g.rows([g.matmul(g.rows([na], [i]), nw) for i in range(5)])
        g.backward(g.add(dot(g, out, g.constant(up)), dot(g, pre, pre)))
        return out.t.data, g.grad(na).data, g.grad(nw).data

    assert grads(True) == grads(False)
    assert [struct.pack("<d", v) for v in grads(True)[2]] == [struct.pack("<d", v) for v in grads(False)[2]]


def test_matmul_shape_mismatch():
    g = Graph()
    a = g.param(Tensor.zeros(2, 3))
    b = g.param(Tensor.zeros(2, 3))
    with pytest.raises(DimensionError):
        g.matmul(a, b)


# -- softmax_masked ----------------------------------------------------------


def test_softmax_symmetric_pair():
    g = Graph()
    out = g.softmax_masked(g.param(Tensor((1, 2), [0.0, 0.0])), [[True, True]])
    assert out.t.data == [0.5, 0.5]


def test_softmax_single_allowed_key():
    rng = random.Random(3)
    for _ in range(10):
        x, y = rng.uniform(-50, 50), rng.uniform(-50, 50)
        g = Graph()
        out = g.softmax_masked(g.param(Tensor((1, 2), [x, y])), [[True, False]])
        assert out.t.data == [1.0, 0.0]


def test_softmax_matches_direct_arithmetic():
    g = Graph()
    out = g.softmax_masked(g.param(Tensor((1, 3), [1.0, 2.0, 3.0])), [[True] * 3])
    want = softmax_oracle([1.0, 2.0, 3.0], [True] * 3)
    assert max(abs(a - b) for a, b in zip(out.t.data, want)) < 1e-12


def test_softmax_rows_sum_to_one_and_masked_zero():
    rng = random.Random(11)
    for _ in range(50):
        q, k = rng.randint(1, 6), rng.randint(1, 6)
        scores = rand_matrix(rng, q, k, 30.0)
        mask = [[rng.random() < 0.6 for _ in range(k)] for _ in range(q)]
        for row in mask:  # keep every row legal
            if not any(row):
                row[rng.randrange(k)] = True
        g = Graph()
        out = g.softmax_masked(g.param(Tensor((q, k), sum(scores, []))), mask).t
        for i in range(q):
            row = out.data[i * k : (i + 1) * k]
            assert abs(sum(row) - 1.0) <= 1e-12
            for v, ok in zip(row, mask[i]):
                if not ok:
                    assert v == 0.0


def test_softmax_fully_masked_row_rejected():
    g = Graph()
    with pytest.raises(ContractViolationError):
        g.softmax_masked(g.param(Tensor((1, 2), [1.0, 2.0])), [[False, False]])


# -- cross_entropy ------------------------------------------------------------


def test_cross_entropy_confident_correct():
    logits = [[100.0, 0.0, 0.0], [0.0, 100.0, 0.0]]
    g = Graph()
    loss = g.cross_entropy(g.param(Tensor((2, 3), sum(logits, []))), [0, 1], [True, True])
    assert loss.t.item() < 1e-10


def test_cross_entropy_uniform_is_log_v():
    g = Graph()
    loss = g.cross_entropy(g.param(Tensor.zeros(2, 4)), [1, 3], [True, True])
    assert abs(loss.t.item() - math.log(4)) < 1e-12


def test_cross_entropy_matches_log_softmax_oracle():
    rng = random.Random(5)
    logits = rand_matrix(rng, 3, 5, 4.0)
    targets = [rng.randrange(5) for _ in range(3)]
    mask = [True, False, True]
    g = Graph()
    loss = g.cross_entropy(g.param(Tensor((3, 5), sum(logits, []))), targets, mask)
    assert abs(loss.t.item() - cross_entropy_oracle(logits, targets, mask)) < 1e-10


def test_cross_entropy_all_masked_rejected():
    g = Graph()
    with pytest.raises(ContractViolationError):
        g.cross_entropy(g.param(Tensor.zeros(2, 3)), [0, 0], [False, False])


def test_cross_entropy_target_out_of_range():
    g = Graph()
    with pytest.raises(ContractViolationError):
        g.cross_entropy(g.param(Tensor.zeros(1, 3)), [3], [True])


# -- layer_norm ----------------------------------------------------------------


def layer_norm_oracle(rows, gain, bias, eps=1e-5):
    out = []
    for row in rows:
        d = len(row)
        mu = sum(row) / d
        var = sum((v - mu) ** 2 for v in row) / d
        inv = 1.0 / math.sqrt(var + eps)
        out.append([(v - mu) * inv * g + b for v, g, b in zip(row, gain, bias)])
    return out


def test_layer_norm_matches_oracle():
    rng = random.Random(9)
    rows = rand_matrix(rng, 4, 6, 3.0)
    gain = [rng.uniform(0.5, 1.5) for _ in range(6)]
    bias = [rng.uniform(-0.5, 0.5) for _ in range(6)]
    g = Graph()
    out = g.layer_norm(
        g.param(Tensor((4, 6), sum(rows, []))),
        g.param(Tensor((1, 6), gain)),
        g.param(Tensor((1, 6), bias)),
    )
    want = sum(layer_norm_oracle(rows, gain, bias), [])
    assert out.t.shape == (4, 6)
    assert max(abs(a - b) for a, b in zip(out.t.data, want)) < 1e-12


# -- structural ops --------------------------------------------------------------


def test_transpose_reshape_roundtrip():
    rng = random.Random(2)
    x = Tensor((3, 5), sum(rand_matrix(rng, 3, 5), []))
    g = Graph()
    n = g.param(x)
    assert g.transpose(g.transpose(n)).t.data == x.data
    assert g.reshape(g.reshape(n, (5, 3)), (3, 5)).t.data == x.data


def test_row_select_repeats_and_col_select():
    x = Tensor((2, 3), [1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    g = Graph()
    n = g.param(x)
    rows = g.rows([n], [1, 0, 1]).t
    assert (rows.shape, rows.data) == ((3, 3), [4, 5, 6, 1, 2, 3, 4, 5, 6])


def test_concat_rows_and_cols():
    g = Graph()
    a = g.param(Tensor((1, 2), [1.0, 2.0]))
    b = g.param(Tensor((2, 2), [3.0, 4.0, 5.0, 6.0]))
    rows = g.rows([a, b]).t
    assert (rows.shape, rows.data) == ((3, 2), [1, 2, 3, 4, 5, 6])


def test_rows_and_cols_pick_across_parts_and_sum_repeats_in_order():
    # (0.1 + 0.2) + 0.3 == 0.6000000000000001 but 0.3 + (0.2 + 0.1) == 0.6:
    # a repeated pick's gradient is summed in output order, from 0.0
    g = Graph()
    a = g.param(Tensor((1, 2), [1.0, 2.0]))
    b = g.param(Tensor((2, 2), [3.0, 4.0, 5.0, 6.0]))
    rows = g.rows([a, b], [2, 0, 2, 2])
    assert (rows.t.shape, rows.t.data) == ((4, 2), [5, 6, 1, 2, 5, 6, 5, 6])
    g.backward(dot(g, rows, g.constant(Tensor((4, 2), [0.1, 1.0, 0.3, 0.4, 0.2, 2.0, 0.3, 3.0]))))
    assert g.grad(a).data == [0.3, 0.4]
    assert g.grad(b).data == [0.0, 0.0, 0.6000000000000001, 6.0]


@pytest.mark.parametrize(
    "shapes, indices",
    [([(1, 2), (2, 2)], [3]), ([(1, 2), (2, 2)], [0, -1]), ([(1, 2), (2, 3)], None)],
    ids=["rows_past_end", "rows_negative", "rows_column_mismatch"],
)
def test_rows_and_cols_reject_bad_indices_and_mismatched_parts(shapes, indices):
    g = Graph()
    parts = [g.param(Tensor.zeros(*shape)) for shape in shapes]
    with pytest.raises(DimensionError):
        g.rows(parts, indices)


def _uses(tree):
    """What a syntax tree uses by name: each name it loads (`name`), each
    attribute it reads (`.name`), and each dotted name held in a string, such
    as the tracer's target "FusedModel.forward_nodes", whole and by its head."""
    uses = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses["." + node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if re.fullmatch(r"\w+(\.\w+)*", node.value):
                uses.update({node.value, node.value.split(".")[0]})
    return uses


def _public_definitions(tree):
    """(shown name, the _uses keys that use it, definition node) for each
    public function and class of a module and each public method of those
    classes. A method is used through an attribute only: a bare name of the
    same spelling is some local variable."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, (node.name, "." + node.name), node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    shown = f"{node.name}.{item.name}"
                    yield shown, ("." + item.name, shown), item


def test_every_public_name_is_used_outside_the_tests():
    # A name only tests use belongs in the tests, not in the package. Uses are
    # counted over evlm and the benchmark's modules; a definition's own body
    # and an __init__.py re-export are not uses.
    src = Path(evlm.__file__).parent
    trees = {path: ast.parse(path.read_text()) for path in sorted(src.rglob("*.py"))}
    bench = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))
    uses = sum((_uses(t) for path, t in trees.items() if path.name != "__init__.py"), Counter())
    uses += sum((_uses(ast.parse(path.read_text())) for path in bench), Counter())
    unused = [
        f"{path.relative_to(src)}: {name}"
        for path, tree in trees.items()
        for name, keys, node in _public_definitions(tree)
        if sum(uses[k] for k in keys) == sum(_uses(node)[k] for k in keys)
    ]
    assert unused == [], f"used by nothing but tests: {', '.join(unused)}"


# -- gradients -----------------------------------------------------------------


def test_grad_check_quadratic():
    x = Tensor((1, 2), [1.0, 2.0])

    def loss(g, nodes):
        return dot(g, nodes[0], nodes[0])

    assert grad_check(loss, [x]) < 1e-7
    g = Graph()
    n = g.param(x)
    g.backward(dot(g, n, n))
    grad = g.grad(n)
    assert grad.shape == (1, 2)
    assert all(abs(a - b) <= 1e-12 for a, b in zip(grad.data, [2.0, 4.0]))


@pytest.mark.parametrize(
    "opname",
    [
        "matmul",
        "matmul_rows",
        "add",
        "scale",
        "smul",
        "smul_column",
        "tanh",
        "gelu",
        "layer_norm",
        "softmax_masked",
        "cross_entropy",
        "transpose",
        "reshape",
        "row_select",
        "rows",
    ],
)
def test_grad_check_each_op(opname):
    rng = random.Random(derive_seed(17, opname) % 2**32)
    a = Tensor((3, 4), sum(rand_matrix(rng, 3, 4), []))
    b = Tensor((4, 2), sum(rand_matrix(rng, 4, 2), []))
    w = Tensor((3, 4), sum(rand_matrix(rng, 3, 4), []))
    s = Tensor((1, 1), [0.7])
    gain = Tensor((1, 4), [1.1, 0.9, 1.0, 1.2])
    bias = Tensor((1, 4), [0.1, -0.2, 0.0, 0.3])
    mask = [[True, True, False, True], [True, False, True, True], [False, True, True, True]]

    def build(g, nodes):
        na, nb, nw, ns, ng, nbias = nodes
        if opname == "matmul":
            out = g.matmul(na, nb)
        elif opname == "matmul_rows":
            out = g.matmul_rows(na, nb)
        elif opname == "add":
            out = g.add(na, nw)
        elif opname == "scale":
            out = g.scale(na, -1.7)
        elif opname == "smul":
            out = g.smul(na, ns)
        elif opname == "smul_column":
            out = g.smul(na, g.rows([g.reshape(nw, (12, 1))], [0, 4, 8]))
        elif opname == "tanh":
            out = g.tanh(na)
        elif opname == "gelu":
            out = g.gelu(na)
        elif opname == "layer_norm":
            out = g.layer_norm(na, ng, nbias)
        elif opname == "softmax_masked":
            out = g.softmax_masked(na, mask)
        elif opname == "cross_entropy":
            return g.cross_entropy(na, [1, 3, 0], [True, True, True])
        elif opname == "transpose":
            out = g.transpose(na)
        elif opname == "reshape":
            out = g.reshape(na, (4, 3))
        elif opname == "row_select":
            out = g.rows([na], [2, 0, 2])
        else:
            out = g.rows([na, nw, na], [5, 0, 5, 2, 8])
        # squash through a nonlinearity so the sum has nontrivial curvature
        return dot(g, out, g.tanh(out))

    assert grad_check(build, [a, b, w, s, gain, bias]) < 1e-4


def test_backward_accumulates_shared_parents():
    # y = x*x + x used twice: dy/dx = 2x + 1
    x = Tensor((1, 1), [3.0])
    g = Graph()
    n = g.param(x)
    g.backward(g.add(g.matmul(n, n), n))
    assert abs(g.grad(n).item() - 7.0) < 1e-12


def closure_cells(g, node):
    """What the backward closure of an op result holds."""
    return [c.cell_contents for c in g._bwd[node.idx].__closure__]


def test_consumers_of_an_op_result_keep_one_packed_copy_of_it():
    rng = random.Random(8)
    g = Graph()
    x = g.param(Tensor((3, 4), sum(rand_matrix(rng, 3, 4), [])))
    ws = [g.param(Tensor((4, 2), sum(rand_matrix(rng, 4, 2), []))) for _ in range(3)]
    h = g.gelu(x)  # one op result feeding three matmuls
    cells = [closure_cells(g, g.matmul(h, w)) for w in ws]
    packed = [[v for v in held if isinstance(v, array)] for held in cells]
    assert all(len(p) == 1 and p[0] is packed[0][0] for p in packed)
    assert packed[0][0].tobytes() == array("d", h.t.data).tobytes()
    for held, w in zip(cells, ws):  # a parameter's values stay its own list
        assert any(v is w.t.data for v in held)


def test_packed_gradient_sums_match_list_sums_bit_for_bit():
    # p reaches the loss four ways; each contribution holds a -0.0 at p's zero
    # entry, and so does their sum, which a sign lost in packing would flip
    g = Graph()
    p = g.param(Tensor((1, 4), [0.5, -1.0, 0.0, 2.0]))
    ys = [g.scale(p, c) for c in (-2.0, -0.0, -0.25, -3.0)]
    s = ys[0]
    for y in ys[1:]:
        s = g.add(s, y)
    loss = dot(g, s, g.scale(s, 0.5))
    seen = []  # every contribution to p, in the order backward adds them

    def watched(fn):
        return lambda grad, acc: fn(grad, lambda j, d: (j == p.idx and seen.append(list(d)), acc(j, d)))

    g._bwd = [fn and watched(fn) for fn in g._bwd]
    g.backward(loss)
    want = seen[0]
    for d in seen[1:]:
        want = [a + b for a, b in zip(want, d)]
    assert len(seen) == 4 and all(math.copysign(1.0, d[2]) < 0 for d in [*seen, want])
    assert array("d", g.grad(p).data).tobytes() == array("d", want).tobytes()


def leaf_and_ops_graph():
    """x, an unreached leaf, y = 3x, an op backward never reaches, and the
    loss dot(y, y), whose gradient for x is 18x."""
    g = Graph()
    x = g.param(Tensor((1, 2), [1.0, 2.0]))
    unused = g.constant(Tensor((1, 1), [5.0]))
    y = g.scale(x, 3.0)
    stray = g.tanh(x)
    return g, x, unused, [y, stray], dot(g, y, y)


def test_a_graph_runs_backward_once():
    g, _, _, _, loss = leaf_and_ops_graph()
    g.backward(loss)
    with pytest.raises(ContractViolationError):
        g.backward(loss)


def test_grad_is_kept_for_leaves_only():
    g, x, unused, ops, loss = leaf_and_ops_graph()
    g.backward(loss)
    assert g.grad(x).data == [18.0, 36.0]
    assert g.grad(unused).data == [0.0]
    for op in [*ops, loss, g.scale(x, 2.0)]:  # reached, unreached, root, issued after backward
        with pytest.raises(ContractViolationError):
            g.grad(op)


def test_grad_check_one_layer_model_cross_entropy():
    # embedding -> linear -> gelu -> linear -> cross-entropy
    table = Tensor.randn((5, 4), derive_seed(3, "emb"), 0.5)
    w1 = Tensor.randn((4, 6), derive_seed(3, "w1"), 0.5)
    w2 = Tensor.randn((6, 5), derive_seed(3, "w2"), 0.5)
    ids = [0, 3, 2, 4]
    targets = [3, 2, 4, 1]

    def loss(g, nodes):
        emb, a, b = nodes
        h = g.gelu(g.matmul(g.rows([emb], ids), a))
        return g.cross_entropy(g.matmul(h, b), targets, [True] * 4)

    assert grad_check(loss, [table, w1, w2]) < 1e-4


# -- invariants ------------------------------------------------------------------


def test_non_finite_rejected():
    with pytest.raises(NonFiniteError):
        Tensor((1, 2), [1.0, float("nan")])
    g = Graph()
    big = g.param(Tensor.full((1, 1), 1e308))
    with pytest.raises(NonFiniteError):
        g.matmul(big, big)


def test_shape_data_mismatch_rejected():
    with pytest.raises(DimensionError):
        Tensor((2, 2), [1.0, 2.0, 3.0])


def test_seeded_init_deterministic_and_independent():
    a = Tensor.randn((4, 4), derive_seed(0, "w1"), std=0.5)
    b = Tensor.randn((4, 4), derive_seed(0, "w1"), std=0.5)
    c = Tensor.randn((4, 4), derive_seed(0, "w2"), std=0.5)
    assert a.data == b.data
    assert a.data != c.data


def randn_oracle(n, seed, std):
    """One Random.gauss call per value: the draw Tensor.randn must equal bit for bit."""
    rng = random.Random(seed)
    return [rng.gauss(0.0, 1.0) * std for _ in range(n)]


@pytest.mark.parametrize("std", [1.0, 0.25, 16**-0.5, 1e-300])
def test_randn_equals_one_gauss_call_per_value_bit_for_bit(std):
    # the odd sizes drop the sin value of the last pair
    for seed in range(200):
        for n in (1, 2, 3, 7, 40, 65):
            got = Tensor.randn((n,), seed, std).data
            assert array("d", got).tobytes() == array("d", randn_oracle(n, seed, std)).tobytes(), (seed, n)


# std 1e308 overflows on most seeds of 200 and stays finite on a few (seed 196 is one)
@pytest.mark.parametrize(
    "std, outcomes", [(math.inf, {False}), (math.nan, {False}), (1e308, {False, True}), (1.0, {True})]
)
def test_randn_raises_non_finite_exactly_when_the_oracle_does(std, outcomes):
    seen = set()
    for seed in range(200):
        finite = all(map(math.isfinite, randn_oracle(64, seed, std)))
        seen.add(finite)
        if finite:
            assert len(Tensor.randn((8, 8), seed, std).data) == 64
        else:
            with pytest.raises(NonFiniteError):
                Tensor.randn((8, 8), seed, std)
    assert seen == outcomes


@pytest.mark.parametrize("shape", [(0,), (0, 4), (4, 0)])
def test_randn_rejects_a_zero_extent(shape):
    with pytest.raises(DimensionError):
        Tensor.randn(shape, 0)


@pytest.mark.parametrize("seed", [0, 7, -3, 2**70])
@pytest.mark.parametrize("name", ["llm.head", "smoke.sample3.1", "", "ü/x"])
def test_derive_seed_is_the_first_8_bytes_of_sha256_of_seed_slash_name(seed, name):
    digest = hashlib.sha256(f"{seed}/{name}".encode()).digest()
    assert derive_seed(seed, name) == int.from_bytes(digest[:8], "big")


def test_derive_seed_pinned_value():
    assert derive_seed(0, "llm.head") == 938466013445297364


def test_float_sum_adds_left_to_right():
    # the bit-exact pins (golden logits, gradients, perfbench references)
    # rest on sum() adding floats one by one, left to right: the layer-norm,
    # softmax and cross-entropy sums and dot products past graph._DOT_CAP
    # terms call it, and the shorter dot products are compiled chains made
    # to equal it bit for bit
    assert sum([0.1] * 10) == 0.9999999999999999, (
        "sum() of floats is compensated on this interpreter (CPython 3.12+, "
        "gh-100425), so bit-exact pins no longer hold; evlm requires Python >=3.10,<3.12"
    )


def test_pipeline_determinism_bit_identical():
    def pipeline():
        t = Tensor.randn((3, 4), derive_seed(42, "x"))
        w = Tensor.randn((4, 4), derive_seed(42, "w"))
        g = Graph()
        nw = g.param(w)
        out = g.gelu(g.matmul(g.param(t), nw))
        out = g.softmax_masked(out, [[True] * 4 for _ in range(3)])
        g.backward(dot(g, out, out))
        return out.t.data, g.grad(nw).data

    first = pipeline()
    second = pipeline()
    assert first == second
